"""Sparse multivariate polynomials over a prime field.

A monomial is stored as one int, its packed exponent vector (Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors", 2007): one fixed-width field per variable, the first
variable most significant, under a top field holding the total degree.  A
product of monomials is then one integer addition, a dict hashes one int,
and int order is the term order of the canonical text: graded
lexicographic in the ring's declared variable order, higher total degree
first, ties broken by comparing exponent vectors left to right.  The top
bit of each exponent field is a guard bit, and a monomial fits when its
total degree is below it: then two fitting exponents add without carrying
into the next field.  A result that would not fit raises SizeGuard.  The
field width depends only on p, so equal sums have equal keys.

Poly shares its sum arithmetic, equality, context check and canonical text
with steenrod.CohClass through the base class _SparseSum, whose sums and
differences each take one pass of _add_terms; diff_detail and
agree, the outcome of a check that two sums are equal, serve both.  The
.terms of either is a read-only view keyed by exponent tuples.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import combinations

from .errors import (
    ArityMismatch,
    ConjChernError,
    NotSquare,
    RingMismatch,
    SizeGuard,
)
from .fp import check_modulus

MAX_DET_SIZE = 8


def _field_width(p: int) -> int:
    """Bits per packed exponent field over F_p, the guard bit included.

    The checks reach total degrees of about 2p^4 (the relations suite), so
    8 bits per bit of p leave a wide margin; 32 bits is the floor."""
    return max(32, 8 * p.bit_length())


def _add_terms(pairs, p: int, out=None) -> dict:
    """Sum (key, coefficient) pairs onto a copy of the reduced term dict out,
    dropping the zero coefficients.

    Without out, the sums are reduced mod p once at the end; with out, only
    the keys the pairs touch are reduced, so adding a short sum to a long
    one costs one copy of the long one.  The one sparse accumulate loop:
    polynomials and cohomology classes add, multiply and substitute through
    it."""
    if out:
        acc = dict(out)
        get = acc.get
        for key, c in pairs:
            if r := (get(key, 0) + c) % p:
                acc[key] = r
            else:
                acc.pop(key, None)
        return acc
    acc = {}
    get = acc.get
    for key, c in pairs:
        acc[key] = get(key, 0) + c
    return {key: r for key, c in acc.items() if (r := c % p)}


def _perm_sign(base, target) -> int:
    """Sign of the permutation that carries the sequence base to target."""
    positions = [base.index(t) for t in target]
    inversions = sum(1 for a, b in combinations(positions, 2) if a > b)
    return -1 if inversions % 2 else 1


class _ExponentLayout:
    """The packing of exponent vectors of a given arity over F_p into ints,
    and the equality and constants of a context of sums built on it.

    _shifts[i] is the offset of the field of variable i, _units[i] the key
    of that variable alone, _dshift the offset of the total-degree field,
    _limit the first degree that does not fit and _cap the first key that
    does not fit.  A context sets _identity, the tuple equality compares,
    and _sum, its sum type."""

    __slots__ = (
        "p", "_width", "_fmask", "_shifts", "_units", "_dshift", "_limit", "_cap", "_identity",
    )

    def _lay_out(self, p: int, arity: int) -> None:
        self.p = p
        w = self._width = _field_width(p)
        self._fmask = (1 << w) - 1
        self._shifts = tuple(w * (arity - 1 - i) for i in range(arity))
        self._dshift = w * arity
        self._units = tuple((1 << s) + (1 << self._dshift) for s in self._shifts)
        self._limit = 1 << (w - 1)
        self._cap = self._limit << self._dshift

    def _fit(self, top: int) -> None:
        """Raise SizeGuard unless the key top, a bound on every key of a
        result, fits: its total degree lies below the guard bits."""
        if top >= self._cap:
            raise SizeGuard(
                f"total degree {top >> self._dshift} does not fit the "
                f"{self._width - 1}-bit exponent fields of {self!r}"
            )

    def _pack(self, exps) -> int:
        """The key of an exponent vector of non-negative ints."""
        key = sum(exps) << self._dshift
        for e, s in zip(exps, self._shifts):
            key |= e << s
        self._fit(key)
        return key

    def _unpack(self, key: int) -> tuple:
        """The exponent vector of a key."""
        fmask = self._fmask
        return tuple(key >> s & fmask for s in self._shifts)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._identity == other._identity
        return NotImplemented

    def __hash__(self):
        return hash(self._identity)

    def zero(self):
        return self._sum._raw(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c: int):
        c %= self.p
        return self._sum._raw(self, {0: c} if c else {})


class PolyRing(_ExponentLayout):
    """F_p[v_1, ..., v_n] with a fixed variable order."""

    __slots__ = ("variables", "_index")

    def __init__(self, p: int, variables):
        check_modulus(p)
        names = tuple(variables)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.variables = names
        self._index = {name: i for i, name in enumerate(names)}
        self._lay_out(p, len(names))
        self._identity = (p, names)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __repr__(self):
        return f"PolyRing(p={self.p}, variables={self.variables})"

    def var_index(self, var) -> int:
        if isinstance(var, str):
            if var not in self._index:
                raise ValueError(f"unknown variable {var!r}")
            return self._index[var]
        if not 0 <= var < self.arity:
            raise ValueError(f"variable index {var} out of range")
        return var

    def _encode(self, mono) -> int:
        """The key of an exponent tuple, checked."""
        mono = tuple(mono)
        if len(mono) != self.arity:
            raise ArityMismatch(f"monomial {mono} has wrong arity for {self.variables}")
        if any(e < 0 for e in mono):
            raise ValueError(f"negative exponent in {mono}")
        return self._pack(mono)

    _decode = _ExponentLayout._unpack

    def variable(self, var) -> Poly:
        return Poly._raw(self, {self._units[self.var_index(var)]: 1})

    def monomial(self, exponents, coeff: int = 1) -> Poly:
        """Build c * prod(v_i^e_i); exponents given as a dict or a full tuple."""
        if isinstance(exponents, dict):
            exps = [0] * self.arity
            for var, e in exponents.items():
                exps[self.var_index(var)] = e
            exponents = exps
        key = self._encode(exponents)
        coeff %= self.p
        if not coeff:
            return self.zero()
        return Poly._raw(self, {key: coeff})


def _powers(names, exponents) -> list:
    """The factors v and v^e of a monomial, one for each nonzero exponent."""
    return [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exponents) if e]


class _TermsView(Mapping):
    """The terms of a sum keyed by their unpacked monomials, read-only."""

    __slots__ = ("_ctx", "_terms")

    def __init__(self, ctx, terms: dict):
        self._ctx = ctx
        self._terms = terms

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return map(self._ctx._decode, self._terms)

    def __getitem__(self, mono):
        try:
            key = self._ctx._encode(mono)
        except (ConjChernError, ValueError, TypeError):
            raise KeyError(mono) from None
        return self._terms[key]

    def __repr__(self):
        return repr(dict(self.items()))


class _SparseSum:
    """A finite sum of keyed terms over F_p, held in canonical form: _terms
    maps each packed key to a coefficient in [1, p).

    The constructor, sum arithmetic, equality, the context check and the
    canonical text of Poly and CohClass.  _ctx is the ring or algebra of the
    sum (with .p, .constant, and _encode/_decode between packed keys and
    monomials); a subclass gives it its public name, and supplies _mismatch,
    the error for sums over different contexts; _sort_key, the ascending
    order of its keys (None for int order); and _monomial_text(key), the
    name of a key, "" for the unit.
    """

    __slots__ = ("_ctx", "_terms")

    def __init__(self, ctx, terms: dict):
        """The sum of terms, a dict of monomials to coefficients: each
        monomial checked and packed, each coefficient reduced, zeros dropped."""
        self._ctx = ctx
        self._terms = _add_terms(((ctx._encode(k), c) for k, c in terms.items()), ctx.p)

    @classmethod
    def _raw(cls, ctx, terms: dict):
        """Internal constructor; terms must already be canonical and packed."""
        x = object.__new__(cls)
        x._ctx = ctx
        x._terms = terms
        return x

    @property
    def terms(self) -> Mapping:
        """The terms keyed by unpacked monomials: a read-only view."""
        return _TermsView(self._ctx, self._terms)

    def _check(self, other):
        if self._ctx != other._ctx:
            raise self._mismatch(f"{self._ctx!r} vs {other._ctx!r}")

    def _coerce(self, other):
        """other as a sum of this type, an int as a constant; None otherwise."""
        if isinstance(other, int):
            return self._ctx.constant(other)
        return other if isinstance(other, type(self)) else None

    def _scaled(self, c: int):
        """The product with the integer c."""
        ctx = self._ctx
        p = ctx.p
        c %= p
        if c == 1:
            return self
        terms = {k: v * c % p for k, v in self._terms.items()} if c else {}
        return self._raw(ctx, terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        ctx = self._ctx
        return self._raw(ctx, _add_terms(other._terms.items(), ctx.p, self._terms))

    __radd__ = __add__

    def __sub__(self, other):
        """The negated terms of other, summed onto a copy of self's terms in
        one pass."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        ctx = self._ctx
        p = ctx.p
        negated = ((k, p - c) for k, c in other._terms.items())
        return self._raw(ctx, _add_terms(negated, p, self._terms))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        ctx = self._ctx
        p = ctx.p
        return self._raw(ctx, {k: p - c for k, c in self._terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._ctx == other._ctx and self._terms == other._terms

    def __hash__(self):
        return hash((self._ctx, frozenset(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def to_text(self) -> str:
        """Canonical text form: terms in descending order, coefficients in
        [1, p), each written before its monomial unless it is 1."""
        if not self._terms:
            return "0"
        bits = []
        for key in sorted(self._terms, key=self._sort_key, reverse=True):
            c = self._terms[key]
            mono = self._monomial_text(key)
            if not mono:
                bits.append(str(c))
            else:
                bits.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(bits)

    def __repr__(self):
        return f"<{type(self).__name__} {self.to_text()} (mod {self._ctx.p})>"


class Poly(_SparseSum):
    """Immutable sparse polynomial in canonical form (no zero coefficients)."""

    __slots__ = ()
    ring = _SparseSum._ctx  # the context slot, read and set as .ring
    _mismatch = RingMismatch
    _sort_key = None  # int order is graded-lex order

    def _monomial_text(self, key) -> str:
        ring = self.ring
        return "*".join(_powers(ring.variables, ring._unpack(key)))

    # -- ring operations -------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        ring = self.ring
        # iterate over the smaller operand's terms in the outer loop
        a, b = self._terms, other._terms
        if not a or not b:
            return ring.zero()
        if len(a) > len(b):
            a, b = b, a
        ring._fit(max(a) + max(b))
        bitems = list(b.items())
        products = ((m1 + m2, c1 * c2) for m1, c1 in a.items() for m2, c2 in bitems)
        return Poly._raw(ring, _add_terms(products, ring.p))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative power of a polynomial")
        ring = self.ring
        out = ring.one()
        # f^e = prod_j (f^{d_j})^{p^j} with d_j the base-p digits of e;
        # the p^j-th power is a Frobenius twist, exact and cheap in char p.
        j = 0
        rest = e
        while rest:
            rest, d = divmod(rest, ring.p)
            if d:
                piece = self
                for _ in range(d - 1):
                    piece = piece * self
                out = out * piece.frobenius(j)
            j += 1
        return out

    # -- structure -------------------------------------------------------

    def degree(self):
        """Total degree, or None for the zero polynomial."""
        return max(self.degrees(), default=None)

    def degrees(self) -> set:
        dshift = self.ring._dshift
        return {k >> dshift for k in self._terms}

    # -- characteristic-p operations --------------------------------------

    def frobenius(self, e: int) -> Poly:
        """f^(p^e), computed term-wise: exponents scale, coefficients stay."""
        if e < 0:
            raise ValueError("negative Frobenius twist")
        if e == 0 or not self._terms:
            return self
        ring = self.ring
        q = ring.p**e
        # scaling a key scales every field, the degree field included
        ring._fit(max(self._terms) * q)
        return Poly._raw(ring, {k * q: c for k, c in self._terms.items()})

    def partial_derivative(self, var) -> Poly:
        """Formal partial derivative; exponents divisible by p kill the term."""
        ring = self.ring
        i = ring.var_index(var)
        p, fmask, shift, unit = ring.p, ring._fmask, ring._shifts[i], ring._units[i]
        out = {}
        for k, c in self._terms.items():
            e = k >> shift & fmask
            if e and (v := c * e % p):
                out[k - unit] = v
        return Poly._raw(ring, out)

    def compose(self, images) -> Poly:
        """Substitute images[i] for the i-th variable.

        All images must live in one ring over the same prime, the ring of
        the result.
        """
        images = tuple(images)
        if len(images) != self.ring.arity:
            raise ArityMismatch(
                f"{len(images)} images for {self.ring.arity} variables"
            )
        ring = getattr(images[0], "ring", None)
        for im in images:
            if not isinstance(im, Poly) or im.ring != ring:
                raise RingMismatch("substitution images live in different rings")
        if ring.p != self.ring.p:
            raise RingMismatch("substitution must preserve the coefficient prime")
        p = ring.p
        fmask, shifts = self.ring._fmask, self.ring._shifts
        if all(len(im._terms) == 1 for im in images):
            # every image is a single term: map exponent vectors directly
            parts = [next(iter(im._terms.items())) for im in images]
            cap = ring._cap

            def terms():
                for m, c in self._terms.items():
                    key = 0
                    coeff = c
                    for s, (vk, vc) in zip(shifts, parts):
                        e = m >> s & fmask
                        if e:
                            key += e * vk
                            if vc != 1:
                                coeff = coeff * pow(vc, e, p) % p
                    if key >= cap:
                        ring._fit(key)
                    yield key, coeff

        else:
            cache: list = [{} for _ in images]

            def power(i: int, e: int) -> Poly:
                got = cache[i].get(e)
                if got is None:
                    got = cache[i][e] = images[i] ** e
                return got

            def terms():
                for m, c in self._terms.items():
                    term = ring.constant(c)
                    for i, s in enumerate(shifts):
                        e = m >> s & fmask
                        if e:
                            term = term * power(i, e)
                    yield from term._terms.items()

        return Poly._raw(ring, _add_terms(terms(), p))


PolyRing._sum = Poly


def _split_last(f: Poly, ring: PolyRing) -> dict:
    """f as a polynomial in its last variable: each exponent of that variable
    mapped to its coefficient, a Poly over ring, which has f's other
    variables and the same prime."""
    src = f.ring
    fmask, unit, w = src._fmask, src._units[-1], src._width
    parts: dict = {}
    for k, c in f._terms.items():
        e = k & fmask
        # dropping the last field moves the degree field down into its place
        parts.setdefault(e, {})[(k - e * unit) >> w] = c
    return {e: Poly._raw(ring, t) for e, t in parts.items()}


def _join_last(parts: dict, ring: PolyRing) -> Poly:
    """The inverse of _split_last: the Poly over ring in which the e-th power
    of the last variable has the coefficient parts[e], a Poly over the ring
    of the other variables."""
    unit, w = ring._units[-1], ring._width
    terms = {(k << w) + e * unit: c for e, part in parts.items() for k, c in part._terms.items()}
    ring._fit(max(terms, default=0))
    return Poly._raw(ring, terms)


class PolyMatrix:
    """A rectangular matrix of polynomials over a common ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, rows_of_entries):
        rows = [list(r) for r in rows_of_entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must be non-empty")
        width = len(rows[0])
        ring = rows[0][0].ring
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged matrix rows")
            for e in r:
                if not isinstance(e, Poly) or e.ring != ring:
                    raise RingMismatch("matrix entries live in different rings")
        self.ring = ring
        self.rows = len(rows)
        self.cols = width
        self.entries = tuple(tuple(r) for r in rows)


def determinant(mat: PolyMatrix) -> Poly:
    """Exact determinant by signed expansion along the rows, memoized over
    the remaining column subsets; zero entries are skipped."""
    if mat.rows != mat.cols:
        raise NotSquare(f"matrix is {mat.rows}x{mat.cols}")
    n = mat.rows
    if n > MAX_DET_SIZE:
        raise SizeGuard(f"determinant size {n} exceeds {MAX_DET_SIZE}")
    rows = mat.entries
    one, zero = mat.ring.one(), mat.ring.zero()
    memo: dict = {}

    def minor(cols: tuple):
        if not cols:
            return one
        got = memo.get(cols)
        if got is not None:
            return got
        row = rows[n - len(cols)]
        acc = zero
        for k, c in enumerate(cols):
            e = row[c]
            if not e:
                continue
            contrib = e * minor(cols[:k] + cols[k + 1 :])
            acc = acc + contrib if k % 2 == 0 else acc - contrib
        memo[cols] = acc
        return acc

    return minor(tuple(range(n)))


def jacobian_det(fs, variables) -> Poly:
    """Determinant of the matrix of formal partials d(fs[i])/d(variables[j])."""
    fs = list(fs)
    variables = list(variables)
    if not fs:
        raise ValueError("empty function list")
    if len(fs) != len(variables):
        raise NotSquare(f"{len(fs)} functions vs {len(variables)} variables")
    rows = [[f.partial_derivative(v) for v in variables] for f in fs]
    return determinant(PolyMatrix(rows))


def diff_detail(a: _SparseSum, b: _SparseSum, limit: int = 5) -> str:
    """Describe the first differing terms of two sums, in canonical order."""
    diffs = []
    ta, tb = a._terms, b._terms
    for key in sorted(ta.keys() | tb.keys(), key=a._sort_key, reverse=True):
        ca, cb = ta.get(key, 0), tb.get(key, 0)
        if ca != cb:
            diffs.append(f"{a._monomial_text(key) or '1'}: {ca} != {cb}")
            if len(diffs) >= limit:
                break
    if not diffs:
        return "polynomials agree"
    return "first differing terms: " + "; ".join(diffs)


def agree(lhs: _SparseSum, rhs: _SparseSum) -> tuple:
    """The outcome of a check that two sums are equal: (True, "") or
    (False, their diff_detail)."""
    if lhs == rhs:
        return True, ""
    return False, diff_detail(lhs, rhs)
