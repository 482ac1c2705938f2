"""Sparse multivariate polynomials over a prime field.

Monomials are exponent tuples, one entry per ring variable.  The term order
used by division and by canonical serialization is graded lexicographic in
the ring's declared variable order: higher total degree first, ties broken
by comparing exponent vectors left to right.

Poly shares its sum arithmetic, equality, context check and canonical text
with steenrod.CohClass through the base class _SparseSum; diff_detail and
agree, the outcome of a check that two sums are equal, serve both.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from operator import add, neg, sub

from .errors import (
    ArityMismatch,
    DivisionByZero,
    NonExactDivision,
    NotSquare,
    ParseError,
    RingMismatch,
    SizeGuard,
)
from .fp import check_modulus

MAX_DET_SIZE = 8


def grlex_key(monomial):
    """Ascending graded-lex sort key for an exponent tuple."""
    return (sum(monomial), monomial)


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


def _laplace_det(rows, one):
    """Determinant of a square matrix over any commutative ring, by signed
    expansion along the rows, memoized over the remaining column subsets.

    Entries are tested for zero by truth value and skipped; one is the unit
    of the ring of the entries."""
    n = len(rows)
    zero = one - one
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


def _perm_sign(base, target) -> int:
    """Sign of the permutation that carries the sequence base to target."""
    positions = [base.index(t) for t in target]
    inversions = sum(1 for a, b in combinations(positions, 2) if a > b)
    return -1 if inversions % 2 else 1


class PolyRing:
    """F_p[v_1, ..., v_n] with a fixed variable order."""

    __slots__ = ("p", "variables", "_index")

    def __init__(self, p: int, variables):
        self.p = check_modulus(p)
        names = tuple(variables)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self.variables = names
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __eq__(self, other):
        if isinstance(other, PolyRing):
            return self.p == other.p and self.variables == other.variables
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.variables))

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

    def zero(self) -> Poly:
        return Poly._raw(self, {})

    def one(self) -> Poly:
        return self.constant(1)

    def constant(self, c: int) -> Poly:
        c %= self.p
        if not c:
            return self.zero()
        return Poly._raw(self, {(0,) * self.arity: c})

    def variable(self, var) -> Poly:
        return self.monomial({self.var_index(var): 1})

    def monomial(self, exponents, coeff: int = 1) -> Poly:
        """Build c * prod(v_i^e_i); exponents given as a dict or a full tuple."""
        if isinstance(exponents, dict):
            exps = [0] * self.arity
            for var, e in exponents.items():
                exps[self.var_index(var)] = e
            exponents = tuple(exps)
        else:
            exponents = tuple(exponents)
        if len(exponents) != self.arity:
            raise ArityMismatch(
                f"monomial has {len(exponents)} exponents, ring has {self.arity} variables"
            )
        if any(e < 0 for e in exponents):
            raise ValueError("negative exponent")
        coeff %= self.p
        if not coeff:
            return self.zero()
        return Poly._raw(self, {exponents: coeff})

    def from_text(self, text: str) -> Poly:
        return parse(text, self)


def _powers(names, exponents) -> list:
    """The factors v and v^e of a monomial, one for each nonzero exponent."""
    return [v if e == 1 else f"{v}^{e}" for v, e in zip(names, exponents) if e]


class _SparseSum:
    """A finite sum of keyed terms over F_p, held in canonical form: .terms
    maps each key to a coefficient in [1, p).

    The sum arithmetic, equality, the context check and the canonical text
    of Poly and CohClass.  _ctx is the ring or algebra of the sum (with .p
    and .constant); a subclass gives it its public name, and supplies
    _mismatch, the error for sums over different contexts; _sort_key, the
    ascending order of its keys; and _monomial_text(key), the name of a key,
    "" for the unit.
    """

    __slots__ = ("_ctx", "terms")

    @classmethod
    def _raw(cls, ctx, terms: dict):
        """Internal constructor; terms must already be canonical."""
        x = object.__new__(cls)
        x._ctx = ctx
        x.terms = terms
        return x

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
        terms = {k: v * c % p for k, v in self.terms.items()} if c else {}
        return self._raw(ctx, terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        self._check(other)
        ctx = self._ctx
        return self._raw(ctx, _add_terms(other.terms.items(), ctx.p, self.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        ctx = self._ctx
        p = ctx.p
        return self._raw(ctx, {k: p - c for k, c in self.terms.items()})

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._ctx == other._ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self._ctx, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def to_text(self) -> str:
        """Canonical text form: terms in descending order, coefficients in
        [1, p), each written before its monomial unless it is 1."""
        if not self.terms:
            return "0"
        bits = []
        for key in sorted(self.terms, key=self._sort_key, reverse=True):
            c = self.terms[key]
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
    _sort_key = staticmethod(grlex_key)

    def __init__(self, ring: PolyRing, terms: dict):
        p = ring.p
        arity = ring.arity
        clean = {}
        for mono, c in terms.items():
            mono = tuple(mono)
            if len(mono) != arity:
                raise ArityMismatch(
                    f"monomial {mono} has wrong arity for {ring.variables}"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c %= p
            if c:
                clean[mono] = c
        self.ring = ring
        self.terms = clean

    def _monomial_text(self, mono) -> str:
        return "*".join(_powers(self.ring.variables, mono))

    # -- ring operations -------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check(other)
        # iterate over the smaller operand's terms in the outer loop
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        bitems = list(b.items())
        products = (
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in a.items()
            for m2, c2 in bitems
        )
        return Poly._raw(self.ring, _add_terms(products, self.ring.p))

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
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(m) for m in self.terms}
        return len(degrees) <= 1

    def leading_term(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        mono = max(self.terms, key=grlex_key)
        return mono, self.terms[mono]

    # -- characteristic-p operations --------------------------------------

    def frobenius(self, e: int) -> Poly:
        """f^(p^e), computed term-wise: exponents scale, coefficients stay."""
        if e < 0:
            raise ValueError("negative Frobenius twist")
        if e == 0:
            return self
        q = self.ring.p**e
        return Poly._raw(
            self.ring, {tuple(x * q for x in m): c for m, c in self.terms.items()}
        )

    def partial_derivative(self, var) -> Poly:
        """Formal partial derivative; exponents divisible by p kill the term."""
        i = self.ring.var_index(var)
        p = self.ring.p
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            v = (c * e) % p
            if e and v:
                out[m[:i] + (e - 1,) + m[i + 1 :]] = v
        return Poly._raw(self.ring, out)

    def compose(self, images, ring: PolyRing | None = None) -> Poly:
        """Substitute images[i] for the i-th variable.

        All images must live in one target ring over the same prime.
        """
        images = tuple(images)
        if len(images) != self.ring.arity:
            raise ArityMismatch(
                f"{len(images)} images for {self.ring.arity} variables"
            )
        if ring is None:
            ring = images[0].ring
        for im in images:
            if not isinstance(im, Poly) or im.ring != ring:
                raise RingMismatch("substitution images live in different rings")
        if ring.p != self.ring.p:
            raise RingMismatch("substitution must preserve the coefficient prime")
        p = ring.p
        if all(len(im.terms) == 1 for im in images):
            # every image is a single term: map exponent vectors directly
            parts = [next(iter(im.terms.items())) for im in images]

            def terms():
                for m, c in self.terms.items():
                    exps = [0] * ring.arity
                    coeff = c
                    for e, (vm, vc) in zip(m, parts):
                        if not e:
                            continue
                        if vc != 1:
                            coeff = coeff * pow(vc, e, p) % p
                        for k, ve in enumerate(vm):
                            if ve:
                                exps[k] += ve * e
                    yield tuple(exps), coeff

        else:
            cache: list = [{} for _ in images]

            def power(i: int, e: int) -> Poly:
                got = cache[i].get(e)
                if got is None:
                    got = cache[i][e] = images[i] ** e
                return got

            def terms():
                for m, c in self.terms.items():
                    term = ring.constant(c)
                    for i, e in enumerate(m):
                        if e:
                            term = term * power(i, e)
                    yield from term.terms.items()

        return Poly._raw(ring, _add_terms(terms(), p))


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
    """Exact determinant via signed expansion, memoized over column subsets."""
    if mat.rows != mat.cols:
        raise NotSquare(f"matrix is {mat.rows}x{mat.cols}")
    n = mat.rows
    if n > MAX_DET_SIZE:
        raise SizeGuard(f"determinant size {n} exceeds {MAX_DET_SIZE}")
    return _laplace_det(mat.entries, mat.ring.one())


def exact_div(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly.

    Long division against the graded-lex order; any step whose leading term
    is not divisible raises NonExactDivision immediately (divisibility is a
    promise of the callers, so a failure signals a bug, not a state).
    """
    f._check(g)
    if g.is_zero():
        raise DivisionByZero("division by the zero polynomial")
    if f.is_zero():
        return f.ring.zero()
    ring = f.ring
    p = ring.p
    gm, gc = g.leading_term()
    ginv = pow(gc, p - 2, p)
    gitems = list(g.terms.items())
    rem = dict(f.terms)
    get = rem.get
    heap = [(-sum(m), tuple(map(neg, m)), m) for m in rem]
    heapq.heapify(heap)
    quot: dict = {}
    # The remainder loop stays separate from _add_terms: every monomial new to
    # the remainder must also be pushed onto the heap of candidate leaders.
    while rem:
        while True:
            _, _, m = heapq.heappop(heap)
            if m in rem:
                break
        c = rem[m]
        mq = tuple(map(sub, m, gm))
        if min(mq) < 0:
            raise NonExactDivision(
                f"leading term {m} not divisible by {gm} (remainder nonzero)"
            )
        cq = c * ginv % p
        quot[mq] = cq
        for m2, c2 in gitems:
            mono = tuple(map(add, mq, m2))
            old = get(mono)
            if old is None:
                # cq and c2 are units mod p, so the new coefficient is nonzero
                heapq.heappush(heap, (-sum(mono), tuple(map(neg, mono)), mono))
                rem[mono] = -cq * c2 % p
            elif v := (old - cq * c2) % p:
                rem[mono] = v
            else:
                del rem[mono]
    return Poly._raw(ring, quot)


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


def serialize(f: Poly) -> str:
    return f.to_text()


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | set("0123456789")


def _scan_terms(text: str):
    """Scan the polynomial grammar: terms joined by " + " / " - ", each term
    an optional decimal coefficient followed by "*"-separated powers name^e,
    names matching [A-Za-z_][A-Za-z0-9_]*.

    Yields each term as (signed coefficient, [(name, exponent, position)]);
    the caller resolves the names.  Syntax errors raise ParseError at their
    position.
    """
    s = text
    n = len(s)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and s[pos] in " \t":
            pos += 1

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected a number", start)
        return int(s[start:pos])

    def read_name() -> str:
        nonlocal pos
        start = pos
        if pos >= n or s[pos] not in _IDENT_START:
            raise ParseError("expected a variable name", pos)
        pos += 1
        while pos < n and s[pos] in _IDENT_CHARS:
            pos += 1
        return s[start:pos]

    skip_ws()
    if pos == n:
        raise ParseError("empty input", pos)
    sign = 1
    if s[pos] in "+-":
        sign = -1 if s[pos] == "-" else 1
        pos += 1
    while True:
        coeff = 1
        factors = []
        first = True
        while True:
            skip_ws()
            if pos < n and s[pos].isdigit():
                if not first:
                    raise ParseError("coefficient must come first in a term", pos)
                coeff = read_int()
            else:
                start = pos
                name = read_name()
                e = 1
                if pos < n and s[pos] == "^":
                    pos += 1
                    e = read_int()
                factors.append((name, e, start))
            first = False
            skip_ws()
            if pos < n and s[pos] == "*":
                pos += 1
                continue
            break
        yield sign * coeff, factors
        if pos == n:
            return
        if s[pos] == "+":
            sign = 1
        elif s[pos] == "-":
            sign = -1
        else:
            raise ParseError(f"expected '+' or '-', found {s[pos]!r}", pos)
        pos += 1


def parse(text: str, ring: PolyRing) -> Poly:
    """Parse the polynomial grammar of _scan_terms over the ring's variables."""

    def terms():
        for coeff, factors in _scan_terms(text):
            exps = [0] * ring.arity
            for name, e, pos in factors:
                if name not in ring._index:
                    raise ParseError(f"unknown variable {name!r}", pos)
                exps[ring._index[name]] += e
            yield tuple(exps), coeff

    return Poly._raw(ring, _add_terms(terms(), ring.p))


def diff_detail(a: _SparseSum, b: _SparseSum, limit: int = 5) -> str:
    """Describe the first differing terms of two sums, in canonical order."""
    diffs = []
    for key in sorted(set(a.terms) | set(b.terms), key=a._sort_key, reverse=True):
        ca, cb = a.terms.get(key, 0), b.terms.get(key, 0)
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
