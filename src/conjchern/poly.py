"""Sparse multivariate polynomials over a prime field.

Monomials are exponent tuples, one entry per ring variable.  The term order
used by division and by canonical serialization is graded lexicographic in
the ring's declared variable order: higher total degree first, ties broken
by comparing exponent vectors left to right.
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


class Poly:
    """Immutable sparse polynomial in canonical form (no zero coefficients)."""

    __slots__ = ("ring", "terms")

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

    @staticmethod
    def _raw(ring: PolyRing, terms: dict) -> Poly:
        """Internal constructor; terms must already be canonical."""
        poly = object.__new__(Poly)
        poly.ring = ring
        poly.terms = terms
        return poly

    def _check_ring(self, other: Poly):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
        return Poly._raw(
            self.ring, _add_terms(other.terms.items(), self.ring.p, self.terms)
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.ring.p
        return Poly._raw(self.ring, {m: p - c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.ring.p
            if not c:
                return self.ring.zero()
            if c == 1:
                return self
            p = self.ring.p
            return Poly._raw(self.ring, {m: (v * c) % p for m, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_ring(other)
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

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

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

    def coefficient(self, monomial) -> int:
        return self.terms.get(tuple(monomial), 0)

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
            if not images:
                raise ValueError("empty substitution needs an explicit ring")
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

    # -- text ---------------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form: descending graded-lex, coefficients in [1, p)."""
        if not self.terms:
            return "0"
        names = self.ring.variables
        bits = []
        for m in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[m]
            factors = []
            if c != 1 or not any(m):
                factors.append(str(c))
            for name, e in zip(names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            bits.append("*".join(factors))
        return " + ".join(bits)

    def __repr__(self):
        return f"<Poly {self.to_text()} (mod {self.ring.p})>"


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

    def entry(self, r: int, c: int) -> Poly:
        return self.entries[r][c]

    def __mul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.ring.zero()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def __eq__(self, other):
        if isinstance(other, PolyMatrix):
            return self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash(self.entries)


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
    f._check_ring(g)
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


def diff_detail(a: Poly, b: Poly, limit: int = 5, order=grlex_key, name=None) -> str:
    """Describe the first differing terms of two polynomials, canonical order.

    Other sparse classes pass the sort key of their terms and a function
    naming a monomial ("" for the unit)."""
    if name is None:

        def name(m):
            return "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(a.ring.variables, m) if e
            )

    diffs = []
    for m in sorted(set(a.terms) | set(b.terms), key=order, reverse=True):
        ca, cb = a.terms.get(m, 0), b.terms.get(m, 0)
        if ca != cb:
            diffs.append(f"{name(m) or '1'}: {ca} != {cb}")
            if len(diffs) >= limit:
                break
    if not diffs:
        return "polynomials agree"
    return "first differing terms: " + "; ".join(diffs)
