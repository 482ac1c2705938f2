"""Moore matrices, Dickson invariants, and randomized GL-invariance checks.

Over F_p[x_1..x_n] the key objects are the Moore determinants built from the
Frobenius-power rows (x_1^{p^r}, ..., x_n^{p^r}), the product f_n(X) of the
linear forms X - sum(k_i x_i) over all tuples k in F_p^n, and the invariants
C_{n,i} obtained either as exact quotients of Moore minors or as signed
coefficients of f_n(X).  The two constructions are independent computation
routes and serve as mutual oracles.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from math import factorial

from .errors import IndexOutOfRange, RingMismatch, SingularMatrix
from .fp import _binom_support, _pick_count, check_modulus
from .poly import (
    Poly,
    PolyMatrix,
    PolyRing,
    _add_terms,
    _split_last,
    determinant,
    diff_detail,
    exact_div,
)
from .report import POLY_BUDGET, refuse_above, timed_check, two_routes

# Cost of linear_form_product over F_p^m and of the exact division of
# dickson_c, in the monomial pairs that they visit.  For the product the
# estimate p^(m(m+1)/2) / 2, or / 10 at m = 3, is a power law fitted to the
# counted pairs for m = 3..6 and p = 2..23 and to the times for m = 2 and p
# up to 307, where the steps of _shift_scalars dominate; it is within a
# factor 2 wherever it exceeds 10^4.  On packed keys Poly.__mul__ visits
# 1.3-2.1 million of these pairs a second in the products at (p, m) = (3, 4),
# (5, 3), (7, 3), (5, 4) and (3, 5) (2-core x86, Python 3.11; 0.43-0.69
# million on exponent tuples, same machine).  At m = 1 the time is the p^2/2
# steps of _shift_scalars, whose dict grows by one entry per factor; at
# about 1.1 million steps a second (p = 1009..10007, same machine) the
# estimate states them as 2p^2/3 pairs.
PAIRS_PER_SECOND = 1_500_000


class DicksonContext:
    """Holds p, n, the ring F_p[x_1..x_n], and the same ring with X appended."""

    __slots__ = ("p", "n", "ring", "xring")

    def __init__(self, p: int, n: int):
        check_modulus(p)
        if not 1 <= n <= 6:
            raise ValueError(f"n must be in 1..6, got {n}")
        variables = tuple(f"x{i}" for i in range(1, n + 1))
        self.p = p
        self.n = n
        self.ring = PolyRing(p, variables)
        self.xring = PolyRing(p, variables + ("X",))

    def __eq__(self, other):
        if isinstance(other, DicksonContext):
            return self.xring == other.xring
        return NotImplemented

    def __hash__(self):
        return hash(self.xring)

    def __repr__(self):
        return f"DicksonContext(p={self.p}, n={self.n})"

    def to_xring(self, f: Poly) -> Poly:
        """Embed an n-variable polynomial into the X-augmented ring."""
        images = [self.xring.variable(v) for v in self.ring.variables]
        return f.compose(images, self.xring)


def _moore_matrix(ctx: DicksonContext, row_powers, with_aux: bool) -> PolyMatrix:
    ring = ctx.xring if with_aux else ctx.ring
    width = ring.arity
    rows = []
    for r in row_powers:
        q = ctx.p**r
        rows.append([ring.monomial({j: q}) for j in range(width)])
    return PolyMatrix(rows)


@lru_cache(maxsize=None)
def delta_full(ctx: DicksonContext) -> Poly:
    """Determinant of the (n+1)x(n+1) Moore matrix with the X column."""
    return determinant(_moore_matrix(ctx, range(ctx.n + 1), with_aux=True))


@lru_cache(maxsize=None)
def delta_ni(ctx: DicksonContext, i: int) -> Poly:
    """Moore minor: rows r = 0..n with row r = i deleted, X column absent."""
    if not 0 <= i <= ctx.n:
        raise IndexOutOfRange(f"row index {i} not in 0..{ctx.n}")
    rows = [r for r in range(ctx.n + 1) if r != i]
    return determinant(_moore_matrix(ctx, rows, with_aux=False))


def _shift_scalars(p: int, exponents) -> dict:
    """The scalars s_J of prod_{c in F_p} sum_i c^{j_i} y^{j_i} G_i, one for
    each multiset J of size p over the exponents j_i, keyed by J's vector of
    counts: the nonzero coefficients of prod_{c in F_p} sum_i c^{j_i} u_i in
    auxiliary variables u_i, with 0^0 = 1."""
    # a vector of counts, each at most p, is packed into one int, one field
    # per exponent, so adding a u_i is adding an int
    width = p.bit_length()
    shifts = [width * i for i in range(len(exponents))]
    acc = {0: 1}
    for c in range(p):
        weights = [(1 << s, w) for s, j in zip(shifts, exponents) if (w := pow(c, j, p))]
        products = ((m + u, v * w) for m, v in acc.items() for u, w in weights)
        acc = _add_terms(products, p)
    fmask = (1 << width) - 1
    return {tuple(m >> s & fmask for s in shifts): v for m, v in acc.items()}


def _product_of_shifts(f: Poly, k: int) -> Poly:
    """prod_{c in F_p} f(T + c y_k) for f free of y_k, T the last variable.

    One shift f(T + y_k) = sum_j y_k^j G_j gives every f(T + c y_k) =
    sum_j c^j y_k^j G_j, so the product is sum_J s_J y_k^{|J|} prod_{j in J} G_j
    over the multisets J of p exponents.  Only the J with a nonzero scalar are
    multiplied, as prod_i G_i^{n_i} over J's counts n_i, through a memo of
    the products of their prefixes.  The pieces are ordered by descending j,
    so the large G_0 = f comes last and the shared prefixes are the products
    of the small pieces.
    """
    ring, p = f.ring, f.ring.p
    shift_k, unit, fmask = ring._shifts[k], ring._units[k], ring._fmask
    # every term of the product has degree at most p deg(f)
    ring._fit(max(f._terms) * p)
    split: dict = {}  # j -> the terms of G_j, with the y_k exponent zeroed
    for mono, v in _transvection(f, ring.arity - 1, k, 1)._terms.items():
        j = mono >> shift_k & fmask
        split.setdefault(j, {})[mono - j * unit] = v
    exponents = sorted(split, reverse=True)
    pieces = [Poly._raw(ring, split[j]) for j in exponents]
    memo: dict = {(): ring.one()}

    def product_of(counts: tuple) -> Poly:
        got = memo.get(counts)
        if got is None:
            got = product_of(counts[:-1])
            if counts[-1]:
                got = got * pieces[len(counts) - 1] ** counts[-1]
            memo[counts] = got
        return got

    def terms():
        for counts, s in _shift_scalars(p, exponents).items():
            lift = sum(n * j for n, j in zip(counts, exponents)) * unit
            for mono, v in product_of(counts)._terms.items():
                yield mono + lift, v * s

    return Poly._raw(ring, _add_terms(terms(), p))


def linear_form_product(ring: PolyRing) -> Poly:
    """prod over v in F_p^m of (T + v_1 y_1 + ... + v_m y_m), where T is the
    last variable of ring and y_1..y_m are the others.

    Grouping the vectors by their last coordinate gives the reindexing
    F_k(T) = prod_{c in F_p} F_{k-1}(T + c y_k), F_0 = T; each step is an
    exact multiset expansion of that product (_product_of_shifts).  Every
    term is kept; nothing about the shape of the result is assumed.
    """
    p, m = ring.p, ring.arity - 1
    if m == 1:
        pairs = 2 * p * p // 3
    else:
        pairs = p ** (m * (m + 1) // 2) // (10 if m == 3 else 2)
    work = f"the product of the {p}^{m} linear forms ({pairs:.3g} monomial pairs)"
    refuse_above(work, pairs / PAIRS_PER_SECOND, POLY_BUDGET)
    f = ring.variable(m)
    for k in range(m):
        f = _product_of_shifts(f, k)
    return f


@lru_cache(maxsize=None)
def f_n_product(ctx: DicksonContext) -> Poly:
    """The product of X - sum(k_i x_i) over all p^n coefficient tuples
    (k -> -k permutes the tuples, so the sign inside the forms is immaterial)."""
    return linear_form_product(ctx.xring)


@lru_cache(maxsize=None)
def dickson_c(ctx: DicksonContext, i: int) -> Poly:
    """C_{n,i} by the determinant route: the exact quotient of Moore minors.

    The division visits each term of the quotient against each of the n!
    terms of the divisor.  For i < n the quotient has about p^(n(n-1)/2)
    terms: counted, p + 1 at n = 2 (p = 3..101), 0.96-1.2 times that at
    n = 3 (p = 3..7) and 0.39-1.13 times at n = 4 (p = 3, 5, 7).  At 0.7-1
    million pairs a second, the time the guard states is low by up to a
    factor 2.5."""
    p, n = ctx.p, ctx.n
    pairs = (1 if i == n else p ** (n * (n - 1) // 2)) * factorial(n)
    work = f"the exact division for C_{{{n},{i}}} ({pairs:.3g} monomial pairs)"
    refuse_above(work, pairs / PAIRS_PER_SECOND, POLY_BUDGET)
    return exact_div(delta_ni(ctx, i), delta_ni(ctx, n))


@lru_cache(maxsize=None)
def dickson_c_from_f(ctx: DicksonContext, i: int) -> Poly:
    """C_{n,i} by the product route: signed coefficient of X^{p^i} in f_n."""
    if not 0 <= i <= ctx.n:
        raise IndexOutOfRange(f"index {i} not in 0..{ctx.n}")
    coeffs = _split_last(f_n_product(ctx), ctx.ring)
    poly = coeffs.get(ctx.p**i, ctx.ring.zero())
    if (ctx.n + i) % 2:
        poly = -poly
    return poly


class GLMatrix:
    """An invertible n x n matrix over F_p, with its elementary factors."""

    __slots__ = ("p", "n", "entries", "factors")

    def __init__(self, entries, p: int):
        check_modulus(p)
        rows = tuple(tuple(v % p for v in row) for row in entries)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        try:
            self.factors = _elementary_factors(rows, p)
        except SingularMatrix:
            raise ValueError("matrix is singular mod p") from None
        self.p = p
        self.n = n
        self.entries = rows

    def __eq__(self, other):
        if isinstance(other, GLMatrix):
            return self.p == other.p and self.entries == other.entries
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.entries))

    def __repr__(self):
        return f"GLMatrix({self.entries}, p={self.p})"


def random_gl(n: int, p: int, seed: int) -> GLMatrix:
    """Deterministic-per-seed invertible matrix: uniform entries, rejection."""
    check_modulus(p)
    rng = random.Random(seed)
    while True:
        try:
            return GLMatrix([[rng.randrange(p) for _ in range(n)] for _ in range(n)], p)
        except ValueError:  # singular mod p: draw again
            pass


def _elementary_factors(entries, p: int) -> list:
    """Factor the square matrix entries over F_p as E_1 E_2 ... E_m, each
    (i, j, c) meaning the identity with its (i, j) entry replaced by c if
    i == j (a scaling) or increased by c otherwise (a transvection).

    Gauss-Jordan reduction by row operations without swaps: a zero pivot is
    fixed by adding a lower row that is nonzero in its column, and a column
    without one raises SingularMatrix.  If the row operations are L_1, ...,
    L_m in order, the matrix is L_1^-1 ... L_m^-1; each inverse is recorded.
    """
    n = len(entries)
    rows = [list(r) for r in entries]
    factors = []

    def add_row(t, r, c):  # row t += c * row r
        rows[t] = [(x + c * y) % p for x, y in zip(rows[t], rows[r])]
        factors.append((t, r, -c % p))

    for col in range(n):
        if not rows[col][col]:
            lower = next((r for r in range(col + 1, n) if rows[r][col]), None)
            if lower is None:
                raise SingularMatrix(f"no pivot in column {col} mod {p}")
            add_row(col, lower, 1)
        pivot = rows[col][col]
        if pivot != 1:
            inverse = pow(pivot, -1, p)
            rows[col] = [x * inverse % p for x in rows[col]]
            factors.append((col, col, pivot))
        for t in range(n):
            if t != col and rows[t][col]:
                add_row(t, col, -rows[t][col])
    return factors


def _transvection(f: Poly, j: int, i: int, c: int) -> Poly:
    """Substitute x_j -> x_j + c*x_i, expanding each (x_j + c*x_i)^e over the
    Lucas table of e."""
    ring = f.ring
    p, shift_j, fmask = ring.p, ring._shifts[j], ring._fmask
    # moving one unit of exponent from x_j to x_i keeps the degree
    move = (1 << ring._shifts[i]) - (1 << shift_j)
    images: dict = {}  # e -> the (key increment, C(e,k) c^(e-k)) of each pick k

    def terms():
        for m, v in f._terms.items():
            e = m >> shift_j & fmask
            picks = images.get(e)
            if picks is None:
                picks = images[e] = [
                    ((e - k) * move, b * pow(c, e - k, p))
                    for k, b in _binom_support(e, p).items()
                ]
            for step, w in picks:
                yield m + step, v * w

    return Poly._raw(ring, _add_terms(terms(), p))


def _trial_picks(cs) -> int:
    """The Lucas picks that gl_action expands, and builds, in one random trial
    on the polynomials cs without a memo: a random matrix has about n - 1
    transvections into each x_j, each expanding every term x_j^e over the
    picks of e and building their list once per distinct e.  On the terms of
    cs this is within 5% of the count in the trials at n = 2, p = 13..101,
    and up to 1.25 times high at n = 3, 4 (1.55 at p <= 5); at
    PAIRS_PER_SECOND it states 0.7-1.3 times the time of a trial (2-core x86,
    Python 3.11).  The trials of one check share a memo, which skips every
    repeated (polynomial, factor) substitution, so on a passing check the
    estimate is an upper bound."""
    ring = cs[0].ring
    p, fmask = ring.p, ring._fmask

    picks = partial(_pick_count, p=p)
    total = 0
    for c in cs:
        for s in ring._shifts:
            exps = [k >> s & fmask for k in c._terms]
            total += sum(map(picks, exps)) + sum(map(picks, set(exps)))
    return (ring.arity - 1) * total


def _apply_factor(f: Poly, i: int, j: int, c: int) -> Poly:
    """The substitution of one elementary factor (i, j, c) of a GLMatrix."""
    if i != j:
        return _transvection(f, j, i, c)
    ring = f.ring
    images = [ring.variable(k) for k in range(ring.arity)]
    images[j] = ring.monomial({j: 1}, c)
    return f.compose(images, ring)


def gl_action(f: Poly, a: GLMatrix, memo: dict | None = None) -> Poly:
    """Substitute x_j -> sum_i a[i][j] x_i (the matrix acts on the column of
    variables); extends multiplicatively to all polynomials.

    Computed exactly from the elementary factors a = E_1 ... E_m: since
    act(f, A*B) = act(act(f, B), A), their one-variable substitutions apply
    last factor first.

    memo maps (polynomial, factor) to the result of that one substitution,
    a pure function of the two; pass one dict to the calls of a single check
    so that its trials compute each distinct substitution once.  A result
    equal to its input is stored as the input object, so an invariant keeps
    one copy.  Without a memo every substitution is computed.
    """
    ring = f.ring
    if ring.arity != a.n or ring.p != a.p:
        raise RingMismatch("polynomial ring does not match the matrix")
    for factor in reversed(a.factors):
        if memo is None:
            f = _apply_factor(f, *factor)
            continue
        key = (f, factor)
        moved = memo.get(key)
        if moved is None:
            moved = _apply_factor(f, *factor)
            if moved == f:
                moved = f
            memo[key] = moved
        f = moved
    return f


def verify_dickson(ctx: DicksonContext, trials: int = 50, seed: int = 0) -> list:
    """Check the two invariant routes, the Moore factorization, and
    GL-invariance under seeded random matrices.

    The trials of gl-invariance share one substitution memo.  Its guard
    counts the picks of every trial as if each ran without the memo, so on
    a passing check the time it states is an upper bound."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    checks = [
        two_routes(
            f"two-route-c{i}", partial(dickson_c, ctx, i), partial(dickson_c_from_f, ctx, i)
        )
        for i in range(ctx.n + 1)
    ]
    checks.append(
        two_routes(
            "delta-factorization",
            partial(delta_full, ctx),
            lambda: ctx.to_xring(delta_ni(ctx, ctx.n)) * f_n_product(ctx),
        )
    )

    def invariance():
        cs = [dickson_c(ctx, i) for i in range(ctx.n + 1)]
        picks = trials * _trial_picks(cs)
        work = f"{trials} random matrices ({picks:.3g} Lucas picks)"
        refuse_above(work, picks / PAIRS_PER_SECOND, POLY_BUDGET)
        memo: dict = {}
        for t in range(trials):
            a = random_gl(ctx.n, ctx.p, seed + t)
            for i, c in enumerate(cs):
                moved = gl_action(c, a, memo)
                if moved != c:
                    return False, f"trial {t}: C_{{{ctx.n},{i}}} moved; " + diff_detail(
                        moved, c
                    )
        return True, f"{trials} random matrices fixed every C"

    checks.append(timed_check("gl-invariance", invariance))
    return checks
