"""Moore matrices, Dickson invariants, and their GL-invariance.

Over F_p[x_1..x_n] the key objects are the Moore determinants built from the
Frobenius-power rows (x_1^{p^r}, ..., x_n^{p^r}), the product f_n(X) of the
linear forms X - sum(k_i x_i) over all tuples k in F_p^n, and the invariants
C_{n,i}: the quotients Delta_{n,i} / Delta_{n,n} of Moore minors, and the
signed coefficients of f_n(X).  The two constructions are independent
computation routes and serve as mutual oracles.  f_n is kept in one form,
f_n_coefficients, by powers of X; the factorization check multiplies each
coefficient by Delta_{n,n} and joins the products back into the X-ring
(poly._join_last).  No quotient is formed:
over an integral domain a / b = c exactly when a = b c for nonzero b, so
each check multiplies by its denominator minor and asserts that it is
nonzero.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .errors import IndexOutOfRange, VerificationFailure
from .fp import _binom_support, _pick_count, check_modulus
from .poly import (
    Poly,
    PolyMatrix,
    PolyRing,
    _add_terms,
    _join_last,
    _split_last,
    determinant,
    diff_detail,
)
from .report import PAIRS_PER_SECOND, POLY_BUDGET, refuse_above, timed_check, two_routes

# Cost of linear_form_product over F_p^m, in the monomial pairs that it
# visits at report.PAIRS_PER_SECOND.  The estimate p^(m(m+1)/2) / 2, or / 10
# at m = 3, is a power law fitted to the counted pairs for m = 3..6 and
# p = 2..23 and to the times for m = 2 and p up to 307, where the steps of
# _shift_scalars dominate; it is within a factor 2 wherever it exceeds 10^4.
# At m = 1 the time is the p^2/2 steps of _shift_scalars, whose dict grows
# by one entry per factor; at about 1.1 million steps a second (p =
# 1009..10007, 2-core x86, Python 3.11) the estimate states them as 2p^2/3
# pairs.
#
# Cost of gl-invariance, in the Lucas picks that its substitutions expand and
# build (_substitution_picks, an exact count): the check ran at 2.2-2.6
# million picks a second at n = 2 (p = 31..67), 3.4-4.0 million at n = 3
# (p = 5..13), 2.5-3.3 million at n = 4 (p = 3, 5), 2.5 million at n = 5
# (p = 3) and 1.9-2.1 million at p = 2, n = 5, 6 (2-core x86, Python 3.11),
# so at PICKS_PER_SECOND the estimate is 0.75-1.6 times the time.
PICKS_PER_SECOND = 2_500_000


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


def _nonzero(minor: Poly, name: str) -> Poly:
    """minor, the denominator of a quotient that a check decides by
    cross-multiplying.  A zero one would make both sides vanish, so it
    fails the check."""
    if minor.is_zero():
        raise VerificationFailure(f"the Moore minor {name} is zero")
    return minor


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


def f_n_product(ctx: DicksonContext) -> Poly:
    """The product of X - sum(k_i x_i) over all p^n coefficient tuples
    (k -> -k permutes the tuples, so the sign inside the forms is immaterial).
    Not cached: f_n_coefficients keeps f_n, by powers of X."""
    return linear_form_product(ctx.xring)


@lru_cache(maxsize=None)
def f_n_coefficients(ctx: DicksonContext) -> dict:
    """f_n by powers of X: each exponent e mapped to the coefficient of X^e,
    a Poly over ctx.ring.  The one cached form of f_n; the invariants, the
    factorization check and the Chern classes all read it."""
    return _split_last(f_n_product(ctx), ctx.ring)


def dickson_c_from_f(ctx: DicksonContext, i: int) -> Poly:
    """C_{n,i} by the product route: signed coefficient of X^{p^i} in f_n."""
    if not 0 <= i <= ctx.n:
        raise IndexOutOfRange(f"index {i} not in 0..{ctx.n}")
    poly = f_n_coefficients(ctx).get(ctx.p**i, ctx.ring.zero())
    return -poly if (ctx.n + i) % 2 else poly


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


def _apply_factor(f: Poly, i: int, j: int, c: int) -> Poly:
    """The substitution of one elementary matrix (i, j, c) of
    _elementary_matrices."""
    if i != j:
        return _transvection(f, j, i, c)
    ring = f.ring
    images = [ring.variable(k) for k in range(ring.arity)]
    images[j] = ring.monomial({j: 1}, c)
    return f.compose(images)


def _elementary_matrices(n: int, p: int) -> list:
    """Every elementary matrix of GL_n(F_p) as (i, j, c): the identity with
    its (i, j) entry increased by c != 0 if i != j, the transvection
    x_j -> x_j + c x_i, or replaced by c != 0, 1 if i == j, the scaling
    x_j -> c x_j.  Gauss-Jordan reduction writes every invertible matrix as
    a product of them, so they generate GL_n(F_p)."""
    return [(i, j, c) for j in range(n) for i in range(n) for c in range(1 + (i == j), p)]


def _substitution_picks(cs, factors) -> int:
    """The Lucas picks that substituting each factor into each polynomial of
    cs expands, and builds: a transvection into x_j expands every term x_j^e
    over the picks of e and builds their list once per distinct e, and a
    scaling maps each term to one term."""
    ring = cs[0].ring
    p, fmask = ring.p, ring._fmask
    picks = partial(_pick_count, p=p)
    into = [0] * ring.arity  # the picks of one transvection into each x_j
    for c in cs:
        for j, s in enumerate(ring._shifts):
            exps = [k >> s & fmask for k in c._terms]
            into[j] += sum(map(picks, exps)) + sum(map(picks, set(exps)))
    terms = sum(len(c._terms) for c in cs)
    return sum(into[j] if i != j else terms for i, j, _ in factors)


def verify_dickson(ctx: DicksonContext) -> list:
    """Check the two invariant routes, the Moore factorization, and
    GL-invariance under every elementary matrix.

    two-route-c<i> states C_{n,i} = Delta_{n,i} / Delta_{n,n} cross-multiplied:
    Delta_{n,i} == Delta_{n,n} C_{n,i}, with C_{n,i} read from f_n.
    gl-invariance substitutes each elementary matrix into each C_{n,i}.
    Substitution is a group action and the elementary matrices generate
    GL_n(F_p), so a C that each of them fixes is fixed by the whole group."""
    n, p = ctx.n, ctx.p

    def times_denominator(i):
        return _nonzero(delta_ni(ctx, n), f"Delta_{{{n},{n}}}") * dickson_c_from_f(ctx, i)

    checks = [
        two_routes(f"two-route-c{i}", partial(delta_ni, ctx, i), partial(times_denominator, i))
        for i in range(n + 1)
    ]

    def times_f_n():  # Delta_{n,n} times each coefficient of f_n, joined by powers of X
        minor = delta_ni(ctx, n)
        parts = {e: minor * c for e, c in f_n_coefficients(ctx).items()}
        return _join_last(parts, ctx.xring)

    checks.append(two_routes("delta-factorization", partial(delta_full, ctx), times_f_n))

    def invariance():
        cs = [dickson_c_from_f(ctx, i) for i in range(n + 1)]
        factors = _elementary_matrices(n, p)
        picks = _substitution_picks(cs, factors)
        work = f"{len(factors)} elementary matrices ({picks:.3g} Lucas picks)"
        refuse_above(work, picks / PICKS_PER_SECOND, POLY_BUDGET)
        names = ctx.ring.variables
        for i, c in enumerate(cs):
            for factor in factors:
                moved = _apply_factor(c, *factor)
                if moved != c:
                    r, j, s = factor
                    x = names[j]
                    image = f"{s}*{x}" if r == j else f"{x} + {s}*{names[r]}"
                    return False, f"{x} -> {image} moves C_{{{n},{i}}}; " + diff_detail(moved, c)
        group = f"GL_{n}(F_{p})"
        return True, f"{len(factors)} elementary matrices, which generate {group}, fix every C"

    checks.append(timed_check("gl-invariance", invariance))
    return checks
