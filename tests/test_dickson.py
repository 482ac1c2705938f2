import random
from itertools import combinations, permutations, product
from math import prod

import pytest

from conjchern import cli, dickson
from conjchern.dickson import (
    DicksonContext,
    delta_full,
    delta_ni,
    dickson_c_from_f,
    f_n_coefficients,
    f_n_product,
    linear_form_product,
    verify_dickson,
)
from conjchern.errors import IndexOutOfRange, SizeGuard
from conjchern.fp import _binom_support
from conjchern.poly import Poly, diff_detail
from helpers import (
    balanced_linear_form_product,
    dense_gl_action,
    elementary_matrix,
    elementary_word,
    gl_product,
    naive_product,
    passed,
    poly_of,
    random_nonzero_poly,
)

ACCEPTANCE_GRID = [(2, 2), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def test_delta_full_rank_one():
    ctx = DicksonContext(3, 1)
    # det [[x1, X], [x1^3, X^3]] by the cofactor oracle
    assert delta_full(ctx) == poly_of(ctx.xring, "x1*X^3 - x1^3*X")


def test_delta_full_vanishes_on_repeated_column():
    ctx = DicksonContext(3, 2)
    x1 = ctx.ring.variable("x1")
    images = [ctx.ring.variable("x1"), ctx.ring.variable("x2"), x1]
    assert delta_full(ctx).compose(images).is_zero()


def test_delta_ni_examples():
    ctx = DicksonContext(3, 2)
    assert delta_ni(ctx, 2) == poly_of(ctx.ring, "x1*x2^3 - x1^3*x2")
    ctx1 = DicksonContext(5, 1)
    assert delta_ni(ctx1, 1) == poly_of(ctx1.ring, "x1")


def test_delta_ni_antisymmetric_in_variables():
    ctx = DicksonContext(3, 2)
    swap = [ctx.ring.variable("x2"), ctx.ring.variable("x1")]
    for i in range(3):
        assert delta_ni(ctx, i).compose(swap) == -delta_ni(ctx, i)


def test_delta_index_range():
    ctx = DicksonContext(3, 2)
    with pytest.raises(IndexOutOfRange):
        delta_ni(ctx, 3)


def test_f_product_small_cases_against_naive_expansion():
    ctx = DicksonContext(3, 1)
    ring = ctx.xring
    x1, x_aux = ring.variable("x1"), ring.variable("X")
    oracle = naive_product([x_aux, x_aux - x1, x_aux - 2 * x1])
    assert f_n_product(ctx) == oracle
    assert f_n_product(ctx) == poly_of(ring, "X^3 - x1^2*X")

    ctx2 = DicksonContext(2, 1)
    ring2 = ctx2.xring
    assert f_n_product(ctx2) == poly_of(ring2, "X^2 + x1*X")


def test_f_product_supported_on_p_power_exponents():
    for p, n in [(3, 2), (5, 1), (2, 2)]:
        ctx = DicksonContext(p, n)
        powers = {p**i for i in range(n + 1)}
        ax = ctx.xring.arity - 1
        assert {m[ax] for m in f_n_product(ctx).terms} <= powers


def test_f_product_roots():
    # f_n vanishes under X -> sum(k_i x_i) for every coefficient tuple
    for p, n in [(2, 2), (3, 2), (5, 1), (5, 2), (3, 3)]:
        ctx = DicksonContext(p, n)
        f = f_n_product(ctx)
        gens = [ctx.ring.variable(j) for j in range(n)]
        for ks in product(range(p), repeat=n):
            root = ctx.ring.zero()
            for g, k in zip(gens, ks):
                root = root + g * k
            assert f.compose(gens + [root]).is_zero()


def test_size_guard():
    with pytest.raises(SizeGuard):
        f_n_product(DicksonContext(101, 3))


def test_dickson_c_examples():
    """C_{n,i} by both routes: the coefficient of f_n, and the quotient
    Delta_{n,i} / Delta_{n,n}, cross-multiplied."""
    examples = [
        (DicksonContext(3, 1), 0, "x1^2"),
        (DicksonContext(5, 1), 0, "x1^4"),
        (DicksonContext(2, 2), 1, "x1^2 + x1*x2 + x2^2"),
        (DicksonContext(2, 2), 0, "x1^2*x2 + x1*x2^2"),
    ]
    for ctx, i, text in examples:
        c = poly_of(ctx.ring, text)
        assert dickson_c_from_f(ctx, i) == c
        assert delta_ni(ctx, i) == delta_ni(ctx, ctx.n) * c


def test_c_nn_is_one():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        assert dickson_c_from_f(ctx, n) == ctx.ring.one()


def test_two_routes_agree():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        assert not delta_ni(ctx, n).is_zero()
        for i in range(n + 1):
            assert delta_ni(ctx, i) == delta_ni(ctx, n) * dickson_c_from_f(ctx, i)


def test_homogeneity_degrees():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        for i in range(n):
            c = dickson_c_from_f(ctx, i)
            assert len(c.degrees()) <= 1
            assert c.degree() == p**n - p**i


def test_row_zero_minor_is_frobenius_power():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        assert delta_ni(ctx, 0) == delta_ni(ctx, n) ** p


def test_f_n_is_split_once_per_context(split_rings):
    ctx = DicksonContext(3, 3)
    for _ in range(2):
        for i in range(ctx.n + 1):
            dickson_c_from_f(ctx, i)
    assert passed(verify_dickson(ctx))
    assert split_rings == [ctx.ring]


def test_factorization_identity():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        lhs = delta_full(ctx)
        minor = delta_ni(ctx, n).compose([ctx.xring.variable(j) for j in range(n)])
        rhs = minor * f_n_product(ctx)
        assert lhs == rhs


def permutation_det_mod(rows, p):
    """Leibniz expansion over all permutations: the oracle for the
    determinant of a matrix mod p."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = (-1) ** inversions
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total % p


def random_gl_rows(rng, n, p):
    """A seeded random invertible n x n matrix over F_p, as a tuple of rows:
    uniform entries, drawn again while singular."""
    while True:
        rows = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
        if permutation_det_mod(rows, p):
            return rows


def identity(n):
    return tuple(tuple(int(r == c) for c in range(n)) for r in range(n))


def closure(n, p, factors):
    """Every product of the matrices of factors over F_p.  In a finite group
    the products of a set are the subgroup that it generates."""
    gens = [elementary_matrix(n, factor) for factor in factors]
    reached = frontier = {identity(n)}
    while frontier:
        frontier = {gl_product(a, g, p) for a in frontier for g in gens} - reached
        reached = reached | frontier
    return reached


def gl_order(n, p):
    """|GL_n(F_p)|, the product of p^n - p^k over k < n."""
    return prod(p**n - p**k for k in range(n))


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2), (5, 2), (2, 3)])
def test_elementary_matrices_generate_gl(p, n):
    """The n(n-1)(p-1) transvections and n(p-2) scalings, each listed once,
    multiply to |GL_n(F_p)| matrices, each of nonzero determinant: the
    whole group."""
    factors = dickson._elementary_matrices(n, p)
    assert len(set(factors)) == len(factors) == n * (n - 1) * (p - 1) + n * (p - 2)
    group = closure(n, p, factors)
    assert len(group) == gl_order(n, p)
    assert all(permutation_det_mod(a, p) for a in group)


def test_transvections_alone_generate_only_sl():
    """Without its scalings the set reaches only the determinant-1 half of
    GL_2(F_3), so a check on the transvections alone decides SL_2 only."""
    transvections = [(i, j, c) for i, j, c in dickson._elementary_matrices(2, 3) if i != j]
    group = closure(2, 3, transvections)
    assert len(group) == gl_order(2, 3) // 2
    assert {permutation_det_mod(a, 3) for a in group} == {1}


def test_gl_action_composition_axiom():
    """Substitution is a right action: acting by a b is acting by b, then by
    a.  So a C fixed by each generator is fixed by each of their products."""
    ctx = DicksonContext(3, 2)
    rng = random.Random(2024)
    f = poly_of(ctx.ring, "x1^3 + x1*x2 + 2*x2^2")
    for _ in range(25):
        a = random_gl_rows(rng, 2, 3)
        b = random_gl_rows(rng, 2, 3)
        assert dense_gl_action(f, gl_product(a, b, 3)) == dense_gl_action(
            dense_gl_action(f, b), a
        )


def test_gl_action_multiplicative():
    """Each elementary substitution carries a product to the product of the
    images."""
    ctx = DicksonContext(3, 2)
    f = poly_of(ctx.ring, "x1 + x2")
    g = poly_of(ctx.ring, "x1^2 + 2*x2")
    apply = dickson._apply_factor
    for factor in dickson._elementary_matrices(2, 3):
        assert apply(f * g, *factor) == apply(f, *factor) * apply(g, *factor)


def moved_polys(ring, a, rng, count):
    """Seeded random polynomials that a moves: an invariant input would pass
    whatever the substitution."""
    found = []
    while len(found) < count:
        f = random_nonzero_poly(rng, ring, max_terms=5, max_exp=2 * ring.p + 1)
        if dense_gl_action(f, a) != f:
            found.append(f)
    return found


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 3), (7, 2), (13, 2), (5, 1), (3, 1)])
def test_gl_action_matches_dense_oracle(p, n):
    """Each elementary substitution is the dense linear substitution of its
    matrix."""
    ring = DicksonContext(p, n).ring
    rng = random.Random(100 * p + n)
    for factor in dickson._elementary_matrices(n, p):
        a = elementary_matrix(n, factor)
        for f in moved_polys(ring, a, rng, 3):
            assert dickson._apply_factor(f, *factor) == dense_gl_action(f, a), (factor, f)


@pytest.mark.parametrize(
    "p,rows",
    [
        (3, ((0, 1), (1, 0))),  # zero (0,0) pivot
        (5, ((0, 2, 0), (0, 0, 3), (4, 0, 0))),  # zero pivots in a scaled 3-cycle
        (3, ((0, 0, 1), (1, 0, 0), (0, 1, 0))),  # a 3-cycle permutation
        (7, ((3, 0, 0), (0, 1, 0), (0, 0, 1))),  # 3 is a primitive root mod 7
        (5, ((2, 0, 0), (3, 1, 0), (4, 2, 3))),  # lower triangular
    ],
)
def test_gl_action_special_matrices_match_dense_oracle(p, rows):
    """A matrix acts as the elementary substitutions of its Gauss-Jordan
    word, last factor first."""
    word = elementary_word(rows, p)
    ring = DicksonContext(p, len(rows)).ring
    for f in moved_polys(ring, rows, random.Random(p), 10):
        moved = f
        for factor in reversed(word):
            moved = dickson._apply_factor(moved, *factor)
        assert moved == dense_gl_action(f, rows), f


def test_elementary_factors_multiply_back_to_the_matrix():
    """Gauss-Jordan reduction writes each invertible matrix as a product of
    the elementary matrices that gl-invariance substitutes, and finds no
    word for a singular one."""
    rng = random.Random(20)
    for p, n in [(2, 3), (3, 3), (5, 4), (13, 2)]:
        factors = set(dickson._elementary_matrices(n, p))
        for _ in range(20):
            a = random_gl_rows(rng, n, p)
            product_ = identity(n)
            for factor in elementary_word(a, p):
                assert factor in factors
                product_ = gl_product(product_, elementary_matrix(n, factor), p)
            assert product_ == a
    assert elementary_word(((1, 2), (2, 1)), 3) is None


def test_invariance_under_random_matrices():
    """The dense oracle of what gl-invariance decides through the
    generators: random invertible matrices fix every C_{n,i}."""
    rng = random.Random(9000)
    for p, n in [(3, 2), (2, 2), (5, 2)]:
        ctx = DicksonContext(p, n)
        cs = [dickson_c_from_f(ctx, i) for i in range(n + 1)]
        for _ in range(20):
            a = random_gl_rows(rng, n, p)
            for c in cs:
                assert dense_gl_action(c, a) == c


def test_invariance_under_permutation_matrices():
    ctx = DicksonContext(3, 3)
    perms = [
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ]
    for rows in perms:
        for i in range(4):
            c = dickson_c_from_f(ctx, i)
            assert dense_gl_action(c, rows) == c


def test_verify_dickson_reports():
    for p, n in [(3, 2), (2, 2), (5, 2)]:
        checks = verify_dickson(DicksonContext(p, n))
        assert passed(checks)
        names = {c.name for c in checks}
        assert "delta-factorization" in names
        assert "gl-invariance" in names
        assert f"two-route-c{n}" in names
    check = {c.name: c for c in verify_dickson(DicksonContext(3, 2))}["gl-invariance"]
    assert check.detail == "6 elementary matrices, which generate GL_2(F_3), fix every C"


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 2), (3, 3), (2, 4)])
def test_gl_invariance_names_the_group_it_decides(p, n):
    """The PASS detail counts the n(n-1)(p-1) transvections and n(p-2)
    scalings; GL_1(F_2) is trivial, and the empty set generates it."""
    check = {c.name: c for c in verify_dickson(DicksonContext(p, n))}["gl-invariance"]
    count = n * (n - 1) * (p - 1) + n * (p - 2)
    assert (check.status, check.detail) == (
        "pass",
        f"{count} elementary matrices, which generate GL_{n}(F_{p}), fix every C",
    )


# -- the subspace recursion ------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 2), (7, 2)])
def test_linear_form_product_matches_naive_oracle(p, n):
    ctx = DicksonContext(p, n)
    ring = ctx.xring
    x_aux = ring.variable(n)
    factors = []
    for ks in product(range(p), repeat=n):
        form = x_aux
        for j, k in enumerate(ks):
            form = form - ring.monomial({j: 1}, k)
        factors.append(form)
    assert linear_form_product(ring) == naive_product(factors)
    assert f_n_product(ctx) == naive_product(factors)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3), (7, 3), (2, 5)])
def test_linear_form_product_matches_balanced_oracle(p, n):
    ring = DicksonContext(p, n).xring
    assert linear_form_product(ring) == balanced_linear_form_product(ring)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_two_routes_agree_beyond_acceptance_grid(p, n):
    ctx = DicksonContext(p, n)
    for i in range(n + 1):
        assert delta_ni(ctx, i) == delta_ni(ctx, n) * dickson_c_from_f(ctx, i)


def test_size_guard_detail_states_the_cost():
    with pytest.raises(SizeGuard) as hours:
        f_n_product(DicksonContext(101, 3))
    assert str(hours.value) == (
        "the product of the 101^3 linear forms (1.06e+11 monomial pairs) would "
        "take about 19.7 h; the guard allows 6.67 s"
    )
    with pytest.raises(SizeGuard) as seconds:
        linear_form_product(DicksonContext(7, 4).xring)
    assert str(seconds.value) == (
        "the product of the 7^4 linear forms (1.41e+08 monomial pairs) would "
        "take about 94.2 s; the guard allows 6.67 s"
    )


# -- negative control ----------------------------------------------------------------


@pytest.fixture
def perturbed_f(monkeypatch):
    """f_n with its X^{p^n} coefficient moved from 1 to 2."""
    original = dickson.f_n_product

    def broken(ctx):
        f = original(ctx)
        return f + ctx.xring.monomial({ctx.n: ctx.p**ctx.n})

    f_n_coefficients.cache_clear()
    monkeypatch.setattr(dickson, "f_n_product", broken)
    yield
    f_n_coefficients.cache_clear()


def test_verify_dickson_fails_on_perturbed_product(perturbed_f):
    checks = verify_dickson(DicksonContext(3, 2))
    status = {c.name: c for c in checks}
    assert not passed(checks)
    assert status["two-route-c2"].status == "fail"
    # Delta_{2,2} = x1*x2^3 - x1^3*x2 against twice that
    assert status["two-route-c2"].detail == (
        "first differing terms: x1^3*x2: 2 != 1; x1*x2^3: 1 != 2"
    )
    assert status["delta-factorization"].status == "fail"
    assert status["delta-factorization"].detail.startswith("first differing terms:")
    assert status["two-route-c0"].status == "pass"


def test_cli_exits_one_on_perturbed_product(perturbed_f, capsys):
    code = cli.main(["--suite", "dickson", "--p", "3", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()


def test_cli_fails_gl_invariance_on_planted_non_invariant(monkeypatch, capsys):
    """C_{2,1} at p = 3 replaced by x2^6, homogeneous of its degree 6: the
    scalings and the transvections into x1 fix it, and the first
    transvection into x2, x2 -> x2 + x1, moves it."""
    original = dickson.dickson_c_from_f

    def planted(ctx, i):
        if (ctx.p, ctx.n, i) == (3, 2, 1):
            return ctx.ring.monomial({1: 6})
        return original(ctx, i)

    monkeypatch.setattr(dickson, "dickson_c_from_f", planted)
    code = cli.main(["--suite", "dickson", "--p", "3", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out
    line = next(row for row in out.splitlines() if "dickson/gl-invariance" in row)
    assert " FAIL " in line
    assert line.endswith(
        "x2 -> x2 + 1*x1 moves C_{2,1}; first differing terms: x1^6: 1 != 0; x1^3*x2^3: 2 != 0"
    )


def test_a_zero_denominator_minor_fails_every_two_route_check(monkeypatch, capsys):
    """Delta_{2,2} planted as zero: each two-route-c<i> would read 0 == 0 after
    cross-multiplying, so each fails on its denominator instead."""
    original = dickson.delta_ni

    def planted(ctx, i):
        return ctx.ring.zero() if i == ctx.n else original(ctx, i)

    monkeypatch.setattr(dickson, "delta_ni", planted)
    checks = {c.name: c for c in verify_dickson(DicksonContext(3, 2))}
    for i in range(3):
        check = checks[f"two-route-c{i}"]
        assert (check.status, check.detail) == ("fail", "the Moore minor Delta_{2,2} is zero")
    code = cli.main(["--suite", "dickson", "--p", "3", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out


# -- the rank-one product guard ------------------------------------------------------


def test_rank_one_product_guard_refuses_before_the_scalars(monkeypatch):
    """At n = 1 the product's time is the p^2/2 steps of _shift_scalars, so
    p = 10007 (about 45 s) is refused before any of them runs.  gl-invariance
    reads its C from f_1, so it is refused with the product."""

    def never(p, exponents):
        raise AssertionError("_shift_scalars ran past the guard")

    monkeypatch.setattr(dickson, "_shift_scalars", never)
    checks = verify_dickson(DicksonContext(10007, 1))
    status = {c.name: c for c in checks}
    assert set(status) == {"two-route-c0", "two-route-c1", "delta-factorization", "gl-invariance"}
    for name in status:
        assert status[name].status == "skipped"
        assert status[name].detail == (
            "the product of the 10007^1 linear forms (6.68e+07 monomial pairs) "
            "would take about 44.5 s; the guard allows 6.67 s"
        )


def test_rank_one_product_passes_below_its_guard():
    checks = verify_dickson(DicksonContext(1009, 1))
    assert {c.status for c in checks} == {"pass"}


def test_invariance_guard_refuses_before_the_first_substitution(monkeypatch):
    """At n = 2 each of the 2(p - 1) transvections expands about p^3 picks,
    so the check is refused at p = 101 (an estimated 57 s) and admitted at
    p = 31."""

    def never(f, i, j, c):
        raise AssertionError("_apply_factor ran past the guard")

    monkeypatch.setattr(dickson, "_apply_factor", never)
    checks = verify_dickson(DicksonContext(101, 2))
    check = {c.name: c for c in checks}["gl-invariance"]
    assert check.status == "skipped"
    assert check.detail == (
        "398 elementary matrices (1.42e+08 Lucas picks) would take about 56.6 s; "
        "the guard allows 6.67 s"
    )
    monkeypatch.undo()
    checks = verify_dickson(DicksonContext(31, 2))
    assert {c.name: c.status for c in checks}["gl-invariance"] == "pass"


@pytest.mark.parametrize("p,n", [(13, 2), (31, 2), (3, 3), (5, 3)])
def test_substitution_picks_count_the_expanded_picks(p, n, monkeypatch):
    """The estimate of the guard is the exact count of the work: the picks
    that _transvection expands and builds, and one per term that a scaling
    maps, over every factor and every C."""
    ctx = DicksonContext(p, n)
    cs = [dickson_c_from_f(ctx, i) for i in range(n + 1)]
    factors = dickson._elementary_matrices(n, p)
    expanded = [0]
    transvection, compose = dickson._transvection, Poly.compose

    def counted(f, j, i, c):
        shift, fmask = f.ring._shifts[j], f.ring._fmask
        exps = [k >> shift & fmask for k in f._terms]
        expanded[0] += sum(len(_binom_support(e, p)) for e in exps)
        expanded[0] += sum(len(_binom_support(e, p)) for e in set(exps))
        return transvection(f, j, i, c)

    def counted_compose(f, images):
        expanded[0] += len(f.terms)
        return compose(f, images)

    monkeypatch.setattr(dickson, "_transvection", counted)
    monkeypatch.setattr(Poly, "compose", counted_compose)
    for c in cs:
        for factor in factors:
            dickson._apply_factor(c, *factor)
    assert dickson._substitution_picks(cs, factors) == expanded[0]


# -- the exact decision of gl-invariance ----------------------------------------------


def test_each_factor_is_substituted_into_each_c_once(monkeypatch):
    """A passing check at (13, 2) substitutes each of the 46 elementary
    matrices into each of the three C_{2,i} once, and nothing else."""
    ctx = DicksonContext(13, 2)
    assert passed(verify_dickson(ctx))  # fills the caches of the other checks
    seen = []
    apply = dickson._apply_factor

    def counted(f, i, j, c):
        seen.append((f, (i, j, c)))
        return apply(f, i, j, c)

    monkeypatch.setattr(dickson, "_apply_factor", counted)
    assert passed(verify_dickson(ctx))
    factors = dickson._elementary_matrices(2, 13)
    assert len(factors) == 46
    cs = [dickson_c_from_f(ctx, i) for i in range(3)]
    assert seen == [(c, factor) for c in cs for factor in factors]


@pytest.mark.parametrize("p,n", [(3, 2), (5, 3)])
def test_planted_moore_minor_fails_on_a_scaling(p, n, monkeypatch, capsys):
    """Delta_{n,n} is multiplied by the determinant: each transvection fixes
    it and each scaling x_j -> c x_j multiplies it by c.  Planted as C_{n,0},
    it is SL- but not GL-invariant, so gl-invariance FAILs on the first
    scaling, which the detail names, and the CLI exits 1."""
    ctx = DicksonContext(p, n)
    minor = delta_ni(ctx, n)
    for i, j, c in dickson._elementary_matrices(n, p):
        assert dickson._apply_factor(minor, i, j, c) == (minor * c if i == j else minor)
    original = dickson.dickson_c_from_f

    def planted(ctx_, i):
        return delta_ni(ctx_, ctx_.n) if i == 0 else original(ctx_, i)

    monkeypatch.setattr(dickson, "dickson_c_from_f", planted)
    check = {c.name: c for c in verify_dickson(ctx)}["gl-invariance"]
    assert check.status == "fail"
    assert check.detail == f"x1 -> 2*x1 moves C_{{{n},0}}; " + diff_detail(minor * 2, minor)
    assert cli.main(["--suite", "dickson", "--p", str(p), "--n", str(n)]) == 1
    assert "overall: FAIL" in capsys.readouterr().out
