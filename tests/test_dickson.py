import random
from itertools import combinations, permutations, product

import pytest

from conjchern import cli, dickson
from conjchern.dickson import (
    DicksonContext,
    GLMatrix,
    delta_full,
    delta_ni,
    dickson_c,
    dickson_c_from_f,
    f_n_product,
    gl_action,
    linear_form_product,
    random_gl,
    verify_dickson,
)
from conjchern.errors import IndexOutOfRange, SingularMatrix, SizeGuard
from conjchern.fp import _binom_support
from conjchern.poly import Poly, PolyRing
from helpers import (
    balanced_linear_form_product,
    dense_gl_action,
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
    assert delta_full(ctx).compose(images, ctx.ring).is_zero()


def test_delta_ni_examples():
    ctx = DicksonContext(3, 2)
    assert delta_ni(ctx, 2) == poly_of(ctx.ring, "x1*x2^3 - x1^3*x2")
    ctx1 = DicksonContext(5, 1)
    assert delta_ni(ctx1, 1) == poly_of(ctx1.ring, "x1")


def test_delta_ni_antisymmetric_in_variables():
    ctx = DicksonContext(3, 2)
    swap = [ctx.ring.variable("x2"), ctx.ring.variable("x1")]
    for i in range(3):
        assert delta_ni(ctx, i).compose(swap, ctx.ring) == -delta_ni(ctx, i)


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


def test_delta_divided_by_f_recovers_minor():
    from conjchern.poly import exact_div

    for p, n in [(2, 2), (3, 2), (5, 1)]:
        ctx = DicksonContext(p, n)
        quotient = exact_div(delta_full(ctx), f_n_product(ctx))
        assert quotient == ctx.to_xring(delta_ni(ctx, n))


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
            assert f.compose(gens + [root], ctx.ring).is_zero()


def test_size_guard():
    with pytest.raises(SizeGuard):
        f_n_product(DicksonContext(101, 3))


def test_dickson_c_examples():
    assert dickson_c(DicksonContext(3, 1), 0) == poly_of(PolyRing(3, ("x1",)), "x1^2")
    assert dickson_c(DicksonContext(5, 1), 0) == poly_of(PolyRing(5, ("x1",)), "x1^4")
    ctx22 = DicksonContext(2, 2)
    assert dickson_c(ctx22, 1) == poly_of(ctx22.ring, "x1^2 + x1*x2 + x2^2")
    assert dickson_c(ctx22, 0) == poly_of(ctx22.ring, "x1^2*x2 + x1*x2^2")


def test_c_nn_is_one():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        assert dickson_c(ctx, n) == ctx.ring.one()
        assert dickson_c_from_f(ctx, n) == ctx.ring.one()


def test_two_routes_agree():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        for i in range(n + 1):
            assert dickson_c(ctx, i) == dickson_c_from_f(ctx, i)


def test_homogeneity_degrees():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        for i in range(n):
            c = dickson_c(ctx, i)
            assert len(c.degrees()) <= 1
            assert c.degree() == p**n - p**i


def test_row_zero_minor_is_frobenius_power():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        assert delta_ni(ctx, 0) == delta_ni(ctx, n) ** p


def test_factorization_identity():
    for p, n in ACCEPTANCE_GRID:
        ctx = DicksonContext(p, n)
        lhs = delta_full(ctx)
        rhs = ctx.to_xring(delta_ni(ctx, n)) * f_n_product(ctx)
        assert lhs == rhs


def permutation_det_mod(rows, p):
    """Leibniz expansion over all permutations: the oracle for the
    invertibility decision of GLMatrix."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for a, b in combinations(perm, 2) if a > b)
        term = (-1) ** inversions
        for r, c in enumerate(perm):
            term *= rows[r][c]
        total += term
    return total % p


def accepts(rows, p) -> bool:
    """Whether GLMatrix takes rows as an invertible matrix mod p."""
    try:
        GLMatrix(rows, p)
    except ValueError as exc:
        assert str(exc) == "matrix is singular mod p"
        return False
    return True


@pytest.mark.parametrize("n,p", [(3, 3), (3, 7), (4, 2), (4, 5)])
def test_int_det_mod_matches_permutation_expansion(n, p):
    """GLMatrix accepts a matrix exactly when its Leibniz determinant is
    nonzero mod p."""
    rng = random.Random(97 * n + p)
    for _ in range(60):
        # zeros are common so that singular matrices and zero pivots occur
        entries = [0, 0] + list(range(p))
        rows = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
        assert accepts(rows, p) == (permutation_det_mod(rows, p) != 0)


def test_glmatrix_refuses_singular_matrices():
    assert accepts(((1, 0), (0, 1)), 3)
    assert not accepts(((1, 2), (2, 4)), 5)
    assert accepts(((0, 1), (2, 0)), 3)  # determinant -2 mod 3
    assert not accepts(((3, 6), (1, 2)), 3)  # reduces to a zero row


def test_random_gl_deterministic_and_invertible():
    for seed in range(1000):
        m = random_gl(2, 3, seed)
        assert permutation_det_mod(m.entries, 3) != 0
    assert random_gl(3, 5, 123) == random_gl(3, 5, 123)
    assert random_gl(1, 3, 7).entries[0][0] != 0
    with pytest.raises(ValueError, match="modulus must be prime"):
        random_gl(2, 4, 0)  # refused, not redrawn forever


# The entries of random_gl(2, p, seed) for seeds 0..99, row by row, one base-p
# digit each (a = 10, b = 11, c = 12), as drawn when the invertibility test was
# a determinant.  They cover the 50 trials of --suite dickson --n 2 at every
# seed up to 50, at p = 3 (--suite all --p 3) and p = 13.
DRAWN = {
    3: (
        "11010111022102201002101220111012011012112011121121010210022210011112211110012011"
        "22010121221010022120100112201211021120122120221220012022212021021001220211020110"
        "12202002200201201222011020221012210201101112022010222012012110122012012220020220"
        "11201112112112011022111201101121212202110121122002201021220112111110011012020112"
        "11122110012110022101022002120112202202212221201112222022200110021121011012011102"
    ),
    13: (
        "6c6029cc01153982341b94b5c917526a35627954906778c774a8c2a319bc308b577486c421a7a0c8"
        "bacc26b62309c410b6926c03b3a3a7b41b2881598c49071c132492a3859085c2500ca919a66c3460"
        "79806532a10b04bc688b14501609516885281561745a388240b893782784132b807a0599933b31a7"
        "4492728392137a1671a96448146311c6b7bba01c14b7589c1c9b4187981579675763c453b4b62759"
        "468b87582c787712b4c03b91cc082b3863521c9b3b17192a689879b58214c88b55a636c559056639"
    ),
}


@pytest.mark.parametrize("p", sorted(DRAWN))
def test_random_gl_draws_the_recorded_matrices(p):
    digits = "".join(
        "0123456789abc"[v] for seed in range(100) for row in random_gl(2, p, seed).entries
        for v in row
    )
    assert digits == DRAWN[p]


def test_identity_matrix_fixes_everything():
    ctx = DicksonContext(3, 2)
    eye = GLMatrix(((1, 0), (0, 1)), 3)
    f = poly_of(ctx.ring, "x1^2 + 2*x1*x2")
    assert gl_action(f, eye) == f


def test_gl_action_composition_axiom():
    ctx = DicksonContext(3, 2)
    rng = random.Random(2024)
    f = poly_of(ctx.ring, "x1^3 + x1*x2 + 2*x2^2")
    for _ in range(25):
        a = random_gl(2, 3, rng.randrange(10**6))
        b = random_gl(2, 3, rng.randrange(10**6))
        assert gl_action(f, gl_product(a, b)) == gl_action(gl_action(f, b), a)


def test_gl_action_multiplicative():
    ctx = DicksonContext(3, 2)
    a = random_gl(2, 3, 5)
    f = poly_of(ctx.ring, "x1 + x2")
    g = poly_of(ctx.ring, "x1^2 + 2*x2")
    assert gl_action(f * g, a) == gl_action(f, a) * gl_action(g, a)


def identity(n, p):
    return GLMatrix([[int(r == c) for c in range(n)] for r in range(n)], p)


def moved_polys(ring, a, rng, count):
    """Seeded random polynomials that a moves: an invariant input would pass
    whatever the order of the elementary factors."""
    found = []
    while len(found) < count:
        f = random_nonzero_poly(rng, ring, max_terms=5, max_exp=2 * ring.p + 1)
        if dense_gl_action(f, a) != f:
            found.append(f)
    return found


@pytest.mark.parametrize("p,n", [(2, 3), (3, 3), (5, 3), (7, 2), (13, 2), (5, 1), (3, 1)])
def test_gl_action_matches_dense_oracle(p, n):
    ring = DicksonContext(p, n).ring
    rng = random.Random(100 * p + n)
    for _ in range(10):
        a = random_gl(n, p, rng.randrange(10**6))
        if a == identity(n, p):
            continue
        for f in moved_polys(ring, a, rng, 3):
            assert gl_action(f, a) == dense_gl_action(f, a), (a, f)


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
    a = GLMatrix(rows, p)
    ring = DicksonContext(p, a.n).ring
    for f in moved_polys(ring, a, random.Random(p), 10):
        assert gl_action(f, a) == dense_gl_action(f, a), f


def test_elementary_factors_multiply_back_to_the_matrix():
    for p, n in [(2, 3), (3, 3), (5, 4), (13, 2)]:
        for seed in range(20):
            a = random_gl(n, p, seed)
            product_ = identity(n, p)
            for i, j, c in a.factors:
                e = [list(row) for row in identity(n, p).entries]
                e[i][j] = c if i == j else e[i][j] + c
                product_ = gl_product(product_, GLMatrix(e, p))
            assert product_ == a


def test_gl_action_without_a_pivot_is_a_library_error():
    """A matrix without elementary factors never reaches gl_action: the
    factorization raises a library error, and GLMatrix refuses the matrix."""
    with pytest.raises(SingularMatrix, match="no pivot in column 1"):
        dickson._elementary_factors(((1, 2), (2, 1)), 3)
    assert not accepts(((1, 2), (2, 1)), 3)


def test_invariance_under_random_matrices():
    for p, n in [(3, 2), (2, 2), (5, 2)]:
        ctx = DicksonContext(p, n)
        cs = [dickson_c(ctx, i) for i in range(n + 1)]
        for t in range(20):
            a = random_gl(n, p, 9000 + t)
            for c in cs:
                assert gl_action(c, a) == c


def test_invariance_under_permutation_matrices():
    ctx = DicksonContext(3, 3)
    perms = [
        ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
        ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ]
    for rows in perms:
        a = GLMatrix(rows, 3)
        for i in range(4):
            c = dickson_c(ctx, i)
            assert gl_action(c, a) == c


def test_verify_dickson_reports():
    for p, n, trials in [(3, 2, 50), (2, 2, 50), (5, 2, 20)]:
        checks = verify_dickson(DicksonContext(p, n), trials=trials, seed=11)
        assert passed(checks)
        names = {c.name for c in checks}
        assert "delta-factorization" in names
        assert "gl-invariance" in names
        assert f"two-route-c{n}" in names


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
        assert dickson_c(ctx, i) == dickson_c_from_f(ctx, i)


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

    dickson_c_from_f.cache_clear()
    monkeypatch.setattr(dickson, "f_n_product", broken)
    yield
    dickson_c_from_f.cache_clear()


def test_verify_dickson_fails_on_perturbed_product(perturbed_f):
    checks = verify_dickson(DicksonContext(3, 2), trials=2, seed=1)
    status = {c.name: c for c in checks}
    assert not passed(checks)
    assert status["two-route-c2"].status == "fail"
    assert status["two-route-c2"].detail == "first differing terms: 1: 1 != 2"
    assert status["delta-factorization"].status == "fail"
    assert status["delta-factorization"].detail.startswith("first differing terms:")
    assert status["two-route-c0"].status == "pass"


def test_cli_exits_one_on_perturbed_product(perturbed_f, capsys):
    code = cli.main(["--suite", "dickson", "--p", "3", "--n", "2", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()


def test_cli_fails_gl_invariance_on_planted_non_invariant(monkeypatch, capsys):
    """C_{2,1} at p = 3 replaced by x2^6, homogeneous of its degree 6; the
    seed-0 trial-0 matrix x2 -> x1 + x2 moves it."""
    original = dickson.dickson_c

    def planted(ctx, i):
        if (ctx.p, ctx.n, i) == (3, 2, 1):
            return ctx.ring.monomial({1: 6})
        return original(ctx, i)

    monkeypatch.setattr(dickson, "dickson_c", planted)
    code = cli.main(["--suite", "dickson", "--p", "3", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out
    line = next(row for row in out.splitlines() if "dickson/gl-invariance" in row)
    assert " FAIL " in line
    assert line.endswith(
        "trial 0: C_{2,1} moved; first differing terms: x1^6: 1 != 0; x1^3*x2^3: 2 != 0"
    )


# -- the largest admitted prime ------------------------------------------------------

BIG_P = 2147483647


def test_rank_one_invariance_passes_at_the_largest_admitted_prime():
    checks = verify_dickson(DicksonContext(BIG_P, 1), trials=2, seed=0)
    status = {c.name: c.status for c in checks}
    assert status == {
        "two-route-c0": "skipped",
        "two-route-c1": "skipped",
        "delta-factorization": "skipped",
        "gl-invariance": "pass",
    }


def test_rank_one_product_guard_refuses_before_the_scalars(monkeypatch):
    """At n = 1 the product's time is the p^2/2 steps of _shift_scalars, so
    p = 10007 (about 45 s) is refused before any of them runs."""

    def never(p, exponents):
        raise AssertionError("_shift_scalars ran past the guard")

    monkeypatch.setattr(dickson, "_shift_scalars", never)
    checks = verify_dickson(DicksonContext(10007, 1), trials=2, seed=0)
    status = {c.name: c for c in checks}
    for name in ("two-route-c0", "two-route-c1", "delta-factorization"):
        assert status[name].status == "skipped"
        assert status[name].detail == (
            "the product of the 10007^1 linear forms (6.68e+07 monomial pairs) "
            "would take about 44.5 s; the guard allows 6.67 s"
        )
    assert status["gl-invariance"].status == "pass"


def test_rank_one_product_passes_below_its_guard():
    checks = verify_dickson(DicksonContext(1009, 1), trials=2, seed=0)
    assert {c.status for c in checks} == {"pass"}


def test_division_guard_refuses_before_dividing(monkeypatch):
    def never(f, g):
        raise AssertionError("exact_div ran past the guard")

    monkeypatch.setattr(dickson, "exact_div", never)
    ctx = DicksonContext(BIG_P, 2)
    for i in range(2):
        with pytest.raises(SizeGuard) as guard:
            dickson_c(ctx, i)
        assert str(guard.value) == (
            f"the exact division for C_{{2,{i}}} (4.29e+09 monomial pairs) would "
            "take about 2860 s; the guard allows 6.67 s"
        )


def test_invariance_guard_refuses_before_the_first_trial(monkeypatch):
    """A trial costs about p^3 at n = 2, so the default 50 trials are refused
    at p = 101 (an estimated 47 s) and admitted at p = 31."""

    def never(f, a):
        raise AssertionError("gl_action ran past the guard")

    monkeypatch.setattr(dickson, "gl_action", never)
    checks = verify_dickson(DicksonContext(101, 2), trials=50, seed=0)
    check = {c.name: c for c in checks}["gl-invariance"]
    assert check.status == "skipped"
    assert check.detail == (
        "50 random matrices (7.07e+07 Lucas picks) would take about 47.2 s; "
        "the guard allows 6.67 s"
    )
    monkeypatch.undo()
    checks = verify_dickson(DicksonContext(31, 2), trials=50, seed=0)
    assert {c.name: c.status for c in checks}["gl-invariance"] == "pass"


@pytest.mark.parametrize("p,n", [(13, 2), (31, 2), (3, 3), (5, 3)])
def test_trial_picks_bound_the_expanded_picks(p, n, monkeypatch):
    """The estimate of the guard against the picks that _transvection expands
    and builds over ten random trials: within 5% at n = 2, and at most 1.25
    times high at n = 3."""
    ctx = DicksonContext(p, n)
    cs = [dickson_c(ctx, i) for i in range(n + 1)]
    expanded = [0]
    transvection = dickson._transvection

    def counted(f, j, i, c):
        shift, fmask = f.ring._shifts[j], f.ring._fmask
        exps = [k >> shift & fmask for k in f._terms]
        expanded[0] += sum(len(_binom_support(e, p)) for e in exps)
        expanded[0] += sum(len(_binom_support(e, p)) for e in set(exps))
        return transvection(f, j, i, c)

    monkeypatch.setattr(dickson, "_transvection", counted)
    for t in range(10):
        a = random_gl(n, p, t)
        for c in cs:
            gl_action(c, a)
    ratio = 10 * dickson._trial_picks(cs) / expanded[0]
    assert (0.95 <= ratio <= 1.05) if n == 2 else (1 <= ratio <= 1.25), ratio


# -- the substitution memo of gl-invariance -------------------------------------------


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (13, 2)])
def test_shared_memo_matches_the_memo_less_and_dense_actions(p, n):
    """One memo over 20 matrices, on random polynomials that the matrices
    move and on an invariant, whose unmoved results the memo stores as the
    input object."""
    ctx = DicksonContext(p, n)
    rng = random.Random(10 * p + n)
    fs = [random_nonzero_poly(rng, ctx.ring, max_terms=5, max_exp=2 * p + 1) for _ in range(3)]
    fs.append(dickson_c(ctx, 0))
    memo = {}
    moved = set()
    for seed in range(20):
        a = random_gl(n, p, seed)
        for k, f in enumerate(fs):
            got = gl_action(f, a, memo)
            assert got == gl_action(f, a) == dense_gl_action(f, a), (a, f)
            if got != f:
                moved.add(k)
    assert moved == {0, 1, 2}
    invariant = fs[-1]
    assert all(got is invariant for (f, _), got in memo.items() if f is invariant)


def test_shared_memo_still_fails_a_later_trial(monkeypatch):
    """C_{2,1} at p = 3 planted as x1^2 + x2^2: the swap of trials 0 and 1
    fixes it and x2 -> x1 + x2 in trial 2 moves it.  The memo filled by the
    first two trials must not hide the move, and the detail is the one of the
    memo-less action."""
    ctx = DicksonContext(3, 2)
    swap = GLMatrix(((0, 1), (1, 0)), 3)
    shear = GLMatrix(((1, 1), (0, 1)), 3)
    matrices = [swap, swap, shear]
    original = dickson.dickson_c

    def planted(ctx_, i):
        if (ctx_.p, ctx_.n, i) == (3, 2, 1):
            return poly_of(ctx_.ring, "x1^2 + x2^2")
        return original(ctx_, i)

    def invariance():
        return {c.name: c for c in verify_dickson(ctx, trials=3)}["gl-invariance"]

    monkeypatch.setattr(dickson, "dickson_c", planted)
    monkeypatch.setattr(dickson, "random_gl", lambda n, p, seed: matrices[seed])
    with_memo = invariance()
    action = dickson.gl_action
    monkeypatch.setattr(dickson, "gl_action", lambda f, a, memo=None: action(f, a))
    without_memo = invariance()
    assert with_memo.status == without_memo.status == "fail"
    assert with_memo.detail.startswith("trial 2: C_{2,1} moved; ")
    assert with_memo.detail == without_memo.detail


def test_memo_computes_each_distinct_substitution_once(monkeypatch):
    """At (13, 2) every intermediate of a passing check is one of the C, so
    the check substitutes at most once per distinct (C, factor) pair."""
    ctx = DicksonContext(13, 2)
    factors = {f for seed in range(50) for f in random_gl(2, 13, seed).factors}
    assert passed(verify_dickson(ctx))  # fills the caches of the other checks
    calls = [0]
    transvection, compose = dickson._transvection, Poly.compose

    def counted_transvection(f, j, i, c):
        calls[0] += 1
        return transvection(f, j, i, c)

    def counted_compose(f, images, ring=None):
        if ring is f.ring:  # a scaling; to_xring composes into another ring
            calls[0] += 1
        return compose(f, images, ring)

    def substitutions():
        calls[0] = 0
        checks = verify_dickson(ctx)
        assert {c.name: c.status for c in checks}["gl-invariance"] == "pass"
        return calls[0]

    monkeypatch.setattr(dickson, "_transvection", counted_transvection)
    monkeypatch.setattr(Poly, "compose", counted_compose)
    with_memo = substitutions()
    action = dickson.gl_action
    monkeypatch.setattr(dickson, "gl_action", lambda f, a, memo=None: action(f, a))
    without_memo = substitutions()
    assert 0 < with_memo <= 3 * len(factors)
    assert with_memo < without_memo, (with_memo, without_memo)
