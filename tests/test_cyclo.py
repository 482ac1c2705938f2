import random
from itertools import product

import pytest

from conjchern import cli, cyclo
from conjchern.cyclo import (
    CycMatrix,
    a_matrix,
    conj_act,
    gen_matrices,
    is_nonsingular,
    verify_extraspecial,
    verify_weight_basis,
)
from conjchern.errors import NotMonomial, PrimeMismatch, SizeGuard, VerificationFailure
from helpers import (
    ZW,
    brute_force_det,
    dense,
    dense_kron,
    dense_mul,
    dense_scale,
    passed,
    random_monomial,
)


def w(p, k=1):
    return ZW.omega(p, k)


# -- scalars and mixed primes ------------------------------------------------------


def test_omega_has_order_p():
    for p in (3, 5, 7):
        eye = CycMatrix.identity(p, p)
        omega = eye.mul_omega(1)
        for k in range(1, p + 1):
            assert (omega**k == eye) == (k == p)
        assert omega * eye.mul_omega(p - 1) == eye


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        CycMatrix.identity(3, 3) * CycMatrix.identity(5, 3)
    with pytest.raises(PrimeMismatch):
        CycMatrix.identity(3, 2).kron(CycMatrix.identity(5, 2))


# -- generator matrices --------------------------------------------------------


def test_sigma_matrix_frozen():
    rows = dense(gen_matrices(3)[0])
    assert [rows[i][i] for i in range(3)] == [w(3, 1), w(3, 2), w(3, 0)]
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    assert not any(rows[i][j] for i, j in off)


def test_tau_matrix_frozen():
    rows = dense(gen_matrices(3)[1])
    pattern = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    for i in range(3):
        for j in range(3):
            assert rows[i][j] == pattern[i][j]


def test_generator_orders():
    for p in (3, 5):
        sigma, tau = gen_matrices(p)
        eye = CycMatrix.identity(p, p)
        assert sigma**p == eye
        assert tau**p == eye


def test_a_matrix_frozen_values():
    for p in (3, 5):
        assert a_matrix(0, 0, p) == CycMatrix.identity(p, p)
    a01 = dense(a_matrix(0, 1, 3))
    assert [a01[i][i] for i in range(3)] == [w(3, 2), w(3, 1), w(3, 0)]
    a10 = dense(a_matrix(1, 0, 3))
    pattern = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    for i in range(3):
        for j in range(3):
            assert a10[i][j] == pattern[i][j]


def test_a_matrix_index_range():
    from conjchern.errors import IndexOutOfRange

    with pytest.raises(IndexOutOfRange):
        a_matrix(3, 0, 3)


def test_a_matrix_factorization():
    for p in (3, 5):
        for i in range(p):
            for j in range(p):
                assert a_matrix(i, j, p) == a_matrix(i, 0, p) * a_matrix(0, j, p)


# -- conjugation action ----------------------------------------------------------


def test_conj_by_identity():
    m = a_matrix(1, 2, 3)
    assert conj_act(CycMatrix.identity(3, 3), m) == m


def test_eigen_relations_exhaustive():
    for p in (3, 5):
        sigma, tau = gen_matrices(p)
        for i in range(p):
            for j in range(p):
                a = a_matrix(i, j, p)
                assert conj_act(sigma, a) == a.mul_omega(i)
                assert conj_act(tau, a) == a.mul_omega(j)


def test_conj_action_axiom():
    p = 3
    sigma, tau = gen_matrices(p)
    m = a_matrix(2, 1, p)
    for g, h in product((sigma, tau), repeat=2):
        assert conj_act(g * h, m) == conj_act(g, conj_act(h, m))


def test_conj_matches_full_product():
    # (g m g^-1) g = g m, with both sides multiplied as dense rows
    p = 3
    sigma, tau = gen_matrices(p)
    g = sigma * tau
    m = a_matrix(1, 2, p)
    assert dense_mul(p, dense(conj_act(g, m)), dense(g)) == dense_mul(p, dense(g), dense(m))


@pytest.mark.parametrize("p", [3, 5])
def test_monomial_operations_match_dense_reference(p):
    rng = random.Random(31 + p)
    for size in range(1, 10):
        for _ in range(4):
            a = random_monomial(rng, p, size)
            b = random_monomial(rng, p, size)
            eye = dense(CycMatrix.identity(p, size))
            assert dense(a * b) == dense_mul(p, dense(a), dense(b))
            assert dense_mul(p, dense(a), dense(a.inverse_monomial())) == eye
            assert dense_mul(p, dense(a.inverse_monomial()), dense(a)) == eye
            k = rng.randrange(-p, 2 * p)
            assert dense(a.mul_omega(k)) == dense_scale(p, dense(a), k)
            assert dense_mul(p, dense(conj_act(a, b)), dense(a)) == dense_mul(
                p, dense(a), dense(b)
            )
            if size <= 3:
                c = random_monomial(rng, p, rng.randrange(1, 4))
                assert dense(a.kron(c)) == dense_kron(dense(a), dense(c))


def test_not_monomial():
    p = 3
    with pytest.raises(NotMonomial):
        CycMatrix(p, [0, 0, 2], [0, 0, 0])
    with pytest.raises(NotMonomial):
        CycMatrix(p, [0, 1, 2], [0, 0])


def test_weight_characters_pairwise_distinct():
    # any two index pairs are separated by a generator
    for p in (3, 5):
        pairs = list(product(range(p), repeat=2))
        for a in pairs:
            for b in pairs:
                if a != b:
                    assert a[0] != b[0] or a[1] != b[1]


# -- the nonsingularity decision --------------------------------------------------


def random_exponents(rng, p, n, density):
    """An n x n matrix of exponents k of w^k, None for a zero entry."""
    return [
        [rng.randrange(p) if rng.random() < density else None for _ in range(n)]
        for _ in range(n)
    ]


def decide(p, exponents):
    """is_nonsingular on the exponent matrix, and whether the brute-force
    determinant of the same matrix is nonzero."""
    rows = [{c: k for c, k in enumerate(row) if k is not None} for row in exponents]
    entries = [[0 if k is None else w(p, k) for k in row] for row in exponents]
    return is_nonsingular(p, rows), bool(brute_force_det(p, entries))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_nonsingular_matches_brute_force(p):
    rng = random.Random(77 + p)
    outcomes = set()
    for n in range(1, 8):
        for _ in range(12 if n < 6 else 3):
            exponents = random_exponents(rng, p, n, rng.choice((0.4, 0.7, 1.0)))
            got, want = decide(p, exponents)
            assert got == want
            outcomes.add(want)
    assert outcomes == {False, True}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_planted_singular_matrices_are_decided_zero(p):
    """Row b is w^k times row a, so the determinant is 0 though no row need
    be zero: every image mod q is singular, and only the norm bound ends the
    search."""
    rng = random.Random(91 + p)
    for n in range(2, 8):
        for _ in range(3):
            exponents = random_exponents(rng, p, n, 0.8)
            a, b = rng.sample(range(n), 2)
            k = rng.randrange(p)
            exponents[b] = [None if e is None else (e + k) % p for e in exponents[a]]
            assert decide(p, exponents) == (False, False)


def test_norm_bound_ends_the_search(monkeypatch):
    """A 7 x 7 matrix at p = 7 with no zero entry and two equal rows: H^2 =
    7^7, so the primes must multiply past H^(p-1) = 7^21, about 2^58.9.
    Four primes above 2^14 reach about 2^56, five 2^70."""
    drawn = []
    original = cyclo._split_primes

    def counted(p):
        for q, zeta in original(p):
            drawn.append(q)
            yield q, zeta

    monkeypatch.setattr(cyclo, "_split_primes", counted)
    rows = [{c: (r * c) % 7 for c in range(7)} for r in range(6)]
    assert not is_nonsingular(7, rows + [dict(rows[2])])
    assert len(drawn) == 5 and all(q % 7 == 1 and q > 2**14 for q in drawn)
    drawn.clear()
    assert is_nonsingular(7, rows + [{c: (c * c) % 7 for c in range(7)}])
    assert len(drawn) == 1


def test_coordinate_matrix_at_p3_matches_brute_force():
    """The 9 x 9 matrix whose column (i, j) holds the entries of A_{i,j}."""
    p = 3
    lines = [a_matrix(i, j, p) for i in range(p) for j in range(p)]
    exponents = [
        [a.powers[r] if a.columns[r] == c else None for a in lines]
        for r in range(p)
        for c in range(p)
    ]
    assert decide(p, exponents) == (True, True)


def test_zero_row_determinant():
    assert not is_nonsingular(3, [{}, {1: 0}])


# -- verifiers -------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_extraspecial_relations(p):
    checks = verify_extraspecial(p)
    assert passed(checks)
    commutator = [c for c in checks if c.name == "commutator-central"][0]
    assert "w^" in commutator.detail


def test_extraspecial_commutator_nontrivial():
    sigma, tau = gen_matrices(3)
    eye = CycMatrix.identity(3, 3)
    comm = tau * sigma * tau.inverse_monomial() * sigma.inverse_monomial()
    assert comm != eye
    assert comm.scalar_exponent() == 2  # w^{-1} I at p = 3


def test_weight_basis_l1():
    for p in (3, 5):
        assert verify_weight_basis(p, 1) == p * p


def test_weight_basis_l2():
    assert verify_weight_basis(3, 2) == 81
    assert verify_weight_basis(5, 2) == 625


def test_weight_basis_guard():
    with pytest.raises(SizeGuard):
        verify_weight_basis(5, 3)


def test_weight_basis_l3_within_the_guard():
    assert verify_weight_basis(3, 3) == 729


def test_weight_basis_guard_detail_states_the_cost():
    with pytest.raises(SizeGuard) as l3:
        verify_weight_basis(5, 3)
    assert str(l3.value) == (
        "15625 index tuples of size-125 matrices would take about 13.7 s; "
        "the guard allows 12 s"
    )
    with pytest.raises(SizeGuard) as l1:
        verify_weight_basis(109, 1)
    assert str(l1.value) == (
        "11881 index tuples of size-109 matrices and a 11881x11881 coordinate "
        "determinant would take about 12.8 s; the guard allows 12 s"
    )


def test_extraspecial_guard_refuses_before_building(monkeypatch):
    """Each check's guard decides before it builds a generator: a stand-in
    for gen_matrices that fails marks every check the guard admitted."""

    def admitted(p):
        raise VerificationFailure("admitted")

    monkeypatch.setattr(cyclo, "gen_matrices", admitted)
    status = {c.name: c.status for c in verify_extraspecial(100003)}
    assert set(status.values()) == {"fail"}
    status = {c.name: c.status for c in verify_extraspecial(1000003)}
    assert status == {
        "sigma-order": "skipped",
        "tau-order": "skipped",
        "commutator-central": "fail",
        "omega-commutes": "fail",
    }
    detail = {c.name: c.detail for c in verify_extraspecial(2147483647)}
    assert detail == {
        "sigma-order": "66 monomial matrices of size 2147483647 would take about "
        "5.67e+04 s; the guard allows 12 s",
        "tau-order": "66 monomial matrices of size 2147483647 would take about "
        "5.67e+04 s; the guard allows 12 s",
        "commutator-central": "15 monomial matrices of size 2147483647 would take "
        "about 1.29e+04 s; the guard allows 12 s",
        "omega-commutes": "8 monomial matrices of size 2147483647 would take about "
        "6.87e+03 s; the guard allows 12 s",
    }


# -- negative controls -------------------------------------------------------------


def test_rep_suite_fails_on_broken_weight(monkeypatch, capsys):
    original = cyclo.a_matrix

    def broken(i, j, p):
        m = original(i, j, p)
        if (i, j) != (1, 2):
            return m
        return CycMatrix(p, m.columns, [m.powers[0] + 1, *m.powers[1:]])

    monkeypatch.setattr(cyclo, "a_matrix", broken)
    code = cli.main(["--suite", "rep", "--p", "3", "--l", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    line = [s for s in out.splitlines() if "rep/weight-basis-l2" in s][0]
    assert "FAIL" in line
    assert "index (0, 0, 1, 2): generator 3 does not scale by w^2" in line


def test_rep_suite_fails_on_broken_tau(monkeypatch):
    original = cyclo.gen_matrices

    def broken(p):
        sigma, tau = original(p)
        return sigma, CycMatrix(p, tau.columns, [tau.powers[0] + 1, *tau.powers[1:]])

    monkeypatch.setattr(cyclo, "gen_matrices", broken)
    checks = verify_extraspecial(3)
    status = {c.name: c.status for c in checks}
    assert status["tau-order"] == "fail"
    assert status["sigma-order"] == "pass"


def test_rep_suite_fails_on_coinciding_weight_lines(monkeypatch, capsys):
    """A_{1,2} replaced by A_{1,1}: two columns of one component of the
    coordinate matrix coincide, so its determinant is 0."""
    original = cyclo.a_matrix

    def broken(i, j, p):
        return original(i, 1 if (i, j) == (1, 2) else j, p)

    monkeypatch.setattr(cyclo, "a_matrix", broken)
    code = cli.main(["--suite", "rep", "--p", "5", "--l", "1"])
    out = capsys.readouterr().out
    assert code == 1
    line = [s for s in out.splitlines() if "rep/weight-basis-l1" in s][0]
    assert "FAIL" in line
    assert "coordinate determinant of the A_{i,j} is zero" in line


def test_rep_suite_passes_at_p23(capsys):
    assert cli.main(["--suite", "rep", "--p", "23", "--l", "1"]) == 0
    line = [s for s in capsys.readouterr().out.splitlines() if "weight-basis-l1" in s][0]
    assert "PASS" in line and "529 weight lines verified" in line
