import random
from itertools import permutations, product

import pytest

from conjchern import cli, cyclo
from conjchern.cyclo import (
    CycInt,
    CycMatrix,
    a_matrix,
    conj_act,
    cyc_determinant,
    gen_matrices,
    verify_extraspecial,
    verify_weight_basis,
)
from conjchern.errors import NotMonomial, PrimeMismatch, SizeGuard
from helpers import dense_kron, dense_mul, dense_scale, random_monomial


def w(p, k=1):
    return CycInt.omega(p, k)


def random_cyc(rng, p, bound=3):
    return CycInt(p, [rng.randrange(-bound, bound + 1) for _ in range(p - 1)])


# -- ring of cyclotomic integers ----------------------------------------------


def test_omega_has_order_p():
    for p in (3, 5, 7):
        assert w(p) * w(p, p - 1) == 1
        acc = CycInt.from_int(p, 1)
        for k in range(1, p + 1):
            acc = acc * w(p)
            assert (acc == 1) == (k == p)


def test_cyclotomic_relation():
    for p in (3, 5):
        total = CycInt.zero(p)
        for k in range(p):
            total = total + w(p, k)
        assert total.is_zero()


def test_omega_power_addition():
    rng = random.Random(3)
    for p in (3, 5):
        for _ in range(50):
            a, b = rng.randrange(p), rng.randrange(p)
            assert w(p, a) * w(p, b) == w(p, (a + b) % p)


def test_ring_laws_random():
    rng = random.Random(5)
    for p in (3, 5):
        for _ in range(300):
            a, b, c = (random_cyc(rng, p) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_prime_mismatch():
    with pytest.raises(PrimeMismatch):
        w(3) + w(5)
    with pytest.raises(PrimeMismatch):
        w(3) * w(5)


# -- generator matrices --------------------------------------------------------


def test_sigma_matrix_frozen():
    sigma, _ = gen_matrices(3)
    assert [sigma.rows[i][i] for i in range(3)] == [w(3, 1), w(3, 2), w(3, 0)]
    off = [(i, j) for i in range(3) for j in range(3) if i != j]
    assert all(sigma.rows[i][j].is_zero() for i, j in off)


def test_tau_matrix_frozen():
    _, tau = gen_matrices(3)
    pattern = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    for i in range(3):
        for j in range(3):
            entry = tau.rows[i][j]
            assert entry == pattern[i][j]


def test_generator_orders():
    for p in (3, 5):
        sigma, tau = gen_matrices(p)
        eye = CycMatrix.identity(p, p)
        assert sigma**p == eye
        assert tau**p == eye


def test_a_matrix_frozen_values():
    for p in (3, 5):
        assert a_matrix(0, 0, p) == CycMatrix.identity(p, p)
    a01 = a_matrix(0, 1, 3)
    assert [a01.rows[i][i] for i in range(3)] == [w(3, 2), w(3, 1), w(3, 0)]
    a10 = a_matrix(1, 0, 3)
    pattern = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    for i in range(3):
        for j in range(3):
            assert a10.rows[i][j] == pattern[i][j]


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
    assert dense_mul(p, conj_act(g, m).rows, g.rows) == dense_mul(p, g.rows, m.rows)


@pytest.mark.parametrize("p", [3, 5])
def test_monomial_operations_match_dense_reference(p):
    rng = random.Random(31 + p)
    for size in range(1, 10):
        for _ in range(4):
            a = random_monomial(rng, p, size)
            b = random_monomial(rng, p, size)
            eye = CycMatrix.identity(p, size).rows
            assert (a * b).rows == dense_mul(p, a.rows, b.rows)
            assert dense_mul(p, a.rows, a.inverse_monomial().rows) == eye
            assert dense_mul(p, a.inverse_monomial().rows, a.rows) == eye
            k = rng.randrange(-p, 2 * p)
            assert a.mul_omega(k).rows == dense_scale(p, a.rows, k)
            assert dense_mul(p, conj_act(a, b).rows, a.rows) == dense_mul(
                p, a.rows, b.rows
            )
            if size <= 3:
                c = random_monomial(rng, p, rng.randrange(1, 4))
                assert a.kron(c).rows == dense_kron(a.rows, c.rows)


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


# -- determinants over Z[w] ------------------------------------------------------


def brute_force_det(p, rows):
    total = CycInt.zero(p)
    n = len(rows)
    for perm in permutations(range(n)):
        invs = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        prod = CycInt.from_int(p, 1)
        for r, c in enumerate(perm):
            prod = prod * rows[r][c]
        total = total + (prod if invs % 2 == 0 else -prod)
    return total


def test_component_determinant_matches_brute_force():
    rng = random.Random(77)
    for p in (3, 5):
        for n in (2, 3, 4):
            for _ in range(15):
                rows = [
                    [
                        random_cyc(rng, p, 1)
                        if rng.random() < 0.6
                        else CycInt.zero(p)
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                assert cyc_determinant(p, rows) == brute_force_det(p, rows)


def test_zero_row_determinant():
    p = 3
    z = CycInt.zero(p)
    assert cyc_determinant(p, [[z, z], [z, CycInt.from_int(p, 1)]]).is_zero()


# -- verifiers -------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_extraspecial_relations(p):
    report = verify_extraspecial(p)
    assert report.passed()
    commutator = [c for c in report.checks if c.name == "commutator-central"][0]
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
        verify_weight_basis(17, 1)
    assert str(l1.value) == (
        "289 index tuples of size-17 matrices and a 289x289 coordinate "
        "determinant would take about 547 s; the guard allows 12 s"
    )


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
    report = verify_extraspecial(3)
    status = {c.name: c.status for c in report.checks}
    assert status["tau-order"] == "fail"
    assert status["sigma-order"] == "pass"
