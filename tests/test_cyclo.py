import random
import time
from itertools import product

import pytest

from conjchern import cli, cyclo
from conjchern.cyclo import (
    CycMatrix,
    a_matrix,
    conj_act,
    gen_matrices,
    verify_extraspecial,
    verify_weight_basis,
)
from conjchern.errors import NotMonomial, PrimeMismatch, SizeGuard, VerificationFailure
from conjchern.report import REP_BUDGET
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


def test_a_matrix_refuses_two():
    with pytest.raises(ValueError, match="odd prime"):
        a_matrix(0, 0, 2)


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


# -- the span decision ------------------------------------------------------------


def true_basis(p):
    return {(i, j): a_matrix(i, j, p) for i in range(p) for j in range(p)}


def coordinate_det(p, base):
    """The brute-force determinant of the p^2 x p^2 coordinate matrix whose
    row (r, c) and column (i, j) hold the entry (r, c) of base[i, j]."""
    lines = [base[i, j] for i in range(p) for j in range(p)]
    rows = [
        [w(p, a.powers[r]) if a.columns[r] == c else 0 for a in lines]
        for r in range(p)
        for c in range(p)
    ]
    return brute_force_det(p, rows)


def vandermonde_plant(rng, p, repeat):
    """Lines whose coordinate matrix is block-Vandermonde: block i has the
    permutation r -> pi(r) + shift_i (a Latin square over i), row scalings
    w^(k_r) and steps s_r, pairwise distinct except, if repeat, in one
    block, where two rows share a step.  Returns the lines and that block."""
    pi = rng.sample(range(p), p)
    shifts = rng.sample(range(p), p)
    repeated = rng.randrange(p) if repeat else None
    base = {}
    for i in range(p):
        columns = [(pi[r] + shifts[i]) % p for r in range(p)]
        scalings = [rng.randrange(p) for _ in range(p)]
        steps = rng.sample(range(p), p)
        if i == repeated:
            a, b = rng.sample(range(p), 2)
            steps[b] = steps[a]
        for j in range(p):
            base[i, j] = CycMatrix(p, columns, [k + j * s for k, s in zip(scalings, steps)])
    return base, repeated


def repeated_node(original, block):
    """original with row 1 of every A_{block,j} planted as w times row 0, so
    rows 0 and 1 of that block share the node w^(block - 1) (w^(p-1) at
    block 0)."""

    def lines(i, j, p):
        a = original(i, j, p)
        if i != block:
            return a
        return CycMatrix(p, a.columns, [a.powers[0], a.powers[0] + 1, *a.powers[2:]])

    return lines


def test_coordinate_matrix_at_p3_matches_brute_force():
    """The 9 x 9 matrix whose column (i, j) holds the entries of A_{i,j}."""
    p = 3
    base = true_basis(p)
    assert cyclo._span_failure(p, base) is None
    assert coordinate_det(p, base)


def test_span_decision_is_sound_on_planted_matrices():
    """Seeded plants of the 9 x 9 coordinate matrix at p = 3 against the
    Leibniz determinant.  A PASS must mean a nonzero determinant, and a
    repeated node a zero one.  The decision reads a shape, so it may FAIL a
    nonsingular plant, and the random plants show that it does."""
    p = 3
    rng = random.Random(2024)
    for _ in range(30):
        base, repeated = vandermonde_plant(rng, p, repeat=rng.random() < 0.5)
        failure = cyclo._span_failure(p, base)
        if repeated is None:
            assert failure is None and coordinate_det(p, base)
        else:
            assert failure.startswith(f"block {repeated}: rows ")
            assert not coordinate_det(p, base)
    stricter = 0
    for _ in range(30):
        base = true_basis(p)
        for _ in range(rng.randrange(1, 3)):
            key = (rng.randrange(p), rng.randrange(p))
            base[key] = random_monomial(rng, p, p)
        failure = cyclo._span_failure(p, base)
        det = coordinate_det(p, base)
        assert failure is not None or det
        stricter += failure is not None and bool(det)
    assert stricter


def test_span_failure_names_each_shape():
    p = 5

    def planted(i, j, columns=None, row0=0):
        base = true_basis(p)
        a = base[i, j]
        powers = [a.powers[0] + row0, *a.powers[1:]]
        base[i, j] = CycMatrix(p, columns or a.columns, powers)
        return cyclo._span_failure(p, base)

    assert planted(2, 0, columns=a_matrix(3, 0, p).columns) == (
        "row 0: the lines A_{i,0} share a column, so no blocks"
    )
    assert planted(1, 3, columns=a_matrix(2, 0, p).columns) == (
        "A_{1,3} does not share the permutation of A_{1,0}"
    )
    assert planted(2, 3, row0=1) == "block 2: column 3 is not a Vandermonde power"
    base = {(i, j): repeated_node(a_matrix, 4)(i, j, p) for i in range(p) for j in range(p)}
    assert cyclo._span_failure(p, base) == (
        "block 4: rows 0 and 1 share the Vandermonde node w^3"
    )


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
        verify_weight_basis(199, 1)
    assert str(l1.value) == (
        "39601 index tuples of size-199 matrices and 199 Vandermonde blocks "
        "would take about 12.2 s; the guard allows 12 s"
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
        "15.7 h; the guard allows 12 s",
        "tau-order": "66 monomial matrices of size 2147483647 would take about "
        "15.7 h; the guard allows 12 s",
        "commutator-central": "15 monomial matrices of size 2147483647 would take "
        "about 3.58 h; the guard allows 12 s",
        "omega-commutes": "8 monomial matrices of size 2147483647 would take about "
        "1.91 h; the guard allows 12 s",
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
    """A_{1,2} replaced by A_{1,1}: two columns of block 1 of the coordinate
    matrix coincide, so its determinant is 0, and column 2 is no power of
    the block's nodes."""
    original = cyclo.a_matrix

    def broken(i, j, p):
        return original(i, 1 if (i, j) == (1, 2) else j, p)

    monkeypatch.setattr(cyclo, "a_matrix", broken)
    code = cli.main(["--suite", "rep", "--p", "5", "--l", "1"])
    out = capsys.readouterr().out
    assert code == 1
    line = [s for s in out.splitlines() if "rep/weight-basis-l1" in s][0]
    assert "FAIL" in line
    assert "block 1: column 2 is not a Vandermonde power" in line


def test_rep_suite_fails_on_a_non_vandermonde_entry(monkeypatch, capsys):
    original = cyclo.a_matrix

    def broken(i, j, p):
        m = original(i, j, p)
        if (i, j) != (2, 3):
            return m
        return CycMatrix(p, m.columns, [m.powers[0] + 1, *m.powers[1:]])

    monkeypatch.setattr(cyclo, "a_matrix", broken)
    assert cli.main(["--suite", "rep", "--p", "5", "--l", "1"]) == 1
    line = [s for s in capsys.readouterr().out.splitlines() if "weight-basis-l1" in s][0]
    assert "FAIL" in line and "block 2: column 3 is not a Vandermonde power" in line


def test_repeated_node_fails_fast_at_the_largest_admitted_prime(monkeypatch, capsys):
    """The node repeats in the last block, so the decision reads every
    block before it FAILs.  It stops before the index tuples, so it stays
    within the budget that admits the passing run: on a 2-core x86 box the
    failing run took 3.2 s and the passing one 11.7 s."""
    p = 197
    monkeypatch.setattr(cyclo, "a_matrix", repeated_node(cyclo.a_matrix, p - 1))
    start = time.perf_counter()
    code = cli.main(["--suite", "rep", "--p", str(p), "--l", "1"])
    elapsed = time.perf_counter() - start
    assert code == 1
    line = [s for s in capsys.readouterr().out.splitlines() if "weight-basis-l1" in s][0]
    assert "FAIL" in line
    assert f"block {p - 1}: rows 0 and 1 share the Vandermonde node w^{p - 2}" in line
    assert elapsed < REP_BUDGET


def test_rep_suite_passes_at_p23(capsys):
    assert cli.main(["--suite", "rep", "--p", "23", "--l", "1"]) == 0
    line = [s for s in capsys.readouterr().out.splitlines() if "weight-basis-l1" in s][0]
    assert "PASS" in line and "529 weight lines verified" in line
