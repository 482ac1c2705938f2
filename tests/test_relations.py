from itertools import combinations

import pytest

from conjchern import chern, cli, relations
from conjchern.chern import (
    ChernContext,
    verify_conj_chern,
    verify_top_chern,
    verify_vistoli,
)
from conjchern.errors import (
    IndexOutOfRange,
    SamePartition,
    SizeGuard,
    VerificationFailure,
)
from conjchern.relations import (
    Partition22,
    epsilon,
    index_set4,
    partitions22,
    r_j_poly,
    r_monomial,
    slash,
    verify_chern_r_relations,
    verify_partition_signs,
    verify_quadratic,
    verify_r_delta,
    y_ring,
)
from helpers import passed, poly_of, weighted_degrees

U, V, W = partitions22((0, 1, 2, 3))


def test_index_set_validation():
    assert index_set4((3, 1, 0, 2)) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        index_set4((0, 1, 2, 2))
    with pytest.raises(ValueError):
        index_set4((0, 1, 2))


def test_three_partitions_in_display_order():
    parts = partitions22((0, 1, 2, 4))
    assert len(parts) == 3
    assert parts[0] == Partition22.of((0, 1), (2, 4))
    assert parts[1] == Partition22.of((0, 2), (1, 4))
    assert parts[2] == Partition22.of((0, 4), (1, 2))
    for rho in parts:
        assert sorted(rho.first + rho.second) == [0, 1, 2, 4]


def test_epsilon_frozen_values():
    assert epsilon(U) == 1
    assert epsilon(V) == -1
    assert epsilon(W) == 1


def test_epsilon_on_shifted_sets():
    for iset in [(1, 2, 3, 4), (0, 2, 3, 6), (2, 3, 5, 6)]:
        u, v, w = partitions22(iset)
        assert (epsilon(u), epsilon(v), epsilon(w)) == (1, -1, 1)


def test_slash_frozen_values():
    assert slash(U, V) == 1
    assert slash(V, U) == 1
    assert slash(W, U) == 1
    assert slash(U, W) == -1
    assert slash(V, W) == -1
    assert slash(W, V) == -1


def test_epsilon_invariant_raises_library_error(monkeypatch):
    signs = iter([1, -1])
    monkeypatch.setattr(relations, "_perm_sign", lambda base, target: next(signs))
    with pytest.raises(VerificationFailure):
        epsilon(U)


def test_slash_same_partition():
    with pytest.raises(SamePartition):
        slash(U, U)


def test_sign_sum_vanishes_on_all_subsets():
    for iset in combinations(range(7), 4):
        parts = partitions22(iset)
        for kappa in parts:
            total = sum(
                epsilon(rho) * slash(rho, kappa) for rho in parts if rho != kappa
            )
            assert total == 0
        assert passed(verify_partition_signs(iset))


# -- the graded polynomials -----------------------------------------------------


def test_r_monomial_values():
    assert r_monomial(2, 3, 3) == poly_of(y_ring(3), "Y1^9")
    assert r_monomial(0, 2, 5) == poly_of(y_ring(5), "Y2")
    with pytest.raises(IndexOutOfRange):
        r_monomial(3, 3, 3)


def test_r_monomial_weights():
    for p in (3, 5):
        for i in range(4):
            for j in range(i + 1, 5):
                assert weighted_degrees(r_monomial(i, j, p), p) == {p**i + p**j}


def test_r4_formula():
    for p in (3, 5):
        ring = y_ring(p)
        expected = (
            poly_of(ring, f"Y1^{p * p + 1}")
            - poly_of(ring, f"Y2^{p + 1}")
            + poly_of(ring, f"Y1^{p}*Y3")
        )
        assert r_j_poly(4, p) == expected


def test_r_j_weighted_homogeneity():
    for p in (3, 5):
        total = sum(p**i for i in range(5))
        for j in range(5):
            assert weighted_degrees(r_j_poly(j, p), p) == {total - p**j}
    with pytest.raises(IndexOutOfRange):
        r_j_poly(5, 3)


@pytest.mark.parametrize("p", [3, 5])
def test_quadratic_scaling(p):
    assert passed(verify_quadratic(p))


def test_quadratic_scaling_specific_value():
    # scale by a = 2 at p = 3, j = 4 by hand
    ring = y_ring(3)
    base = r_j_poly(4, 3)
    images = [ring.monomial({t: 1}, 2) for t in range(4)]
    assert base.compose(images, ring) == base * 4


# -- the substitution identities ---------------------------------------------------


def test_r_delta_identity_p3():
    checks = verify_r_delta(3)
    assert passed(checks)
    assert {c.name for c in checks} >= {f"moore-minor-j{j}" for j in range(5)}


def test_chern_relations_p3():
    checks = verify_chern_r_relations(3)
    assert passed(checks)
    names = [c.name for c in checks]
    assert "chern-relation-j4" in names
    tautology = [c for c in checks if c.name == "chern-relation-j4"][0]
    assert "tautology" in tautology.detail
    for j in range(4):
        assert f"display-j{j}" in names


def test_p7_runs_r_delta_and_guards_the_chern_product():
    assert passed(verify_r_delta(7))
    checks = verify_chern_r_relations(7)
    assert len(checks) == 9
    for check in checks:
        assert check.status == "skipped"
        assert "7^4 linear forms" in check.detail


# -- a guarded Chern product ------------------------------------------------------


def product_dependent_reports():
    ctx = ChernContext(3, 2)
    return {
        "conj": verify_conj_chern(ctx),
        "top": verify_top_chern(ctx),
        "vistoli": verify_vistoli(3),
        "relations": verify_chern_r_relations(3),
    }


def test_guarded_product_skips_only_the_checks_that_need_it(monkeypatch, capsys):
    names = {
        key: [c.name for c in checks]
        for key, checks in product_dependent_reports().items()
    }

    def guarded(ctx):
        raise SizeGuard("planted guard")

    monkeypatch.setattr(chern, "total_conj_chern", guarded)
    monkeypatch.setattr(relations, "total_conj_chern", guarded)
    reports = product_dependent_reports()
    assert {key: [c.name for c in r] for key, r in reports.items()} == names
    runs = {"argument-order-invariance", "minor-frobenius-power"}
    for checks in reports.values():
        for check in checks:
            if check.name in runs:
                assert check.status == "pass"
            else:
                assert (check.status, check.detail) == ("skipped", "planted guard")
    chern_argv = ["--suite", "chern", "--p", "3", "--l", "2"]
    for argv in (chern_argv, ["--suite", "relations", "--p", "3"]):
        assert cli.main(argv) == 0
        assert cli.main(argv + ["--strict"]) == 1
    out = capsys.readouterr().out
    assert "graded-product" not in out
    assert "verify_chern_r_relations" not in out


# -- negative control ----------------------------------------------------------------


def failed_lines(out):
    """For each FAILed check of a text report, by name, the rest of its line
    after the status: the elapsed time and the detail."""
    rows = (line.split(maxsplit=2) for line in out.splitlines() if line.startswith("  "))
    return {row[0]: row[2] for row in rows if row[1] == "FAIL"}


def test_dropped_partition_term_fails_the_substitution_checks(monkeypatch, capsys):
    """r_j_poly loses the term of the first (2,2)-partition u."""
    original = relations.r_j_poly

    def dropped(j, p):
        u = partitions22([t for t in range(5) if t != j])[0]
        term = relations.r_block(u.first, p) * relations.r_block(u.second, p)
        return original(j, p) - term * epsilon(u)

    monkeypatch.setattr(relations, "r_j_poly", dropped)
    code = cli.main(["--suite", "relations", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    failed = {n.removeprefix("relations/"): d for n, d in failed_lines(out).items()}
    expected = {f"moore-minor-j{j}" for j in range(5)}
    expected |= {f"chern-relation-j{j}" for j in range(4)}
    # quadratic scaling, the gamma_0 tautology and the literal displays still pass
    assert set(failed) == expected
    for detail in failed.values():
        assert "first differing terms: " in detail


def test_inhomogeneous_r_j_fails_quadratic_scaling(monkeypatch, capsys):
    """r_j_poly gains the linear term Y_1, so scaling by a no longer scales R_j
    by a^2: at p = 3 the scalar a = 2 gives 2*Y_1 on one side, Y_1 on the other."""
    original = relations.r_j_poly

    def inhomogeneous(j, p):
        return original(j, p) + y_ring(p).variable(0)

    monkeypatch.setattr(relations, "r_j_poly", inhomogeneous)
    code = cli.main(["--suite", "relations", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 1
    failed = failed_lines(out)
    for j in range(5):
        assert "a = 2 violates quadratic scaling" in failed[f"relations/quadratic-scaling-j{j}"]


def test_flipped_slash_fails_the_signs_suite(monkeypatch, capsys):
    """slash(u, v) on {0, 1, 2, 3} returns -1 instead of +1, so the kappa = v
    sum there becomes epsilon(u) * -1 + epsilon(w) * -1 = -2."""
    original = relations.slash

    def flipped(rho, kappa):
        value = original(rho, kappa)
        return -value if (rho, kappa) == (U, V) else value

    monkeypatch.setattr(relations, "slash", flipped)
    code = cli.main(["--suite", "signs"])
    out = capsys.readouterr().out
    assert code == 1
    failed = failed_lines(out)
    assert set(failed) == {"signs/I=0,1,2,3", "signs/canonical-values"}
    assert failed["signs/I=0,1,2,3"].endswith("kappa-v: sum = -2")
    assert failed["signs/canonical-values"].endswith("w/v: (-1, 1, 1, -1, -1, -1)")



# -- the largest admitted prime ------------------------------------------------------

BIG_P = 2147483647


def test_r_delta_passes_at_the_largest_admitted_prime():
    """Exponents near 2p^4, about 2^125, in the substituted Moore minors."""
    checks = verify_r_delta(BIG_P)
    assert [c.status for c in checks] == ["pass"] * 6


def test_quadratic_guard_refuses_before_substituting(monkeypatch):
    def never(j, p):
        raise AssertionError("r_j_poly ran past the guard")

    monkeypatch.setattr(relations, "r_j_poly", never)
    checks = verify_quadratic(BIG_P)
    assert {c.status for c in checks} == {"skipped"}
    assert {c.detail for c in checks} == {
        "the 2147483647 scalars would take about 26.8 h; the guard allows 6.67 s"
    }
    # every prime the tests and the benchmark run stays admitted
    monkeypatch.undo()
    assert passed(verify_quadratic(101))
