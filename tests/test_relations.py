import hashlib
import subprocess
import sys
from itertools import combinations

import pytest

from conjchern import chern, cli, relations
from conjchern.chern import (
    GradedChern,
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
    kappa_sums,
    partitions22,
    r_j_poly,
    r_monomial,
    slash,
    verify_chern_r_relations,
    verify_quadratic,
    verify_r_delta,
    y_ring,
)
from conjchern.steenrod import CohAlgebra
from helpers import even_gen, passed, poly_of, weighted_degrees

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
        assert kappa_sums(iset) == {"kappa-u": 0, "kappa-v": 0, "kappa-w": 0}


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
    assert base.compose(images) == base * 4


# -- the substitution identities ---------------------------------------------------


def test_r_delta_identity_p3():
    checks = verify_r_delta(3)
    assert passed(checks)
    assert {c.name for c in checks} >= {f"moore-minor-j{j}" for j in range(5)}


def test_chern_relations_p3():
    checks = verify_chern_r_relations(3)
    assert passed(checks)
    assert [c.name for c in checks] == [
        *(f"chern-relation-j{j}" for j in range(5)),
        *(f"display-j{j}" for j in (4, 3, 2, 1, 0)),
    ]


def r4_compositions(monkeypatch, p):
    """The checks of verify_chern_r_relations(p), and how many times it
    composed R_4 at the r_i."""
    calls = [0]
    original = relations._at_r_classes

    def counted(j, p_):
        calls[0] += j == 4
        return original(j, p_)

    monkeypatch.setattr(relations, "_at_r_classes", counted)
    return verify_chern_r_relations(p), calls[0]


def test_chern_relations_compose_r4_once_per_call(monkeypatch):
    """The five left routes share one R_4(r), composed by the first of them;
    the right route of chern-relation-j4 composes its own.  Each call
    composes anew."""
    for _ in range(2):
        checks, composed = r4_compositions(monkeypatch, 3)
        assert passed(checks)
        assert composed == 2


def test_refused_product_skips_before_composing_r4(monkeypatch):
    checks, composed = r4_compositions(monkeypatch, 7)
    assert [c.status for c in checks[:5]] == ["skipped"] * 5
    assert composed == 0


def test_p7_runs_r_delta_and_guards_the_chern_product():
    """Only the chern-relation checks need the 7^4 product; the literal
    displays are compared with the partition sums in the Y_i."""
    assert passed(verify_r_delta(7))
    checks = {c.name: c for c in verify_chern_r_relations(7)}
    assert len(checks) == 10
    for j in range(5):
        check = checks.pop(f"chern-relation-j{j}")
        assert check.status == "skipped"
        assert "7^4 linear forms" in check.detail
    assert {c.status for c in checks.values()} == {"pass"}


# -- a guarded Chern product ------------------------------------------------------


def product_dependent_reports():
    ctx = CohAlgebra(3, 2)
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
    runs |= {f"display-j{j}" for j in range(5)}
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
    expected |= {f"display-j{j}" for j in range(5)}
    # quadratic scaling and the gamma_0 tautology still pass
    assert set(failed) == expected
    for detail in failed.values():
        assert "first differing terms: " in detail


def test_wrong_degree_term_in_r2_fails_substitution_grading(monkeypatch, capsys):
    """r_closed gains the term xi_1 at i = 2, of half-degree 1, not p^2 + 1."""
    original = relations.r_closed

    def planted(p, i, l):
        r = original(p, i, l)
        return r + even_gen(r.algebra, 1) if i == 2 else r

    monkeypatch.setattr(relations, "r_closed", planted)
    code = cli.main(["--suite", "relations", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    assert failed_lines(out)["relations/substitution-grading"].endswith(
        "r_2 is not homogeneous of degree p^2+1"
    )


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


def test_constant_term_fails_quadratic_scaling_at_zero(monkeypatch, capsys):
    """r_j_poly gains the constant 1.  At p = 3 the primitive root 2 scales
    it as 2^0 = 1 = 2^2, so only the scalar a = 0 finds it."""
    original = relations.r_j_poly
    monkeypatch.setattr(relations, "r_j_poly", lambda j, p: original(j, p) + 1)
    code = cli.main(["--suite", "relations", "--p", "3"])
    failed = failed_lines(capsys.readouterr().out)
    assert code == 1
    for j in range(5):
        assert failed[f"relations/quadratic-scaling-j{j}"].endswith(
            "a = 0 violates quadratic scaling"
        )


def test_wrong_display_exponent_fails_at_p7(monkeypatch, capsys):
    """The first term of the j = 1 display raised to r_1^(p^3 + 1), not r_1^(p^3)."""
    original = relations.displays

    def planted(p):
        table = original(p)
        table[1] = lambda r1, r2, r3, r4: (
            r1 ** (p**3 + 1) * r2 - r2 ** (p**2) * r3 + r1 ** (p**2) * r4
        )
        return table

    monkeypatch.setattr(relations, "displays", planted)
    code = cli.main(["--suite", "relations", "--p", "7"])
    failed = failed_lines(capsys.readouterr().out)
    assert code == 1
    assert set(failed) == {"relations/display-j1"}
    assert "first differing terms: Y1^344*Y2: 1 != 0; Y1^343*Y2: 0 != 1" in failed[
        "relations/display-j1"
    ]


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


def test_relations_at_the_largest_admitted_prime_skip_only_the_product():
    """Quadratic scaling substitutes two scalars and the displays stay in the
    Y_i, so only the checks that need the p^4-factor product are SKIPPED."""
    checks = verify_quadratic(BIG_P) + verify_chern_r_relations(BIG_P)
    skipped = {c.name for c in checks if c.status == "skipped"}
    assert skipped == {f"chern-relation-j{j}" for j in range(5)}
    assert {c.status for c in checks if c.name not in skipped} == {"pass"}
    assert {c.detail for c in checks[:5]} == {f"all {BIG_P} scalars"}


# -- after a warm product memo ----------------------------------------------------


def relations_after_chern(monkeypatch, capsys, name, planted):
    """Run the chern suite, which fills chern.part_times with the products
    gamma_d * Delta_{4,4}; then plant `planted` as relations.<name> and run
    the relations suite.  Returns its exit code, its FAILed checks with
    their details, and the memo's (hits, misses) of that run."""
    assert cli.main(["--suite", "chern", "--p", "3", "--l", "2"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(relations, name, planted(getattr(relations, name)))
    before = chern.part_times.cache_info()
    code = cli.main(["--suite", "relations", "--p", "3"])
    after = chern.part_times.cache_info()
    out = capsys.readouterr().out
    failed = {n.removeprefix("relations/"): d for n, d in failed_lines(out).items()}
    return code, failed, (after.hits - before.hits, after.misses - before.misses)


def test_a_changed_r4_after_a_warm_memo_is_still_seen(monkeypatch, capsys):
    """R_4(r) doubled: each product with it is a new key of the memo, so the
    relations with gamma_{p^4 - p^j}, j < 4, FAIL; a memo keyed by the
    degree alone would hand back the chern suite's products and pass them."""

    def doubled_r4(original):
        return lambda j, p: original(j, p) * 2 if j == 4 else original(j, p)

    code, failed, memo = relations_after_chern(monkeypatch, capsys, "_at_r_classes", doubled_r4)
    assert code == 1
    assert set(failed) == {"moore-minor-j4", *(f"chern-relation-j{j}" for j in range(4))}
    for detail in failed.values():
        assert "first differing terms: " in detail
    assert memo == (0, 5)


def test_a_changed_gamma_after_a_warm_memo_is_still_seen(monkeypatch, capsys):
    """gamma_{p^4 - p} with its sign flipped: only its product misses the
    memo, and only chern-relation-j1 FAILs."""

    def flipped_gamma(original):
        def flipped(alg):
            graded = original(alg)
            parts = dict(graded.parts)
            d = alg.p**alg.m - alg.p
            parts[d] = -parts[d]
            return GradedChern(graded.ring, parts)

        return flipped

    code, failed, memo = relations_after_chern(
        monkeypatch, capsys, "total_conj_chern", flipped_gamma
    )
    assert code == 1
    assert set(failed) == {"chern-relation-j1"}
    assert "first differing terms: " in failed["chern-relation-j1"]
    assert memo == (4, 1)


def test_standalone_relations_report_is_byte_identical():
    """Alone, the relations suite takes every product on the miss path."""
    argv = ["--suite", "relations", "--p", "3", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "conjchern", *argv], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "ad494fcbcf7388328846abe8cd6eaa66036456bed696cf41025736be04e4d9d6"
    )
