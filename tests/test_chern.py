import hashlib
import subprocess
import sys
from functools import partial
from itertools import product

import pytest

from conjchern import chern, cli, dickson
from conjchern.chern import (
    GradedChern,
    delta_on_classes,
    total_conj_chern,
    verify_conj_chern,
    verify_top_chern,
    verify_vistoli,
)
from conjchern.errors import SizeGuard
from conjchern.poly import PolyRing
from conjchern.dickson import DicksonContext, f_n_coefficients
from conjchern.steenrod import CohAlgebra, even_to_poly
from helpers import (
    balanced_linear_form_product,
    coh_power,
    even_gen,
    linear_form,
    naive_product,
    passed,
    poly_of,
)
from test_cli import GOLDEN_REPORTS

C31 = CohAlgebra(3, 1)


def tx(text, ctx=C31):
    return poly_of(ctx.ring, text)


def all_factors(ctx):
    """The nonzero linear factors 1 + L_v, for the naive product oracle."""
    out = []
    for t in product(range(ctx.p), repeat=ctx.m):
        if any(t):
            out.append(ctx.ring.one() + linear_form(t, ctx.ring))
    return out


# -- the graded product ---------------------------------------------------------


def test_graded_product_matches_naive_oracle():
    for p in (3, 5):
        ctx = CohAlgebra(p, 1)
        graded = total_conj_chern(ctx)
        total = sum(graded.parts.values(), ctx.ring.zero())
        assert total == naive_product(all_factors(ctx))


def test_rank_one_parts_frozen():
    graded = total_conj_chern(C31)
    assert graded.part(0) == C31.ring.one()
    # degree 6 = 9 - 3 carries -C_{2,1}(eta, xi) = -Delta_{2,1} / Delta_{2,2}
    assert delta_on_classes(C31, 2) * graded.part(6) == -delta_on_classes(C31, 1)
    assert graded.part(7).is_zero()
    total = sum(graded.parts.values(), C31.ring.zero())
    assert all(sum(m) != 7 for m in total.terms)
    # degree 8 = 9 - 1 is the square of the rank-one class
    assert graded.part(8) == tx("xi1^3*eta1 - xi1*eta1^3") ** 2


def test_nonzero_degrees_follow_p_power_pattern():
    for p, l in [(3, 1), (5, 1), (3, 2)]:
        ctx = CohAlgebra(p, l)
        top = p ** (2 * l)
        graded = total_conj_chern(ctx)
        expected = {top - p**k for k in range(2 * l + 1)}
        assert set(graded.parts) == expected
        assert max(graded.parts) == top - 1


def test_parts_are_homogeneous():
    graded = total_conj_chern(CohAlgebra(3, 2))
    for d, part in graded.parts.items():
        assert len(part.degrees()) <= 1
        if not part.is_zero():
            assert part.degree() == d


def test_pair_block_relabeling_symmetry():
    ctx = CohAlgebra(3, 2)
    ring = ctx.ring
    graded = total_conj_chern(ctx)
    swap = [
        ring.variable("xi2"),
        ring.variable("eta2"),
        ring.variable("xi1"),
        ring.variable("eta1"),
    ]
    for d in sorted(graded.parts):
        part = graded.part(d)
        assert part.compose(swap) == part


def test_two_routes_product_vs_dickson_assembly():
    # the full product equals sum_k (-1)^k C_{4,k}(eta1, xi1, eta2, xi2), where
    # C_{4,k} = Delta_{4,k} / Delta_{4,4}
    ctx = CohAlgebra(3, 2)
    total = sum(total_conj_chern(ctx).parts.values(), ctx.ring.zero())
    assembled = ctx.ring.zero()
    for k in range(5):
        term = delta_on_classes(ctx, k)
        if k % 2:
            term = -term
        assembled = assembled + term
    assert delta_on_classes(ctx, 4) * total == assembled


def test_rank_two_product_matches_balanced_oracle():
    ctx = CohAlgebra(3, 2)
    graded = total_conj_chern(ctx)
    tring = PolyRing(3, ctx.ring.variables + ("T",))
    oracle = balanced_linear_form_product(tring)
    terms = {
        m + (3**4 - d,): c
        for d, part in graded.parts.items()
        for m, c in part.terms.items()
    }
    assert terms == oracle.terms


def test_size_guard():
    with pytest.raises(SizeGuard):
        total_conj_chern(CohAlgebra(7, 2))


def test_graded_parts_share_the_terms_of_the_cached_coefficients():
    alg = CohAlgebra(3, 2)
    graded = total_conj_chern(alg)
    coeffs = f_n_coefficients(DicksonContext(3, 4))
    assert graded.ring is alg.ring
    assert set(graded.parts) == {81 - e for e in coeffs}
    for e, c in coeffs.items():
        assert graded.parts[81 - e].ring is alg.ring
        assert graded.parts[81 - e]._terms is c._terms


def test_one_chern_run_splits_f_4_once(split_rings, capsys):
    assert cli.main(["--suite", "chern", "--p", "3", "--l", "2"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert split_rings == [DicksonContext(3, 4).ring]


@pytest.mark.parametrize(
    "entry",
    [verify_conj_chern, verify_top_chern, total_conj_chern, partial(delta_on_classes, i=0)],
)
def test_l_above_three_is_refused_before_any_check(entry, monkeypatch):
    """CohAlgebra(3, 4) is the Steenrod algebra of rank 8; the Chern classes
    stop at rank 6, and the refusal names l, not the rank."""
    alg = CohAlgebra(3, 4)

    def no_check(name, *routes):
        raise AssertionError(f"check {name} ran")

    monkeypatch.setattr(chern, "two_routes", no_check)
    monkeypatch.setattr(chern, "timed_check", no_check)
    with pytest.raises(ValueError, match=r"^l must be in 1\.\.3 for the Chern classes, got 4$"):
        entry(alg)


# -- verifiers --------------------------------------------------------------------


@pytest.mark.parametrize("p,l", [(3, 1), (5, 1), (3, 2)])
def test_verify_conj_chern(p, l):
    checks = verify_conj_chern(CohAlgebra(p, l))
    assert passed(checks)
    names = {c.name for c in checks}
    assert "vanishing-elsewhere" in names
    assert "argument-order-invariance" in names


@pytest.mark.parametrize("p,l", [(3, 1), (5, 1), (3, 2)])
def test_verify_top_chern(p, l):
    assert passed(verify_top_chern(CohAlgebra(p, l)))


@pytest.mark.parametrize("p", [3, 5])
def test_verify_vistoli(p):
    checks = verify_vistoli(p)
    assert passed(checks)
    assert [c.name for c in checks] == [
        "gamma-mid-closed-form",
        "gamma-top-closed-form",
        "r2-relation",
        "r1-power-relation",
    ]


def test_graded_chern_part_outside_range():
    graded = total_conj_chern(C31)
    assert graded.part(100).is_zero()
    assert isinstance(graded, GradedChern)


def test_rank_two_product_size_and_degrees():
    graded = total_conj_chern(CohAlgebra(3, 2))
    assert sum(len(part.terms) for part in graded.parts.values()) == 1316
    assert sorted(graded.parts) == [0, 54, 72, 78, 80]


def test_size_guard_detail_states_the_cost():
    with pytest.raises(SizeGuard) as guard:
        total_conj_chern(CohAlgebra(7, 2))
    assert str(guard.value) == (
        "the product of the 7^4 linear forms (1.41e+08 monomial pairs) would "
        "take about 94.2 s; the guard allows 6.67 s"
    )


# -- negative control ----------------------------------------------------------------


@pytest.fixture
def flipped_gamma(monkeypatch):
    """The total class with the sign of its degree top - p part flipped."""
    original = chern.total_conj_chern

    def broken(ctx):
        graded = original(ctx)
        parts = dict(graded.parts)
        d = ctx.p**ctx.m - ctx.p
        parts[d] = -parts[d]
        return GradedChern(graded.ring, parts)

    monkeypatch.setattr(chern, "total_conj_chern", broken)


def test_verify_conj_chern_fails_on_flipped_part(flipped_gamma):
    checks = verify_conj_chern(C31)
    status = {c.name: c for c in checks}
    assert not passed(checks)
    assert status["gamma-degree-6"].status == "fail"
    assert status["gamma-degree-6"].detail.startswith("first differing terms: ")
    assert status["gamma-degree-8"].status == "pass"


def test_cli_exits_one_on_flipped_part(flipped_gamma, capsys):
    code = cli.main(["--suite", "chern", "--p", "3", "--l", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    assert "chern/gamma-degree-6" in out


def failed_lines(out):
    return [line for line in out.splitlines() if "FAIL" in line and "/" in line]


def test_doubled_top_part_fails_top_gamma_power(monkeypatch, capsys):
    """The top graded part scaled by 2: it is no longer Delta_{2,2}^(p-1)."""
    original = chern.total_conj_chern

    def doubled(ctx):
        graded = original(ctx)
        parts = dict(graded.parts)
        d = ctx.p**ctx.m - 1
        parts[d] = parts[d] * 2
        return GradedChern(graded.ring, parts)

    monkeypatch.setattr(chern, "total_conj_chern", doubled)
    code = cli.main(["--suite", "chern", "--p", "3", "--l", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = [s for s in failed_lines(out) if "chern/top-gamma-power" in s]
    assert line.endswith(
        "first differing terms: xi1^6*eta1^2: 2 != 1; xi1^4*eta1^4: 2 != 1; xi1^2*eta1^6: 2 != 1"
    )


def swapped_order(monkeypatch, last_image):
    """Plant last_image(images) as the last image of the swapped order only."""
    original = chern._dickson_images

    def planted(ctx, swap_last_pair=False):
        images = original(ctx, swap_last_pair)
        if swap_last_pair:
            images[-1] = last_image(images)
        return images

    monkeypatch.setattr(chern, "_dickson_images", planted)


def test_collapsed_swapped_order_fails_argument_order_invariance(monkeypatch, capsys):
    # any invertible substitution passes, since C_{n,i} is GL-invariant; a
    # collapsed one sends the denominator Delta_{2,2} to zero
    swapped_order(monkeypatch, lambda images: images[-2])
    code = cli.main(["--suite", "chern", "--p", "3", "--l", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = failed_lines(out)
    assert "chern/argument-order-invariance" in line
    assert line.endswith("the Moore minor Delta_{2,2} of the swapped class variables is zero")


def test_squared_swapped_image_fails_argument_order_invariance(monkeypatch, capsys):
    # eta_1 -> eta_1^2 in the swapped order keeps Delta_{2,2} nonzero but
    # moves C_{2,0} = Delta_{2,2}^(p-1)
    swapped_order(monkeypatch, lambda images: images[-1] ** 2)
    code = cli.main(["--suite", "chern", "--p", "3", "--l", "1"])
    out = capsys.readouterr().out
    assert code == 1
    (line,) = failed_lines(out)
    assert "chern/argument-order-invariance" in line
    assert "argument orders disagree for C_{2,0}; first differing terms: " in line


def test_a_zero_class_minor_fails_the_cross_multiplied_checks(monkeypatch, capsys):
    """Delta_{2,2} in the class variables planted as zero: every check that
    cross-multiplies by it fails on its denominator, not on 0 == 0."""
    original = chern.delta_ni

    def planted(dctx, i):
        return dctx.ring.zero() if i == dctx.n else original(dctx, i)

    monkeypatch.setattr(chern, "delta_ni", planted)
    checks = {c.name: c for c in verify_conj_chern(C31)}
    names = ("gamma-degree-8", "gamma-degree-6", "gamma-degree-0", "argument-order-invariance")
    for name in names:
        assert (checks[name].status, checks[name].detail) == (
            "fail",
            "the Moore minor Delta_{2,2} of the class variables is zero",
        )
    code = cli.main(["--suite", "chern", "--p", "3", "--l", "1"])
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_flipped_r1_fails_the_r2_relation(monkeypatch, capsys):
    original = chern.r_closed

    def flipped(p, i, l):
        return -original(p, i, l) if i == 1 else original(p, i, l)

    monkeypatch.setattr(chern, "r_closed", flipped)
    code = cli.main(["--suite", "vistoli", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = failed_lines(out)
    assert "vistoli/r2-relation" in line
    assert "first differing terms: " in line
    # gamma_top = r_1^{p-1} is even in r_1, and r_1^p = gamma_top r_1 is odd
    # on both sides
    for name in ("gamma-mid-closed-form", "gamma-top-closed-form", "r1-power-relation"):
        assert [s for s in out.splitlines() if f"vistoli/{name}" in s and "PASS" in s]


def test_gamma_top_failure_diffs_the_pair_that_disagrees(monkeypatch, capsys):
    # gamma_top = r_1^{p-1} holds by construction, so only the second equality,
    # r_1^{p-1} = (xi^p eta - xi eta^p)^{p-1}, fails
    original_r, original_chern = chern.r_closed, chern.total_conj_chern

    def planted(p, i, l):
        r = original_r(p, i, l)
        return r + coh_power(even_gen(r.algebra, 1), p + 1) if i == 1 else r

    def top_from_planted(ctx):
        graded = original_chern(ctx)
        r1 = even_to_poly(planted(ctx.p, 1, 1))
        parts = dict(graded.parts)
        parts[ctx.p**2 - 1] = r1 ** (ctx.p - 1)
        return GradedChern(graded.ring, parts)

    monkeypatch.setattr(chern, "r_closed", planted)
    monkeypatch.setattr(chern, "total_conj_chern", top_from_planted)
    code = cli.main(["--suite", "vistoli", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = [s for s in failed_lines(out) if "vistoli/gamma-top-closed-form" in s]
    assert "first differing terms: " in line


def test_dropped_multiset_scalar_fails_the_gamma_degrees(monkeypatch, capsys):
    # the last step of the rank-two product at p = 3 has the five shift
    # exponents 27, 9, 3, 1, 0; every scalar the helper returns is nonzero
    original = dickson._shift_scalars
    dropped = []

    def one_fewer(p, exponents):
        scalars = original(p, exponents)
        if len(exponents) == 5:
            dropped.append(max(scalars))
            del scalars[dropped[-1]]
        return scalars

    dickson.f_n_coefficients.cache_clear()
    monkeypatch.setattr(dickson, "_shift_scalars", one_fewer)
    try:
        code = cli.main(["--suite", "chern", "--p", "3", "--l", "2"])
    finally:
        dickson.f_n_coefficients.cache_clear()
    out = capsys.readouterr().out
    assert dropped == [(2, 0, 0, 0, 1)]
    assert code == 1
    assert "overall: fail" in out.lower()
    gamma = [line for line in failed_lines(out) if "chern/gamma-degree-" in line]
    assert gamma
    assert all("first differing terms: " in line for line in gamma)
    for name in ("argument-order-invariance", "minor-frobenius-power"):
        assert [s for s in out.splitlines() if f"chern/{name}" in s and "PASS" in s]


# -- the shared product memo -------------------------------------------------------


def test_one_all_run_takes_each_gamma_product_once(capsys):
    """The chern suite computes the five products gamma_d * Delta_{4,4}; the
    relations suite, whose own R_4(r) equals Delta_{4,4}, reads all five
    back, and the report keeps its golden bytes."""
    argv, digest = GOLDEN_REPORTS["all-p3-l2"]
    chern.part_times.cache_clear()
    code = cli.main([*argv, "--format", "json"])
    out = capsys.readouterr().out
    info = chern.part_times.cache_info()
    assert code == 0
    assert (info.misses, info.hits) == (5, 5)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_standalone_chern_report_is_byte_identical():
    """Alone, the chern suite takes every product on the miss path."""
    argv = ["--suite", "chern", "--p", "3", "--l", "2", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "conjchern", *argv], capture_output=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "22351c5ca96c1d9af2ea0fcad39943f12dabbd3fa731b4c5b8f52a87b741ff88"
    )
