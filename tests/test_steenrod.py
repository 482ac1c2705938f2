import json
import random
import subprocess
import sys

import pytest

from conjchern import cli, steenrod
from conjchern.errors import ContextMismatch, DepthGuard, OddPartPresent
from conjchern.poly import PolyRing
from conjchern.steenrod import (
    CohAlgebra,
    CohClass,
    bockstein,
    even_to_poly,
    milnor_q,
    power_op,
    r_closed,
    random_homogeneous,
    total_power,
    verify_jacobian_independence,
    verify_steenrod,
    x_class,
)
from helpers import coh_power, crossing_sign, even_gen, odd_gen, passed, poly_of

A31 = CohAlgebra.bv(3, 1)


@pytest.mark.parametrize("m", range(1, 6))
def test_sign_table_matches_the_crossing_count(m):
    table = steenrod._sign_table(m)
    size = 1 << m
    assert len(table) == size
    for s in range(size):
        assert table[s] == tuple(crossing_sign(s, t, m) for t in range(size))


@pytest.mark.parametrize(
    "odd,even",
    [
        (("a", "a"), ("x", "x")),
        (("a", "a"), ("x", "y")),
        (("a", "b"), ("x", "x")),
        (("a", "b"), ("b", "y")),
    ],
)
def test_generator_names_must_be_distinct(odd, even):
    """Two generators of one name would print alike in to_text and diff_detail."""
    with pytest.raises(ValueError, match="duplicate generator names"):
        CohAlgebra(3, 2, odd_names=odd, even_names=even)


# -- graded-commutative multiplication ----------------------------------------


def test_exterior_square_vanishes():
    a1 = odd_gen(A31, 1)
    assert (a1 * a1).is_zero()


def test_koszul_anticommutation():
    a1, b1 = odd_gen(A31, 1), odd_gen(A31, 2)
    assert (a1 * b1 + b1 * a1).is_zero()


def test_even_generators_central():
    xi, eta = even_gen(A31, 1), even_gen(A31, 2)
    a1 = odd_gen(A31, 1)
    assert xi * eta == eta * xi
    assert a1 * xi == xi * a1


def test_multiplication_associative_random():
    rng = random.Random(99)
    alg = CohAlgebra.bv(3, 2)
    for _ in range(100):
        x = random_homogeneous(rng, alg, 2)
        y = random_homogeneous(rng, alg, 2)
        z = random_homogeneous(rng, alg, 2)
        assert (x * y) * z == x * (y * z)


def test_koszul_sign_rule_random():
    rng = random.Random(101)
    alg = CohAlgebra.bv(3, 2)
    for _ in range(100):
        x = random_homogeneous(rng, alg, 2)
        y = random_homogeneous(rng, alg, 2)
        sign = 1 if (x.degree() * y.degree()) % 2 == 0 else -1
        assert x * y == y * x * sign


def test_context_mismatch():
    other = CohAlgebra.bv(5, 1)
    with pytest.raises(ContextMismatch):
        odd_gen(A31, 1) * odd_gen(other, 1)


# -- Bockstein ----------------------------------------------------------------


def test_bockstein_on_generators():
    assert bockstein(odd_gen(A31, 1)) == even_gen(A31, 1)
    assert bockstein(even_gen(A31, 1)).is_zero()


def test_bockstein_squared_random():
    rng = random.Random(103)
    alg = CohAlgebra.bv(5, 2)
    for _ in range(200):
        x = random_homogeneous(rng, alg)
        assert bockstein(bockstein(x)).is_zero()


def test_bockstein_kills_x_class():
    # beta(a eta - xi b) = xi eta - xi eta
    for p, l in [(3, 1), (3, 2), (5, 1)]:
        assert bockstein(x_class(p, l)).is_zero()


def test_bockstein_derivation_sign():
    rng = random.Random(107)
    alg = CohAlgebra.bv(3, 2)
    for _ in range(200):
        x = random_homogeneous(rng, alg, 2)
        y = random_homogeneous(rng, alg, 2)
        sign = -1 if x.degree() % 2 else 1
        assert bockstein(x * y) == bockstein(x) * y + x * bockstein(y) * sign


# -- reduced powers -------------------------------------------------------------


def test_p1_on_degree_two_class():
    xi = even_gen(A31, 1)
    assert power_op(1, xi) == coh_power(xi, 3)


def test_powers_vanish_on_degree_one():
    a1 = odd_gen(A31, 1)
    for k in (1, 2, 3):
        assert power_op(k, a1).is_zero()


def test_cartan_product_expansion():
    xi, eta = even_gen(A31, 1), even_gen(A31, 2)
    assert power_op(1, xi * eta) == coh_power(xi, 3) * eta + xi * coh_power(eta, 3)


def test_unstable_behavior_on_even_powers():
    # P^k on a monomial of half-degree k is the p-th power; above k it dies
    alg = CohAlgebra.bv(5, 1)
    xi = even_gen(alg, 1)
    for k in (1, 2, 3):
        x = coh_power(xi, k)
        assert power_op(k, x) == coh_power(x, 5)
        assert power_op(k + 1, x).is_zero()


def test_p0_is_identity():
    rng = random.Random(109)
    alg = CohAlgebra.bv(3, 2)
    for _ in range(100):
        x = random_homogeneous(rng, alg)
        assert power_op(0, x) == x


def degree_component(x, d):
    """The degree-d part of a class, read off its terms."""
    return CohClass(
        x.algebra,
        {key: c for key, c in x.terms.items() if len(key[0]) + 2 * sum(key[1]) == d},
    )


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("l", [1, 2])
def test_power_op_matches_total_power_component(p, l):
    # P^k x is the degree deg(x) + 2k(p-1) part of the total power of x;
    # a sum of two degrees takes that part of each summand
    alg = CohAlgebra.bv(p, l)
    rng = random.Random(1000 * p + l)
    shift = 2 * (p - 1)
    for t in range(12):
        x = random_homogeneous(rng, alg, max_even_exp=rng.choice([2, 4, p + 1]))
        y = random_homogeneous(rng, alg, max_even_exp=3)
        while y.degree() == x.degree():
            y = random_homogeneous(rng, alg, max_even_exp=3)
        tx, ty = total_power(x), total_power(y)
        for k in [*range(7), p, p**2, p**3]:
            want_x = degree_component(tx, x.degree() + k * shift)
            want_y = degree_component(ty, y.degree() + k * shift)
            assert power_op(k, x) == want_x, (t, k)
            assert power_op(k, x + y) == want_x + want_y, (t, k)


def test_total_power_is_ring_endomorphism():
    rng = random.Random(113)
    alg = CohAlgebra.bv(3, 2)
    for _ in range(200):
        x = random_homogeneous(rng, alg, 3)
        y = random_homogeneous(rng, alg, 3)
        assert total_power(x * y) == total_power(x) * total_power(y)


# -- Milnor primitives ------------------------------------------------------------


def test_q0_is_bockstein():
    rng = random.Random(127)
    alg = CohAlgebra.bv(5, 1)
    for _ in range(50):
        x = random_homogeneous(rng, alg)
        assert milnor_q(0, x) == bockstein(x)


def test_q1_on_exterior_generator():
    assert milnor_q(1, odd_gen(A31, 1)) == coh_power(even_gen(A31, 1), 3)


def test_milnor_degree_shift():
    rng = random.Random(131)
    for p in (3, 5):
        alg = CohAlgebra.bv(p, 1)
        for _ in range(20):
            x = random_homogeneous(rng, alg, 2)
            for i in range(3):
                q = milnor_q(i, x)
                if not q.is_zero():
                    assert q.degree() == x.degree() + 2 * p**i - 1


def test_milnor_closed_form_all_configurations():
    for p, l in [(3, 1), (3, 2), (5, 1), (5, 2)]:
        for i in range(5):
            assert milnor_q(i, x_class(p, l)) == r_closed(p, i, l)


def test_milnor_depth_guard():
    with pytest.raises(DepthGuard):
        milnor_q(7, odd_gen(A31, 1))


def test_milnor_derivation_and_anticommutation():
    rng = random.Random(137)
    alg = CohAlgebra.bv(3, 1)
    for _ in range(50):
        x = random_homogeneous(rng, alg, 2)
        y = random_homogeneous(rng, alg, 2)
        sign = -1 if x.degree() % 2 else 1
        for i in range(3):
            assert milnor_q(i, x * y) == milnor_q(i, x) * y + x * milnor_q(i, y) * sign
            assert milnor_q(i, milnor_q(i, x)).is_zero()
            for j in range(i + 1, 3):
                anti = milnor_q(i, milnor_q(j, x)) + milnor_q(j, milnor_q(i, x))
                assert anti.is_zero()


# -- the canonical classes ----------------------------------------------------------


def test_x_class_frozen():
    x = x_class(3, 1)
    assert x.to_text() == "2*b1*xi1 + a1*eta1"
    assert x.degree() == 3


def test_r_closed_values():
    assert r_closed(3, 0, 1).is_zero()
    assert r_closed(3, 1, 1).to_text() == "xi1^3*eta1 + 2*xi1*eta1^3"
    for p, i, l in [(3, 1, 1), (3, 2, 2), (5, 1, 2), (5, 3, 1)]:
        r = r_closed(p, i, l)
        assert r.degree() == 2 * (p**i + 1)


def test_even_to_poly_and_back():
    ring = PolyRing(3, ("xi1", "eta1"))
    f = even_to_poly(r_closed(3, 1, 1), ring)
    assert f == poly_of(ring, "xi1^3*eta1 - xi1*eta1^3")
    assert even_to_poly(CohAlgebra.bv(3, 1).zero(), ring).is_zero()


def test_even_to_poly_rejects_odd_part():
    with pytest.raises(OddPartPresent):
        even_to_poly(x_class(3, 1))


# -- exterior generators ------------------------------------------------------------


def test_exterior_generators_square_to_zero_and_anticommute():
    a1, b1 = odd_gen(A31, 1), odd_gen(A31, 2)
    assert a1 * a1 == 0
    assert b1 * a1 == -(a1 * b1)


# -- verifiers ------------------------------------------------------------------------


@pytest.mark.parametrize("p,l", [(3, 1), (5, 1), (3, 2)])
def test_jacobian_independence(p, l):
    assert passed(verify_jacobian_independence(p, l))


def test_steenrod_suite_report():
    checks = verify_steenrod(3, 1, trials=40, seed=5)
    assert passed(checks)
    names = [c.name for c in checks]
    assert "milnor-closed-form-q4" in names
    assert "total-power-endomorphism" in names


def test_closed_form_failure_names_the_differing_terms(monkeypatch):
    original = steenrod.r_closed

    def doubled_r1(p, i, l):
        r = original(p, i, l)
        return r + r if i == 1 else r

    monkeypatch.setattr(steenrod, "r_closed", doubled_r1)
    checks = verify_steenrod(3, 1, trials=4, seed=5)
    status = {c.name: c for c in checks}
    assert status["milnor-closed-form-q1"].status == "fail"
    assert status["milnor-closed-form-q1"].detail == (
        "first differing terms: xi1^3*eta1: 1 != 2; xi1*eta1^3: 2 != 1"
    )
    assert status["milnor-closed-form-q2"].status == "pass"
    assert status["milnor-closed-form-q2"].detail == ""


# -- negative controls -------------------------------------------------------------

STEENROD_P3_L1 = ["--suite", "steenrod", "--p", "3", "--l", "1", "--trials", "4"]


def failed_lines(out):
    return [line for line in out.splitlines() if "steenrod/" in line and "FAIL" in line]


def test_suite_fails_on_non_multiplicative_total_power(monkeypatch, capsys):
    original = steenrod.total_power
    monkeypatch.setattr(steenrod, "total_power", lambda x: original(x) + 1)
    code = cli.main(STEENROD_P3_L1)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = failed_lines(out)
    assert "steenrod/total-power-endomorphism" in line
    assert "multiplicativity failed on pair 0; first differing terms:" in line


def drop_top_pick(monkeypatch):
    """power_op loses the pick j = 1 of t^1, so P^1(t) = 0 instead of t^p.
    Only the capped tables, which power_op reads, lose it, and each loses it
    in a copy: the cached table is shared by later tests."""
    original = steenrod._binom_support

    def dropped(e, p, *cap):
        table = original(e, p, *cap)
        if e == 1 and cap:
            return {j: b for j, b in table.items() if j != 1}
        return table

    monkeypatch.setattr(steenrod, "_binom_support", dropped)


def test_suite_fails_on_dropped_power_op_pick(monkeypatch, capsys):
    drop_top_pick(monkeypatch)
    code = cli.main(STEENROD_P3_L1)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    line = [s for s in failed_lines(out) if "steenrod/milnor-closed-form-q1" in s][0]
    assert "first differing terms: xi1^3*eta1: 0 != 1; xi1*eta1^3: 0 != 2" in line
    # the total power is the independent route and does not use power_op
    assert not [s for s in failed_lines(out) if "total-power-endomorphism" in s]


def test_fault_after_a_clean_run_is_still_seen(monkeypatch, capsys):
    # no memo of the Milnor recursion outlives a check
    assert passed(verify_steenrod(3, 1, trials=4, seed=0))
    assert cli.main(STEENROD_P3_L1) == 0
    capsys.readouterr()
    drop_top_pick(monkeypatch)
    checks = verify_steenrod(3, 1, trials=4, seed=0)
    status = {c.name: c.status for c in checks}
    assert status["milnor-closed-form-q1"] == "fail"
    assert status["milnor-derivation"] == "fail"
    assert cli.main(STEENROD_P3_L1) == 1
    out = capsys.readouterr().out
    assert "overall: fail" in out.lower()
    line = [s for s in failed_lines(out) if "steenrod/milnor-closed-form-q1" in s][0]
    assert "first differing terms: xi1^3*eta1: 0 != 1" in line


def test_milnor_memo_is_shared_by_the_calls_given_it():
    x = x_class(3, 2)
    memo = {}
    assert milnor_q(3, x, memo) == r_closed(3, 3, 2)
    assert {i for i, _ in memo} == {0, 1, 2, 3}
    assert memo[(3, x)] is milnor_q(3, x, memo)


def test_suite_fails_on_dependent_closed_forms(monkeypatch, capsys):
    # r_2 := r_1^p has the differential p r_1^{p-1} dr_1 = 0, so a Jacobian row vanishes
    original = steenrod.r_closed

    def dependent(p, i, l):
        return coh_power(original(p, 1, l), p) if i == 2 else original(p, i, l)

    monkeypatch.setattr(steenrod, "r_closed", dependent)
    code = cli.main(STEENROD_P3_L1)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = [s for s in failed_lines(out) if "steenrod/jacobian-nonzero" in s]
    assert "Jacobian determinant vanished" in line


# -- the largest admitted prime ------------------------------------------------------


def test_suite_passes_at_the_largest_admitted_prime(capsys):
    """r_4 has the exponent p^4, about 2^124, here: the packed fields must
    hold it, or eight of these checks turn SKIPPED."""
    code = cli.main(
        ["--suite", "steenrod", "--p", "2147483647", "--l", "2", "--trials", "2", "--format", "json"]
    )
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert code == 0
    assert len(checks) == 10
    assert [c["name"] for c in checks if c["status"] != "pass"] == []


def test_power_op_lists_only_the_picks_within_its_budget():
    """t^(2^31 - 3) at p = 3 has 20 base-3 digits and millions of Lucas
    picks, but P^1 can use only the picks 0 and 1: listing every pick before
    applying the budget outlasts the timeout."""
    code = (
        "from conjchern.steenrod import CohAlgebra, power_op; "
        "print(power_op(1, CohAlgebra(3, 1).term((), (2**31 - 3,))).to_text())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2*x1^2147483647"
