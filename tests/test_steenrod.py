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

A31 = CohAlgebra(3, 1)


@pytest.mark.parametrize("m", range(1, 6))
def test_sign_table_matches_the_crossing_count(m):
    table = steenrod._sign_table(m)
    size = 1 << m
    assert len(table) == size
    for s in range(size):
        assert table[s] == tuple(crossing_sign(s, t, m) for t in range(size))


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
    alg = CohAlgebra(3, 2)
    for _ in range(100):
        x = random_homogeneous(rng, alg, 2)
        y = random_homogeneous(rng, alg, 2)
        z = random_homogeneous(rng, alg, 2)
        assert (x * y) * z == x * (y * z)


def test_koszul_sign_rule_random():
    rng = random.Random(101)
    alg = CohAlgebra(3, 2)
    for _ in range(100):
        x = random_homogeneous(rng, alg, 2)
        y = random_homogeneous(rng, alg, 2)
        sign = 1 if (x.degree() * y.degree()) % 2 == 0 else -1
        assert x * y == y * x * sign


def test_context_mismatch():
    other = CohAlgebra(5, 1)
    with pytest.raises(ContextMismatch):
        odd_gen(A31, 1) * odd_gen(other, 1)
    with pytest.raises(ContextMismatch):
        odd_gen(A31, 1) - odd_gen(other, 1)
    with pytest.raises(ContextMismatch):
        A31.zero() - other.zero()


def test_difference_is_the_sum_with_the_negation():
    """a - b, one pass over the terms of b, against a + (-b): on random sums
    of classes with shared keys, zero operands and ints on either side."""
    rng = random.Random(149)
    for alg in (A31, CohAlgebra(5, 2)):
        zero = alg.zero()
        for _ in range(100):
            x = random_homogeneous(rng, alg, max_even_exp=2)
            y = random_homogeneous(rng, alg, max_even_exp=2)
            a, b = x + y * 2, y - x
            c = rng.randrange(-2 * alg.p, 2 * alg.p)
            assert a - b == a + (-b)
            assert (a - b) + b == a
            assert a - a == zero and (a - a).terms == {}
            assert a - zero == a and zero - a == -a
            assert a - c == a + alg.constant(-c)
            assert c - a == alg.constant(c) + (-a)


# -- Bockstein ----------------------------------------------------------------


def test_bockstein_on_generators():
    assert bockstein(odd_gen(A31, 1)) == even_gen(A31, 1)
    assert bockstein(even_gen(A31, 1)).is_zero()


def test_bockstein_squared_random():
    rng = random.Random(103)
    alg = CohAlgebra(5, 2)
    for _ in range(200):
        x = random_homogeneous(rng, alg)
        assert bockstein(bockstein(x)).is_zero()


def test_bockstein_kills_x_class():
    # beta(a eta - xi b) = xi eta - xi eta
    for p, l in [(3, 1), (3, 2), (5, 1)]:
        assert bockstein(x_class(p, l)).is_zero()


def test_bockstein_derivation_sign():
    rng = random.Random(107)
    alg = CohAlgebra(3, 2)
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
    alg = CohAlgebra(5, 1)
    xi = even_gen(alg, 1)
    for k in (1, 2, 3):
        x = coh_power(xi, k)
        assert power_op(k, x) == coh_power(x, 5)
        assert power_op(k + 1, x).is_zero()


def test_p0_is_identity_on_exterior_classes():
    """Every term of an exterior class has polynomial degree 0, which is not
    below k = 0, so P^0 keeps each of them."""
    alg = CohAlgebra(3, 2)
    a1, b1, a2, b2 = (odd_gen(alg, k) for k in range(1, 5))
    for x in (a1, a1 * b1, a1 + b2 * 2, a1 * a2 + b1 * b2 + a1 * b1 * a2 * b2, alg.one()):
        assert power_op(0, x) == x


def test_power_op_skips_the_terms_below_its_degree():
    alg = CohAlgebra(3, 2)
    xi1, eta1, xi2 = even_gen(alg, 1), even_gen(alg, 2), even_gen(alg, 3)
    low = coh_power(xi1, 2) * odd_gen(alg, 4) + xi1 * eta1 * odd_gen(alg, 4)
    assert power_op(3, low).is_zero()
    assert power_op(3, alg.zero()).is_zero()
    high = coh_power(xi1, 2) * xi2 * odd_gen(alg, 1)
    assert not power_op(3, high).is_zero()
    assert power_op(3, low + high) == power_op(3, high)


def test_the_zero_class_keeps_its_guards():
    zero = A31.zero()
    with pytest.raises(ValueError):
        power_op(-1, zero)
    with pytest.raises(ValueError):
        steenrod.milnor_chain(-1, zero)
    with pytest.raises(DepthGuard):
        steenrod.milnor_chain(7, zero)
    assert steenrod.milnor_chain(3, zero) == [zero] * 4


def test_p0_is_identity():
    rng = random.Random(109)
    alg = CohAlgebra(3, 2)
    for _ in range(100):
        x = random_homogeneous(rng, alg)
        assert power_op(0, x) == x


def degree_components(x):
    """The homogeneous parts of a class by degree, read off its packed keys
    once: exterior bits plus twice the total-degree field."""
    alg, parts = x.algebra, {}
    low, dshift = (1 << alg.m) - 1, alg._dshift + alg.m
    for key, c in x._terms.items():
        parts.setdefault((key & low).bit_count() + 2 * (key >> dshift), {})[key] = c
    return {d: CohClass._raw(alg, part) for d, part in parts.items()}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("l", [1, 2])
def test_power_op_matches_total_power_component(p, l):
    # P^k x is the degree deg(x) + 2k(p-1) part of the total power of x;
    # a sum of two degrees takes that part of each summand
    alg = CohAlgebra(p, l)
    rng = random.Random(1000 * p + l)
    shift = 2 * (p - 1)
    for t in range(12):
        x = random_homogeneous(rng, alg, max_even_exp=rng.choice([2, 4, p + 1, p * p + 1]))
        y = random_homogeneous(rng, alg, max_even_exp=3)
        while y.degree() == x.degree():
            y = random_homogeneous(rng, alg, max_even_exp=3)
        tx, ty = degree_components(total_power(x)), degree_components(total_power(y))
        for k in [*range(7), p, p**2, p**3]:
            want_x = tx.get(x.degree() + k * shift, alg.zero())
            want_y = ty.get(y.degree() + k * shift, alg.zero())
            assert power_op(k, x) == want_x, (t, k)
            assert power_op(k, x + y) == want_x + want_y, (t, k)


def test_total_power_is_ring_endomorphism():
    rng = random.Random(113)
    alg = CohAlgebra(3, 2)
    for _ in range(200):
        x = random_homogeneous(rng, alg, 3)
        y = random_homogeneous(rng, alg, 3)
        assert total_power(x * y) == total_power(x) * total_power(y)


# -- Milnor primitives ------------------------------------------------------------


def test_q0_is_bockstein():
    rng = random.Random(127)
    alg = CohAlgebra(5, 1)
    for _ in range(50):
        x = random_homogeneous(rng, alg)
        assert milnor_q(0, x) == bockstein(x)


def test_q1_on_exterior_generator():
    assert milnor_q(1, odd_gen(A31, 1)) == coh_power(even_gen(A31, 1), 3)


def test_milnor_degree_shift():
    rng = random.Random(131)
    for p in (3, 5):
        alg = CohAlgebra(p, 1)
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
    alg = CohAlgebra(3, 1)
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
    f = even_to_poly(r_closed(3, 1, 1))
    assert f == poly_of(ring, "xi1^3*eta1 - xi1*eta1^3")
    assert even_to_poly(CohAlgebra(3, 1).zero()) == ring.zero()


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


def test_milnor_chain_recomputes_on_every_call(monkeypatch):
    """The chain to Q_3 takes 2 + 2 + 2 reduced powers and 2 Bocksteins:
    x has polynomial degree 1, so P^3 x and P^9 x are zero and their
    subtrees are not walked.  A second call takes as many again: nothing is
    cached."""
    x = x_class(3, 2)
    want = [milnor_q(j, x) for j in range(4)]
    calls = {"power_op": 0, "bockstein": 0}
    for name in calls:
        original = getattr(steenrod, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(steenrod, name, counted)
    chain = steenrod.milnor_chain(3, x)
    assert chain == want
    assert chain[-1] == r_closed(3, 3, 2)
    assert calls == {"power_op": 6, "bockstein": 2}
    assert steenrod.milnor_chain(3, x) == want
    assert calls == {"power_op": 12, "bockstein": 4}


def test_suite_fails_when_p0_drops_a_term(monkeypatch, capsys):
    """P^0 loses the first term of a class.  The Milnor recursion never takes
    P^0, so the P^0 clause of total-power-endomorphism is the one that fails."""
    original = steenrod.power_op

    def dropped(k, x):
        out = original(k, x)
        return CohClass(out.algebra, dict(list(out.terms.items())[1:])) if k == 0 else out

    monkeypatch.setattr(steenrod, "power_op", dropped)
    code = cli.main(STEENROD_P3_L1)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = failed_lines(out)
    assert "steenrod/total-power-endomorphism" in line
    assert "P^0 is not the identity" in line


def test_suite_fails_on_a_bockstein_that_keeps_its_exterior_factor(monkeypatch, capsys):
    """The Bockstein sends each exterior generator u to t + u t, t the
    polynomial generator of its pair: each term with the factor u also keeps
    itself times t, so beta^2 no longer vanishes."""
    original = steenrod.bockstein

    def planted(x):
        kept = {}
        for (odd, even), c in x.terms.items():
            for k in odd:
                key = (odd, tuple(e + (j == k - 1) for j, e in enumerate(even)))
                kept[key] = kept.get(key, 0) + c
        return original(x) + CohClass(x.algebra, kept)

    monkeypatch.setattr(steenrod, "bockstein", planted)
    code = cli.main(STEENROD_P3_L1)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = [s for s in failed_lines(out) if "steenrod/bockstein-squared" in s]
    assert line.endswith("failed on b1*xi1*eta1 + 2*b1*eta1^2")


def test_suite_fails_on_a_milnor_chain_with_one_term_too_many(monkeypatch, capsys):
    """The last entry of the chain to Q_3 gains the first term of its
    argument, so Q_3 no longer anticommutes with Q_0."""
    original = steenrod.milnor_chain

    def planted(i, x):
        chain = original(i, x)
        if i == 3:
            chain[-1] = chain[-1] + CohClass(x.algebra, dict(list(x.terms.items())[:1]))
        return chain

    monkeypatch.setattr(steenrod, "milnor_chain", planted)
    code = cli.main(STEENROD_P3_L1)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: fail" in out.lower()
    (line,) = [s for s in failed_lines(out) if "steenrod/milnor-anticommute" in s]
    assert line.endswith("Q_0Q_3 + Q_3Q_0 != 0 on class 0")


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
        "print(power_op(1, CohAlgebra(3, 1).term((), (2**31 - 3, 0))).to_text())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2*xi1^2147483647"
