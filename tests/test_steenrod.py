import random

import pytest

from conjchern import steenrod
from conjchern.errors import ContextMismatch, DepthGuard, OddPartPresent, ParseError
from conjchern.poly import PolyRing, parse
from conjchern.steenrod import (
    CohAlgebra,
    CohClass,
    bockstein,
    even_to_poly,
    milnor_q,
    parse_class,
    power_op,
    r_closed,
    random_homogeneous,
    total_power,
    verify_jacobian_independence,
    verify_steenrod,
    x_class,
)

A31 = CohAlgebra.bv(3, 1)


# -- graded-commutative multiplication ----------------------------------------


def test_exterior_square_vanishes():
    a1 = A31.odd_gen(1)
    assert (a1 * a1).is_zero()


def test_koszul_anticommutation():
    a1, b1 = A31.odd_gen(1), A31.odd_gen(2)
    assert (a1 * b1 + b1 * a1).is_zero()


def test_even_generators_central():
    xi, eta = A31.even_gen(1), A31.even_gen(2)
    a1 = A31.odd_gen(1)
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
        A31.odd_gen(1) * other.odd_gen(1)


# -- Bockstein ----------------------------------------------------------------


def test_bockstein_on_generators():
    assert bockstein(A31.odd_gen(1)) == A31.even_gen(1)
    assert bockstein(A31.even_gen(1)).is_zero()


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
    xi = A31.even_gen(1)
    assert power_op(1, xi) == xi**3


def test_powers_vanish_on_degree_one():
    a1 = A31.odd_gen(1)
    for k in (1, 2, 3):
        assert power_op(k, a1).is_zero()


def test_cartan_product_expansion():
    xi, eta = A31.even_gen(1), A31.even_gen(2)
    assert power_op(1, xi * eta) == xi**3 * eta + xi * eta**3


def test_unstable_behavior_on_even_powers():
    # P^k on a monomial of half-degree k is the p-th power; above k it dies
    alg = CohAlgebra.bv(5, 1)
    xi = alg.even_gen(1)
    for k in (1, 2, 3):
        x = xi**k
        assert power_op(k, x) == x**5
        assert power_op(k + 1, x).is_zero()


def test_p0_is_identity():
    rng = random.Random(109)
    alg = CohAlgebra.bv(3, 2)
    for _ in range(100):
        x = random_homogeneous(rng, alg)
        assert power_op(0, x) == x


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
    assert milnor_q(1, A31.odd_gen(1)) == A31.even_gen(1) ** 3


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
        milnor_q(7, A31.odd_gen(1))


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
    assert f == ring.from_text("xi1^3*eta1 - xi1*eta1^3")
    assert even_to_poly(CohAlgebra.bv(3, 1).zero(), ring).is_zero()


def test_even_to_poly_rejects_odd_part():
    with pytest.raises(OddPartPresent):
        even_to_poly(x_class(3, 1))


# -- text --------------------------------------------------------------------------


def test_parse_class_roundtrip():
    x = x_class(3, 2)
    assert parse_class(x.to_text(), CohAlgebra.bv(3, 2)) == x


def test_parse_class_exterior_square():
    assert parse_class("a1*a1", A31).is_zero()
    assert parse_class("a1^2", A31).is_zero()
    assert parse_class("b1*a1", A31) == -(A31.odd_gen(1) * A31.odd_gen(2))


def test_parse_class_errors():
    with pytest.raises(ParseError):
        parse_class("a9", A31)
    with pytest.raises(ParseError):
        parse_class("", A31)


@pytest.mark.parametrize(
    "text,position",
    [("xi1 & eta1", 4), ("", 0), ("xi1 +", 5), ("xi1^", 4), ("xi1*3", 4)],
)
def test_parse_and_parse_class_share_error_positions(text, position):
    alg = CohAlgebra.bv(3, 1)
    ring = PolyRing(3, alg.even_names)
    with pytest.raises(ParseError) as poly_err:
        parse(text, ring)
    with pytest.raises(ParseError) as class_err:
        parse_class(text, alg)
    assert poly_err.value.position == class_err.value.position == position


@pytest.mark.parametrize("p,l", [(3, 2), (5, 1)])
def test_parse_class_roundtrip_random(p, l):
    alg = CohAlgebra.bv(p, l)
    rng = random.Random(100 * p + l)
    for _ in range(100):
        x = random_homogeneous(rng, alg)
        assert parse_class(x.to_text(), alg) == x


# -- verifiers ------------------------------------------------------------------------


@pytest.mark.parametrize("p,l", [(3, 1), (5, 1), (3, 2)])
def test_jacobian_independence(p, l):
    assert verify_jacobian_independence(p, l).passed()


def test_steenrod_suite_report():
    report = verify_steenrod(3, 1, trials=40, seed=5)
    assert report.passed()
    names = [c.name for c in report.checks]
    assert "milnor-closed-form-q4" in names
    assert "total-power-endomorphism" in names


def test_closed_form_failure_names_the_differing_terms(monkeypatch):
    original = steenrod.r_closed

    def doubled_r1(p, i, l):
        r = original(p, i, l)
        return r + r if i == 1 else r

    monkeypatch.setattr(steenrod, "r_closed", doubled_r1)
    report = verify_steenrod(3, 1, trials=4, seed=5)
    status = {c.name: c for c in report.checks}
    assert status["milnor-closed-form-q1"].status == "fail"
    assert status["milnor-closed-form-q1"].detail == (
        "first differing terms: xi1^3*eta1: 1 != 2; xi1*eta1^3: 2 != 1"
    )
    assert status["milnor-closed-form-q2"].status == "pass"
    assert status["milnor-closed-form-q2"].detail == ""
