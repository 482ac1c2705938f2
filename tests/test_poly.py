import random

import pytest

from conjchern.errors import NotSquare, RingMismatch, SizeGuard
from conjchern.poly import (
    Poly,
    PolyMatrix,
    PolyRing,
    _add_terms,
    _join_last,
    _split_last,
    determinant,
    jacobian_det,
)
from helpers import det2, naive_compose, naive_pow, poly_of, random_nonzero_poly, random_poly

R3 = PolyRing(3, ("x1", "x2"))


def tx(text, ring=R3):
    return poly_of(ring, text)


# -- ring operations ---------------------------------------------------------


def test_freshman_dream():
    assert tx("x1 + x2") ** 3 == tx("x1^3 + x2^3")


def test_coefficient_wraparound():
    assert tx("2*x1") + tx("2*x1") == tx("x1")


def test_sum_to_zero_drops_every_term():
    f = tx("x1^2 + 2*x1*x2 + x2")
    assert (f + (-f)).terms == {}
    assert (f + tx("2*x1^2")).terms == {(1, 1): 2, (0, 1): 1}


def test_add_terms_onto_out_reduces_only_the_touched_keys():
    out = {(1, 0): 1, (0, 1): 2}
    # a repeated key is summed before it is reduced; a key reaching zero goes
    pairs = [((2, 0), 2), ((2, 0), 2), ((1, 0), 2), ((0, 1), 1), ((0, 1), 1)]
    assert _add_terms(pairs, 3, out) == {(0, 1): 1, (2, 0): 1}
    assert out == {(1, 0): 1, (0, 1): 2}
    assert _add_terms([((0, 0), 1), ((0, 0), 2)], 3, out) == out


def test_product_expansion():
    # (x1 + x2)(x1 + 2 x2) = x1^2 + 3 x1 x2 + 2 x2^2, and 3 vanishes mod 3
    assert tx("x1 + x2") * tx("x1 + 2*x2") == tx("x1^2 + 2*x2^2")


def test_ring_mismatch():
    other = PolyRing(3, ("y1", "y2"))
    with pytest.raises(RingMismatch):
        tx("x1") + other.variable("y1")
    with pytest.raises(RingMismatch):
        tx("x1") * other.variable("y1")
    with pytest.raises(RingMismatch):
        tx("x1") - other.variable("y1")
    with pytest.raises(RingMismatch):
        R3.zero() - other.zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_difference_is_the_sum_with_the_negation(p):
    """a - b, one pass over the terms of b, against a + (-b): on random sums
    with shared keys, zero operands and ints on either side."""
    ring = PolyRing(p, ("x1", "x2"))
    rng = random.Random(700 + p)
    zero = ring.zero()
    for _ in range(300):
        a = random_poly(rng, ring, max_terms=4, max_exp=2)
        b = random_poly(rng, ring, max_terms=4, max_exp=2)
        c = rng.randrange(-2 * p, 2 * p)
        assert a - b == a + (-b)
        assert (a - b) + b == a
        assert a - a == zero and (a - a).terms == {}
        assert a - zero == a and zero - a == -a
        assert a - c == a + ring.constant(-c)
        assert c - a == ring.constant(c) + (-a)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ring_laws_random(p):
    ring = PolyRing(p, ("x1", "x2", "x3"))
    rng = random.Random(500 + p)
    zero, one = ring.zero(), ring.one()
    for _ in range(1000):
        f = random_poly(rng, ring, max_terms=3, max_exp=2)
        g = random_poly(rng, ring, max_terms=3, max_exp=2)
        h = random_poly(rng, ring, max_terms=3, max_exp=2)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f + zero == f
        assert f * one == f
        assert f + (-f) == zero


# -- graded parts -------------------------------------------------------------


def test_graded_decomposition_random():
    rng = random.Random(7)
    ring = PolyRing(5, ("x1", "x2"))
    for _ in range(100):
        f = random_poly(rng, ring, max_terms=5, max_exp=4)
        total = ring.zero()
        for d in range(0, 9):
            total = total + Poly(ring, {m: c for m, c in f.terms.items() if sum(m) == d})
        assert total == f


# -- determinants -------------------------------------------------------------


def test_identity_determinant():
    one, zero = R3.one(), R3.zero()
    assert determinant(PolyMatrix([[one, zero], [zero, one]])) == one


def test_moore_style_determinant_against_cofactor_oracle():
    a, b = tx("x1"), tx("x2")
    c, d = tx("x1^3"), tx("x2^3")
    mat = PolyMatrix([[a, b], [c, d]])
    assert determinant(mat) == det2(a, b, c, d)
    assert determinant(mat) == tx("x1*x2^3 - x1^3*x2")


def test_row_swap_negates():
    rng = random.Random(11)
    for _ in range(20):
        rows = [[random_poly(rng, R3) for _ in range(3)] for _ in range(3)]
        swapped = [rows[1], rows[0], rows[2]]
        assert determinant(PolyMatrix(swapped)) == -determinant(PolyMatrix(rows))


def test_determinant_multilinear_in_rows():
    rng = random.Random(13)
    for _ in range(20):
        r0 = [random_poly(rng, R3) for _ in range(3)]
        r0b = [random_poly(rng, R3) for _ in range(3)]
        rest = [[random_poly(rng, R3) for _ in range(3)] for _ in range(2)]
        summed = [a + b for a, b in zip(r0, r0b)]
        lhs = determinant(PolyMatrix([summed] + rest))
        rhs = determinant(PolyMatrix([r0] + rest)) + determinant(
            PolyMatrix([r0b] + rest)
        )
        assert lhs == rhs


def test_determinant_alternating():
    rng = random.Random(17)
    for _ in range(20):
        row = [random_poly(rng, R3) for _ in range(3)]
        other = [random_poly(rng, R3) for _ in range(3)]
        assert determinant(PolyMatrix([row, row, other])).is_zero()


def test_determinant_multiplicative():
    rng = random.Random(19)
    for _ in range(10):
        a = [[random_poly(rng, R3, 2, 1) for _ in range(3)] for _ in range(3)]
        b = [[random_poly(rng, R3, 2, 1) for _ in range(3)] for _ in range(3)]
        ab = [
            [sum((a[i][k] * b[k][j] for k in range(3)), R3.zero()) for j in range(3)]
            for i in range(3)
        ]
        assert determinant(PolyMatrix(ab)) == (
            determinant(PolyMatrix(a)) * determinant(PolyMatrix(b))
        )


def test_determinant_errors():
    with pytest.raises(NotSquare):
        determinant(PolyMatrix([[tx("x1"), tx("x2")]]))
    big = PolyMatrix([[R3.constant(int(i == j)) for j in range(9)] for i in range(9)])
    with pytest.raises(SizeGuard):
        determinant(big)


# -- products -------------------------------------------------------------------


def test_difference_of_squares():
    assert tx("x1 - x2") * tx("x1 + x2") == tx("x1^2 - x2^2")


# -- Frobenius ---------------------------------------------------------------


def test_frobenius_examples():
    assert tx("x1 + 2*x2").frobenius(1) == tx("x1^3 + 2*x2^3")
    f = tx("x1^2 + x2")
    assert f.frobenius(0) == f


def test_frobenius_matches_repeated_multiplication():
    rng = random.Random(29)
    for p in (3, 5):
        ring = PolyRing(p, ("x1", "x2"))
        for _ in range(50):
            f = random_poly(rng, ring)
            assert f.frobenius(1) == naive_pow(f, p)


def test_frobenius_is_ring_homomorphism():
    rng = random.Random(31)
    ring = PolyRing(3, ("x1", "x2"))
    for _ in range(100):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        assert (f * g).frobenius(1) == f.frobenius(1) * g.frobenius(1)
        assert (f + g).frobenius(1) == f.frobenius(1) + g.frobenius(1)


def test_pow_matches_naive_oracle():
    rng = random.Random(37)
    for p in (2, 3, 5):
        ring = PolyRing(p, ("x1", "x2"))
        for _ in range(30):
            f = random_poly(rng, ring, max_terms=3, max_exp=2)
            e = rng.randrange(0, 7)
            assert f**e == naive_pow(f, e)


# -- derivatives --------------------------------------------------------------


def test_derivative_kills_p_th_powers():
    ring = PolyRing(3, ("xi", "eta"))
    f = poly_of(ring, "xi^3*eta")
    assert f.partial_derivative("xi").is_zero()
    assert f.partial_derivative("eta") == poly_of(ring, "xi^3")


def test_jacobian_of_identity_map():
    assert jacobian_det([tx("x1"), tx("x2")], [0, 1]) == R3.one()


def test_jacobian_of_r_polynomials_nonzero():
    # dr_i/dxi = -eta^{p^i}, dr_i/deta = xi^{p^i} in char 3, so the 2x2
    # determinant is -eta^3*xi^9 + xi^3*eta^9, computed here by the oracle
    ring = PolyRing(3, ("xi", "eta"))
    xi, eta = ring.variable("xi"), ring.variable("eta")
    r = [xi**3 * eta - xi * eta**3, xi**9 * eta - xi * eta**9]
    expected = det2(-(eta**3), xi**3, -(eta**9), xi**9)
    got = jacobian_det(r, ["xi", "eta"])
    assert got == expected
    assert not got.is_zero()


def test_derivative_product_rule():
    rng = random.Random(41)
    ring = PolyRing(5, ("x1", "x2"))
    for _ in range(100):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        lhs = (f * g).partial_derivative(0)
        rhs = f.partial_derivative(0) * g + f * g.partial_derivative(0)
        assert lhs == rhs


def test_jacobian_shape_error():
    with pytest.raises(NotSquare):
        jacobian_det([tx("x1")], [0, 1])


# -- composition --------------------------------------------------------------


def test_compose_matches_naive_oracle():
    rng = random.Random(43)
    ring = PolyRing(3, ("x1", "x2"))
    target = PolyRing(3, ("y1", "y2", "y3"))
    for _ in range(50):
        f = random_poly(rng, ring, max_terms=3, max_exp=3)
        images = [random_nonzero_poly(rng, target, 2, 2) for _ in range(2)]
        assert f.compose(images) == naive_compose(f, images, target)
        # single-term images exercise the exponent-mapping fast path
        fast = [target.monomial({rng.randrange(3): rng.randrange(1, 3)}, 2) for _ in range(2)]
        assert f.compose(fast) == naive_compose(f, fast, target)


def test_compose_variable_permutation():
    ring = PolyRing(3, ("x1", "x2"))
    f = tx("x1^2 + 2*x2")
    flipped = f.compose([ring.variable("x2"), ring.variable("x1")])
    assert flipped == tx("x2^2 + 2*x1")


# -- text ----------------------------------------------------------------------


def test_serialize_zero_and_constants():
    assert R3.zero().to_text() == "0"
    assert R3.one().to_text() == "1"
    assert R3.constant(5).to_text() == "2"


def test_terms_serialized_in_descending_graded_lex():
    f = tx("x2 + x1 + x1*x2 + 1")
    assert f.to_text() == "x1*x2 + x1 + x2 + 1"


def test_degree_of_zero_is_none():
    assert R3.zero().degree() is None
    assert R3.one().degree() == 0


def test_monomial_arity_enforced():
    from conjchern.errors import ArityMismatch
    from conjchern.poly import Poly

    with pytest.raises(ArityMismatch):
        Poly(R3, {(1,): 1})
    with pytest.raises(ArityMismatch):
        R3.monomial((1, 2, 3))


def test_diff_detail_reports_leading_difference():
    from conjchern.poly import diff_detail

    a = tx("x1^2 + x2")
    b = tx("x1^2 + 2*x2 + 1")
    detail = diff_detail(a, b)
    assert detail.startswith("first differing terms: x2: 1 != 2")
    assert diff_detail(a, a) == "polynomials agree"


def test_join_last_inverts_split_last():
    rng = random.Random(29)
    xring = PolyRing(5, ("x1", "x2", "X"))
    ring = PolyRing(5, ("x1", "x2"))
    for _ in range(50):
        f = random_poly(rng, xring, max_terms=8, max_exp=6)
        parts = _split_last(f, ring)
        for e, part in parts.items():
            assert part.terms == {m[:2]: c for m, c in f.terms.items() if m[2] == e}
        assert _join_last(parts, xring) == f
