"""Packed monomial keys: the kernels against their exponent-tuple oracles, the
field limit, and planted carries between fields."""

import json
import random

import pytest

from conjchern import chern, cli, dickson, poly, steenrod
from conjchern.errors import ConjChernError, NonExactDivision, SizeGuard
from conjchern.poly import Poly, PolyRing, exact_div
from conjchern.steenrod import (
    CohAlgebra,
    CohClass,
    power_op,
    random_homogeneous,
    total_power,
)
from helpers import (
    poly_of,
    random_nonzero_poly,
    random_poly,
    tuple_coh_mul,
    tuple_exact_div,
    tuple_mul,
)

R3 = PolyRing(3, ("x1", "x2", "x3"))
LIMIT = R3._limit  # the first total degree that does not fit at p = 3


def test_field_limit_follows_the_prime():
    assert LIMIT == 2**31
    assert PolyRing(13, ("x",))._limit == 2**31
    assert PolyRing(17, ("x",))._limit == 2**39
    # r_4 at the largest admitted prime has the exponent p^4, about 2^124
    assert PolyRing(2147483647, ("x",))._limit == 2**247


def ring5():
    return PolyRing(5, ("x1", "x2"))


def algebra5():
    return CohAlgebra(5, 2)


# Each sum type with a maker of its context, two distinct monomials (the
# second the unit), malformed monomials, and a maker of the other context.
SUM_TYPES = {
    "poly": (Poly, ring5, (1, 2), (0, 0), [(1,), (1, 2, 0), (1, -1)], algebra5),
    "class": (
        CohClass,
        algebra5,
        ((1,), (1, 2)),
        ((), (0, 0)),
        [((2, 1), (0, 0)), ((1, 1), (0, 0)), ((3,), (0, 0)), ((), (1,)), ((), (0, -1))],
        ring5,
    ),
}


@pytest.mark.parametrize("kind", sorted(SUM_TYPES))
def test_shared_constructor_behaves_alike_for_both_sum_types(kind):
    cls, make, mono, unit, bad, make_other = SUM_TYPES[kind]
    ctx, other = make(), make_other()
    # coefficients are reduced mod p, and the zeros dropped
    x = cls(ctx, {mono: 7, unit: 5})
    assert type(x) is cls and dict(x.terms) == {mono: 2}
    assert cls(ctx, {mono: -3}).terms[mono] == 2
    assert cls(ctx, {mono: 10, unit: -5}).is_zero()
    assert cls(ctx, {}) == ctx.zero() and cls(ctx, {unit: 6}) == ctx.one()
    assert ctx.constant(11) == cls(ctx, {unit: 1}) and ctx.constant(-5) == ctx.zero()
    assert len(x.degrees()) <= 1 and len((x + ctx.one()).degrees()) > 1
    for key in bad:
        with pytest.raises((ConjChernError, ValueError)):
            cls(ctx, {key: 1})
    # a context built again is equal, with the same hash; the other type never is
    assert make() == ctx and hash(make()) == hash(ctx)
    assert ctx != other and other != ctx
    assert ctx.one() != other.one()
    other._identity = ctx._identity  # the type alone must tell them apart
    assert ctx != other and other != ctx


def test_terms_view_is_read_only_and_keyed_by_tuples():
    f = poly_of(R3, "x1^2*x3 + 2*x2")
    view = f.terms
    assert len(view) == 2
    assert view == {(2, 0, 1): 1, (0, 1, 0): 2}
    assert dict(view.items()) == {(2, 0, 1): 1, (0, 1, 0): 2}
    assert view[(0, 1, 0)] == 2 and view.get((1, 1, 1)) is None
    assert (2, 0, 1) in view and (1,) not in view and "x1" not in view
    with pytest.raises(KeyError):
        view[(0, 0, 0)]
    with pytest.raises(TypeError):
        view[(0, 0, 0)] = 1


# -- kernels against the tuple oracles -------------------------------------------


def near_powers_of_two(rng, ring, terms, bits):
    """A polynomial whose exponents sit next to 2^k for k in bits, so that
    sums of two of them cross a power of two."""
    out = {}
    for _ in range(terms):
        mono = tuple(
            max(0, (1 << rng.choice(bits)) + rng.randrange(-2, 2)) for _ in range(ring.arity)
        )
        out[mono] = rng.randrange(1, ring.p)
    return poly.Poly(ring, out)


@pytest.mark.parametrize("p", [3, 5, 13, 2147483647])
def test_mul_and_division_match_the_tuple_oracles(p):
    rng = random.Random(1000 + p % 1000)
    ring = PolyRing(p, ("x1", "x2", "x3"))
    for trial in range(60):
        if trial % 2:
            f = random_nonzero_poly(rng, ring, max_terms=6, max_exp=5)
            g = random_nonzero_poly(rng, ring, max_terms=4, max_exp=4)
        else:
            f = near_powers_of_two(rng, ring, 4, (3, 7, 8, 15, 16, 28))
            g = near_powers_of_two(rng, ring, 3, (1, 4, 8, 16, 27))
        h = f * g
        assert h == tuple_mul(f, g) == g * f
        assert exact_div(h, g) == tuple_exact_div(h, g) == f
        assert h.degree() == f.degree() + g.degree()
        assert h.to_text() == tuple_mul(f, g).to_text()


def test_nonexact_division_is_refused_like_the_oracle():
    rng = random.Random(5)
    refused = 0
    for _ in range(100):
        f = random_poly(rng, R3, max_terms=4, max_exp=3)
        g = random_nonzero_poly(rng, R3, max_terms=3, max_exp=2)
        try:
            want = tuple_exact_div(f, g)
        except NonExactDivision:
            refused += 1
            with pytest.raises(NonExactDivision):
                exact_div(f, g)
        else:
            assert exact_div(f, g) == want
    assert refused > 50


def test_sums_reach_the_last_value_below_the_limit():
    x1, x2, x3 = (R3.variable(v) for v in range(3))
    top = R3.monomial({0: LIMIT - 2})
    f = top + R3.monomial({1: LIMIT - 2}) + x3
    g = x1 + 2 * x2
    h = f * g
    assert h == tuple_mul(f, g)
    assert h.terms[(LIMIT - 1, 0, 0)] == 1
    assert h.terms[(0, LIMIT - 1, 0)] == 2
    assert h.degree() == LIMIT - 1
    assert exact_div(h, g) == tuple_exact_div(h, g) == f
    assert exact_div(h, f) == g
    # the exponent field full up to its guard bit, one variable at a time
    for v in range(3):
        assert (R3.monomial({v: LIMIT - 2}) * R3.variable(v)).degree() == LIMIT - 1
    assert R3.monomial({0: LIMIT // 3}).frobenius(1).degree() == 3 * (LIMIT // 3)
    images = [R3.monomial({0: LIMIT // 2 - 1}), x2, x3]
    assert (x1**2).compose(images).terms == {(LIMIT - 2, 0, 0): 1}


def test_one_past_the_limit_raises_size_guard():
    x1, x2 = R3.variable(0), R3.variable(1)
    top = R3.monomial({0: LIMIT - 1})
    with pytest.raises(SizeGuard, match=f"total degree {LIMIT} does not fit"):
        top * x1
    with pytest.raises(SizeGuard):
        top * x2
    with pytest.raises(SizeGuard):
        R3.monomial({1: LIMIT})
    with pytest.raises(SizeGuard):
        R3.monomial({0: LIMIT // 3 + 1}).frobenius(1)
    with pytest.raises(SizeGuard):
        (x1**2).compose([R3.monomial({0: LIMIT // 2}), x2, x2])
    with pytest.raises(SizeGuard):
        (x1**2).compose([R3.monomial({0: LIMIT // 2}) + x2, x2, x2])


def test_coh_mul_matches_the_tuple_oracle():
    rng = random.Random(77)
    for p, l in [(3, 1), (3, 2), (5, 2), (2147483647, 1)]:
        alg = CohAlgebra.bv(p, l)
        for _ in range(80):
            x = random_homogeneous(rng, alg, max_even_exp=3)
            y = random_homogeneous(rng, alg, max_even_exp=3)
            for _ in range(rng.randrange(3)):
                x = x + random_homogeneous(rng, alg)
            assert x * y == tuple_coh_mul(x, y)


def test_coh_operations_at_the_limit():
    alg = CohAlgebra(3, 2)
    limit = alg._limit
    t1 = alg.even_gen(1)
    a2 = alg.odd_gen(2)
    near = alg.term((2,), (limit - 2, 0))
    assert (near * t1).terms == {((2,), (limit - 1, 0)): 1}
    with pytest.raises(SizeGuard):
        near * t1 * t1
    with pytest.raises(SizeGuard):
        a2 * alg.term((), (0, limit))
    # P^1 raises the degree by p - 1 = 2; the guard refuses before the picks
    # of t^(2^31 - 2), which are millions, are listed
    with pytest.raises(SizeGuard):
        power_op(1, alg.term((), (limit - 2, 0)))
    with pytest.raises(SizeGuard):
        total_power(alg.term((), (limit // 3 + 1, 0)))


# -- planted carries between fields -----------------------------------------------


@pytest.fixture
def narrow_fields(monkeypatch):
    """Exponent fields of 3 bits, a guard bit included, for every ring built
    from here on; the layout-dependent caches start and end empty."""

    def clear():
        for module in (dickson, chern, steenrod):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()

    clear()
    monkeypatch.setattr(poly, "_field_width", lambda p: 3)
    yield monkeypatch
    monkeypatch.undo()
    clear()


DICKSON_P3_N2 = ["--suite", "dickson", "--p", "3", "--n", "2", "--trials", "2"]


def test_narrow_fields_are_refused_not_carried(narrow_fields, capsys):
    """x^9 does not fit below a guard bit at 2 bits: every check is SKIPPED
    with the reason, none passes or fails on carried keys."""
    code = cli.main(DICKSON_P3_N2 + ["--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {c["status"] for c in report["checks"]} == {"skipped"}
    assert all("does not fit the 2-bit exponent fields" in c["detail"] for c in report["checks"])


def test_planted_carry_between_fields_fails(narrow_fields, capsys):
    """The same fields with the fit guard removed: x^9 spills out of its
    field into the next one, and the two routes see it."""
    narrow_fields.setattr(poly._ExponentLayout, "_fit", lambda self, top: None)
    code = cli.main(DICKSON_P3_N2)
    out = capsys.readouterr().out
    assert code == 1
    assert "overall: FAIL" in out
    lines = {row.split()[0]: row for row in out.splitlines() if row.startswith("  dickson/")}
    assert " FAIL " in lines["dickson/delta-factorization"]
    assert "first differing terms: " in lines["dickson/delta-factorization"]
    assert " FAIL " in lines["dickson/two-route-c2"]
    assert lines["dickson/two-route-c2"].endswith("first differing terms: 1: 1 != 0")
