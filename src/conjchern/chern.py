"""The restricted total Chern class of the conjugation representation.

The product of the linear factors 1 + sum(i_k xi_k + j_k eta_k) over all
nonzero tuples of F_p^{2l} is read off the homogeneous product of
T + sum(i_k xi_k + j_k eta_k) over all tuples, built by the subspace
recursion of dickson.linear_form_product: the graded part of degree d is
the coefficient of T^{p^{2l} - d}.  Degrees follow the half-degree
convention: each ring variable counts 1, standing for a cohomology class of
topological degree 2.
"""

from __future__ import annotations

from functools import lru_cache

from .dickson import DicksonContext, delta_ni, dickson_c, linear_form_product
from .fp import check_modulus
from .poly import Poly, PolyRing, _split_last, agree, diff_detail
from .report import timed_check
from .steenrod import even_to_poly, r_closed


class ChernContext:
    """p, l, and the ring F_p[xi_1, eta_1, ..., xi_l, eta_l]."""

    __slots__ = ("p", "l", "ring")

    def __init__(self, p: int, l: int):
        check_modulus(p)
        if p == 2:
            raise ValueError("the conjugation representation needs an odd prime")
        if l < 1:
            raise ValueError("l must be >= 1")
        names = []
        for k in range(1, l + 1):
            names += [f"xi{k}", f"eta{k}"]
        self.p = p
        self.l = l
        self.ring = PolyRing(p, names)

    def __eq__(self, other):
        if isinstance(other, ChernContext):
            return self.p == other.p and self.l == other.l
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.l))

    def __repr__(self):
        return f"ChernContext(p={self.p}, l={self.l})"


class GradedChern:
    """Graded parts of the total restricted Chern class, by half-degree."""

    __slots__ = ("ring", "top", "parts")

    def __init__(self, ring: PolyRing, top: int, parts: dict):
        self.ring = ring
        self.top = top
        self.parts = parts

    def part(self, d: int) -> Poly:
        return self.parts.get(d, self.ring.zero())


@lru_cache(maxsize=None)
def total_conj_chern(ctx: ChernContext) -> GradedChern:
    """The exact product of the p^{2l} linear factors (the zero tuple
    contributes the factor 1), split into graded parts."""
    top = ctx.p ** (2 * ctx.l)
    tring = PolyRing(ctx.p, ctx.ring.variables + ("T",))
    coeffs = _split_last(linear_form_product(tring), ctx.ring)
    parts = {top - e: part for e, part in coeffs.items()}
    return GradedChern(ring=ctx.ring, top=top - 1, parts=parts)


def _dickson_images(ctx: ChernContext, swap_last_pair: bool = False):
    """The substitution (eta_1, xi_1, eta_2, xi_2, ...) feeding the invariants;
    optionally with the final pair in the (xi_l, eta_l) order instead."""
    images = []
    for k in range(ctx.l):
        xi = ctx.ring.variable(2 * k)
        eta = ctx.ring.variable(2 * k + 1)
        if swap_last_pair and k == ctx.l - 1:
            images += [xi, eta]
        else:
            images += [eta, xi]
    return images


def dickson_on_classes(ctx: ChernContext, k: int, swap_last_pair: bool = False) -> Poly:
    """C_{2l,k} evaluated at (eta_1, xi_1, ..., eta_l, xi_l)."""
    dctx = DicksonContext(ctx.p, 2 * ctx.l)
    return dickson_c(dctx, k).compose(_dickson_images(ctx, swap_last_pair), ctx.ring)


def delta_on_classes(ctx: ChernContext, i: int) -> Poly:
    """The Moore minor in the same class variables."""
    dctx = DicksonContext(ctx.p, 2 * ctx.l)
    return delta_ni(dctx, i).compose(_dickson_images(ctx), ctx.ring)


def verify_conj_chern(ctx: ChernContext) -> list:
    """Every graded part of the product equals the matching signed Dickson
    invariant in the class variables, and all other parts vanish."""
    p, l = ctx.p, ctx.l
    top = p ** (2 * l)
    checks = []
    special = {top - p**k: k for k in range(2 * l + 1)}

    def gamma_check(d, k):
        def run():
            got = total_conj_chern(ctx).part(d)
            expected = dickson_on_classes(ctx, k)
            if k % 2:
                expected = -expected
            return agree(got, expected)

        return run

    for d in sorted(special, reverse=True):
        checks.append(timed_check(f"gamma-degree-{d}", gamma_check(d, special[d])))

    def vanishing():
        chern = total_conj_chern(ctx)
        bad = [
            d
            for d in range(1, top + 1)
            if d not in special and not chern.part(d).is_zero()
        ]
        if bad:
            return False, f"unexpected nonzero parts in degrees {bad[:5]}"
        return True, f"degrees 1..{top} outside the p-power pattern all vanish"

    checks.append(timed_check("vanishing-elsewhere", vanishing))

    def order_invariance():
        for k in range(2 * l + 1):
            main = dickson_on_classes(ctx, k)
            alt = dickson_on_classes(ctx, k, swap_last_pair=True)
            if main != alt:
                return False, (
                    f"argument orders disagree for C_{{{2 * l},{k}}}; "
                    + diff_detail(main, alt)
                )
        return True, "both documented argument orders agree"

    checks.append(timed_check("argument-order-invariance", order_invariance))
    return checks


def verify_top_chern(ctx: ChernContext) -> list:
    """The top graded part is the (p-1)-st power of the Moore determinant in
    the class variables, and the row-0 minor is its p-th power."""
    p, l = ctx.p, ctx.l
    top = p ** (2 * l)

    def top_part():
        got = total_conj_chern(ctx).part(top - 1)
        return agree(got, delta_on_classes(ctx, 2 * l) ** (p - 1))

    def zero_minor():
        return agree(delta_on_classes(ctx, 0), delta_on_classes(ctx, 2 * l) ** p)

    return [
        timed_check("top-gamma-power", top_part),
        timed_check("minor-frobenius-power", zero_minor),
    ]


def verify_vistoli(p: int) -> list:
    """The rank-one closed forms of the two surviving Chern classes and the
    two product relations they impose on r_1 and r_2."""
    ctx = ChernContext(p, 1)
    ring = ctx.ring
    xi = ring.variable("xi1")
    eta = ring.variable("eta1")
    r1 = even_to_poly(r_closed(p, 1, 1), ring)
    r2 = even_to_poly(r_closed(p, 2, 1), ring)
    checks = []

    mid, top = p * p - p, p * p - 1

    def gamma(d):
        return total_conj_chern(ctx).part(d)

    def mid_closed_form():
        got = gamma(mid)
        expected = -(xi ** (p * p - p)) - eta ** (p - 1) * (
            xi ** (p - 1) - eta ** (p - 1)
        ) ** (p - 1)
        return agree(got, expected)

    checks.append(timed_check("gamma-mid-closed-form", mid_closed_form))

    def top_closed_form():
        got = gamma(top)
        expected = r1 ** (p - 1)
        direct = (xi**p * eta - xi * eta**p) ** (p - 1)
        if got != expected:
            return agree(got, expected)
        return agree(expected, direct)

    checks.append(timed_check("gamma-top-closed-form", top_closed_form))

    def r2_relation():
        return agree(r2, -(gamma(mid) * r1))

    checks.append(timed_check("r2-relation", r2_relation))

    def r1_power_relation():
        return agree(r1**p, gamma(top) * r1)

    checks.append(timed_check("r1-power-relation", r1_power_relation))
    return checks
