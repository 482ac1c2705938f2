"""The restricted total Chern class of the conjugation representation.

Restricted to V of rank 2l, the total class is the product of the linear
factors 1 + sum(i_k xi_k + j_k eta_k) over all nonzero tuples of F_p^{2l}.
It is read off the Dickson product f_{2l} of dickson.f_n_product, the
product of X - sum(k_i x_i) over all tuples, with x_{2k-1}, x_{2k} read as
xi_k, eta_k: the graded part of degree d is the coefficient of
X^{p^{2l} - d}.  The ring of the classes is the polynomial part of
steenrod.CohAlgebra(p, l).  The paper identifies these parts with
the Dickson invariants C_{2l,k} = Delta_{2l,k} / Delta_{2l,2l} in the class
variables; the checks compare them with the Moore minors cross-multiplied,
so no quotient is formed.  Degrees follow the half-degree
convention: each ring variable counts 1, standing for a cohomology class of
topological degree 2.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .dickson import DicksonContext, _nonzero, delta_ni, f_n_product
from .poly import Poly, PolyRing, _split_last, agree, diff_detail
from .report import timed_check, two_routes
from .steenrod import CohAlgebra, even_to_poly, r_closed


class ChernContext:
    """p, l, and the ring F_p[xi_1, eta_1, ..., xi_l, eta_l] of the even
    generators of CohAlgebra(p, l), which checks p and l."""

    __slots__ = ("p", "l", "ring")

    def __init__(self, p: int, l: int):
        self.p = p
        self.l = l
        self.ring = PolyRing(p, CohAlgebra(p, l).even_names)

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

    __slots__ = ("ring", "parts")

    def __init__(self, ring: PolyRing, parts: dict):
        self.ring = ring
        self.parts = parts

    def part(self, d: int) -> Poly:
        return self.parts.get(d, self.ring.zero())


@lru_cache(maxsize=None)
def total_conj_chern(ctx: ChernContext) -> GradedChern:
    """The exact product of the p^{2l} linear factors (the zero tuple
    contributes the factor 1), split into graded parts: f_{2l} read in the
    class variables."""
    top = ctx.p ** (2 * ctx.l)
    coeffs = _split_last(f_n_product(DicksonContext(ctx.p, 2 * ctx.l)), ctx.ring)
    return GradedChern(ctx.ring, {top - e: part for e, part in coeffs.items()})


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


def delta_on_classes(ctx: ChernContext, i: int, swap_last_pair: bool = False) -> Poly:
    """The Moore minor Delta_{2l,i} evaluated at (eta_1, xi_1, ..., eta_l, xi_l),
    or with the final pair in the (xi_l, eta_l) order."""
    dctx = DicksonContext(ctx.p, 2 * ctx.l)
    return delta_ni(dctx, i).compose(_dickson_images(ctx, swap_last_pair))


def _top_minor(ctx: ChernContext, swap_last_pair: bool = False) -> Poly:
    """Delta_{2l,2l} in the class variables, the denominator of every C_{2l,k}."""
    order = "swapped class variables" if swap_last_pair else "class variables"
    n = 2 * ctx.l
    return _nonzero(delta_on_classes(ctx, n, swap_last_pair), f"Delta_{{{n},{n}}} of the {order}")


def verify_conj_chern(ctx: ChernContext) -> list:
    """Every graded part of the product equals the matching signed Dickson
    invariant in the class variables, and all other parts vanish."""
    p, l = ctx.p, ctx.l
    top = p ** (2 * l)
    special = {top - p**k: k for k in range(2 * l + 1)}

    def part_times_denominator(d, k):
        product = _top_minor(ctx) * total_conj_chern(ctx).part(d)
        return -product if k % 2 else product

    checks = [
        two_routes(
            f"gamma-degree-{d}",
            partial(part_times_denominator, d, k),
            partial(delta_on_classes, ctx, k),
        )
        for d, k in sorted(special.items(), reverse=True)
    ]

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
        main_top, alt_top = _top_minor(ctx), _top_minor(ctx, swap_last_pair=True)
        for k in range(2 * l + 1):
            lhs = delta_on_classes(ctx, k) * alt_top
            rhs = delta_on_classes(ctx, k, swap_last_pair=True) * main_top
            if lhs != rhs:
                return False, (
                    f"argument orders disagree for C_{{{2 * l},{k}}}; " + diff_detail(lhs, rhs)
                )
        return True, "both documented argument orders agree"

    checks.append(timed_check("argument-order-invariance", order_invariance))
    return checks


def verify_top_chern(ctx: ChernContext) -> list:
    """The top graded part is the (p-1)-st power of the Moore determinant in
    the class variables, and the row-0 minor is its p-th power."""
    p, l = ctx.p, ctx.l
    top = p ** (2 * l)
    return [
        two_routes(
            "top-gamma-power",
            lambda: total_conj_chern(ctx).part(top - 1),
            lambda: delta_on_classes(ctx, 2 * l) ** (p - 1),
        ),
        two_routes(
            "minor-frobenius-power",
            partial(delta_on_classes, ctx, 0),
            lambda: delta_on_classes(ctx, 2 * l) ** p,
        ),
    ]


def verify_vistoli(p: int) -> list:
    """The rank-one closed forms of the two surviving Chern classes and the
    two product relations they impose on r_1 and r_2."""
    ctx = ChernContext(p, 1)
    xi, eta = ctx.ring.variable(0), ctx.ring.variable(1)
    mid, top = p * p - p, p * p - 1

    def gamma(d):
        return total_conj_chern(ctx).part(d)

    def r(i):
        return even_to_poly(r_closed(p, i, 1))

    def mid_closed_form():
        return -(xi ** (p * p - p)) - eta ** (p - 1) * (
            xi ** (p - 1) - eta ** (p - 1)
        ) ** (p - 1)

    checks = [two_routes("gamma-mid-closed-form", partial(gamma, mid), mid_closed_form)]

    def top_closed_form():
        got = gamma(top)
        expected = r(1) ** (p - 1)
        direct = (xi**p * eta - xi * eta**p) ** (p - 1)
        if got != expected:
            return agree(got, expected)
        return agree(expected, direct)

    checks.append(timed_check("gamma-top-closed-form", top_closed_form))
    checks.append(two_routes("r2-relation", partial(r, 2), lambda: -(gamma(mid) * r(1))))
    checks.append(two_routes("r1-power-relation", lambda: r(1) ** p, lambda: gamma(top) * r(1)))
    return checks
