"""The restricted total Chern class of the conjugation representation.

Restricted to V of rank 2l, the total class is the product of the linear
factors 1 + sum(i_k xi_k + j_k eta_k) over all nonzero tuples of F_p^{2l}.
It is the Dickson product f_{2l} with x_{2k-1}, x_{2k} read as xi_k, eta_k:
the graded part of degree d is the coefficient of X^{p^{2l} - d}, read from
dickson.f_n_coefficients and re-wrapped, terms shared, over the ring of
steenrod.CohAlgebra(p, l), which every function here takes, for l in 1..3.
The paper identifies these parts with
the Dickson invariants C_{2l,k} = Delta_{2l,k} / Delta_{2l,2l} in the class
variables; the checks compare them with the Moore minors cross-multiplied,
so no quotient is formed.  Each cross-multiplication goes through
part_times, a memo keyed by the values of both operands, which the relations
module reads when its own R_4(r) equals Delta_{4,4}.  Degrees follow the
half-degree convention: each ring variable counts 1, standing for a
cohomology class of topological degree 2.
"""

from __future__ import annotations

from functools import lru_cache, partial

from .dickson import DicksonContext, _nonzero, delta_ni, f_n_coefficients
from .poly import Poly, PolyRing, agree, diff_detail
from .report import timed_check, two_routes
from .steenrod import CohAlgebra, even_to_poly, r_closed


class GradedChern:
    """Graded parts of the total restricted Chern class, by half-degree."""

    __slots__ = ("ring", "parts")

    def __init__(self, ring: PolyRing, parts: dict):
        self.ring = ring
        self.parts = parts

    def part(self, d: int) -> Poly:
        return self.parts.get(d, self.ring.zero())


def _dickson_context(alg: CohAlgebra) -> DicksonContext:
    """The Dickson context of rank 2l over alg's prime.  DicksonContext
    builds ranks up to 6, so l > 3 is refused here, in terms of l."""
    if alg.m > 6:
        raise ValueError(f"l must be in 1..3 for the Chern classes, got {alg.m // 2}")
    return DicksonContext(alg.p, alg.m)


def total_conj_chern(alg: CohAlgebra) -> GradedChern:
    """The exact product of the p^{2l} linear factors (the zero tuple
    contributes the factor 1), split into graded parts: the coefficients of
    f_{2l} over alg.ring, each sharing its term dict with the cached one."""
    top = alg.p**alg.m
    coeffs = f_n_coefficients(_dickson_context(alg))
    parts = {top - e: Poly._raw(alg.ring, c._terms) for e, c in coeffs.items()}
    return GradedChern(alg.ring, parts)


def _dickson_images(alg: CohAlgebra, swap_last_pair: bool = False):
    """The substitution (eta_1, xi_1, eta_2, xi_2, ...) feeding the invariants;
    optionally with the final pair in the (xi_l, eta_l) order instead."""
    # xi_k and eta_k are the variables 2k - 2 and 2k - 1 of alg.ring, so
    # s ^ 1 swaps each pair
    images = [alg.ring.variable(s ^ 1) for s in range(alg.m)]
    if swap_last_pair:
        images[-2:] = reversed(images[-2:])
    return images


def delta_on_classes(alg: CohAlgebra, i: int, swap_last_pair: bool = False) -> Poly:
    """The Moore minor Delta_{2l,i} evaluated at (eta_1, xi_1, ..., eta_l, xi_l),
    or with the final pair in the (xi_l, eta_l) order."""
    return delta_ni(_dickson_context(alg), i).compose(_dickson_images(alg, swap_last_pair))


def _top_minor(alg: CohAlgebra, swap_last_pair: bool = False) -> Poly:
    """Delta_{2l,2l} in the class variables, the denominator of every C_{2l,k}."""
    order = "swapped class variables" if swap_last_pair else "class variables"
    n = alg.m
    return _nonzero(delta_on_classes(alg, n, swap_last_pair), f"Delta_{{{n},{n}}} of the {order}")


@lru_cache(maxsize=None)
def part_times(part: Poly, factor: Poly) -> Poly:
    """part * factor, remembered by the values of both operands: a changed
    operand is a new key, so a fault in either is computed, not recalled."""
    return part * factor


def verify_conj_chern(alg: CohAlgebra) -> list:
    """Every graded part of the product equals the matching signed Dickson
    invariant in the class variables, and all other parts vanish."""
    _dickson_context(alg)  # refuses l > 3 before any check runs
    p, m = alg.p, alg.m
    top = p**m
    special = {top - p**k: k for k in range(m + 1)}

    def part_times_denominator(d, k):
        product = part_times(total_conj_chern(alg).part(d), _top_minor(alg))
        return -product if k % 2 else product

    checks = [
        two_routes(
            f"gamma-degree-{d}",
            partial(part_times_denominator, d, k),
            partial(delta_on_classes, alg, k),
        )
        for d, k in sorted(special.items(), reverse=True)
    ]

    def vanishing():
        chern = total_conj_chern(alg)
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
        main_top, alt_top = _top_minor(alg), _top_minor(alg, swap_last_pair=True)
        for k in range(m + 1):
            lhs = delta_on_classes(alg, k) * alt_top
            rhs = delta_on_classes(alg, k, swap_last_pair=True) * main_top
            if lhs != rhs:
                return False, (
                    f"argument orders disagree for C_{{{m},{k}}}; " + diff_detail(lhs, rhs)
                )
        return True, "both documented argument orders agree"

    checks.append(timed_check("argument-order-invariance", order_invariance))
    return checks


def verify_top_chern(alg: CohAlgebra) -> list:
    """The top graded part is the (p-1)-st power of the Moore determinant in
    the class variables, and the row-0 minor is its p-th power."""
    _dickson_context(alg)  # refuses l > 3 before any check runs
    p, m = alg.p, alg.m
    return [
        two_routes(
            "top-gamma-power",
            lambda: total_conj_chern(alg).part(p**m - 1),
            lambda: delta_on_classes(alg, m) ** (p - 1),
        ),
        two_routes(
            "minor-frobenius-power",
            partial(delta_on_classes, alg, 0),
            lambda: delta_on_classes(alg, m) ** p,
        ),
    ]


def verify_vistoli(p: int) -> list:
    """The rank-one closed forms of the two surviving Chern classes and the
    two product relations they impose on r_1 and r_2."""
    alg = CohAlgebra(p, 1)
    xi, eta = alg.ring.variable(0), alg.ring.variable(1)
    mid, top = p * p - p, p * p - 1

    def gamma(d):
        return total_conj_chern(alg).part(d)

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
