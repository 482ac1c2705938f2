"""(2,2)-partition combinatorics and the graded relations they encode.

A 4-element index set has exactly three splittings into unordered pairs,
listed as u, v, w.  Their signs and the slash pairing drive a family of
three-term quadratic polynomials R_j in the weighted ring F_p[Y_1..Y_4],
deg(Y_i) = p^i + 1.  Substituting the closed-form classes r_i for Y_i turns
each R_j into a Moore minor, and from there into a relation between the
restricted Chern classes and the r_i.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import NamedTuple

from .chern import ChernContext, delta_on_classes, total_conj_chern
from .errors import IndexOutOfRange, SamePartition, VerificationFailure
from .fp import check_modulus
from .poly import Poly, PolyRing, _perm_sign, diff_detail
from .report import FAIL, POLY_BUDGET, refuse_above, timed_check, two_routes
from .steenrod import even_to_poly, r_closed


def index_set4(values) -> tuple:
    """Four distinct non-negative integers, sorted ascending."""
    vals = tuple(sorted(values))
    if len(vals) != 4 or len(set(vals)) != 4:
        raise ValueError(f"need four distinct values, got {values!r}")
    if vals[0] < 0:
        raise ValueError("indices must be non-negative")
    return vals


class Partition22(NamedTuple):
    """An unordered splitting of a 4-element set into two unordered pairs;
    stored with each block sorted and the blocks ordered by first element."""

    first: tuple
    second: tuple

    @classmethod
    def of(cls, block1, block2) -> Partition22:
        a = tuple(sorted(block1))
        b = tuple(sorted(block2))
        if len(a) != 2 or len(b) != 2 or set(a) & set(b):
            raise ValueError(f"blocks {block1!r}, {block2!r} do not partition")
        if a > b:
            a, b = b, a
        return cls(a, b)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.first + self.second))


def partitions22(iset) -> list:
    """The three (2,2)-partitions u, v, w of a 4-element set, in that order."""
    i1, i2, i3, i4 = index_set4(iset)
    return [
        Partition22.of((i1, i2), (i3, i4)),
        Partition22.of((i1, i3), (i2, i4)),
        Partition22.of((i1, i4), (i2, i3)),
    ]


def epsilon(rho: Partition22) -> int:
    """Sign of the permutation listing the blocks after the sorted support;
    both block orders must give the same sign."""
    base = rho.support
    k1, l1 = rho.first
    k2, l2 = rho.second
    sign_a = _perm_sign(base, (k1, l1, k2, l2))
    sign_b = _perm_sign(base, (k2, l2, k1, l1))
    if sign_a != sign_b:
        raise VerificationFailure(f"block order changed the sign of {rho!r}")
    return sign_a


def slash(rho: Partition22, kappa: Partition22) -> int:
    """+1 if the bijection between the blocks of rho induced by kappa is
    increasing, else -1; independent of which block is the domain."""
    if rho == kappa:
        raise SamePartition("slash needs two distinct partitions")
    if rho.support != kappa.support:
        raise ValueError("partitions live on different index sets")

    def from_domain(dom, cod) -> int:
        k, l = dom
        if Partition22.of((k, cod[0]), (l, cod[1])) == kappa:
            fk, fl = cod[0], cod[1]
        elif Partition22.of((k, cod[1]), (l, cod[0])) == kappa:
            fk, fl = cod[1], cod[0]
        else:
            raise ValueError("no pairing bijection exists")
        return 1 if fk < fl else -1

    value = from_domain(rho.first, rho.second)
    if value != from_domain(rho.second, rho.first):
        raise VerificationFailure(f"domain choice changed {rho!r}/{kappa!r}")
    return value


def verify_partition_signs(iset) -> list:
    """sum over partitions rho != kappa of epsilon(rho) * (rho/kappa) is zero
    for each of the three choices of kappa."""
    parts = partitions22(iset)

    def total_for(kappa):
        def run():
            total = sum(
                epsilon(rho) * slash(rho, kappa) for rho in parts if rho != kappa
            )
            return total == 0, f"sum = {total}"

        return run

    return [timed_check(f"kappa-{n}", total_for(kappa)) for n, kappa in zip("uvw", parts)]


def verify_signs() -> list:
    """verify_partition_signs on each 4-subset I of {0..6}, one check per I,
    and the frozen sign table of the partitions of {0, 1, 2, 3}."""

    def signs_of(iset):
        def run():
            failed = [
                f"{c.name}: {c.detail}"
                for c in verify_partition_signs(iset)
                if c.status == FAIL
            ]
            return not failed, "; ".join(failed) or "all three kappa sums vanish"

        return run

    checks = [
        timed_check("I=" + ",".join(map(str, iset)), signs_of(iset))
        for iset in combinations(range(7), 4)
    ]

    def canonical_values():
        u, v, w = partitions22((0, 1, 2, 3))
        eps = (epsilon(u), epsilon(v), epsilon(w))
        slashes = (slash(u, v), slash(v, u), slash(w, u), slash(u, w), slash(v, w), slash(w, v))
        if (eps, slashes) == ((1, -1, 1), (1, 1, 1, -1, -1, -1)):
            return True, "sign table matches"
        return False, f"epsilon of u, v, w: {eps}; u/v, v/u, w/u, u/w, v/w, w/v: {slashes}"

    checks.append(timed_check("canonical-values", canonical_values))
    return checks


def y_ring(p: int) -> PolyRing:
    check_modulus(p)
    return PolyRing(p, ("Y1", "Y2", "Y3", "Y4"))


def r_monomial(i: int, j: int, p: int) -> Poly:
    """Y_{j-i}^{p^i} for 0 <= i < j <= 4."""
    if not 0 <= i < j <= 4:
        raise IndexOutOfRange(f"need 0 <= i < j <= 4, got ({i}, {j})")
    return y_ring(p).monomial({j - i - 1: p**i})


def r_block(block, p: int) -> Poly:
    """The quadratic-block monomial for an unordered pair of indices."""
    i, j = sorted(block)
    return r_monomial(i, j, p)


def r_j_poly(j: int, p: int) -> Poly:
    """The signed three-term sum over the (2,2)-partitions of {0..4} - {j}."""
    if not 0 <= j <= 4:
        raise IndexOutOfRange(f"j must be in 0..4, got {j}")
    iset = tuple(t for t in range(5) if t != j)
    out = y_ring(p).zero()
    for rho in partitions22(iset):
        term = r_block(rho.first, p) * r_block(rho.second, p)
        out = out + term * epsilon(rho)
    return out


def verify_quadratic(p: int) -> list:
    """Scaling every Y_i by a scalar a of F_p scales each R_j by a^2.

    Each check substitutes all p scalars, at about 45 us each (2-core x86,
    Python 3.11, p = 101..10007), so it is guarded by the budget of the
    polynomial kernels."""
    ring = y_ring(p)
    checks = []

    def scaling(j):
        def run():
            refuse_above(f"the {p} scalars", p * 4.5e-5, POLY_BUDGET)
            base = r_j_poly(j, p)
            for a in range(p):
                images = [ring.monomial({t: 1}, a) for t in range(4)]
                scaled = base.compose(images, ring)
                if scaled != base * (a * a):
                    return False, f"a = {a} violates quadratic scaling"
            return True, f"all {p} scalars"

        return run

    for j in range(5):
        checks.append(timed_check(f"quadratic-scaling-j{j}", scaling(j)))
    return checks


def _r_classes(p: int, ring: PolyRing) -> list:
    """The closed-form classes r_1..r_4 for l = 2, as even polynomials."""
    return [even_to_poly(r_closed(p, i, 2), ring) for i in range(1, 5)]


def verify_r_delta(p: int) -> list:
    """Substituting r_i for Y_i turns R_j into the Moore minor with the rows
    (eta_1, xi_1, eta_2, xi_2)."""
    ctx = ChernContext(p, 2)
    ring = ctx.ring
    rs = _r_classes(p, ring)
    checks = []

    def grading():
        for i, r in enumerate(rs, start=1):
            if r.degrees() != {p**i + 1}:
                return False, f"r_{i} is not homogeneous of degree p^{i}+1"
        return True, "deg r_i = p^i + 1 matches the Y_i weights"

    checks.append(timed_check("substitution-grading", grading))

    def substituted(j):
        return r_j_poly(j, p).compose(rs, ring)

    for j in range(5):
        checks.append(
            two_routes(
                f"moore-minor-j{j}", partial(substituted, j), partial(delta_on_classes, ctx, j)
            )
        )
    return checks


def verify_chern_r_relations(p: int) -> list:
    """R_j(r) = (-1)^j gamma_{p^4 - p^j} R_4(r) for j = 0..4 (the j = 4
    instance is the tautology gamma_0 = 1), plus the four explicit displays
    written out with literal exponents."""
    ctx = ChernContext(p, 2)
    ring = ctx.ring
    rs = _r_classes(p, ring)
    checks = []

    def relation_check(j, lhs, base):
        """lhs(r) == (-1)^j gamma_{p^4 - p^j} * base(r), for r = (r_1..r_4)."""

        def run():
            gamma = total_conj_chern(ctx).part(p**4 - p**j)
            left = lhs(*rs)
            right = gamma * base(*rs)
            if j % 2:
                right = -right
            if left == right:
                return True, "tautology gamma_0 = 1" if j == 4 else ""
            return False, diff_detail(left, right)

        return run

    def r_sub(j):
        return lambda *r: r_j_poly(j, p).compose(r, ring)

    for j in range(5):
        checks.append(
            timed_check(f"chern-relation-j{j}", relation_check(j, r_sub(j), r_sub(4)))
        )

    def base(r1, r2, r3, r4):
        return r1 ** (p**2 + 1) - r2 ** (p + 1) + r1**p * r3

    displays = {
        3: lambda r1, r2, r3, r4: r1**p * r4 + r1 * r2 ** (p**2) - r2 * r3**p,
        2: lambda r1, r2, r3, r4: r1 ** (p**3 + 1) + r2**p * r4 - r3 ** (p + 1),
        1: lambda r1, r2, r3, r4: (
            r1 ** (p**3) * r2 - r2 ** (p**2) * r3 + r1 ** (p**2) * r4
        ),
        0: lambda r1, r2, r3, r4: (
            r1 ** (p**3 + p) - r2 ** (p**2 + p) + r1 ** (p**2) * r3**p
        ),
    }
    for j, lhs in displays.items():
        checks.append(timed_check(f"display-j{j}", relation_check(j, lhs, base)))
    return checks
