"""The mod-p cohomology of the rank-2l elementary abelian group V, a free
graded-commutative algebra, with Bockstein, reduced powers, and the Milnor
primitives Q_i.

CohAlgebra(p, l) is H^*(BV; F_p) for an odd prime p, with fixed generator
names: the pairs (a_k, xi_k) and (b_k, eta_k), k = 1..l, each an exterior
generator of degree 1 and a polynomial generator of degree 2 linked by the
Bockstein.  Its polynomial part F_p[xi_1, eta_1, ..., xi_l, eta_l] is the
algebra's .ring, where even_to_poly rewrites an even class and the Chern
classes of the chern module live.

Reduced powers are realized through the total operation, the ring
endomorphism fixing the exterior generators and sending each polynomial
generator t to t + t^p; the degree-k operation is the component raising
degree by 2k(p-1), which power_op enumerates directly in one budgeted loop
over the exponents, skipping the terms of degree below k.  milnor_chain
lists Q_0(x), ..., Q_i(x) by Milnor's recursion without a cache, and skips
the subtrees of the zero class.  No Adem-relation rewriting is needed on
this algebra.

CohClass is a sparse sum like poly.Poly and inherits from their common base
its addition, scaling, equality, context check and canonical text; it adds
its graded-commutative product and the order and names of its terms.  A
term's key packs its polynomial exponents as poly.PolyRing does, shifted
above a bitmask of its exterior generators (bit k - 1 for a_k).  A product
of two terms with disjoint masks is then the sum of their keys, times the
sign of merging the two exterior words, looked up per pair of masks.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial

from .errors import ContextMismatch, DepthGuard, OddPartPresent
from .fp import _binom_support, check_modulus
from .poly import (
    Poly,
    PolyRing,
    _add_terms,
    _ExponentLayout,
    _perm_sign,
    _powers,
    _SparseSum,
    diff_detail,
    jacobian_det,
)
from .report import timed_check, two_routes

MAX_MILNOR_INDEX = 6


@lru_cache(maxsize=None)
def _sign_table(m: int) -> tuple:
    """_sign_table(m)[s][t]: the sign of merging the sorted exterior words
    with the masks s and t into one sorted word, 0 if they share a
    generator."""

    def sign(s: int, t: int) -> int:
        if s & t:
            return 0
        word = [k for k in range(m) if s >> k & 1] + [k for k in range(m) if t >> k & 1]
        return _perm_sign(sorted(word), word)

    size = 1 << m
    return tuple(tuple(sign(s, t) for t in range(size)) for s in range(size))


class CohAlgebra(_ExponentLayout):
    """Lambda(a_1, b_1, ..., a_l, b_l) tensor F_p[xi_1, eta_1, ..., xi_l, eta_l]
    over an odd prime p: the cohomology of BV for V of rank m = 2l.

    Generator pair 2k-1 is (a_k, xi_k) and pair 2k is (b_k, eta_k); the
    exterior generator has degree 1, the polynomial one degree 2, and the
    Bockstein sends the first to the second.  ring is the polynomial ring
    F_p[xi_1, eta_1, ..., xi_l, eta_l] of the even generators.  The algebra
    also keeps, per polynomial generator, the shift of its exponent field
    and the key increment of its t^(p-1), by which the reduced powers step
    over the Lucas table of an exponent.
    """

    __slots__ = ("m", "odd_names", "even_names", "ring", "_signs", "_positions")

    def __init__(self, p: int, l: int):
        check_modulus(p)
        if p == 2:
            raise ValueError("the algebra is defined here for odd primes")
        if l < 1:
            raise ValueError("l must be >= 1")
        m = 2 * l
        self._lay_out(p, m)
        self.m = m
        self.odd_names = tuple(f"{v}{k}" for k in range(1, l + 1) for v in ("a", "b"))
        self.even_names = tuple(f"{v}{k}" for k in range(1, l + 1) for v in ("xi", "eta"))
        self.ring = PolyRing(p, self.even_names)
        self._identity = (p, m)
        self._signs = _sign_table(m)
        self._positions = [(s, (p - 1) * u << m) for s, u in zip(self._shifts, self._units)]

    def __repr__(self):
        return f"CohAlgebra(p={self.p}, l={self.m // 2})"

    def term(self, odd, even, coeff: int = 1) -> CohClass:
        return CohClass(self, {(tuple(odd), tuple(even)): coeff})

    def _encode(self, key) -> int:
        """The packed key of an (odd, even) pair, checked."""
        odd, even = key
        odd = tuple(odd)
        even = tuple(even)
        m = self.m
        if len(set(odd)) != len(odd) or tuple(sorted(odd)) != odd:
            raise ValueError(f"exterior part {odd} must be strictly increasing")
        if odd and not (1 <= odd[0] and odd[-1] <= m):
            raise ValueError(f"exterior index out of range in {odd}")
        if len(even) != m or any(e < 0 for e in even):
            raise ValueError(f"bad polynomial exponents {even}")
        return self._pack(even) << m | sum(1 << (k - 1) for k in odd)

    def _decode(self, key: int) -> tuple:
        """The (odd, even) pair of a packed key."""
        m = self.m
        odd = tuple(k + 1 for k in range(m) if key >> k & 1)
        return odd, self._unpack(key >> m)


class CohClass(_SparseSum):
    """An element of the algebra, a finite sum of signed monomial terms.

    A term is (S, e): S a sorted tuple of exterior indices, e the exponent
    vector of the polynomial part.  Topological degree: |S| + 2*sum(e).
    Classes may be inhomogeneous; operations act per homogeneous component.
    """

    __slots__ = ()
    algebra = _SparseSum._ctx  # the context slot, read and set as .algebra
    _mismatch = ContextMismatch

    def _sort_key(self, key):
        """Topological degree, then graded lex on the polynomial part."""
        odd, even = self.algebra._decode(key)
        return (len(odd) + 2 * sum(even), sum(even), even, odd)

    def _monomial_text(self, key) -> str:
        alg = self.algebra
        odd, even = alg._decode(key)
        factors = [alg.odd_names[k - 1] for k in odd]
        return "*".join(factors + _powers(alg.even_names, even))

    def __mul__(self, other):
        if isinstance(other, int):
            return self._scaled(other)
        if not isinstance(other, CohClass):
            return NotImplemented
        self._check(other)
        alg = self.algebra
        a, b = self._terms, other._terms
        if not a or not b:
            return alg.zero()
        m = alg.m
        alg._fit((max(a) >> m) + (max(b) >> m))
        low = (1 << m) - 1
        signs = alg._signs
        bitems = [(k, k & low, c) for k, c in b.items()]

        def products():
            for k1, c1 in a.items():
                row = signs[k1 & low]
                for k2, mask, c2 in bitems:
                    if sign := row[mask]:
                        yield k1 + k2, sign * c1 * c2

        return CohClass._raw(alg, _add_terms(products(), alg.p))

    __rmul__ = __mul__

    # -- grading ---------------------------------------------------------

    def degrees(self) -> set:
        m = self.algebra.m
        low, dshift = (1 << m) - 1, self.algebra._dshift + m
        return {(k & low).bit_count() + 2 * (k >> dshift) for k in self._terms}

    def degree(self):
        """Topological degree if homogeneous and nonzero, else None."""
        degs = self.degrees()
        return degs.pop() if len(degs) == 1 else None


CohAlgebra._sum = CohClass


# -- operations -------------------------------------------------------------


def bockstein(x: CohClass) -> CohClass:
    """The degree-(+1) differential: a_k -> x_k, x_k -> 0, extended as a
    derivation with the Koszul sign."""
    alg = x.algebra
    m = alg.m
    # the key change of a_k -> x_k: drop mask bit k - 1, add x_k's exponent
    steps = [((alg._units[k] << m) - (1 << k), 1 << k) for k in range(m)]

    def terms():
        for key, c in x._terms.items():
            pos = 0
            for step, bit in steps:
                if key & bit:
                    yield key + step, -c if pos % 2 else c
                    pos += 1

    out = _add_terms(terms(), alg.p)
    if out:
        # one more x_k reaches at most the guard bit, so nothing carries
        alg._fit(max(out) >> m)
    return CohClass._raw(alg, out)


def total_power(x: CohClass) -> CohClass:
    """The total reduced-power operation: the ring endomorphism fixing the
    exterior generators and sending each even generator t to t + t^p, so
    t^e -> sum_j C(e,j) t^(e + j(p-1)) over the whole Lucas table of e."""
    alg = x.algebra
    p, m = alg.p, alg.m
    if not x._terms:
        return x
    # t^e -> t^(pe) is the largest image, and scaling a key scales its degree
    alg._fit((max(x._terms) >> m) * p)
    positions, fmask = alg._positions, alg._fmask

    def terms():
        for key, c in x._terms.items():
            even = key >> m
            images = [(key, c)]
            for s, unit in positions:
                if e := even >> s & fmask:
                    steps = [(j * unit, b) for j, b in _binom_support(e, p).items()]
                    images = [(k + inc, v * b) for k, v in images for inc, b in steps]
            yield from images

    return CohClass._raw(alg, _add_terms(terms(), p))


def power_op(k: int, x: CohClass) -> CohClass:
    """The k-th reduced power: the part of the total operation that raises
    topological degree by 2k(p-1).

    The total operation sends t^e to sum_j C(e,j) t^(e + j(p-1)), so a term
    t_1^e_1..t_m^e_m contributes the picks (j_1..j_m) with j_1 + .. + j_m = k.
    Only those are enumerated, in one loop over the positions: each partial
    pick carries the budget it has left, takes the next position's picks from
    the Lucas table of e_i in increasing order up to that budget, and is
    emitted the moment the budget is spent.  A pick never exceeds its
    exponent, so the exponents of the positions not yet walked, read off the
    key's degree field, bound what a partial pick can still spend; one that
    cannot spend its budget is dropped, a term of degree below k at once,
    and a term stops when no partial pick is left.  At the last position the
    pick is forced to the budget left, so it is looked up, not walked to.
    Inhomogeneous classes need no split, since every term is shifted by the
    same degree."""
    if k < 0:
        raise ValueError("negative power operation index")
    alg = x.algebra
    p, m = alg.p, alg.m
    alg._fit((max(x._terms, default=0) >> m) + (k * (p - 1) << alg._dshift))
    if not x._terms:
        return x
    positions, fmask, dshift = alg._positions, alg._fmask, alg._dshift
    *walked, (last_s, last_unit) = positions

    def terms():
        for key, c in x._terms.items():
            even = key >> m
            rest = even >> dshift  # the degree field: the sum of the exponents
            if rest < k:
                continue
            states = [(k, key, c)]
            for s, unit in walked:
                e = even >> s & fmask
                rest -= e  # now the sum over the positions after this one
                table = _binom_support(e, p, k)
                grown = []
                for state in states:
                    left, kk, coeff = state
                    for j, b in table.items():  # in increasing j
                        if j >= left:
                            if j == left:
                                yield kk + j * unit, coeff * b
                            break
                        if left - j <= rest:
                            grown.append((left - j, kk + j * unit, coeff * b) if j else state)
                if not grown:
                    break
                states = grown
            else:
                table = _binom_support(even >> last_s & fmask, p, k)
                for left, kk, coeff in states:
                    if b := table.get(left):
                        yield kk + left * last_unit, coeff * b

    return CohClass._raw(alg, _add_terms(terms(), p))


def milnor_chain(i: int, x: CohClass) -> list:
    """[Q_0(x), ..., Q_i(x)]: the Milnor primitives by the recursion
    Q_0 = Bockstein, Q_i = P^{p^{i-1}} Q_{i-1} - Q_{i-1} P^{p^{i-1}}.

    The chain of x to i - 1 gives the first term, and its last entry is the
    Q_{i-1} that P^{p^{i-1}} is applied to; the chain of P^{p^{i-1}} x gives
    the second.  No (index, class) pair recurs in this tree, so nothing is
    cached, and a changed power_op or bockstein is always seen.  The chain
    of the zero class is i + 1 zeros by linearity, so a zero subtree is not
    walked."""
    if i < 0:
        raise ValueError("negative Milnor index")
    if i > MAX_MILNOR_INDEX:
        raise DepthGuard(f"Milnor index {i} exceeds the depth guard {MAX_MILNOR_INDEX}")
    if not x._terms:
        return [x] * (i + 1)
    if i == 0:
        return [bockstein(x)]
    k = x.algebra.p ** (i - 1)
    chain = milnor_chain(i - 1, x)
    chain.append(power_op(k, chain[-1]) - milnor_chain(i - 1, power_op(k, x))[-1])
    return chain


def milnor_q(i: int, x: CohClass) -> CohClass:
    """The i-th Milnor primitive Q_i(x), the last entry of milnor_chain(i, x)."""
    return milnor_chain(i, x)[-1]


def x_class(p: int, l: int) -> CohClass:
    """sum_j a_j eta_j - xi_j b_j: the canonical degree-3 class of BV^{2l}."""
    alg = CohAlgebra(p, l)
    out = alg.zero()
    for s in range(0, 2 * l, 2):  # pair j at the 0-based positions s and s + 1
        eta, xi = [0] * alg.m, [0] * alg.m
        eta[s + 1] = xi[s] = 1
        out = out + alg.term((s + 1,), eta) - alg.term((s + 2,), xi)
    return out


def r_closed(p: int, i: int, l: int) -> CohClass:
    """sum_j xi_j^{p^i} eta_j - xi_j eta_j^{p^i}: the closed form of the i-th
    Milnor primitive applied to the canonical degree-3 class."""
    if i < 0:
        raise ValueError("i must be >= 0")
    alg = CohAlgebra(p, l)
    q = p**i
    out = alg.zero()
    for s in range(0, 2 * l, 2):  # xi_j and eta_j at the 0-based positions s and s + 1
        hi, lo = [0] * alg.m, [0] * alg.m
        hi[s : s + 2] = q, 1
        lo[s : s + 2] = 1, q
        out = out + alg.term((), hi) - alg.term((), lo)
    return out


def even_to_poly(x: CohClass) -> Poly:
    """Rewrite a purely even class as a polynomial over its algebra's ring,
    with degrees halved."""
    alg = x.algebra
    # the even part of a key is the key of the same monomial in alg.ring
    m = alg.m
    low = (1 << m) - 1
    terms: dict = {}
    for key, c in x._terms.items():
        if key & low:
            raise OddPartPresent(f"term with exterior factors {alg._decode(key)[0]}")
        terms[key >> m] = c
    return Poly._raw(alg.ring, terms)


# -- verification -------------------------------------------------------------


def verify_jacobian_independence(p: int, l: int) -> list:
    """The closed forms r_1..r_{2l} have a nonzero Jacobian determinant with
    respect to (xi_1, eta_1, ..., xi_l, eta_l)."""

    def run():
        rs = [even_to_poly(r_closed(p, i, l)) for i in range(1, 2 * l + 1)]
        det = jacobian_det(rs, range(2 * l))
        if det.is_zero():
            return False, "Jacobian determinant vanished"
        return True, f"nonzero, degree {det.degree()}"

    return [timed_check("jacobian-nonzero", run)]


def random_homogeneous(rng, algebra: CohAlgebra, max_even_exp: int = 4) -> CohClass:
    """A small random homogeneous class, for property checks."""
    m = algebra.m
    for _ in range(64):
        odd = tuple(sorted(rng.sample(range(1, m + 1), rng.randrange(0, min(m, 2) + 1))))
        even = tuple(rng.randrange(0, max_even_exp + 1) for _ in range(m))
        degree = len(odd) + 2 * sum(even)
        if degree:
            break
    terms = {(odd, even): rng.randrange(1, algebra.p)}
    # sometimes add a second term of the same degree
    if rng.random() < 0.5:
        for _ in range(16):
            odd2 = tuple(
                sorted(rng.sample(range(1, m + 1), rng.randrange(0, min(m, 2) + 1)))
            )
            budget = degree - len(odd2)
            if budget < 0 or budget % 2:
                continue
            half = budget // 2
            cuts = sorted(rng.randrange(0, half + 1) for _ in range(m - 1))
            even2 = tuple(
                b - a for a, b in zip([0] + cuts, cuts + [half])
            )
            key = (odd2, even2)
            if key not in terms:
                terms[key] = rng.randrange(1, algebra.p)
                break
    return CohClass(algebra, terms)


def verify_steenrod(p: int, l: int, trials: int = 200, seed: int = 0) -> list:
    """Closed forms of the Milnor primitives plus the structural laws:
    the Bockstein squares to zero, Q_i are anticommuting derivations, the
    total power is a ring endomorphism, and P^0 is the identity.

    The derivation check reads the chains Q_0..Q_3 of x*y, x and y, the
    anticommutation check the chains of each Q_j(x); the total power is
    computed apart from power_op, so it stays an independent route."""
    alg = CohAlgebra(p, l)
    rng = random.Random(seed)

    def q_on_x(i):
        return milnor_q(i, x_class(p, l))

    checks = [
        two_routes(f"milnor-closed-form-q{i}", partial(q_on_x, i), partial(r_closed, p, i, l))
        for i in range(5)
    ]

    def bockstein_squared():
        for _ in range(trials):
            x = random_homogeneous(rng, alg)
            if not bockstein(bockstein(x)).is_zero():
                return False, f"failed on {x.to_text()}"
        return True, f"{trials} random classes"

    checks.append(timed_check("bockstein-squared", bockstein_squared))

    def derivations():
        for t in range(trials):
            x = random_homogeneous(rng, alg, max_even_exp=2)
            y = random_homogeneous(rng, alg, max_even_exp=2)
            sign = -1 if x.degree() % 2 else 1
            chains = zip(milnor_chain(3, x * y), milnor_chain(3, x), milnor_chain(3, y))
            for i, (qxy, qx, qy) in enumerate(chains):
                if qxy != qx * y + x * qy * sign:
                    return False, f"Q_{i} not a derivation on pair {t}"
        return True, f"{trials} random homogeneous pairs, Q_0..Q_3"

    checks.append(timed_check("milnor-derivation", derivations))

    def anticommute():
        for t in range(trials // 4 or 1):
            x = random_homogeneous(rng, alg, max_even_exp=2)
            # qq[j][i] = Q_i Q_j x
            qq = [milnor_chain(3, q) for q in milnor_chain(3, x)]
            for i in range(4):
                if not qq[i][i].is_zero():
                    return False, f"Q_{i}^2 != 0 on class {t}"
                for j in range(i + 1, 4):
                    if not (qq[j][i] + qq[i][j]).is_zero():
                        return False, f"Q_{i}Q_{j} + Q_{j}Q_{i} != 0 on class {t}"
        return True, "squares and anticommutators vanish, Q_0..Q_3"

    checks.append(timed_check("milnor-anticommute", anticommute))

    def total_hom():
        for t in range(trials):
            x = random_homogeneous(rng, alg, max_even_exp=3)
            y = random_homogeneous(rng, alg, max_even_exp=3)
            lhs, rhs = total_power(x * y), total_power(x) * total_power(y)
            if lhs != rhs:
                detail = diff_detail(lhs, rhs)
                return False, f"multiplicativity failed on pair {t}; {detail}"
            if power_op(0, x) != x:
                return False, "P^0 is not the identity"
        return True, f"{trials} random pairs"

    checks.append(timed_check("total-power-endomorphism", total_hom))
    return checks
