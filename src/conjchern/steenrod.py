"""The mod-p cohomology of a product of cyclic groups as a free
graded-commutative algebra, with Bockstein, reduced powers, and the Milnor
primitives Q_i.

Generators come in pairs: an exterior generator of degree 1 and a polynomial
generator of degree 2 linked by the Bockstein.  Reduced powers are realized
through the total operation, the ring endomorphism fixing the exterior
generators and sending each polynomial generator t to t + t^p; the degree-k
operation is the component raising degree by 2k(p-1), which power_op
enumerates directly.  No Adem-relation rewriting is needed on this algebra.

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
    """Lambda(a_1..a_m) tensor F_p[x_1..x_m] over an odd prime p.

    The exterior generator a_k has degree 1, the polynomial generator x_k
    degree 2, and the Bockstein sends a_k to x_k.  The algebra also keeps,
    per polynomial generator, the shift of its exponent field and the key
    increment of its t^(p-1), by which the reduced powers step over the
    Lucas table of an exponent.
    """

    __slots__ = ("m", "odd_names", "even_names", "_signs", "_positions")

    def __init__(self, p: int, m: int, odd_names=None, even_names=None):
        check_modulus(p)
        if p == 2:
            raise ValueError("the algebra is defined here for odd primes")
        if m < 1:
            raise ValueError("need at least one generator pair")
        self._lay_out(p, m)
        self.m = m
        self.odd_names = tuple(odd_names) if odd_names else tuple(
            f"a{k}" for k in range(1, m + 1)
        )
        self.even_names = tuple(even_names) if even_names else tuple(
            f"x{k}" for k in range(1, m + 1)
        )
        if len(self.odd_names) != m or len(self.even_names) != m:
            raise ValueError("generator name lists must have length m")
        names = self.odd_names + self.even_names
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        self._identity = (p, m, self.odd_names, self.even_names)
        self._signs = _sign_table(m)
        self._positions = [(s, (p - 1) * u << m) for s, u in zip(self._shifts, self._units)]

    @classmethod
    def bv(cls, p: int, l: int) -> CohAlgebra:
        """The algebra for a rank-2l elementary abelian group: pair 2k-1 is
        (a_k, xi_k) and pair 2k is (b_k, eta_k)."""
        odd, even = [], []
        for k in range(1, l + 1):
            odd += [f"a{k}", f"b{k}"]
            even += [f"xi{k}", f"eta{k}"]
        return cls(p, 2 * l, odd_names=odd, even_names=even)

    def __repr__(self):
        return f"CohAlgebra(p={self.p}, m={self.m})"

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
    Only those are enumerated: position by position over the Lucas table of
    e_i capped at k, so no pick above the budget is ever listed, keeping each
    partial pick whose remaining budget the later positions can still spend
    exactly; the last position takes the budget that is left.  Inhomogeneous
    classes need no split, since every term is shifted by the same degree."""
    if k < 0:
        raise ValueError("negative power operation index")
    if k == 0 or not x._terms:
        return x
    alg = x.algebra
    p, m = alg.p, alg.m
    alg._fit((max(x._terms) >> m) + (k * (p - 1) << alg._dshift))
    positions, fmask = alg._positions, alg._fmask

    def terms():
        for key, c in x._terms.items():
            even = key >> m
            # a zero exponent has the one pick 0, which changes nothing
            active = [
                (_binom_support(e, p, k), unit)
                for s, unit in positions
                if (e := even >> s & fmask)
            ]
            # the largest pick sum that the positions not yet consumed can spend
            reach = sum(next(reversed(table)) for table, _ in active)
            if reach < k:
                continue
            states = [(k, key, c)]
            for table, unit in active[:-1]:
                reach -= next(reversed(table))
                grown = []
                for left, kk, coeff in states:
                    for j, b in table.items():  # in increasing j
                        if j > left:
                            break
                        if left - j <= reach:
                            grown.append((left - j, kk + j * unit, coeff * b))
                states = grown
            last, unit = active[-1]
            for left, kk, coeff in states:
                if b := last.get(left):
                    yield kk + left * unit, coeff * b

    return CohClass._raw(alg, _add_terms(terms(), p))


def milnor_q(i: int, x: CohClass, memo: dict | None = None) -> CohClass:
    """The i-th Milnor primitive via the recursion
    Q_0 = Bockstein, Q_i = P^{p^{i-1}} Q_{i-1} - Q_{i-1} P^{p^{i-1}}.

    memo maps (i, x) to Q_i(x) and is shared by the recursive calls; pass one
    dict to the calls of a single check so that they share their inner
    Q_{i-1} values too.  Without one, each call starts a fresh memo.  No memo
    outlives its caller, so a changed power_op or bockstein is always seen."""
    if i < 0:
        raise ValueError("negative Milnor index")
    if i > MAX_MILNOR_INDEX:
        raise DepthGuard(f"Milnor index {i} exceeds the depth guard {MAX_MILNOR_INDEX}")
    if memo is None:
        memo = {}
    key = (i, x)
    got = memo.get(key)
    if got is None:
        if i == 0:
            got = bockstein(x)
        else:
            k = x.algebra.p ** (i - 1)
            got = power_op(k, milnor_q(i - 1, x, memo)) - milnor_q(
                i - 1, power_op(k, x), memo
            )
        memo[key] = got
    return got


def x_class(p: int, l: int) -> CohClass:
    """sum_j a_j eta_j - xi_j b_j: the canonical degree-3 class of BV^{2l}."""
    if l < 1:
        raise ValueError("l must be >= 1")
    alg = CohAlgebra.bv(p, l)
    out = alg.zero()
    for j in range(1, l + 1):
        a_slot, b_slot = 2 * j - 1, 2 * j
        eta = [0] * alg.m
        eta[b_slot - 1] = 1
        xi = [0] * alg.m
        xi[a_slot - 1] = 1
        out = out + alg.term((a_slot,), eta) - alg.term((b_slot,), xi)
    return out


def r_closed(p: int, i: int, l: int) -> CohClass:
    """sum_j xi_j^{p^i} eta_j - xi_j eta_j^{p^i}: the closed form of the i-th
    Milnor primitive applied to the canonical degree-3 class."""
    if i < 0:
        raise ValueError("i must be >= 0")
    if l < 1:
        raise ValueError("l must be >= 1")
    alg = CohAlgebra.bv(p, l)
    q = p**i
    out = alg.zero()
    for j in range(1, l + 1):
        xi_slot, eta_slot = 2 * j - 1, 2 * j
        hi = [0] * alg.m
        hi[xi_slot - 1] = q
        hi[eta_slot - 1] = 1
        lo = [0] * alg.m
        lo[xi_slot - 1] = 1
        lo[eta_slot - 1] = q
        out = out + alg.term((), hi) - alg.term((), lo)
    return out


def even_to_poly(x: CohClass, ring: PolyRing | None = None) -> Poly:
    """Rewrite a purely even class as a polynomial with degrees halved."""
    alg = x.algebra
    if ring is None:
        ring = PolyRing(alg.p, alg.even_names)
    if ring.arity != alg.m or ring.p != alg.p:
        raise ContextMismatch("target ring does not match the even generators")
    # the even part of a key is the key of the same monomial in ring
    m = alg.m
    low = (1 << m) - 1
    terms: dict = {}
    for key, c in x._terms.items():
        if key & low:
            raise OddPartPresent(f"term with exterior factors {alg._decode(key)[0]}")
        terms[key >> m] = c
    return Poly._raw(ring, terms)


# -- verification -------------------------------------------------------------


def verify_jacobian_independence(p: int, l: int) -> list:
    """The closed forms r_1..r_{2l} have a nonzero Jacobian determinant with
    respect to (xi_1, eta_1, ..., xi_l, eta_l)."""

    def run():
        ring = PolyRing(p, CohAlgebra.bv(p, l).even_names)
        rs = [even_to_poly(r_closed(p, i, l), ring) for i in range(1, 2 * l + 1)]
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
    total power is a ring endomorphism, and P^0 is the identity."""
    alg = CohAlgebra.bv(p, l)
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
        q = partial(milnor_q, memo={})
        for t in range(trials):
            x = random_homogeneous(rng, alg, max_even_exp=2)
            y = random_homogeneous(rng, alg, max_even_exp=2)
            sign = -1 if x.degree() % 2 else 1
            for i in range(4):
                lhs = q(i, x * y)
                rhs = q(i, x) * y + x * q(i, y) * sign
                if lhs != rhs:
                    return False, f"Q_{i} not a derivation on pair {t}"
        return True, f"{trials} random homogeneous pairs, Q_0..Q_3"

    checks.append(timed_check("milnor-derivation", derivations))

    def anticommute():
        q = partial(milnor_q, memo={})
        for t in range(trials // 4 or 1):
            x = random_homogeneous(rng, alg, max_even_exp=2)
            for i in range(4):
                if not q(i, q(i, x)).is_zero():
                    return False, f"Q_{i}^2 != 0 on class {t}"
                for j in range(i + 1, 4):
                    anti = q(i, q(j, x)) + q(j, q(i, x))
                    if not anti.is_zero():
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
