"""The monomial matrices of the conjugation representation over Z[w], w a
primitive p-th root of unity, and the decision that the weight lines span.

Every matrix here has one entry w^k in each row and column and zeros
elsewhere, stored as a permutation plus exponents mod p, so products,
inverses, Kronecker products and equality are exact exponent arithmetic and
every check below is a decision.  The one question that needs a
determinant, whether the p^2 lines A_{i,j} span, is decided by reading
their coordinate matrix as p Vandermonde blocks with distinct nodes (see
_span_failure): the A_{i,j} are Weyl's clock-and-shift matrices, whose span
of M_p is classical (Schwinger, "Unitary operator bases", PNAS 46, 1960).
"""

from __future__ import annotations

from functools import reduce
from itertools import product

from .errors import (
    IndexOutOfRange,
    NotMonomial,
    PrimeMismatch,
    VerificationFailure,
)
from .fp import check_modulus
from .report import REP_BUDGET, refuse_above, timed_check

# Cost model of verify_extraspecial, fitted on a 2-core x86 box (Python
# 3.11): each of its checks builds a few monomial matrices of size p, at
# 0.3-0.4 microseconds an entry.  sigma-order and tau-order build the two
# generators, two identities, and the bit_length(p) squarings and
# popcount(p) products of the power p; commutator-central builds 15 and
# omega-commutes 8.  Measured at p = 10^5 + 3: 1.10, 0.86, 0.60 and 0.27 s;
# at p = 10^6 + 3: 12.6, 9.6, 5.9 and 3.0 s, with 552 MB peak RSS.
# REP_BUDGET admits the two order checks up to about p = 9.36 * 10^5,
# commutator-central up to 2 * 10^6 and omega-commutes up to about
# 3.7 * 10^6.
SECONDS_PER_MATRIX_ENTRY = 4e-7


class CycMatrix:
    """A monomial matrix over Z[w]: row r holds w^{powers[r]} in column
    columns[r] and zeros elsewhere.

    Every generator and every A_{i,j} is of this shape, and so are their
    products, Kronecker products and inverses, so each operation below costs
    O(size) and the type itself guarantees monomiality.
    """

    __slots__ = ("p", "columns", "powers")

    def __init__(self, p: int, columns, powers):
        check_modulus(p)
        if p == 2:
            raise ValueError("cyclotomic arithmetic here needs an odd prime")
        columns = tuple(columns)
        powers = tuple(powers)
        if sorted(columns) != list(range(len(columns))):
            raise NotMonomial(f"columns {columns} are not a permutation")
        if len(powers) != len(columns):
            raise NotMonomial(
                f"need one power per row: {len(columns)} rows, {len(powers)} powers"
            )
        self.p = p
        self.columns = columns
        self.powers = tuple(k % p for k in powers)

    @classmethod
    def _raw(cls, p: int, columns, powers) -> CycMatrix:
        """A matrix whose columns are a permutation by construction and
        whose odd prime is checked: a product, Kronecker product or inverse
        of valid ones, or an A_{i,j}.  Only the powers are reduced mod p."""
        m = object.__new__(cls)
        m.p = p
        m.columns = tuple(columns)
        m.powers = tuple([k % p for k in powers])
        return m

    @property
    def size(self) -> int:
        return len(self.columns)

    @classmethod
    def identity(cls, p: int, size: int) -> CycMatrix:
        return cls(p, range(size), (0,) * size)

    def _check(self, other: CycMatrix):
        if self.p != other.p:
            raise PrimeMismatch("mixed primes")

    def __mul__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        self._check(other)
        if self.size != other.size:
            raise ValueError("size mismatch")
        return CycMatrix._raw(
            self.p,
            [other.columns[c] for c in self.columns],
            [k + other.powers[c] for c, k in zip(self.columns, self.powers)],
        )

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative matrix power")
        out = CycMatrix.identity(self.p, self.size)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, CycMatrix):
            return (self.p, self.columns, self.powers) == (
                other.p,
                other.columns,
                other.powers,
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.columns, self.powers))

    def mul_omega(self, k: int) -> CycMatrix:
        """Entrywise multiplication by the scalar w^k."""
        return CycMatrix._raw(self.p, self.columns, [e + k for e in self.powers])

    def kron(self, other: CycMatrix) -> CycMatrix:
        """Kronecker product."""
        self._check(other)
        m = other.size
        return CycMatrix._raw(
            self.p,
            [c * m + d for c in self.columns for d in other.columns],
            [k + e for k in self.powers for e in other.powers],
        )

    def inverse_monomial(self) -> CycMatrix:
        """Exact inverse: row columns[r] of the inverse holds w^{-powers[r]}
        in column r."""
        columns = [0] * self.size
        powers = [0] * self.size
        for r, (c, k) in enumerate(zip(self.columns, self.powers)):
            columns[c] = r
            powers[c] = -k
        return CycMatrix._raw(self.p, columns, powers)

    def scalar_exponent(self):
        """k if self == w^k * I, else None."""
        if self.columns[0] != 0:
            return None
        k = self.powers[0]
        if self == CycMatrix.identity(self.p, self.size).mul_omega(k):
            return k
        return None


def gen_matrices(p: int):
    """The diagonal generator diag(w, ..., w^{p-1}, 1) and the cyclic shift."""
    check_modulus(p)
    if p == 2:
        raise ValueError("p must be an odd prime")
    sigma = CycMatrix(p, range(p), [i + 1 for i in range(p)])
    # tau has its ones at (0, p-1) and (i, i-1) for i >= 1
    tau = CycMatrix(p, [(r - 1) % p for r in range(p)], (0,) * p)
    return sigma, tau


def a_matrix(i: int, j: int, p: int) -> CycMatrix:
    """A_{i,j} = A_{i,0} A_{0,j}: block cyclic permutation times the diagonal
    diag(w^{(p-1)j}, ..., w^j, 1)."""
    check_modulus(p)
    if not (0 <= i < p and 0 <= j < p):
        raise IndexOutOfRange(f"indices ({i}, {j}) not in [0, {p})")
    if p == 2:
        raise ValueError("cyclotomic arithmetic here needs an odd prime")
    # A_{i,0} has the identity I_i in the top-right block and I_{p-i}
    # in the lower-left block, i.e. a one at column (r - i) mod p
    columns = [(r - i) % p for r in range(p)]
    return CycMatrix._raw(p, columns, [(p - 1 - c) * j for c in columns])


def conj_act(g: CycMatrix, m: CycMatrix) -> CycMatrix:
    """g m g^{-1}: three monomial operations, each O(size)."""
    return g * m * g.inverse_monomial()


def _span_failure(p: int, base):
    """Why the coordinate matrix of the lines A_{i,j} in base (keyed by
    (i, j)) is not block-Vandermonde with distinct nodes, or None when it
    is, so that its determinant is nonzero and the lines span M_p over Q(w).

    The matrix has row (r, c), column (i, j), and there the entry (r, c) of
    A_{i,j}.  Three readings decide its shape:
    1. each A_{i,j} has the permutation of A_{i,0};
    2. at each row r, the permutations of A_{0,0}..A_{p-1,0} put their
       entries in distinct columns, so the rows (r, A_{i,0}.columns[r]) and
       the columns (i, 0..p-1) form a square block for each i;
    3. in block i, row r is w^(k_r + j s_r) in column j: the Vandermonde
       matrix in the nodes w^(s_r), its rows scaled by w^(k_r), with
       determinant w^(sum k_r) prod_{r < t} (w^(s_t) - w^(s_r)), nonzero
       exactly when the steps s_r are distinct mod p.
    A block of any other shape fails, named by i (and j), even where its
    determinant would be nonzero.
    """
    for r, cols in enumerate(zip(*(base[i, 0].columns for i in range(p)))):
        if len(set(cols)) != p:
            return f"row {r}: the lines A_{{i,0}} share a column, so no blocks"
    for i in range(p):
        columns, first = base[i, 0].columns, base[i, 0].powers
        steps = [(k - k0) % p for k, k0 in zip(base[i, 1].powers, first)]
        expected = first  # the powers of column j, down the block's rows
        for j in range(p):
            line = base[i, j]
            if line.columns != columns:
                return f"A_{{{i},{j}}} does not share the permutation of A_{{{i},0}}"
            if line.powers != expected:
                return f"block {i}: column {j} is not a Vandermonde power"
            expected = tuple([(k + s) % p for k, s in zip(expected, steps)])
        rows_of = {}
        for r, step in enumerate(steps):
            if (t := rows_of.setdefault(step, r)) != r:
                return f"block {i}: rows {t} and {r} share the Vandermonde node w^{step}"
    return None


def verify_extraspecial(p: int) -> list:
    """Generator orders, the central commutator (both bracket conventions),
    and centrality of the scalar w.  Each check builds its own matrices,
    after its guard has admitted the count it would build."""
    check_modulus(p)
    power_builds = 4 + p.bit_length() + p.bit_count()

    def guarded(name: str, builds: int, fn):
        def run():
            work = f"{builds} monomial matrices of size {p}"
            refuse_above(work, builds * p * SECONDS_PER_MATRIX_ENTRY, REP_BUDGET)
            return fn(*gen_matrices(p))

        return timed_check(name, run)

    def order(g):
        return g**p == CycMatrix.identity(p, p)

    def commutator(sigma, tau):
        identity = CycMatrix.identity(p, p)
        sigma_inv = sigma.inverse_monomial()
        tau_inv = tau.inverse_monomial()
        left = tau * sigma * tau_inv * sigma_inv
        right = tau_inv * sigma_inv * tau * sigma
        results = []
        ok = False
        for tag, mat in (("f e f^-1 e^-1", left), ("f^-1 e^-1 f e", right)):
            k = mat.scalar_exponent()
            if k is not None and k % p != 0:
                ok = True
                results.append(f"[{tag}] = w^{k} * I")
            else:
                results.append(f"[{tag}] not a primitive central scalar")
        if left == identity or right == identity:
            return False, "commutator degenerates to the identity"
        return ok, "; ".join(results)

    def omega_commutes(sigma, tau):
        omega = CycMatrix.identity(p, p).mul_omega(1)
        return omega * sigma == sigma * omega and omega * tau == tau * omega

    return [
        guarded("sigma-order", power_builds, lambda sigma, tau: order(sigma)),
        guarded("tau-order", power_builds, lambda sigma, tau: order(tau)),
        guarded("commutator-central", 15, commutator),
        guarded("omega-commutes", 8, omega_commutes),
    ]


def verify_weight_basis(p: int, l: int) -> int:
    """Check the weight relations for every index tuple; at l = 1 first
    check that the eigen-lines span: the coordinate matrix, whose column
    (i, j) holds the entries of A_{i,j}, is block-Vandermonde with distinct
    nodes, so nonsingular over Z[w].  Returns the number of eigen-lines
    verified.

    Raises VerificationFailure on a coordinate matrix of any other shape,
    naming its block, or on the first relation that does not hold.
    """
    check_modulus(p)
    if l < 1:
        raise ValueError("l must be >= 1")
    # Cost model, fitted on a 2-core x86 box (Python 3.11).  Each of the
    # p^(2l) index tuples builds one monomial matrix of size p^l and
    # conjugates it by 2l generators: about 1 microsecond per p^(3l) *
    # (2l + 1).  Measured: (7, 2) 0.40-0.61 s, (3, 4) 4.3 s, (11, 2)
    # 4.8-5.5 s, (5, 3) 7.8-10.8 s.  At l = 1, building the p^2 lines,
    # reading their p Vandermonde blocks and checking the p^2 tuples cost
    # 1.2-1.5 microseconds per p^3, the most at the largest p, plus about
    # 10 microseconds per tuple, which shows at small p.  Measured at l = 1:
    # p = 23 22 ms, 107 1.4-2.5 s, 151 4.3 s, 193 8.8-11.0 s, 197
    # 11.2-11.9 s, 199 13.5-14.0 s.  REP_BUDGET admits p <= 197 at l = 1
    # and p <= 11 at l = 2.  A failing span decision stops before the
    # tuples, so it costs less than a passing one.
    if l == 1:
        seconds = p**3 * 1.5e-6 + p**2 * 1e-5
        work = f"{p * p} index tuples of size-{p} matrices and {p} Vandermonde blocks"
    else:
        seconds = p ** (3 * l) * (2 * l + 1) * 1e-6
        work = f"{p ** (2 * l)} index tuples of size-{p**l} matrices"
    refuse_above(work, seconds, REP_BUDGET)
    sigma, tau = gen_matrices(p)
    identity = CycMatrix.identity(p, p)

    generators = []
    for k in range(l):
        slots_sigma = [sigma if t == k else identity for t in range(l)]
        slots_tau = [tau if t == k else identity for t in range(l)]
        generators.append(reduce(CycMatrix.kron, slots_sigma))
        generators.append(reduce(CycMatrix.kron, slots_tau))

    base = {(i, j): a_matrix(i, j, p) for i in range(p) for j in range(p)}
    if l == 1 and (failure := _span_failure(p, base)):
        raise VerificationFailure(failure)
    verified = 0
    for idx in product(range(p), repeat=2 * l):
        pairs = [idx[2 * k : 2 * k + 2] for k in range(l)]
        tensor = reduce(CycMatrix.kron, [base[pair] for pair in pairs])
        for g_pos, g in enumerate(generators):
            expected = idx[g_pos]
            if conj_act(g, tensor) != tensor.mul_omega(expected):
                raise VerificationFailure(
                    f"index {idx}: generator {g_pos} does not scale by w^{expected}"
                )
        verified += 1
    return verified


def verify_weight_bases(p: int, l: int) -> list:
    """verify_weight_basis at rank 1 and at rank l, one check each."""

    def run(rank):
        detail = f"{verify_weight_basis(p, rank)} weight lines verified"
        if rank == 1:
            detail += "; coordinate determinant nonzero"
        return True, detail

    return [
        timed_check(f"weight-basis-l{k}", lambda k=k: run(k)) for k in sorted({1, l})
    ]
