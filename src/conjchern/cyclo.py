"""The monomial matrices of the conjugation representation over Z[w], w a
primitive p-th root of unity, and the decision that the weight lines span.

Every matrix here has one entry w^k in each row and column and zeros
elsewhere, stored as a permutation plus exponents mod p, so products,
inverses, Kronecker products and equality are exact exponent arithmetic and
every check below is a decision.  The one question that needs a
determinant, whether the p^2 lines A_{i,j} span, is decided exactly from
images of Z[w] in prime fields F_q with q = 1 (mod p), under Hadamard's
bound on the norm of the determinant (see is_nonsingular).
"""

from __future__ import annotations

from functools import reduce
from itertools import product
from math import prod

from .errors import (
    IndexOutOfRange,
    NotMonomial,
    PrimeMismatch,
    SizeGuard,
    VerificationFailure,
)
from .fp import check_modulus, is_prime
from .report import timed_check

# Cost model of verify_weight_basis, fitted on a 2-core x86 box (Python 3.11).
# Each of the p^(2l) index tuples builds one monomial matrix of size p^l and
# conjugates it by 2l generators: about 1 microsecond per p^(3l) * (2l + 1).
# At l = 1 the matrices are small enough that each tuple's fixed cost, about
# 40 microseconds, shows, and the span decision adds about 0.06
# microseconds per p^4 (p components of size p, each eliminated mod one
# prime).  Measured: (7, 2) 0.61 s, (3, 4) 4.3 s, (11, 2) 5.5 s, (5, 3)
# 7.8-10.8 s; at l = 1, p = 11: 10-15 ms, 23: 72-100 ms, 107: 11.1 s.  The
# bound admits p <= 107 at l = 1 and p <= 11 at l = 2.  A singular
# coordinate matrix, which fails the check, costs more: its singular
# component is eliminated mod up to about p^2 log2(p) / 28 primes before the
# norm bound decides it.  The same bound holds each check of
# verify_extraspecial.
MAX_REP_SECONDS = 12

# Cost model of verify_extraspecial, fitted on the same box: each of its
# checks builds a few monomial matrices of size p, at 0.3-0.4 microseconds
# an entry.  sigma-order and tau-order build the two generators, two
# identities, and the bit_length(p) squarings and popcount(p) products of
# the power p; commutator-central builds 15 and omega-commutes 8.  Measured at
# p = 10^5 + 3: 1.10, 0.86, 0.60 and 0.27 s; at p = 10^6 + 3: 12.6, 9.6, 5.9
# and 3.0 s, with 552 MB peak RSS.  The bound admits the two order checks
# up to about p = 9.36 * 10^5, commutator-central up to 2 * 10^6 and
# omega-commutes up to about 3.7 * 10^6.
SECONDS_PER_MATRIX_ENTRY = 4e-7

# The first modulus tried by is_nonsingular: small enough that the trial
# division finding each prime q = 1 (mod p) is cheap, large enough that a
# nonzero determinant rarely vanishes mod q.
_FIRST_MODULUS = 2**14


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
        return CycMatrix(
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
        return CycMatrix(self.p, self.columns, [e + k for e in self.powers])

    def kron(self, other: CycMatrix) -> CycMatrix:
        """Kronecker product."""
        self._check(other)
        m = other.size
        return CycMatrix(
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
        return CycMatrix(self.p, columns, powers)

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
    # A_{i,0} has the identity I_i in the top-right block and I_{p-i}
    # in the lower-left block, i.e. a one at column (r - i) mod p
    columns = [(r - i) % p for r in range(p)]
    return CycMatrix(p, columns, [(p - 1 - c) * j for c in columns])


def conj_act(g: CycMatrix, m: CycMatrix) -> CycMatrix:
    """g m g^{-1}: three monomial operations, each O(size)."""
    return g * m * g.inverse_monomial()


def _components(rows, n: int) -> list:
    """The connected components of the support graph of a matrix given by
    sparse rows over the columns range(n), as (row indices, columns) pairs."""
    m = len(rows)
    parent = list(range(m + n))  # rows 0..m-1, columns m..m+n-1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, row in enumerate(rows):
        for c in row:
            a, b = find(r), find(m + c)
            if a != b:
                parent[a] = b

    groups: dict = {}
    for r in range(m):
        groups.setdefault(find(r), ([], []))[0].append(r)
    for c in range(n):
        groups.setdefault(find(m + c), ([], []))[1].append(c)
    return list(groups.values())


def _split_primes(p: int):
    """The primes q = 1 (mod p) from _FIRST_MODULUS up, each with an element
    of order p in F_q."""
    step = 2 * p
    q = (_FIRST_MODULUS // step + 1) * step + 1
    while True:
        if is_prime(q):
            g = 2
            while (zeta := pow(g, (q - 1) // p, q)) == 1:
                g += 1
            yield q, zeta
        q += step


def _singular_mod(mat, q: int) -> bool:
    """Whether the square matrix mat of residues mod the prime q is singular,
    by Gaussian elimination in place."""
    n = len(mat)
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k]), None)
        if pivot is None:
            return True
        mat[k], mat[pivot] = mat[pivot], mat[k]
        row = mat[k]
        inv = pow(row[k], -1, q)
        for r in range(k + 1, n):
            other = mat[r]
            if f := other[k] * inv % q:
                mat[r] = [(a - f * b) % q for a, b in zip(other, row)]
    return False


def is_nonsingular(p: int, rows) -> bool:
    """Whether the square matrix over Z[w] with the given rows has a nonzero
    determinant D.  Each row is a dict from column to the exponent k of its
    entry w^k; the other entries are 0.

    Up to sign, D is the product of the determinants of the connected
    components of the support graph, so a component with more rows than
    columns or fewer makes D = 0, and each square one is decided alone; let
    D be its determinant.  An element zeta of order p in F_q, q a prime
    = 1 (mod p), gives a ring map Z[w] -> F_q sending w to zeta, whose
    kernel is a prime ideal of norm q.  If the component's image mod q is
    nonsingular, D is not 0.  If it is singular, D lies in that kernel, so q
    divides the integer norm N(D) = prod sigma(D) over the p - 1 complex
    embeddings sigma.  Under each sigma every entry has absolute value 0 or
    1, so Hadamard's inequality gives |sigma(D)| <= H, where H^2 is the
    product of the row support sizes, and |N(D)| <= H^(p-1).  Once the
    product of the distinct primes with a singular image exceeds H^(p-1),
    N(D) = 0 and so D = 0.
    """
    for rs, cols in _components(rows, len(rows)):
        if len(rs) != len(cols):
            return False
        exponents = [[rows[r].get(c) for c in cols] for r in rs]
        # (H^(p-1))^2: the product of the primes is compared squared
        bound = prod(len(rows[r]) for r in rs) ** (p - 1)
        primes = 1
        for q, zeta in _split_primes(p):
            powers = [pow(zeta, k, q) for k in range(p)]
            image = [[0 if k is None else powers[k % p] for k in row] for row in exponents]
            if not _singular_mod(image, q):
                break
            primes *= q
            if primes * primes > bound:
                return False
    return True


def verify_extraspecial(p: int) -> list:
    """Generator orders, the central commutator (both bracket conventions),
    and centrality of the scalar w.  Each check builds its own matrices,
    after its guard has admitted the count it would build."""
    check_modulus(p)
    power_builds = 4 + p.bit_length() + p.bit_count()

    def guarded(name: str, builds: int, fn):
        def run():
            seconds = builds * p * SECONDS_PER_MATRIX_ENTRY
            if seconds > MAX_REP_SECONDS:
                raise SizeGuard(
                    f"{builds} monomial matrices of size {p} would take about "
                    f"{seconds:.3g} s; the guard allows {MAX_REP_SECONDS} s"
                )
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


def _weight_basis_seconds(p: int, l: int) -> float:
    """Estimated seconds of verify_weight_basis(p, l), from the cost model
    above MAX_REP_SECONDS."""
    seconds = p ** (3 * l) * (2 * l + 1) * 1e-6
    if l == 1:
        seconds += p**2 * 4e-5 + p**4 * 6e-8
    return seconds


def verify_weight_basis(p: int, l: int) -> int:
    """Check the weight relations for every index tuple; at l = 1 first
    check that the eigen-lines span: the coordinate matrix, whose column
    (i, j) holds the entries of A_{i,j}, is nonsingular over Z[w].
    Returns the number of eigen-lines verified.

    Raises VerificationFailure on a zero coordinate determinant or on the
    first relation that does not hold.
    """
    check_modulus(p)
    if l < 1:
        raise ValueError("l must be >= 1")
    seconds = _weight_basis_seconds(p, l)
    if seconds > MAX_REP_SECONDS:
        det = f" and a {p * p}x{p * p} coordinate determinant" if l == 1 else ""
        raise SizeGuard(
            f"{p ** (2 * l)} index tuples of size-{p**l} matrices{det} "
            f"would take about {seconds:.3g} s; the guard allows "
            f"{MAX_REP_SECONDS} s"
        )
    sigma, tau = gen_matrices(p)
    identity = CycMatrix.identity(p, p)

    generators = []
    for k in range(l):
        slots_sigma = [sigma if t == k else identity for t in range(l)]
        slots_tau = [tau if t == k else identity for t in range(l)]
        generators.append(reduce(CycMatrix.kron, slots_sigma))
        generators.append(reduce(CycMatrix.kron, slots_tau))

    base = {(i, j): a_matrix(i, j, p) for i in range(p) for j in range(p)}
    if l == 1:
        coordinates = [{} for _ in range(p * p)]  # row r * p + c: entry (r, c)
        for line, a in enumerate(base.values()):
            for r, (c, k) in enumerate(zip(a.columns, a.powers)):
                coordinates[r * p + c][line] = k
        if not is_nonsingular(p, coordinates):
            raise VerificationFailure("coordinate determinant of the A_{i,j} is zero")
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
