"""Exact arithmetic in Z[w], w a primitive p-th root of unity, and the
monomial matrices of the conjugation representation.

Elements are stored on the power basis 1, w, ..., w^{p-2}; the relation
w^{p-1} = -(1 + w + ... + w^{p-2}) keeps coordinates canonical, so equality
is coordinate equality and every check below is a decision.
"""

from __future__ import annotations

from functools import reduce
from itertools import product

from .errors import (
    IndexOutOfRange,
    NotMonomial,
    PrimeMismatch,
    SizeGuard,
    VerificationFailure,
)
from .fp import check_modulus
from .poly import _laplace_det, _perm_sign
from .report import VerificationReport, timed_check

# Cost model of verify_weight_basis, fitted on a 2-core x86 box (Python 3.11).
# Each of the p^(2l) index tuples builds one monomial matrix of size p^l and
# conjugates it by 2l generators: about 1 microsecond per p^(3l) * (2l + 1).
# At l = 1 the coordinate determinant adds about 0.05 microseconds per
# p^4 * 2^p (p components of size p, each expanded over its 2^p column
# subsets in Z[w] arithmetic).  Measured: (7, 2) 0.61 s, (3, 4) 4.3 s,
# (11, 2) 5.5 s, (5, 3) 7.8-10.8 s, (11, 1) 1.3 s, (13, 1) 10.9 s.  The
# bound admits p <= 13 at l = 1 and p <= 11 at l = 2; (17, 1) would take
# about 9 minutes.
MAX_WEIGHT_BASIS_SECONDS = 12


class CycInt:
    """An element of Z[w] with arbitrary-precision integer coordinates."""

    __slots__ = ("p", "coords")

    def __init__(self, p: int, coords):
        check_modulus(p)
        if p == 2:
            raise ValueError("cyclotomic arithmetic here needs an odd prime")
        coords = tuple(coords)
        if len(coords) != p - 1:
            raise ValueError(f"need {p - 1} coordinates, got {len(coords)}")
        self.p = p
        self.coords = coords

    @classmethod
    def zero(cls, p: int) -> CycInt:
        return cls(p, (0,) * (p - 1))

    @classmethod
    def from_int(cls, p: int, value: int) -> CycInt:
        return cls(p, (value,) + (0,) * (p - 2))

    @classmethod
    def omega(cls, p: int, k: int = 1) -> CycInt:
        """w^k, reduced onto the power basis."""
        k %= p
        if k < p - 1:
            coords = [0] * (p - 1)
            coords[k] = 1
            return cls(p, coords)
        return cls(p, (-1,) * (p - 1))

    def _check(self, other: CycInt):
        if self.p != other.p:
            raise PrimeMismatch(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coords))

    def __sub__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.p, tuple(a * other for a in self.coords))
        if not isinstance(other, CycInt):
            return NotImplemented
        self._check(other)
        p = self.p
        buf = [0] * (2 * p - 3)
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if b:
                    buf[i + j] += a * b
        return CycInt(p, _reduce_power_buf(p, buf))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and self.coords == other.coords

    def __hash__(self):
        return hash((self.p, self.coords))

    def __repr__(self):
        if self.is_zero():
            return "CycInt(0)"
        bits = []
        for i, a in enumerate(self.coords):
            if not a:
                continue
            unit = "1" if i == 0 else ("w" if i == 1 else f"w^{i}")
            bits.append(f"{a}*{unit}" if i == 0 or a != 1 else unit)
        return "CycInt(" + " + ".join(bits) + f", p={self.p})"


def _reduce_power_buf(p: int, buf) -> tuple:
    """Fold a raw w-power accumulation buffer onto the basis 1..w^{p-2}."""
    out = [0] * (p - 1)
    fold = 0
    for e, v in enumerate(buf):
        if not v:
            continue
        e %= p
        if e == p - 1:
            fold += v
        else:
            out[e] += v
    if fold:
        out = [c - fold for c in out]
    return tuple(out)


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

    @property
    def rows(self) -> tuple:
        """The dense rows as CycInt entries (a read-only view)."""
        zero = CycInt.zero(self.p)
        out = []
        for c, k in zip(self.columns, self.powers):
            row = [zero] * self.size
            row[c] = CycInt.omega(self.p, k)
            out.append(tuple(row))
        return tuple(out)

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


def cyc_determinant(p: int, rows) -> CycInt:
    """Exact determinant over Z[w] of a square matrix given by rows of CycInt.

    The support graph is split into connected row/column components first;
    the determinant is the signed product of the component determinants, so
    sparse block structure never triggers a full n! expansion.
    """
    n = len(rows)
    supports = [[c for c, e in enumerate(row) if e] for row in rows]
    if any(not s for s in supports):
        return CycInt.zero(p)

    parent = list(range(2 * n))  # rows 0..n-1, columns n..2n-1

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, cols in enumerate(supports):
        for c in cols:
            a, b = find(r), find(n + c)
            if a != b:
                parent[a] = b

    groups: dict = {}
    for r in range(n):
        groups.setdefault(find(r), [[], []])[0].append(r)
    for c in range(n):
        groups.setdefault(find(n + c), [[], []])[1].append(c)

    components = sorted(groups.values(), key=lambda g: g[0][0] if g[0] else n)
    one = CycInt.from_int(p, 1)
    row_order, col_order = [], []
    dets = []
    for rs, cols in components:
        if len(rs) != len(cols):
            return CycInt.zero(p)
        row_order.extend(rs)
        col_order.extend(cols)
        dets.append(_laplace_det([[rows[r][c] for c in cols] for r in rs], one))
    sign = _perm_sign(range(n), row_order) * _perm_sign(range(n), col_order)
    det = CycInt.from_int(p, sign)
    for d in dets:
        det = det * d
    return det


def verify_extraspecial(p: int) -> VerificationReport:
    """Generator orders, the central commutator (both bracket conventions),
    and centrality of the scalar w."""
    sigma, tau = gen_matrices(p)
    identity = CycMatrix.identity(p, p)
    omega_central = identity.mul_omega(1)
    checks = []

    checks.append(timed_check("sigma-order", lambda: sigma**p == identity))
    checks.append(timed_check("tau-order", lambda: tau**p == identity))

    def commutator():
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

    checks.append(timed_check("commutator-central", commutator))
    checks.append(
        timed_check(
            "omega-commutes",
            lambda: omega_central * sigma == sigma * omega_central
            and omega_central * tau == tau * omega_central,
        )
    )
    return VerificationReport(
        suite="rep", params={"p": p}, checks=checks
    )


def _weight_basis_seconds(p: int, l: int) -> float:
    """Estimated seconds of verify_weight_basis(p, l), from the cost model
    above MAX_WEIGHT_BASIS_SECONDS."""
    seconds = p ** (3 * l) * (2 * l + 1) * 1e-6
    if l == 1:
        seconds += p**4 * 2**p * 5e-8
    return seconds


def verify_weight_basis(p: int, l: int) -> int:
    """Check the weight relations for every index tuple; at l = 1 also check
    that the eigen-lines span, via the coordinate determinant in Z[w].
    Returns the number of eigen-lines verified.

    Raises VerificationFailure on the first relation that does not hold.
    """
    check_modulus(p)
    if l < 1:
        raise ValueError("l must be >= 1")
    seconds = _weight_basis_seconds(p, l)
    if seconds > MAX_WEIGHT_BASIS_SECONDS:
        det = f" and a {p * p}x{p * p} coordinate determinant" if l == 1 else ""
        raise SizeGuard(
            f"{p ** (2 * l)} index tuples of size-{p**l} matrices{det} "
            f"would take about {seconds:.3g} s; the guard allows "
            f"{MAX_WEIGHT_BASIS_SECONDS} s"
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
    if l == 1:
        dense = [base[(i, j)].rows for i in range(p) for j in range(p)]
        coord = [[m[r][c] for m in dense] for r in range(p) for c in range(p)]
        if cyc_determinant(p, coord).is_zero():
            raise VerificationFailure("coordinate determinant of the A_{i,j} is zero")
    return verified
