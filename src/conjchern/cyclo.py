"""Exact arithmetic in Z[w], w a primitive p-th root of unity, and the
monomial matrices of the conjugation representation.

Elements are stored on the power basis 1, w, ..., w^{p-2}; the relation
w^{p-1} = -(1 + w + ... + w^{p-2}) keeps coordinates canonical, so equality
is coordinate equality and every check below is a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
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

MAX_TENSOR_DIM = 27


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

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        out = CycInt.from_int(self.p, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def mul_omega(self, k: int) -> CycInt:
        """Multiply by w^k: a cheap coordinate rotation plus reduction."""
        k %= self.p
        if k == 0:
            return self
        p = self.p
        buf = [0] * (p + p - 2)
        for i, a in enumerate(self.coords):
            if a:
                buf[i + k] += a
        return CycInt(p, _reduce_power_buf(p, buf))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def __bool__(self):
        return not self.is_zero()

    def omega_exponent(self):
        """k if self == w^k, else None."""
        nonzero = [(i, a) for i, a in enumerate(self.coords) if a]
        if len(nonzero) == 1 and nonzero[0][1] == 1:
            return nonzero[0][0]
        if len(nonzero) == self.p - 1 and all(a == -1 for _, a in nonzero):
            return self.p - 1
        return None

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
    """A square matrix over Z[w]."""

    __slots__ = ("p", "size", "rows")

    def __init__(self, p: int, rows):
        rows = tuple(tuple(r) for r in rows)
        size = len(rows)
        for r in rows:
            if len(r) != size:
                raise ValueError("matrix must be square")
            for e in r:
                if not isinstance(e, CycInt) or e.p != p:
                    raise PrimeMismatch("entry prime differs from the matrix prime")
        self.p = p
        self.size = size
        self.rows = rows

    @classmethod
    def identity(cls, p: int, size: int) -> CycMatrix:
        one = CycInt.from_int(p, 1)
        zero = CycInt.zero(p)
        return cls(p, [[one if i == j else zero for j in range(size)] for i in range(size)])

    @classmethod
    def from_omega_powers(cls, p: int, grid) -> CycMatrix:
        """Build from a grid of entries that are None (zero) or w-exponents."""
        zero = CycInt.zero(p)
        return cls(
            p,
            [
                [zero if e is None else CycInt.omega(p, e) for e in row]
                for row in grid
            ],
        )

    def __mul__(self, other):
        if not isinstance(other, CycMatrix):
            return NotImplemented
        if self.p != other.p:
            raise PrimeMismatch("mixed primes")
        if self.size != other.size:
            raise ValueError("size mismatch")
        n = self.size
        zero = CycInt.zero(self.p)
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(n):
                    a = self.rows[i][k]
                    if a.is_zero():
                        continue
                    b = other.rows[k][j]
                    if b.is_zero():
                        continue
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return CycMatrix(self.p, out)

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
            return self.p == other.p and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.rows))

    def mul_omega(self, k: int) -> CycMatrix:
        """Entrywise multiplication by the scalar w^k."""
        return CycMatrix(self.p, [[e.mul_omega(k) for e in row] for row in self.rows])

    def kron(self, other: CycMatrix) -> CycMatrix:
        """Kronecker product."""
        if self.p != other.p:
            raise PrimeMismatch("mixed primes")
        n, m = self.size, other.size
        zero = CycInt.zero(self.p)
        out = [[zero] * (n * m) for _ in range(n * m)]
        for i in range(n):
            for j in range(n):
                a = self.rows[i][j]
                if a.is_zero():
                    continue
                for k in range(m):
                    for l in range(m):
                        b = other.rows[k][l]
                        if not b.is_zero():
                            out[i * m + k][j * m + l] = a * b
        return CycMatrix(self.p, out)

    def monomial_decomposition(self):
        """(columns, powers) with rows[r][columns[r]] = w^{powers[r]}, or None."""
        n = self.size
        columns = [None] * n
        powers = [None] * n
        seen_cols = set()
        for r in range(n):
            hits = [(c, e) for c, e in enumerate(self.rows[r]) if not e.is_zero()]
            if len(hits) != 1:
                return None
            c, entry = hits[0]
            k = entry.omega_exponent()
            if k is None or c in seen_cols:
                return None
            seen_cols.add(c)
            columns[r] = c
            powers[r] = k
        return columns, powers

    def inverse_monomial(self) -> CycMatrix:
        """Exact inverse, defined only for monomial matrices."""
        decomp = self.monomial_decomposition()
        if decomp is None:
            raise NotMonomial("matrix is not monomial")
        columns, powers = decomp
        zero = CycInt.zero(self.p)
        out = [[zero] * self.size for _ in range(self.size)]
        for r, (c, k) in enumerate(zip(columns, powers)):
            out[c][r] = CycInt.omega(self.p, -k % self.p)
        return CycMatrix(self.p, out)

    def scalar_exponent(self):
        """k if self == w^k * I, else None."""
        k = self.rows[0][0].omega_exponent()
        if k is None:
            return None
        if self == CycMatrix.identity(self.p, self.size).mul_omega(k):
            return k
        return None


def gen_matrices(p: int):
    """The diagonal generator diag(w, ..., w^{p-1}, 1) and the cyclic shift."""
    check_modulus(p)
    if p == 2:
        raise ValueError("p must be an odd prime")
    sigma = CycMatrix.from_omega_powers(
        p, [[(i + 1) % p if i == j else None for j in range(p)] for i in range(p)]
    )
    tau_grid = [[None] * p for _ in range(p)]
    tau_grid[0][p - 1] = 0
    for i in range(1, p):
        tau_grid[i][i - 1] = 0
    tau = CycMatrix.from_omega_powers(p, tau_grid)
    return sigma, tau


def a_matrix(i: int, j: int, p: int) -> CycMatrix:
    """A_{i,j} = A_{i,0} A_{0,j}: block cyclic permutation times the diagonal
    diag(w^{(p-1)j}, ..., w^j, 1)."""
    check_modulus(p)
    if not (0 <= i < p and 0 <= j < p):
        raise IndexOutOfRange(f"indices ({i}, {j}) not in [0, {p})")
    grid = [[None] * p for _ in range(p)]
    for r in range(p):
        # A_{i,0} has the identity I_i in the top-right block and I_{p-i}
        # in the lower-left block, i.e. a one at column (r - i) mod p
        c = (r - i) % p
        grid[r][c] = ((p - 1 - c) * j) % p
    return CycMatrix.from_omega_powers(p, grid)


def conj_act(g: CycMatrix, m: CycMatrix) -> CycMatrix:
    """g m g^{-1} for a monomial g, computed entrywise without a full product."""
    if g.p != m.p:
        raise PrimeMismatch("mixed primes")
    if g.size != m.size:
        raise ValueError("size mismatch")
    decomp = g.monomial_decomposition()
    if decomp is None:
        raise NotMonomial("conjugating matrix is not monomial")
    columns, powers = decomp
    n = g.size
    out = [
        [
            m.rows[columns[a]][columns[b]].mul_omega((powers[a] - powers[b]) % g.p)
            for b in range(n)
        ]
        for a in range(n)
    ]
    return CycMatrix(g.p, out)


def cyc_determinant(mat: CycMatrix) -> CycInt:
    """Exact determinant over Z[w].

    The support graph is split into connected row/column components first;
    the determinant is the signed product of the component determinants, so
    sparse block structure never triggers a full n! expansion.
    """
    n = mat.size
    supports = [
        [c for c, e in enumerate(row) if not e.is_zero()] for row in mat.rows
    ]
    if any(not s for s in supports):
        return CycInt.zero(mat.p)

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
    one = CycInt.from_int(mat.p, 1)
    row_order, col_order = [], []
    dets = []
    for rows, cols in components:
        if len(rows) != len(cols):
            return CycInt.zero(mat.p)
        row_order.extend(rows)
        col_order.extend(cols)
        dets.append(_laplace_det([[mat.rows[r][c] for c in cols] for r in rows], one))
    sign = _perm_sign(range(n), row_order) * _perm_sign(range(n), col_order)
    det = CycInt.from_int(mat.p, sign)
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


@dataclass
class WeightTable:
    """Verified weights of every eigen-line, indexed by F_p^{2l} tuples."""

    p: int
    l: int
    weights: dict

    def __len__(self):
        return len(self.weights)


def verify_weight_basis(p: int, l: int) -> WeightTable:
    """Check the weight relations for every index tuple; at l = 1 also check
    that the eigen-lines span, via the coordinate determinant in Z[w].

    Raises VerificationFailure on the first relation that does not hold.
    """
    check_modulus(p)
    if l < 1:
        raise ValueError("l must be >= 1")
    if p**l > MAX_TENSOR_DIM:
        raise SizeGuard(f"tensor dimension {p}^{l} exceeds {MAX_TENSOR_DIM}")
    sigma, tau = gen_matrices(p)
    identity = CycMatrix.identity(p, p)

    generators = []
    for k in range(l):
        slots_sigma = [sigma if t == k else identity for t in range(l)]
        slots_tau = [tau if t == k else identity for t in range(l)]
        generators.append(reduce(CycMatrix.kron, slots_sigma))
        generators.append(reduce(CycMatrix.kron, slots_tau))

    base = {(i, j): a_matrix(i, j, p) for i in range(p) for j in range(p)}
    weights: dict = {}
    for idx in product(range(p), repeat=2 * l):
        pairs = [idx[2 * k : 2 * k + 2] for k in range(l)]
        tensor = reduce(CycMatrix.kron, [base[pair] for pair in pairs])
        for g_pos, g in enumerate(generators):
            expected = idx[g_pos]
            if conj_act(g, tensor) != tensor.mul_omega(expected):
                raise VerificationFailure(
                    f"index {idx}: generator {g_pos} does not scale by w^{expected}"
                )
        weights[idx] = idx
    if l == 1:
        coord = CycMatrix(
            p,
            [
                [base[(i, j)].rows[r][c] for i in range(p) for j in range(p)]
                for r in range(p)
                for c in range(p)
            ],
        )
        if cyc_determinant(coord).is_zero():
            raise VerificationFailure("coordinate determinant of the A_{i,j} is zero")
    return WeightTable(p=p, l=l, weights=weights)
