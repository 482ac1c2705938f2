"""Shared generators and independent oracles for the test suite."""

import re
from functools import reduce
from operator import add

from conjchern.cyclo import CycMatrix
from conjchern.dickson import GLMatrix
from conjchern.poly import Poly
from conjchern.steenrod import CohClass

# The one text of every cost guard's refusal (report.refuse_above): the cost
# to three significant figures, in hours above an hour, and one of the two
# budgets.
REFUSAL = re.compile(
    r".+ would take about \d+(\.\d+)?(e\+\d+)? [sh]; the guard allows (6\.67|12) s"
)


def passed(checks):
    """True when no check of a verifier's list failed, as the run's report
    decides: a SKIPPED check does not fail it."""
    return all(c.status != "fail" for c in checks)


def poly_of(ring, text):
    """The polynomial written in text over ring: terms joined by "+" and "-",
    each an optional integer coefficient and powers v^e joined by "*".  Each
    term is one PolyRing.monomial and the terms are summed, so expected
    values never go through Poly.__mul__ or Poly.__pow__."""
    total = ring.zero()
    for sign, term in re.findall(r"([+-]?)\s*([^+-]+)", text):
        coeff = -1 if sign == "-" else 1
        exponents = {}
        for factor in term.split("*"):
            name, _, e = factor.strip().partition("^")
            if name.isdigit():
                coeff *= int(name)
            else:
                exponents[name] = exponents.get(name, 0) + int(e or 1)
        total = total + ring.monomial(exponents, coeff)
    return total


def random_poly(rng, ring, max_terms=4, max_exp=3):
    """A small random polynomial, possibly zero."""
    terms = {}
    for _ in range(rng.randrange(0, max_terms + 1)):
        mono = tuple(rng.randrange(0, max_exp + 1) for _ in range(ring.arity))
        terms[mono] = rng.randrange(0, ring.p)
    return Poly(ring, terms)


def random_nonzero_poly(rng, ring, max_terms=4, max_exp=3):
    while True:
        f = random_poly(rng, ring, max_terms, max_exp)
        if not f.is_zero():
            return f


def naive_pow(f, e):
    """Repeated-multiplication power, independent of Poly.__pow__."""
    out = f.ring.one()
    for _ in range(e):
        out = out * f
    return out


def naive_compose(f, images, ring):
    """Term-by-term substitution using only multiplication, as an oracle."""
    acc = ring.zero()
    for mono, coeff in f.terms.items():
        term = ring.constant(coeff)
        for i, e in enumerate(mono):
            term = term * naive_pow(images[i], e)
        acc = acc + term
    return acc


def det2(a, b, c, d):
    """Cofactor determinant of [[a, b], [c, d]]: the 2x2 oracle."""
    return a * d - b * c


def naive_product(factors):
    """Left-to-right product, an oracle for tree or graded accumulation."""
    return reduce(lambda x, y: x * y, factors)


def coh_power(x, e):
    """x^e for a CohClass x and e >= 1, as e - 1 products: CohClass has no
    power of its own."""
    return naive_product([x] * e)


def balanced_linear_form_product(ring):
    """prod over v in F_p^m of (T + v_1 y_1 + ... + v_m y_m), T the last
    variable, by the subspace recursion F_k(T) = prod_c F_{k-1}(T + c y_k)
    with the p shifted copies substituted through compose and multiplied
    pairwise in a balanced tree: the oracle for dickson.linear_form_product."""
    p, m = ring.p, ring.arity - 1
    ident = [ring.variable(j) for j in range(ring.arity)]
    f = ident[m]
    for k in range(m):
        factors = [f]
        for c in range(1, p):
            images = list(ident)
            images[m] = ident[m] + ident[k] * c
            factors.append(f.compose(images))
        while len(factors) > 1:
            nxt = [a * b for a, b in zip(factors[::2], factors[1::2])]
            if len(factors) % 2:
                nxt.append(factors[-1])
            factors = nxt
        f = factors[0]
    return f


def linear_form(v, ring):
    """sum_t v[t] y_t over the variables y_t of ring: the factors of the
    naive Chern product oracle."""
    form = ring.zero()
    for t, c in enumerate(v):
        if c:
            form = form + ring.monomial({t: 1}, c)
    return form


def weighted_degrees(f, p):
    """Degrees of f in F_p[Y_1..Y_4] under the grading deg(Y_i) = p^i + 1."""
    weights = [p**i + 1 for i in range(1, 5)]
    return {sum(e * w for e, w in zip(m, weights)) for m in f.terms}


def random_monomial(rng, p, size):
    """A random monomial matrix; the powers are left unreduced on purpose."""
    columns = list(range(size))
    rng.shuffle(columns)
    return CycMatrix(p, columns, [rng.randrange(-2 * p, 2 * p) for _ in range(size)])


# -- a reference Z[w] for the monomial matrices of cyclo -------------------------


class ZW:
    """An element of Z[w], w a primitive p-th root of unity, as integer
    coefficients of 1, w, ..., w^{p-1} shifted so that the last is 0: the
    relation 1 + w + ... + w^{p-1} = 0 makes that form canonical, so equality
    is coefficient equality.  The ring of the dense oracles below."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        self.p = p
        self.coeffs = tuple(c - coeffs[-1] for c in coeffs)

    @classmethod
    def omega(cls, p, k=1):
        """w^k."""
        return cls(p, [int(e == k % p) for e in range(p)])

    @classmethod
    def of(cls, p, value):
        """value as a ZW: an int is lifted, a ZW is returned as it is."""
        return value if isinstance(value, ZW) else cls(p, [value] + [0] * (p - 1))

    def __add__(self, other):
        other = ZW.of(self.p, other)
        return ZW(self.p, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        other = ZW.of(self.p, other)
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[(i + j) % p] += a * b
        return ZW(p, out)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return self.coeffs == ZW.of(self.p, other).coeffs


def dense(m):
    """The rows of a CycMatrix as ZW entries."""
    rows = [[ZW.of(m.p, 0)] * m.size for _ in range(m.size)]
    for r, (c, k) in enumerate(zip(m.columns, m.powers)):
        rows[r][c] = ZW.omega(m.p, k)
    return tuple(map(tuple, rows))


def dense_mul(p, a, b):
    """Row-by-column product of two square matrices given as rows of ZW."""
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZW.of(p, 0)) for j in range(n))
        for i in range(n)
    )


def dense_kron(a, b):
    """Kronecker product of two matrices given as rows of ZW."""
    m = len(b)
    return tuple(
        tuple(a[i // m][j // m] * b[i % m][j % m] for j in range(len(a) * m))
        for i in range(len(a) * m)
    )


def dense_scale(p, a, k):
    """Every entry multiplied by w^k."""
    w = ZW.omega(p, k)
    return tuple(tuple(e * w for e in row) for row in a)


def brute_force_det(p, rows):
    """The determinant of a square matrix of ZW or int entries, as a ZW: the
    Leibniz sum over the permutations through nonzero entries, each signed
    by its inversions.  The oracle for the span decision of cyclo."""
    n = len(rows)

    def expand(r, used, sign):
        if r == n:
            return ZW.of(p, sign)
        total = ZW.of(p, 0)
        for c in range(n):
            if c not in used and rows[r][c]:
                inversions = sum(u > c for u in used)
                rest = expand(r + 1, used | {c}, -sign if inversions % 2 else sign)
                total = total + rest * rows[r][c]
        return total

    return expand(0, frozenset(), 1)


def gl_product(a, b):
    """The matrix product a b of two GLMatrix over one F_p, row by column."""
    n, p = a.n, a.p
    rows = [
        [sum(a.entries[i][k] * b.entries[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]
    return GLMatrix(rows, p)


def dense_gl_action(f, a):
    """x_j -> sum_i a[i][j] x_i as dense linear forms through compose: the
    oracle for dickson.gl_action."""
    ring = f.ring
    images = []
    for j in range(a.n):
        form = ring.zero()
        for i in range(a.n):
            if a.entries[i][j]:
                form = form + ring.monomial({i: 1}, a.entries[i][j])
        images.append(form)
    return f.compose(images)


# -- oracles on exponent tuples for the packed-key kernels ----------------------


def tuple_mul(f, g):
    """f * g with the monomials as exponent tuples added entry by entry: the
    oracle for the packed Poly.__mul__."""
    acc = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            mono = tuple(map(add, m1, m2))
            acc[mono] = acc.get(mono, 0) + c1 * c2
    return Poly(f.ring, acc)


def odd_gen(alg, k):
    """The exterior generator a_k of a CohAlgebra, 1-based."""
    return alg.term((k,), (0,) * alg.m)


def even_gen(alg, k):
    """The polynomial generator x_k of a CohAlgebra, 1-based."""
    return alg.term((), tuple(int(t == k - 1) for t in range(alg.m)))


def crossing_sign(s, t, m):
    """The sign of merging the sorted exterior words with the masks s and t
    (bits 0..m-1) into one sorted word, 0 if they share a generator, by
    counting the crossings (-1)^#{(i in s, j in t) : i > j}: the oracle for
    steenrod._sign_table."""
    if s & t:
        return 0
    crossings = sum((s >> (j + 1)).bit_count() for j in range(m) if t >> j & 1)
    return -1 if crossings % 2 else 1


def merge_odd(s1, s2):
    """Merge two sorted exterior index tuples: (sign, merged), or None if a
    generator repeats."""
    if set(s1) & set(s2):
        return None
    crossings = sum(1 for i in s1 for j in s2 if i > j)
    return (-1 if crossings % 2 else 1), tuple(sorted(s1 + s2))


def tuple_coh_mul(x, y):
    """x * y over (exterior tuple, exponent tuple) keys, with the Koszul sign
    of merging the exterior words: the oracle for the packed CohClass.__mul__."""
    acc = {}
    for (s1, e1), c1 in x.terms.items():
        for (s2, e2), c2 in y.terms.items():
            merged = merge_odd(s1, s2)
            if merged is not None:
                sign, odd = merged
                key = (odd, tuple(map(add, e1, e2)))
                acc[key] = acc.get(key, 0) + sign * c1 * c2
    return CohClass(x.algebra, acc)
