"""Shared generators and independent oracles for the test suite."""

import heapq
from functools import reduce
from operator import add, neg, sub

from conjchern.cyclo import CycInt, CycMatrix
from conjchern.errors import NonExactDivision
from conjchern.poly import Poly
from conjchern.steenrod import CohClass


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
            factors.append(f.compose(images, ring))
        while len(factors) > 1:
            nxt = [a * b for a, b in zip(factors[::2], factors[1::2])]
            if len(factors) % 2:
                nxt.append(factors[-1])
            factors = nxt
        f = factors[0]
    return f


def weighted_degrees(f, p):
    """Degrees of f in F_p[Y_1..Y_4] under the grading deg(Y_i) = p^i + 1."""
    weights = [p**i + 1 for i in range(1, 5)]
    return {sum(e * w for e, w in zip(m, weights)) for m in f.terms}


def random_monomial(rng, p, size):
    """A random monomial matrix; the powers are left unreduced on purpose."""
    columns = list(range(size))
    rng.shuffle(columns)
    return CycMatrix(p, columns, [rng.randrange(-2 * p, 2 * p) for _ in range(size)])


def dense_mul(p, a, b):
    """Row-by-column product of two square matrices given as rows of CycInt."""
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)), CycInt.zero(p)) for j in range(n))
        for i in range(n)
    )


def dense_kron(a, b):
    """Kronecker product of two matrices given as rows of CycInt."""
    m = len(b)
    return tuple(
        tuple(a[i // m][j // m] * b[i % m][j % m] for j in range(len(a) * m))
        for i in range(len(a) * m)
    )


def dense_scale(p, a, k):
    """Every entry multiplied by w^k."""
    w = CycInt.omega(p, k)
    return tuple(tuple(e * w for e in row) for row in a)


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
    return f.compose(images, ring)


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


def tuple_exact_div(f, g):
    """f / g by long division on exponent tuples, the leading term taken in
    graded-lex order from a heap of (-degree, negated exponents): the oracle
    for the packed exact_div.  Raises NonExactDivision on a leading term
    that g's does not divide."""
    p = f.ring.p
    gm = max(g.terms, key=lambda m: (sum(m), m))
    ginv = pow(g.terms[gm], p - 2, p)
    rem = dict(f.terms.items())
    heap = [(-sum(m), tuple(map(neg, m)), m) for m in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        while True:
            _, _, m = heapq.heappop(heap)
            if m in rem:
                break
        mq = tuple(map(sub, m, gm))
        if min(mq) < 0:
            raise NonExactDivision(f"leading term {m} not divisible by {gm}")
        cq = rem[m] * ginv % p
        quot[mq] = cq
        for m2, c2 in g.terms.items():
            mono = tuple(map(add, mq, m2))
            if mono not in rem:
                heapq.heappush(heap, (-sum(mono), tuple(map(neg, mono)), mono))
            if v := (rem.get(mono, 0) - cq * c2) % p:
                rem[mono] = v
            else:
                del rem[mono]
    return Poly(f.ring, quot)


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
