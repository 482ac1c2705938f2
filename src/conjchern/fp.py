"""Prime moduli: the primality test, the modulus check and Lucas binomials."""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

MAX_MODULUS = 2**31


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for word-sized moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def check_modulus(p: int) -> int:
    """Return p after checking it is a prime not exceeding MAX_MODULUS."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"modulus must be prime, got {p!r}")
    if p > MAX_MODULUS:
        raise ValueError(f"modulus {p} exceeds the supported bound {MAX_MODULUS}")
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")
    return p


@lru_cache(maxsize=None)
def _binom_support(e: int, p: int) -> tuple:
    """All (k, C(e,k) mod p) with a nonzero binomial, via base-p digits."""
    digits = []
    rest = e
    while rest:
        rest, d = divmod(rest, p)
        digits.append(d)
    choices = [[(c, comb(d, c) % p) for c in range(d + 1)] for d in digits]
    out = []
    for picks in product(*choices):
        k = 0
        coeff = 1
        for pos, (c, b) in enumerate(picks):
            k += c * p**pos
            coeff = coeff * b % p
        out.append((k, coeff))
    return tuple(out)
