"""Prime moduli: the primality test, the modulus check, and the Lucas table
of binomials mod p that the reduced powers and substitutions expand over."""

from __future__ import annotations

from functools import lru_cache
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
def _binom_support(e: int, p: int, cap: int | None = None) -> dict:
    """The Lucas table of e: k -> C(e,k) mod p over the k with a nonzero
    binomial, in increasing k, only the k <= cap when cap is given.

    By Lucas, C(e,k) is the product of C(d,c) over the base-p digits d of e
    and c of k.  The table grows from the lowest digit up; a higher digit
    only adds to k, so a partial k above cap is dropped at once.  Callers
    share the cached dict and must not change it."""
    top = e if cap is None else min(e, cap)
    table = {0: 1}
    place = 1
    while e:
        e, d = divmod(e, p)
        grown = {}
        for c in range(min(d, top // place) + 1):
            b, step = comb(d, c) % p, c * place
            for k, v in table.items():
                if k + step > top:
                    break
                grown[k + step] = v * b % p
        table = grown
        place *= p
    return table


def _pick_count(e: int, p: int) -> int:
    """The size of the uncapped Lucas table of e: the product of d + 1 over
    the base-p digits d of e."""
    count = 1
    while e:
        e, d = divmod(e, p)
        count *= d + 1
    return count
