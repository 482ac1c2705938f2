"""Prime moduli: the primality test, the modulus check, the least primitive
root, and the Lucas table of binomials mod p that the reduced powers and
substitutions expand over."""

from __future__ import annotations

from functools import lru_cache
from math import comb

MAX_MODULUS = 2**31


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for word-sized moduli; cached,
    since every ring and context over p checks p again."""
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


def primitive_root(p: int) -> int:
    """The least generator of the units mod the prime p: the least g with
    g^((p-1)/q) != 1 for each prime q dividing p - 1, found by trial division."""
    n, q, primes = check_modulus(p) - 1, 2, []
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return next(g for g in range(1, p) if all(pow(g, (p - 1) // q, p) != 1 for q in primes))


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
