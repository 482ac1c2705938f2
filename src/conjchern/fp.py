"""Prime moduli: the primality test and the modulus check."""

from __future__ import annotations

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
