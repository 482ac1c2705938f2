from math import comb

import pytest

from conjchern.fp import _binom_support, _pick_count, check_modulus, is_prime, primitive_root


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13]
    not_primes = [0, 1, 4, 6, 9, 15, 21, 25]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in not_primes)


def test_primitive_root_is_the_least_generator():
    """Against a brute-force search for the least g whose powers reach every unit."""
    for p in filter(is_prime, range(500)):
        least = next(
            g for g in range(1, p) if len({pow(g, k, p) for k in range(p - 1)}) == p - 1
        )
        assert primitive_root(p) == least
    assert primitive_root(2**31 - 1) == 7


def test_check_modulus_rejects_composite():
    with pytest.raises(ValueError):
        check_modulus(9)
    with pytest.raises(ValueError):
        check_modulus(2**31 + 11)


def brute_table(e, p):
    """k -> C(e,k) mod p over the nonzero values, from math.comb."""
    return {k: b for k in range(e + 1) if (b := comb(e, k) % p)}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13])
def test_lucas_table_matches_the_binomials(p):
    for e in range(300):
        table = _binom_support(e, p)
        assert table == brute_table(e, p)
        assert list(table) == sorted(table)
        assert _pick_count(e, p) == len(table)
        for cap in (0, 1, 2, p - 1, p, 2 * p + 1, 50, 299):
            capped = _binom_support(e, p, cap)
            assert capped == {k: b for k, b in table.items() if k <= cap}
            assert list(capped) == sorted(capped)


def test_lucas_table_at_the_largest_admitted_prime():
    p = 2147483647
    e = p + 5
    low = {k: comb(5, k) for k in range(6)}
    table = _binom_support(e, p)
    assert table == {**low, **{p + k: b for k, b in low.items()}}
    assert list(table) == sorted(table)
    assert _pick_count(e, p) == 12
    assert _binom_support(e, p, p) == {**low, p: 1}
    # the choices of the digit p - 1 are walked only up to the cap
    assert _binom_support(p - 1, p, 3) == {k: comb(p - 1, k) % p for k in range(4)}
