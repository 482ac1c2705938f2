import pytest

from conjchern.fp import check_modulus, is_prime


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13]
    not_primes = [0, 1, 4, 6, 9, 15, 21, 25]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in not_primes)


def test_check_modulus_rejects_composite():
    with pytest.raises(ValueError):
        check_modulus(9)
    with pytest.raises(ValueError):
        check_modulus(2**31 + 11)

