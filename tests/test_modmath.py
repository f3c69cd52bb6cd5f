"""Primality and the Dimension type, checked against a sieve oracle."""

import pytest

from mublogic.modmath import Dimension, NotPrimeError, is_prime


def sieve(limit: int) -> set[int]:
    """Independent primality oracle: sieve of Eratosthenes."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for k in range(p * p, limit + 1, p):
                flags[k] = False
    return {n for n, f in enumerate(flags) if f}


def test_is_prime_small_cases():
    assert is_prime(2)
    assert not is_prime(4)
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(3)


def test_is_prime_matches_sieve_oracle():
    primes = sieve(8000)
    for n in range(8001):
        assert is_prime(n) == (n in primes), n
    assert is_prime(7919)  # 1000th prime, inside the sieved range


def test_dimension_requires_prime():
    for bad in (0, 1, 4, 6, 9, 100):
        with pytest.raises(NotPrimeError):
            Dimension(bad)
    assert Dimension(2).d == 2
    assert Dimension(31).d == 31
