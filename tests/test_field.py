import pytest

from ecwatermark import CapacityError, sqrt_candidates
from ecwatermark.field import is_prime


# -- oracles -----------------------------------------------------------------

def sqrt_by_search(v: int, s: int) -> list[int]:
    """Reference square roots: scan all candidates."""
    return [y for y in range(s) if (y * y) % s == v % s]


def is_prime_by_trial_division(n: int) -> bool:
    """Reference primality test."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- primality ---------------------------------------------------------------

def test_is_prime_matches_small_table():
    table = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in table)


def test_is_prime_matches_trial_division_below_1e5():
    for n in range(10**5):
        assert is_prime(n) == is_prime_by_trial_division(n), n


def test_is_prime_large_values():
    # Mersenne primes and the strong pseudoprime 3215031751 (bases 2, 3, 5, 7)
    assert is_prime(2**61 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime(3215031751)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


# -- square roots ------------------------------------------------------------

def test_values_are_reduced():
    assert sqrt_candidates(20, 17) == sqrt_candidates(3, 17)
    assert sqrt_candidates(-1, 17) == sqrt_candidates(16, 17) == [4, 13]


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        sqrt_candidates(1, 15)


def test_sqrt_of_one_mod_17():
    assert sqrt_candidates(1, 17) == sqrt_by_search(1, 17) == [1, 16]


def test_sqrt_of_zero():
    assert sqrt_candidates(0, 17) == [0]


def test_sqrt_nonresidue_empty():
    assert sqrt_by_search(3, 17) == []
    assert sqrt_candidates(3, 17) == []


@pytest.mark.parametrize("s", [17, 101, 257, 1009])
def test_sqrt_matches_exhaustive_oracle(s):
    for v in range(s):
        assert sqrt_candidates(v, s) == sqrt_by_search(v, s)


def test_sqrt_past_enumeration_bound_rejected():
    with pytest.raises(CapacityError):
        sqrt_candidates(1, 10007)
    with pytest.raises(CapacityError):
        sqrt_candidates(4, 2**61 - 1)


@pytest.mark.parametrize("s", [17, 101, 1009])
def test_root_counts_sum_to_field_size(s):
    total = 0
    for v in range(s):
        n = len(sqrt_candidates(v, s))
        assert n in (0, 1, 2)
        total += n
    assert total == s
