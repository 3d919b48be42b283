import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecwatermark import FieldElement, NonInvertibleError, sqrt_candidates
from ecwatermark.field import is_prime

PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 101, 257]


def fe(v, s=17):
    return FieldElement(v, s)


# -- oracles -----------------------------------------------------------------

def inverse_by_search(a: int, s: int) -> int:
    """Reference inverse: scan all candidates."""
    for x in range(1, s):
        if (a * x) % s == 1:
            return x
    raise AssertionError(f"{a} has no inverse mod {s}")


def sqrt_by_search(v: int, s: int) -> list[int]:
    """Reference square roots: scan all candidates."""
    return [y for y in range(s) if (y * y) % s == v % s]


# -- construction ------------------------------------------------------------

def test_values_are_reduced():
    assert fe(20).value == 3
    assert fe(-1).value == 16


def test_composite_modulus_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 15)


def test_oversize_modulus_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 2**63 + 9)


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


# -- arithmetic --------------------------------------------------------------

def test_add_wraps():
    assert (fe(3) + fe(16)).value == 2


def test_sub():
    assert (fe(3) - fe(16)).value == 4


def test_mul_identity():
    for v in range(17):
        assert (fe(v) * fe(1)).value == v


def test_pow_zero_is_one():
    assert (fe(2) ** 0).value == 1


def test_pow_matches_repeated_mul():
    acc = fe(1)
    for k in range(10):
        assert (fe(3) ** k).value == acc.value
        acc = acc * fe(3)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        fe(2) ** -1


def test_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        FieldElement(1, 17) + FieldElement(1, 19)


def test_mixed_types_rejected():
    with pytest.raises(TypeError):
        fe(1) + 1


# -- inversion ---------------------------------------------------------------

def test_inverse_of_two_mod_17():
    assert fe(2).inverse().value == inverse_by_search(2, 17) == 9


def test_inverse_of_one():
    assert fe(1).inverse().value == 1


def test_zero_not_invertible():
    with pytest.raises(NonInvertibleError):
        fe(0).inverse()


@pytest.mark.parametrize("s", [17, 101])
def test_inverse_involution_everywhere(s):
    for a in range(1, s):
        el = FieldElement(a, s)
        assert el.inverse().inverse() == el
        assert (el * el.inverse()).value == 1


# -- square roots ------------------------------------------------------------

def test_sqrt_of_one_mod_17():
    roots = sqrt_candidates(fe(1))
    assert [r.value for r in roots] == sqrt_by_search(1, 17) == [1, 16]


def test_sqrt_of_zero():
    assert [r.value for r in sqrt_candidates(fe(0))] == [0]


def test_sqrt_nonresidue_empty():
    assert sqrt_by_search(3, 17) == []
    assert sqrt_candidates(fe(3)) == []


@pytest.mark.parametrize("s", [17, 101, 257])
def test_sqrt_matches_exhaustive_oracle(s):
    for v in range(s):
        got = [r.value for r in sqrt_candidates(FieldElement(v, s))]
        assert got == sqrt_by_search(v, s)


def test_tonelli_shanks_agrees_with_search():
    # 1009 = 1 mod 4 exercises the general branch; oracle is the full scan
    s = 1009
    for v in [0, 1, 2, 3, 5, 10, 123, 500, 1008]:
        got = [r.value for r in sqrt_candidates(FieldElement(v, s))]
        assert got == sqrt_by_search(v, s)


@pytest.mark.parametrize("s", [17, 101, 1009])
def test_root_counts_sum_to_field_size(s):
    total = 0
    for v in range(s):
        n = len(sqrt_candidates(FieldElement(v, s)))
        assert n in (0, 1, 2)
        total += n
    assert total == s


# -- field axioms ------------------------------------------------------------

@pytest.mark.parametrize("s", [5, 7, 31])
def test_axioms_exhaustive_small_fields(s):
    els = [FieldElement(v, s) for v in range(s)]
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert a * (b + c) == a * b + a * c


@given(st.sampled_from([101, 257, 1009]), st.data())
def test_axioms_randomized_larger_fields(s, data):
    pick = st.integers(min_value=0, max_value=s - 1)
    a = FieldElement(data.draw(pick), s)
    b = FieldElement(data.draw(pick), s)
    c = FieldElement(data.draw(pick), s)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
