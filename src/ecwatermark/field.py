"""Exact arithmetic in Z/sZ for prime s.

`FieldElement` is the checked public value type: it validates its modulus
and refuses to mix fields. The curve layer does its arithmetic on plain ints
and uses only `is_prime` from here; `sqrt_candidates` serves callers that
want individual square roots and the tests as a reference enumeration.
Elements are immutable values and all operations are pure functions of their
inputs, so they can be used from any number of concurrent callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import NonInvertibleError

# Large enough for every field this package targets, small enough that
# intermediate products stay cheap on any platform.
MAX_MODULUS = 2**63 - 1

# Below this size the square-root search is exhaustive; the scan doubles as
# the reference algorithm for the Tonelli-Shanks branch used above it.
EXHAUSTIVE_SQRT_LIMIT = 1000


# Miller-Rabin with these witnesses is exact for every n < 3.3 * 10**24,
# far beyond MAX_MODULUS.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=512)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; O(log n) per witness."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class FieldElement:
    """An element of the prime field Z/sZ, stored as its canonical representative.

    Construction reduces the value into [0, s) and checks that the modulus is
    prime. Arithmetic is only defined between elements of the same field;
    mixing moduli raises ValueError.
    """

    value: int
    modulus: int

    def __post_init__(self):
        if not isinstance(self.value, int) or not isinstance(self.modulus, int):
            raise ValueError("field element value and modulus must be integers")
        if self.modulus > MAX_MODULUS:
            raise ValueError(f"modulus {self.modulus} exceeds the supported bound 2**63 - 1")
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _check_same_field(self, other: "FieldElement") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"mixed moduli: {self.modulus} vs {other.modulus}"
            )

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_same_field(other)
        return FieldElement(self.value + other.value, self.modulus)

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_same_field(other)
        return FieldElement(self.value - other.value, self.modulus)

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check_same_field(other)
        return FieldElement(self.value * other.value, self.modulus)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        return FieldElement(pow(self.value, exponent, self.modulus), self.modulus)

    def __neg__(self):
        return FieldElement(-self.value, self.modulus)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse; zero has none."""
        if self.value == 0:
            raise NonInvertibleError(f"0 has no inverse mod {self.modulus}")
        return FieldElement(pow(self.value, self.modulus - 2, self.modulus), self.modulus)

    def __int__(self) -> int:
        return self.value

    def __str__(self) -> str:
        return str(self.value)


def sqrt_candidates(v: FieldElement) -> list[FieldElement]:
    """All y with y*y == v in F_s, ascending by representative.

    Returns zero, one, or two elements; a quadratic non-residue yields [].
    """
    s = v.modulus
    if s < EXHAUSTIVE_SQRT_LIMIT:
        return [FieldElement(y, s) for y in range(s) if (y * y) % s == v.value]
    return [FieldElement(y, s) for y in sorted(_tonelli_shanks(v.value, s))]


def _tonelli_shanks(n: int, p: int) -> list[int]:
    if n == 0:
        return [0]
    if pow(n, (p - 1) // 2, p) != 1:
        return []
    if p % 4 == 3:
        r = pow(n, (p + 1) // 4, p)
        return [r, p - r] if r != p - r else [r]
    # general case: write p - 1 = q * 2^m with q odd
    q, m = p - 1, 0
    while q % 2 == 0:
        q //= 2
        m += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c = pow(z, q, p)
    t = pow(n, q, p)
    r = pow(n, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = (t2 * t2) % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return [r, p - r] if r != p - r else [r]
