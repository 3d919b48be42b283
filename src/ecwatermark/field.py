"""Plain-integer helpers for Z/sZ with s prime: primality and square roots.

The curve layer does its arithmetic on plain ints and uses only `is_prime`
from here; `sqrt_candidates` serves callers that want individual square
roots and the tests as a reference enumeration of curve points. Both are
pure functions of their inputs.
"""

from __future__ import annotations

from functools import lru_cache

# Below this size the square-root search is exhaustive; the scan doubles as
# the reference algorithm for the Tonelli-Shanks branch used above it.
EXHAUSTIVE_SQRT_LIMIT = 1000


# Miller-Rabin with these witnesses is exact for every n < 3.3 * 10**24,
# far beyond any field this package can enumerate.
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


def sqrt_candidates(v: int, s: int) -> list[int]:
    """All y in [0, s) with y*y == v mod s, ascending; s must be prime.

    Returns zero, one, or two roots; a quadratic non-residue yields [].
    """
    if not is_prime(s):
        raise ValueError(f"modulus {s} is not prime")
    v %= s
    if s < EXHAUSTIVE_SQRT_LIMIT:
        return [y for y in range(s) if y * y % s == v]
    return sorted(_tonelli_shanks(v, s))


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
