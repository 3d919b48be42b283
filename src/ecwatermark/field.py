"""Plain-integer helpers for Z/sZ with s prime: primality and square roots.

This module alone decides how square roots mod s are found and how large a
field may be. `root_table` squares every residue once, which is why fields
stay within ENUMERATION_BOUND; the curve layer enumerates its points from
that table, and `sqrt_candidates` reads single entries of it. All three
functions are pure functions of their inputs.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import CapacityError

ENUMERATION_BOUND = 10_000

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


def root_table(s: int) -> list[list[int]]:
    """roots[v] lists every y in [0, s) with y*y == v mod s, ascending.

    O(s) time and memory. Raises ValueError when s is not prime and
    CapacityError when s exceeds ENUMERATION_BOUND.
    """
    if not is_prime(s):
        raise ValueError(f"modulus {s} is not prime")
    if s > ENUMERATION_BOUND:
        raise CapacityError(f"field size {s} exceeds enumeration bound {ENUMERATION_BOUND}")
    roots: list[list[int]] = [[] for _ in range(s)]
    for y in range(s):
        roots[y * y % s].append(y)
    return roots


def sqrt_candidates(v: int, s: int) -> list[int]:
    """All y in [0, s) with y*y == v mod s, ascending; see root_table.

    Returns zero, one, or two roots; a quadratic non-residue yields [].
    """
    return root_table(s)[v % s]
