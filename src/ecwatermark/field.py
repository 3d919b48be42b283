"""Plain-integer helpers for Z/sZ with s prime: primality and square roots.

This module alone decides how square roots mod s are found and how large a
field may be. `root_table` squares each y <= s // 2 once, in one numpy pass,
into an O(s) array, which is why fields stay within ENUMERATION_BOUND;
the curve layer enumerates its points from that table, and
`sqrt_candidates` reads single entries of it. All three functions are pure
functions of their inputs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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


def root_table(s: int) -> np.ndarray:
    """roots[v] is the smaller y in [0, s) with y*y == v mod s, or -1 when v
    is a quadratic non-residue; the other root is s - roots[v], the same
    root when 2 * roots[v] == 0 mod s (v = 0, and v = 1 at s = 2).

    Each y <= s // 2 is squared once. For prime s, y*y == z*z mod s only
    when z is y or s - y, so those squares are distinct and each entry is
    written once. O(s) time and memory.
    Raises ValueError when s is not prime and CapacityError when s exceeds
    ENUMERATION_BOUND.
    """
    if not is_prime(s):
        raise ValueError(f"modulus {s} is not prime")
    if s > ENUMERATION_BOUND:
        raise CapacityError(f"field size {s} exceeds enumeration bound {ENUMERATION_BOUND}")
    roots = np.full(s, -1, dtype=np.intp)
    y = np.arange(s // 2 + 1)
    roots[y * y % s] = y
    return roots


def sqrt_candidates(v: int, s: int) -> list[int]:
    """All y in [0, s) with y*y == v mod s, ascending; one entry of root_table.

    Returns zero, one, or two roots; a quadratic non-residue yields [].
    """
    r = int(root_table(s)[v % s])
    if r < 0:
        return []
    return [r] if 2 * r % s == 0 else [r, s - r]
