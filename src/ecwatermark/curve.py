"""The abelian group of points on y^2 = x^3 + a*x + b over a small prime field.

Affine coordinates on plain Python ints throughout: on desk-scale fields one
modular inversion (pow(v, -1, s)) per operation is cheap, and the
chord-and-tangent case analysis stays easy to audit. The identity is the
point at infinity O. Points are enumerated from one table of square roots
mod s; a point's order comes from the factorized group order; the nearest
affine point to a real query is one vectorized float64 search over the
enumerated points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, ConfigError, InputError
from .field import is_prime

ENUMERATION_BOUND = 10_000


@dataclass(frozen=True, slots=True)
class Point:
    """A curve point: affine integer coordinates, or the identity O."""

    x: int | None
    y: int | None

    def __post_init__(self):
        if (self.x is None) != (self.y is None):
            raise ValueError("affine points need both coordinates")

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __repr__(self) -> str:
        return "O" if self.x is None else f"({self.x}, {self.y})"


INFINITY = Point(None, None)


class Curve:
    """y^2 = x^3 + a*x + b over F_s with s prime.

    Requires s >= 5: the short Weierstrass group law divides by 2 and the
    discriminant test by 27, so characteristics 2 and 3 are out of scope.
    Construction rejects singular parameter choices (4a^3 + 27b^2 = 0 mod s).
    """

    def __init__(self, a: int, b: int, s: int):
        if not isinstance(s, int) or not is_prime(s):
            raise ConfigError(f"field size {s!r} is not prime", path="curve.s")
        if s < 5:
            raise ConfigError("short Weierstrass form needs characteristic > 3", path="curve.s")
        if not isinstance(a, int) or not isinstance(b, int):
            raise ConfigError("curve coefficients must be integers", path="curve")
        a %= s
        b %= s
        if (4 * a * a * a + 27 * b * b) % s == 0:
            raise ConfigError(f"singular curve: 4a^3 + 27b^2 = 0 mod {s}", path="curve")
        self.a = a
        self.b = b
        self.s = s
        self._affine: list[Point] | None = None
        self._xs: np.ndarray | None = None
        self._ys: np.ndarray | None = None

    def __repr__(self) -> str:
        return f"Curve(a={self.a}, b={self.b}, s={self.s})"

    def __eq__(self, other):
        if not isinstance(other, Curve):
            return NotImplemented
        return (self.a, self.b, self.s) == (other.a, other.b, other.s)

    def __hash__(self):
        return hash((self.a, self.b, self.s))

    # -- membership ------------------------------------------------------

    def contains(self, p: Point) -> bool:
        """True iff p is O or satisfies the curve equation."""
        if p.is_infinity:
            return True
        x, y = p.x % self.s, p.y % self.s
        return (y * y - (x * x * x + self.a * x + self.b)) % self.s == 0

    def _require_on_curve(self, p: Point) -> None:
        if not self.contains(p):
            raise ValueError(f"{p!r} is not on {self!r}")

    # -- group law -------------------------------------------------------

    def negate(self, p: Point) -> Point:
        if p.is_infinity:
            return INFINITY
        return Point(p.x, (-p.y) % self.s)

    def add(self, p: Point, q: Point) -> Point:
        """Group addition; dispatches to doubling when p == q."""
        self._require_on_curve(p)
        self._require_on_curve(q)
        return self._add(p, q)

    def _add(self, p: Point, q: Point) -> Point:
        # internal fast path: callers guarantee membership
        if p.is_infinity:
            return q
        if q.is_infinity:
            return p
        s = self.s
        x1, y1, x2, y2 = p.x, p.y, q.x, q.y
        if (x2 - x1) % s == 0:
            if (y1 + y2) % s == 0:
                # q = -p, which also covers doubling a point with y = 0
                return INFINITY
            lam = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, s) % s
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, s) % s
        xr = (lam * lam - x1 - x2) % s
        return Point(xr, (lam * (x1 - xr) - y1) % s)

    def scalar_mul(self, k: int, p: Point) -> Point:
        """k-fold sum of p via double-and-add; k = 0 gives O."""
        if not isinstance(k, int) or k < 0:
            raise ValueError("scalar must be a non-negative integer")
        self._require_on_curve(p)
        result, addend = INFINITY, p
        while k:
            if k & 1:
                result = self._add(result, addend)
            addend = self._add(addend, addend)
            k >>= 1
        return result

    # -- enumeration and derived quantities --------------------------------

    def affine_points(self) -> list[Point]:
        """All affine points, sorted by (x, y). Cached after the first call."""
        if self._affine is None:
            if self.s > ENUMERATION_BOUND:
                raise CapacityError(
                    f"field size {self.s} exceeds enumeration bound {ENUMERATION_BOUND}"
                )
            s, a, b = self.s, self.a, self.b
            # roots[v] lists every y with y*y = v, ascending because y is
            roots: list[list[int]] = [[] for _ in range(s)]
            for y in range(s):
                roots[y * y % s].append(y)
            pts = [Point(x, y) for x in range(s) for y in roots[(x * x * x + a * x + b) % s]]
            self._xs = np.array([p.x for p in pts], dtype=np.float64)
            self._ys = np.array([p.y for p in pts], dtype=np.float64)
            self._affine = pts
        return self._affine

    def points(self) -> list[Point]:
        """The full group: O first, then affine points sorted by (x, y)."""
        return [INFINITY] + self.affine_points()

    def order(self) -> int:
        return len(self.affine_points()) + 1

    @cached_property
    def _order_primes(self) -> list[int]:
        """Distinct prime divisors of the group order; O(N) once per curve."""
        n = self.order()
        return [q for q in range(2, n + 1) if n % q == 0 and is_prime(q)]

    def point_order(self, p: Point) -> int:
        """Smallest n >= 1 with n*p = O; the order of O itself is 1.

        Starts from the group order (a multiple of every point order) and
        strips each prime factor q while (n/q)*p is still O.
        """
        self._require_on_curve(p)
        n = self.order()
        for q in self._order_primes:
            while n % q == 0 and self.scalar_mul(n // q, p).is_infinity:
                n //= q
        return n

    def cofactor(self, p: Point) -> int:
        """Group order divided by the order of p (an integer by Lagrange)."""
        return self.order() // self.point_order(p)

    def nearest_affine(self, x: float, y: float) -> Point:
        """Affine point minimizing squared Euclidean distance to (x, y).

        Distances are float64, computed as dx*dx + dy*dy for every point at
        once. Ties resolve to the lexicographically smallest point: the point
        list is sorted and argmin returns the first minimum. This is the
        single projection routine shared by the switching map and the
        partition export, so the two can never disagree. Raises InputError
        when no distance is finite: a NaN or infinite coordinate, or one so
        large that every squared distance overflows.
        """
        pts = self.affine_points()
        dx = self._xs - x
        dy = self._ys - y
        d = dx * dx + dy * dy
        i = int(d.argmin())
        if not math.isfinite(d[i]):
            raise InputError(f"cannot project ({x!r}, {y!r}) onto {self!r}")
        return pts[i]
