"""The abelian group of points on y^2 = x^3 + a*x + b over a small prime field.

Affine coordinates on plain Python ints throughout: on desk-scale fields one
modular inversion (pow(v, -1, s)) per operation is cheap, and the
chord-and-tangent case analysis stays easy to audit. The identity is the
point at infinity O. Construction enumerates the affine points from
field.root_table, the one table of square roots mod s (so its enumeration
bound is the curve's too, and Curve raises CapacityError past it), into x
and y coordinate arrays in one numpy pass, and cuts them into the column
bands of the projection; order(), the projection and the switching map read
those arrays, and Point objects are built only for callers that ask
(affine_points, affine_point); point orders come from walks of cyclic
subgroups, one point's (point_order) or every point's (point_orders).

The nearest affine point to a real query (x, y) is an exact float64 search.
Every scan computes the same float operations,
(px - x)*(px - x) + (py - y)*(py - y), and keeps the least distance at the
lowest index, the lexicographically smallest point. Each first scans only
the points near the query, by one cell rule. Cut the square [0, s) x [0, s)
into cells of W x W, W = round(s / sqrt(N)) for N affine points, the mean
point spacing; a query in the square lies in cell
(cx, cy) = (floor(x) // W, floor(y) // W). Its candidates at reach r are the
points in the (2r + 1) x (2r + 1) cells around it: the columns
[(cx - r)W, (cx + r + 1)W) and the rows [(cy - r)W, (cy + r + 1)W). Since
cx*W <= x < (cx + 1)*W and the coordinates are integers, every other point
lies more than rW away in x or in y; rounding being monotone and (rW)^2
exact, its float distance is at least (rW)^2. A candidate minimum below
(rW)^2 therefore beats every other point, and the scan answers as the
whole-curve scan does, bit for bit and tie for tie. The column bands
apply the rule to columns alone, with bands of B columns for cells: a
query's band and the bands on either side, bound B*B.

- nearest_index, one query on a curve with s up to CELL_TABLE_MAX_S, scans
  its cell's candidates at reach 1 in plain floats.
- nearest_indices, arrays of queries at every field size, scans the padded
  cell table (_cell_table) in numpy: reach 1, then reach 2 for a miss.
- The column bands serve only nearest_index: its queries on curves above
  CELL_TABLE_MAX_S, whose scalar cells would cost set-up and memory there
  (see that bound), and its misses and off-square queries below it.

A query off the square, or with no candidate below the bound, is scanned
against the whole curve. The tests hold the scans equal to each other and to
a whole-curve list scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .field import is_prime, root_table


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

# nearest_indices scans at most about this many distances per block, so its
# temporaries (128 KB each) do not grow with the number of queries. On a
# 2-core Xeon VM (48 KB L1d per core), its table scan of whole grids at
# s = 307 and s = 9973 ran within 25% of its best at 2^13 to 2^15 distances
# per block, 1.3 to 1.8 times slower at 2^11, and 1.5 times slower at 2^16
# on s = 307.
BLOCK_DISTANCES = 1 << 14

# nearest_index scans per-cell candidate tuples in plain floats on curves
# with s up to this bound, and the numpy column bands above it. Filled, the
# tuples take about 260 bytes per affine point (0.49 MB under tracemalloc at
# s = 2039, 2.55 MB at s = 9973). Each endpoint keeps its own, so the bound
# keeps them out of the set-up and memory of curves near the enumeration
# bound. Serving s = 9973 from them too cut the benchmark's switch-large
# latency_p50_ms by about 31%, but raised its peak_rss_mb by 9.6% to 10.4%
# and its setup_s by 17% to 22% (three alternating 30 s pairs on a 2-core
# VM). nearest_indices' padded cell table is built at every field size, but
# only on a curve's first array query, which no switching endpoint makes.
CELL_TABLE_MAX_S = 2048


def _squared_distances(xs, ys, x, y):
    """Float64 squared distances from the points (xs, ys) to a query,
    dx*dx + dy*dy, in place in two temporaries. x and y are floats for one
    query, or (m, 1) columns for an (m, len(xs)) block of m queries: the same
    elementwise operations either way."""
    d = xs - x
    d *= d
    dy = ys - y
    dy *= dy
    d += dy
    return d


class Curve:
    """y^2 = x^3 + a*x + b over F_s with s prime.

    Requires s >= 5: the short Weierstrass group law divides by 2 and the
    discriminant test by 27, so characteristics 2 and 3 are out of scope.
    Construction rejects singular parameter choices (4a^3 + 27b^2 = 0 mod s),
    then enumerates the affine points and builds the column bands; it raises
    CapacityError past the enumeration bound (see field.root_table).
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
        # the affine points, sorted by (x, y): column x holds (x, r) when
        # r >= 0 and (x, s - r) when r > 0, r the smaller root of its
        # right-hand side (-1 for none); root_table refuses s past the bound
        roots = root_table(s)
        col = np.arange(s)
        # below 10^12 within the enumeration bound, so int64 cannot wrap
        r = roots[((col * col + a) * col + b) % s]
        # the true entries of [r >= 0, r >= 1] per column, in row-major
        # order: (x, y) order, since r <= s - r
        self._xs, second = np.nonzero(r[:, None] >= np.arange(2))
        ry = r[self._xs]
        self._ys = np.where(second, s - ry, ry)
        self._build_buckets(self._xs, self._ys)
        # Point objects, nearest_index's cell table and its cells, and
        # nearest_indices' padded cell table, made on first use
        self._affine: list[Point] | None = None
        self._grid: tuple | None = None
        self._cell_points: tuple = ()
        self._table: tuple | None = None

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
        """All affine points, sorted by (x, y): Point objects built from the
        coordinate arrays on the first call and cached."""
        if self._affine is None:
            self._affine = list(map(Point, self._xs.tolist(), self._ys.tolist()))
        return self._affine

    def affine_point(self, i: int) -> Point:
        """affine_points()[i], built on its own from the coordinate arrays."""
        return Point(self._xs.item(i), self._ys.item(i))

    def _build_buckets(self, xs: np.ndarray, ys: np.ndarray) -> None:
        """Cut the columns [0, s) into the column bands of nearest_index: its
        scan on curves above CELL_TABLE_MAX_S and past its cells below.

        Bucket b holds views of the points in columns [(b-1)B, (b+2)B): one
        contiguous index range [lo, hi), since the points are sorted by x.
        B grows with the mean point spacing s/sqrt(N), so a query's nearest
        point is almost always within B columns. The floor of 32 is for small
        fields, where numpy's per-call cost, not the scan, sets the time: a
        field below 32 is one bucket. It shapes only nearest_index's fallback
        from its cells, since scalar queries on curves with
        s <= CELL_TABLE_MAX_S scan cells first, and above s ~ 606 (N ~ s
        points) 1.3 s/sqrt(N) exceeds 32 anyway.
        """
        s, n = self.s, len(xs)
        fx, fy = xs.astype(np.float64), ys.astype(np.float64)
        w = max(32, math.ceil(1.3 * s / math.sqrt(n)))
        self._width = w
        self._whole = (fx, fy, 0, math.inf)
        # edges[j] is the first index in column (j-1)W or later; bucket b
        # spans edges[b] to edges[b+3]
        edges = np.searchsorted(xs, np.arange(-1, -(-s // w) + 2) * w).tolist()
        self._buckets = [
            (fx[lo:hi], fy[lo:hi], lo, math.inf if lo == 0 and hi == n else float(w * w))
            for lo, hi in zip(edges, edges[3:])
        ]

    def points(self) -> list[Point]:
        """The full group: O first, then affine points sorted by (x, y)."""
        return [INFINITY] + self.affine_points()

    def order(self) -> int:
        return len(self._xs) + 1

    def _multiples(self, p: Point) -> list[Point]:
        """[p, 2p, ..., (m-1)p] for an affine point p of order m: p added to
        itself until the sum is O, at most N additions (N affine points)."""
        walk = [p]
        while not (q := self._add(walk[-1], p)).is_infinity:
            walk.append(q)
        return walk

    def point_order(self, p: Point) -> int:
        """Smallest n >= 1 with n*p = O; the order of O itself is 1.

        Walks the cyclic subgroup of p: n - 1 additions for one point. For
        the order of every point, point_orders is far cheaper.
        """
        self._require_on_curve(p)
        if p.is_infinity:
            return 1
        return len(self._multiples(p)) + 1

    def point_orders(self) -> dict[Point, int]:
        """{P: point_order(P)} for every affine point, in affine_points() order.

        Walks cyclic subgroups. For each point P with no order yet, adding P
        to itself until the sum is O lists P, 2P, ..., (m-1)P, so m is the
        order of P; each multiple kP then gets the order m / gcd(k, m), exact
        group theory (it covers -P = (m-1)P).

        The cost is at most max m/phi(m) times N additions (N affine points,
        m over the point orders, phi Euler's totient). A walk from P costs
        m - 1 additions, and all phi(m) generators of <P> are new to it: had
        an earlier walk from P' reached a generator Q, then <P> = <Q> would
        lie inside <P'>, and P would have its order already. So each walk
        assigns at least phi(m) points for fewer than m additions. Within the
        enumeration bound every order is below 30030 = 2*3*5*7*11*13, so
        m/phi(m) is at most 2310/phi(2310) = 4.8125, against m - 1
        additions per point for point_order.
        """
        orders = dict.fromkeys(self.affine_points(), 0)
        for p in orders:
            if orders[p]:
                continue
            walk = self._multiples(p)
            m = len(walk) + 1
            for k, q in enumerate(walk, 1):
                if not orders[q]:
                    orders[q] = m // math.gcd(k, m)
        return orders

    def cofactor(self, p: Point) -> int:
        """Group order divided by the order of p (an integer by Lagrange)."""
        return self.order() // self.point_order(p)

    def nearest_index(self, x: float, y: float) -> int:
        """Index into affine_points() of the point nearest to (x, y).

        Distances are float64 squared Euclidean distances,
        (px - x)*(px - x) + (py - y)*(py - y) in that order, and ties resolve
        to the lexicographically smallest point: the points are sorted and
        each scan keeps the first minimum. The switching map projects through
        this entry point and the partition export and sweeps through
        nearest_indices, which give the same answers bit for bit.

        On a curve with s <= CELL_TABLE_MAX_S, a query in the square
        [0, s) x [0, s) scans its cell's candidates at reach 1 in plain
        floats, with a strict < from W*W (the cell rule of the module
        docstring); each cell's candidates are collected as (index, x, y)
        tuples, in index order, on the cell's first query. Otherwise (a
        larger curve, a cell with no candidate below W*W, or a query off the
        square) the column-band scan runs in numpy, and then, when its bound
        fails or x is outside [0, s), the whole curve. Raises InputError
        when no distance is finite: a NaN or infinite coordinate, or one so
        large that every squared distance overflows.
        """
        s = self.s
        if s <= CELL_TABLE_MAX_S and 0 <= x < s and 0 <= y < s:
            w, m, best, cells = self._grid or self._cell_grid()
            c = int(x) // w * m + int(y) // w
            candidates = cells[c]
            if candidates is None:
                candidates = cells[c] = self._cell_candidates(c)
            k = -1
            for i, px, py in candidates:
                d = (px - x) * (px - x) + (py - y) * (py - y)
                if d < best:
                    best, k = d, i
            if k >= 0:
                return k
        if 0 <= x < s:
            xs, ys, lo, bound = self._buckets[int(x) // self._width]
        else:
            xs, ys, lo, bound = self._whole
        while True:
            d = _squared_distances(xs, ys, x, y)
            i = int(d.argmin())
            if d[i] < bound:
                return lo + i
            if bound == math.inf:
                # the scan covered the whole curve: no distance is finite
                raise InputError(f"cannot project ({x!r}, {y!r}) onto {self!r}")
            xs, ys, lo, bound = self._whole

    def _cell_grid(self) -> tuple:
        """nearest_index's cell table (W, cells per side M, float W*W, cells),
        cell cx*M + cy holding None until _cell_candidates fills it. Made on
        the first scalar query, with what the cells share: the (index, x, y)
        float tuple of every point, and the first index of each column of
        cells."""
        s, n = self.s, len(self._xs)
        w = max(1, round(s / math.sqrt(n)))
        m = -(-s // w)
        fx, fy = self._whole[0].tolist(), self._whole[1].tolist()
        # starts[j] is the first index in column (j-1)W or later, as edges in
        # _build_buckets
        starts = np.searchsorted(self._xs, np.arange(-1, m + 2) * w).tolist()
        self._cell_points = (list(zip(range(n), fx, fy)), starts)
        self._grid = (w, m, float(w * w), [None] * (m * m))
        return self._grid

    def _cell_candidates(self, c: int) -> tuple:
        """The candidates of cell c: the (index, x, y) tuples of the points
        in its block of 3 x 3 cells, in index order."""
        w, m = self._grid[:2]
        points, starts = self._cell_points
        cx, cy = divmod(c, m)
        lo, hi = (cy - 1) * w, (cy + 2) * w
        return tuple(p for p in points[starts[cx]:starts[cx + 3]] if lo <= p[2] < hi)

    def nearest_indices(self, qx, qy) -> np.ndarray:
        """nearest_index of every query (qx[k], qy[k]), as an integer array.

        The queries in the square scan the padded cell table (_cell_table,
        built on the curve's first array query) in blocks, by the cell rule
        of the module docstring: each query's row, its candidates at reach 1,
        with bound W*W, and for a miss the rows of the four diagonal
        neighbours of its cell, which together hold its candidates at reach
        2, with bound (2W)^2. The queries off the square, and the rare ones
        that miss both, are scanned against the whole curve. The float
        operations and the tie rule are those of nearest_index's scans, so
        each answer is the same bit for bit (the tests hold the two equal).
        A block holds at most about BLOCK_DISTANCES distances. Raises
        InputError for the first query, in input order, that nearest_index
        would reject.
        """
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        if qx.ndim != 1 or qx.shape != qy.shape:
            raise ValueError("queries must be two 1-D arrays of equal length")
        s = self.s
        w, m = (self._table or self._cell_table())[:2]
        out = np.empty(len(qx), dtype=np.intp)
        inside = (qx >= 0) & (qx < s) & (qy >= 0) & (qy < s)  # False for NaN
        queries = np.flatnonzero(inside)
        x, y = qx[queries], qy[queries]
        cells = ((x.astype(np.intp) // w + 1) * m + y.astype(np.intp) // w + 1)[:, None]
        ring = self._scan_cells(cells, x, y, w * w, queries, out)
        around = cells[ring] + np.array([-m - 1, -m + 1, m - 1, m + 1])
        far = self._scan_cells(around, x[ring], y[ring], 4 * w * w, queries[ring], out)
        rest = np.sort(np.concatenate([np.flatnonzero(~inside), queries[ring][far]]))
        bad = self._scan_block(self._whole, rest, qx, qy, out)
        if len(bad):
            k = bad[0]
            raise InputError(f"cannot project ({float(qx[k])!r}, {float(qy[k])!r}) onto {self!r}")
        return out

    def _cell_table(self) -> tuple:
        """nearest_indices' padded cell table (W, cells per side M with the
        borders, candidates, their x, their y).

        The cells are nearest_index's W x W cells with a border cell on every
        side, so that each cell of the square has all eight neighbours; cell
        (cx, cy) is row (cx + 1) * M + cy + 1. A row holds the indices of the
        points in the row's block of 3 x 3 cells, in index order, as int32,
        and their float64 coordinates beside them, padded to the longest row
        with index N and coordinate inf (N affine points).
        """
        s, xs, ys = self.s, self._xs, self._ys
        n = len(xs)
        w = max(1, round(s / math.sqrt(n)))
        m = -(-s // w) + 2
        home = (xs // w + 1) * m + ys // w + 1
        # each point joins the nine cells around its own; a stable sort by
        # cell keeps each cell's points in index order (a radix sort on the
        # 8- or 16-bit cell numbers of fields within the enumeration bound)
        cell = (home[:, None] + (np.arange(-1, 2)[:, None] * m + np.arange(-1, 2)).ravel()).ravel()
        cell = cell.astype(np.min_scalar_type(m * m - 1))
        order = np.argsort(cell, kind="stable")
        cell = cell[order]
        counts = np.bincount(cell, minlength=m * m)
        slot = np.arange(len(cell)) - (np.cumsum(counts) - counts)[cell]
        candidates = np.full((m * m, counts.max()), n, dtype=np.int32)
        candidates[cell, slot] = order // 9  # the point of each (point, cell) pair
        fx = np.append(self._whole[0], np.inf)
        fy = np.append(self._whole[1], np.inf)
        self._table = (w, m, candidates, fx[candidates], fy[candidates])
        return self._table

    def _scan_cells(self, rows, x, y, bound, queries, out) -> np.ndarray:
        """Scan the queries (x, y), numbered `queries` in out, against the
        candidates of their table rows (an array of row numbers per query),
        and write each answer whose distance is below bound into out. Return
        the positions of the others, in their given order."""
        candidates, tx, ty = self._table[2:]
        width = rows.shape[1] * candidates.shape[1]
        step = max(1, BLOCK_DISTANCES // width)
        missed = [np.zeros(0, dtype=np.intp)]
        for start in range(0, len(rows), step):
            r = rows[start:start + step]
            k = len(r)
            # _squared_distances' operations, in place in the gathered rows
            d = tx[r].reshape(k, width)
            d -= x[start:start + step, None]
            d *= d
            dy = ty[r].reshape(k, width)
            dy -= y[start:start + step, None]
            dy *= dy
            d += dy
            if rows.shape[1] == 1:
                # one row lists its candidates in index order: the first
                # minimum is the lowest index at the least distance
                j = d.argmin(axis=1)
                least, i = d[np.arange(k), j], candidates[r[:, 0], j]
            else:
                least = d.min(axis=1)
                c = candidates[r].reshape(k, width)
                i = np.where(d == least[:, None], c, len(self._xs)).min(axis=1)
            hit = least < bound
            out[queries[start:start + step][hit]] = i[hit]
            missed.append(start + np.flatnonzero(~hit))
        return np.concatenate(missed)

    @staticmethod
    def _scan_block(table, queries, qx, qy, out) -> np.ndarray:
        """Write the answers of the queries (indices into qx, qy) whose band
        minimum in `table` is below its bound into out; return the others,
        in their given order."""
        xs, ys, lo, bound = table
        step = max(1, BLOCK_DISTANCES // len(xs))
        missed = [queries[:0]]
        for start in range(0, len(queries), step):
            k = queries[start:start + step]
            d = _squared_distances(xs, ys, qx[k, None], qy[k, None])
            i = d.argmin(axis=1)
            hit = d[np.arange(len(k)), i] < bound
            out[k[hit]] = lo + i[hit]
            missed.append(k[~hit])
        return np.concatenate(missed)

    def nearest_affine(self, x: float, y: float) -> Point:
        """Affine point minimizing squared Euclidean distance to (x, y); see
        nearest_index for the float operations, tie rule and errors."""
        return self.affine_point(self.nearest_index(x, y))
