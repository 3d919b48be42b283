import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from ecwatermark import (
    INFINITY,
    CapacityError,
    ConfigError,
    Curve,
    InputError,
    Point,
)
from ecwatermark import curve as curve_module
from ecwatermark.curve import BLOCK_DISTANCES, CELL_TABLE_MAX_S

from conftest import order_by_factor_stripping, voronoi_cells

P51 = Point(5, 1)


# -- oracles -------------------------------------------------------------------

def repeated_add(curve, k, p):
    acc = INFINITY
    for _ in range(k):
        acc = curve.add(acc, p)
    return acc


def order_by_repeated_add(curve, p):
    """Reference point order: add p to itself until O."""
    n, acc = 1, p
    while not acc.is_infinity:
        acc = curve.add(acc, p)
        n += 1
    return n


def enumerate_by_sqrt(curve):
    """Reference enumeration: per-x square roots by a full scan over y,
    independent of the field layer's root table."""
    s = curve.s
    return [Point(x, y) for x in range(s) for y in range(s)
            if (y * y - (x ** 3 + curve.a * x + curve.b)) % s == 0]


@functools.cache
def _coordinates(curve):
    """The affine points as float coordinate lists, sorted by (x, y)."""
    pts = sorted((p.x, p.y) for p in curve.affine_points())
    return [float(x) for x, _ in pts], [float(y) for _, y in pts]


def nearest_by_list_scan(curve, x, y):
    """Reference projection: linear scan, smallest (d, x, y) wins, with d
    computed in the same float operation order as the fast path. The lists
    are sorted by (x, y), so the first smallest d wins."""
    xs, ys = _coordinates(curve)
    ds = [(px - x) * (px - x) + (py - y) * (py - y) for px, py in zip(xs, ys)]
    i = ds.index(min(ds))
    return Point(int(xs[i]), int(ys[i]))


@functools.cache
def _coordinate_arrays(curve):
    return tuple(np.array(c, dtype=np.float64) for c in _coordinates(curve))


def nearest_by_scan(curve, x, y):
    """Reference projection: nearest_by_list_scan's float operations over the
    whole curve at once, elementwise in numpy; argmin returns the first
    minimum in (x, y) order."""
    xs, ys = _coordinate_arrays(curve)
    i = int(((xs - x) * (xs - x) + (ys - y) * (ys - y)).argmin())
    return Point(int(xs[i]), int(ys[i]))


# -- construction ------------------------------------------------------------

def test_singular_curve_rejected():
    # 4a^3 + 27b^2 = 0 mod 17 for a = 0, b = 0
    with pytest.raises(ConfigError):
        Curve(0, 0, 17)


def test_composite_field_rejected():
    with pytest.raises(ConfigError):
        Curve(2, 2, 15)


def test_tiny_characteristic_rejected():
    with pytest.raises(ConfigError):
        Curve(1, 1, 3)


def test_point_needs_both_coordinates():
    with pytest.raises(ValueError):
        Point(5, None)


# -- membership --------------------------------------------------------------

def test_membership_examples(desk_curve):
    assert desk_curve.contains(P51)
    assert desk_curve.contains(INFINITY)
    assert not desk_curve.contains(Point(5, 2))


# -- group law ---------------------------------------------------------------

def test_identity_addition(desk_curve):
    assert desk_curve.add(P51, INFINITY) == P51
    assert desk_curve.add(INFINITY, P51) == P51


def test_doubling_example(desk_curve):
    assert desk_curve.add(P51, P51) == Point(6, 3)


def test_generic_addition_example(desk_curve):
    assert desk_curve.add(P51, Point(6, 3)) == Point(10, 6)


def test_inverse_pair_gives_identity(desk_curve):
    assert desk_curve.add(P51, Point(5, 16)) == INFINITY
    assert desk_curve.negate(P51) == Point(5, 16)


def test_off_curve_input_rejected(desk_curve):
    with pytest.raises(ValueError):
        desk_curve.add(Point(5, 2), P51)


def test_closure_and_commutativity_all_pairs(desk_curve):
    pts = desk_curve.points()
    table = set(pts)
    for p in pts:
        for q in pts:
            r = desk_curve.add(p, q)
            assert r in table
            assert r == desk_curve.add(q, p)


def test_every_point_has_inverse(desk_curve):
    for p in desk_curve.points():
        assert desk_curve.add(p, desk_curve.negate(p)) == INFINITY


# -- scalar multiplication ----------------------------------------------------

def test_scalar_one(desk_curve):
    assert desk_curve.scalar_mul(1, P51) == P51


def test_scalar_zero_gives_identity(desk_curve):
    assert desk_curve.scalar_mul(0, P51) == INFINITY


def test_scalar_nineteen_wraps_to_identity(desk_curve):
    assert desk_curve.scalar_mul(19, P51) == INFINITY


def test_scalar_twenty_wraps_to_point(desk_curve):
    assert desk_curve.scalar_mul(20, P51) == P51


def test_scalar_matches_repeated_addition(desk_curve):
    acc = INFINITY
    for k in range(0, 39):
        assert desk_curve.scalar_mul(k, P51) == acc
        acc = desk_curve.add(acc, P51)


def test_scalar_multiplicativity(desk_curve):
    for k1, k2 in [(2, 3), (4, 5), (7, 11), (6, 6)]:
        lhs = desk_curve.scalar_mul(k1, desk_curve.scalar_mul(k2, P51))
        assert lhs == desk_curve.scalar_mul(k1 * k2, P51)


def test_negative_scalar_rejected(desk_curve):
    with pytest.raises(ValueError):
        desk_curve.scalar_mul(-1, P51)


# -- enumeration -------------------------------------------------------------

def test_enumeration_count(desk_curve):
    pts = desk_curve.points()
    assert len(pts) == 19
    assert pts[0] == INFINITY
    assert len(desk_curve.affine_points()) == 18


def test_enumeration_contains_roots_of_x_zero(desk_curve):
    pts = set(desk_curve.affine_points())
    assert Point(0, 6) in pts
    assert Point(0, 11) in pts


def test_enumeration_sorted_and_on_curve(desk_curve):
    pts = desk_curve.affine_points()
    assert pts == sorted(pts, key=lambda p: (p.x, p.y))
    assert all(desk_curve.contains(p) for p in pts)


@pytest.mark.parametrize("a, b, s", [
    (0, 1, 5),  # the smallest field
    (2, 2, 17),
    (306, 0, 307),  # x^3 - x = 0 at x = 0, 1, 306: one-point columns
    (2, 3, 307),
    (2, 3, 1009),
])
def test_enumeration_matches_sqrt_oracle(a, b, s):
    curve = Curve(a, b, s)
    expected = enumerate_by_sqrt(curve)
    assert curve.affine_points() == expected
    assert curve.order() == len(expected) + 1


def test_enumeration_near_bound_counts_by_euler_criterion():
    # the O(s^2) oracle is too slow here: column x holds 1 + (rhs | s)
    # points, the Legendre symbol by Euler's criterion
    curve = Curve(2, 3, 9973)
    s = curve.s
    legendre = {0: 0, 1: 1, s - 1: -1}
    expected = sum(1 + legendre[pow((x ** 3 + 2 * x + 3) % s, (s - 1) // 2, s)]
                   for x in range(s))
    assert curve.order() - 1 == expected
    pts = curve.affine_points()
    assert len(pts) == expected
    assert all((p.x, p.y) < (q.x, q.y) for p, q in zip(pts, pts[1:]))
    assert all(curve.contains(p) for p in pts)


def test_enumeration_bound():
    with pytest.raises(CapacityError, match="field size 10007 exceeds enumeration bound 10000"):
        Curve(2, 2, 10007)


# -- order and cofactor --------------------------------------------------------

def test_order_of_identity(desk_curve):
    assert desk_curve.point_order(INFINITY) == 1


def test_order_of_generator(desk_curve):
    assert desk_curve.point_order(P51) == 19


def test_cofactors(desk_curve):
    assert desk_curve.cofactor(P51) == 1
    assert desk_curve.cofactor(INFINITY) == 19


def test_orders_divide_group_order(desk_curve):
    n = desk_curve.order()
    for p in desk_curve.points():
        assert n % desk_curve.point_order(p) == 0


def _random_curves(count, seed=20260808):
    rng = random.Random(seed)
    primes = [11, 13, 23, 29, 37, 41, 53]
    out = []
    while len(out) < count:
        s = rng.choice(primes)
        a, b = rng.randrange(s), rng.randrange(s)
        if (4 * a**3 + 27 * b**2) % s == 0:
            continue
        out.append(Curve(a, b, s))
    return out


def test_cofactor_integral_on_random_curves():
    for curve in _random_curves(5):
        n = curve.order()
        for p in curve.points():
            order = curve.point_order(p)
            assert order == order_by_repeated_add(curve, p)
            assert n % order == 0
            assert curve.cofactor(p) * order == n


def test_point_order_matches_repeated_addition_mod_307():
    curve = Curve(2, 3, 307)
    for p in random.Random(11).sample(curve.points(), 40):
        assert curve.point_order(p) == order_by_repeated_add(curve, p)


@pytest.mark.parametrize("a, b, s", [
    (2, 2, 17),
    (2, 3, 307),  # cyclic of order 310: one walk
    (1, 0, 1009),  # ten walks
    (306, 0, 307),  # Z2 x Z154, not cyclic
    (2, 3, 9973),  # two walks
])
def test_point_orders_equal_point_order(a, b, s):
    curve = Curve(a, b, s)
    points = curve.affine_points()
    assert list(curve.point_orders().items()) == [
        (p, order_by_factor_stripping(curve, p)) for p in points]
    # point_order walks up to N additions per point, so it gets a sample
    for p in random.Random(s).sample(points, 12):
        assert curve.point_order(p) == order_by_factor_stripping(curve, p)


def test_point_order_of_unreduced_coordinates():
    curve = Curve(2, 3, 307)
    for p in [Point(3, 301), Point(3 + 307, 301), Point(3 - 307, 301 - 2 * 307)]:
        assert curve.point_order(p) == 155
        assert curve.cofactor(p) == 2
    assert curve.point_order(INFINITY) == 1
    assert curve.cofactor(INFINITY) == 310


def test_point_order_rejects_off_curve_point():
    curve = Curve(2, 3, 307)
    # (0, 0) lies on y^2 = x^3 + 2x, where the addition formulas (which never
    # read b) give it order 2: only the membership check stops it
    with pytest.raises(ValueError, match="not on"):
        curve.point_order(Point(0, 0))
    with pytest.raises(ValueError, match="not on"):
        curve.cofactor(Point(0, 0))


def _totient(m):
    return sum(math.gcd(k, m) == 1 for k in range(1, m + 1))


@pytest.mark.parametrize("a, b, s, walks", [(1, 0, 1009, 10), (2, 3, 9973, 2)])
def test_point_orders_additions_within_bound(monkeypatch, a, b, s, walks):
    curve = Curve(a, b, s)
    n = len(curve.affine_points())
    sums = []
    add = curve._add

    def counting_add(p, q):
        sums.append(add(p, q))
        return sums[-1]

    monkeypatch.setattr(curve, "_add", counting_add)
    orders = curve.point_orders()
    # each walk ends at the first sum that is O
    assert sum(q.is_infinity for q in sums) == walks
    assert len(sums) <= max(m / _totient(m) for m in set(orders.values())) * n


def test_hasse_bound_on_random_curves():
    for curve in _random_curves(8):
        n = curve.order()
        assert abs(n - (curve.s + 1)) <= 2 * math.sqrt(curve.s)


# -- nearest point ------------------------------------------------------------

def test_nearest_affine_exact_hit(desk_curve):
    assert desk_curve.nearest_affine(6.0, 3.0) == Point(6, 3)


@pytest.fixture(scope="module")
def large_curve():
    return Curve(2, 3, 9973)


@pytest.fixture(scope="module")
def oracle_curves(desk_curve, large_curve):
    # s = 2039 is the largest prime under CELL_TABLE_MAX_S
    return [desk_curve, Curve(2, 3, 101), Curve(2, 3, 307), Curve(2, 3, 2039), large_curve]


def test_nearest_affine_scan_oracle(oracle_curves):
    for curve in oracle_curves:
        rng = random.Random(curve.s)
        for k in range(200 if curve.s < 1000 else 60):
            x, y = rng.uniform(-2, curve.s + 2), rng.uniform(-2, curve.s + 2)
            assert curve.nearest_affine(x, y) == nearest_by_scan(curve, x, y)
            if k % 4 == 0:
                assert curve.nearest_affine(x, y) == nearest_by_list_scan(curve, x, y)


def test_nearest_affine_scan_oracle_on_voronoi_grid():
    curve = Curve(2, 3, 307)
    for gx, gy, owner in voronoi_cells(curve, 100):
        assert owner == nearest_by_scan(curve, gx, gy)


def test_nearest_affine_scan_oracle_on_exact_ties(oracle_curves):
    # the midpoint of two neighbouring points is equidistant from both
    for curve in oracle_curves:
        pairs = list(zip(curve.affine_points(), curve.affine_points()[1:]))
        if len(pairs) > 400:
            pairs = random.Random(curve.s).sample(pairs, 400)
        for p, q in pairs:
            x, y = (p.x + q.x) / 2, (p.y + q.y) / 2
            assert curve.nearest_affine(x, y) == nearest_by_scan(curve, x, y)


@pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                  (1.0, -math.inf), (1e200, 1.0)])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nearest_affine_rejects_unprojectable_query(desk_curve, x, y):
    with pytest.raises(InputError):
        desk_curve.nearest_affine(x, y)
    with pytest.raises(InputError):
        desk_curve.nearest_index(x, y)


def test_nearest_affine_tie_breaks_lexicographically(desk_curve):
    # (0, 8.5) is equidistant from (0, 6) and (0, 11)
    assert desk_curve.nearest_affine(0.0, 8.5) == Point(0, 6)


# -- nearest point: the column buckets at s = 9973 ----------------------------

def _band_holds(curve, x, p):
    """True iff p lies in the band of columns that a query at x scans first."""
    w = curve._width
    b = int(x) // w
    return (b - 1) * w <= p.x < (b + 2) * w


def test_bucket_width_follows_point_spacing(desk_curve, large_curve):
    large_curve.affine_points()
    w = large_curve._width
    assert w == math.ceil(1.3 * 9973 / math.sqrt(9885)) == 131
    assert len(large_curve._buckets) == math.ceil(9973 / w)
    desk_curve.affine_points()
    assert len(desk_curve._buckets) == 1


def test_nearest_affine_scan_oracle_past_the_band(large_curve):
    # A query falls back to the whole curve exactly when its nearest point
    # lies W or more away: in the curve's largest gaps. A coarse grid finds
    # them. The filter reads the returned point, whose distance is never
    # below the true minimum, so it misses no grid query that falls back.
    pts = large_curve.affine_points()
    w = large_curve._width
    band_wins, outside_wins = [], []
    for gx in range(20, 9973, 40):
        for gy in range(20, 9973, 40):
            p = pts[large_curve.nearest_index(gx, gy)]
            if (p.x - gx) ** 2 + (p.y - gy) ** 2 >= w * w:
                wins = band_wins if _band_holds(large_curve, gx, p) else outside_wins
                wins.append((gx, gy))
    assert len(band_wins) > 100
    # here the winner lies outside the band, W or more columns away
    assert len(outside_wins) >= 5
    for x, y in outside_wins + random.Random(9973).sample(band_wins, 40):
        assert large_curve.nearest_affine(x, y) == nearest_by_scan(large_curve, x, y)


def test_nearest_affine_scan_oracle_on_bucket_edges(large_curve):
    w = large_curve._width
    rng = random.Random(131)
    for e in range(0, 9973 + w, w):
        for x in (e - 1.0, e - 0.5, e - 1e-9, float(e), e + 0.5):
            y = rng.uniform(0, 9973)
            assert large_curve.nearest_affine(x, y) == nearest_by_scan(large_curve, x, y)


def test_nearest_affine_scan_oracle_on_large_voronoi_grid(large_curve):
    rows = voronoi_cells(large_curve, 50)
    for gx, gy, owner in rows:
        assert owner == nearest_by_scan(large_curve, gx, gy)
    # the list scan checks the numpy oracle on a fixed sample of 125 queries
    for gx, gy, owner in rows[::20]:
        assert owner == nearest_by_list_scan(large_curve, gx, gy)


def test_nearest_affine_scan_oracle_on_ties_across_bucket_edges(large_curve):
    # midpoints of a point just left of a bucket edge and one just right
    pts = large_curve.affine_points()
    w = large_curve._width
    checked = 0
    for e in range(w, 9973, w):
        left = [p for p in pts if e - 2 <= p.x < e]
        right = [p for p in pts if e <= p.x < e + 2]
        for p in left:
            for q in right:
                x, y = (p.x + q.x) / 2, (p.y + q.y) / 2
                assert large_curve.nearest_affine(x, y) == nearest_by_scan(large_curve, x, y)
                checked += 1
    assert checked > 200


def test_nearest_affine_scan_oracle_off_the_square(large_curve):
    rng = random.Random(7)
    queries = [(-0.5, 10.0), (-1e-9, 4000.0), (-500.0, 9000.0), (9973.0, 5.0),
               (9973.5, 9972.5), (12000.0, -300.0), (-0.0, -0.0), (-1e6, 1e6)]
    for _ in range(20):
        queries.append((rng.uniform(0, 9973), rng.choice([-1.0, -250.5, 9973.0, 10400.0])))
        queries.append((rng.choice([-3.5, 9973.25, 20000.0]), rng.uniform(-100, 10100)))
    for x, y in queries:
        assert large_curve.nearest_affine(x, y) == nearest_by_scan(large_curve, x, y)


@pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                  (1.0, -math.inf), (1e200, 1.0), (1.0, 1e200)])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nearest_affine_rejects_unprojectable_query_on_large_curve(large_curve, x, y):
    with pytest.raises(InputError):
        large_curve.nearest_affine(x, y)
    with pytest.raises(InputError):
        large_curve.nearest_index(x, y)


# -- nearest point: whole query blocks ------------------------------------------

def assert_batch_matches_scalar(curve, queries):
    """nearest_indices equals nearest_index query by query; returns the
    indices."""
    qx, qy = zip(*queries)
    got = curve.nearest_indices(qx, qy)
    assert got.dtype.kind == "i"
    assert got.tolist() == [curve.nearest_index(x, y) for x, y in queries]
    return got.tolist()


def test_nearest_indices_equal_scalar_on_uniform_queries(oracle_curves):
    for curve in oracle_curves:
        rng = random.Random(curve.s)
        assert_batch_matches_scalar(
            curve, [(rng.uniform(0, curve.s), rng.uniform(0, curve.s)) for _ in range(3000)])


def test_nearest_indices_equal_scalar_on_bucket_edges(oracle_curves):
    for curve in oracle_curves:
        curve.affine_points()
        w = curve._width
        rng = random.Random(w)
        queries = [(x, rng.uniform(0, curve.s))
                   for e in range(0, curve.s + w, w)
                   for x in (e - 1.0, e - 0.5, float(e), e + 0.5)
                   for _ in range(3)]
        assert_batch_matches_scalar(curve, queries)


def test_nearest_indices_equal_scalar_on_ties(oracle_curves):
    # midpoints of neighbours, and of points on either side of a bucket edge
    for curve in oracle_curves:
        pts = curve.affine_points()
        w = curve._width
        pairs = list(zip(pts, pts[1:]))
        pairs += [(p, q) for e in range(w, curve.s, w)
                  for p in pts if e - 2 <= p.x < e for q in pts if e <= q.x < e + 2]
        assert_batch_matches_scalar(curve, [((p.x + q.x) / 2, (p.y + q.y) / 2) for p, q in pairs])


def test_nearest_indices_equal_scalar_past_the_band(large_curve):
    # the coarse grid of test_nearest_affine_scan_oracle_past_the_band, whose
    # largest gaps send queries to the whole-curve fallback
    pts = large_curve.affine_points()
    w = large_curve._width
    queries = [(float(gx), float(gy)) for gx in range(20, 9973, 40) for gy in range(20, 9973, 40)]
    owners = assert_batch_matches_scalar(large_curve, queries)
    far = sum((pts[i].x - x) ** 2 + (pts[i].y - y) ** 2 >= w * w
              for (x, y), i in zip(queries, owners))
    assert far > 100


def test_nearest_indices_equal_scalar_off_the_square(oracle_curves):
    for curve in oracle_curves:
        s, rng = curve.s, random.Random(7)
        queries = [(-0.5, 10.0), (-1e-9, 4.0), (-0.0, -0.0), (float(s), 5.0),
                   (s + 0.5, s - 0.5), (-1e6, 1e6), (1e100, 3.0)]
        for _ in range(40):
            queries.append((rng.uniform(0, s), rng.choice([-1.0, -250.5, float(s), s + 400.0])))
            queries.append((rng.choice([-3.5, s + 0.25, 2.0 * s]), rng.uniform(-100, s + 100)))
        assert_batch_matches_scalar(curve, queries)


def _far_queries(curve, bound, count, rng):
    """count uniform queries in the square whose nearest point lies at a
    float distance of at least bound."""
    far = []
    while len(far) < count:
        x, y = rng.uniform(0, curve.s), rng.uniform(0, curve.s)
        p = curve.affine_point(curve.nearest_index(x, y))
        if (p.x - x) * (p.x - x) + (p.y - y) * (p.y - y) >= bound:
            far.append((x, y))
    return far


def test_nearest_indices_span_several_blocks(desk_curve, large_curve):
    for curve in (desk_curve, large_curve):
        curve.nearest_indices([], [])  # makes the padded cell table
        w, _, candidates = curve._table[:3]
        rng = random.Random(curve.s)
        # 2.5 blocks of one table row each, 2.5 blocks of four rows (queries
        # that miss their own row), then 2.5 whole-curve blocks off the square
        n_row = 5 * BLOCK_DISTANCES // candidates.shape[1] // 2
        n_ring = 5 * BLOCK_DISTANCES // (4 * candidates.shape[1]) // 2
        n_off = 5 * BLOCK_DISTANCES // len(curve.affine_points()) // 2
        queries = [(rng.uniform(0, curve.s), rng.uniform(0, curve.s)) for _ in range(n_row)]
        queries += _far_queries(curve, w * w, n_ring, rng)
        queries += [(-1.0 - rng.uniform(0, 9), rng.uniform(0, curve.s)) for _ in range(n_off)]
        rng.shuffle(queries)
        assert_batch_matches_scalar(curve, queries)


def test_nearest_indices_memory_does_not_grow_with_block():
    curve = Curve(2, 3, 9973)
    rng = np.random.default_rng(3)
    qx = rng.uniform(0, 9973, 20000)
    qy = rng.uniform(0, 9973, 20000)
    tracemalloc.start()
    try:
        # the first array query builds the padded cell table, 4.2 MB here
        curve.nearest_indices(qx, qy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one unbounded block would be 20000 x 20 doubles (3.2 MB) per temporary
    assert peak < 8 * 2**20


@pytest.mark.parametrize("s", [17, 101, 307, 2039])
def test_cell_table_rows_list_their_blocks(s):
    curve = Curve(2, 2 if s == 17 else 3, s)
    curve.nearest_indices([], [])
    w, m, candidates, tx, ty = curve._table
    pts = curve.affine_points()
    n = len(pts)
    assert w == round(s / math.sqrt(n)) and m == math.ceil(s / w) + 2
    assert candidates.dtype == np.int32 and candidates.shape[0] == m * m
    rows = []
    for cx in range(-1, m - 1):
        column = [i for i, p in enumerate(pts) if (cx - 1) * w <= p.x < (cx + 2) * w]
        for cy in range(-1, m - 1):
            rows.append([i for i in column if (cy - 1) * w <= pts[i].y < (cy + 2) * w])
    width = max(map(len, rows))
    assert candidates.shape[1] == width
    for row, want in enumerate(rows):
        pad = width - len(want)
        assert candidates[row].tolist() == want + [n] * pad
        assert tx[row].tolist() == [float(pts[i].x) for i in want] + [math.inf] * pad
        assert ty[row].tolist() == [float(pts[i].y) for i in want] + [math.inf] * pad


def _midpoint_ties(curve, lo, hi):
    """(x, y, k) for each midpoint (x, y) in the square of two points i < j
    that are both nearest to it, at a float distance in [lo, hi); k is the
    lowest index at that distance (i, or a third point's)."""
    xs, ys = _coordinate_arrays(curve)
    ties = []
    for i in range(len(xs)):
        d2 = (xs[i + 1:] - xs[i]) ** 2 + (ys[i + 1:] - ys[i]) ** 2
        js = i + 1 + np.flatnonzero((4 * lo <= d2) & (d2 < 4 * hi))
        mx, my = (xs[i] + xs[js]) / 2, (ys[i] + ys[js]) / 2
        d = (xs - mx[:, None]) * (xs - mx[:, None]) + (ys - my[:, None]) * (ys - my[:, None])
        least = d.min(axis=1)
        tie = (d[:, i] == least) & (d[np.arange(len(js)), js] == least)
        ties += [(x, y, k) for x, y, k in zip(mx[tie].tolist(), my[tie].tolist(),
                                              d[tie].argmin(axis=1).tolist())
                 if 0 <= x < curve.s and 0 <= y < curve.s]
    return ties


def test_nearest_indices_ties_past_the_row_go_to_the_lower_index(monkeypatch):
    # Midpoint ties at reach 2 (W*W up to 4W*W), where the four rows of the
    # ring list some higher index before a lower one at the same distance.
    for curve in (Curve(2, 2, 17), Curve(2, 3, 101)):
        curve.nearest_indices([], [])
        w = curve._table[0]
        ties = _midpoint_ties(curve, w * w, 4 * w * w)
        assert len(ties) >= 2
        got = assert_batch_matches_scalar(curve, [(x, y) for x, y, _ in ties])
        assert got == [i for _, _, i in ties]
    # (x, r) and (x, s - r) are mirror images across y = s/2, so every query
    # on that line is a tie between two points, the lower one first in index
    # order. Curve(0, 1, 1009) has gaps there wider than 2W: the ring
    # resolves some ties, the whole curve others, and off the square the
    # whole curve resolves them all.
    curve = Curve(0, 1, 1009)
    curve.nearest_indices([], [])
    w = curve._table[0]
    pts = curve.affine_points()
    queries = [(x / 4, 1009 / 2) for x in range(0, 4 * 1009)]
    queries += [(x, 1009 / 2) for x in (-3.0, -0.5, 1009.0, 1011.5)]
    scanned = {"ring": [], "whole": []}  # the queries each later pass receives
    scan_cells, scan_block = curve._scan_cells, curve._scan_block

    def cells_pass(rows, x, y, bound, ids, out):
        if rows.shape[1] == 4:
            scanned["ring"] += ids.tolist()
        return scan_cells(rows, x, y, bound, ids, out)

    def whole_pass(table, ids, qx, qy, out):
        scanned["whole"] += ids.tolist()
        return scan_block(table, ids, qx, qy, out)

    monkeypatch.setattr(curve, "_scan_cells", cells_pass)
    monkeypatch.setattr(curve, "_scan_block", whole_pass)
    got = assert_batch_matches_scalar(curve, queries)
    passes = []
    for (x, y), i in zip(queries, got):
        p, q = pts[i], pts[i + 1]
        d = (p.x - x) * (p.x - x) + (p.y - y) * (p.y - y)
        assert (q.x, q.y) == (p.x, 1009 - p.y) and p.y < q.y
        assert d == (q.x - x) * (q.x - x) + (q.y - y) * (q.y - y)
        assert curve.affine_point(i) == nearest_by_list_scan(curve, x, y)
        if not 0 <= x < 1009:
            passes.append("off")
        elif d >= 4 * w * w:
            passes.append("whole")
        elif d >= w * w:
            passes.append("ring")
        else:
            passes.append("row")
    assert {"ring", "whole", "off"} <= set(passes)
    # a query reaches the ring exactly when its row has no candidate below
    # W*W, and the whole curve exactly when the ring has none below 4W*W
    assert scanned["ring"] == [k for k, p in enumerate(passes) if p in ("ring", "whole")]
    assert scanned["whole"] == [k for k, p in enumerate(passes) if p in ("whole", "off")]


@pytest.mark.parametrize("bad", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                 (1.0, -math.inf), (1e200, 1.0), (1.0, 1e200)])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nearest_indices_reject_first_unprojectable_query(oracle_curves, bad):
    for curve in oracle_curves:
        # the bad query sits between good ones and before other bad kinds,
        # which nearest_indices scans in other groups
        queries = [(1.0, 2.0), (-5.0, 3.0), bad, (math.nan, math.nan), (2.0, 1e200), (3.0, 4.0)]
        with pytest.raises(InputError) as want:
            [curve.nearest_index(x, y) for x, y in queries]
        assert repr(bad[0]) in str(want.value) and repr(bad[1]) in str(want.value)
        with pytest.raises(InputError) as got:
            curve.nearest_indices(*zip(*queries))
        assert str(got.value) == str(want.value)


def test_nearest_indices_empty_and_mismatched(desk_curve):
    assert desk_curve.nearest_indices([], []).tolist() == []
    with pytest.raises(ValueError):
        desk_curve.nearest_indices([1.0, 2.0], [1.0])


# -- nearest point: the cell table up to CELL_TABLE_MAX_S ------------------------

@pytest.fixture(scope="module")
def cell_curves(oracle_curves):
    curves = [curve for curve in oracle_curves if curve.s <= CELL_TABLE_MAX_S]
    assert CELL_TABLE_MAX_S - 10 < curves[-1].s
    for curve in curves:
        curve.nearest_index(0.5, 0.5)  # makes the cell table
    return curves


def _list_scan_distance(curve, x, y):
    """The smallest float distance, in nearest_by_list_scan's operations."""
    xs, ys = _coordinates(curve)
    return min((px - x) * (px - x) + (py - y) * (py - y) for px, py in zip(xs, ys))


def _numpy_scans(monkeypatch):
    """Count the numpy scans that nearest_index makes from here on."""
    calls = []

    def counted(*args):
        calls.append(1)
        return scan(*args)

    scan = curve_module._squared_distances
    monkeypatch.setattr(curve_module, "_squared_distances", counted)
    return calls


def _edge_coordinates(curve):
    """Every multiple k*W of the cell side in [0, s], the floats next to it
    on either side, and s - ulp."""
    w = curve._grid[0]
    out = [math.nextafter(float(curve.s), 0.0)]
    for e in range(0, curve.s + 1, w):
        out += [math.nextafter(float(e), -math.inf), float(e), math.nextafter(float(e), math.inf)]
    return out


def test_cell_side_follows_point_spacing(cell_curves):
    for curve in cell_curves:
        w, m, bound, cells = curve._grid
        n = len(curve.affine_points())
        assert w == round(curve.s / math.sqrt(n)) and m == math.ceil(curve.s / w)
        assert bound == w * w and len(cells) == m * m
    assert cell_curves[0]._grid[:2] == (4, 5)


def test_cell_scan_on_cell_corners_and_centres(desk_curve):
    w, m = desk_curve._grid[:2]
    queries = [(cx * w + dx, cy * w + dy) for cx in range(m + 1) for cy in range(m + 1)
               for dx, dy in ((0.0, 0.0), (w / 2, w / 2))]
    for x, y in queries:
        want = nearest_by_list_scan(desk_curve, x, y)
        assert desk_curve.nearest_affine(x, y) == want == nearest_by_scan(desk_curve, x, y)
    assert_batch_matches_scalar(desk_curve, queries)


def test_cell_scan_on_cell_edges(cell_curves):
    # queries at k*W and at the next float on either side, in x and in y; on
    # the curve at the bound each edge coordinate meets random ones
    for curve in cell_curves:
        edges = _edge_coordinates(curve)
        if curve.s < 1000:
            queries = [(x, y) for x in edges for y in edges]
        else:
            rng = random.Random(curve.s)
            queries = [q for e in edges
                       for q in ((e, rng.uniform(0, curve.s)), (rng.uniform(0, curve.s), e))]
        if len(queries) > 3000:
            queries = random.Random(curve.s).sample(queries, 3000)
        for x, y in queries[::7]:
            assert curve.nearest_affine(x, y) == nearest_by_list_scan(curve, x, y)
        for x, y in queries:
            assert curve.nearest_affine(x, y) == nearest_by_scan(curve, x, y)
        assert_batch_matches_scalar(curve, queries)


def test_cell_scan_on_ties_across_cell_edges(cell_curves):
    # midpoints of two nearby points in different cells, equidistant from both
    for curve in cell_curves:
        pts = curve.affine_points()
        w = curve._grid[0]
        pairs = [(p, q) for i, p in enumerate(pts) for q in pts[i + 1:i + 8]
                 if abs(p.y - q.y) <= w and (p.x // w, p.y // w) != (q.x // w, q.y // w)]
        if len(pairs) > 400:
            pairs = random.Random(curve.s).sample(pairs, 400)
        assert len(pairs) >= 10
        queries = [((p.x + q.x) / 2, (p.y + q.y) / 2) for p, q in pairs]
        for x, y in queries:
            want = nearest_by_list_scan(curve, x, y)
            assert curve.nearest_affine(x, y) == want == nearest_by_scan(curve, x, y)
        assert_batch_matches_scalar(curve, queries)


def test_cell_scan_calls_no_numpy_unless_the_nearest_point_is_w_away(cell_curves, monkeypatch):
    # A query in the square answers from its cell, with no numpy call,
    # exactly when its nearest point lies within W; otherwise the column
    # bucket scan runs. A grid finds the far queries in the curve's gaps.
    calls = _numpy_scans(monkeypatch)
    for curve in cell_curves[:3]:
        w, s = curve._grid[0], curve.s
        step = s / 67
        queries = [(i * step, j * step) for i in range(67) for j in range(67)]
        queries += [(math.nextafter(float(s), 0.0), y) for _, y in queries[:67]]
        far = 0
        for x, y in queries:
            before = len(calls)
            got = curve.nearest_affine(x, y)
            assert got == nearest_by_scan(curve, x, y)
            fell_back = _list_scan_distance(curve, x, y) >= w * w
            assert (len(calls) > before) == fell_back
            far += fell_back
        assert far >= 3
        assert_batch_matches_scalar(curve, queries)


def test_cell_scan_off_the_square_takes_the_band_scan(cell_curves, monkeypatch):
    calls = _numpy_scans(monkeypatch)
    for curve in cell_curves:
        s = curve.s
        for x, y in [(-0.5, 1.0), (1.0, -1e-9), (float(s), 2.0), (2.0, float(s)),
                     (s + 0.5, -3.0), (-1e6, 1e6)]:
            before = len(calls)
            assert curve.nearest_affine(x, y) == nearest_by_scan(curve, x, y)
            assert len(calls) > before
        # -0.0 lies in the square
        assert curve.nearest_affine(-0.0, -0.0) == nearest_by_scan(curve, -0.0, -0.0)


def test_filled_cell_table_at_the_bound_stays_under_one_megabyte():
    curve = Curve(2, 3, 2039)
    curve.order()
    tracemalloc.start()
    try:
        curve.nearest_index(0.5, 0.5)
        w, m, _, cells = curve._grid
        centres = [min((k + 0.5) * w, curve.s - 0.5) for k in range(m)]
        for x in centres:
            for y in centres:
                curve.nearest_index(x, y)
        filled = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert None not in cells
    assert filled <= 2**20


def test_curve_above_the_bound_makes_no_cell_table(large_curve):
    assert large_curve.s > CELL_TABLE_MAX_S
    rng = random.Random(5)
    for _ in range(20):
        large_curve.nearest_index(rng.uniform(0, 9973), rng.uniform(0, 9973))
    assert large_curve._grid is None and large_curve._cell_points == ()
