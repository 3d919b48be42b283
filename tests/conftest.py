import math

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ecwatermark import Curve, SwitchingConfig, shipped
from ecwatermark.analysis import grid_coords, voronoi_rows

settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def voronoi_cells(curve, grid):
    """(gx, gy, owner point) for every cell of voronoi_rows, row by row; the
    rows must be grid lists of grid owner indices each."""
    coords = grid_coords(curve.s, grid)
    points = curve.affine_points()
    rows = list(voronoi_rows(curve, grid))
    assert [len(row) for row in rows] == [grid] * grid
    return [(gx, gy, points[k]) for gx, row in zip(coords, rows)
            for gy, k in zip(coords, row)]


def order_by_factor_stripping(curve, p):
    """Reference point order: start from the group order, a multiple of every
    point's order, and divide out each prime factor q of it while (n/q)*p is
    still O. The primes come from trial division of the group order."""
    n = rest = curve.order()
    primes, q = [], 2
    while q * q <= rest:
        if rest % q == 0:
            primes.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        primes.append(rest)
    for q in primes:
        while n % q == 0 and curve.scalar_mul(n // q, p).is_infinity:
            n //= q
    return n


@pytest.fixture(scope="session")
def desk_curve():
    return Curve(2, 2, 17)


@pytest.fixture(scope="session")
def demo_cfg():
    return shipped.load_demo_config()


def random_switching_config(rng) -> SwitchingConfig:
    """One config of the endpoint-agreement mix: a random nonsingular curve
    over a small prime, scalar, scaling maps, feature rows and clamp."""
    s = int(rng.choice([17, 19, 23, 31, 43]))
    while True:
        a, b = int(rng.integers(0, s)), int(rng.integers(0, s))
        if (4 * a**3 + 27 * b**2) % s != 0:
            break
    n_h = int(rng.integers(1, 4))
    return SwitchingConfig(
        curve=Curve(a, b, s),
        l=int(rng.integers(1, 100)),
        alpha_x=tuple(rng.uniform(-4, 4, 4)),
        alpha_y=tuple(rng.uniform(-4, 4, 4)),
        eta1_rows=tuple(tuple(rng.uniform(-2, 2, 3)) for _ in range(n_h + 1)),
        n_h=n_h,
        eta_floor=float(rng.uniform(1.0, 2.0)),
        eta_margin=float(rng.uniform(0.01, 0.5)),
        eta_slope=float(rng.uniform(0.5, 4.0)),
    )


def small_scenario_dict(**overrides):
    """A fast one-state loop for unit tests; callers override fields freely."""
    d = {
        "horizon": 200,
        "seed": 1,
        "plant": {
            "A": [[0.9]], "B": [[1.0]], "C": [[1.0]], "x0": [1.0],
            "process_noise": {"kind": "none"},
            "measurement_noise": {"kind": "none"},
        },
        "controller": {"A": [[0.0]], "B": [[0.0]], "C": [[0.0]], "D": [[0.0]], "x0": [0.0]},
        "detector": {
            "A": [[0.5]], "B": [[1.0]], "K": [[0.4]], "C": [[-1.0]], "L": [[1.0]],
            "x0": [1.0],
            "threshold": {"mode": "fixed", "value": 0.5},
        },
        "watermark": {"enabled": False},
        "attack": {"kind": "none"},
    }
    d.update(overrides)
    return d


def leaf_paths(node, prefix=()):
    """Key paths of every non-container value in a parsed JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        yield prefix
        return
    for key, child in items:
        yield from leaf_paths(child, prefix + (key,))


# Replacement values for one JSON leaf: every JSON type, non-finite floats
# and integers too large for a double.
JSON_LIKE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(), st.integers(min_value=2**1024, max_value=2**1100),
    st.floats(allow_nan=False),
    st.lists(st.one_of(st.integers(), st.floats(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
