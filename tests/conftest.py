import math

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from ecwatermark import Curve, shipped

settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def desk_curve():
    return Curve(2, 2, 17)


@pytest.fixture(scope="session")
def demo_cfg():
    return shipped.load_demo_config()


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
