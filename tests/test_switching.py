import dataclasses
import functools
import hashlib
import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecwatermark import (
    ConfigError,
    ConfigurationWarning,
    Curve,
    FirParams,
    InputError,
    ParameterError,
    Point,
    SwitchingConfig,
    ThetaValidation,
    WatermarkUnit,
    alpha1,
    alpha2,
    check_stability,
    eta1,
    eta2,
    sigma,
    sigma_detail,
    shipped,
    validate_theta,
)
from ecwatermark import switching
from ecwatermark.switching import _tap_row, admissible_taps
from conftest import random_switching_config

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def make_config(**overrides):
    base = dict(
        curve=Curve(2, 2, 17),
        l=7,
        alpha_x=(4.0, 1.0, 3.0, 2.4),
        alpha_y=(2.5, 0.7, 1.7, 3.1),
        eta1_rows=((0.0, 0.5, 0.0), (0.0, 0.0, 0.05), (1.0, -0.15, 0.012)),
        n_h=2,
        eta_floor=1.0,
        eta_margin=0.05,
        eta_slope=2.0,
    )
    base.update(overrides)
    return SwitchingConfig(**base)


# -- scaling stage -------------------------------------------------------------

def test_alpha1_zero_map():
    assert alpha1(3.7, (0.0, 0.0), (0.0, 0.0), 17) == (0.0, 0.0)


def test_alpha1_identical_parameterization():
    coeffs = (1.5, 0.3, 0.2)
    x, y = alpha1(2.0, coeffs, coeffs, 17)
    assert x == y


def test_alpha1_atan_closed_form():
    x, _ = alpha1(1.0, (4.0, 1.0), (0.0, 0.0), 17)
    assert x == pytest.approx(math.pi, abs=1e-12)


def test_alpha1_output_interval():
    for y in (-1e4, -123.4, -1.0, 0.0, 0.3, 99.9, 1e4):
        gx, gy = alpha1(y, (4.0, 1.0, 3.0, 2.4), (2.5, 0.7, 1.7, 3.1), 17)
        assert 0.0 <= gx < 17.0
        assert 0.0 <= gy < 17.0


def test_alpha1_tiny_negative_stays_in_interval():
    # float modulo folds -1e-20 % 17 onto 17.0; the map must return 0.0 instead
    gx, _ = alpha1(-1e-22, (0.0, 0.0, 1.0), (0.0, 0.0), 17)
    assert 0.0 <= gx < 17.0
    # here x is atan(-1e-22) + 1e-44 * (2e-22 + 1) = -1e-22, and % 17 gives
    # 17.0 exactly: the fold returns +0.0
    assert -1e-22 % 17 == 17.0
    gx, _ = alpha1(-1e-22, (1.0, 1.0, 1.0, 2.0), (2.5, 0.7, 1.7), 17)
    assert gx.hex() == (0.0).hex()


def test_alpha1_rejects_non_finite():
    with pytest.raises(InputError):
        alpha1(math.nan, (1.0, 1.0), (1.0, 1.0), 17)
    with pytest.raises(InputError):
        alpha1(math.inf, (1.0, 1.0), (1.0, 1.0), 17)


def test_alpha1_rejects_overflowing_polynomial():
    with pytest.raises(InputError):
        alpha1(1e200, (0.0, 0.0, 1.0, 1.0), (0.0, 0.0), 17)


def _measurement_families():
    rng = np.random.default_rng(21)
    tiny = np.concatenate([[1e-300, -1e-300, 0.0, -0.0], -np.logspace(-320, 2, 400)])
    return {"near 10": rng.uniform(9.9, 10.1, 1000), "normal 30": rng.normal(0.0, 30.0, 1000),
            "wide": rng.uniform(-1e4, 1e4, 1000), "tiny": tiny}


@pytest.mark.parametrize("s", [17, 307, 9973])
@pytest.mark.parametrize("family", ["near 10", "normal 30", "wide", "tiny"])
def test_alpha1_block_equals_float_calls(demo_cfg, s, family):
    ys = _measurement_families()[family]
    for cx, cy in ((demo_cfg.alpha_x, demo_cfg.alpha_y),
                   ((4.0, 1.0, 3.0, 2.4), (0.0, 0.0, 1.0)), ((2.5, 0.7), (-1.5, 1e-3, 2.0))):
        xs, ys_ = alpha1(ys, cx, cy, s)
        pairs = [alpha1(y, cx, cy, s) for y in ys.tolist()]
        assert xs.tobytes() == np.array([x for x, _ in pairs]).tobytes()
        assert ys_.tobytes() == np.array([y for _, y in pairs]).tobytes()


def test_alpha1_block_folds_tiny_negatives_to_zero():
    # atan(y) is y here, and y % 17 is 17.0 in double precision: the block
    # folds it to 0 as the float call does
    assert -1e-22 % 17 == 17.0
    xs, _ = alpha1(np.array([-1e-22, -1e-300, 2.0]), (1.0, 1.0), (0.0, 0.0), 17)
    assert xs.tolist() == [0.0, 0.0, math.atan(2.0)]


def _first_error(ys, cx, cy, s):
    """The InputError of the float call loop over ys, as (type, message)."""
    with pytest.raises(InputError) as exc:
        for y in ys:
            alpha1(y, cx, cy, s)
    return type(exc.value), str(exc.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ys, message", [
    ([1.0, 2.0, 1e200, 3.0, 1e300], "scaling of y=1e+200 overflowed double precision"),
    ([1.0, 1e300, math.nan, 1e200], "scaling of y=1e+300 overflowed double precision"),
    ([1.0, -math.inf, 1e300, math.nan], "measurement must be finite, got -inf"),
    ([0.5, math.nan, 1e300], "measurement must be finite, got nan"),
])
def test_alpha1_block_raises_first_float_error(ys, message):
    # the overflow is in the y coordinate only, at a middle index
    cx, cy = (4.0, 1.0), (0.0, 0.0, 1.0, 1.0)
    expected = _first_error(ys, cx, cy, 17)
    assert expected == (InputError, message)
    with pytest.raises(InputError) as exc:
        alpha1(np.array(ys), cx, cy, 17)
    assert (type(exc.value), str(exc.value)) == expected


@pytest.mark.parametrize("ys", [np.ones((2, 2)), np.arange(3), np.float32([1.0])])
def test_alpha1_block_must_be_1d_float64(ys):
    with pytest.raises(ValueError):
        alpha1(ys, (1.0, 1.0), (1.0, 1.0), 17)


# -- projection stage ----------------------------------------------------------

def test_alpha2_examples(desk_curve):
    assert alpha2((5.2, 1.3), desk_curve) == Point(5, 1)
    assert alpha2((6.0, 3.0), desk_curve) == Point(6, 3)
    assert alpha2((0.0, 8.5), desk_curve) == Point(0, 6)  # tie rule


# -- feature map ---------------------------------------------------------------

def test_eta1_zero_rows():
    assert eta1(Point(6, 3), ((0.0, 0.0), (0.0, 0.0))) == (0.0, 0.0)


def test_eta1_norm_row():
    (value,) = eta1(Point(6, 3), ((0.0, 1.0),))
    assert value == pytest.approx(math.sqrt(45), abs=1e-12)


def test_eta1_rejects_identity():
    from ecwatermark import INFINITY

    with pytest.raises(ValueError):
        eta1(INFINITY, ((0.0, 1.0),))


@given(st.lists(st.floats(min_value=-3, max_value=3), min_size=2, max_size=4))
def test_eta1_distinct_rows_generically_distinct(row):
    # a row and a shifted copy disagree unless the draw is degenerate
    other = [c + 1.0 for c in row]
    a, b = eta1(Point(6, 3), (tuple(row), tuple(other)))
    assert a != b


# -- clamping stage --------------------------------------------------------------

def test_eta2_worked_example():
    theta = eta2((2.0, 3.0, 4.0), floor=0.1, slope=1.0, margin=0.1)
    assert theta.taps[0] == 2.0
    assert theta.taps[1] == pytest.approx(0.75, abs=1e-15)
    assert theta.taps[2] == pytest.approx(0.3, abs=1e-12)
    assert validate_theta(theta).ok


def test_eta2_passthrough_when_tail_zero():
    assert eta2((1.0, 0.0, 0.0), floor=0.1, slope=1.0, margin=0.1).taps == (1.0, 0.0, 0.0)
    # a signed-zero tail and an empty one (n_h = 1); b1 = 0.5 / (0.5 + 1)
    assert eta2((2.0, 0.5, -0.0, 0.0), floor=0.1, slope=1.0, margin=0.1).taps == (
        2.0, 0.5 / 1.5, 0.0, 0.0)
    assert eta2((2.0, 0.5), floor=0.1, slope=1.0, margin=0.1).taps == (2.0, 0.5 / 1.5)


def test_eta2_floor_rule():
    assert eta2((0.0, 5.0, 1.0), floor=0.1, slope=1.0, margin=0.1).taps[0] == 0.1
    assert eta2((-0.01, 5.0, 1.0), floor=0.1, slope=1.0, margin=0.1).taps[0] == -0.1


@pytest.mark.parametrize("floor, slope", [
    (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
    (1.0, 0.0), (1.0, -2.0), (1.0, math.nan), (1.0, math.inf)])
def test_eta2_rejects_bad_floor_or_slope(floor, slope):
    # floor 0 used to divide by b0 = 0, slope 0 by |raw1| = 0
    for raw in ((0.0, 0.5, 1.0), (1.0, 0.0, 1.0)):
        with pytest.raises(ValueError, match="floor and slope"):
            eta2(raw, floor=floor, slope=slope, margin=0.1)


def test_eta2_tail_radius_is_exact_margin():
    theta = eta2((1.4, -2.0, 3.0, -0.5), floor=1.0, slope=1.0, margin=0.1)
    total = sum(abs(v / theta.taps[0]) for v in theta.taps[2:])
    # |b1| = 2/3 leaves headroom 1/3 > margin, so the margin applies unclamped
    expected = 1.0 - abs(theta.taps[1]) - 0.1
    assert total == pytest.approx(expected, rel=1e-12)


def test_eta2_margin_clamped_when_headroom_small():
    # |b1| -> 0.999..., leaving less headroom than the configured margin
    theta = eta2((1.0, 1e6, 1.0), floor=1.0, slope=1.0, margin=0.5)
    assert validate_theta(theta).ok


@given(
    st.lists(finite_floats, min_size=2, max_size=7),
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=0.05, max_value=5.0),
    st.floats(min_value=0.001, max_value=0.9),
)
def test_eta2_total_into_admissible_set(b_raw, floor, slope, margin):
    theta = eta2(b_raw, floor=floor, slope=slope, margin=margin)
    assert validate_theta(theta).ok


# -- admissibility test ----------------------------------------------------------

def test_validate_theta_accepts_example():
    assert validate_theta((1.0, 0.5, 0.2)).ok


def test_validate_theta_names_first_violation():
    r = validate_theta((0.0, 0.5, 0.2))
    assert not r.ok and "b0" in r.violation
    r = validate_theta((1.0, 1.5, 0.2))
    assert not r.ok and "b1" in r.violation
    r = validate_theta((1.0, 0.5, 0.6))
    assert not r.ok and "1 - |b1|" in r.violation


def test_validate_theta_needs_two_taps():
    with pytest.raises(ValueError):
        validate_theta((1.0,))


def test_firparams_carrier():
    theta = FirParams((2, 0.75, 0.3))
    assert theta.taps == (2.0, 0.75, 0.3) and type(theta.taps[0]) is float
    assert len(theta) == 3 and theta[0] == 2.0
    assert list(theta) == [2.0, 0.75, 0.3]


# -- full switching map ------------------------------------------------------------

def test_sigma_scalar_identity_matches_chain(demo_cfg):
    cfg1 = make_config(l=1)
    y = 3.21
    scaled = alpha1(y, cfg1.alpha_x, cfg1.alpha_y, 17)
    p = alpha2(scaled, cfg1.curve)
    expected = eta2(eta1(p, cfg1.eta1_rows), floor=1.0, slope=2.0, margin=0.05)
    assert sigma(y, cfg1) == expected


def test_sigma_chained_example():
    # alpha lands on (5, 1); l = 2 doubles it to (6, 3)
    cfg = make_config(l=2, alpha_x=(0.0, 0.0, 5.2), alpha_y=(0.0, 0.0, 1.3))
    detail = sigma_detail(1.0, cfg)
    assert detail.generator_point == Point(5, 1)
    assert detail.secret_multiple == Point(6, 3)
    assert not detail.fallback_used
    assert detail.theta == eta2(
        eta1(Point(6, 3), cfg.eta1_rows), floor=1.0, slope=2.0, margin=0.05
    )


def test_sigma_fallback_on_degenerate_scalar():
    with pytest.warns(ConfigurationWarning):
        cfg = make_config(l=19)
    detail = sigma_detail(4.2, cfg)
    assert detail.fallback_used
    assert detail.secret_multiple == detail.generator_point
    assert detail.theta == eta2(
        eta1(detail.generator_point, cfg.eta1_rows),
        floor=1.0, slope=2.0, margin=0.05,
    )


def test_fallback_never_evaluates_identity():
    with pytest.warns(ConfigurationWarning):
        cfg = make_config(l=38)  # 2 * group order
    for y in (-5.0, 0.0, 1.7, 44.0):
        assert not sigma_detail(y, cfg).secret_multiple.is_infinity


@pytest.mark.parametrize("overrides, message", [
    pytest.param(dict(eta_floor=0.5), "tap floor below 1.0", id="floor"),
    pytest.param(dict(l=19), "multiple of the group order", id="scalar"),
])
def test_config_warnings_name_the_caller(overrides, message):
    """The warning names the file that built the config: this one for a
    config built in code, switching.py for one loaded by from_dict."""
    with pytest.warns(ConfigurationWarning, match=message) as built:
        cfg = make_config(**overrides)
    assert [w.filename for w in built] == [__file__]
    with pytest.warns(ConfigurationWarning, match=message) as loaded:
        SwitchingConfig.from_dict(cfg.to_dict())
    assert [w.filename for w in loaded] == [switching.__file__]


def test_sigma_periodic_in_scalar(demo_cfg):
    cfg_a = make_config(l=7)
    cfg_b = make_config(l=7 + 19)
    for y in (0.0, 1.0, 9.7, 10.2, 100.0):
        assert sigma(y, cfg_a) == sigma(y, cfg_b)


def test_sigma_deterministic_across_instances():
    text = json.dumps(make_config().to_dict())
    cfg_a = SwitchingConfig.from_json(text)
    cfg_b = SwitchingConfig.from_json(text)
    for y in [x * 0.37 for x in range(-50, 50)]:
        assert sigma(y, cfg_a).taps == sigma(y, cfg_b).taps


def test_sigma_range_bounded_by_affine_points(demo_cfg):
    reachable = {
        eta2(eta1(s_pt, demo_cfg.eta1_rows),
             floor=demo_cfg.eta_floor, slope=demo_cfg.eta_slope,
             margin=demo_cfg.eta_margin).taps
        for s_pt in demo_cfg.curve.affine_points()
    }
    assert len(reachable) <= 18
    seen = {sigma(y * 0.11, demo_cfg).taps for y in range(2000)}
    assert seen <= reachable


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_sigma_totality(y):
    cfg = make_config()
    assert validate_theta(sigma(y, cfg)).ok


# -- tap table -------------------------------------------------------------------------

def staged_taps(point, cfg):
    """The reference derivation of one point's taps, stage by stage."""
    s_pt = cfg.curve.scalar_mul(cfg.l, point)
    if s_pt.is_infinity:
        s_pt = point
    return eta2(eta1(s_pt, cfg.eta1_rows), floor=cfg.eta_floor,
                slope=cfg.eta_slope, margin=cfg.eta_margin).taps


@pytest.mark.parametrize("curve, l, sample", [
    ((2, 2, 17), 7, None),
    ((2, 3, 307), 7, None),
    ((2, 3, 9973), 7919, 2000),
], ids=["s17", "s307", "s9973"])
def test_tap_table_rows_equal_staged_derivation(demo_cfg, curve, l, sample):
    data = demo_cfg.to_dict()
    data["curve"] = dict(zip("abs", curve))
    data["l"] = l
    cfg = SwitchingConfig.from_dict(data)
    points = cfg.curve.affine_points()
    indices = range(len(points))
    if sample is not None:
        indices = random.Random(l).sample(indices, sample)
    assert cfg.tap_table == [None] * len(points)
    for i in indices:
        # scaling coefficients (0, 0, c) map y = 1 to exactly c, so the sample
        # lands on point i; the scaling takes no part in the derivation
        at_i = dataclasses.replace(cfg, alpha_x=(0.0, 0.0, points[i].x),
                                   alpha_y=(0.0, 0.0, points[i].y))
        expected = staged_taps(points[i], cfg)
        theta = sigma(1.0, at_i)
        assert theta.taps == expected
        assert at_i.tap_table[i] is theta


# the demo config on its own curve, on (2, 3, 307), and on (2, 3, 9973) with
# the secret scalar 7919, as the large switching benchmark loads it
_SHIPPED_CONFIGS = {"s17": ((2, 2, 17), 7), "s307": ((2, 3, 307), 7),
                    "s9973": ((2, 3, 9973), 7919)}


def _shipped_config(demo_cfg, name):
    curve, l = _SHIPPED_CONFIGS[name]
    return SwitchingConfig.from_dict(dict(demo_cfg.to_dict(), curve=dict(zip("abs", curve)), l=l))


@functools.cache
def _shipped_tap_image(name):
    """Every tap_table row of a shipped config, in point order, filled once
    for the tests that read them all."""
    cfg = _shipped_config(shipped.load_demo_config(), name)
    return [_tap_row(i, cfg) for i in range(len(cfg.tap_table))]


# (rows, SHA-256 of their float64 bytes) of the demo config's whole tap
# image: every tap_table row, in point order, on each shipped curve. eta1
# runs CPython's own math.hypot, not the host's libm, so a Python release
# that rounds it differently changes these digests, also on rows that no
# golden run reaches.
_TAP_IMAGES = {
    "s17": (18, "6d627eaa176b163258fe1bb814009d473c68ae3ba58393e24843645382d745fb"),
    "s307": (309, "2f1a9ac4a59121d40fd5b30815c12f24c3465ada79ac166353c4458d0bebcc30"),
    "s9973": (9885, "01b3c97bd0f3fb3155a27717334e4bbab2bff03255fc081e3cb21a7069daf2c4"),
}


@pytest.mark.parametrize("name", list(_TAP_IMAGES))
def test_shipped_tap_image_is_pinned(name):
    rows = np.array([theta.taps for theta in _shipped_tap_image(name)])
    assert rows.dtype == np.float64
    assert (len(rows), hashlib.sha256(rows.tobytes()).hexdigest()) == _TAP_IMAGES[name]


@pytest.mark.parametrize("name", list(_SHIPPED_CONFIGS))
def test_shipped_tap_image_is_stable(name):
    # the paper's stability claim on every tap vector the config can switch
    # to: the remover passes the tap-domain test and its poles lie inside the
    # unit circle
    reports = [check_stability(theta) for theta in _shipped_tap_image(name)]
    assert all(report.gershgorin_pass for report in reports)
    assert max(report.spectral_radius for report in reports) < 1.0


def _projection_samples():
    """Samples near the shipped scenarios' setpoint, then spread wide."""
    rng = np.random.default_rng(2_000_003)
    return np.concatenate([10.0 + rng.uniform(-0.05, 0.05, 10_000),
                           rng.normal(0.0, 30.0, 10_000)])


def test_projection_survives_other_atan_roundings(demo_cfg, monkeypatch):
    # alpha1 calls the host's libm atan, which need not round correctly: a
    # host whose atan is one ulp off, either way, or correctly rounded still
    # projects every sample onto the same point (nearest_indices answers as
    # nearest_index does, and sigma keys its taps on that point)
    mpmath = pytest.importorskip("mpmath")
    ys = _projection_samples()
    configs = [_shipped_config(demo_cfg, name) for name in _SHIPPED_CONFIGS]
    # every config scales with the demo coefficients: these are alpha1's atan inputs
    inputs = {u for coeffs in (demo_cfg.alpha_x, demo_cfg.alpha_y)
              for u in (coeffs[1] * ys).tolist()}
    # mpmath calls math.atan itself, so its table is built before any patch
    correct = {}
    for u in inputs:
        with mpmath.workprec(200):
            exact = mpmath.atan(u)
        with mpmath.workprec(53):
            correct[u] = float(+exact)  # rounded to nearest
    atan = math.atan

    def indices():
        return [cfg.curve.nearest_indices(*alpha1(ys, cfg.alpha_x, cfg.alpha_y, cfg.curve.s))
                for cfg in configs]

    expected = indices()
    for patched in (lambda u: math.nextafter(atan(u), math.inf),
                    lambda u: math.nextafter(atan(u), -math.inf), correct.__getitem__):
        monkeypatch.setattr(math, "atan", patched)
        for got, want in zip(indices(), expected, strict=True):
            assert np.array_equal(got, want)


def _bisector_margins(curve, qx, qy):
    """Distance from each query to the bisector between its nearest and
    runner-up points, in ulps of its larger coordinate."""
    points = curve.affine_points()
    px, py = np.array([p.x for p in points], float), np.array([p.y for p in points], float)
    # both points lie within r of the query: every point outside the band of
    # columns scanned is farther in x alone
    r = 3.0 * curve.s / math.sqrt(len(points))
    margins = np.empty(len(qx))
    for chunk in np.array_split(np.argsort(qx), -(-len(qx) // 256)):
        x, y = qx[chunk, None], qy[chunk, None]
        lo, hi = np.searchsorted(px, [x.min() - r, x.max() + r])
        d = (px[lo:hi] - x) * (px[lo:hi] - x) + (py[lo:hi] - y) * (py[lo:hi] - y)
        two = np.argpartition(d, 1, axis=1)[:, :2]
        d_a, d_b = np.take_along_axis(d, two, axis=1).T
        assert (d_b <= r * r).all()
        a, b = (lo + two).T
        # |q - b|^2 - |q - a|^2 = 2 |a - b| times q's distance to the bisector
        distance = (d_b - d_a) / (2.0 * np.hypot(px[a] - px[b], py[a] - py[b]))
        margins[chunk] = distance / np.spacing(np.maximum(x, y)[:, 0])
    return margins


@pytest.mark.parametrize("name", list(_SHIPPED_CONFIGS))
def test_projection_margin_dwarfs_rounding(demo_cfg, name):
    # an atan one ulp off moves these scaled samples by at most 1024 ulps of
    # the larger coordinate (s17; 128 at s307, 4 at s9973): each sample lies
    # a thousand times that or more from the bisector between its nearest
    # and runner-up points, where its projection would change
    cfg = _shipped_config(demo_cfg, name)
    qx, qy = alpha1(_projection_samples(), cfg.alpha_x, cfg.alpha_y, cfg.curve.s)
    assert _bisector_margins(cfg.curve, qx, qy).min() >= 1e6


def test_sigma_equals_staged_sigma_on_miss_and_hit():
    rng = np.random.default_rng(7_000_001)
    misses = hits = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        for _ in range(12):
            cfg = random_switching_config(rng)
            ys = np.concatenate([rng.uniform(-100, 100, 100), rng.uniform(-1e4, 1e4, 100)])
            for y in ys.tolist():
                expected = sigma_detail(y, cfg).theta.taps
                x_s, y_s = alpha1(y, cfg.alpha_x, cfg.alpha_y, cfg.curve.s)
                miss = cfg.tap_table[cfg.curve.nearest_index(x_s, y_s)] is None
                misses, hits = misses + miss, hits + (not miss)
                theta = sigma(y, cfg)
                assert theta.taps == expected
                assert sigma(y, cfg) is theta
    assert misses > 100 and hits > 100


def test_configs_from_one_text_hold_separate_tables():
    text = json.dumps(make_config().to_dict())
    cfg_a = SwitchingConfig.from_json(text)
    cfg_b = SwitchingConfig.from_json(text)
    sigma(1.0, cfg_a)
    assert cfg_a.tap_table is not cfg_b.tap_table
    assert cfg_a.tap_table.count(None) < len(cfg_a.tap_table)
    assert cfg_b.tap_table.count(None) == len(cfg_b.tap_table)
    # the table is no field: equality, hash and serialization ignore it
    assert cfg_a == cfg_b and hash(cfg_a) == hash(cfg_b)
    assert cfg_a.to_dict() == json.loads(text)


def test_failed_derivation_is_not_cached():
    # 1.2e307 * ||S|| overflows for ||S|| > 15; y = 5 maps to S = (16, 13)
    cfg = make_config(eta1_rows=((0.0, 1.2e307, 0.0), (0.0, 0.0, 0.05), (1.0, -0.15, 0.012)))
    y = 5.0
    x_s, y_s = alpha1(y, cfg.alpha_x, cfg.alpha_y, cfg.curve.s)
    i = cfg.curve.nearest_index(x_s, y_s)
    for _ in range(3):
        with pytest.raises(InputError):
            sigma(y, cfg)
        assert cfg.tap_table[i] is None
    with pytest.raises(InputError):
        sigma_detail(y, cfg)
    # y = 1 maps to S = (6, 3), which derives and is stored as usual
    assert sigma(1.0, cfg) == sigma_detail(1.0, cfg).theta
    assert cfg.tap_table.count(None) == len(cfg.tap_table) - 1


def test_sigma_hit_returns_the_stored_object(demo_cfg):
    for y in (0.0, 10.3, -77.25, 5000.5):
        theta = sigma(y, demo_cfg)
        assert sigma(y, demo_cfg) is theta
        assert any(slot is theta for slot in demo_cfg.tap_table)


def test_inadmissible_derivation_raises_and_stores_nothing():
    # b0 is floored to the subnormal 1e-320, whose inverse overflows: eta2
    # returns it, but it must not enter the table
    with pytest.warns(ConfigurationWarning, match="floor"):
        cfg = make_config(eta_floor=1e-320,
                          eta1_rows=((0.0,), (0.0, 0.0, 0.05), (1.0, -0.15, 0.012)))
    for y in (0.0, 5.0, 5.0):
        x_s, y_s = alpha1(y, cfg.alpha_x, cfg.alpha_y, cfg.curve.s)
        i = cfg.curve.nearest_index(x_s, y_s)
        with pytest.raises(ParameterError, match="too small to invert"):
            sigma(y, cfg)
        assert cfg.tap_table[i] is None
        # the diagnostic path still reports the clamped taps
        assert sigma_detail(y, cfg).theta.taps[0] == 1e-320
    assert cfg.tap_table.count(None) == len(cfg.tap_table)


def test_switching_builds_no_point_list(monkeypatch):
    # loading a config, sigma and a block projection read the curve's
    # coordinate arrays: no list of Point objects is built
    calls = []
    original = Curve.affine_points
    monkeypatch.setattr(Curve, "affine_points", lambda self: calls.append(self) or original(self))
    data = json.loads(shipped.data_text("demo_config.json"))
    data["curve"], data["l"] = {"s": 9973, "a": 2, "b": 3}, 7919
    cfg = SwitchingConfig.from_json(json.dumps(data))
    ys = np.random.default_rng(9973).uniform(-1e4, 1e4, 8)
    for y in ys.tolist():
        sigma(y, cfg)
    cfg.curve.nearest_indices(*alpha1(ys + 0.5, cfg.alpha_x, cfg.alpha_y, cfg.curve.s))
    assert calls == []
    curve = cfg.curve
    for y in ys.tolist():
        x_s, y_s = alpha1(y, cfg.alpha_x, cfg.alpha_y, curve.s)
        i = curve.nearest_index(x_s, y_s)
        assert curve.nearest_affine(x_s, y_s) == curve.affine_points()[i]


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_sigma_rejects_non_finite_sample_before_the_table(y):
    cfg = make_config()
    with pytest.raises(InputError):
        sigma(y, cfg)
    assert cfg.tap_table.count(None) == len(cfg.tap_table)


def _bits(pair):
    """A coordinate pair as hex strings, so -0.0 and 0.0 differ."""
    return [float(v).hex() for v in pair]


@pytest.mark.parametrize("coeffs, ys", [
    # the demo coefficients on signed zeros, the smallest subnormal and ints
    (((4.0, 1.0, 3.0, 2.4), (2.5, 0.7, 1.7, 3.1)), [0.0, -0.0, 5e-324, -5e-324, 3, -7, 10**6]),
    # a tail that keeps the x value tiny and negative, so % 17 lands on 17.0
    # and folds to 0.0
    (((1.0, 1.0, 1.0, 2.0), (2.5, 0.7, 1.7)), [-1e-22]),
    # two coefficients each: empty tails
    (((4.0, 1.0), (2.5, 0.7)), [10.3, -2.0, 0.0]),
], ids=["demo", "fold", "empty-tail"])
def test_sigma_projects_the_scaled_coordinates(monkeypatch, coeffs, ys):
    # sigma, alpha1 and sigma_detail reach one scalar scaling, bit for bit
    cfg = make_config(alpha_x=coeffs[0], alpha_y=coeffs[1])
    projected = []
    original = Curve.nearest_index
    monkeypatch.setattr(Curve, "nearest_index",
                        lambda self, x, y: projected.append((x, y)) or original(self, x, y))
    for y in ys:
        projected.clear()
        sigma(y, cfg)
        expected = alpha1(y, *coeffs, 17)
        assert [_bits(pt) for pt in projected] == [_bits(expected)]
        assert _bits(sigma_detail(y, cfg).scaled) == _bits(expected)


def test_alpha1_horner_closed_form():
    # inner = a3*t + a2, the Horner sum from 0.0 with the highest power first
    for y in (2.0, -3.5, 0.25):
        t = abs(y)
        x = (4.0 * math.atan(1.0 * y) + (2.4 * t + 3.0) * t * t) % 17
        y_ = (2.5 * math.atan(0.7 * y) + ((3.1 * t + 1.7) * t) * t * t) % 17
        assert _bits(alpha1(y, (4.0, 1.0, 3.0, 2.4), (2.5, 0.7, 0.0, 1.7, 3.1), 17)) == \
            _bits((x, y_))


@pytest.mark.parametrize("coeffs", [((0.0, 0.0, 1.0, 1.0), (4.0, 1.0)),
                                    ((4.0, 1.0), (0.0, 0.0, 1.0, 1.0))],
                         ids=["x-overflows", "y-overflows"])
def test_scaling_overflow_in_one_coordinate_raises_the_same_error(coeffs):
    cfg = make_config(alpha_x=coeffs[0], alpha_y=coeffs[1])
    message = "scaling of y=1e+200 overflowed double precision"
    for scale in (lambda y: alpha1(y, *coeffs, 17), lambda y: sigma(y, cfg),
                  lambda y: sigma_detail(y, cfg)):
        with pytest.raises(InputError) as err:
            scale(1e200)
        assert str(err.value) == message
    assert cfg.tap_table.count(None) == len(cfg.tap_table)


@pytest.mark.parametrize("y, message", [
    (np.float32(1.5), "measurement must be a float or an int, got float32"),
    (np.int64(3), "measurement must be a float or an int, got int64"),
    (True, "measurement must be a float or an int, got bool"),
    (False, "measurement must be a float or an int, got bool"),
    ("1.0", "measurement must be a float or an int, got str"),
    (None, "measurement must be a float or an int, got NoneType"),
    (10**400, "measurement out of range: int too large to convert to float"),
], ids=["float32", "int64", "true", "false", "str", "none", "huge-int"])
def test_sigma_rejects_samples_of_other_types(y, message):
    # the config's number rule: a bool is not a number, and no other type
    # converts silently
    cfg = make_config()
    for scale in (lambda: sigma(y, cfg), lambda: sigma_detail(y, cfg),
                  lambda: alpha1(y, cfg.alpha_x, cfg.alpha_y, 17)):
        with pytest.raises(InputError) as err:
            scale()
        assert str(err.value) == message
    assert cfg.tap_table.count(None) == len(cfg.tap_table)


def test_sigma_accepts_ints_and_float_subclasses():
    cfg = make_config()
    for y, same in ((np.float64(10.3), 10.3), (np.float64(-0.0), -0.0), (3, 3.0), (-7, -7.0)):
        assert sigma(y, cfg) is sigma(same, cfg)
        assert _bits(alpha1(y, cfg.alpha_x, cfg.alpha_y, 17)) == \
            _bits(alpha1(same, cfg.alpha_x, cfg.alpha_y, 17))


def test_prepared_scaling_is_no_field():
    text = json.dumps(make_config().to_dict())
    cfg_a, cfg_b = SwitchingConfig.from_json(text), SwitchingConfig.from_json(text)
    # (a0, a1, tail reversed) per coordinate, prepared once
    assert cfg_a.scaling == ((4.0, 1.0, (2.4, 3.0)), (2.5, 0.7, (3.1, 1.7)))
    assert cfg_a.scaling is cfg_a.scaling
    assert "scaling" not in {f.name for f in dataclasses.fields(cfg_a)}
    assert cfg_a == cfg_b and hash(cfg_a) == hash(cfg_b)
    assert cfg_a.to_dict() == cfg_b.to_dict() == json.loads(text)


# -- configuration -----------------------------------------------------------------

def test_config_round_trip():
    cfg = make_config()
    clone = SwitchingConfig.from_json(json.dumps(cfg.to_dict()))
    assert clone.to_dict() == cfg.to_dict()


def test_config_missing_field_reports_path():
    with pytest.raises(ConfigError) as err:
        SwitchingConfig.from_dict({"curve": {"s": 17, "a": 2, "b": 2}, "l": 7})
    assert "alpha" in str(err.value)


def test_config_bad_row_count():
    with pytest.raises(ConfigError) as err:
        make_config(eta1_rows=((0.0, 1.0),), n_h=2)
    assert "eta1" in str(err.value)


def test_config_rejects_bad_margin():
    with pytest.raises(ConfigError):
        make_config(eta_margin=1.5)


def test_config_rejects_bad_scalar():
    with pytest.raises(ConfigError):
        make_config(l=0)


def test_config_warns_on_weak_floor():
    with pytest.warns(ConfigurationWarning, match="floor"):
        make_config(eta_floor=0.1)


def test_config_warns_on_degenerate_scalar():
    with pytest.warns(ConfigurationWarning, match="scalar"):
        make_config(l=19)


def test_config_defaults_are_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        make_config()


def test_config_file_round_trip(tmp_path):
    cfg = make_config()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert SwitchingConfig.load(path).to_dict() == cfg.to_dict()


@pytest.mark.parametrize("edit, path, message", [
    pytest.param(lambda d: d["alpha"].update(x=[4.0]), "alpha.x", "need at least 2 coefficients",
                 id="alpha-one-coefficient"),
    pytest.param(lambda d: d["alpha"].update(x=3), "alpha.x", "expected a list of numbers, got 3",
                 id="alpha-not-a-list"),
    pytest.param(lambda d: d.update(n_h=0), "n_h", "filter order must be a positive integer",
                 id="n_h-zero"),
    pytest.param(lambda d: d["eta1"].__setitem__(1, []), "eta1[1]",
                 "each row needs at least one finite coefficient", id="eta1-empty-row"),
    pytest.param(lambda d: d.update(eta1=3), "eta1", "expected a list of coefficient rows",
                 id="eta1-not-a-list"),
    pytest.param(lambda d: d.update(eta_floor=0), "eta_floor", "tap floor must be positive",
                 id="eta_floor-zero"),
    pytest.param(lambda d: d.update(eta_slope=-1), "eta_slope", "squash slope must be positive",
                 id="eta_slope-negative"),
    pytest.param(lambda d: d["curve"].update(s=10007), "curve.s",
                 "field size 10007 exceeds enumeration bound 10000", id="curve-past-bound"),
])
def test_config_load_checks_name_the_field(edit, path, message):
    data = make_config().to_dict()
    edit(data)
    with pytest.raises(ConfigError) as err:
        SwitchingConfig.from_dict(data)
    assert (err.value.path, err.value.message) == (f"config.{path}", message)


_FINITE = "taps must be finite"
_B0 = "b0 must be nonzero"
_B1 = "|b1| must be below 1"
_TAIL = "sum(|b_i/b0|, i>=2) must stay below 1 - |b1|"
_INVERT = "leading tap too small to invert in double precision"


@pytest.mark.parametrize("taps,violation", [
    ((1.0, math.nan), _FINITE),
    ((1.0, 0.5, math.nan), _FINITE),
    ((math.inf, 0.5, 0.1), _FINITE),
    ((-0.0, 0.5, 0.2), _B0),
    ((1.0, -1.0, 0.0), _B1),
    ((1.0, 0.5, 0.5), _TAIL),
    ((1e-320, 0.5, 0.0), _INVERT),
], ids=["b1-nan", "tail-nan", "b0-inf", "b0-zero", "b1-magnitude-one", "tail-at-radius",
        "b0-no-inverse"])
def test_inadmissible_taps_agree_everywhere(taps, violation):
    # validate_theta states the rule; every consumer reports its verdict
    assert validate_theta(taps) == ThetaValidation(False, violation)
    message = f"inadmissible taps: {violation}"
    with pytest.raises(ParameterError) as err:
        admissible_taps(taps)
    assert str(err.value) == message
    with pytest.raises(ParameterError) as err:
        WatermarkUnit("generator", taps)
    assert str(err.value) == message
    report = check_stability(taps)
    assert report.gershgorin_pass is False
    # the remover's poles exist only while b0 and every ratio b_i/b0 are finite
    assert math.isinf(report.spectral_radius) is (violation not in (_B1, _TAIL))


def test_config_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        SwitchingConfig.load(path)


def test_eta2_subnormal_tail_is_normalized():
    # ratio-first evaluation: the scale factor alone would overflow here
    theta = eta2((0.0, 0.0, 2.2250738585072e-309), floor=1.0, slope=1.0, margin=0.5)
    assert theta.taps == (1.0, 0.0, 0.5)
    assert validate_theta(theta).ok


def test_eta2_underflowing_tail_collapses_to_zero():
    theta = eta2((1e308, 0.0, 5e-324), floor=1.0, slope=1.0, margin=0.1)
    assert theta.taps == (1e308, 0.0, 0.0)
    assert validate_theta(theta).ok


def test_eta2_rejects_non_finite_raw_taps():
    with pytest.raises(ValueError):
        eta2((math.inf, 0.0), floor=1.0, slope=1.0, margin=0.1)


def test_eta2_squash_capped_below_one():
    theta = eta2((1.0, 1e200, 0.5), floor=1.0, slope=1.0, margin=0.1)
    assert abs(theta.taps[1]) < 1.0
    assert validate_theta(theta).ok
    # the squash rounds to -1.0 here, and the negative cap takes it
    theta = eta2((1.0, -1e300, 0.5), floor=1.0, slope=1.0, margin=0.1)
    assert theta.taps[1] == -(1.0 - 2.0**-20)
    assert validate_theta(theta).ok
