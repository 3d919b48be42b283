import dataclasses
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
    StabilityReport,
    SwitchingConfig,
    WatermarkUnit,
    alpha1,
    alpha2,
    check_stability,
    eta1,
    eta2,
    sigma,
    sigma_block,
    sigma_detail,
    shipped,
    validate_theta,
)
from ecwatermark.switching import admissible_taps
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
    with pytest.raises(ValueError):
        FirParams((math.nan, 1.0))


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


def _table_taps(cfg):
    return [None if theta is None else theta.taps for theta in cfg.tap_table]


def test_sigma_block_equals_per_sample_sigma():
    rng = np.random.default_rng(7_000_002)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        for _ in range(8):
            cfg = random_switching_config(rng)
            twin = dataclasses.replace(cfg)  # equal, with a table of its own
            ys = np.concatenate([rng.uniform(-100, 100, 60), rng.uniform(-1e4, 1e4, 60),
                                 [0.0, -0.0, 3.5, 3.5]])
            block = sigma_block(ys, cfg)
            assert [theta.taps for theta in block] == [sigma(y, twin).taps for y in ys.tolist()]
            assert _table_taps(cfg) == _table_taps(twin)
            # a second block only hits, and returns the stored objects
            assert all(a is b for a, b in zip(sigma_block(ys, cfg), block, strict=True))


# y = 5 fails in the feature map (see test_failed_derivation_is_not_cached),
# 1e300 in the scaling, nan before it; y = 1 derives
def test_switching_builds_no_point_list(monkeypatch):
    # loading a config and sigma, one sample or a block, read the curve's
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
    sigma_block(ys + 0.5, cfg)
    assert calls == []
    curve = cfg.curve
    for y in ys.tolist():
        x_s, y_s = alpha1(y, cfg.alpha_x, cfg.alpha_y, curve.s)
        i = curve.nearest_index(x_s, y_s)
        assert curve.nearest_affine(x_s, y_s) == curve.affine_points()[i]


@pytest.mark.parametrize("ys", [[1.0, 5.0, math.nan], [1.0, math.nan, 5.0], [5.0, 1e300],
                                [1.0, 1e300, 5.0, 2.0], [1.0, 5.0]])
def test_sigma_block_raises_the_first_failing_sample_error(ys):
    rows = ((0.0, 1.2e307, 0.0), (0.0, 0.0, 0.05), (1.0, -0.15, 0.012))
    cfg, twin = make_config(eta1_rows=rows), make_config(eta1_rows=rows)
    with pytest.raises(InputError) as per_sample:
        for y in ys:
            sigma(y, twin)
    with pytest.raises(InputError) as block:
        sigma_block(np.array(ys), cfg)
    assert str(block.value) == str(per_sample.value)
    assert _table_taps(cfg) == _table_taps(twin)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_sigma_rejects_non_finite_sample_before_the_table(y):
    cfg = make_config()
    with pytest.raises(InputError):
        sigma(y, cfg)
    assert cfg.tap_table.count(None) == len(cfg.tap_table)


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


@pytest.mark.parametrize("taps", [(1.0, math.nan), (1.0, 0.5, math.nan),
                                  (math.inf, 0.5, 0.1)], ids=["b1-nan", "tail-nan", "b0-inf"])
def test_non_finite_taps_are_inadmissible_everywhere(taps):
    report = validate_theta(taps)
    assert not report.ok and report.violation == "taps must be finite"
    with pytest.raises(ParameterError, match="inadmissible taps: taps must be finite"):
        admissible_taps(taps)
    with pytest.raises(ParameterError, match="taps must be finite"):
        WatermarkUnit("generator", taps)
    assert check_stability(taps) == StabilityReport(False, math.inf)


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
