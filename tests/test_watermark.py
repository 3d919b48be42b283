import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecwatermark import (
    FirParams,
    InputError,
    ParameterError,
    StabilityReport,
    ThetaValidation,
    WatermarkSetup,
    apply_switch,
    check_stability,
    eta2,
    make_pair,
    validate_theta,
)
from ecwatermark.watermark import fir_step
from sim_oracle import SwitchProtocol

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


# -- stability reports ----------------------------------------------------------

def test_stability_pass_case():
    report = check_stability((1.0, 0.5, 0.2))
    assert report.gershgorin_pass
    assert report.spectral_radius < 1.0
    # complex pair with modulus sqrt(0.2)
    assert report.spectral_radius == pytest.approx(math.sqrt(0.2), abs=1e-12)


def test_stability_tap_test_fails_but_radius_below_one():
    report = check_stability((1.0, 0.95, 0.2))
    assert not report.gershgorin_pass  # 0.2 >= 1 - 0.95
    assert report.spectral_radius < 1.0


def test_stability_pure_gain():
    report = check_stability((1.0, 0.0, 0.0))
    assert report.gershgorin_pass
    assert report.spectral_radius == 0.0


def test_stability_zero_b0_reports_infinite_radius():
    report = check_stability((0.0, 0.5, 0.1))
    assert not report.gershgorin_pass
    assert math.isinf(report.spectral_radius)


def test_tap_conditions_alone_do_not_bound_radius():
    # passes the three tap conditions, yet the inverse is unstable; this is
    # why the sufficient test also requires |b0| >= 1
    taps = (0.1, 0.75, 0.015)
    assert validate_theta(taps).ok
    report = check_stability(taps)
    assert not report.gershgorin_pass
    assert report.spectral_radius > 1.0


@given(
    st.lists(finite_floats, min_size=2, max_size=7),
    st.floats(min_value=1.0, max_value=3.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.01, max_value=0.9),
)
def test_clamped_taps_always_stable(b_raw, floor, slope, margin):
    theta = eta2(b_raw, floor=floor, slope=slope, margin=margin)
    report = check_stability(theta)
    assert report.gershgorin_pass
    assert report.spectral_radius < 1.0


@given(st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=6))
def test_tap_test_implies_radius_below_one(taps):
    report = check_stability(taps)
    if report.gershgorin_pass:
        assert report.spectral_radius < 1.0


@pytest.mark.parametrize("taps", [(1e-308, 2.0), (1e-300, 1e10), (1e-200, 0.5, 1e150)])
def test_pole_beyond_double_range_reports_infinite_radius(taps):
    # the companion row -b_i/b0 overflows: a pole lies beyond double range
    assert check_stability(taps) == StabilityReport(False, math.inf)


@pytest.mark.parametrize("taps,radius", [
    ((2.0, 0.5), 0.25),
    ((2.0, 0.75, 0.0), 0.375),  # a zero tail tap adds a pole at the origin
    ((2.0, 0.75, 0.3), math.sqrt(0.15)),  # complex pair, modulus sqrt(b2/b0)
])
def test_radius_known_cases(taps, radius):
    assert math.isclose(check_stability(taps).spectral_radius, radius, rel_tol=1e-15)


def companion_radius(taps):
    """Spectral radius of the remover's state matrix A - B C / b0 in the
    shift-register realization (A shifts, B = e0, C = the tail taps)."""
    n = len(taps) - 1
    A = np.eye(n, k=-1)
    A[0] -= np.asarray(taps[1:]) * (1.0 / taps[0])
    return float(np.abs(np.linalg.eigvals(A)).max()) if n else 0.0


def test_radius_equals_companion_matrix_oracle():
    rng = np.random.default_rng(16)
    for _ in range(10_000):
        taps = tuple(rng.uniform(-2, 2, int(rng.integers(2, 8))))  # n_h 1 to 6
        report = check_stability(taps)
        assert math.isclose(report.spectral_radius, companion_radius(taps), rel_tol=1e-12)
        assert report.gershgorin_pass == (validate_theta(taps).ok and abs(taps[0]) >= 1.0)


# -- unit construction and stepping ------------------------------------------------

def test_make_pair_rejects_inadmissible():
    with pytest.raises(ParameterError):
        make_pair((0.0, 0.5, 0.1))


def test_make_pair_example_dq():
    _, rem = make_pair((2.0, 0.75, 0.3))
    assert rem.step(1.0) == 0.5  # zero register: the remover's feedthrough 1/b0


def test_identity_taps_pass_through():
    gen, rem = make_pair((1.0, 0.0, 0.0))
    for v in (0.0, 1.5, -2.25, 1e6):
        assert gen.step(v) == v
        assert rem.step(v) == v


def test_impulse_response():
    gen, _ = make_pair((1.0, 0.5, 0.2))
    outputs = [gen.step(v) for v in (1.0, 0.0, 0.0, 0.0, 0.0)]
    assert outputs == [1.0, 0.5, 0.2, 0.0, 0.0]


def test_generator_matches_convolution_oracle():
    rng = np.random.default_rng(3)
    taps = (1.3, 0.4, -0.2, 0.1)
    gen, _ = make_pair(taps)
    u = rng.normal(size=200)
    got = np.array([gen.step(float(v)) for v in u])
    expected = np.convolve(u, taps)[:200]
    assert np.abs(got - expected).max() < 1e-12


def test_step_rejects_non_finite():
    gen, _ = make_pair((1.0, 0.5, 0.2))
    with pytest.raises(InputError):
        gen.step(math.nan)


def test_roundtrip_inversion_white_noise():
    rng = np.random.default_rng(11)
    theta = eta2((2.0, 3.0, 4.0), floor=1.0, slope=1.0, margin=0.1)
    gen, rem = make_pair(theta)
    u = rng.normal(scale=5.0, size=1000)
    err = max(abs(rem.step(gen.step(float(v))) - float(v)) for v in u)
    assert err < 1e-9


def test_roundtrip_inversion_bulk():
    # broad draw over the clamp's output set, 200-step sequences each, stepped
    # as one (R, 1, 1) stack per tap count through fir_step; every 200th pair
    # also steps through WatermarkUnit.step and must equal its stacked row
    rng = np.random.default_rng(2026)
    draws = []
    for _ in range(10_000):
        n_h = int(rng.integers(1, 5))
        theta = eta2(rng.uniform(-30, 30, n_h + 1),
                     floor=1.0, slope=1.0, margin=0.05)
        draws.append((theta, rng.normal(scale=10.0, size=200)))
    worst = 0.0
    for n_taps in range(2, 6):
        group = [i for i, (theta, _) in enumerate(draws) if len(theta) == n_taps]
        taps = [np.array([draws[i][0][m] for i in group]).reshape(-1, 1, 1)
                for m in range(n_taps)]
        u = np.array([draws[i][1] for i in group])
        picks = [row for row, i in enumerate(group) if i % 200 == 0]
        reg_w = reg_q = (0.0,) * (n_taps - 1)
        stacked = []
        for t in range(u.shape[1]):
            value = u[:, t].reshape(-1, 1, 1)
            y_w = fir_step(taps, reg_w, value, True)
            y_q = fir_step(taps, reg_q, y_w, False)
            reg_w, reg_q = (value,) + reg_w[:-1], (y_q,) + reg_q[:-1]
            worst = max(worst, float(np.abs(y_q - value).max()))
            stacked.append((y_w[picks, 0, 0], y_q[picks, 0, 0]))
        for j, row in enumerate(picks):
            gen, rem = make_pair(draws[group[row]][0])
            for (w_row, q_row), v in zip(stacked, u[row]):
                y = gen.step(float(v))
                assert (y, rem.step(y)) == (w_row[j], q_row[j])
    assert worst < 1e-9


# -- switching behavior ----------------------------------------------------------

def test_switch_to_same_taps_is_no_op():
    gen_a, _ = make_pair((1.5, 0.3, 0.4))
    gen_b, rem_b = make_pair((1.5, 0.3, 0.4))
    u = np.linspace(-2, 2, 120)
    out_a = []
    for i, v in enumerate(u):
        if i == 60:
            apply_switch(gen_b, rem_b, FirParams((1.5, 0.3, 0.4)))
        out_a.append((gen_a.step(float(v)), gen_b.step(float(v))))
    assert all(a == b for a, b in out_a)


def test_switch_keeps_pair_synchronized():
    rng = np.random.default_rng(8)
    theta_a = eta2((2.0, 1.0, 1.0), floor=1.0, slope=1.0, margin=0.1)
    theta_b = eta2((5.0, -4.0, 0.5), floor=1.0, slope=1.0, margin=0.1)
    gen, rem = make_pair(theta_a)
    worst = 0.0
    for k in range(200):
        if k == 50:
            apply_switch(gen, rem, theta_b)
        u = float(rng.normal(scale=3.0))
        worst = max(worst, abs(rem.step(gen.step(u)) - u))
    assert worst < 1e-9


def test_registers_stay_equal_across_switch():
    rng = np.random.default_rng(9)
    gen, rem = make_pair((2.0, 0.5, 0.3))
    for k in range(40):
        if k == 20:
            apply_switch(gen, rem, FirParams((3.0, -0.25, 0.1)))
        rem.step(gen.step(float(rng.normal())))
    assert np.allclose(gen._register, rem._register, atol=1e-12)


def test_switch_rejects_inadmissible_taps():
    gen, rem = make_pair((1.0, 0.5, 0.2))
    with pytest.raises(ParameterError):
        apply_switch(gen, rem, (1.0, 0.5, 0.6))
    assert gen.taps == rem.taps == (1.0, 0.5, 0.2)  # neither unit changed


def test_switch_rejects_changed_tap_count():
    gen, rem = make_pair((1.0, 0.5, 0.2))
    with pytest.raises(ParameterError):
        apply_switch(gen, rem, (1.0, 0.5))
    assert gen.taps == rem.taps == (1.0, 0.5, 0.2)


def test_mismatched_taps_break_reconstruction():
    # the detection mechanism: desynchronized taps amplify the error
    gen, _ = make_pair((2.0, 0.5, 0.3))
    _, rem = make_pair((6.0, -0.2, 0.1))
    errs = [abs(rem.step(gen.step(10.0)) - 10.0) for _ in range(50)]
    assert max(errs) > 1.0


# -- triggers ----------------------------------------------------------------------

def test_periodic_trigger_pattern(demo_cfg):
    t = WatermarkSetup(demo_cfg, "periodic", period=50)
    fired = [k for k in range(201) if t.fires(k, 0.0)]
    assert fired == [50, 100, 150, 200]


def test_threshold_trigger_is_open_half_line(demo_cfg):
    t = WatermarkSetup(demo_cfg, "threshold", bound=1.0)
    assert not t.fires(3, 1.0)
    assert t.fires(3, 1.0 + 1e-12)
    assert not t.fires(3, 0.0)


def test_protocol_records_times(demo_cfg):
    proto = SwitchProtocol(WatermarkSetup(demo_cfg, "periodic", period=10))
    for k in range(35):
        proto.check(k, 0.0)
    assert proto.switch_times == [10, 20, 30]


def test_protocol_without_trigger_never_fires(demo_cfg):
    for setup in (None, WatermarkSetup(demo_cfg, "none", period=1, bound=-math.inf)):
        proto = SwitchProtocol(setup)
        assert not any(proto.check(k, 99.0) for k in range(5))
        assert proto.switch_times == []


def test_subnormal_leading_tap_handled():
    # passes the other tap-domain conditions yet has no double-precision inverse
    taps = (5e-324, 0.0)
    assert validate_theta(taps) == ThetaValidation(
        False, "leading tap too small to invert in double precision")
    report = check_stability(taps)
    assert not report.gershgorin_pass
    assert math.isinf(report.spectral_radius)
    with pytest.raises(ParameterError):
        make_pair(taps)
