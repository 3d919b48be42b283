import copy
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecwatermark import (
    AttackSpec,
    ConfigError,
    ControllerModel,
    DetectorModel,
    DivergenceError,
    PlantModel,
    Scenario,
    ThresholdSpec,
    WatermarkSetup,
    apply_attack,
    calibrate_threshold,
    run_scenario,
    shipped,
)
from conftest import JSON_LIKE, leaf_paths, small_scenario_dict


# -- block closed forms --------------------------------------------------------

def test_plant_decay_closed_form():
    sc = Scenario.from_dict(small_scenario_dict(horizon=40))
    trace = run_scenario(sc)
    expected = 0.9 ** np.arange(40)
    assert np.abs(trace.y_p - expected).max() < 1e-12


def test_zero_everything_stays_zero():
    d = small_scenario_dict(horizon=30)
    d["plant"]["x0"] = [0.0]
    d["detector"]["x0"] = [0.0]
    trace = run_scenario(Scenario.from_dict(d))
    for arr in (trace.y_p, trace.y_w, trace.y_q, trace.u, trace.y_r):
        assert np.all(arr == 0.0)


def test_matched_detector_zero_residual():
    # detector replicates the plant exactly: x_r+ = A x_r + B u + K(y - x_r)
    d = small_scenario_dict(horizon=50)
    d["detector"] = {
        "A": [[0.5]], "B": [[1.0]], "K": [[0.4]], "C": [[-1.0]], "L": [[1.0]],
        "x0": [1.0], "threshold": {"mode": "fixed", "value": 0.5},
    }
    # A_r = A_p - K C_p = 0.9 - 0.4 = 0.5, so x_r tracks x_p exactly
    trace = run_scenario(Scenario.from_dict(d))
    assert np.abs(trace.y_r).max() < 1e-12


# -- validation at load -----------------------------------------------------------

def test_multi_output_plant_rejected():
    d = small_scenario_dict()
    d["plant"]["C"] = [[1.0], [1.0]]
    with pytest.raises(ConfigError):
        Scenario.from_dict(d)


def test_unstable_closed_loop_rejected():
    d = small_scenario_dict()
    d["plant"]["A"] = [[1.5]]
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(d)
    assert "Schur" in str(err.value)


def test_unstable_detector_rejected():
    d = small_scenario_dict()
    d["detector"]["A"] = [[1.01]]
    with pytest.raises(ConfigError):
        Scenario.from_dict(d)


def test_dimension_mismatch_reports_path():
    d = small_scenario_dict()
    d["plant"]["B"] = [[1.0], [0.0]]  # two rows for a one-state plant
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(d)
    assert "plant.B" in str(err.value)


@pytest.mark.parametrize("section,key", [
    ("plant", "A"), ("plant", "B"), ("controller", "A"), ("detector", "A"),
])
def test_nan_matrix_reports_path(section, key):
    d = small_scenario_dict()
    d[section][key] = [[math.nan]]
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(d)
    assert f"{section}.{key}" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_closed_loop_rejected():
    # finite entries whose product overflows: the loop check must not hit inf
    d = small_scenario_dict()
    d["plant"]["B"] = [[1e200]]
    d["controller"]["D"] = [[1e200]]
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(d)
    assert "Schur" in str(err.value)


def test_watermark_off_forms():
    on = json.loads(shipped.data_text("scenario_nominal.json"))
    assert isinstance(Scenario.from_dict(on).watermark, WatermarkSetup)
    off = dict(on, watermark={"enabled": False})
    assert Scenario.from_dict(off).watermark is None
    del off["watermark"]
    sc = Scenario.from_dict(off)
    assert sc.watermark is None
    assert sc.to_dict()["watermark"] is None
    trace = run_scenario(sc, horizon=50, threshold=0.2)
    assert trace.taps == [] and np.array_equal(trace.y_q, trace.y_p)


_NOMINAL = json.loads(shipped.data_text("scenario_nominal.json"))


@pytest.mark.filterwarnings("ignore")
@given(st.sampled_from(list(leaf_paths(_NOMINAL))), JSON_LIKE)
def test_loader_fuzz_one_leaf(path, value):
    # any replaced leaf either loads or raises ConfigError, nothing else
    d = copy.deepcopy(_NOMINAL)
    node = d
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        Scenario.from_dict(d)
    except ConfigError:
        pass


def test_scenario_round_trip(tmp_path):
    sc = shipped.load_scenario("nominal")
    path = tmp_path / "sc.json"
    sc.save(path)
    assert Scenario.load(path).to_dict() == sc.to_dict()


# -- attack primitives ---------------------------------------------------------------

def test_attack_identity_before_start():
    spec = AttackSpec(kind="bias", start=100, magnitude=0.5)
    value, deferred = apply_attack(1.0, [1.0], spec, 50)
    assert value == 1.0 and not deferred


def test_bias_attack_adds_constant():
    spec = AttackSpec(kind="bias", start=10, magnitude=0.5)
    value, _ = apply_attack(1.25, [], spec, 10)
    assert value == 1.75


def test_replay_attack_resends_old_value():
    spec = AttackSpec(kind="replay", start=5, window=3)
    history = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    value, deferred = apply_attack(15.0, history, spec, 5)
    assert value == history[2] and not deferred


def test_replay_defers_without_history():
    spec = AttackSpec(kind="replay", start=0, window=10)
    value, deferred = apply_attack(3.0, [3.0], spec, 0)
    assert value == 3.0 and deferred


def test_replay_deferral_logged(caplog):
    d = small_scenario_dict(horizon=30)
    d["attack"] = {"kind": "replay", "start": 0, "window": 10}
    sc = Scenario.from_dict(d)
    with caplog.at_level(logging.WARNING, logger="ecwatermark.sim"):
        run_scenario(sc)
    assert any("deferred" in rec.message for rec in caplog.records)


def test_inject_attack_callable():
    spec = AttackSpec(kind="inject", start=2, window=4,
                      inject=lambda window, k: float(window.max()))
    value, _ = apply_attack(1.0, [5.0, 2.0, 1.0], spec, 2)
    assert value == 6.0


def test_unknown_attack_kind_rejected():
    with pytest.raises(ConfigError):
        AttackSpec.from_dict({"kind": "mitm"})


# -- determinism ------------------------------------------------------------------

def test_identical_seeds_identical_traces():
    sc = shipped.load_scenario("nominal")
    a = run_scenario(sc, horizon=300, threshold=0.2)
    b = run_scenario(sc, horizon=300, threshold=0.2)
    for name in ("y_p", "y_w", "y_w_tilde", "y_q", "u", "y_r"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.taps == b.taps


def test_different_seeds_differ():
    sc = shipped.load_scenario("nominal")
    a = run_scenario(sc, horizon=200, seed=1, threshold=0.2)
    b = run_scenario(sc, horizon=200, seed=2, threshold=0.2)
    assert not np.array_equal(a.y_p, b.y_p)


# -- watermark transparency ----------------------------------------------------------

def test_identity_watermark_equals_disabled():
    base = small_scenario_dict(horizon=150)
    base["plant"]["process_noise"] = {"kind": "uniform", "low": [-0.1], "high": [0.1]}
    base["plant"]["measurement_noise"] = {"kind": "uniform", "low": [-0.05], "high": [0.05]}
    off = Scenario.from_dict(base)

    on = small_scenario_dict(horizon=150)
    on["plant"] = base["plant"]
    on["watermark"] = {
        "enabled": True,
        "config": json.loads(shipped.data_text("demo_config.json")),
        "protocol": {"trigger": "none"},
        "theta0": [1.0, 0.0, 0.0],
    }
    on = Scenario.from_dict(on)

    ta = run_scenario(off)
    tb = run_scenario(on)
    assert np.array_equal(ta.y_p, tb.y_p)
    assert np.array_equal(ta.y_q, tb.y_q)
    assert np.array_equal(ta.u, tb.u)


def test_nominal_transparency_and_no_alarms():
    d = json.loads(shipped.data_text("scenario_nominal.json"))
    d["detector"]["threshold"]["runs"] = 5
    sc = Scenario.from_dict(d)
    thr = calibrate_threshold(sc)
    trace = run_scenario(sc, threshold=thr)
    assert trace.max_reconstruction_error < 1e-9
    assert trace.summary()["n_alarms"] == 0
    assert len(trace.switch_steps) >= 5


def test_trigger_synchrony_periodic():
    sc = shipped.load_scenario("nominal")
    trace = run_scenario(sc, horizon=500, threshold=0.2)
    assert trace.trigger_times_generator == trace.trigger_times_remover
    assert trace.trigger_times_generator


def test_trigger_synchrony_threshold_rule():
    d = json.loads(shipped.data_text("scenario_nominal.json"))
    d["horizon"] = 600
    d["watermark"]["protocol"] = {"trigger": "threshold", "bound": 10.02}
    trace = run_scenario(Scenario.from_dict(d), threshold=0.2)
    assert trace.trigger_times_generator == trace.trigger_times_remover
    assert trace.trigger_times_generator  # the bound is crossed at this operating point
    assert trace.max_reconstruction_error < 1e-9


def test_switch_inputs_use_previous_sample():
    # taps applied at step k must equal the map of the step k-1 output
    from ecwatermark.switching import sigma

    sc = shipped.load_scenario("nominal")
    trace = run_scenario(sc, horizon=200, threshold=0.2)
    cfg = sc.watermark.config
    assert [k for k, _, _ in trace.taps] == [0] + trace.switch_steps
    for k, generator_taps, remover_taps in trace.taps[1:]:
        assert generator_taps == sigma(float(trace.y_p[k - 1]), cfg).taps
        assert remover_taps == generator_taps


# -- detection ---------------------------------------------------------------------

def test_replay_across_switch_raises_alarm():
    sc = shipped.load_scenario("replay")
    trace = run_scenario(sc, seed=104, threshold=0.18)
    alarms = [k for k in trace.alarm_steps if k >= 1200]
    assert alarms and alarms[0] <= 1200 + 120


def test_replay_without_switching_stays_quiet():
    sc = shipped.load_scenario("replay_static")
    trace = run_scenario(sc, seed=104, threshold=0.18)
    assert not [k for k in trace.alarm_steps if 1200 <= k <= 1320]
    assert len(trace.taps) == 1  # trigger "none" keeps the starting taps


def test_desync_barrier_matches_attack_start():
    sc = shipped.load_scenario("replay")
    trace = run_scenario(sc, seed=104, threshold=0.18)
    pre = np.abs(trace.y_q - trace.y_p)[:1200]
    assert pre.max() < 1e-9  # transparent until the attack begins


# -- threshold calibration -----------------------------------------------------------

def test_zero_noise_calibration_hits_floor():
    d = small_scenario_dict(horizon=60)
    d["plant"]["x0"] = [0.0]
    d["detector"]["x0"] = [0.0]
    d["detector"]["threshold"] = {"mode": "calibrate", "runs": 3, "floor": 1e-6}
    sc = Scenario.from_dict(d)
    assert calibrate_threshold(sc) == 1e-6


def test_calibration_monotone_in_safety():
    d = small_scenario_dict(horizon=80)
    d["plant"]["measurement_noise"] = {"kind": "uniform", "low": [-0.05], "high": [0.05]}
    d["detector"]["threshold"] = {"mode": "calibrate", "runs": 4, "safety": 1.2}
    lo = calibrate_threshold(Scenario.from_dict(d))
    d["detector"]["threshold"]["safety"] = 2.4
    hi = calibrate_threshold(Scenario.from_dict(d))
    assert hi == pytest.approx(2 * lo, rel=1e-12)


def test_calibration_requires_attack_free():
    sc = shipped.load_scenario("replay")
    with pytest.raises(ValueError):
        calibrate_threshold(sc)


def test_no_false_alarms_on_held_out_seeds():
    d = small_scenario_dict(horizon=300)
    d["plant"]["process_noise"] = {"kind": "uniform", "low": [-0.02], "high": [0.02]}
    d["plant"]["measurement_noise"] = {"kind": "uniform", "low": [-0.05], "high": [0.05]}
    d["detector"]["threshold"] = {"mode": "calibrate", "runs": 15}
    sc = Scenario.from_dict(d)
    thr = calibrate_threshold(sc)
    for seed in range(40, 48):
        assert run_scenario(sc, seed=seed, threshold=thr).summary()["n_alarms"] == 0


def test_fixed_threshold_used_without_calibration():
    d = small_scenario_dict(horizon=30)
    trace = run_scenario(Scenario.from_dict(d))
    assert trace.y_r_bar[0] == 0.5


def test_gaussian_noise_supported():
    d = small_scenario_dict(horizon=50)
    d["plant"]["process_noise"] = {"kind": "normal", "mean": [0.0], "std": [0.01]}
    trace = run_scenario(Scenario.from_dict(d))
    assert np.isfinite(trace.y_p).all()


# -- divergence guard ------------------------------------------------------------------

def test_divergence_names_offending_block():
    plant = PlantModel(
        A=np.array([[1.5]]), B=np.array([[1.0]]), C=np.array([[1.0]]),
        x0=np.array([1.0]),
    )
    ctrl = ControllerModel(
        A=np.array([[0.0]]), B=np.array([[0.0]]), C=np.array([[0.0]]),
        D=np.array([[0.0]]), x0=np.array([0.0]),
    )
    det = DetectorModel(
        A=np.array([[0.5]]), B=np.array([[1.0]]), K=np.array([[0.0]]),
        C=np.array([[-1.0]]), L=np.array([[1.0]]), x0=np.array([0.0]),
        threshold=ThresholdSpec(mode="fixed", value=1.0),
    )
    sc = Scenario(plant=plant, controller=ctrl, detector=det,
                  watermark=None,
                  horizon=400, seed=0)
    with pytest.raises(DivergenceError) as err:
        run_scenario(sc)
    assert err.value.block == "plant"


# -- trace output -----------------------------------------------------------------------

def test_trace_invariants_and_csv(tmp_path):
    sc = shipped.load_scenario("nominal")
    trace = run_scenario(sc, horizon=120, threshold=0.2)
    assert len(trace) == 120
    assert np.array_equal(trace.alarm, np.abs(trace.y_r) > trace.y_r_bar)

    paths = trace.write_outputs(tmp_path)
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0] == "k,y_p,y_w,y_w_tilde,y_q,u,y_r,y_r_bar,alarm,switch"
    assert len(lines) == 121
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == trace.y_p[0]

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps"] == 120
    meta = json.loads((tmp_path / "trace_meta.json").read_text())
    assert meta["scenario"]["horizon"] == sc.horizon
    assert set(paths) == {"trace", "summary", "metadata"}


def test_csv_byte_stable(tmp_path):
    sc = shipped.load_scenario("nominal")
    t1 = run_scenario(sc, horizon=80, threshold=0.2)
    t2 = run_scenario(sc, horizon=80, threshold=0.2)
    t1.to_csv(tmp_path / "a.csv")
    t2.to_csv(tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_non_object_section_reports_path():
    d = small_scenario_dict()
    d["plant"] = "not an object"
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(d)
    assert "plant" in str(err.value)
    d = small_scenario_dict()
    d["watermark"] = {"enabled": True, "config": {}, "protocol": "periodic"}
    with pytest.raises(ConfigError):
        Scenario.from_dict(d)
