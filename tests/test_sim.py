import copy
import dataclasses
import functools
import hashlib
import json
import logging
import math
import tracemalloc

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
    NoiseSpec,
    PlantModel,
    Scenario,
    ThresholdSpec,
    WatermarkSetup,
    apply_attack,
    InputError,
    calibrate_threshold,
    run_batch,
    run_scenario,
    shipped,
    sigma,
)
from ecwatermark import sim
from ecwatermark.sim import _noise_block
from conftest import JSON_LIKE, leaf_paths, small_scenario_dict
from sim_oracle import oracle_run, oracle_threshold


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
    for a in (1.5, 1e308):  # a huge radius still gives a short message
        d = small_scenario_dict()
        d["plant"]["A"] = [[a]]
        with pytest.raises(ConfigError) as err:
            Scenario.from_dict(d)
        assert "Schur" in str(err.value) and "spectral radius" in str(err.value)
        assert len(str(err.value)) < 120


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


@pytest.mark.parametrize("bad", ["1.0", True], ids=["string", "bool"])
@pytest.mark.parametrize("edit,path", [
    (lambda d, bad: d["plant"].update(A=[[bad]]), "plant.A[0][0]"),
    (lambda d, bad: d["detector"].update(L=[[bad]]), "detector.L[0][0]"),
    (lambda d, bad: d["plant"].update(x0=[bad]), "plant.x0[0]"),
    (lambda d, bad: d["plant"].update(measurement_noise={
        "kind": "uniform", "low": [-0.1], "high": [bad]}), "plant.measurement_noise.high[0]"),
], ids=["matrix", "gain", "vector", "noise-bound"])
def test_array_entries_follow_the_number_rule(edit, path, bad):
    # a numeric string or a bool is no number in a matrix or vector either,
    # as in every scalar field
    d = small_scenario_dict()
    edit(d, bad)
    with pytest.raises(ConfigError, match="expected a number") as err:
        Scenario.from_dict(d)
    assert err.value.path == f"scenario.{path}"


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
    trace = run_scenario(sc, horizon=50, threshold=0.2)
    assert trace.taps == [] and np.array_equal(trace.y_q, trace.y_p)


@pytest.mark.parametrize("theta0, violation", [
    ([0, 0, 0], "b0 must be nonzero"),
    ([1, 1.5, 0], "|b1| must be below 1"),
    ([1e-320, 0, 0], "too small to invert"),
])
def test_inadmissible_theta0_rejected_at_load(theta0, violation):
    d = json.loads(shipped.data_text("scenario_nominal.json"))
    d["watermark"]["theta0"] = theta0
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(d)
    assert err.value.path == "scenario.watermark.theta0"
    assert violation in err.value.message


def test_disabled_watermark_config_is_redacted():
    d = json.loads(shipped.data_text("scenario_replay.json"))
    d["watermark"]["enabled"] = False
    sc = Scenario.from_json(json.dumps(d))
    assert sc.watermark is None
    d["watermark"]["config"]["l"] = "redacted"
    assert sc.source == d


def test_only_parsed_scenarios_have_a_source():
    loaded = shipped.load_scenario("replay")
    assert loaded.source["watermark"]["config"]["l"] == "redacted"
    assert loaded.watermark.config.l == 7
    data = json.loads(shipped.data_text("scenario_replay.json"))
    derived = (Scenario.from_dict(data), dataclasses.replace(loaded, seed=3),
               dataclasses.replace(loaded, attack=AttackSpec()))
    assert all(sc.source is None for sc in derived)
    assert run_scenario(derived[2], horizon=5, threshold=1.0).metadata["scenario"] is None


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


@pytest.mark.parametrize("edit, path, message", [
    pytest.param(lambda d: d["plant"].update(measurement_noise={
        "kind": "normal", "mean": [0.0], "std": [-0.1]}),
        "plant.measurement_noise", "std must be non-negative", id="noise-negative-std"),
    pytest.param(lambda d: d["plant"].update(measurement_noise={
        "kind": "uniform", "low": [0.1], "high": [-0.1]}),
        "plant.measurement_noise", "low must not exceed high", id="noise-low-above-high"),
    pytest.param(lambda d: d["detector"]["threshold"].update(quantile=0),
                 "detector.threshold.quantile", "quantile must lie in (0, 1]",
                 id="threshold-quantile-zero"),
    pytest.param(lambda d: d["detector"]["threshold"].update(safety=0),
                 "detector.threshold.safety", "safety factor must be positive",
                 id="threshold-safety-zero"),
    pytest.param(lambda d: d.update(attack={"kind": "replay", "start": 100, "window": 0}),
                 "attack.window", "replay needs a positive window", id="replay-window-zero"),
    pytest.param(lambda d: d.update(attack={"kind": "bias", "start": -1, "magnitude": 0.5}),
                 "attack.start", "start must be non-negative", id="attack-start-negative"),
    pytest.param(lambda d: d["watermark"].update(theta0=[1.0, 0.5]),
                 "watermark.theta0", 'expected "auto" or a list of 3 taps', id="theta0-two-taps"),
    pytest.param(lambda d: d.update(seed=-1), "seed", "seed must be non-negative",
                 id="seed-negative"),
])
def test_scenario_load_checks_name_the_field(edit, path, message):
    d = copy.deepcopy(_NOMINAL)
    edit(d)
    with pytest.raises(ConfigError) as err:
        Scenario.from_dict(d)
    assert (err.value.path, err.value.message) == (f"scenario.{path}", message)


@pytest.mark.parametrize("remove, read, default", [
    pytest.param(lambda d: d.pop("attack"), lambda sc: sc.attack, AttackSpec(), id="attack"),
    pytest.param(lambda d: d["detector"].pop("threshold"), lambda sc: sc.detector.threshold,
                 ThresholdSpec(), id="threshold"),
])
def test_absent_section_loads_with_defaults(remove, read, default):
    d = copy.deepcopy(_NOMINAL)
    remove(d)
    assert read(Scenario.from_dict(d)) == default


def _sections(node, path=()):
    """Key paths of every JSON object in a parsed document, itself first."""
    if isinstance(node, dict):
        yield path
        for key, child in node.items():
            yield from _sections(child, path + (key,))


@pytest.mark.parametrize("name", shipped.SCENARIOS)
def test_unknown_key_in_any_section_is_rejected(name):
    document = json.loads(shipped.data_text(f"scenario_{name}.json"))
    sections = list(_sections(document))
    # top, plant and its two noises, controller, detector and threshold,
    # watermark, its config, curve, alpha and protocol, attack
    assert len(sections) == 13
    for section in sections:
        d = copy.deepcopy(document)
        node = d
        for key in section:
            node = node[key]
        node["zz"] = 1
        with pytest.raises(ConfigError) as err:
            Scenario.from_dict(d)
        assert err.value.path == ".".join(("scenario", *section, "zz"))


@pytest.mark.parametrize("edit,path", [
    (lambda d: d["detector"]["threshold"].update(quantil=0.5), "detector.threshold.quantil"),
    (lambda d: d.update(horizn=10), "horizn"),
    (lambda d: d["plant"]["measurement_noise"].update(std=[0.1]), "plant.measurement_noise.std"),
    (lambda d: d["watermark"]["config"].update(eta_flor=2.0), "watermark.config.eta_flor"),
])
def test_misspelt_field_names_its_path(edit, path):
    d = copy.deepcopy(_NOMINAL)
    edit(d)
    with pytest.raises(ConfigError, match="unknown field") as err:
        Scenario.from_json(json.dumps(d), path="nominal.json")
    assert err.value.path == f"nominal.json.{path}"


# -- attack primitives ---------------------------------------------------------------

def test_attack_identity_before_start():
    spec = AttackSpec(kind="bias", start=100, magnitude=0.5)
    assert apply_attack(1.0, [1.0], spec, 50) == 1.0


def test_bias_attack_adds_constant():
    spec = AttackSpec(kind="bias", start=10, magnitude=0.5)
    assert apply_attack(1.25, [], spec, 10) == 1.75


def test_replay_attack_resends_old_value():
    spec = AttackSpec(kind="replay", start=5, window=3)
    history = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    assert apply_attack(15.0, history, spec, 5) == history[2]


def test_replay_defers_without_history():
    # from step start on, the replay leaves the channel unchanged exactly at
    # the steps the deferral rule reads from the spec (start <= k < window),
    # and resends the value of step k - window from then on
    spec = AttackSpec(kind="replay", start=1, window=3)
    history = [3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    seen = [apply_attack(history[k], history, spec, k) for k in range(len(history))]
    assert seen == [3.0, 4.0, 5.0, 3.0, 4.0, 5.0]
    passed = [k for k in range(spec.start, len(history)) if seen[k] == history[k]]
    assert passed == [k for k in range(len(history)) if spec.start <= k < spec.window] == [1, 2]


def test_replay_deferral_logged(caplog):
    d = small_scenario_dict(horizon=30)
    d["attack"] = {"kind": "replay", "start": 0, "window": 10}
    sc = Scenario.from_dict(d)
    with caplog.at_level(logging.WARNING, logger="ecwatermark.sim"):
        run_scenario(sc)
    assert any("deferred" in rec.message for rec in caplog.records)


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


def test_calibration_of_attacked_scenario_matches_its_runs():
    """The calibration rows never see the attack: an attacked scenario
    calibrates as run_scenario does, and as its attack-free copy."""
    sc = shipped.load_scenario("replay")
    thr = calibrate_threshold(sc)
    assert thr == run_scenario(sc).metadata["threshold"] == 0.17727576009875248
    assert thr == calibrate_threshold(dataclasses.replace(sc, attack=AttackSpec()))


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


def _held_scenario(plant_A, plant_x0, ctrl_x0=0.0, det_x0=0.0):
    """Noiseless loop with zero inputs and outputs: the controller and
    detector states hold their start values, the plant state evolves by A."""
    n = len(plant_x0)
    plant = PlantModel(A=np.array(plant_A, dtype=float), B=np.zeros((n, 1)),
                       C=np.zeros((1, n)), x0=np.array(plant_x0, dtype=float))
    ctrl = ControllerModel(A=np.eye(1), B=np.zeros((1, 1)), C=np.zeros((1, 1)),
                           D=np.zeros((1, 1)), x0=np.array([ctrl_x0]))
    det = DetectorModel(A=np.eye(1), B=np.zeros((1, 1)), K=np.zeros((1, 1)),
                        C=np.zeros((1, 1)), L=np.ones((1, 1)), x0=np.array([det_x0]),
                        threshold=ThresholdSpec(mode="fixed", value=1.0))
    return Scenario(plant=plant, controller=ctrl, detector=det, watermark=None,
                    horizon=6, seed=0)


def _watermarked(scenario, c_p, b0, protocol=None):
    """`scenario` with plant output gain c_p and the starting taps (b0, 0, 0),
    kept for the whole run unless `protocol` switches them."""
    d = small_scenario_dict()
    d["watermark"] = {"enabled": True, "config": json.loads(shipped.data_text("demo_config.json")),
                      "protocol": protocol or {"trigger": "none"}, "theta0": [b0, 0.0, 0.0]}
    return dataclasses.replace(scenario, watermark=Scenario.from_dict(d).watermark,
                               plant=dataclasses.replace(scenario.plant, C=np.array([[c_p]])))


@pytest.mark.parametrize("plant_A,plant_x0", [
    (np.eye(2), [0.9e12, 0.9e12]),  # sum of squares above 1e24, no entry above 1e12
    ([[1.0]], [1e12]),  # at the bound, which is allowed
    ([[1.0]], [-1e12]),
    ([[1.0]], [3e11]),  # well inside the guard, but 20 runs' squares sum past 1e24
])
def test_divergence_pretest_passes_bounded_states(plant_A, plant_x0):
    # a batch of 20 runs, each of which the guard passes
    traces = run_batch(_held_scenario(plant_A, plant_x0), range(20))
    assert [len(trace) for trace in traces] == [6] * 20


@pytest.mark.parametrize("scenario,block,step,peak", [
    (_held_scenario([[1.0]], [1.0000001e12]), "plant", 0, 1.0000001e12),
    (_held_scenario([[1.0]], [-1.0000001e12]), "plant", 0, 1.0000001e12),
    (_held_scenario([[2.0]], [1e11]), "plant", 3, 1.6e12),
    # the start state is beyond the guard, so its peak is reported, not the
    # infinite state after step 0
    (_held_scenario([[1e10]], [1e300]), "plant", 0, 1e300),
    (_held_scenario([[1.0]], [math.nan]), "plant", 0, math.nan),
    (_held_scenario(np.eye(2), [0.9e12, 0.9e12], ctrl_x0=1.0000001e12), "controller", 0,
     1.0000001e12),
    (_held_scenario(np.eye(2), [0.9e12, 0.9e12], det_x0=-2e12), "detector", 0, 2e12),
    (_held_scenario([[1.0]], [0.0], ctrl_x0=2e12), "controller", 0, 2e12),
    (_held_scenario([[1.0]], [0.0], det_x0=-2e12), "detector", 0, 2e12),
    (_held_scenario(np.eye(2), [0.9e12, 0.9e12], ctrl_x0=2e12, det_x0=3e12),
     "controller", 0, 2e12),
    # the plant state reaches 1e13 at step 2, and the switch at step 3, keyed
    # on step 2's y_p = 1e103, fails to scale it: a batch steps on past the
    # divergence to that switch in the same block, and still reports the
    # divergence
    (_watermarked(_held_scenario([[10.0]], [1e10]), 1e91, 1.0,
                  {"trigger": "periodic", "period": 2}), "plant", 2, 1e13),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_pretest_falls_through_to_block_checks(scenario, block, step, peak):
    # the first offending block in plant, controller, detector order is
    # named, by a run, by a batch of three and by a run stepped on its own
    for run in (run_scenario, lambda sc: run_batch(sc, [0, 1, 2]), oracle_run):
        with pytest.raises(DivergenceError) as err:
            run(scenario)
        assert (err.value.block, err.value.step) == (block, step)
        magnitude = err.value.magnitude
        assert magnitude == peak or (math.isnan(peak) and math.isnan(magnitude))


@pytest.mark.parametrize("scenario", [
    _held_scenario([[1.0]], [1.0000001e12]),  # a start state
    _held_scenario([[1.0000001]], [1e12]),  # the state after step 0
])
def test_divergence_message_reads_back_the_magnitude(scenario):
    # the printed magnitude is the peak itself, so a state just past the
    # guard does not read as the bound
    with pytest.raises(DivergenceError) as err:
        run_scenario(scenario)
    printed = str(err.value).split("reached magnitude ")[1].split(" at step")[0]
    assert float(printed) == err.value.magnitude > sim.STATE_OVERFLOW


@pytest.mark.parametrize("block", ["plant", "controller", "detector"])
def test_start_state_beyond_the_guard_fails_before_step_0(block):
    # the nominal scenario calibrates its threshold; a start state beyond the
    # guard stops the runs and the calibration runs before step 0
    x0 = json.loads(shipped.data_text("scenario_nominal.json"))[block]["x0"]
    scenario = _scenario("nominal", **{f"{block}__x0": [1.5e12] + x0[1:]})
    for run in (run_scenario, lambda sc: run_batch(sc, [0, 1, 2]), oracle_run):
        assert _divergence(lambda: run(scenario)) == (block, 0, 1.5e12)


@pytest.mark.parametrize("scenario, start", [
    (_held_scenario([[1.0]], [0.0]), 3),  # no failure
    (_held_scenario([[1.0]], [0.0]), -5),  # a start before step 0, as code may build it
    (_held_scenario([[1.0]], [0.0], det_x0=-2e12), 3),  # the detector state fails at step 0
    (_held_scenario([[2.0]], [1e11]), 3),  # the plant state fails at step 3, after the attack
    (_held_scenario([[2.0]], [1e11]), 4),  # ... and before the attack starts
    # y_p = 1e9, then inf at step 1: the generator fails, before the attack
    (_watermarked(_held_scenario([[1e300]], [1e-290]), 1e299, 1.0), 1),
    # y_p = 1e8, then 1e308 at step 1, and y_w = 2 y_p = inf: the remover fails
    (_watermarked(_held_scenario([[1e300]], [1e-290]), 1e298, 2.0), 1),
    # y_p = 1e200 throughout: the switch keyed on step 2's y_p fails to scale
    # it at step 3, before the attack
    (_watermarked(_held_scenario([[1.0]], [10.0]), 1e199, 1.0,
                  {"trigger": "periodic", "period": 2}), 3),
], ids=["no-failure", "negative-start", "detector-before", "plant-at", "plant-before",
        "generator-at", "remover-at", "switch-at"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_replay_deferral_logged_as_per_step_run(scenario, start, caplog):
    # the batch logs the deferral only if a run stepped on its own would have
    # reached the attack at step `start`, and raises the same error
    scenario = dataclasses.replace(scenario, attack=AttackSpec("replay", start=start, window=100))
    outcomes = []
    for run in (run_scenario, oracle_run):
        caplog.clear()
        error = None
        with caplog.at_level(logging.WARNING, logger="ecwatermark.sim"):
            try:
                run(scenario)
            except (DivergenceError, InputError) as exc:
                error = (type(exc), str(exc))
        outcomes.append((error, [rec.getMessage() for rec in caplog.records]))
    assert outcomes[0] == outcomes[1]


# -- noise block ----------------------------------------------------------------------

def _per_step_noise(rng, section, dim):
    """One step's draw of one source, with the parameters of its JSON section:
    the reference the noise block reproduces."""
    if section is None:
        return np.zeros(dim)
    if section["kind"] == "uniform":
        return rng.uniform(section["low"], section["high"])
    return rng.normal(section["mean"], section["std"])


_NOISE_SECTIONS = {
    1: {"none": None,
        "uniform": {"kind": "uniform", "low": [-0.05], "high": [0.05]},
        "normal": {"kind": "normal", "mean": [0.1], "std": [0.3]}},
    2: {"none": None,
        "uniform": {"kind": "uniform", "low": [-0.02, 1.0], "high": [0.02, 1.0]},
        "normal": {"kind": "normal", "mean": [0.0, -2.0], "std": [0.01, 0.0]}},
}


@pytest.mark.parametrize("seed", [5, 2025326722])
@pytest.mark.parametrize("process", ["none", "uniform", "normal"])
@pytest.mark.parametrize("measurement", ["none", "uniform", "normal"])
def test_noise_block_matches_per_step_draw(measurement, process, seed):
    v_section, w_section = _NOISE_SECTIONS[1][measurement], _NOISE_SECTIONS[2][process]
    v_spec = NoiseSpec.from_dict(v_section, 1, "v")
    w_spec = NoiseSpec.from_dict(w_section, 2, "w")
    plant = PlantModel(A=np.eye(2), B=np.zeros((2, 1)), C=np.zeros((1, 2)),
                       x0=np.zeros(2), process_noise=w_spec, measurement_noise=v_spec)
    # two full blocks and a short third one, for long and short blocks
    for size, short in ((1024, 300), (7, 3)):
        n = 2 * size + short
        rng_block, rng_step = np.random.default_rng(seed), np.random.default_rng(seed)
        block = np.concatenate([_noise_block(rng_block, plant, rows)
                                for rows in (size, size, short)])
        rows = [np.concatenate([_per_step_noise(rng_step, v_section, 1),
                                _per_step_noise(rng_step, w_section, 2)]) for _ in range(n)]
        assert block.shape == (n, 3) and block.dtype == np.float64
        assert np.array_equal(block, np.array(rows))
        # both generators consumed the same stream, not just equal values
        assert rng_block.bit_generator.state == rng_step.bit_generator.state


def test_noise_block_rows_follow_the_value_budget(monkeypatch):
    sizes = []

    def spy(rng, plant, rows):
        sizes.append(rows)
        return _noise_block(rng, plant, rows)

    monkeypatch.setattr(sim, "_noise_block", spy)
    # 100 runs of a 32-state plant with 40 signal values per step (the plant
    # state among them): signal blocks of 2 steps take their share of the
    # budget, and the noise of 77 steps fits the rest, cut to whole signal
    # blocks: 76 steps, not 1024; a 77-step run then draws one more step per run
    run_batch(dataclasses.replace(_held_scenario(np.eye(32) * 0.5, np.zeros(32)), horizon=77),
              range(100))
    signal_rows = sim.NOISE_BLOCK_VALUES // (sim.STEP_BLOCK_SHARE * 100 * 40)
    noise_rows = (sim.NOISE_BLOCK_VALUES - signal_rows * 100 * 40) // (100 * 33)
    assert (signal_rows, noise_rows) == (2, 77)
    assert sizes == [76] * 100 + [1] * 100


# -- lockstep batch ------------------------------------------------------------------

@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 2), (3, 3), (8, 8), (3, 2), (2, 3), (1, 3),
                                       (3, 1), (2, 1), (1, 2)])
def test_stacked_matmul_matches_per_row_kernels(rows, cols):
    """The premise of the lockstep batch: np.matmul over an (R, n, 1) stack
    rounds every row exactly as the one-state product does (gemv for a
    matrix, dot for a row). A numpy or BLAS build that breaks this would make
    `run_batch` rows differ from single runs in the last bit."""
    rng = np.random.default_rng(rows * 10 + cols)
    M = rng.normal(size=(rows, cols))
    X = rng.normal(size=(2000, cols, 1)) * 10.0 ** rng.integers(-3, 4, size=(2000, 1, 1))
    Y = np.matmul(M, X)
    # the detector pass writes its stacked products in place
    Z = np.empty_like(Y)
    np.matmul(M, X, out=Z)
    assert np.array_equal(Z, Y)
    for i in range(len(X)):
        assert np.array_equal(Y[i, :, 0], M @ X[i, :, 0]), (
            f"stacked matmul of a {rows}x{cols} matrix rounds row {i} differently "
            "from the matrix-vector product; run_batch would not equal single runs")
        if rows == 1:
            assert Y[i, 0, 0] == M[0].dot(X[i, :, 0]), (
                f"stacked row-state product rounds row {i} differently from dot")


def _scenario(name, horizon=None, **changes):
    d = json.loads(shipped.data_text(f"scenario_{name}.json"))
    if horizon is not None:
        d["horizon"] = horizon
    for path, value in changes.items():
        node = d
        *keys, last = path.split("__")
        for key in keys:
            node = node[key]
        node[last] = value
    return Scenario.from_dict(d)


def _three_state_scenario():
    """A 3-state plant driven by 2 inputs, with a 2-state detector."""
    d = json.loads(shipped.data_text("scenario_nominal.json"))
    d["horizon"] = 1100
    d["plant"] = {
        "A": [[0.5, 0.2, 0.0], [0.0, 0.3, 0.1], [0.1, 0.0, 0.2]],
        "B": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        "C": [[1.0, 0.5, 0.2]], "x0": [4.0, -2.0, 1.0],
        "process_noise": {"kind": "uniform", "low": [-0.02, 0.0, -0.01],
                          "high": [0.02, 0.01, 0.01]},
        "measurement_noise": {"kind": "normal", "mean": [0.0], "std": [0.05]},
    }
    d["controller"] = {"A": [[0.1]], "B": [[0.2]], "C": [[-0.1], [0.05]],
                       "D": [[-0.1], [0.02]], "x0": [0.5]}
    d["detector"] = {"A": [[0.5, 0.0], [0.1, 0.4]], "B": [[1.0, 0.0], [0.0, 0.5]],
                     "K": [[0.3], [0.1]], "C": [[-1.0, 0.5]], "L": [[1.0]], "x0": [1.0, 0.0],
                     "threshold": {"mode": "fixed", "value": 0.2}}
    return Scenario.from_dict(d)


_BATCH_CASES = {
    # the shipped files, cut to cross one noise block boundary
    "nominal": lambda: _scenario("nominal", 1100),
    "replay": lambda: _scenario("replay", 1300),
    "replay_static": lambda: _scenario("replay_static", 1300),
    # rows switch at different steps
    "threshold_trigger": lambda: _scenario(
        "nominal", 600, watermark__protocol={"trigger": "threshold", "bound": 10.02}),
    "watermark_off": lambda: _scenario("nominal", 400, watermark={"enabled": False}),
    "bias": lambda: _scenario("nominal", 400,
                              attack={"kind": "bias", "start": 150, "magnitude": 0.5}),
    # a replay that defers until it has history
    "replay_deferred": lambda: _scenario("replay", 400, attack__start=20),
    "uniform_and_normal_noise": lambda: _scenario(
        "nominal", 400, plant__process_noise={"kind": "normal", "mean": [0.0, 0.005],
                                              "std": [0.02, 0.001]}),
    "three_states_two_inputs": _three_state_scenario,
}


def _assert_same_run(batch_trace, single):
    for column in ("k", "y_p", "y_w", "y_w_tilde", "y_q", "u", "y_r", "y_r_bar",
                   "alarm", "switch"):
        assert np.array_equal(getattr(batch_trace, column), getattr(single, column)), column
    assert batch_trace.taps == single.taps
    assert batch_trace.trigger_times_generator == single.trigger_times_generator
    assert batch_trace.trigger_times_remover == single.trigger_times_remover
    assert batch_trace.metadata == single.metadata


@pytest.mark.parametrize("n_runs", [1, 20])
@pytest.mark.parametrize("case", list(_BATCH_CASES))
def test_run_batch_rows_equal_oracle(case, n_runs):
    scenario = _BATCH_CASES[case]()
    seeds = [2025326722 + 17 * i for i in range(n_runs)]
    traces = run_batch(scenario, seeds, threshold=0.18)
    assert len(traces) == n_runs
    for seed, trace in zip(seeds, traces):
        _assert_same_run(trace, oracle_run(scenario, seed=seed, threshold=0.18))
    if case == "threshold_trigger" and n_runs > 1:
        assert len({tuple(t.trigger_times_generator) for t in traces}) > 1


@pytest.mark.parametrize("quantile", [1.0, 0.9])
def test_calibration_equals_pooled_oracle_quantile(quantile):
    scenario = _scenario("nominal", 1100, detector__threshold={
        "mode": "calibrate", "runs": 6, "quantile": quantile})
    assert calibrate_threshold(scenario) == oracle_threshold(scenario)


_CALIBRATED = {"mode": "calibrate", "runs": 4}

_MERGED_CASES = {
    # the shipped files at the golden seeds, all three runs in one call
    **{name: (functools.partial(shipped.load_scenario, name), [7, 104, 2025326722])
       for name in shipped.SCENARIOS},
    "replay_deferred": (lambda: _scenario("replay", 400, attack__start=20,
                                          detector__threshold=_CALIBRATED), [5]),
    # rows switch at different steps
    "threshold_trigger": (lambda: _scenario(
        "nominal", 600, watermark__protocol={"trigger": "threshold", "bound": 10.02},
        detector__threshold=_CALIBRATED), [5, 6, 7, 8]),
    "watermark_off": (lambda: _scenario("replay", 1300, watermark={"enabled": False},
                                        detector__threshold=_CALIBRATED), [5, 6]),
    "fixed_threshold": (lambda: _scenario("replay", 1300, detector__threshold={
        "mode": "fixed", "value": 0.18}), [5, 6]),
    # the runs are attacked, the calibration rows after them are not
    "bias": (lambda: _scenario("nominal", 400, detector__threshold=_CALIBRATED, attack={
        "kind": "bias", "start": 150, "magnitude": 0.5}), [5, 6]),
    "replay_window": (lambda: _scenario("nominal", 400, detector__threshold=_CALIBRATED,
                                        attack={"kind": "replay", "start": 150,
                                                "window": 100}), [5, 6]),
}


@pytest.mark.parametrize("case", list(_MERGED_CASES))
def test_one_batch_equals_two_pass(case, caplog):
    """A run whose calibration rides in its own batch equals calibrating
    first and running after, both one run at a time."""
    make, seeds = _MERGED_CASES[case]
    scenario = make()
    with caplog.at_level(logging.WARNING, logger="ecwatermark.sim"):
        traces = run_batch(scenario, seeds)
    deferrals = [rec for rec in caplog.records if "deferred" in rec.message]
    assert len(deferrals) == (case == "replay_deferred")
    spec = scenario.detector.threshold
    attack_free = dataclasses.replace(scenario, attack=AttackSpec())
    thr = spec.value if spec.mode == "fixed" else oracle_threshold(attack_free)
    for seed, trace in zip(seeds, traces, strict=True):
        _assert_same_run(trace, oracle_run(scenario, seed=seed, threshold=thr))
    if case == "threshold_trigger":
        assert len({tuple(t.trigger_times_generator) for t in traces}) > 1


# -- block boundaries ----------------------------------------------------------------

# signal blocks of one step (noise blocks too), of 3 steps (noise blocks of
# 372 on the shipped plant) and of 300 steps, besides the default blocks of
# tens to hundreds of steps that the cases above run in
_BLOCK_STEPS = [1, 3, 300]


def _set_block_steps(monkeypatch, scenario, n_rows, steps):
    """Patch NOISE_BLOCK_VALUES so that a batch of n_rows rows of `scenario`
    steps in signal blocks of `steps` steps."""
    # per row and step: y_p, y_w_tilde, y_q, y_r, u, the plant, controller and
    # detector states and K y_q
    signal_width = (4 + scenario.plant.B.shape[1] + scenario.plant.A.shape[0]
                    + scenario.controller.A.shape[0] + 2 * scenario.detector.A.shape[0])
    budget = 1 if steps == 1 else sim.STEP_BLOCK_SHARE * n_rows * signal_width * steps
    monkeypatch.setattr(sim, "NOISE_BLOCK_VALUES", budget)
    noise_width = 1 + scenario.plant.A.shape[0]
    assert sim._block_rows(n_rows, noise_width, signal_width)[0] == steps


@pytest.mark.parametrize("steps", _BLOCK_STEPS)
def test_replay_window_across_blocks_equals_oracle(steps, monkeypatch):
    # the attack starts mid-block (300-step blocks: 1200 to 1500), so its
    # 100-step window first reads the previous block back, then its own
    scenario = _scenario("replay", 1400, attack__start=1250)
    seeds = [3, 4]
    _set_block_steps(monkeypatch, scenario, len(seeds), steps)
    traces = run_batch(scenario, seeds, threshold=0.18)
    for seed, trace in zip(seeds, traces, strict=True):
        _assert_same_run(trace, oracle_run(scenario, seed=seed, threshold=0.18))
    assert all(trace.alarm_steps for trace in traces)


@pytest.mark.parametrize("steps", _BLOCK_STEPS)
def test_threshold_trigger_across_blocks_equals_oracle(steps, monkeypatch):
    scenario = _scenario("nominal", 700,
                         watermark__protocol={"trigger": "threshold", "bound": 10.02})
    seeds = [5, 6, 7, 8]
    _set_block_steps(monkeypatch, scenario, len(seeds), steps)
    traces = run_batch(scenario, seeds, threshold=0.18)
    for seed, trace in zip(seeds, traces, strict=True):
        _assert_same_run(trace, oracle_run(scenario, seed=seed, threshold=0.18))
    assert len({tuple(t.trigger_times_generator) for t in traces}) > 1


@functools.cache
def _calibrated_700():
    scenario = _scenario("nominal", 700, detector__threshold=_CALIBRATED)
    return scenario, oracle_threshold(scenario)


@pytest.mark.parametrize("steps", _BLOCK_STEPS)
def test_calibration_rows_across_blocks_equal_oracle(steps, monkeypatch):
    scenario, thr = _calibrated_700()
    seeds = [5, 6]
    _set_block_steps(monkeypatch, scenario, len(seeds) + _CALIBRATED["runs"], steps)
    for seed, trace in zip(seeds, run_batch(scenario, seeds), strict=True):
        _assert_same_run(trace, oracle_run(scenario, seed=seed, threshold=thr))
    _set_block_steps(monkeypatch, scenario, _CALIBRATED["runs"], steps)
    assert calibrate_threshold(scenario) == thr


def _detector_drift_scenario(plant_a, high, gain):
    """A noise-driven walk of the plant whose detector, through its gain K,
    leaves the overflow guard first."""
    d = small_scenario_dict(horizon=700)
    d["plant"].update(A=[[plant_a]], x0=[0.0],
                      process_noise={"kind": "uniform", "low": [0.0], "high": [high]})
    d["detector"]["K"] = [[gain]]
    return Scenario.from_dict(d)


@pytest.mark.parametrize("steps", _BLOCK_STEPS)
@pytest.mark.parametrize("plant_a,high,gain,seeds", [
    # only the detector leaves the guard, at steps 365 to 423
    (0.999, 1e9, 3.0, list(range(6))),
    # the detector leaves it at steps 310 to 328, the plant at 515 to 524 (in
    # the same 300-step block), so the loop stops after the detector's step
    (0.9999, 4e9, 0.8, [1, 2, 3]),
])
def test_detector_divergence_in_a_later_block_equals_oracle(plant_a, high, gain, seeds,
                                                            steps, monkeypatch):
    scenario = _detector_drift_scenario(plant_a, high, gain)
    _set_block_steps(monkeypatch, scenario, len(seeds), steps)
    single = [_divergence(lambda: oracle_run(scenario, seed=s)) for s in seeds]
    first = min(range(len(seeds)), key=lambda i: (single[i][1], i))
    assert single[first][0] == "detector" and single[first][1] > steps
    assert _divergence(lambda: run_batch(scenario, seeds)) == single[first]


def test_run_memory_is_bounded_by_the_block_budget():
    """Besides its trace columns and calibration residual, a run holds one
    noise block and one block of signal buffers: buffers over the whole
    horizon for every row of the batch would hold about 3 MB more."""
    scenario = shipped.load_scenario("nominal")
    run_scenario(scenario, horizon=8, threshold=1.0)  # the tap table and the curve
    tracemalloc.start()
    try:
        run_scenario(scenario, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 1.50 MiB when the noise block spanned the whole horizon
    assert peak < 1.6 * 2**20


def test_horizon_override_needs_a_threshold():
    scenario = _scenario("nominal", 300, detector__threshold=_CALIBRATED)
    with pytest.raises(ValueError, match="explicit threshold"):
        run_batch(scenario, [5], horizon=200)
    assert len(run_scenario(scenario, horizon=200, threshold=0.2)) == 200
    assert len(run_scenario(scenario, horizon=300)) == 300
    fixed = _scenario("nominal", 300, detector__threshold={"mode": "fixed", "value": 0.2})
    assert len(run_scenario(fixed, horizon=200)) == 200


def _switch_key_scenario(low, high):
    """Every row's plant output is its measurement noise, uniform on [low,
    high); a bias of 1e300 from step 0 makes every remover key 1e300, which
    fails in the scaling, and the detector state ignores it. The first switch
    applies at step 3, keyed on step 2's signals. With these feature rows a
    generator key in [2, 10) may fail in the feature map (see
    test_switching's test_failed_derivation_is_not_cached); one below 0.8
    never does."""
    d = small_scenario_dict(horizon=4)
    d["plant"].update(A=[[0.0]], measurement_noise={"kind": "uniform", "low": [low],
                                                    "high": [high]})
    d["detector"]["K"] = [[0.0]]
    config = json.loads(shipped.data_text("demo_config.json"))
    config["eta1"][0] = [0.0, 1.2e307, 0.0]
    d["watermark"] = {"enabled": True, "config": config, "theta0": [1.0, 0.0, 0.0],
                      "protocol": {"trigger": "periodic", "period": 2}}
    d["attack"] = {"kind": "bias", "start": 0, "magnitude": 1e300}
    return Scenario.from_dict(d)


@pytest.mark.parametrize("low,high,seeds,message", [
    (2.0, 10.0, list(range(8)), "feature map"),
    (2.0, 10.0, list(range(7, -1, -1)), "feature map"),
    (0.0, 0.8, list(range(8)), "scaling"),
    (0.0, 10.0, list(range(8)), "feature map"),
    (2.0, 10.0, [0, 5], "feature map"),
], ids=["feature-map", "feature-map-reversed", "scaling", "derived-keys-first",
        "one-derived-key-first"])
def test_run_batch_raises_the_first_failing_switch_key_error(low, high, seeds, message):
    scenario = _switch_key_scenario(low, high)
    cfg = scenario.watermark.config
    twin = dataclasses.replace(cfg)  # equal, with a tap table of its own
    # the step's keys: the generator's by row, then the remover's
    traces = run_batch(scenario, seeds, horizon=3, threshold=1.0)
    keys = [t.y_p[2] for t in traces] + [t.y_q[2] for t in traces]
    with pytest.raises(InputError) as per_key:
        for key in keys:
            sigma(float(key), twin)
    with pytest.raises(InputError) as batch:
        run_batch(scenario, seeds, threshold=1.0)
    assert message in str(batch.value)
    assert str(batch.value) == str(per_key.value)
    assert ([None if theta is None else theta.taps for theta in cfg.tap_table]
            == [None if theta is None else theta.taps for theta in twin.tap_table])


def test_non_finite_watermark_input_matches_oracle():
    # the generator output overflows at step 0: the remover's input is inf;
    # the start state is at the divergence guard, and the output gain takes
    # y_p to 1.7e308
    scenario = _scenario("nominal", 10, plant__x0=[1e12, 0.0])
    scenario = dataclasses.replace(
        scenario, plant=dataclasses.replace(scenario.plant, C=np.array([[1.7e296, 0.0]])))
    with pytest.raises(InputError) as single:
        oracle_run(scenario, threshold=0.18)
    with pytest.raises(InputError) as batch:
        run_batch(scenario, [7, 8], threshold=0.18)
    assert str(batch.value) == str(single.value)


def _drifting_scenario(**threshold):
    """A noise-driven random walk that leaves the overflow guard after a
    seed-dependent number of steps."""
    d = small_scenario_dict(horizon=60)
    d["plant"].update(A=[[0.999]], x0=[0.0],
                      process_noise={"kind": "uniform", "low": [0.0], "high": [2.5e11]})
    d["detector"]["threshold"] = threshold or {"mode": "fixed", "value": 1.0}
    return Scenario.from_dict(d)


def _divergence(run):
    with pytest.raises(DivergenceError) as err:
        run()
    return err.value.block, err.value.step, err.value.magnitude


@pytest.mark.parametrize("seeds", [list(range(9)), list(range(8, -1, -1))])
def test_batch_divergence_reports_earliest_step_lowest_run(seeds):
    scenario = _drifting_scenario()
    single = [_divergence(lambda: oracle_run(scenario, seed=s)) for s in seeds]
    first = min(range(len(seeds)), key=lambda i: (single[i][1], i))
    # some other run diverges at the same step with another peak: a real tie
    assert any(s[1] == single[first][1] and s != single[first] for s in single)
    assert _divergence(lambda: run_batch(scenario, seeds)) == single[first]


def test_calibrating_a_diverging_scenario_names_the_block():
    scenario = _drifting_scenario(mode="calibrate", runs=4)
    block, step, _ = _divergence(lambda: calibrate_threshold(scenario))
    assert block == "plant" and step < scenario.horizon


# -- golden outputs ---------------------------------------------------------------------

# SHA-256 over the raw bytes of y_p, y_q, u, y_r, alarm and switch (in that
# order), and SHA-256 of the sort_keys JSON of summary(), per shipped scenario
# and run seed, with the scenario's resolved (calibrated) threshold.
_GOLDEN = {
    ("nominal", 7): ("ba3911711b858fa8993aefd3ccff0d92ea1e3055945f999f03a2507389c54816",
                     "7d5cb2b1ee1d1d34795b2e768d0349a0d6e12eda7782e90c877d700cc287dc6e"),
    ("nominal", 104): ("f2bc8a8e1ce107749f1b38ef7b810082b5f200373690dfdd81d3f2d0deccdede",
                       "69e53474bef6f4f65f051299d6800eb3219e0ed731135b758485619d98605894"),
    ("nominal", 2025326722): (
        "91f56e7be42704b7fe632ed2fdeb91eac6afb87c17d6339b20aadd5db2b7cc86",
        "7073178218c8b3393515adf1fb596d7543730f1488941bf33456597931b2c193"),
    ("replay", 7): ("793b9b0df55c9158e6cfada21f6ae52b8f62ea0b248d5926e9008b41701a9c9e",
                    "d31ed1426efb8626939ff9aa9f8e99f63176f02048db8cf39b9806205ce2b762"),
    ("replay", 104): ("23eb7213fb48344b9957a1aaa9a59cf0645ebd75ee7a52b9ddfc2e054c7e3c0f",
                      "947f03bdfe1a2e1dab905fd95b1f41d01b23a0c7bdf8d2a071fcbcbc0db09a29"),
    ("replay", 2025326722): (
        "6201e2c0c0a1939caeff34d9a0c961fd4ba0b9742cdf68e3c6d430167fc98212",
        "6bee447ccc90c329ca32d4325fdea41c51cb4e02443566da5a9ed0c9a96424d5"),
    ("replay_static", 7): (
        "7789c9424d009d563a02803d4aebd76435d3465c787950bb051926f21197777c",
        "8eac685d5c2be59ed7b5b34adb9628ece478419c331491546a757326e9d44f43"),
    ("replay_static", 104): (
        "4c86d71200c4a0f464ce1f8e68b92c7be2ba5124980d9bab1b96c4f473ed7af3",
        "e5f252673e5bd49ce033da6e79b7dd5020068cf52f811674d31b6d94623eeab5"),
    ("replay_static", 2025326722): (
        "c3c57f80d12e08482ed41a86721a46eac8474a066f09112cdff0ec68c6bf634b",
        "36ffeab8c6d7ed4abb6491df73908a761749e71be2bee878f87df024f95a6091"),
}


@functools.cache
def _shipped_with_threshold(name):
    scenario = shipped.load_scenario(name)
    assert scenario.detector.threshold.mode == "calibrate"  # as in every shipped scenario
    return scenario, calibrate_threshold(dataclasses.replace(scenario, attack=AttackSpec()))


@pytest.mark.parametrize("name,seed", list(_GOLDEN))
def test_golden_outputs(name, seed):
    """Runs of the shipped scenarios reproduce recorded digests bit for bit.

    The digests pin numpy's PCG64 `Generator` stream (`default_rng`) and its
    `uniform` transform as well as the simulator's float operations, so a
    numpy release that changes either also changes them.
    """
    scenario, thr = _shipped_with_threshold(name)
    trace = run_scenario(scenario, seed=seed, threshold=thr)
    columns = hashlib.sha256()
    for column in ("y_p", "y_q", "u", "y_r", "alarm", "switch"):
        columns.update(getattr(trace, column).tobytes())
    summary = json.dumps(trace.summary(), sort_keys=True).encode()
    assert (columns.hexdigest(), hashlib.sha256(summary).hexdigest()) == _GOLDEN[name, seed]


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
