"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Every tolerance and runtime bound is pinned here.
"""

import dataclasses
import json
import time
import warnings

import numpy as np

from ecwatermark import (
    INFINITY,
    AttackSpec,
    ConfigurationWarning,
    Curve,
    SwitchingConfig,
    check_stability,
    eta2,
    shipped,
    sigma,
    validate_theta,
)
from ecwatermark.analysis import SweepSpec, sensitivity_sweep
from ecwatermark.sim import calibrate_threshold, run_batch, run_scenario
from conftest import random_switching_config


def _report(n: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {n}: {status} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {n} failed: {description} {detail}"


def test_criterion_1_curve_facts():
    t0 = time.perf_counter()
    curve = Curve(2, 2, 17)
    points = curve.points()
    ok = len(points) == 19 and INFINITY in points
    affine = curve.affine_points()
    ok = ok and all(curve.point_order(p) == 19 for p in affine)
    ok = ok and all(curve.cofactor(p) == 1 for p in affine)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(1, "19 points, every affine point of order 19 and cofactor 1",
            ok, f"{elapsed:.3f}s")


def test_criterion_2_group_law_soundness():
    t0 = time.perf_counter()
    curve = Curve(2, 2, 17)
    pts = curve.points()
    ok = True
    # identity and inverse existence
    for p in pts:
        ok = ok and curve.add(p, INFINITY) == p and curve.add(INFINITY, p) == p
        ok = ok and curve.add(p, curve.negate(p)) == INFINITY
    # commutativity over all pairs, associativity over all triples
    for p in pts:
        for q in pts:
            ok = ok and curve.add(p, q) == curve.add(q, p)
    for p in pts:
        for q in pts:
            pq = curve.add(p, q)
            for r in pts:
                if curve.add(pq, r) != curve.add(p, curve.add(q, r)):
                    ok = False
    # scalar multiplication against the repeated-addition oracle
    for p in pts:
        acc = INFINITY
        for k in range(0, 39):
            if curve.scalar_mul(k, p) != acc:
                ok = False
            acc = curve.add(acc, p)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _report(2, "exhaustive group axioms and double-and-add agreement",
            ok, f"{elapsed:.3f}s")


def test_criterion_3_stability_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260808)
    n = 10_000
    ok = True
    worst_radius = 0.0
    for _ in range(n):
        n_h = int(rng.integers(1, 7))
        scale = float(rng.choice([0.5, 5.0, 50.0]))
        raw = rng.uniform(-scale, scale, n_h + 1)
        if rng.random() < 0.1:
            raw[2:] = 0.0  # exercise the untouched-tail branch
        if rng.random() < 0.1:
            raw[0] = rng.uniform(-0.5, 0.5)  # exercise the floor branch
        theta = eta2(
            raw,
            floor=float(rng.uniform(1.0, 2.0)),
            slope=float(rng.uniform(0.5, 5.0)),
            margin=float(rng.uniform(0.01, 0.5)),
        )
        if not validate_theta(theta).ok:
            ok = False
            break
        radius = check_stability(theta).spectral_radius
        worst_radius = max(worst_radius, radius)
        if not radius < 1.0 - 1e-8:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(3, f"{n} clamped tap vectors all admissible with stable inverses",
            ok, f"worst radius {worst_radius:.6f}, {elapsed:.1f}s")


def test_criterion_4_transparency():
    t0 = time.perf_counter()
    scenario = shipped.load_scenario("nominal")
    threshold = calibrate_threshold(scenario)
    trace = run_scenario(scenario, threshold=threshold)
    switches = len(trace.switch_steps)
    recon = trace.max_reconstruction_error
    alarms = trace.summary()["n_alarms"]
    elapsed = time.perf_counter() - t0
    ok = (
        trace.metadata["horizon"] == 2000
        and switches >= 5
        and recon < 1e-9
        and alarms == 0
        and elapsed < 5.0
    )
    _report(4, "nominal 2000-step run transparent with zero alarms",
            ok, f"{switches} switches, recon {recon:.2e}, {elapsed:.2f}s")


def test_criterion_5_replay_detection():
    replay = shipped.load_scenario("replay")
    static = shipped.load_scenario("replay_static")
    threshold = calibrate_threshold(dataclasses.replace(replay, attack=AttackSpec()))
    k_a = replay.attack.start
    window = 2 * replay.watermark.period
    seeds = list(range(100, 120))

    def alarmed(scenario):
        traces = run_batch(scenario, seeds, threshold=threshold)
        return sum(any(k_a <= k <= k_a + window for k in t.alarm_steps) for t in traces)

    detected = alarmed(replay)
    detected_static = alarmed(static)
    ok = detected == len(seeds) and detected_static < detected
    _report(5, "replay alarmed in every switching run, fewer without switching",
            ok, f"switching {detected}/{len(seeds)}, static {detected_static}/{len(seeds)}")


def test_criterion_6_sweep_shape():
    cfg = shipped.load_demo_config()
    spec = SweepSpec(references=(0.0, 1.0, 10.0, 100.0), n_realizations=500,
                     noise_halfwidth=0.05, seed=2026)
    results = sensitivity_sweep(cfg, spec)
    by_ref = {r.reference: r for r in results}
    union = set()
    for r in results:
        union |= r.reached
    all_points = set(cfg.curve.affine_points())
    ok = union == all_points
    ok = ok and by_ref[10.0].entropy > by_ref[0.0].entropy
    _report(6, "all curve points reachable; more spread at reference 10 than 0",
            ok, f"union {len(union)}/{len(all_points)}, "
                f"H(10)={by_ref[10.0].entropy:.2f} > H(0)={by_ref[0.0].entropy:.2f}")


def test_criterion_7_endpoint_agreement():
    rng = np.random.default_rng(7_000_000)
    n_configs, n_each = 50, 2000
    checked = 0
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigurationWarning)
        for _ in range(n_configs):
            text = json.dumps(random_switching_config(rng).to_dict())
            side_a = SwitchingConfig.from_json(text)
            side_b = SwitchingConfig.from_json(text)
            ys = np.concatenate([
                rng.uniform(-100, 100, n_each // 2),
                rng.uniform(-1e4, 1e4, n_each // 2),
            ])
            for y in ys:
                ta = sigma(float(y), side_a)
                tb = sigma(float(y), side_b)
                if ta.taps != tb.taps or not validate_theta(ta).ok:
                    ok = False
                    break
                checked += 1
            if not ok:
                break
    ok = ok and checked == n_configs * n_each
    _report(7, "bit-identical taps from independently deserialized configs",
            ok, f"{checked} (y, config) evaluations")
