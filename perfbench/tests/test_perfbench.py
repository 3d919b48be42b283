"""Tests of the benchmark itself: its checks catch corrupted outputs, its
oracles match, its tracer accounts time correctly, and it refuses to run
without the package source.

    python -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from ecwatermark import Curve, shipped, sigma, switching
from tracing import Tracer, instrument


def test_check_taps_flags_a_corrupted_tap():
    cfg = shipped.load_demo_config()
    taps = sigma(10.0, cfg).taps
    assert workloads.check_taps(taps, taps) == []
    corrupted = (taps[0], math.nextafter(taps[1], 1.0)) + taps[2:]
    assert workloads.check_taps(taps, corrupted)
    assert workloads.check_taps((0.0,) + taps[1:], (0.0,) + taps[1:])


def test_check_curve_report_flags_a_corrupted_point():
    curve = Curve(2, 2, 17)
    rc, printed, _ = workloads.run_cli(["curve", "--s", "17", "--a", "2", "--b", "2", "--json"])
    assert rc == 0
    report = json.loads(printed)
    assert workloads.check_curve_report(report, curve) == []
    report["points"][3]["y"] += 1
    assert workloads.check_curve_report(report, curve)
    report = json.loads(printed)
    report["points"][0]["cofactor"] = 2
    assert workloads.check_curve_report(report, curve)


def _measure(wl, seconds=0.2, tracer=None):
    lat = workloads.Latencies(capacity=1024)
    run.measure(wl, seconds, lat, tracer)
    return lat


def test_corrupted_endpoint_raises_error_rate(tmp_path):
    wl = workloads.SwitchSmall(tmp_path, seed=3)
    wl.setup()
    _measure(wl)
    assert wl.attempted > 0 and wl.failed == 0
    wl.cfg_b = switching.SwitchingConfig.from_dict({**wl.cfg_a.to_dict(), "l": wl.cfg_a.l + 1})
    _measure(wl)
    assert wl.failed > 0
    assert any("endpoints disagree" in p for p in wl.problems)


def test_staged_oracle_matches_sigma_under_tracing(tmp_path):
    wl = workloads.SwitchSmall(tmp_path, seed=5)
    wl.setup()
    tracer = Tracer()
    with instrument(tracer):
        _measure(wl, tracer=tracer)
    assert wl.failed == 0
    assert tracer.counts["switching.derivations"] == wl.attempted
    assert tracer.calls("curve.add") > 0 and tracer.calls("switching.sigma") == wl.attempted
    assert switching.sigma.__name__ == "sigma" and not hasattr(switching.sigma, "__wrapped__")


def _short_nominal(tmp_path, horizon=300):
    data = json.loads(shipped.data_text("scenario_nominal.json"))
    data["horizon"] = horizon
    data["detector"]["threshold"] = {"mode": "fixed", "value": 1.0}
    path = tmp_path / "nominal.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    rc, _, _ = workloads.run_cli(["sim", "--scenario", str(path), "--out", str(out), "--seed", "4"])
    assert rc == 0
    scenario = shipped.Scenario.load(path)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    return out, summary, scenario


def test_watermark_replay_oracle_reproduces_and_catches_corruption(tmp_path):
    out, summary, scenario = _short_nominal(tmp_path)
    assert summary["trigger_times_generator"]
    assert workloads.replay_watermark(out, summary, scenario.watermark) == []
    lines = (out / "trace.csv").read_text(encoding="utf-8").splitlines()
    fields = lines[150].split(",")
    fields[4] = repr(math.nextafter(float(fields[4]), math.inf))
    lines[150] = ",".join(fields)
    (out / "trace.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert workloads.replay_watermark(out, summary, scenario.watermark)


def test_tracer_self_time_and_restore():
    tracer = Tracer(max_spans=2)
    with tracer.span("outer.a"):
        with tracer.span("inner.b"):
            pass
        with tracer.span("inner.b"):
            pass
    outer = tracer.stats["outer.a"]
    inner = tracer.stats["inner.b"]
    assert inner[0] == 2 and outer[0] == 1
    assert outer[2] == outer[1] - inner[1]
    assert tracer.root_ns() == outer[1]
    assert len(tracer.spans) == 2 and tracer.dropped == 1
    original = Curve.nearest_affine
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            assert Curve.nearest_affine is not original
            raise RuntimeError
    assert Curve.nearest_affine is original


def test_latencies_keep_a_fixed_footprint_and_pick_the_tail():
    lat = workloads.Latencies(capacity=8)
    for ns in range(1, 101):
        lat.add(ns)
    assert lat.seen == 100 and lat.kept <= 8 and lat.stride > 1
    values = lat.values()
    assert values.min() < 20 and values.max() > 80
    lat = workloads.Latencies(capacity=1000)
    for ns in range(100):
        lat.add(ns)
    assert lat.tail()[0] == "p90"
    lat = workloads.Latencies(capacity=1000)
    for ns in range(5):
        lat.add(ns)
    assert lat.tail() == ("max", 4.0)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "switch-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
