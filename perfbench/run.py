"""ecwatermark benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
`src/` directory, so nothing needs installing. Workloads: switch-small,
switch-large, closed-loop, curve-analysis (see README.md beside this file).

--trace 0 sets the workload up several times (the median is `setup_s`), then
repeats its operation for S seconds and reports the end-to-end metrics. Their
times are scaled to nominal machine speed by a reference chunk timed between
operations (see workloads.SpeedProbe).
--trace 1 runs the operation untraced for S/2 seconds and traced for S/2,
and reports the per-layer metrics, including the tracing overhead on the
operation's median latency. Readable lines come first; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A full report (and, when traced, the spans) goes to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

LAYERS = ("field", "curve", "switching", "watermark", "sim", "analysis", "cli")

# (metric, unit, span or count it is read from, how): "mean" is the mean
# span duration including callees, "item" the span time per work item.
PER_LAYER = (
    ("field.sqrt_candidates_us", "us", "field.sqrt_candidates", "mean"),
    ("curve.enumerate_ms", "ms", "curve.enumerate", "mean"),
    ("curve.nearest_affine_us", "us", "curve.nearest_affine", "mean"),
    ("curve.scalar_mul_us", "us", "curve.scalar_mul", "mean"),
    ("curve.add_us", "us", "curve.add", "mean"),
    ("curve.point_order_ms", "ms", "curve.point_order", "mean"),
    ("switching.alpha1_us", "us", "switching.alpha1", "mean"),
    ("switching.alpha2_us", "us", "switching.alpha2", "mean"),
    ("switching.eta1_us", "us", "switching.eta1", "mean"),
    ("switching.eta2_us", "us", "switching.eta2", "mean"),
    ("switching.sigma_us", "us", "switching.sigma", "mean"),
    ("switching.config_load_ms", "ms", "switching.config_load", "mean"),
    ("watermark.generator_step_us", "us", "watermark.generator_step", "mean"),
    ("watermark.remover_step_us", "us", "watermark.remover_step", "mean"),
    ("watermark.apply_switch_us", "us", "watermark.apply_switch", "mean"),
    ("sim.scenario_load_ms", "ms", "sim.scenario_load", "mean"),
    ("sim.calibrate_s", "s", "sim.calibrate", "mean"),
    ("sim.run_step_us", "us", "sim.run_scenario", "item"),
    ("sim.write_outputs_ms", "ms", "sim.write_outputs", "mean"),
    ("analysis.sweep_us_per_sample", "us", "analysis.sweep", "item"),
    ("analysis.voronoi_us_per_cell", "us", "analysis.voronoi", "item"),
    ("cli.sim_s", "s", "cli.sim", "mean"),
    ("cli.curve_s", "s", "cli.curve", "mean"),
    ("cli.voronoi_s", "s", "cli.voronoi", "mean"),
    ("cli.sweep_s", "s", "cli.sweep", "mean"),
)
UNIT_NS = {"us": 1e3, "ms": 1e6, "s": 1e9}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import ecwatermark from this checkout's src/ and nowhere else."""
    if not (SRC / "ecwatermark" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'ecwatermark'}; "
                         "run from a full checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ecwatermark
    if Path(ecwatermark.__file__).resolve().parent != (SRC / "ecwatermark").resolve():
        raise SystemExit(f"perfbench: imported ecwatermark from {ecwatermark.__file__}")
    return ecwatermark


def measure(wl, seconds: float, lat, tracer=None) -> None:
    """Repeat the operation for about `seconds`: another one starts only if
    the mean operation time so far says it ends in time; at least one runs."""
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    i = 0
    while True:
        try:
            wl.op(i, lat, tracer)
        except Exception as exc:  # a crashing operation is a failed one; keep measuring
            wl.record([f"operation {i} raised {type(exc).__name__}: {exc}"])
        wl.probe.maybe()
        i += 1
        now = time.perf_counter_ns()
        if now + (now - start) // i > deadline:
            return


def set_up(wl, probe, tracer=None) -> list[float]:
    """Set the workload up `setup_repeats` times, with a burst of the speed
    probe after each; returns each duration in s. Traced, each round also
    enumerates a fresh copy of the workload's curve."""
    from ecwatermark.curve import Curve

    times = []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        probe.pause()
        if tracer is not None:
            c = wl.curve_params()
            with tracer.span("curve.enumerate"):
                Curve(c["a"], c["b"], c["s"]).affine_points()
    return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer_metrics(tracer, overhead: float) -> dict:
    """Per-layer metrics from the spans; `overhead` is the traced median
    latency over the untraced one, each at nominal speed."""
    out = {}
    for name, unit, span, how in PER_LAYER:
        ns = tracer.mean_ns(span) if how == "mean" else tracer.per_item_ns(span)
        out[name] = metric(ns / UNIT_NS[unit], unit)
    derivations = tracer.counts.get("switching.derivations", 0)
    out["switching.derivations"] = metric(derivations, "count")
    for name, count in (("switching.distinct_point_ratio", "switching.distinct_points"),
                        ("switching.fallback_ratio", "switching.fallbacks")):
        value = tracer.counts.get(count, 0) / derivations if derivations else 0.0
        out[name] = metric(value, "ratio")
    root = tracer.root_ns()
    by_layer = tracer.self_ns_by_layer()
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = metric(100.0 * by_layer.get(layer, 0) / root, "%")
    out["trace.overhead_pct"] = metric(100.0 * (overhead - 1.0), "%")
    out["trace.spans"] = metric(len(tracer.spans) + tracer.dropped, "count")
    return out


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads
    from tracing import Tracer, instrument

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    report = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    try:
        setup_probe = workloads.SpeedProbe()
        setup_times = set_up(wl, setup_probe)
        lat = workloads.Latencies()
        measure(wl, args.seconds / (2 if args.trace else 1), lat)
        if lat.kept == 0:
            print(f"perfbench: no {wl.name} operation completed: {wl.problems[:3]}",
                  file=sys.stderr)
            return 1
        lines = [("setup_s", statistics.median(setup_times), "s",
                  f"median of {len(setup_times)} set-ups")]
        lines += wl.report(lat)
        for label, probe in (("setup", setup_probe), ("run", wl.probe)):
            lines.append((f"speed_factor_{label}", probe.factor(), "",
                          f"JSON times = measured x this; reference chunk median "
                          f"{probe.median_ns() / 1e3:.1f} us over {len(probe.samples)}"))
        if args.trace:
            tracer = Tracer()
            traced = workloads.Latencies()
            untraced_probe = wl.probe
            with instrument(tracer):
                set_up(wl, workloads.SpeedProbe(), tracer)
                wl.probe = workloads.SpeedProbe()
                measure(wl, args.seconds / 2, traced, tracer)
            overhead = (traced.p50_ns() * wl.probe.factor()) / (lat.p50_ns() * untraced_probe.factor())
            metrics = per_layer_metrics(tracer, overhead)
            report["trace_dump"] = tracer.dump()
        else:
            metrics = {
                "setup_s": metric(statistics.median(setup_times) * setup_probe.factor(), "s"),
                "latency_p50_ms": metric(lat.p50_ns() * wl.probe.factor() / 1e6, "ms"),
                "peak_rss_mb": metric(workloads.peak_rss_mb(), "MB"),
            }
    finally:
        wl.close()
    lines.append(("peak_rss_mb", workloads.peak_rss_mb(), "MB", "whole process"))
    lines.append(("error_rate", wl.failed / wl.attempted if wl.attempted else 1.0, "",
                  f"{wl.failed} failed of {wl.attempted} checked operations"))
    result = {"correct": wl.failed == 0 and wl.attempted > 0, "attempted": wl.attempted,
              "failed": wl.failed, "metrics": metrics}
    report.update(lines=[list(line) for line in lines], problems=wl.problems[:50], result=result)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh)
    env = report["environment"]
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    for problem in wl.problems[:10]:
        print(f"# FAILED CHECK: {problem}")
    for name, value, unit, note in lines:
        print(f"{name:24} {value!s:>22} {unit:6} {note}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:32} {m['value']!r:>24} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
