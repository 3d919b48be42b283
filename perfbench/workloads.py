"""The benchmark's workloads: inputs made from a seed, timed operations, checks.

Every workload reaches the package only through its public functions and
`cli.main(argv)`. Package functions are looked up on their module at call
time (`switching.sigma`, not a name imported once), so the traced run's
wrappers see exactly the calls the untraced run makes.

One operation per workload:
  switch-small, switch-large  one sample: `sigma` at endpoint A, then at B
  closed-loop                 `ecwm sim` on the nominal, replay and
                              replay_static scenarios
  curve-analysis              `ecwm curve --json`, `ecwm voronoi`, `ecwm sweep`
Each operation's outputs are checked; an operation with any failed check
counts once in `failed`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import time
from pathlib import Path

import numpy as np

from ecwatermark import cli, shipped, sim, switching, watermark
from ecwatermark.curve import INFINITY, Curve, Point
from ecwatermark.switching import validate_theta

# Samples key `sigma` through its scaling maps; half are |y| <= 100 and half
# |y| <= 1e4, the mix the endpoint-agreement acceptance criterion uses.
SAMPLE_POOL = 1 << 16
WARMUP_SAMPLES = 8

# A nonsingular curve just under the 10^4 enumeration bound: 9885 affine
# points, so almost every sample projects to a point not seen before, and
# `nearest_affine` scans about 10^4 points per call.
LARGE_CURVE = {"s": 9973, "a": 2, "b": 3}
LARGE_SECRET = 7919

# A mid-size field: 309 affine points, so the per-point order report runs
# the O(N^2) repeated-addition path in about 3 s.
ANALYSIS_CURVE = {"s": 307, "a": 2, "b": 3}
VORONOI_GRID = 100
SWEEP_REFERENCES = 4
SWEEP_SAMPLES = 1000
SWEEP_HALFWIDTH = 0.05

SCENARIOS = ("nominal", "replay", "replay_static")
MAX_RECONSTRUCTION_ERROR = 1e-9
MIN_NOMINAL_SWITCHES = 5

# The speed of a shared machine can drift by up to 2x, in phases that last
# from seconds to minutes; on a shared 2-core cloud VM that moved the median
# latency of 30 s runs by about 20% between runs. A fixed chunk of
# pure-Python work, timed between operations throughout the run, drifts with
# pure-Python workloads: the ratio of sigma's median to the chunk's median
# stayed within about 4% while both moved by 15% and more. It follows the
# numpy-heavy simulator less closely. JSON times are scaled to a machine on
# which one chunk takes PROBE_NOMINAL_NS; the readable lines give the times
# as measured.
PROBE_ITERATIONS = 2000
PROBE_NOMINAL_NS = 600_000
PROBE_INTERVAL_NS = 25_000_000
PAUSE_CHUNKS = 20

# Latency buffers are allocated and touched up front so peak memory does not
# grow with the number of operations a faster program fits into a run.
LATENCY_CAPACITY = 1 << 19
TAIL_PERCENTILES = (99.0, 90.0)
MIN_BEYOND_TAIL = 10


class Latencies:
    """Operation latencies in ns with a fixed footprint. When the buffer is
    full every other sample is dropped and from then on only every
    stride-th new one is kept, so the kept samples stay spread over the run."""

    def __init__(self, capacity: int = LATENCY_CAPACITY):
        self.buf = np.full(capacity, -1, dtype=np.int64)
        self.kept = 0
        self.seen = 0
        self.stride = 1

    def add(self, ns: int) -> None:
        self.seen += 1
        if self.seen % self.stride:
            return
        if self.kept == len(self.buf):
            half = self.buf[::2].copy()
            self.buf[:len(half)] = half
            self.kept = len(half)
            self.stride *= 2
        self.buf[self.kept] = ns
        self.kept += 1

    def values(self) -> np.ndarray:
        return self.buf[:self.kept]

    def p50_ns(self) -> float:
        return float(np.percentile(self.values(), 50.0))

    def tail(self) -> tuple[str, float]:
        """The highest percentile with at least ten samples beyond it, or the
        slowest sample when there are too few for any."""
        v = self.values()
        for q in TAIL_PERCENTILES:
            if len(v) * (100.0 - q) / 100.0 >= MIN_BEYOND_TAIL:
                return f"p{q:g}", float(np.percentile(v, q))
        return "max", float(v.max())


def reference_chunk(n: int = PROBE_ITERATIONS) -> int:
    """Fixed work that never touches the package: integer and float
    arithmetic. It allocates no container, so it never triggers the cyclic
    garbage collector, whose cost would depend on the program's heap."""
    acc, t = 0, 0.0
    for i in range(n):
        acc = (acc * 31 + i) % 9973
        t += (i * 0.5) ** 0.5
        acc ^= (acc >> 3) & 0xFF
    return acc


class SpeedProbe:
    """Times `reference_chunk` between operations, so the run's median chunk
    time measures the machine's speed over the same period as the operations."""

    def __init__(self):
        self.samples: list[int] = []
        self.last = 0

    def sample(self, chunks: int = 1) -> None:
        for _ in range(chunks):
            t0 = time.perf_counter_ns()
            reference_chunk()
            self.samples.append(time.perf_counter_ns() - t0)
        self.last = time.perf_counter_ns()

    def pause(self) -> None:
        """A burst of chunks, at a pause between long operations."""
        self.sample(PAUSE_CHUNKS)

    def maybe(self) -> None:
        """One chunk, if PROBE_INTERVAL_NS has passed since the last one."""
        if time.perf_counter_ns() - self.last >= PROBE_INTERVAL_NS:
            self.sample()

    def median_ns(self) -> float:
        return float(np.median(self.samples))

    def factor(self) -> float:
        """Multiply a measured time by this to get it at nominal speed."""
        return PROBE_NOMINAL_NS / self.median_ns()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_cli(argv: list[str], tracer=None) -> tuple[int, str, int]:
    """`cli.main(argv)` with its standard output captured: (exit code, stdout,
    ns). Traced, the call is a span named after the subcommand."""
    buf = io.StringIO()
    if tracer is not None:
        tracer.begin(f"cli.{argv[0]}")
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        ns = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.end()
    return rc, buf.getvalue(), ns


# -- checks -------------------------------------------------------------------
# Each returns a list of problems; an empty list means the output is correct.

def check_taps(taps_a, taps_b) -> list[str]:
    problems = []
    if tuple(taps_a) != tuple(taps_b):
        problems.append(f"endpoints disagree: {tuple(taps_a)} != {tuple(taps_b)}")
    report = validate_theta(taps_a)
    if not report.ok:
        problems.append(f"inadmissible taps {tuple(taps_a)}: {report.violation}")
    return problems


def check_curve_report(report: dict, curve: Curve) -> list[str]:
    n = curve.order()
    problems = []
    if report.get("order") != n:
        problems.append(f"group order {report.get('order')} != {n}")
    points = report.get("points", [])
    if len(points) != n - 1:
        problems.append(f"{len(points)} affine points reported, expected {n - 1}")
    for p in points:
        pt = Point(p["x"], p["y"])
        if not curve.contains(pt):
            problems.append(f"{pt!r} is not on the curve")
        elif curve.scalar_mul(p["order"], pt) != INFINITY:
            problems.append(f"order({pt!r}) * {pt!r} != O")
        if p["order"] * p["cofactor"] != n:
            problems.append(f"order * cofactor != {n} at {pt!r}")
    return problems


def check_voronoi_csv(path: Path, curve: Curve, grid: int) -> list[str]:
    problems = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != grid * grid:
        problems.append(f"{len(rows)} cells, expected {grid * grid}")
    owners = {(int(r["seed_x"]), int(r["seed_y"])) for r in rows}
    for x, y in sorted(owners):
        if not curve.contains(Point(x, y)):
            problems.append(f"voronoi owner ({x}, {y}) is not on the curve")
    return problems


def check_sweep_outputs(outdir: Path, curve: Curve, n: int) -> list[str]:
    problems = []
    with open(outdir / "sweep_summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    for label, ref in summary["references"].items():
        with open(outdir / ref["csv"], newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(int(r["count"]) for r in rows)
        if total != n:
            problems.append(f"reference {label}: {total} hits, expected {n}")
        for r in rows:
            if not curve.contains(Point(int(r["point_x"]), int(r["point_y"]))):
                problems.append(f"reference {label}: point off the curve")
    return problems


def check_sim(name: str, scenario, rc: int, printed: str, outdir: Path) -> tuple[list[str], dict]:
    """Checks one `ecwm sim` invocation; also returns its summary.json."""
    if rc != 0:
        return [f"ecwm sim {name} exited {rc}"], {}
    try:
        result = json.loads(printed)
        with open(outdir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"ecwm sim {name}: unreadable output ({exc})"], {}
    problems = []
    if name == "nominal":
        if not result["max_reconstruction_error"] < MAX_RECONSTRUCTION_ERROR:
            problems.append(f"nominal reconstruction error {result['max_reconstruction_error']}")
        if result["n_alarms"] != 0:
            problems.append(f"nominal raised {result['n_alarms']} alarms")
        if result["switches"] < MIN_NOMINAL_SWITCHES:
            problems.append(f"nominal switched only {result['switches']} times")
    elif name == "replay":
        delay = detection_delay(summary, scenario)
        if delay is None or delay > 2 * scenario.watermark.period:
            problems.append(f"replay not detected within two periods (delay {delay})")
    return problems, summary


def detection_delay(summary: dict, scenario) -> int | None:
    """First alarm at or after the attack start, minus the start."""
    start = scenario.attack.start
    after = [k for k in summary.get("alarm_steps", []) if k >= start]
    return after[0] - start if after else None


def replay_watermark(outdir: Path, summary: dict, setup) -> list[str]:
    """Oracle: re-run the recorded plant outputs and tap schedule of a nominal
    run through make_pair/apply_switch/step; it must give the recorded y_q
    bit for bit. The generator keys on y_p and the remover on y_q at each
    trigger time; both keys must give the same taps."""
    with open(outdir / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    y_p = [float(r["y_p"]) for r in rows]
    y_q = [float(r["y_q"]) for r in rows]
    switched = [k for k, r in enumerate(rows) if r["switch"] == "1"]
    triggers = summary["trigger_times_generator"]
    problems = []
    if triggers != summary["trigger_times_remover"]:
        problems.append("generator and remover trigger times differ")
    if switched != [t + 1 for t in triggers if t + 1 < len(rows)]:
        problems.append("switch column does not follow the trigger times")
    schedule = {}
    for t in triggers:
        theta = switching.sigma(y_p[t], setup.config)
        if theta.taps != switching.sigma(y_q[t], setup.config).taps:
            problems.append(f"generator and remover keys give different taps at {t}")
        schedule[t + 1] = theta
    gen, rem = watermark.make_pair(setup.initial_theta())
    for k, yp in enumerate(y_p):
        if k in schedule:
            watermark.apply_switch(gen, rem, schedule[k])
        if rem.step(gen.step(yp)) != y_q[k]:
            problems.append(f"replayed y_q differs from the recorded one at step {k}")
            break
    return problems


# -- workloads ----------------------------------------------------------------

class Workload:
    """Set-up, one timed operation and its checks. `op` records one latency
    per timed call into `lat`; `tracer` is set only in the traced phase."""

    name = ""
    setup_repeats = 1

    def __init__(self, root: Path, seed: int):
        self.work = root / ".perfbench" / f"{self.name}-{os.getpid()}"
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    def curve_params(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int, lat: Latencies, tracer=None) -> None:
        raise NotImplementedError

    def report(self, lat: Latencies) -> list[tuple[str, float, str, str]]:
        """Workload-specific (name, value, unit, note) lines for the summary."""
        return []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def switch_samples(seed: int, n: int = SAMPLE_POOL) -> list[float]:
    rng = np.random.default_rng(seed)
    ys = np.concatenate([rng.uniform(-100.0, 100.0, n // 2),
                         rng.uniform(-1e4, 1e4, n - n // 2)])
    return rng.permutation(ys).tolist()


class SwitchWorkload(Workload):
    """Two endpoints, each loading the same config text on its own, derive
    taps from one seeded stream of samples."""

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.samples = switch_samples(seed)
        self.points: set = set()

    def config_text(self) -> str:
        raise NotImplementedError

    def curve_params(self) -> dict:
        return json.loads(self.config_text())["curve"]

    def setup(self) -> None:
        text = self.config_text()
        self.cfg_a = switching.SwitchingConfig.from_json(text)
        self.cfg_b = switching.SwitchingConfig.from_json(text)
        for y in self.samples[:WARMUP_SAMPLES]:
            switching.sigma(y, self.cfg_a)
            switching.sigma(y, self.cfg_b)

    def op(self, i: int, lat: Latencies, tracer=None) -> None:
        y = self.samples[i % len(self.samples)]
        if tracer is None:
            t0 = time.perf_counter_ns()
            theta_a = switching.sigma(y, self.cfg_a)
            t1 = time.perf_counter_ns()
            theta_b = switching.sigma(y, self.cfg_b)
            t2 = time.perf_counter_ns()
            lat.add(t1 - t0)
            lat.add(t2 - t1)
            self.record(check_taps(theta_a, theta_b))
            return
        theta_a, problems = self.staged_sigma(y, self.cfg_a, tracer)
        t0 = time.perf_counter_ns()
        theta_b = switching.sigma(y, self.cfg_b)
        lat.add(time.perf_counter_ns() - t0)
        with tracer.paused():
            self.record(problems + check_taps(theta_a, theta_b))

    def staged_sigma(self, y: float, cfg, tracer):
        """Oracle: sigma's stages called one by one, with the scalar multiple
        also rebuilt by double-and-add on the public `Curve.add`."""
        curve = cfg.curve
        scaled = switching.alpha1(y, cfg.alpha_x, cfg.alpha_y, curve.s)
        p = switching.alpha2(scaled, curve)
        s_pt = curve.scalar_mul(cfg.l, p)
        acc, addend, k = INFINITY, p, cfg.l
        while k:
            if k & 1:
                acc = curve.add(acc, addend)
            addend = curve.add(addend, addend)
            k >>= 1
        problems = [] if acc == s_pt else [f"double-and-add gave {acc!r}, scalar_mul {s_pt!r}"]
        fallback = s_pt.is_infinity
        if fallback:
            s_pt = p
        raw = switching.eta1(s_pt, cfg.eta1_rows)
        theta = switching.eta2(raw, floor=cfg.eta_floor, slope=cfg.eta_slope,
                               margin=cfg.eta_margin)
        self.points.add(p)
        tracer.count("switching.derivations")
        tracer.count("switching.fallbacks", int(fallback))
        tracer.counts["switching.distinct_points"] = len(self.points)
        return theta, problems

    def report(self, lat: Latencies):
        label, tail = lat.tail()
        note = f"n={lat.seen} sigma calls, {lat.kept} kept"
        return [("switch_p50_us", lat.p50_ns() / 1e3, "us", note),
                (f"switch_{label}_us", tail / 1e3, "us", note)]


class SwitchSmall(SwitchWorkload):
    name = "switch-small"
    setup_repeats = 50

    def config_text(self) -> str:
        return shipped.data_text("demo_config.json")


class SwitchLarge(SwitchWorkload):
    name = "switch-large"
    setup_repeats = 15

    def config_text(self) -> str:
        data = json.loads(shipped.data_text("demo_config.json"))
        data["curve"] = dict(LARGE_CURVE)
        data["l"] = LARGE_SECRET
        return json.dumps(data)


class ClosedLoop(Workload):
    """`ecwm sim` on the three shipped scenarios, the run seed drawn from the
    benchmark seed (calibration keeps each file's own seed)."""

    name = "closed-loop"
    setup_repeats = 20

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.run_seeds = np.random.default_rng(seed).integers(0, 2**31 - 1, 256).tolist()
        self.delays: list[int] = []
        self.false_alarms = 0
        self.nominal_runs = 0

    def curve_params(self) -> dict:
        return self.scenarios["nominal"].watermark.config.to_dict()["curve"]

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.paths, self.scenarios = {}, {}
        for name in SCENARIOS:
            path = self.work / f"scenario_{name}.json"
            path.write_text(shipped.data_text(f"scenario_{name}.json"), encoding="utf-8")
            self.paths[name] = path
            self.scenarios[name] = sim.Scenario.load(path)
        sim.run_scenario(self.scenarios["nominal"], horizon=WARMUP_SAMPLES, threshold=math.inf)

    def op(self, i: int, lat: Latencies, tracer=None) -> None:
        run_seed = self.run_seeds[i % len(self.run_seeds)]
        problems, total = [], 0
        for name in SCENARIOS:
            outdir = self.work / f"out_{name}"
            argv = ["sim", "--scenario", str(self.paths[name]), "--out", str(outdir),
                    "--seed", str(run_seed)]
            rc, printed, ns = run_cli(argv, tracer)
            self.probe.pause()
            total += ns
            scenario = self.scenarios[name]
            found, summary = check_sim(name, scenario, rc, printed, outdir)
            problems += found
            if name == "nominal" and summary:
                self.nominal_runs += 1
                self.false_alarms += len(summary["alarm_steps"])
                if tracer is not None:
                    problems += replay_watermark(outdir, summary, scenario.watermark)
            if name == "replay" and summary:
                delay = detection_delay(summary, scenario)
                if delay is not None:
                    self.delays.append(delay)
        lat.add(total)
        self.record(problems)

    def report(self, lat: Latencies):
        delay = float(np.median(self.delays)) if self.delays else None
        return [("sim_wall_s", lat.p50_ns() / 1e9, "s",
                 f"median over {lat.seen} passes of the three scenarios"),
                ("detect_delay_steps", delay, "steps",
                 f"median over {len(self.delays)} replay runs"),
                ("false_alarms", self.false_alarms, "count",
                 f"alarms over {self.nominal_runs} nominal runs")]


class CurveAnalysis(Workload):
    """The order/cofactor report, the nearest-seed partition and a sweep on
    one mid-size field; no scalar multiple is on these paths."""

    name = "curve-analysis"
    setup_repeats = 20

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        rng = np.random.default_rng(seed)
        self.refs = ",".join(repr(float(r)) for r in np.sort(rng.uniform(0.0, 100.0, SWEEP_REFERENCES)))
        self.sweep_seeds = rng.integers(0, 2**31 - 1, 256).tolist()
        self.walls: dict[str, list[int]] = {"curve": [], "voronoi": [], "sweep": []}

    def curve_params(self) -> dict:
        return dict(ANALYSIS_CURVE)

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        data = json.loads(shipped.data_text("demo_config.json"))
        data["curve"] = dict(ANALYSIS_CURVE)
        self.config_path = self.work / "analysis_config.json"
        self.config_path.write_text(json.dumps(data), encoding="utf-8")
        self.curve = switching.SwitchingConfig.load(self.config_path).curve
        for j in range(WARMUP_SAMPLES):
            self.curve.nearest_affine(j * 1.5, j * 2.5)

    def op(self, i: int, lat: Latencies, tracer=None) -> None:
        c = ANALYSIS_CURVE
        curve_args = ["--s", str(c["s"]), "--a", str(c["a"]), "--b", str(c["b"])]
        vor_dir, sweep_dir = self.work / "voronoi", self.work / "sweep"
        commands = {
            "curve": ["curve", *curve_args, "--json"],
            "voronoi": ["voronoi", *curve_args, "--grid", str(VORONOI_GRID), "--out", str(vor_dir)],
            "sweep": ["sweep", "--config", str(self.config_path), "--out", str(sweep_dir),
                      "--refs", self.refs, "--n", str(SWEEP_SAMPLES),
                      "--halfwidth", repr(SWEEP_HALFWIDTH),
                      "--seed", str(self.sweep_seeds[i % len(self.sweep_seeds)])],
        }
        problems, total = [], 0
        for name, argv in commands.items():
            rc, printed, ns = run_cli(argv, tracer)
            self.probe.pause()
            total += ns
            self.walls[name].append(ns)
            if rc != 0:
                problems.append(f"ecwm {name} exited {rc}")
                continue
            paused = tracer.paused() if tracer is not None else contextlib.nullcontext()
            with paused:
                if name == "curve":
                    problems += check_curve_report(json.loads(printed), self.curve)
                elif name == "voronoi":
                    problems += check_voronoi_csv(vor_dir / "voronoi.csv", self.curve, VORONOI_GRID)
                else:
                    problems += check_sweep_outputs(sweep_dir, self.curve, SWEEP_SAMPLES)
        lat.add(total)
        self.record(problems)

    def report(self, lat: Latencies):
        med = {k: float(np.median(v)) / 1e9 for k, v in self.walls.items()}
        n = len(self.walls["curve"])
        return [("curve_report_s", med["curve"], "s", f"median of {n}"),
                ("voronoi_cells_per_s", VORONOI_GRID**2 / med["voronoi"], "1/s",
                 f"{VORONOI_GRID}x{VORONOI_GRID} grid, median of {n}"),
                ("sweep_samples_per_s", SWEEP_REFERENCES * SWEEP_SAMPLES / med["sweep"], "1/s",
                 f"{SWEEP_REFERENCES} references x {SWEEP_SAMPLES}, median of {n}")]


WORKLOADS = {cls.name: cls for cls in (SwitchSmall, SwitchLarge, ClosedLoop, CurveAnalysis)}
