"""Command-line surface.

Subcommands:
  curve        inspect a curve: points, group order, per-point order/cofactor
  switch-eval  evaluate the switching map on one measurement
  sweep        sensitivity sweep histograms (CSV per reference, optional SVG)
  voronoi      nearest-seed partition of [0,s)^2 on a sampling grid
  sim          run a closed-loop scenario file, write trace and summary
  demo         copy the packaged demo config and scenarios somewhere editable

Exit codes: 0 success, 2 configuration error, 3 simulation divergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .analysis import SweepSpec, grid_coords, sensitivity_sweep, voronoi_rows
from .curve import Curve
from .errors import ConfigError, DivergenceError, EcwmError
from .scenario import Scenario
from .sim import run_scenario
from .switching import SwitchingConfig, sigma_detail, validate_theta
from . import shipped, svgplot

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def seed(text: str) -> int:
    """A random-generator seed: numpy accepts only non-negative integers."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


# Upper caps on the sizes whose work grows without bound: a sweep projects
# --n samples per reference, a partition export --grid squared cells.
MAX_SWEEP_SAMPLES = 10**6
MAX_GRID = 1000
# The common file-system limit on one file name; sweep file names are ASCII,
# so characters are bytes.
MAX_FILE_NAME = 255


def positive_int(text: str, cap: int) -> int:
    """A count or grid resolution in [1, cap]: zero would leave nothing to
    compute, and the work grows with the value."""
    value = int(text)
    if not 1 <= value <= cap:
        raise argparse.ArgumentTypeError(f"must be an integer from 1 to {cap}, got {value}")
    return value


def sample_count(text: str) -> int:
    return positive_int(text, MAX_SWEEP_SAMPLES)


def grid_size(text: str) -> int:
    return positive_int(text, MAX_GRID)


def halfwidth(text: str) -> float:
    """A noise halfwidth h: positive, with a finite full width 2h."""
    value = float(text)
    if not (value > 0 and math.isfinite(2 * value)):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def references(text: str) -> tuple[float, ...]:
    """One or more comma-separated sweep references, each finite, each with
    its own output file name (see _ref_label) of at most MAX_FILE_NAME bytes."""
    refs = tuple(map(float, text.split(",")))
    if not all(map(math.isfinite, refs)):
        raise argparse.ArgumentTypeError(f"references must be finite, got {text}")
    labels = {_ref_label(r) for r in refs}
    if len(labels) < len(refs):
        raise argparse.ArgumentTypeError(f"references must be distinct, got {text}")
    if max(len(_sweep_file(label, ".csv")) for label in labels) > MAX_FILE_NAME:
        raise argparse.ArgumentTypeError(
            f"a reference's file name would pass {MAX_FILE_NAME} bytes, got {text}")
    return refs


def _point_json(p):
    return None if p.is_infinity else [p.x, p.y]


# One point of the `ecwm curve --json` report, as json.dumps(..., indent=2)
# lays it out inside the points list.
_POINT_JSON = '    {{\n      "x": {},\n      "y": {},\n      "order": {},\n      "cofactor": {}\n    }}'


def cmd_curve(args) -> int:
    curve = Curve(args.a, args.b, args.s)
    orders = curve.point_orders()
    n = curve.order()
    if args.json:
        # json.dumps with an indent would run CPython's pure-Python encoder;
        # every field is an int, so the same text is formatted directly (the
        # points list is never empty: by Hasse's bound a curve over s >= 5 has
        # an affine point)
        points = ",\n".join(_POINT_JSON.format(p.x, p.y, k, n // k) for p, k in orders.items())
        print(f'{{\n  "s": {curve.s},\n  "a": {curve.a},\n  "b": {curve.b},\n  "order": {n},\n'
              f'  "identity": {{\n    "order": 1,\n    "cofactor": {n}\n  }},\n'
              f'  "points": [\n{points}\n  ]\n}}')
        return EXIT_OK
    print(f"curve y^2 = x^3 + {curve.a}x + {curve.b} over F_{curve.s}")
    print(f"group order {n} ({len(orders)} affine points + identity)")
    print(f"{'point':>12}  {'order':>5}  {'cofactor':>8}")
    print(f"{'O':>12}  {1:>5}  {n:>8}")
    for p, k in orders.items():
        print(f"{str(p):>12}  {k:>5}  {n // k:>8}")
    return EXIT_OK


def cmd_switch_eval(args) -> int:
    cfg = SwitchingConfig.load(args.config)
    outcome = sigma_detail(args.y, cfg)
    report = validate_theta(outcome.theta)
    print(json.dumps({
        "y": args.y,
        "scaled": list(outcome.scaled),
        "P": _point_json(outcome.generator_point),
        "point_index": cfg.curve.nearest_index(*outcome.scaled),
        "S": _point_json(outcome.secret_multiple),
        "fallback": outcome.fallback_used,
        "b_raw": list(outcome.raw_taps),
        "theta": list(outcome.theta.taps),
        "valid": report.ok,
        "violation": report.violation,
    }, indent=2))
    return EXIT_OK


def _ref_label(r: float) -> str:
    return str(int(r)) if float(r).is_integer() else repr(r)


def _sweep_file(label: str, suffix: str) -> str:
    return f"sweep_r{label}{suffix}"


def cmd_sweep(args) -> int:
    cfg = SwitchingConfig.load(args.config)
    spec = SweepSpec(references=args.refs, n_realizations=args.n,
                     noise_halfwidth=args.halfwidth, seed=args.seed)
    results = sensitivity_sweep(cfg, spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    affine = cfg.curve.affine_points()
    uniform = 1.0 / len(affine)
    summary = {"seed": args.seed, "n_realizations": args.n,
               "noise_halfwidth": args.halfwidth,
               "uniform_rel_freq": uniform, "references": {}}
    for res in results:
        label = _ref_label(res.reference)
        path = outdir / _sweep_file(label, ".csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("point_x,point_y,count,rel_freq\n")
            for p in affine:
                c = res.counts.get(p, 0)
                fh.write(f"{p.x},{p.y},{c},{c / res.n_realizations!r}\n")
        summary["references"][label] = {
            "entropy": res.entropy,
            "distinct_points": len(res.reached),
            "csv": path.name,
        }
        if args.svg:
            svgplot.histogram_svg(
                outdir / _sweep_file(label, ".svg"),
                [str(p) for p in affine],
                [res.rel_freq(p) for p in affine],
                reference_line=uniform,
                title=f"hit frequency around reference {label}",
            )
    with open(outdir / "sweep_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"wrote {len(results)} sweep files to {outdir}")
    return EXIT_OK


def cmd_voronoi(args) -> int:
    curve = Curve(args.a, args.b, args.s)
    # enumerate before any output exists; format each seed and coordinate once
    seeds = [f"{p.x},{p.y}\n" for p in curve.affine_points()]
    coords = grid_coords(curve.s, args.grid)
    text = [repr(c) for c in coords]
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "voronoi.csv"
    rows = []  # owner indices, kept only for the SVG
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("gx,gy,seed_x,seed_y\n")
        # one grid row per write, so memory does not grow with the grid
        for gx, row in zip(text, voronoi_rows(curve, args.grid)):
            fh.write("".join([f"{gx},{gy},{seeds[k]}" for gy, k in zip(text, row)]))
            if args.svg:
                rows.append(row)
    if args.svg:
        svgplot.voronoi_svg(outdir / "voronoi.svg", curve.affine_points(), curve.s, coords, rows,
                            title=f"nearest-seed partition, F_{curve.s}")
    print(f"wrote {args.grid ** 2} cell assignments to {path}")
    return EXIT_OK


def cmd_sim(args) -> int:
    scenario = Scenario.load(args.scenario)
    # a calibrated threshold is computed in the run's own lockstep batch
    trace = run_scenario(scenario, seed=args.seed)
    paths = trace.write_outputs(args.out)
    summary = trace.summary()
    print(json.dumps({
        "threshold": summary["threshold"],
        "n_alarms": summary["n_alarms"],
        "first_alarm": summary["first_alarm"],
        "switches": len(summary["switch_steps"]),
        "max_reconstruction_error": summary["max_reconstruction_error"],
        "outputs": paths,
    }, indent=2))
    return EXIT_OK


def cmd_demo(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in shipped.data_names():
        (outdir / name).write_text(shipped.data_text(name), encoding="utf-8")
        print(f"wrote {outdir / name}")
    return EXIT_OK


@functools.cache  # one parser per process: building it costs ~10 parse_args calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecwm",
        description="Curve-keyed switching watermark toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="inspect a curve's group structure")
    p.add_argument("--s", type=int, required=True, help="field prime")
    p.add_argument("--a", type=int, required=True, help="x coefficient")
    p.add_argument("--b", type=int, required=True, help="constant coefficient")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("switch-eval", help="evaluate the switching map once")
    p.add_argument("--config", required=True, help="shared-secret JSON file")
    p.add_argument("--y", type=float, required=True, help="previous output sample")
    p.set_defaults(func=cmd_switch_eval)

    p = sub.add_parser("sweep", help="sensitivity sweep histograms")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--refs", type=references, default="0,1,10,100",
                   help="comma-separated references")
    p.add_argument("--n", type=sample_count, default=500, help="realizations per reference")
    p.add_argument("--halfwidth", type=halfwidth, default=0.05, help="noise halfwidth")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--svg", action="store_true", help="also render SVG figures")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("voronoi", help="nearest-seed partition export")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--grid", type=grid_size, default=170, help="grid resolution per axis")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--svg", action="store_true")
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("sim", help="run a closed-loop scenario")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=seed, default=None,
                   help="override the run seed (calibration keeps the file seed)")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("demo", help="copy packaged demo files")
    p.add_argument("--out", default=".", help="destination directory")
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except EcwmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
