import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ecwatermark import (ConfigurationWarning, Curve, ParameterError, Scenario,
                         SwitchingConfig, shipped, sigma)
from ecwatermark.cli import build_parser, main
from ecwatermark.scenario import MAX_CALIBRATION_STEPS, MAX_HORIZON

from conftest import JSON_LIKE, leaf_paths, order_by_factor_stripping


@pytest.fixture()
def demo_config_file(tmp_path):
    path = tmp_path / "demo_config.json"
    path.write_text(shipped.data_text("demo_config.json"))
    return path


# -- curve ---------------------------------------------------------------------

def test_curve_report(capsys):
    assert main(["curve", "--s", "17", "--a", "2", "--b", "2"]) == 0
    out = capsys.readouterr().out
    assert "group order 19" in out
    assert "(5, 1)" in out


def test_curve_json(capsys):
    assert main(["curve", "--s", "17", "--a", "2", "--b", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 19
    assert all(p["order"] == 19 and p["cofactor"] == 1 for p in payload["points"])
    assert payload["identity"] == {"order": 1, "cofactor": 19}


def test_curve_output_stable(capsys):
    main(["curve", "--s", "17", "--a", "2", "--b", "2"])
    first = capsys.readouterr().out
    main(["curve", "--s", "17", "--a", "2", "--b", "2"])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("s, a, b", [(17, 2, 2), (307, 2, 3), (307, 306, 0)])
def test_curve_orders_equal_per_point_order(capsys, s, a, b):
    # the report walks cyclic subgroups; (307, 306, 0) is Z2 x Z154, not cyclic
    assert main(["curve", "--s", str(s), "--a", str(a), "--b", str(b), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    curve = Curve(a, b, s)
    assert [(p["x"], p["y"], p["order"]) for p in payload["points"]] == [
        (p.x, p.y, order_by_factor_stripping(curve, p)) for p in curve.affine_points()]


def test_singular_curve_exits_config_error(capsys):
    assert main(["curve", "--s", "17", "--a", "0", "--b", "0"]) == 2
    assert "singular" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["curve", "voronoi"])
def test_huge_prime_field_exits_capacity_error(tmp_path, capsys, command):
    # 2^61 - 1 is prime: primality must be settled fast, then enumeration refused
    out = tmp_path / "out"
    argv = [command, "--s", "2305843009213693951", "--a", "1", "--b", "1"]
    if command == "voronoi":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert "enumeration bound" in capsys.readouterr().err
    # the field is refused before any output exists
    assert not out.exists()


# -- switch-eval ------------------------------------------------------------------

def test_switch_eval_reports_valid_taps(demo_config_file, capsys):
    assert main(["switch-eval", "--config", str(demo_config_file), "--y", "10.0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is True
    assert payload["violation"] is None
    assert len(payload["theta"]) == 3
    assert payload["P"] is not None and payload["S"] is not None


def test_switch_eval_reports_taps_without_inverse(demo_config_file, capsys):
    # b0 floored to the subnormal 1e-320: switch-eval gives the verdict that
    # validate_theta gives and the text with which sigma refuses the taps
    cfg = json.loads(demo_config_file.read_text())
    cfg["eta_floor"] = 1e-320
    cfg["eta1"][0] = [0.0]
    demo_config_file.write_text(json.dumps(cfg))
    with pytest.warns(ConfigurationWarning, match="floor"):
        assert main(["switch-eval", "--config", str(demo_config_file), "--y", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["theta"][0] == 1e-320
    assert payload["valid"] is False
    assert payload["violation"] == "leading tap too small to invert in double precision"
    with pytest.warns(ConfigurationWarning, match="floor"):
        config = SwitchingConfig.load(demo_config_file)
    with pytest.raises(ParameterError) as err:
        sigma(5.0, config)
    assert str(err.value) == f"inadmissible taps: {payload['violation']}"


def test_switch_eval_deterministic(demo_config_file, capsys):
    main(["switch-eval", "--config", str(demo_config_file), "--y", "3.3"])
    first = capsys.readouterr().out
    main(["switch-eval", "--config", str(demo_config_file), "--y", "3.3"])
    assert capsys.readouterr().out == first


def test_switch_eval_scalar_period(demo_config_file, tmp_path, capsys):
    cfg = json.loads(demo_config_file.read_text())
    cfg["l"] = cfg["l"] + 19
    shifted = tmp_path / "shifted.json"
    shifted.write_text(json.dumps(cfg))
    main(["switch-eval", "--config", str(demo_config_file), "--y", "7.7"])
    first = json.loads(capsys.readouterr().out)
    main(["switch-eval", "--config", str(shifted), "--y", "7.7"])
    second = json.loads(capsys.readouterr().out)
    assert first["theta"] == second["theta"]


def test_switch_eval_bad_config_reports_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"curve": {"s": 17, "a": 2, "b": 2}, "l": 7}))
    assert main(["switch-eval", "--config", str(path), "--y", "1.0"]) == 2
    assert "alpha" in capsys.readouterr().err


def _set_leaf(d, keys, value):
    *parents, leaf = keys
    for key in parents:
        d = d[key]
    d[leaf] = value


# (field, bad value, path of the field reported on stderr)
_BAD_CONFIG_FIELDS = [
    ("l", True, "l"),
    ("l", "7", "l"),
    ("eta_floor", "1.5", "eta_floor"),
    ("eta_slope", "2", "eta_slope"),
    ("eta_margin", 2.0, "eta_margin"),
    ("n_h", "2", "n_h"),
    ("curve.a", True, "curve.a"),
    ("curve.s", 15, "curve.s"),
    ("alpha.x", [4.0, True], "alpha.x[1]"),
    ("eta1", [[0.0, "0.5"], [0.0], [1.0]], "eta1[0][1]"),
]


@pytest.mark.parametrize("command", ["switch-eval", "sim"])
@pytest.mark.parametrize("field,value,reported", _BAD_CONFIG_FIELDS)
def test_bad_switching_config_reports_full_path(tmp_path, capsys, command, field, value,
                                                reported):
    if command == "switch-eval":
        d = json.loads(shipped.data_text("demo_config.json"))
        _set_leaf(d, field.split("."), value)
        path = tmp_path / "config.json"
        argv = ["switch-eval", "--config", str(path), "--y", "1.0"]
        expected = f"{path}.{reported}"
    else:
        d = json.loads(_write_short_scenario(tmp_path).read_text())
        _set_leaf(d["watermark"]["config"], field.split("."), value)
        path = tmp_path / "scenario.json"
        argv = ["sim", "--scenario", str(path), "--out", str(tmp_path / "out")]
        expected = f"{path}.watermark.config.{reported}"
    path.write_text(json.dumps(d))
    assert main(argv) == 2
    assert expected in capsys.readouterr().err


# -- sweep ---------------------------------------------------------------------------

def test_sweep_writes_per_reference_csv(demo_config_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--config", str(demo_config_file), "--out", str(out),
        "--refs", "0,10", "--n", "40", "--halfwidth", "0.05", "--seed", "3", "--svg",
    ])
    assert code == 0
    for label in ("0", "10"):
        lines = (out / f"sweep_r{label}.csv").read_text().splitlines()
        assert lines[0] == "point_x,point_y,count,rel_freq"
        assert len(lines) == 19  # 18 affine points
        counts = [int(row.split(",")[2]) for row in lines[1:]]
        assert sum(counts) == 40
        assert (out / f"sweep_r{label}.svg").exists()
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["uniform_rel_freq"] == pytest.approx(1 / 18)
    assert set(summary["references"]) == {"0", "10"}


def test_sweep_overflowing_reference_exits_before_writing(demo_config_file, tmp_path, capsys):
    # the demo scaling's |y|^3 term overflows at 1e200, the second reference
    out = tmp_path / "sweep"
    out.mkdir()
    assert main(["sweep", "--config", str(demo_config_file), "--out", str(out),
                 "--refs", "1,1e200"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: scaling of y=1e+200 overflowed double precision\n"
    assert captured.out == ""
    assert list(out.iterdir()) == []


# -- voronoi ---------------------------------------------------------------------------

def test_voronoi_export(tmp_path):
    out = tmp_path / "vor"
    code = main(["voronoi", "--s", "17", "--a", "2", "--b", "2",
                 "--grid", "17", "--out", str(out), "--svg"])
    assert code == 0
    lines = (out / "voronoi.csv").read_text().splitlines()
    assert lines[0] == "gx,gy,seed_x,seed_y"
    assert len(lines) == 1 + 17 * 17
    assert (out / "voronoi.svg").exists()
    # a row that sits exactly on a seed is assigned to it
    assert "0.0,6.0,0,6" in lines


def voronoi_csv_per_cell(curve, grid):
    """voronoi.csv written cell by cell at (i * (s / grid), j * (s / grid)),
    the byte oracle. The whole grid is projected in one nearest_indices call,
    bit-identical to nearest_affine per cell and a few seconds faster."""
    step = curve.s / grid
    cells = [(i * step, j * step) for i in range(grid) for j in range(grid)]
    owners = curve.nearest_indices(*np.array(cells).T).tolist()
    points = curve.affine_points()
    lines = ["gx,gy,seed_x,seed_y\n"]
    for (gx, gy), k in zip(cells, owners):
        lines.append(f"{gx!r},{gy!r},{points[k].x},{points[k].y}\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("s, a, b, grid", [
    *[(s, a, b, grid) for s, a, b in [(17, 2, 2), (101, 2, 3), (307, 2, 3)]
      for grid in (100, 170, 333)],
    (9973, 2, 3, 100),
])
def test_voronoi_csv_equals_per_cell_writer(tmp_path, capsys, s, a, b, grid):
    out = tmp_path / "vor"
    assert main(["voronoi", "--s", str(s), "--a", str(a), "--b", str(b),
                 "--grid", str(grid), "--out", str(out)]) == 0
    assert (out / "voronoi.csv").read_bytes() == voronoi_csv_per_cell(Curve(a, b, s), grid)


@pytest.mark.parametrize("argv, name, digest", [
    (["voronoi", "--s", "17", "--a", "2", "--b", "2", "--grid", "17"], "voronoi.svg",
     "aeba413b65e5732958f3621c9cfbcaf944fb3b3893ea361f857ae88825d508be"),
    (["voronoi", "--s", "307", "--a", "2", "--b", "3", "--grid", "100"], "voronoi.svg",
     "c61579b00f9325a9b24923eca77488f774e39dde6257564a6017e7a13e289f83"),
    # two of the 95 seeds own no cell of this grid, so colors are not seed indices
    (["voronoi", "--s", "101", "--a", "2", "--b", "3", "--grid", "17"], "voronoi.svg",
     "8733deac788609ca8f0c4b13579618869ef4d2c86d683bcef4b3a84930700bcc"),
    (["sweep", "--config", "demo_config.json", "--refs", "0,1,10,100", "--n", "500",
      "--halfwidth", "0.05", "--seed", "1"], "sweep_r10.svg",
     "2e01e9e4cf05e954895eb6ade50102d81dd07b0770b9cc43cd2da02d8b947bbd"),
], ids=["voronoi-17", "voronoi-307", "voronoi-101", "sweep-r10"])
def test_svg_bytes_are_pinned(tmp_path, monkeypatch, capsys, demo_config_file, argv, name,
                              digest):
    monkeypatch.chdir(demo_config_file.parent)
    assert main([*argv, "--out", "out", "--svg"]) == 0
    assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


def _voronoi_peak_bytes(tmp_path, grid):
    tracemalloc.start()
    try:
        assert main(["voronoi", "--s", "307", "--a", "2", "--b", "3",
                     "--grid", str(grid), "--out", str(tmp_path / f"vor{grid}")]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_voronoi_memory_does_not_grow_with_grid(tmp_path, capsys):
    _voronoi_peak_bytes(tmp_path, 10)  # the field's root table and imports
    small, large = _voronoi_peak_bytes(tmp_path, 200), _voronoi_peak_bytes(tmp_path, 400)
    # holding every cell, line and the joined text made the peak grow 4x
    assert large < 2 * small
    # the 400 x 400 owner indices are 1.28 MB of 8-byte list slots; kept
    # without --svg they grew the peak by 1.41 MB (0.39 MB when dropped)
    assert large - small < 400 * 400 * 8 // 2


# -- sim ---------------------------------------------------------------------------------

def _write_short_scenario(tmp_path, **tweaks):
    d = json.loads(shipped.data_text("scenario_nominal.json"))
    d["horizon"] = 150
    d["detector"]["threshold"] = {"mode": "fixed", "value": 0.2}
    d.update(tweaks)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    return path


def test_sim_nominal_run(tmp_path, capsys):
    path = _write_short_scenario(tmp_path)
    out = tmp_path / "run"
    assert main(["sim", "--scenario", str(path), "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_alarms"] == 0
    assert payload["max_reconstruction_error"] < 1e-9
    assert (out / "trace.csv").exists()
    assert (out / "summary.json").exists()


def test_sim_seed_override_changes_trace(tmp_path, capsys):
    path = _write_short_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["sim", "--scenario", str(path), "--out", str(out1), "--seed", "5"])
    capsys.readouterr()
    main(["sim", "--scenario", str(path), "--out", str(out2), "--seed", "6"])
    assert (out1 / "trace.csv").read_text() != (out2 / "trace.csv").read_text()


def test_sim_corrupt_scenario_no_partial_output(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    out = tmp_path / "never"
    assert main(["sim", "--scenario", str(bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_sim_divergence_exit_code(tmp_path, capsys):
    path = _write_short_scenario(
        tmp_path, attack={"kind": "bias", "start": 10, "magnitude": 1e15}
    )
    out = tmp_path / "div"
    assert main(["sim", "--scenario", str(path), "--out", str(out)]) == 3
    assert "diverged" in capsys.readouterr().err


def test_sim_diverging_calibration_exit_code(tmp_path, capsys):
    # the attack-free calibration runs leave the overflow guard at step 0
    d = json.loads(_write_short_scenario(tmp_path).read_text())
    d["plant"]["process_noise"] = {"kind": "uniform", "low": [2e12, 0.0], "high": [2e12, 0.0]}
    d["detector"]["threshold"] = {"mode": "calibrate", "runs": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "div"
    assert main(["sim", "--scenario", str(path), "--out", str(out)]) == 3
    assert "diverged: state of block 'plant'" in capsys.readouterr().err
    assert not out.exists()


def test_sim_start_state_beyond_the_guard_exit_code(tmp_path, capsys):
    d = json.loads(shipped.data_text("scenario_nominal.json"))
    d["plant"]["x0"] = [1.5e12, 0.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "div"
    assert main(["sim", "--scenario", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("simulation diverged: state of block 'plant' reached "
                                       "magnitude 1500000000000.0 at step 0\n")
    assert not out.exists()


def test_sim_io_error_exit_code(tmp_path, capsys):
    path = _write_short_scenario(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert main(["sim", "--scenario", str(path), "--out", str(blocker / "x")]) == 4


@pytest.mark.parametrize("field,value", [
    ("horizon", "abc"),
    ("horizon", 2.7),
    ("seed", True),
    ("watermark.protocol.period", "x"),
    ("watermark.protocol.period", 2.7),
    ("watermark.protocol.bound", "x"),
    ("watermark.theta0", ["a", 0.0, 0.0]),
    ("attack.start", 1.5),
    ("attack.window", 2.7),
    ("attack.magnitude", "big"),
    ("detector.threshold.value", math.nan),
    ("detector.threshold.runs", 2.5),
    ("detector.threshold.quantile", "q"),
    ("detector.threshold.safety", True),
    ("detector.threshold.floor", math.inf),
    ("horizon", 1e30),
    ("horizon", 10**30),
    ("detector.threshold.runs", 10**9),
    ("watermark.theta0", [0.0, 0.0, 0.0]),
    ("watermark.theta0", [1.0, 1.5, 0.0]),
    ("watermark.theta0", [1e-320, 0.0, 0.0]),
    ("detector.threshold.value", -1.0),
    ("detector.threshold.floor", -1e-6),
    ("watermark.protocol.period", 0),
])
def test_sim_bad_scalar_reports_field(tmp_path, capsys, field, value):
    path = _write_short_scenario(tmp_path)
    d = json.loads(path.read_text())
    _set_leaf(d, field.split("."), value)
    path.write_text(json.dumps(d))
    assert main(["sim", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err


def test_sim_calibration_work_capped_at_load(tmp_path, capsys):
    d = json.loads(_write_short_scenario(tmp_path).read_text())
    d["horizon"] = MAX_HORIZON
    d["detector"]["threshold"] = {"mode": "calibrate", "runs": MAX_CALIBRATION_STEPS // MAX_HORIZON}
    Scenario.from_dict(d)  # at the cap: loads, though running it takes minutes
    d["detector"]["threshold"]["runs"] += 1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    assert main(["sim", "--scenario", str(path), "--out", str(out)]) == 2
    assert "detector.threshold.runs" in capsys.readouterr().err
    assert not out.exists()


# 5001 digits: past the 4300-digit limit of int parsing, where json.loads
# raises a plain ValueError; without the limit the value itself is out of range
_OVERSIZED = "1" + "0" * 5000


@pytest.mark.parametrize("command, field", [
    ("switch-eval", "curve.s"),
    ("sim", "watermark.config.curve.s"),
    ("sim", "horizon"),
])
def test_oversized_json_integer_exits_config_error(tmp_path, capsys, command, field):
    if command == "switch-eval":
        d = json.loads(shipped.data_text("demo_config.json"))
        path = tmp_path / "config.json"
        argv = ["switch-eval", "--config", str(path), "--y", "1.0"]
    else:
        d = json.loads(_write_short_scenario(tmp_path).read_text())
        path = tmp_path / "scenario.json"
        argv = ["sim", "--scenario", str(path), "--out", str(tmp_path / "out")]
    _set_leaf(d, field.split("."), 987654321987654321)
    path.write_text(json.dumps(d).replace("987654321987654321", _OVERSIZED))
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv,edit", [
    (["sim", "--scenario", "FILE", "--out", "OUT"], "quantil"),
    (["sweep", "--config", "FILE", "--out", "OUT"], "eta_flor"),
    (["switch-eval", "--config", "FILE", "--y", "1.0"], "eta_flor"),
], ids=lambda v: v[0] if isinstance(v, list) else v)
def test_misspelt_field_exits_config_error(tmp_path, capsys, argv, edit):
    if edit == "quantil":
        d = json.loads(shipped.data_text("scenario_nominal.json"))
        d["detector"]["threshold"]["quantil"] = 0.5
        field = "detector.threshold.quantil"
    else:
        d = json.loads(shipped.data_text("demo_config.json"))
        d["eta_flor"] = d.pop("eta_floor")
        field = "eta_flor"
    path, out = tmp_path / "input.json", tmp_path / "out"
    path.write_text(json.dumps(d))
    argv = [{"FILE": str(path), "OUT": str(out)}.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {path}.{field}: unknown field")
    assert not out.exists()


# a UTF-8 BOM is invalid JSON too, as json.loads has it
@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000, b"\xef\xbb\xbf{}"],
                         ids=["not-utf8", "nested-too-deep", "utf8-bom"])
@pytest.mark.parametrize("argv", [
    ["sim", "--scenario", "FILE", "--out", "OUT"],
    ["sweep", "--config", "FILE", "--out", "OUT"],
    ["switch-eval", "--config", "FILE", "--y", "1.0"],
], ids=lambda argv: argv[0])
def test_malformed_file_exits_config_error(tmp_path, capsys, argv, content):
    path, out = tmp_path / "input.json", tmp_path / "out"
    path.write_bytes(content)
    argv = [{"FILE": str(path), "OUT": str(out)}.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"configuration error: {path}:")
    assert not out.exists()


@pytest.mark.parametrize("theta0", ["auto", [1.0, 0.0, 0.0]])
def test_sim_inadmissible_derived_taps_exit_config_error(tmp_path, capsys, theta0):
    # b0 floored to the subnormal 1e-320: its inverse overflows, so sigma
    # refuses the taps, at the start of the run or at the first switch
    d = json.loads(_write_short_scenario(tmp_path).read_text())
    d["watermark"]["theta0"] = theta0
    d["watermark"]["config"]["eta_floor"] = 1e-320
    d["watermark"]["config"]["eta1"][0] = [0.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(d))
    out = tmp_path / "out"
    with pytest.warns(ConfigurationWarning, match="floor"):
        assert main(["sim", "--scenario", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: inadmissible taps: leading tap too small to invert in double "
                   "precision\n")
    assert not out.exists()


@pytest.mark.parametrize("name", shipped.SCENARIOS)
def test_sim_trace_meta_echoes_the_file_with_l_redacted(tmp_path, capsys, name):
    text = shipped.data_text(f"scenario_{name}.json")
    path = tmp_path / "scenario.json"
    path.write_text(text)
    out = tmp_path / "run"
    assert main(["sim", "--scenario", str(path), "--out", str(out), "--seed", "3"]) == 0
    threshold = json.loads(capsys.readouterr().out)["threshold"]
    expected = json.loads(text)
    expected["watermark"]["config"]["l"] = "redacted"
    meta = json.loads((out / "trace_meta.json").read_text())
    assert meta == {"seed": 3, "threshold": threshold, "horizon": expected["horizon"],
                    "scenario": expected}


@pytest.mark.parametrize("command", ["sim", "sweep"])
def test_negative_seed_rejected_at_parsing(tmp_path, capsys, demo_config_file, command):
    if command == "sim":
        argv = ["sim", "--scenario", str(_write_short_scenario(tmp_path))]
    else:
        argv = ["sweep", "--config", str(demo_config_file)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out"), "--seed", "-1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "0"],
    ["sweep", "--halfwidth", "0"],
    ["sweep", "--halfwidth", "1e308"],
    ["voronoi", "--grid", "0"],
    ["sweep", "--n", "1000001"],
    ["voronoi", "--grid", "1001"],
    ["sweep", "--refs", "1,,2"],
    ["sweep", "--refs", "abc"],
    ["sweep", "--refs", ""],
    ["sweep", "--refs", "nan"],
    ["sweep", "--refs", "1e400"],
    ["sweep", "--refs", "1,1.0"],
    ["sweep", "--refs", "0,-0.0"],
    ["sweep", "--refs", "1,1e300"],  # a 301-digit label: the file name is too long
    ["sweep", "--refs", "0,-1e243"],  # sweep_r-1000...0.csv is 256 bytes
])
def test_sweep_and_grid_sizes_checked_at_parsing(tmp_path, capsys, demo_config_file, argv):
    command, option, _ = argv
    if command == "sweep":
        argv = argv + ["--config", str(demo_config_file)]
    else:
        argv = argv + ["--s", "17", "--a", "2", "--b", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, dest", [
    (["sweep", "--config", "c.json", "--n", "1000000"], "n"),
    (["voronoi", "--s", "17", "--a", "2", "--b", "2", "--grid", "1000"], "grid"),
])
def test_sweep_and_grid_sizes_accepted_at_the_cap(argv, dest):
    # parsed only: running at the cap takes seconds to minutes
    args = build_parser().parse_args(argv + ["--out", "out"])
    assert getattr(args, dest) == int(argv[-1])


def test_sweep_reference_file_name_at_the_limit(tmp_path, capsys):
    # atan-only scaling stays finite for any finite reference
    d = json.loads(shipped.data_text("demo_config.json"))
    d["alpha"] = {"x": [4.0, 1.0], "y": [2.5, 0.7]}
    config = tmp_path / "atan_config.json"
    config.write_text(json.dumps(d))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(config), "--out", str(out),
                 "--refs", "1e243", "--n", "10"]) == 0
    name = f"sweep_r{int(1e243)}.csv"
    assert len(name) == 255
    assert (out / name).exists()


@pytest.mark.parametrize("noise", ["measurement_noise", "process_noise"])
def test_sim_overflowing_noise_range_reports_field(tmp_path, capsys, noise):
    # each bound is finite, but high - low overflows to inf
    path = _write_short_scenario(tmp_path)
    d = json.loads(path.read_text())
    spec = d["plant"][noise]
    spec["low"][0], spec["high"][0] = -1e308, 1e308
    path.write_text(json.dumps(d))
    assert main(["sim", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"plant.{noise}.high" in capsys.readouterr().err


def _short_scenario(name):
    d = json.loads(shipped.data_text(f"scenario_{name}.json"))
    d["horizon"] = 50
    d["detector"]["threshold"] = {"mode": "fixed", "value": 0.2}
    return d


_FUZZ_BASES = {"demo_config.json": json.loads(shipped.data_text("demo_config.json"))}
_FUZZ_BASES.update({f"scenario_{name}.json": _short_scenario(name)
                    for name in shipped.SCENARIOS})
_FUZZ_LEAVES = [(name, path) for name, base in _FUZZ_BASES.items()
                for path in leaf_paths(base)]


@pytest.mark.filterwarnings("ignore")
@given(st.sampled_from(_FUZZ_LEAVES), JSON_LIKE)
@example(("scenario_nominal.json", ("horizon",)), 1e30)
@example(("demo_config.json", ("eta1", 0, 1)), 1.2175514244421283e+307)
def test_cli_fuzz_one_leaf(leaf, value):
    # one replaced leaf of a shipped file: the command succeeds or exits with
    # a documented code, and never escapes with an exception
    name, path = leaf
    if path == ("horizon",) and isinstance(value, (int, float)) and 50 < value <= MAX_HORIZON:
        value = 50  # a valid horizon this long would make the run slow
    d = copy.deepcopy(_FUZZ_BASES[name])
    _set_leaf(d, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        file = Path(tmp) / name
        file.write_text(json.dumps(d))
        if name == "demo_config.json":
            argv = ["switch-eval", "--config", str(file), "--y", "10.0"]
        else:
            argv = ["sim", "--scenario", str(file), "--out", str(Path(tmp) / "out")]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 2, 3, 4)


# -- demo -----------------------------------------------------------------------------

def test_demo_copies_packaged_files(tmp_path):
    assert main(["demo", "--out", str(tmp_path / "files")]) == 0
    names = {p.name for p in (tmp_path / "files").iterdir()}
    assert "demo_config.json" in names
    assert "scenario_nominal.json" in names
    assert "scenario_replay.json" in names
    assert "scenario_replay_static.json" in names
