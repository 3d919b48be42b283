"""Closed-loop simulation of a watermarked networked control system.

Blocks: plant -> watermark generator -> channel (with optional
man-in-the-middle attack) -> watermark remover -> residual detector and
controller. Within one sample the order is fixed and documented:

1. pending parameter switches apply (between samples, driven by the
   previous sample's signals: the generator keys on its last plant output,
   the remover on its last reconstructed output);
2. plant output with measurement noise;
3. generator modulates; the attacker may rewrite the channel value;
   remover demodulates;
4. detector residual and alarm test against the (constant) threshold;
5. controller output, then all state updates with process noise. The
   run's noise is drawn in blocks of NOISE_CHUNK_ROWS steps whose row k is
   (v_k, w_k), in the stream order of a per-step draw: measurement noise
   first, then process noise;
6. triggers are evaluated on this sample's signals for the next step.

Runs step in lockstep: `run_batch` advances R runs, one per seed, together
on states stacked as (R, n, 1) arrays, and a single run is a batch of one.
Each run keeps its own noise stream (`default_rng(seed)`), taps, pending
switches and trigger times, and equals the run of its seed alone bit for
bit. That rests on two facts. `np.matmul(A, X)` on an (R, n, 1) stack calls
the same BLAS gemv (a dot for a row times a state) on every row that
`A @ x` calls on one 1-D state, so every row rounds alike; a single gemm
(`X @ A.T`) or `einsum` orders its fused multiply-adds differently and does
not. And the watermark filters run `watermark.fir_step`, the same
elementwise operations in the same order as `WatermarkUnit.step`.
`test_stacked_matmul_matches_per_row_kernels` pins the first fact for the
installed numpy and BLAS. Identical seeds give bit-identical traces.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DivergenceError, InputError
from .switching import FirParams, SwitchingConfig, _integer, _number, _numbers, sigma
from .watermark import PeriodicTrigger, ThresholdTrigger, admissible_taps, fir_step

log = logging.getLogger(__name__)

STATE_OVERFLOW = 1e12
STATE_OVERFLOW_SQ = STATE_OVERFLOW**2

# The longest accepted run: 500 times the shipped horizon, about 75 MB of
# trace columns and a minute or two of stepping. Longer horizons are refused
# at load, since from some length on numpy cannot even allocate the columns.
MAX_HORIZON = 1_000_000

# The most calibration runs a threshold spec may ask for. Calibration steps
# them as one batch, so this bounds its memory as well as its time.
MAX_CALIBRATION_RUNS = 1000

# Steps of noise drawn at once: one numpy call per block keeps the draw
# cheap, and a fixed block size keeps its memory independent of the horizon
# (1.6 MB for a 200-state plant).
NOISE_CHUNK_ROWS = 1024

__all__ = [
    "NoiseSpec",
    "PlantModel",
    "ControllerModel",
    "ThresholdSpec",
    "DetectorModel",
    "AttackSpec",
    "WatermarkSetup",
    "Scenario",
    "SimTrace",
    "apply_attack",
    "run_scenario",
    "run_batch",
    "resolve_threshold",
    "calibrate_threshold",
]


def _require_mapping(value, path):
    if not isinstance(value, dict):
        raise ConfigError("section must be a JSON object", path=path)
    return value


def _array(value, path, shape_ok, expected) -> np.ndarray:
    """Finite float array whose shape passes `shape_ok`; `expected` names it."""
    try:
        a = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"not numeric: {exc}", path=path) from exc
    if not shape_ok(a.shape):
        raise ConfigError(f"expected {expected}, got shape {a.shape}", path=path)
    if not np.all(np.isfinite(a)):
        raise ConfigError("entries must be finite", path=path)
    return a


def _matrix(value, rows, cols, path):
    """Finite matrix of shape (rows, cols); `cols=None` takes any positive width."""
    return _array(value, path,
                  lambda s: len(s) == 2 and s[0] == rows and (s[1] == cols if cols else s[1] >= 1),
                  f"shape ({rows}, {cols or 'any'})")


def _square(value, path):
    """Finite, non-empty square state matrix; its size is the block's order."""
    return _array(value, path, lambda s: len(s) == 2 and s[0] == s[1] >= 1,
                  "a square non-empty matrix")


def _vector(value, size, path):
    return _array(value, path, lambda s: s == (size,), f"length {size}")


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded-uniform (the default flavor), Gaussian, or no noise."""

    kind: str = "none"
    low: tuple[float, ...] | None = None
    high: tuple[float, ...] | None = None
    mean: tuple[float, ...] | None = None
    std: tuple[float, ...] | None = None

    @property
    def params(self) -> tuple:
        """The two parameter tuples of the kind: (low, high) or (mean, std)."""
        return (self.low, self.high) if self.kind == "uniform" else (self.mean, self.std)

    @classmethod
    def from_dict(cls, data, dim: int, path: str) -> "NoiseSpec":
        """Read and validate a noise section for a `dim`-dimensional signal."""
        if data is None:
            return cls()
        _require_mapping(data, path)
        kind = data.get("kind", "none")
        if kind == "none":
            return cls()
        if kind == "uniform":
            low = _vector(data.get("low"), dim, f"{path}.low")
            high = _vector(data.get("high"), dim, f"{path}.high")
            if np.any(low > high):
                raise ConfigError("low must not exceed high", path=path)
            if not all(math.isfinite(h - l) for l, h in zip(low.tolist(), high.tolist())):
                raise ConfigError("high - low must be finite", path=f"{path}.high")
            return cls("uniform", tuple(low), tuple(high))
        if kind == "normal":
            mean = _vector(data.get("mean"), dim, f"{path}.mean")
            std = _vector(data.get("std"), dim, f"{path}.std")
            if np.any(std < 0):
                raise ConfigError("std must be non-negative", path=path)
            return cls("normal", mean=tuple(mean), std=tuple(std))
        raise ConfigError(f"unknown noise kind {kind!r}", path=path)

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind == "uniform":
            out["low"] = list(self.low)
            out["high"] = list(self.high)
        elif self.kind == "normal":
            out["mean"] = list(self.mean)
            out["std"] = list(self.std)
        return out


@dataclass
class PlantModel:
    """x+ = A x + B u + w,  y = C x + v, with a single measured output."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x0: np.ndarray
    process_noise: NoiseSpec = NoiseSpec()
    measurement_noise: NoiseSpec = NoiseSpec()

    @classmethod
    def from_dict(cls, d, path="plant") -> "PlantModel":
        _require_mapping(d, path)
        A = _square(d.get("A"), f"{path}.A")
        n = A.shape[0]
        return cls(
            A,
            _matrix(d.get("B"), n, None, f"{path}.B"),
            _matrix(d.get("C"), 1, n, f"{path}.C"),
            _vector(d.get("x0", [0.0] * n), n, f"{path}.x0"),
            NoiseSpec.from_dict(d.get("process_noise"), n, f"{path}.process_noise"),
            NoiseSpec.from_dict(d.get("measurement_noise"), 1, f"{path}.measurement_noise"),
        )

    def to_dict(self) -> dict:
        return {
            "A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist(),
            "x0": self.x0.tolist(),
            "process_noise": self.process_noise.to_dict(),
            "measurement_noise": self.measurement_noise.to_dict(),
        }


@dataclass
class ControllerModel:
    """xc+ = A xc + B yq,  u = C xc + D yq."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    x0: np.ndarray

    @classmethod
    def from_dict(cls, d, n_u, path="controller") -> "ControllerModel":
        _require_mapping(d, path)
        A = _square(d.get("A"), f"{path}.A")
        nc = A.shape[0]
        B = _matrix(d.get("B"), nc, 1, f"{path}.B")
        C = _matrix(d.get("C"), n_u, nc, f"{path}.C")
        D = _matrix(d.get("D"), n_u, 1, f"{path}.D")
        x0 = _vector(d.get("x0", [0.0] * nc), nc, f"{path}.x0")
        return cls(A, B, C, D, x0)

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "B": self.B.tolist(), "C": self.C.tolist(),
                "D": self.D.tolist(), "x0": self.x0.tolist()}


@dataclass(frozen=True)
class ThresholdSpec:
    """Constant alarm threshold: fixed ahead of time, or calibrated from
    attack-free runs (quantile of |residual| times a safety factor, floored
    when the scenario is noiseless)."""

    mode: str = "calibrate"
    value: float = 0.0
    runs: int = 100
    quantile: float = 1.0
    safety: float = 1.2
    floor: float = 1e-6

    @classmethod
    def from_dict(cls, d, path="detector.threshold") -> "ThresholdSpec":
        if d is None:
            return cls()
        _require_mapping(d, path)
        mode = d.get("mode", "calibrate")
        if mode not in ("fixed", "calibrate"):
            raise ConfigError(f"unknown threshold mode {mode!r}", path=path)
        spec = cls(
            mode=mode,
            value=_number(d.get("value", 0.0), f"{path}.value"),
            runs=_integer(d.get("runs", 100), f"{path}.runs"),
            quantile=_number(d.get("quantile", 1.0), f"{path}.quantile"),
            safety=_number(d.get("safety", 1.2), f"{path}.safety"),
            floor=_number(d.get("floor", 1e-6), f"{path}.floor"),
        )
        if not 1 <= spec.runs <= MAX_CALIBRATION_RUNS:
            raise ConfigError(f"runs must lie in [1, {MAX_CALIBRATION_RUNS}]", path=f"{path}.runs")
        if not 0.0 < spec.quantile <= 1.0:
            raise ConfigError("quantile must lie in (0, 1]", path=f"{path}.quantile")
        if spec.safety <= 0:
            raise ConfigError("safety factor must be positive", path=f"{path}.safety")
        return spec

    def to_dict(self) -> dict:
        return {"mode": self.mode, "value": self.value, "runs": self.runs,
                "quantile": self.quantile, "safety": self.safety, "floor": self.floor}


@dataclass
class DetectorModel:
    """xr+ = A xr + B u + K yq,  yr = C xr + L yq; A must be Schur stable."""

    A: np.ndarray
    B: np.ndarray
    K: np.ndarray
    C: np.ndarray
    L: np.ndarray
    x0: np.ndarray
    threshold: ThresholdSpec = ThresholdSpec()

    @classmethod
    def from_dict(cls, d, n_u, path="detector") -> "DetectorModel":
        _require_mapping(d, path)
        A = _square(d.get("A"), f"{path}.A")
        nr = A.shape[0]
        B = _matrix(d.get("B"), nr, n_u, f"{path}.B")
        K = _matrix(d.get("K"), nr, 1, f"{path}.K")
        C = _matrix(d.get("C"), 1, nr, f"{path}.C")
        L = _matrix(d.get("L"), 1, 1, f"{path}.L")
        x0 = _vector(d.get("x0", [0.0] * nr), nr, f"{path}.x0")
        if np.abs(np.linalg.eigvals(A)).max() >= 1.0:
            raise ConfigError("detector state matrix must be Schur stable", path=f"{path}.A")
        return cls(A, B, K, C, L, x0, ThresholdSpec.from_dict(d.get("threshold"),
                                                              f"{path}.threshold"))

    def to_dict(self) -> dict:
        return {"A": self.A.tolist(), "B": self.B.tolist(), "K": self.K.tolist(),
                "C": self.C.tolist(), "L": self.L.tolist(), "x0": self.x0.tolist(),
                "threshold": self.threshold.to_dict()}


@dataclass(frozen=True)
class AttackSpec:
    """Channel rewrite active from step `start` on.

    kinds: none; replay (resend the channel value recorded `window` steps
    earlier, applied as an additive difference); bias (add a constant);
    inject (additive term from a user callable over the recorded window,
    programmatic use only, not serializable).
    """

    kind: str = "none"
    start: int = 0
    window: int = 0
    magnitude: float = 0.0
    inject: object = None

    @classmethod
    def from_dict(cls, d, path="attack") -> "AttackSpec":
        if d is None:
            return cls()
        _require_mapping(d, path)
        kind = d.get("kind", "none")
        if kind not in ("none", "replay", "bias"):
            raise ConfigError(f"unknown attack kind {kind!r}", path=path)
        spec = cls(
            kind=kind,
            start=_integer(d.get("start", 0), f"{path}.start"),
            window=_integer(d.get("window", 0), f"{path}.window"),
            magnitude=_number(d.get("magnitude", 0.0), f"{path}.magnitude"),
        )
        if kind == "replay" and spec.window < 1:
            raise ConfigError("replay needs a positive window", path=f"{path}.window")
        if kind != "none" and spec.start < 0:
            raise ConfigError("start must be non-negative", path=f"{path}.start")
        return spec

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind != "none":
            out["start"] = self.start
        if self.kind == "replay":
            out["window"] = self.window
        if self.kind == "bias":
            out["magnitude"] = self.magnitude
        return out


def apply_attack(y_w, history, spec: AttackSpec, k: int) -> tuple:
    """Channel value seen by the remover at step k, plus a deferral flag.

    `history` holds the true transmitted values up to and including step k.
    Before `spec.start` the channel is untouched. A replay whose window
    reaches before step 0 defers activation (the flag reports it) until
    enough history exists. `y_w` may also be one step of a lockstep batch,
    shape (R, 1, 1) with `history` of shape (steps, R, 1, 1); an inject
    callable is then called once per run on that run's window.
    """
    if spec.kind == "none" or k < spec.start:
        return y_w, False
    if spec.kind == "bias":
        return y_w + spec.magnitude, False
    if spec.kind == "replay":
        j = k - spec.window
        if j < 0:
            return y_w, True
        return y_w + (history[j] - y_w), False
    if spec.kind == "inject":
        window = np.asarray(history[max(0, k - spec.window):k + 1])
        if np.ndim(y_w) == 0:
            return y_w + float(spec.inject(window, k)), False
        terms = [float(spec.inject(np.ascontiguousarray(window[:, i, 0, 0]), k))
                 for i in range(len(y_w))]
        return y_w + np.reshape(terms, np.shape(y_w)), False
    raise ValueError(f"unknown attack kind {spec.kind!r}")


@dataclass
class WatermarkSetup:
    """Watermarking side of a scenario: the shared switching configuration,
    the trigger rule ('none' keeps the starting taps for the whole run), and
    the starting taps ('auto' derives them from the switching map applied to
    0.0, a convention both endpoints share). A scenario without watermark
    holds None in its place."""

    config: SwitchingConfig
    trigger: str = "periodic"  # periodic | threshold | none
    period: int = 50
    bound: float = 0.0
    theta0: FirParams | None = None

    @classmethod
    def from_dict(cls, d, path="watermark") -> "WatermarkSetup | None":
        """None (no watermark) for a missing section or `"enabled": false`."""
        if d is None:
            return None
        _require_mapping(d, path)
        enabled = d.get("enabled", True)
        if not isinstance(enabled, bool):
            raise ConfigError(f"expected true or false, got {enabled!r}", path=f"{path}.enabled")
        if not enabled:
            return None
        if "config" not in d:
            raise ConfigError("missing switching configuration", path=f"{path}.config")
        config = SwitchingConfig.from_dict(d["config"], path=f"{path}.config")
        proto = _require_mapping(d.get("protocol", {"trigger": "periodic", "period": 50}),
                                 f"{path}.protocol")
        trigger = proto.get("trigger", "periodic")
        if trigger not in ("periodic", "threshold", "none"):
            raise ConfigError(f"unknown trigger {trigger!r}", path=f"{path}.protocol")
        period = _integer(proto.get("period", 50), f"{path}.protocol.period")
        if trigger == "periodic" and period < 1:
            raise ConfigError("period must be positive", path=f"{path}.protocol.period")
        bound = _number(proto.get("bound", 0.0), f"{path}.protocol.bound")
        theta0 = d.get("theta0", "auto")
        if theta0 == "auto" or theta0 is None:
            theta0 = None
        elif isinstance(theta0, list) and len(theta0) == config.n_h + 1:
            theta0 = FirParams(_numbers(theta0, f"{path}.theta0"))
        else:
            raise ConfigError(f'expected "auto" or a list of {config.n_h + 1} taps',
                              path=f"{path}.theta0")
        return cls(config=config, trigger=trigger, period=period, bound=bound, theta0=theta0)

    def to_dict(self) -> dict:
        proto: dict = {"trigger": self.trigger}
        if self.trigger == "periodic":
            proto["period"] = self.period
        if self.trigger == "threshold":
            proto["bound"] = self.bound
        return {
            "config": self.config.to_dict(),
            "protocol": proto,
            "theta0": list(self.theta0.taps) if self.theta0 is not None else "auto",
        }

    def make_trigger(self):
        if self.trigger == "periodic":
            return PeriodicTrigger(self.period)
        if self.trigger == "threshold":
            return ThresholdTrigger(self.bound)
        return None

    def initial_theta(self) -> FirParams:
        if self.theta0 is not None:
            return self.theta0
        return sigma(0.0, self.config)


@dataclass
class Scenario:
    """One complete closed-loop setup, loadable from a JSON file."""

    plant: PlantModel
    controller: ControllerModel
    detector: DetectorModel
    watermark: WatermarkSetup | None  # None runs the loop without watermark
    attack: AttackSpec = AttackSpec()
    horizon: int = 1000
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict, path: str = "scenario") -> "Scenario":
        if not isinstance(data, dict):
            raise ConfigError("scenario must be a JSON object", path=path)
        for key in ("plant", "controller", "detector"):
            if key not in data:
                raise ConfigError("missing required section", path=f"{path}.{key}")
        horizon = _integer(data.get("horizon", 1000), f"{path}.horizon")
        if not 1 <= horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [1, {MAX_HORIZON}]", path=f"{path}.horizon")
        plant = PlantModel.from_dict(data["plant"], f"{path}.plant")
        n_u = plant.B.shape[1]
        controller = ControllerModel.from_dict(data["controller"], n_u, f"{path}.controller")
        detector = DetectorModel.from_dict(data["detector"], n_u, f"{path}.detector")
        scenario = cls(
            plant=plant,
            controller=controller,
            detector=detector,
            watermark=WatermarkSetup.from_dict(data.get("watermark"), f"{path}.watermark"),
            attack=AttackSpec.from_dict(data.get("attack"), f"{path}.attack"),
            horizon=horizon,
            seed=_integer(data.get("seed", 0), f"{path}.seed"),
        )
        if scenario.seed < 0:
            raise ConfigError("seed must be non-negative", path=f"{path}.seed")
        scenario.check_closed_loop(path=path)
        return scenario

    def check_closed_loop(self, path: str = "scenario") -> None:
        """The loop plant + controller (watermark transparent) must be Schur."""
        A_p, B_p, C_p = self.plant.A, self.plant.B, self.plant.C
        A_c, B_c, C_c, D_c = (self.controller.A, self.controller.B,
                              self.controller.C, self.controller.D)
        top = np.hstack([A_p + B_p @ D_c @ C_p, B_p @ C_c])
        bottom = np.hstack([B_c @ C_p, A_c])
        closed = np.vstack([top, bottom])
        # finite entries can still overflow in the products above
        finite = np.all(np.isfinite(closed))
        radius = float(np.abs(np.linalg.eigvals(closed)).max()) if finite else math.inf
        if radius >= 1.0:
            raise ConfigError(
                f"closed loop is not Schur stable (spectral radius {radius:.4f})",
                path=f"{path}.controller",
            )

    @classmethod
    def from_json(cls, text: str, path: str = "scenario") -> "Scenario":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", path=path) from exc
        return cls.from_dict(data, path=path)

    @classmethod
    def load(cls, filename) -> "Scenario":
        with open(filename, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read(), path=str(filename))

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "seed": self.seed,
            "plant": self.plant.to_dict(),
            "controller": self.controller.to_dict(),
            "detector": self.detector.to_dict(),
            "watermark": self.watermark.to_dict() if self.watermark is not None else None,
            "attack": self.attack.to_dict(),
        }

    def save(self, filename) -> None:
        with open(filename, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def without_attack(self) -> "Scenario":
        return replace(self, attack=AttackSpec())


@dataclass
class SimTrace:
    """Time-indexed record of one run; length equals the horizon.

    `taps` is the sparse tap record: `(k, generator_taps, remover_taps)` at
    k = 0 and at every step where `switch[k]` is set, empty without
    watermark. Taps are piecewise constant, so the taps in force at step k
    are those of the last entry at or before k.
    """

    k: np.ndarray
    y_p: np.ndarray
    y_w: np.ndarray
    y_w_tilde: np.ndarray
    y_q: np.ndarray
    u: np.ndarray
    y_r: np.ndarray
    y_r_bar: np.ndarray
    alarm: np.ndarray
    switch: np.ndarray
    taps: list
    trigger_times_generator: list
    trigger_times_remover: list
    metadata: dict = field(default_factory=dict)

    CSV_HEADER = "k,y_p,y_w,y_w_tilde,y_q,u,y_r,y_r_bar,alarm,switch"

    def __len__(self):
        return len(self.k)

    @property
    def alarm_steps(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.alarm)]

    @property
    def switch_steps(self) -> list[int]:
        """Steps at which new taps were applied (trigger time + 1)."""
        return [int(i) for i in np.flatnonzero(self.switch)]

    @property
    def max_reconstruction_error(self) -> float:
        return float(np.abs(self.y_q - self.y_p).max())

    def summary(self) -> dict:
        alarms = self.alarm_steps
        return {
            "steps": len(self),
            "seed": self.metadata.get("seed"),
            "threshold": self.metadata.get("threshold"),
            "n_alarms": len(alarms),
            "alarm_steps": alarms,
            "first_alarm": alarms[0] if alarms else None,
            "switch_steps": self.switch_steps,
            "trigger_times_generator": list(self.trigger_times_generator),
            "trigger_times_remover": list(self.trigger_times_remover),
            "max_reconstruction_error": self.max_reconstruction_error,
        }

    def to_csv(self, filename) -> None:
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for i in range(len(self)):
                fields = [str(int(self.k[i]))]
                fields += [
                    repr(float(column[i]))
                    for column in (self.y_p, self.y_w, self.y_w_tilde,
                                   self.y_q, self.u, self.y_r, self.y_r_bar)
                ]
                fields += [str(int(self.alarm[i])), str(int(self.switch[i]))]
                fh.write(",".join(fields) + "\n")

    def write_outputs(self, outdir) -> dict:
        """Write trace.csv, summary.json, and the scenario metadata sidecar."""
        from pathlib import Path

        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / "trace.csv"
        self.to_csv(trace_path)
        with open(out / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")
        with open(out / "trace_meta.json", "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2)
            fh.write("\n")
        return {"trace": str(trace_path), "summary": str(out / "summary.json"),
                "metadata": str(out / "trace_meta.json")}


def _noise_chunks(rng: np.random.Generator, plant: PlantModel, n: int):
    """The noise of an n-step run as consecutive (rows, 1 + n_x) blocks of
    NOISE_CHUNK_ROWS rows (the last may be shorter); row k is (v_k, w_k).

    Values and stream order equal a per-step draw of the measurement noise,
    then the process noise: numpy fills a draw in C order, so consecutive
    blocks continue one stream. Sources of one kind (a `none` source draws
    nothing) take one call per block with their parameters concatenated;
    uniform mixed with normal noise is drawn row by row.
    """
    width = 1 + plant.A.shape[0]
    sources = [(spec, cols) for spec, cols in ((plant.measurement_noise, slice(0, 1)),
                                               (plant.process_noise, slice(1, None)))
               if spec.kind != "none"]
    draw = {"uniform": rng.uniform, "normal": rng.normal}
    one_kind = len({spec.kind for spec, _ in sources}) == 1
    if one_kind:
        kind = sources[0][0].kind
        a = sum((spec.params[0] for spec, _ in sources), ())
        b = sum((spec.params[1] for spec, _ in sources), ())
        cols = slice(sources[0][1].start, sources[-1][1].stop)
    for start in range(0, n, NOISE_CHUNK_ROWS):
        rows = min(NOISE_CHUNK_ROWS, n - start)
        if one_kind and len(sources) == 2:
            # both sources: the draw is the whole block
            yield draw[kind](a, b, (rows, width))
            continue
        block = np.zeros((rows, width))
        if one_kind:
            block[:, cols] = draw[kind](a, b, (rows, len(a)))
        elif sources:
            for row in block:
                for spec, cols in sources:
                    row[cols] = draw[spec.kind](*spec.params)
        yield block


def calibrate_threshold(scenario: Scenario) -> float:
    """Constant detector threshold from attack-free runs.

    Steps the spec's `runs` seeded runs as one lockstep batch, pools their
    |residual| and returns its `quantile` (1.0 means the maximum) times its
    `safety` factor; a zero result (noiseless scenario) is floored at the
    spec's `floor`. Only the residual column of the runs is kept.
    Calibration seeds derive from the scenario seed, so the value is
    reproducible and independent of any per-run seed override used
    afterwards. A diverging run raises DivergenceError as in `run_batch`.
    """
    if scenario.attack.kind != "none":
        raise ValueError("threshold calibration requires an attack-free scenario")
    spec = scenario.detector.threshold
    base = scenario.seed + 1_000_003
    seeds = range(base, base + spec.runs)
    residual = _lockstep(scenario, seeds, scenario.horizon, residual_only=True)[0]["y_r"]
    value = float(np.quantile(np.abs(residual), spec.quantile)) * spec.safety
    return value if value > 0.0 else spec.floor


def resolve_threshold(scenario: Scenario) -> float:
    """The constant detector threshold of a scenario: the fixed spec value, or
    a calibration (see `calibrate_threshold`) over its attack-free variant."""
    spec = scenario.detector.threshold
    if spec.mode == "fixed":
        return float(spec.value)
    return calibrate_threshold(scenario.without_attack())


def run_scenario(scenario: Scenario, *, horizon: int | None = None,
                 seed: int | None = None, threshold: float | None = None) -> SimTrace:
    """Execute one closed-loop run (the scenario's seed unless `seed` is
    given) and return its trace: `run_batch` over that one seed."""
    seed = scenario.seed if seed is None else seed
    return run_batch(scenario, [seed], horizon=horizon, threshold=threshold)[0]


def run_batch(scenario: Scenario, seeds, *, horizon: int | None = None,
              threshold: float | None = None) -> list[SimTrace]:
    """Execute one closed-loop run per seed, all in lockstep, and return
    their traces in seed order; each equals the run of its seed alone.

    `threshold` overrides the detector threshold (calibration runs with
    inf); without it `resolve_threshold` supplies one, calibrating here if
    the spec asks for it.

    Divergence stops the whole batch: DivergenceError reports the earliest
    step at which any run's state leaves the overflow guard, the lowest run
    index among the runs failing at that step, and that run's first
    offending block (plant, controller, detector order) with its peak. A
    single run reports what it reports alone.
    """
    horizon = scenario.horizon if horizon is None else int(horizon)
    thr = resolve_threshold(scenario) if threshold is None else float(threshold)
    seeds = list(seeds)
    columns, switch, taps, times_w, times_q = _lockstep(scenario, seeds, horizon)
    # one contiguous (horizon,) row per run
    rows = {name: np.ascontiguousarray(column.T) for name, column in columns.items()}
    alarm = np.abs(rows["y_r"]) > thr
    switch = np.ascontiguousarray(switch.T)
    return [
        SimTrace(
            k=np.arange(horizon),
            y_p=rows["y_p"][i], y_w=rows["y_w"][i], y_w_tilde=rows["y_w_tilde"][i],
            y_q=rows["y_q"][i], u=rows["u"][i], y_r=rows["y_r"][i],
            y_r_bar=np.full(horizon, thr), alarm=alarm[i], switch=switch[i],
            taps=taps[i], trigger_times_generator=times_w[i],
            trigger_times_remover=times_q[i],
            metadata={"seed": seed, "threshold": thr, "horizon": horizon,
                      "attack": scenario.attack.to_dict(), "scenario": scenario.to_dict()},
        )
        for i, seed in enumerate(seeds)
    ]


# trace columns the loop writes: one (R, 1, 1) entry of each per step
_COLUMNS = ("y_p", "y_w", "y_w_tilde", "y_q", "u", "y_r")


def _check_step(k: int, signals, states) -> None:
    """The guard behind a failed pre-test at step k. For the lowest run index
    that fails, raise InputError for a non-finite watermark input (as
    WatermarkUnit.step does), else DivergenceError for its first state block
    beyond STATE_OVERFLOW or non-finite."""
    peaks = [np.abs(x).max(axis=(1, 2)) for x in states]
    failing = [~np.isfinite(s).ravel() for s in signals] + [~(p <= STATE_OVERFLOW) for p in peaks]
    runs = np.flatnonzero(np.any(failing, axis=0))
    if not runs.size:
        return
    i = runs[0]
    for signal in signals:
        value = float(signal[i, 0, 0])
        if not math.isfinite(value):
            raise InputError(f"sample must be finite, got {value!r}")
    for name, peak in zip(("plant", "controller", "detector"), peaks):
        if not peak[i] <= STATE_OVERFLOW:
            raise DivergenceError(name, k, float(peak[i]))


# a state that overflows is reported by the divergence guard, not by numpy
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(scenario: Scenario, seeds, horizon: int, residual_only=False):
    """Step one run per seed in lockstep; the loop behind every run.

    Returns the trace columns as (horizon, R) arrays (only y_r with
    `residual_only`), the (horizon, R) switch flags and, per run, its sparse
    tap record and its generator and remover trigger times. Besides the
    columns, the loop holds one block of NOISE_CHUNK_ROWS steps of noise.
    `residual_only` needs an attack-free scenario: no y_w column to replay.
    """
    plant, ctrl, det = scenario.plant, scenario.controller, scenario.detector
    wm, attack = scenario.watermark, scenario.attack
    seeds = list(seeds)
    n_runs = len(seeds)
    matmul = np.matmul

    # states stacked as (R, n, 1): see the module docstring for why
    x_p, x_c, x_r = (np.tile(x0[:, None], (n_runs, 1, 1)) for x0 in (plant.x0, ctrl.x0, det.x0))
    c_p, c_r, l_r = plant.C, det.C, float(det.L[0, 0])
    noise = [_noise_chunks(np.random.default_rng(seed), plant, horizon) for seed in seeds]

    names = ("y_r",) if residual_only else _COLUMNS
    cols = {name: np.zeros((horizon, n_runs, 1, 1)) for name in names}
    history = cols.get("y_w")  # what replay and inject read back
    switch = np.zeros((horizon, n_runs), dtype=bool)
    tap_record = [[] for _ in seeds]
    times_w, times_q = [[] for _ in seeds], [[] for _ in seeds]

    # without watermark there is no trigger, so no switch is ever pending
    trigger = None if wm is None else wm.make_trigger()
    if wm is not None:
        theta = admissible_taps(wm.initial_theta())
        taps_w, taps_q = [theta] * n_runs, [theta] * n_runs
        # per-run taps as one (n_taps, R, 1, 1) table per endpoint; b_w[m] is tap m of every run
        table_w, table_q = (np.tile(np.array(theta)[:, None, None, None], (1, n_runs, 1, 1))
                            for _ in range(2))
        b_w, b_q = list(table_w), list(table_q)
        reg_w = reg_q = (np.zeros((n_runs, 1, 1)),) * (len(theta) - 1)
        for record in tap_record:
            record.append((0, theta, theta))
    pend_w, pend_q = {}, {}  # run index -> the signal its trigger fired on
    replay_deferred_logged = False

    for start in range(0, horizon, NOISE_CHUNK_ROWS):
        # every run's next noise block side by side: (rows, R, 1 + n_x)
        rows = min(NOISE_CHUNK_ROWS, horizon - start)
        block = np.empty((rows, n_runs, 1 + plant.A.shape[0]))
        for i, run in enumerate(noise):
            block[:, i] = next(run)
        v, w = block[:, :, :1, None], block[:, :, 1:, None]
        c_yp, c_yw, c_ywt, c_yq, c_u, c_yr = (
            cols[name][start:start + rows] if name in cols else None for name in _COLUMNS)

        for j in range(rows):
            k = start + j

            # 1. apply pending switches (between samples)
            if pend_w or pend_q:
                for pend, current, table in ((pend_w, taps_w, table_w), (pend_q, taps_q, table_q)):
                    for i, signal in pend.items():
                        current[i] = admissible_taps(sigma(signal, wm.config), len(theta))
                        table[:, i, 0, 0] = current[i]
                for i in sorted(pend_w.keys() | pend_q.keys()):
                    switch[k, i] = True
                    tap_record[i].append((k, taps_w[i], taps_q[i]))
                pend_w, pend_q = {}, {}

            # 2. plant output
            y_p = matmul(c_p, x_p) + v[j]

            # 3. watermark, channel, attack, remover
            y_w = y_p if wm is None else fir_step(b_w, reg_w, y_p, True)
            if not residual_only:
                c_yw[j] = y_w
            y_wt, deferred = apply_attack(y_w, history, attack, k)
            if deferred and not replay_deferred_logged:
                log.warning(
                    "replay attack at step %d lacks %d steps of history; activation deferred",
                    k, attack.window - k,
                )
                replay_deferred_logged = True
            if wm is None:
                y_q = y_wt
            else:
                y_q = fir_step(b_q, reg_q, y_wt, False)
                reg_w, reg_q = (y_p,) + reg_w[:-1], (y_q,) + reg_q[:-1]

            # 4. detector residual (the alarm test runs over the whole column afterwards)
            y_r = matmul(c_r, x_r) + l_r * y_q

            # 5. controller output and state updates
            u = matmul(ctrl.C, x_c) + ctrl.D * y_q
            x_p = matmul(plant.A, x_p) + matmul(plant.B, u) + w[j]
            x_c = matmul(ctrl.A, x_c) + ctrl.B * y_q
            x_r = matmul(det.A, x_r) + matmul(det.B, u) + det.K * y_q
            # exact pre-test: the batch's sum of squares stays within the
            # squared bound only if every entry is finite and within STATE_OVERFLOW
            if not np.vdot(x_p, x_p) + np.vdot(x_c, x_c) + np.vdot(x_r, x_r) <= STATE_OVERFLOW_SQ:
                _check_step(k, () if wm is None else (y_p, y_wt), (x_p, x_c, x_r))

            # 6. triggers for the next step, keyed on this sample's signals
            if trigger is not None:
                for pend, times, signal in ((pend_w, times_w, y_p), (pend_q, times_q, y_q)):
                    fired = trigger.fires(k, signal)  # one bool for all runs, or one per run
                    if fired is not False and np.any(fired):
                        for i in np.flatnonzero(np.broadcast_to(fired, signal.shape)):
                            times[i].append(k)
                            pend[i] = float(signal[i, 0, 0])

            c_yr[j] = y_r
            if not residual_only:
                c_yp[j], c_ywt[j], c_yq[j], c_u[j] = y_p, y_wt, y_q, u[:, :1]

    columns = {name: cols[name].reshape(horizon, n_runs) for name in names}
    return columns, switch, tap_record, times_w, times_q
