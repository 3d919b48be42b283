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
   run's noise is drawn before the first step as one block whose row k is
   (v_k, w_k), in the stream order of a per-step draw: measurement noise
   first, then process noise;
6. triggers are evaluated on this sample's signals for the next step.

One run is strictly sequential; runs with different seeds share no state
and may execute in parallel. Identical seeds give bit-identical traces.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DivergenceError
from .switching import FirParams, SwitchingConfig, _integer, _number, _numbers, sigma
from .watermark import PeriodicTrigger, SwitchProtocol, ThresholdTrigger, make_pair

log = logging.getLogger(__name__)

STATE_OVERFLOW = 1e12
STATE_OVERFLOW_SQ = STATE_OVERFLOW**2

# The longest accepted run: 500 times the shipped horizon, about 75 MB of
# trace columns and a minute or two of stepping. Longer horizons are refused
# at load, since from some length on numpy cannot even allocate the columns.
MAX_HORIZON = 1_000_000

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
        if spec.runs < 1:
            raise ConfigError("runs must be positive", path=f"{path}.runs")
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


def apply_attack(y_w: float, history, spec: AttackSpec, k: int) -> tuple[float, bool]:
    """Channel value seen by the remover at step k, plus a deferral flag.

    `history` holds the true transmitted values up to and including step k.
    Before `spec.start` the channel is untouched. A replay whose window
    reaches before step 0 defers activation (the flag reports it) until
    enough history exists.
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
        lo = max(0, k - spec.window)
        return y_w + float(spec.inject(np.asarray(history[lo:k + 1]), k)), False
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


def _check_state(name: str, state: np.ndarray, step: int) -> None:
    peak = float(np.abs(state).max()) if state.size else 0.0
    if not math.isfinite(peak) or peak > STATE_OVERFLOW:
        raise DivergenceError(name, step, peak)


def _noise_block(rng: np.random.Generator, plant: PlantModel, n: int) -> np.ndarray:
    """The noise of an n-step run as an (n, 1 + n_x) block; row k is (v_k, w_k).

    Values and stream order equal a per-step draw of the measurement noise,
    then the process noise. Sources of one kind (a `none` source draws
    nothing) take one call with their parameters concatenated; uniform mixed
    with normal noise is drawn row by row.
    """
    block = np.zeros((n, 1 + plant.A.shape[0]))
    sources = [(spec, cols) for spec, cols in ((plant.measurement_noise, slice(0, 1)),
                                               (plant.process_noise, slice(1, None)))
               if spec.kind != "none"]
    draw = {"uniform": rng.uniform, "normal": rng.normal}
    if len({spec.kind for spec, _ in sources}) == 1:
        a = sum((spec.params[0] for spec, _ in sources), ())
        b = sum((spec.params[1] for spec, _ in sources), ())
        cols = slice(sources[0][1].start, sources[-1][1].stop)
        block[:, cols] = draw[sources[0][0].kind](a, b, (n, len(a)))
    elif sources:
        for row in block:
            for spec, cols in sources:
                row[cols] = draw[spec.kind](*spec.params)
    return block


def calibrate_threshold(scenario: Scenario) -> float:
    """Constant detector threshold from attack-free runs.

    Pools |residual| over the spec's `runs` seeded runs and returns its
    `quantile` (1.0 means the maximum) times its `safety` factor; a zero
    result (noiseless scenario) is floored at the spec's `floor`.
    Calibration seeds derive from the scenario seed, so the value is
    reproducible and independent of any per-run seed override used
    afterwards.
    """
    if scenario.attack.kind != "none":
        raise ValueError("threshold calibration requires an attack-free scenario")
    spec = scenario.detector.threshold
    base = scenario.seed + 1_000_003
    samples = []
    for i in range(spec.runs):
        trace = run_scenario(scenario, seed=base + i, threshold=math.inf)
        samples.append(np.abs(trace.y_r))
    pooled = np.concatenate(samples)
    value = float(np.quantile(pooled, spec.quantile)) * spec.safety
    return value if value > 0.0 else spec.floor


def resolve_threshold(scenario: Scenario) -> float:
    """The constant detector threshold of a scenario: the fixed spec value, or
    a calibration (see `calibrate_threshold`) over its attack-free variant."""
    spec = scenario.detector.threshold
    if spec.mode == "fixed":
        return float(spec.value)
    return calibrate_threshold(scenario.without_attack())


# a state that overflows is reported by the divergence guard, not by numpy
@np.errstate(over="ignore")
def run_scenario(scenario: Scenario, *, horizon: int | None = None,
                 seed: int | None = None, threshold: float | None = None) -> SimTrace:
    """Execute one closed-loop run and return its trace.

    `threshold` overrides the detector threshold (calibration runs with
    inf); without it `resolve_threshold` supplies one, calibrating here if
    the spec asks for it. The run's noise is drawn before the first step:
    row k of the block is (v_k, w_k), in the stream order of a per-step
    draw (measurement noise first, process noise second).
    """
    horizon = scenario.horizon if horizon is None else int(horizon)
    seed = scenario.seed if seed is None else seed
    thr = resolve_threshold(scenario) if threshold is None else float(threshold)

    plant, ctrl, det = scenario.plant, scenario.controller, scenario.detector
    wm, attack = scenario.watermark, scenario.attack

    x_p = plant.x0.copy()
    x_c = ctrl.x0.copy()
    x_r = det.x0.copy()

    # hoisted views for the per-step scalar taps
    c_p_row = plant.C[0]
    c_r_row = det.C[0]
    l_r = float(det.L[0, 0])
    b_c_col = ctrl.B[:, 0]
    d_c_col = ctrl.D[:, 0]
    k_r_col = det.K[:, 0]

    # without watermark the protocols have no trigger, so no switch is ever pending
    trigger = None if wm is None else wm.make_trigger()
    proto_w, proto_q = SwitchProtocol(trigger), SwitchProtocol(trigger)
    tap_record = []
    if wm is not None:
        generator, remover = make_pair(wm.initial_theta())
        tap_record.append((0, generator.taps, remover.taps))

    n = horizon
    arr = lambda: np.zeros(n)
    t_yp, t_yw, t_ywt, t_yq = arr(), arr(), arr(), arr()
    t_u, t_yr = arr(), arr()
    t_alarm = np.zeros(n, dtype=bool)
    t_switch = np.zeros(n, dtype=bool)
    y_w_history = np.zeros(n)

    pend_w = pend_q = False
    pend_w_input = pend_q_input = 0.0
    replay_deferred_logged = False
    noise = _noise_block(np.random.default_rng(seed), plant, n)
    v_col, w_blk = noise[:, 0].tolist(), noise[:, 1:]

    for k in range(n):
        # 1. apply pending switches (between samples)
        if pend_w or pend_q:
            if pend_w:
                generator.set_params(sigma(pend_w_input, wm.config))
                pend_w = False
            if pend_q:
                remover.set_params(sigma(pend_q_input, wm.config))
                pend_q = False
            t_switch[k] = True
            tap_record.append((k, generator.taps, remover.taps))

        # 2. plant output
        y_p = float(c_p_row.dot(x_p)) + v_col[k]

        # 3. watermark, channel, attack, remover
        y_w = y_p if wm is None else generator.step(y_p)
        y_w_history[k] = y_w
        y_wt, deferred = apply_attack(y_w, y_w_history, attack, k)
        if deferred and not replay_deferred_logged:
            log.warning(
                "replay attack at step %d lacks %d steps of history; activation deferred",
                k, attack.window - k,
            )
            replay_deferred_logged = True
        y_q = y_wt if wm is None else remover.step(y_wt)

        # 4. detector residual and alarm test
        y_r = float(c_r_row.dot(x_r)) + l_r * y_q
        alarm = abs(y_r) > thr

        # 5. controller output and state updates
        u = ctrl.C @ x_c + d_c_col * y_q
        x_p = plant.A @ x_p + plant.B @ u + w_blk[k]
        x_c = ctrl.A @ x_c + b_c_col * y_q
        x_r = det.A @ x_r + det.B @ u + k_r_col * y_q
        # exact pre-test: the sum of squares stays within the squared bound
        # only if every entry is finite and within STATE_OVERFLOW
        if not x_p.dot(x_p) + x_c.dot(x_c) + x_r.dot(x_r) <= STATE_OVERFLOW_SQ:
            _check_state("plant", x_p, k)
            _check_state("controller", x_c, k)
            _check_state("detector", x_r, k)

        # 6. triggers for the next step, keyed on this sample's signals
        if proto_w.check(k, y_p):
            pend_w, pend_w_input = True, y_p
        if proto_q.check(k, y_q):
            pend_q, pend_q_input = True, y_q

        t_yp[k], t_yw[k], t_ywt[k], t_yq[k] = y_p, y_w, y_wt, y_q
        t_u[k] = float(u[0])
        t_yr[k] = y_r
        t_alarm[k] = alarm

    return SimTrace(
        k=np.arange(n),
        y_p=t_yp, y_w=t_yw, y_w_tilde=t_ywt, y_q=t_yq,
        u=t_u, y_r=t_yr, y_r_bar=np.full(n, thr),
        alarm=t_alarm, switch=t_switch, taps=tap_record,
        trigger_times_generator=list(proto_w.switch_times),
        trigger_times_remover=list(proto_q.switch_times),
        metadata={"seed": seed, "threshold": thr, "horizon": n,
                  "attack": attack.to_dict(), "scenario": scenario.to_dict()},
    )
