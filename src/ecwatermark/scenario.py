"""The closed-loop scenario file, one dataclass per section.

Each section's `from_dict` reads its JSON object through the `schema`
readers, so a malformed file is a ConfigError with the field's path, and
the limits below bound the work a file may ask for. `apply_attack` is the
attack section's channel rewrite, which the loop in `sim` calls per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParameterError
from .schema import (choice, fields, integer, json_document, matrix, number, numbers, required,
                     section, square, vector)
from .switching import SwitchingConfig, admissible_taps, sigma

# The longest accepted run: 500 times the shipped horizon, about 75 MB of
# trace columns and a minute or two of stepping. Longer horizons are refused
# at load, since from some length on numpy cannot even allocate the columns.
MAX_HORIZON = 1_000_000

# The most calibration runs a threshold spec may ask for. Calibration steps
# them as one batch, so this bounds its memory as well as its time.
MAX_CALIBRATION_RUNS = 1000

# The most run-steps (runs x horizon) one calibration may take: 10 runs of
# the longest horizon, about a minute of stepping. It bounds the pooled
# residual column to 80 MB.
MAX_CALIBRATION_STEPS = 10**7

# the parameters of each noise kind, as NoiseSpec.params holds them
_NOISE_PARAMS = {"none": (), "uniform": ("low", "high"), "normal": ("mean", "std")}


@dataclass(frozen=True)
class NoiseSpec:
    """Bounded-uniform (the default flavor), Gaussian, or no noise."""

    kind: str = "none"
    params: tuple = ()  # (low, high) or (mean, std), one tuple per parameter

    @classmethod
    def from_dict(cls, data, dim: int, path: str) -> "NoiseSpec":
        """Read and validate a noise section for a `dim`-dimensional signal."""
        if data is None:
            return cls()
        kind = choice(*_NOISE_PARAMS)(section(data, path).get("kind", cls.kind), f"{path}.kind")
        names = _NOISE_PARAMS[kind]
        section(data, path, ("kind", *names))
        if kind == "none":
            return cls()
        a, b = (vector(required(data, name, path), dim, f"{path}.{name}") for name in names)
        if kind == "uniform":
            if np.any(a > b):
                raise ConfigError("low must not exceed high", path=path)
            if not all(math.isfinite(h - l) for l, h in zip(a.tolist(), b.tolist())):
                raise ConfigError("high - low must be finite", path=f"{path}.high")
        elif np.any(b < 0):
            raise ConfigError("std must be non-negative", path=path)
        return cls(kind, (tuple(a), tuple(b)))

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
        section(d, path, ("A", "B", "C", "x0", "process_noise", "measurement_noise"))
        A = square(required(d, "A", path), f"{path}.A")
        n = A.shape[0]
        return cls(
            A,
            matrix(required(d, "B", path), n, None, f"{path}.B"),
            matrix(required(d, "C", path), 1, n, f"{path}.C"),
            vector(d.get("x0", [0.0] * n), n, f"{path}.x0"),
            NoiseSpec.from_dict(d.get("process_noise"), n, f"{path}.process_noise"),
            NoiseSpec.from_dict(d.get("measurement_noise"), 1, f"{path}.measurement_noise"),
        )

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
        section(d, path, ("A", "B", "C", "D", "x0"))
        A = square(required(d, "A", path), f"{path}.A")
        nc = A.shape[0]
        B = matrix(required(d, "B", path), nc, 1, f"{path}.B")
        C = matrix(required(d, "C", path), n_u, nc, f"{path}.C")
        D = matrix(required(d, "D", path), n_u, 1, f"{path}.D")
        x0 = vector(d.get("x0", [0.0] * nc), nc, f"{path}.x0")
        return cls(A, B, C, D, x0)

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
        spec = cls(**fields(d, path, {"mode": choice("fixed", "calibrate"), "value": number,
                                      "runs": integer, "quantile": number, "safety": number,
                                      "floor": number}))
        if not 1 <= spec.runs <= MAX_CALIBRATION_RUNS:
            raise ConfigError(f"runs must lie in [1, {MAX_CALIBRATION_RUNS}]", path=f"{path}.runs")
        if not 0.0 < spec.quantile <= 1.0:
            raise ConfigError("quantile must lie in (0, 1]", path=f"{path}.quantile")
        if spec.safety <= 0:
            raise ConfigError("safety factor must be positive", path=f"{path}.safety")
        for name in ("value", "floor"):
            if getattr(spec, name) < 0:
                raise ConfigError(f"{name} must be non-negative", path=f"{path}.{name}")
        return spec

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
        section(d, path, ("A", "B", "K", "C", "L", "x0", "threshold"))
        A = square(required(d, "A", path), f"{path}.A")
        nr = A.shape[0]
        B = matrix(required(d, "B", path), nr, n_u, f"{path}.B")
        K = matrix(required(d, "K", path), nr, 1, f"{path}.K")
        C = matrix(required(d, "C", path), 1, nr, f"{path}.C")
        L = matrix(required(d, "L", path), 1, 1, f"{path}.L")
        x0 = vector(d.get("x0", [0.0] * nr), nr, f"{path}.x0")
        if np.abs(np.linalg.eigvals(A)).max() >= 1.0:
            raise ConfigError("detector state matrix must be Schur stable", path=f"{path}.A")
        return cls(A, B, K, C, L, x0, ThresholdSpec.from_dict(d.get("threshold"),
                                                              f"{path}.threshold"))

@dataclass(frozen=True)
class AttackSpec:
    """Channel rewrite active from step `start` on.

    kinds: none; replay (resend the channel value recorded `window` steps
    earlier, applied as an additive difference); bias (add a constant).
    """

    kind: str = "none"
    start: int = 0
    window: int = 0
    magnitude: float = 0.0

    @classmethod
    def from_dict(cls, d, path="attack") -> "AttackSpec":
        if d is None:
            return cls()
        spec = cls(**fields(d, path, {"kind": choice("none", "replay", "bias"), "start": integer,
                                      "window": integer, "magnitude": number}))
        if spec.kind == "replay" and spec.window < 1:
            raise ConfigError("replay needs a positive window", path=f"{path}.window")
        if spec.kind != "none" and spec.start < 0:
            raise ConfigError("start must be non-negative", path=f"{path}.start")
        return spec

def apply_attack(y_w, history, spec: AttackSpec, k: int):
    """Channel value seen by the remover at step k.

    `history` holds the true transmitted values up to and including step k.
    Before `spec.start` the channel is untouched. A replay whose window
    reaches before step 0 leaves it untouched too, until step `spec.window`,
    the first with enough history; `sim` logs that deferral from the spec.
    `y_w` may also be one step of a lockstep batch, shape (R, 1, 1) with
    `history` of shape (steps, R, 1, 1).
    """
    if spec.kind == "none" or k < spec.start:
        return y_w
    if spec.kind == "bias":
        return y_w + spec.magnitude
    if spec.kind == "replay":
        j = k - spec.window
        return y_w if j < 0 else y_w + (history[j] - y_w)
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
    theta0: tuple[float, ...] | None = None

    @classmethod
    def from_dict(cls, d, path="watermark") -> "WatermarkSetup | None":
        """None (no watermark) for a missing section or `"enabled": false`."""
        if d is None:
            return None
        section(d, path, ("enabled", "config", "protocol", "theta0"))
        enabled = d.get("enabled", True)
        if not isinstance(enabled, bool):
            raise ConfigError(f"expected true or false, got {enabled!r}", path=f"{path}.enabled")
        if not enabled:
            return None
        config = SwitchingConfig.from_dict(required(d, "config", path), path=f"{path}.config")
        setup = cls(config, **fields(d.get("protocol", {}), f"{path}.protocol", {
            "trigger": choice("periodic", "threshold", "none"), "period": integer,
            "bound": number}))
        if setup.trigger == "periodic" and setup.period < 1:
            raise ConfigError("period must be positive", path=f"{path}.protocol.period")
        theta0 = d.get("theta0", "auto")
        if isinstance(theta0, list) and len(theta0) == config.n_h + 1:
            try:
                setup.theta0 = admissible_taps(numbers(theta0, f"{path}.theta0"))
            except ParameterError as exc:
                raise ConfigError(str(exc), path=f"{path}.theta0") from exc
        elif theta0 != "auto" and theta0 is not None:
            raise ConfigError(f'expected "auto" or a list of {config.n_h + 1} taps',
                              path=f"{path}.theta0")
        return setup

    def fires(self, k: int, signal) -> bool:
        """Whether the trigger fires at step k on `signal`: every `period`
        steps from k = period on, on the open half-line signal > bound, or
        never. An (R, 1, 1) signal gives one bool per row for 'threshold'."""
        if self.trigger == "periodic":
            return k > 0 and k % self.period == 0
        if self.trigger == "threshold":
            return signal > self.bound
        return False

    def initial_theta(self):
        if self.theta0 is not None:
            return self.theta0
        return sigma(0.0, self.config)


@dataclass
class Scenario:
    """One complete closed-loop setup, loadable from a JSON file.

    `source` is the JSON object a scenario was parsed from by `from_json`
    (and so `load`), with the secret scalar `watermark.config.l` replaced by
    "redacted"; runs echo it to `trace_meta.json`. It is None for scenarios
    built with `from_dict` or in code, and for those derived with
    `dataclasses.replace`: an `init=False` field is not copied, so a derived
    scenario never echoes a file it no longer matches.
    """

    plant: PlantModel
    controller: ControllerModel
    detector: DetectorModel
    watermark: WatermarkSetup | None  # None runs the loop without watermark
    attack: AttackSpec = AttackSpec()
    horizon: int = 1000
    seed: int = 0
    source: dict | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def from_dict(cls, data: dict, path: str = "scenario") -> "Scenario":
        section(data, path, ("horizon", "seed", "plant", "controller", "detector", "watermark",
                             "attack"))
        horizon = integer(data.get("horizon", cls.horizon), f"{path}.horizon")
        if not 1 <= horizon <= MAX_HORIZON:
            raise ConfigError(f"horizon must lie in [1, {MAX_HORIZON}]", path=f"{path}.horizon")
        plant = PlantModel.from_dict(required(data, "plant", path), f"{path}.plant")
        n_u = plant.B.shape[1]
        controller = ControllerModel.from_dict(required(data, "controller", path), n_u,
                                               f"{path}.controller")
        detector = DetectorModel.from_dict(required(data, "detector", path), n_u,
                                           f"{path}.detector")
        spec = detector.threshold
        if spec.mode == "calibrate" and spec.runs * horizon > MAX_CALIBRATION_STEPS:
            raise ConfigError(f"runs x horizon must not exceed {MAX_CALIBRATION_STEPS} "
                              f"(got {spec.runs} x {horizon})",
                              path=f"{path}.detector.threshold.runs")
        scenario = cls(
            plant=plant,
            controller=controller,
            detector=detector,
            watermark=WatermarkSetup.from_dict(data.get("watermark"), f"{path}.watermark"),
            attack=AttackSpec.from_dict(data.get("attack"), f"{path}.attack"),
            horizon=horizon,
            seed=integer(data.get("seed", cls.seed), f"{path}.seed"),
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
                f"closed loop is not Schur stable (spectral radius {radius:.4g})",
                path=f"{path}.controller",
            )

    @classmethod
    def from_json(cls, text: str | bytes, path: str = "scenario") -> "Scenario":
        data = json_document(text, path)
        scenario = cls.from_dict(data, path=path)
        # the parsed object has no other holder, so it is kept without a copy
        wm = data.get("watermark")
        config = wm.get("config") if isinstance(wm, dict) else None
        if isinstance(config, dict) and "l" in config:
            config["l"] = "redacted"
        scenario.source = data
        return scenario

    @classmethod
    def load(cls, filename) -> "Scenario":
        with open(filename, "rb") as fh:
            return cls.from_json(fh.read(), path=str(filename))
