"""Secret-keyed switching of watermark filter taps.

One evaluation takes the last shared output sample through three stages:

1. scale the sample into curve coordinates through two fixed nonlinear maps
   (one per coordinate), reduced into [0, s);
2. snap those coordinates to the nearest affine curve point, then multiply
   that point by the secret scalar;
3. run the resulting point through a per-tap polynomial feature map and
   clamp the outcome into the admissible tap set (nonzero leading tap,
   contractive tail), which keeps the inverse filter provably stable.

Stage 1 has one scalar path, `_scale`: it scales both coordinates in one
plain-float pass from coefficients prepared as (a0, a1, reversed tail).
`sigma` and `sigma_detail` read them from `SwitchingConfig.scaling`, made
once per configuration; `alpha1` prepares them on each call, and its 1-D
array path, which sweeps use, repeats the same operations element by element.

Everything after the projection in stage 2 depends only on the nearest
point and the configuration, so the map's image is one tap vector per affine
point: `sigma` derives each point's taps once per configuration, keeps them
in its tap table once `admissible_taps` passes them, and returns the stored
object on every later hit; `sigma_detail` runs every stage on each call and
reports the intermediates.

Both endpoints evaluate this exact code path, in a fixed floating-point
operation order, on identically configured values; equal inputs therefore
produce bit-identical taps with no communication beyond the initial shared
configuration.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curve import Curve, Point
from .errors import CapacityError, ConfigError, ConfigurationWarning, InputError, ParameterError
from .schema import integer, json_document, number, numbers, required, section

__all__ = [
    "FirParams",
    "ThetaValidation",
    "SwitchingConfig",
    "SwitchOutcome",
    "alpha1",
    "alpha2",
    "eta1",
    "eta2",
    "validate_theta",
    "sigma",
    "sigma_detail",
]


@dataclass(frozen=True, slots=True)
class FirParams:
    """FIR tap vector (b0, ..., bn). A plain carrier: admissibility of the
    taps is checked by validate_theta, not at construction, so that
    diagnostic code can evaluate inadmissible vectors too."""

    taps: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(map(float, self.taps)))

    def __len__(self):
        return len(self.taps)

    def __iter__(self):
        return iter(self.taps)

    def __getitem__(self, i):
        return self.taps[i]


@dataclass(frozen=True)
class ThetaValidation:
    """Outcome of the admissibility test, naming the first violated condition."""

    ok: bool
    violation: str | None = None


def validate_theta(taps) -> ThetaValidation:
    """Check the five admissibility conditions on a tap vector.

    In order: every tap finite, b0 nonzero, |b1| strictly below 1, the tail
    radius sum_{i>=2} |b_i / b0| strictly below 1 - |b1|, and 1 / b0 finite
    in double precision. The report names the first condition that fails.
    """
    taps = tuple(float(v) for v in taps)
    if len(taps) < 2:
        raise ValueError("need at least taps b0 and b1")
    if not all(map(math.isfinite, taps)):
        return ThetaValidation(False, "taps must be finite")
    if taps[0] == 0.0:
        return ThetaValidation(False, "b0 must be nonzero")
    if abs(taps[1]) >= 1.0:
        return ThetaValidation(False, "|b1| must be below 1")
    total = 0.0
    for v in taps[2:]:
        total += abs(v / taps[0])
    if total >= 1.0 - abs(taps[1]):
        return ThetaValidation(False, "sum(|b_i/b0|, i>=2) must stay below 1 - |b1|")
    if not math.isfinite(1.0 / taps[0]):
        return ThetaValidation(False, "leading tap too small to invert in double precision")
    return ThetaValidation(True)


def admissible_taps(params, count: int | None = None) -> tuple[float, ...]:
    """`params` as a tap tuple; ParameterError if `validate_theta` finds the
    taps inadmissible or (given `count`) their number differs."""
    taps = tuple(map(float, params))
    report = validate_theta(taps)
    if not report.ok:
        raise ParameterError(f"inadmissible taps: {report.violation}")
    if count is not None and len(taps) != count:
        raise ParameterError(f"tap count changed from {count} to {len(taps)}")
    return taps


# squashed second tap never exceeds this in magnitude
_B1_CAP = 1.0 - 2.0**-20


def _prepare(coeffs) -> tuple:
    """One coordinate's scaling coefficients as the scaling reads them:
    (a0, a1, (..., a3, a2)), the tail reversed for Horner's rule."""
    if len(coeffs) < 2:
        raise ValueError("scaling needs at least the two arctangent coefficients")
    return coeffs[0], coeffs[1], coeffs[2:][::-1]


def _scale(y: float, coeffs, s: int) -> tuple[float, float]:
    """alpha1 of one sample from the coefficients of both coordinates, each
    prepared by `_prepare`: the one scalar scaling.

    Each coordinate is a0*atan(a1*y) + inner*t*t with t = |y| and inner the
    Horner sum of the tail from 0.0, reduced mod s; % can land exactly on s
    for tiny negative values, and that case folds back to 0.0 so results
    stay in [0, s). InputError names a sample that is not a float or an int,
    then a non-finite sample, then a coordinate that overflows.
    """
    if type(y) is not float:
        # the configuration's number rule: an int or a float subclass
        # (np.float64) converts exactly, a bool or any other type is no number
        if isinstance(y, bool) or not isinstance(y, (int, float)):
            raise InputError(f"measurement must be a float or an int, got {type(y).__name__}")
        try:
            y = float(y)
        except OverflowError as exc:
            raise InputError(f"measurement out of range: {exc}") from exc
    (ax0, ax1, ax_tail), (ay0, ay1, ay_tail) = coeffs
    t = abs(y)
    inner = 0.0
    for c in ax_tail:
        inner = inner * t + c
    gx = ax0 * math.atan(ax1 * y) + inner * t * t
    inner = 0.0
    for c in ay_tail:
        inner = inner * t + c
    gy = ay0 * math.atan(ay1 * y) + inner * t * t
    if not (math.isfinite(gx) and math.isfinite(gy)):
        # a non-finite sample leaves NaN in both coordinates
        if not math.isfinite(y):
            raise InputError(f"measurement must be finite, got {y!r}")
        raise InputError(f"scaling of y={y!r} overflowed double precision")
    gx %= s
    gy %= s
    return 0.0 if gx == s else gx, 0.0 if gy == s else gy


def _scale_component(y: np.ndarray, coeffs, s: int) -> np.ndarray:
    """One coordinate of `_scale` over a 1-D float64 array, from prepared
    coefficients: the same IEEE operations in the same order, element by
    element, so each element is bit for bit the float result. atan is
    math.atan per element, not np.arctan, whose SIMD loops need not round as
    libm does. An element whose value overflows comes back NaN."""
    a0, a1, tail = coeffs
    t = np.abs(y)
    inner = 0.0
    for c in tail:
        inner = inner * t + c
    a = np.array(list(map(math.atan, (a1 * y).tolist())))
    r = (a0 * a + inner * t * t) % s
    r[r == s] = 0.0
    return r


def alpha1(y: float | np.ndarray, coeffs_x, coeffs_y, s: int) -> tuple:
    """Scale a measurement into real coordinates in [0, s) x [0, s).

    Each coordinate is a0*atan(a1*y) + sum_{j>=2} a_j*|y|^j reduced mod s,
    with its own coefficient list, so the two coordinates differ in general.
    The polynomial part is evaluated by Horner's rule so both endpoints
    round identically.

    y is a float or an int, giving a pair of floats (`_scale`), or a 1-D
    float64 array of measurements, giving a pair of arrays bit for bit equal
    to the float calls. InputError names a sample of any other type, then a
    non-finite measurement, then a coordinate that overflows; a block raises
    the error of the float call at its first bad measurement, in input order.
    """
    coeffs = _prepare(coeffs_x), _prepare(coeffs_y)
    if not isinstance(y, np.ndarray):
        return _scale(y, coeffs, s)
    if y.ndim != 1 or y.dtype != np.float64:
        raise ValueError("a block of measurements must be a 1-D float64 array")
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = _scale_component(y, coeffs[0], s), _scale_component(y, coeffs[1], s)
    bad = np.isnan(xs) | np.isnan(ys)
    if bad.any():
        # a non-finite measurement or an overflow leaves NaN: the float call
        # at the first one raises its own error
        _scale(float(y[bad.argmax()]), coeffs, s)
    return xs, ys


def alpha2(pt: tuple[float, float], curve: Curve) -> Point:
    """Project scaled coordinates onto the nearest affine curve point.

    O is never a candidate; equidistant candidates resolve to the
    lexicographically smallest point.
    """
    return curve.nearest_affine(pt[0], pt[1])


def eta1(point: Point, rows) -> tuple[float, ...]:
    """Polynomial feature map of a curve point, one coefficient row per tap.

    Each output component i is sum_j rows[i][j] * ||point||^j where the norm
    treats the coordinates as their canonical integers in [0, s-1].
    """
    if point.is_infinity:
        raise ValueError("the identity point has no coordinates to map")
    t = math.hypot(point.x, point.y)
    out = []
    for row in rows:
        acc = 0.0
        for c in reversed(row):
            acc = acc * t + c
        if not math.isfinite(acc):
            raise InputError(f"feature map of {point!r} overflowed double precision")
        out.append(acc)
    return tuple(out)


def eta2(b_raw, *, floor: float, slope: float, margin: float) -> FirParams:
    """Clamp a raw tap vector into the admissible set. Total by construction;
    every output is admissible while 1 / floor is finite (floor above about
    5.6e-309), since a floored b0 otherwise has no double-precision inverse.

    b0 keeps its raw value when |raw| >= floor, else it is floored to
    +-floor (the sign of a raw zero counts as +). b1 is squashed through
    x / (|x| + slope), so |b1| < 1 always. The tail is rescaled so that
    sum |b_i/b0| equals 1 - |b1| - margin exactly, using the clamped b0 and
    b1; an all-zero tail is passed through untouched, and a tail whose
    scale is too extreme relative to b0 to normalize in double precision
    collapses to zero. When the configured margin leaves no headroom
    against 1 - |b1| it is shrunk to half the headroom, keeping the map
    total.

    With floor >= 1 every output provably has a stable inverse filter; the
    configuration layer warns when a smaller floor is chosen. Raises
    ValueError unless floor and slope are positive and finite.
    """
    if not (0.0 < floor < math.inf and 0.0 < slope < math.inf):
        raise ValueError(f"floor and slope must be positive and finite, got {floor!r}, {slope!r}")
    b_raw = tuple(float(v) for v in b_raw)
    if len(b_raw) < 2:
        raise ValueError("need at least raw taps for b0 and b1")
    if not all(math.isfinite(v) for v in b_raw):
        raise ValueError("raw taps must be finite")
    raw0 = b_raw[0]
    if abs(raw0) >= floor:
        b0 = raw0
    else:
        b0 = floor if raw0 >= 0.0 else -floor
    raw1 = b_raw[1]
    b1 = raw1 / (abs(raw1) + slope)
    # the squash is strictly inside (-1, 1) in exact arithmetic, but double
    # rounding reaches +-1.0 once |raw1| dwarfs the slope; cap with margin
    if b1 > _B1_CAP:
        b1 = _B1_CAP
    elif b1 < -_B1_CAP:
        b1 = -_B1_CAP
    tail = b_raw[2:]
    headroom = 1.0 - abs(b1)
    eps = min(margin, 0.5 * headroom)
    denom = 0.0
    for v in tail:
        denom += abs(v / b0)
    if denom == 0.0 or math.isinf(denom):
        # an all-zero or empty tail, or one that vanishes (or blows past double
        # range) relative to b0; a zero tail is the only admissible outcome
        return FirParams((b0, b1) + (0.0,) * len(tail))
    # divide before scaling: each ratio is bounded by |b0|, so no overflow
    return FirParams((b0, b1) + tuple((v / denom) * (headroom - eps) for v in tail))


@dataclass(frozen=True)
class SwitchingConfig:
    """The shared secret material held by both endpoints.

    Covers the curve, the secret scalar, the two scaling coefficient lists,
    the per-tap feature-map coefficient rows, and the three clamp constants.
    Serialized to a documented JSON schema; both endpoints must load
    byte-identical files.
    """

    curve: Curve
    l: int
    alpha_x: tuple[float, ...]
    alpha_y: tuple[float, ...]
    eta1_rows: tuple[tuple[float, ...], ...]
    n_h: int
    eta_floor: float = 1.0
    eta_margin: float = 0.05
    eta_slope: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha_x", tuple(float(v) for v in self.alpha_x))
        object.__setattr__(self, "alpha_y", tuple(float(v) for v in self.alpha_y))
        object.__setattr__(
            self, "eta1_rows", tuple(tuple(float(v) for v in row) for row in self.eta1_rows)
        )
        if not isinstance(self.l, int) or self.l < 1:
            raise ConfigError("secret scalar must be a positive integer", path="l")
        for name, coeffs in (("alpha.x", self.alpha_x), ("alpha.y", self.alpha_y)):
            if len(coeffs) < 2:
                raise ConfigError("need at least 2 coefficients", path=name)
            if not all(math.isfinite(v) for v in coeffs):
                raise ConfigError("coefficients must be finite", path=name)
        if not isinstance(self.n_h, int) or self.n_h < 1:
            raise ConfigError("filter order must be a positive integer", path="n_h")
        if len(self.eta1_rows) != self.n_h + 1:
            raise ConfigError(
                f"expected {self.n_h + 1} coefficient rows, got {len(self.eta1_rows)}",
                path="eta1",
            )
        for i, row in enumerate(self.eta1_rows):
            if len(row) < 1 or not all(math.isfinite(v) for v in row):
                raise ConfigError("each row needs at least one finite coefficient",
                                  path=f"eta1[{i}]")
        if not (self.eta_floor > 0.0 and math.isfinite(self.eta_floor)):
            raise ConfigError("tap floor must be positive", path="eta_floor")
        if not (self.eta_slope > 0.0 and math.isfinite(self.eta_slope)):
            raise ConfigError("squash slope must be positive", path="eta_slope")
        if not (0.0 < self.eta_margin < 1.0):
            raise ConfigError("margin must lie in (0, 1)", path="eta_margin")
        if self.eta_floor < 1.0:
            warnings.warn(
                "tap floor below 1.0: the inverse filter is no longer provably stable, "
                "and a floor whose reciprocal overflows can give inadmissible taps",
                ConfigurationWarning,
                stacklevel=3,
            )
        if self.l % self.curve.order() == 0:
            warnings.warn(
                "secret scalar is a multiple of the group order, so every "
                "multiplication lands on the identity and the fallback rule "
                "always applies",
                ConfigurationWarning,
                stacklevel=3,
            )

    @cached_property
    def tap_table(self) -> list[FirParams | None]:
        """Taps of each affine point, by its index in `curve.affine_points()`:
        one slot per point, None until `sigma` derives and checks that
        point's taps, then the `FirParams` every later hit returns. Not a
        field, so it takes no part in ==, hash or serialization."""
        return [None] * (self.curve.order() - 1)

    @cached_property
    def scaling(self) -> tuple:
        """`alpha_x` and `alpha_y` prepared as `_scale` reads them, once per
        configuration. Not a field either."""
        return _prepare(self.alpha_x), _prepare(self.alpha_y)

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict, path: str = "config") -> "SwitchingConfig":
        data = section(data, path, ("curve", "l", "n_h", "alpha", "eta1", "eta_floor",
                                    "eta_margin", "eta_slope"))
        curve = section(required(data, "curve", path), f"{path}.curve", ("s", "a", "b"))
        alpha = section(required(data, "alpha", path), f"{path}.alpha", ("x", "y"))
        a, b, s = (integer(required(curve, key, f"{path}.curve"), f"{path}.curve.{key}")
                   for key in ("a", "b", "s"))
        rows = required(data, "eta1", path)
        if not isinstance(rows, list):
            raise ConfigError("expected a list of coefficient rows", path=f"{path}.eta1")
        fields = dict(
            l=integer(required(data, "l", path), f"{path}.l"),
            alpha_x=numbers(required(alpha, "x", f"{path}.alpha"), f"{path}.alpha.x"),
            alpha_y=numbers(required(alpha, "y", f"{path}.alpha"), f"{path}.alpha.y"),
            eta1_rows=tuple(numbers(row, f"{path}.eta1[{i}]") for i, row in enumerate(rows)),
            n_h=integer(required(data, "n_h", path), f"{path}.n_h"),
            **{key: number(data[key], f"{path}.{key}")
               for key in ("eta_floor", "eta_margin", "eta_slope") if key in data},
        )
        try:
            return cls(curve=Curve(a, b, s), **fields)
        except CapacityError as exc:
            raise ConfigError(str(exc), path=f"{path}.curve.s") from exc
        except ConfigError as exc:
            # Curve and __post_init__ name their fields relative to the config
            raise ConfigError(exc.message, path=f"{path}.{exc.path}") from exc

    def to_dict(self) -> dict:
        return {
            "curve": {"s": self.curve.s, "a": self.curve.a, "b": self.curve.b},
            "l": self.l,
            "n_h": self.n_h,
            "alpha": {"x": list(self.alpha_x), "y": list(self.alpha_y)},
            "eta1": [list(row) for row in self.eta1_rows],
            "eta_floor": self.eta_floor,
            "eta_margin": self.eta_margin,
            "eta_slope": self.eta_slope,
        }

    @classmethod
    def from_json(cls, text: str | bytes, path: str = "config") -> "SwitchingConfig":
        return cls.from_dict(json_document(text, path), path=path)

    @classmethod
    def load(cls, filename) -> "SwitchingConfig":
        with open(filename, "rb") as fh:
            return cls.from_json(fh.read(), path=str(filename))


@dataclass(frozen=True)
class SwitchOutcome:
    """Every intermediate of one switching evaluation, for reports and tests."""

    scaled: tuple[float, float]
    generator_point: Point
    secret_multiple: Point
    fallback_used: bool
    raw_taps: tuple[float, ...]
    theta: FirParams


def _derive(p: Point, cfg: SwitchingConfig) -> tuple[Point, bool, tuple[float, ...], FirParams]:
    """The stages after the projection: the secret multiple S of p (p itself
    when the multiple is the identity), then the feature map and the clamp.
    Returns (S, fallback_used, raw taps, taps)."""
    s_pt = cfg.curve.scalar_mul(cfg.l, p)
    fallback = s_pt.is_infinity
    if fallback:
        s_pt = p
    raw = eta1(s_pt, cfg.eta1_rows)
    theta = eta2(raw, floor=cfg.eta_floor, slope=cfg.eta_slope, margin=cfg.eta_margin)
    return s_pt, fallback, raw, theta


def sigma_detail(y_prev: float, cfg: SwitchingConfig) -> SwitchOutcome:
    """Full switching evaluation on the previous shared output sample.

    When the scalar multiple lands on the identity, the generator point
    itself is substituted; the rule is fixed in configuration and never
    depends on runtime data, so both endpoints agree without communication.
    Every stage runs on each call; this is the reference `sigma` must equal.
    """
    scaled = _scale(y_prev, cfg.scaling, cfg.curve.s)
    p = alpha2(scaled, cfg.curve)
    return SwitchOutcome(scaled, p, *_derive(p, cfg))


def _tap_row(i: int, cfg: SwitchingConfig) -> FirParams:
    """The taps of affine point i from `cfg.tap_table`, derived and checked
    by `admissible_taps` before they are stored when the slot is empty. A
    derivation or check that raises stores nothing, so it raises again."""
    theta = cfg.tap_table[i]
    if theta is None:
        theta = _derive(cfg.curve.affine_point(i), cfg)[3]
        admissible_taps(theta)
        cfg.tap_table[i] = theta
    return theta


def sigma(y_prev: float, cfg: SwitchingConfig) -> FirParams:
    """New tap vector from the previous shared output sample.

    Equal to `sigma_detail(y_prev, cfg).theta`, but the stages after the
    projection run once per nearest point and configuration (`_tap_row`).
    """
    curve = cfg.curve
    x, y = _scale(y_prev, cfg.scaling, curve.s)
    i = curve.nearest_index(x, y)
    theta = cfg.tap_table[i]
    return _tap_row(i, cfg) if theta is None else theta

