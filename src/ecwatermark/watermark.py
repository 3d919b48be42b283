"""Watermark filter pair: FIR modulator and its exact inverse demodulator.

The generator runs the taps over a shift register of its past inputs; the
remover runs the algebraically inverted recursion over a register of its
past outputs. When both hold equal taps and equal registers the remover
reproduces the generator's input to machine precision, and a parameter
switch that leaves the registers in place preserves that equality with no
extra messaging: nominally the remover's register (past reconstructed
outputs) already equals the generator's register (past plant outputs), so
the identity jump is the correct jump for this filter class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .switching import admissible_taps, validate_theta

__all__ = [
    "WatermarkUnit",
    "StabilityReport",
    "make_pair",
    "apply_switch",
    "check_stability",
]


@dataclass(frozen=True)
class StabilityReport:
    """gershgorin_pass is the sufficient tap-domain test: the admissibility
    conditions plus |b0| >= 1. Together they bound every inverse pole
    strictly inside the unit circle; the tap conditions alone do not once
    |b0| < 1, so the spectral radius is reported independently."""

    gershgorin_pass: bool
    spectral_radius: float


def check_stability(theta) -> StabilityReport:
    """The radius is the largest |root| of b0 z^n + b1 z^(n-1) + ... + bn,
    the remover's poles. It is infinite when b0 is zero, when 1/b0 or a
    ratio bi/b0 leaves double range, or when a tap is not finite."""
    taps = tuple(float(v) for v in theta)
    tap_test = validate_theta(taps).ok and abs(taps[0]) >= 1.0
    if taps[0] == 0.0 or not all(math.isfinite(b / taps[0]) for b in (1.0,) + taps):
        return StabilityReport(False, math.inf)
    radius = float(np.abs(np.roots(taps)).max(initial=0.0))
    return StabilityReport(tap_test, radius)


def fir_step(taps, register, value, generator: bool):
    """One output of the tap filter: b0*v + acc for the generator, (v - acc)/b0
    for the remover, where acc starts at b_1*r_1 and adds b_i*r_i in tap
    order (there are always at least two taps).

    The arguments are floats, or (R, 1, 1) arrays that step R filters at once
    (`taps` and `register` then hold one such array per entry). numpy applies
    the same IEEE operations in the same order to each row, so every row is
    bit for bit the float result.
    """
    acc = taps[1] * register[0]
    for b, r in zip(taps[2:], register[1:]):
        acc += b * r
    return taps[0] * value + acc if generator else (value - acc) / taps[0]


class WatermarkUnit:
    """One endpoint of the pair; role is 'generator' or 'remover'.

    `taps` is the tap tuple in force. Single-owner mutable state: do not
    step one unit from several threads. Distinct units are independent.
    """

    ROLES = ("generator", "remover")

    def __init__(self, role: str, params):
        if role not in self.ROLES:
            raise ValueError(f"role must be one of {self.ROLES}")
        self.role = role
        self.taps = admissible_taps(params)
        self._register = (0.0,) * (len(self.taps) - 1)

    def set_params(self, params) -> None:
        """Adopt new taps; the shift register is kept in place (identity jump)."""
        self.taps = admissible_taps(params, len(self.taps))

    def step(self, value: float) -> float:
        """Advance one sample: the generator modulates its input, the remover
        demodulates; each shifts its own register afterwards."""
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise InputError(f"sample must be finite, got {value!r}")
        generator = self.role == "generator"
        out = fir_step(self.taps, self._register, value, generator)
        self._register = (value if generator else out,) + self._register[:-1]
        return out


def make_pair(theta) -> tuple[WatermarkUnit, WatermarkUnit]:
    """Generator and remover with the given taps and zero registers."""
    return WatermarkUnit("generator", theta), WatermarkUnit("remover", theta)


def apply_switch(generator: WatermarkUnit, remover: WatermarkUnit, theta_new) -> None:
    """Synchronized parameter switch: both units adopt the new taps between
    samples; registers are retained as-is. The generator validates first, so
    inadmissible taps change neither unit."""
    generator.set_params(theta_new)
    remover.set_params(theta_new)
