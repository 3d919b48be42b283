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

from .errors import InputError, ParameterError
from .switching import admissible_taps, validate_theta

__all__ = [
    "WatermarkUnit",
    "StabilityReport",
    "make_pair",
    "apply_switch",
    "check_stability",
    "generator_matrices",
    "remover_matrices",
]


def _taps(theta) -> tuple[float, ...]:
    return tuple(float(v) for v in theta)


def generator_matrices(theta):
    """State-space matrices of the tap filter: shift-register A, unit-vector B,
    tail taps as C, leading tap as D."""
    taps = _taps(theta)
    n = len(taps) - 1
    A = np.zeros((n, n))
    for i in range(1, n):
        A[i, i - 1] = 1.0
    B = np.zeros((n, 1))
    if n:
        B[0, 0] = 1.0
    C = np.array([taps[1:]], dtype=float)
    D = np.array([[taps[0]]], dtype=float)
    return A, B, C, D


def remover_matrices(theta):
    """Standard inverse realization (A - B D^-1 C, B D^-1, -D^-1 C, D^-1).

    This choice (rather than the sign-flipped but equivalent realization)
    makes the remover state an actual shift register of its past outputs,
    which is what lets the identity jump keep both registers equal.
    """
    taps = _taps(theta)
    if taps[0] == 0.0:
        raise ParameterError("filter with b0 = 0 has no inverse")
    d_inv = 1.0 / taps[0]
    if not math.isfinite(d_inv):
        raise ParameterError("leading tap too small to invert in double precision")
    A, B, C, D = generator_matrices(taps)
    Aq = A - B @ C * d_inv
    Bq = B * d_inv
    Cq = -C * d_inv
    Dq = np.array([[d_inv]])
    return Aq, Bq, Cq, Dq


@dataclass(frozen=True)
class StabilityReport:
    """gershgorin_pass is the sufficient tap-domain test: the admissibility
    conditions plus |b0| >= 1. Together they bound every inverse pole
    strictly inside the unit circle; the tap conditions alone do not once
    |b0| < 1, so the spectral radius is reported independently."""

    gershgorin_pass: bool
    spectral_radius: float


def check_stability(theta) -> StabilityReport:
    taps = _taps(theta)
    tap_test = bool(validate_theta(taps)) and abs(taps[0]) >= 1.0
    if not all(map(math.isfinite, taps)) or taps[0] == 0.0 or not math.isfinite(1.0 / taps[0]):
        return StabilityReport(False, math.inf)
    Aq, _, _, _ = remover_matrices(taps)
    radius = float(np.abs(np.linalg.eigvals(Aq)).max()) if Aq.size else 0.0
    return StabilityReport(tap_test, radius)


def fir_step(taps, register, value, generator: bool):
    """One output of the tap filter: b0*v + acc for the generator, (v - acc)/b0
    for the remover, where acc starts at 0.0 and adds b_i*r_i in tap order.

    The arguments are floats, or (R, 1, 1) arrays that step R filters at once
    (`taps` and `register` then hold one such array per entry). numpy applies
    the same IEEE operations in the same order to each row, so every row is
    bit for bit the float result.
    """
    acc = 0.0
    for b, r in zip(taps[1:], register):
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

    @property
    def state(self) -> np.ndarray:
        """Shift register, most recent entry first."""
        return np.array(self._register)

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
