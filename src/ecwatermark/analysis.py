"""Sensitivity sweeps and partition exports built on the projection stage.

Both tools project whole blocks of queries through Curve.nearest_indices,
which runs the same scan as the switching map's Curve.nearest_index, and the
sweep scales each reference's samples in one block alpha1 call, bit for bit
the switching map's float alpha1, so a cell assignment or a sweep count here
can never disagree with a live switching evaluation.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .curve import Curve, Point
from .switching import SwitchingConfig, alpha1

__all__ = ["SweepSpec", "ReferenceSweep", "sensitivity_sweep", "count_entropy",
           "grid_coords", "voronoi_rows"]

# voronoi_rows projects as many whole grid rows per nearest_indices call as
# fit in this many queries (a grid of 181 or less in one call), so its memory
# stops growing with the grid
BLOCK_QUERIES = 1 << 15


@dataclass(frozen=True)
class SweepSpec:
    """Perturbation study: y = reference + v with v uniform in +-halfwidth."""

    references: tuple[float, ...] = (0.0, 1.0, 10.0, 100.0)
    n_realizations: int = 500
    noise_halfwidth: float = 0.05
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "references",
                           tuple(float(r) for r in self.references))
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if not self.noise_halfwidth > 0:
            raise ValueError("noise halfwidth must be positive")


@dataclass
class ReferenceSweep:
    """Hit counts over curve points for one reference value."""

    reference: float
    counts: dict[Point, int]
    n_realizations: int

    def rel_freq(self, point: Point) -> float:
        return self.counts.get(point, 0) / self.n_realizations

    @property
    def entropy(self) -> float:
        return count_entropy(self.counts)

    @property
    def reached(self) -> set[Point]:
        return set(self.counts)


def count_entropy(counts) -> float:
    """Shannon entropy (nats) of an empirical hit distribution."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts.values():
        if c:
            p = c / total
            h -= p * math.log(p)
    return h


def sensitivity_sweep(cfg: SwitchingConfig, spec: SweepSpec) -> list[ReferenceSweep]:
    """Map perturbed measurements through the projection stage and count
    how often each curve point is selected, per reference."""
    rng = np.random.default_rng(spec.seed)
    points = cfg.curve.affine_points()
    results = []
    for r in spec.references:
        noise = rng.uniform(-spec.noise_halfwidth, spec.noise_halfwidth,
                            spec.n_realizations)
        scaled = alpha1(r + noise, cfg.alpha_x, cfg.alpha_y, cfg.curve.s)
        hits = cfg.curve.nearest_indices(*scaled)
        # Counter keeps first-hit order, the order count_entropy sums in
        counts = {points[i]: c for i, c in Counter(hits.tolist()).items()}
        results.append(ReferenceSweep(r, counts, spec.n_realizations))
    return results


def grid_coords(s: int, grid: int) -> list[float]:
    """The axis coordinates i*(s/grid), i < grid, of a grid x grid sampling of
    [0, s)^2; a grid that is a multiple of s hits every seed exactly."""
    if grid < 1:
        raise ValueError("grid resolution must be positive")
    step = s / grid
    return [i * step for i in range(grid)]


def voronoi_rows(curve: Curve, grid: int):
    """Yield, for each gx of grid_coords(curve.s, grid), the owners of the
    cells (gx, gy) for every gy of the same coordinates, as a list of indices
    into curve.affine_points(). Whole grid rows are projected together, up to
    BLOCK_QUERIES cells per call."""
    coords = grid_coords(curve.s, grid)
    per_call = max(1, BLOCK_QUERIES // grid)
    for i in range(0, grid, per_call):
        gxs = coords[i:i + per_call]
        owners = curve.nearest_indices(np.repeat(gxs, grid), np.tile(coords, len(gxs)))
        yield from owners.reshape(len(gxs), grid).tolist()
