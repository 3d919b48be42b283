import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from ecwatermark import Curve, Point, SwitchingConfig, alpha1, alpha2
from ecwatermark.analysis import (
    SweepSpec,
    count_entropy,
    sensitivity_sweep,
    voronoi_rows,
)


def test_sweep_spec_defaults():
    spec = SweepSpec()
    assert spec.references == (0.0, 1.0, 10.0, 100.0)
    assert spec.n_realizations == 500
    assert spec.noise_halfwidth == 0.05


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(n_realizations=0)
    with pytest.raises(ValueError):
        SweepSpec(noise_halfwidth=0.0)


def test_degenerate_scaling_hits_single_point(demo_cfg):
    cfg = SwitchingConfig(
        curve=demo_cfg.curve, l=demo_cfg.l,
        alpha_x=(0.0, 0.0), alpha_y=(0.0, 0.0),
        eta1_rows=demo_cfg.eta1_rows, n_h=demo_cfg.n_h,
    )
    (res,) = sensitivity_sweep(cfg, SweepSpec(references=(3.0,), n_realizations=50, seed=1))
    assert len(res.counts) == 1
    (point,) = res.counts
    assert res.rel_freq(point) == 1.0
    assert res.entropy == 0.0


def test_sweep_reproducible(demo_cfg):
    spec = SweepSpec(references=(10.0,), n_realizations=100, seed=9)
    a = sensitivity_sweep(demo_cfg, spec)
    b = sensitivity_sweep(demo_cfg, spec)
    assert a[0].counts == b[0].counts


def test_demo_config_entropy_ordering(demo_cfg):
    res = sensitivity_sweep(demo_cfg, SweepSpec(n_realizations=200, seed=4))
    by_ref = {r.reference: r for r in res}
    assert by_ref[10.0].entropy > by_ref[0.0].entropy


@pytest.mark.parametrize("s", [17, 307, 9973])
def test_sweep_equals_per_sample_projection(demo_cfg, s):
    cfg = demo_cfg if s == 17 else dataclasses.replace(demo_cfg, curve=Curve(2, 3, s))
    spec = SweepSpec(references=(0.0, -3.5, 1.0, 100.0, 1e4), n_realizations=2000,
                     noise_halfwidth=0.5, seed=12)
    rng = np.random.default_rng(spec.seed)
    for res in sensitivity_sweep(cfg, spec):
        counts = Counter()
        for v in rng.uniform(-0.5, 0.5, spec.n_realizations):
            counts[alpha2(alpha1(res.reference + float(v), cfg.alpha_x, cfg.alpha_y, s),
                          cfg.curve)] += 1
        # equal counts, in the same first-hit order, so the same entropy bits
        assert list(res.counts.items()) == list(counts.items())
        assert res.entropy == count_entropy(counts)


def test_count_entropy_uniform_case():
    counts = {i: 1 for i in range(8)}
    assert count_entropy(counts) == pytest.approx(math.log(8))
    assert count_entropy({}) == 0.0


def test_voronoi_agrees_with_projection(desk_curve):
    rows = list(voronoi_rows(desk_curve, 20))
    assert len(rows) == 400
    for gx, gy, owner in rows[::17]:
        assert owner == alpha2((gx, gy), desk_curve)


def test_voronoi_grid_point_on_seed(desk_curve):
    # resolution 17 samples the integer lattice, hitting every seed exactly
    rows = {(gx, gy): owner for gx, gy, owner in voronoi_rows(desk_curve, 17)}
    for p in desk_curve.affine_points():
        assert rows[(float(p.x), float(p.y))] == p


def test_voronoi_cells_nonuniform(desk_curve):
    counts: dict[Point, int] = {}
    for _, _, owner in voronoi_rows(desk_curve, 34):
        counts[owner] = counts.get(owner, 0) + 1
    assert len(set(counts.values())) > 1


def test_voronoi_rejects_bad_grid(desk_curve):
    with pytest.raises(ValueError):
        list(voronoi_rows(desk_curve, 0))
