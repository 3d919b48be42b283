"""In-memory span tracer and the instrumentation that feeds it.

A span is (id, name, start_ns, end_ns, parent_id). Spans nest on a stack, so
each one knows its parent and how much of its interval its children covered;
self time is its duration minus that. Per-name counts, total time, self time
and work items are kept for every span, and the spans themselves are kept in
memory up to a cap and written out once, when the run ends.

`instrument` wraps the package's public functions and methods with spans for
the duration of a `with` block and restores the originals afterwards. It
patches every module of the package that holds a reference to a target, so
calls the package makes internally (a scenario run calling `sigma`, a sweep
calling `nearest_affine`) are traced too. The untraced run never patches.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager

# Spans beyond this many are aggregated but not stored, so a long traced run
# on fast code stays within a few tens of megabytes.
MAX_STORED_SPANS = 50_000


class Tracer:
    def __init__(self, max_spans: int = MAX_STORED_SPANS):
        self.max_spans = max_spans
        self.spans: list[tuple[int, str, int, int, int]] = []
        self.dropped = 0
        # name -> [calls, total_ns, self_ns, items]
        self.stats: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.active = True
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]
        self._next_id = 1

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def end(self, items: int = 0) -> int:
        """Close the innermost span; returns its duration in ns."""
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0, 0, 0]
        st[0] += 1
        st[1] += duration
        st[2] += duration - child_ns
        st[3] += items
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent[0] if parent else 0))
        else:
            self.dropped += 1
        return duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    @contextmanager
    def paused(self):
        """Run benchmark-side checks without recording the package calls they make."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- read-out ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def mean_ns(self, name: str) -> float:
        """Mean span duration (children included); 0 when never called."""
        st = self.stats.get(name)
        return st[1] / st[0] if st else 0.0

    def per_item_ns(self, name: str) -> float:
        """Total span time divided by the work items its calls reported."""
        st = self.stats.get(name)
        return st[1] / st[3] if st and st[3] else 0.0

    def root_ns(self) -> int:
        """Time covered by spans that have no parent: the sum of all self times."""
        return sum(st[2] for st in self.stats.values())

    def self_ns_by_layer(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, st in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + st[2]
        return out

    def dump(self) -> dict:
        return {
            "spans_recorded": len(self.spans) + self.dropped,
            "spans_dropped": self.dropped,
            "stats": {name: {"calls": st[0], "total_ns": st[1], "self_ns": st[2],
                             "items": st[3]}
                      for name, st in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id"],
            "spans": self.spans,
        }


def _traced(tracer: Tracer, fn, name, items=None):
    """Wrap fn in a span. `name` may be a function of the call's arguments;
    `items` maps the result to the number of work items it covered."""
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            if not tracer.active:
                yield from fn(*args, **kwargs)
                return
            tracer.begin(name)
            n = 0
            try:
                for row in fn(*args, **kwargs):
                    n += 1
                    yield row
            finally:
                tracer.end(n)
        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.begin(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.end()
            raise
        tracer.end(items(result) if items else 0)
        return result
    return traced


def _sweep_samples(results) -> int:
    return sum(r.n_realizations for r in results)


def _step_name(args) -> str:
    return f"watermark.{args[0].role}_step"


@contextmanager
def instrument(tracer: Tracer):
    """Trace every public call into field, curve, switching, watermark, sim
    and analysis while the block runs. cli spans are opened by the caller
    around `cli.main`, named after the subcommand."""
    from ecwatermark import analysis, curve, field, sim, switching, watermark

    functions = [
        (field, "sqrt_candidates", "field.sqrt_candidates", None),
        (switching, "alpha1", "switching.alpha1", None),
        (switching, "alpha2", "switching.alpha2", None),
        (switching, "eta1", "switching.eta1", None),
        (switching, "eta2", "switching.eta2", None),
        (switching, "sigma", "switching.sigma", None),
        (watermark, "apply_switch", "watermark.apply_switch", None),
        (sim, "calibrate_threshold", "sim.calibrate", None),
        (sim, "run_scenario", "sim.run_scenario", len),
        (analysis, "sensitivity_sweep", "analysis.sweep", _sweep_samples),
        (analysis, "voronoi_rows", "analysis.voronoi", None),
    ]
    methods = [
        (curve.Curve, "add", "curve.add", None),
        (curve.Curve, "scalar_mul", "curve.scalar_mul", None),
        (curve.Curve, "nearest_affine", "curve.nearest_affine", None),
        (curve.Curve, "point_order", "curve.point_order", None),
        (watermark.WatermarkUnit, "step", _step_name, None),
        (sim.SimTrace, "write_outputs", "sim.write_outputs", None),
    ]
    classmethods = [
        (sim.Scenario, "load", "sim.scenario_load"),
        (switching.SwitchingConfig, "from_dict", "switching.config_load"),
    ]
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "ecwatermark" or key.startswith("ecwatermark."))]
    undo = []
    try:
        for owner, attr, name, items in functions:
            original = getattr(owner, attr)
            wrapper = _traced(tracer, original, name, items)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))
        for cls, attr, name, items in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, _traced(tracer, original, name, items))
            undo.append((cls, attr, original))
        for cls, attr, name in classmethods:
            original = cls.__dict__[attr]
            setattr(cls, attr, classmethod(_traced(tracer, original.__func__, name)))
            undo.append((cls, attr, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
