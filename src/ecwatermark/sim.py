"""Closed-loop simulation of a `scenario.Scenario`, recorded as a `SimTrace`.

Blocks: plant -> watermark generator -> channel (with optional
man-in-the-middle attack) -> watermark remover -> residual detector and
controller. Within one sample the order is fixed and documented:

1. pending parameter switches apply (between samples, driven by the
   previous sample's signals: the generator keys on its last plant output,
   the remover on its last reconstructed output); each distinct key of a
   step goes through `sigma` once, generator keys by row, then remover keys;
2. plant output with measurement noise;
3. generator modulates; the attacker may rewrite a run's channel value
   (never a calibration run's); remover demodulates;
4. detector residual; the alarm test against the (constant) threshold runs
   over the finished residual column;
5. controller output, then all state updates with process noise. The
   run's noise is drawn in blocks of steps whose row k is (v_k, w_k), in the
   stream order of a per-step draw: measurement noise first, then process
   noise;
6. triggers are evaluated on this sample's signals for the next step.

The detector is an observer: nothing in the loop reads its state or
residual. So the per-step loop steps only the feedback path (items 1-3, the
controller and the plant and controller states, and 6), writing each step's
signals and states into buffers for a block of steps, and the detector then
runs over the block in one pass (`_observe`): the same products in the same
order, so every residual and state is the per-step one bit for bit. The
divergence guard checks the start states before step 0, then scans each
block's plant, controller and detector states once and reports the step,
row and block a per-step guard would have (see `run_batch`). Past a
divergence the loop steps on to the block's end, so a later switch there
may fill `tap_table` rows that a per-step guard would not; no output reads
them.

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
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, EcwmError, InputError
from .scenario import (AttackSpec, ControllerModel, DetectorModel, NoiseSpec, PlantModel,
                       Scenario, ThresholdSpec, WatermarkSetup, apply_attack)
from .switching import admissible_taps, sigma
from .watermark import fir_step

log = logging.getLogger(__name__)

STATE_OVERFLOW = 1e12

# Values a lockstep batch holds at once besides its trace columns (2 MB),
# whatever the horizon, the number of runs or the orders of plant, controller
# and detector: a block of steps' noise and, in 1/STEP_BLOCK_SHARE of them,
# the buffers of a shorter block of steps' signals. One numpy call per run
# draws a noise block, and one detector pass serves a signal block, so each
# block spreads a fixed cost. Past NOISE_BLOCK_STEPS steps a draw's is spread
# thin already, and a longer noise block would only hold memory.
NOISE_BLOCK_VALUES = 1 << 18
STEP_BLOCK_SHARE = 32
NOISE_BLOCK_STEPS = 1024

# Rows SimTrace.to_csv converts to Python values at once: enough to spread
# the per-block numpy calls, few enough that a 10^6-step trace is written
# holding about 80 KB of them, not 300 MB.
CSV_BLOCK_ROWS = 256

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
    "calibrate_threshold",
]


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
        columns = (self.k, self.y_p, self.y_w, self.y_w_tilde, self.y_q, self.u,
                   self.y_r, self.y_r_bar, self.alarm, self.switch)
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write(self.CSV_HEADER + "\n")
            for lo in range(0, len(self), CSV_BLOCK_ROWS):
                k, *floats, alarm, switch = (c[lo:lo + CSV_BLOCK_ROWS].tolist() for c in columns)
                fh.writelines(",".join(row) + "\n" for row in zip(
                    map(str, k), *(map(repr, f) for f in floats),
                    map(str, map(int, alarm)), map(str, map(int, switch))))

    def write_outputs(self, outdir) -> dict:
        """Write trace.csv, summary.json and trace_meta.json, the metadata
        sidecar: the run's seed, threshold and horizon, and under "scenario"
        the file the scenario was loaded from with `watermark.config.l`
        redacted (`Scenario.source`; null for a scenario built in code)."""
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


def _noise_block(rng: np.random.Generator, plant: PlantModel, rows: int) -> np.ndarray:
    """The next `rows` steps of a run's noise, drawn from its stream `rng`,
    as a (rows, 1 + n_x) block whose row k is (v_k, w_k).

    Values and stream order equal a per-step draw of the measurement noise,
    then the process noise, for any `rows`: numpy fills a draw in C order,
    so consecutive blocks continue one stream. Sources of one kind (a `none`
    source draws nothing) take one call with their parameters concatenated;
    uniform mixed with normal noise is drawn row by row.
    """
    block = np.zeros((rows, 1 + plant.A.shape[0]))
    sources = [(spec, cols) for spec, cols in ((plant.measurement_noise, slice(0, 1)),
                                               (plant.process_noise, slice(1, None)))
               if spec.kind != "none"]
    draw = {"uniform": rng.uniform, "normal": rng.normal}
    if len({spec.kind for spec, _ in sources}) == 1:
        a = sum((spec.params[0] for spec, _ in sources), ())
        b = sum((spec.params[1] for spec, _ in sources), ())
        cols = slice(sources[0][1].start, sources[-1][1].stop)
        block[:, cols] = draw[sources[0][0].kind](a, b, (rows, len(a)))
    elif sources:
        for row in block:
            for spec, cols in sources:
                row[cols] = draw[spec.kind](*spec.params)
    return block


def calibrate_threshold(scenario: Scenario) -> float:
    """Constant detector threshold from the spec's `runs` calibration runs
    (see `_lockstep`): a lockstep batch of calibration rows only. The rows
    are attack-free whatever the scenario's attack, so an attacked scenario
    calibrates as its attack-free copy does, and as `run_scenario` does. A
    diverging run raises DivergenceError as in `run_batch`."""
    return _lockstep(scenario, [], scenario.horizon, calibrate=True)[-1]


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

    `threshold` overrides the detector threshold. Without it a fixed spec
    gives its value, and a calibrating spec adds the runs of
    `calibrate_threshold` to the batch as rows after the runs, so the
    horizon must then be the scenario's (ValueError otherwise).

    Divergence stops the whole batch: DivergenceError reports the earliest
    step at which any row's state leaves the overflow guard, the lowest row
    index among the rows failing at that step (runs before calibration
    runs), and that row's first offending block (plant, controller, detector
    order) with its peak; a start state beyond the guard is reported at step
    0 before any step runs. A single run reports what it reports alone.
    """
    spec = scenario.detector.threshold
    horizon = scenario.horizon if horizon is None else int(horizon)
    calibrate = threshold is None and spec.mode == "calibrate"
    if calibrate and horizon != scenario.horizon:
        raise ValueError("a horizon override needs an explicit threshold: "
                         "calibration runs span the scenario's horizon")
    seeds = list(seeds)
    columns, switch, taps, times_w, times_q, thr = _lockstep(scenario, seeds, horizon, calibrate)
    if not calibrate:
        thr = float(spec.value if threshold is None else threshold)
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
                      "scenario": scenario.source},
        )
        for i, seed in enumerate(seeds)
    ]


# trace columns of the run rows, each (horizon, runs, 1, 1); the loop writes
# y_w per step (replay reads it back), a block pass the others per block
_COLUMNS = ("y_p", "y_w", "y_w_tilde", "y_q", "u", "y_r")


def _check_step(k: int, signals, states: dict) -> tuple[EcwmError, bool]:
    """The error behind step k, at which some row's state leaves the
    divergence guard, and whether it comes before the attack in the step's
    order. `signals` are the watermark inputs (y_p, y_w_tilde), or none, and
    `states` maps block names to (R, n, 1) states, in plant, controller,
    detector order. For the lowest row index that fails, the error is
    InputError for a non-finite watermark input (as WatermarkUnit.step
    raises; the generator's comes before the attack), else DivergenceError
    for its first state block beyond STATE_OVERFLOW or non-finite."""
    peaks = {name: np.abs(x).max(axis=(1, 2)) for name, x in states.items()}
    failing = [~np.isfinite(s).ravel() for s in signals]
    failing += [~(p <= STATE_OVERFLOW) for p in peaks.values()]
    i = np.flatnonzero(np.any(failing, axis=0))[0]
    for m, signal in enumerate(signals):
        value = float(signal[i, 0, 0])
        if not math.isfinite(value):
            return InputError(f"sample must be finite, got {value!r}"), m == 0
    for name, peak in peaks.items():
        if not peak[i] <= STATE_OVERFLOW:
            return DivergenceError(name, k, float(peak[i])), False


def _block_rows(n_rows: int, noise_width: int, signal_width: int) -> tuple[int, int]:
    """Steps per signal block and per noise block, a whole number of signal
    blocks, for a batch of n_rows rows whose steps hold noise_width noise
    values and signal_width signal values per row: within NOISE_BLOCK_VALUES
    together, unless a single step's values exceed it."""
    steps = max(1, NOISE_BLOCK_VALUES // (STEP_BLOCK_SHARE * n_rows * signal_width))
    noise = (NOISE_BLOCK_VALUES - steps * n_rows * signal_width) // (n_rows * noise_width)
    noise = max(1, min(noise, NOISE_BLOCK_STEPS))
    steps = min(steps, noise)
    return steps, noise - noise % steps


def _observe(det: DetectorModel, x_r, u, y_q, y_r, scratch) -> None:
    """Run the detector over a block of n steps, given the block's inputs u
    (n, R, n_u, 1) and y_q (n, R, 1, 1); the divergence guard then reads
    its states from x_r.

    x_r (n + 1, R, n_r, 1) holds the state at the block's start in x_r[0]
    and receives the state after step j in x_r[j + 1]; y_r (n, R, 1, 1)
    receives the residuals; scratch (n, R, n_r, 1) is overwritten. Every
    product is the per-step one: a stacked matmul rounds each row as the
    single product does, and the recursion keeps the per-step association
    (A x_r + B u) + K y_q.
    """
    matmul = np.matmul
    n_r = x_r.shape[2]
    # B u goes into each next state's slot, then A x_r is added to it (IEEE
    # addition commutes, so the sum is A x_r + B u bit for bit)
    matmul(det.B, u.reshape(-1, u.shape[2], 1), out=x_r[1:].reshape(-1, n_r, 1))
    np.multiply(det.K, y_q, out=scratch)
    a_x = np.empty_like(x_r[0])
    for x, x_next, k_y in zip(x_r[:-1], x_r[1:], scratch):
        x_next += matmul(det.A, x, out=a_x)
        x_next += k_y
    matmul(det.C, x_r[:-1].reshape(-1, n_r, 1), out=y_r.reshape(-1, 1, 1))
    l_y = scratch.reshape(-1)[:y_q.size].reshape(y_q.shape)
    y_r += np.multiply(float(det.L[0, 0]), y_q, out=l_y)


# a state that overflows is reported by the divergence guard, not by numpy
@np.errstate(over="ignore", invalid="ignore")
def _lockstep(scenario: Scenario, seeds, horizon: int, calibrate=False):
    """Step one run per seed in lockstep; the loop behind every run.

    With `calibrate`, the threshold spec's `runs` calibration runs follow as
    attack-free rows that keep only their residual, seeded from the scenario
    seed, so the threshold is reproducible whatever the run seeds. Returns
    the runs' trace columns as (horizon, R) arrays, their (horizon, R) switch
    flags and, per run, its sparse tap record and its generator and remover
    trigger times; then the calibrated threshold, or None.

    The steps go in blocks. Within a block the loop steps only the feedback
    path (plant output, generator, attack, remover, controller and its
    states) and writes its signals and states into block buffers; the
    detector, which feeds nothing back, then runs over the whole block
    (`_observe`), the divergence guard scans the block's states, and the
    block's rows go to the columns. Besides the columns and the calibration
    residual, the loop holds about NOISE_BLOCK_VALUES values: the block's
    noise and its buffers.
    """
    plant, ctrl, det = scenario.plant, scenario.controller, scenario.detector
    wm, attack, spec = scenario.watermark, scenario.attack, det.threshold
    n_runs = len(seeds)
    base = scenario.seed + 1_000_003
    all_seeds = seeds + (list(range(base, base + spec.runs)) if calibrate else [])
    n_rows = len(all_seeds)
    run = slice(0, n_runs)
    matmul = np.matmul

    c_p = plant.C
    n_u, n_x, n_c, n_r = plant.B.shape[1], plant.A.shape[0], ctrl.A.shape[0], det.A.shape[0]
    width = 1 + n_x
    # per row and step the signal buffers hold y_p, y_w_tilde, y_q, y_r, u,
    # the plant, controller and detector states and K y_q
    block_rows, noise_rows = _block_rows(n_rows, width, 4 + n_u + n_x + n_c + 2 * n_r)
    rngs = [np.random.default_rng(seed) for seed in all_seeds]
    block = np.empty((min(noise_rows, horizon), n_rows, width))
    size = min(block_rows, horizon)
    yp_blk, ywt_blk, yq_blk, yr_blk = (np.empty((size, n_rows, 1, 1)) for _ in range(4))
    u_blk = np.empty((size, n_rows, n_u, 1))
    # states stacked as (R, n, 1) (see the module docstring for why): slot 0
    # of a block's buffer holds the state at its start, slot j + 1 the state
    # after its step j
    starts = (("plant", plant.x0), ("controller", ctrl.x0), ("detector", det.x0))
    # a start state beyond the divergence guard fails before step 0
    for name, x0 in starts:
        peak = float(np.abs(x0).max())
        if not peak <= STATE_OVERFLOW:
            raise DivergenceError(name, 0, peak)
    states = {name: np.tile(x0[:, None], (size + 1, n_rows, 1, 1)) for name, x0 in starts}
    xp_blk, xc_blk, xr_blk = states.values()
    scratch = np.empty((size, n_rows, n_r, 1))

    cols = {name: np.zeros((horizon, n_runs, 1, 1)) for name in _COLUMNS}
    residual = np.zeros((horizon, n_rows - n_runs, 1, 1))
    history = cols["y_w"]  # what replay reads back
    switch = np.zeros((horizon, n_rows), dtype=bool)
    tap_record = [[] for _ in all_seeds]
    times_w, times_q = [[] for _ in all_seeds], [[] for _ in all_seeds]

    # without watermark or with trigger "none", no switch is ever pending
    triggered = wm is not None and wm.trigger != "none"
    if wm is not None:
        theta = admissible_taps(wm.initial_theta(), wm.config.n_h + 1)
        # per-row taps as one (n_taps, R, 1, 1) table per endpoint; b_w[m] is tap m of every row
        table_w, table_q = (np.tile(np.array(theta)[:, None, None, None], (1, n_rows, 1, 1))
                            for _ in range(2))
        b_w, b_q = list(table_w), list(table_q)
        reg_w = reg_q = (np.zeros((n_rows, 1, 1)),) * (len(theta) - 1)
        tap_record = [[(0, theta, theta)] for _ in all_seeds]
    pend_w, pend_q = {}, {}  # row index -> the signal its trigger fired on
    # the step whose deferral is logged: the first attacked step of a replay
    # whose window reaches before step 0
    first = max(attack.start, 0)
    deferred_at = first if attack.kind == "replay" and first < attack.window else -1

    for start in range(0, horizon, block_rows):
        if start % noise_rows == 0:
            # every row's next noise block side by side: (rows, R, 1 + n_x)
            drawn = min(noise_rows, horizon - start)
            for i, rng in enumerate(rngs):
                block[:drawn, i] = _noise_block(rng, plant, drawn)
        rows = min(block_rows, horizon - start)
        at = start % noise_rows
        v, w = block[at:at + rows, :, :1, None], block[at:at + rows, :, 1:, None]
        # the block's error, the index of the step it comes from, whether it
        # comes before that step's attack, and the number of steps stepped
        failure, failed, before, done = None, -1, False, rows

        steps = zip(yp_blk, ywt_blk, yq_blk, u_blk, v, w, history[start:start + rows],
                    zip(xp_blk, xp_blk[1:], xc_blk, xc_blk[1:]))
        for j, (y_p, y_wt, yq_j, u, v_j, w_j, yw_j, (x_p, xp_1, x_c, xc_1)) in enumerate(steps):
            k = start + j

            # 1. apply pending switches (between samples); each distinct key goes
            # through sigma once, which checked its taps when it stored them
            if pend_w or pend_q:
                try:
                    derived = {key: sigma(key, wm.config).taps
                               for key in dict.fromkeys([*pend_w.values(), *pend_q.values()])}
                except EcwmError as exc:
                    # raised below, unless a state left the guard at an earlier step
                    failure, failed, before, done = exc, j, True, j
                    break
                for pend, table in ((pend_w, table_w), (pend_q, table_q)):
                    if pend:
                        table[:, list(pend), 0, 0] = np.array([derived[y] for y in pend.values()]).T
                for i in sorted(pend_w.keys() | pend_q.keys()):
                    switch[k, i] = True
                    _, held_w, held_q = tap_record[i][-1]  # the taps in force
                    tap_record[i].append((k, derived[pend_w[i]] if i in pend_w else held_w,
                                          derived[pend_q[i]] if i in pend_q else held_q))
                pend_w, pend_q = {}, {}

            # 2. plant output, in place in the block buffer
            matmul(c_p, x_p, out=y_p)
            y_p += v_j

            # 3. watermark, channel, attack, remover
            y_w = y_p if wm is None else fir_step(b_w, reg_w, y_p, True)
            yw_j[...] = y_w[run]
            # the runs are attacked; the calibration rows after them pass unchanged
            y_wt[...] = y_w
            y_wt[run] = apply_attack(y_w[run], history, attack, k)
            if wm is None:
                y_q = y_wt
            else:
                y_q = fir_step(b_q, reg_q, y_wt, False)
                reg_w, reg_q = (y_p,) + reg_w[:-1], (y_q,) + reg_q[:-1]
            yq_j[...] = y_q

            # 4. the detector runs over the whole block below

            # 5. controller output and state updates, (A x_p + B u) + w_j and
            # A x_c + B y_q as the per-step sums round
            matmul(ctrl.C, x_c, out=u)
            u += ctrl.D * y_q
            matmul(plant.A, x_p, out=xp_1)
            xp_1 += matmul(plant.B, u)
            xp_1 += w_j
            matmul(ctrl.A, x_c, out=xc_1)
            xc_1 += ctrl.B * y_q

            # 6. triggers for the next step, keyed on this sample's signals
            if triggered:
                for pend, times, signal in ((pend_w, times_w, y_p), (pend_q, times_q, y_q)):
                    fired = wm.fires(k, signal)  # one bool for all rows, or one per row
                    if fired is not False and np.any(fired):
                        values = signal.ravel().tolist()
                        for i in np.flatnonzero(np.broadcast_to(fired, signal.shape)).tolist():
                            times[i].append(k)
                            pend[i] = values[i]

        # 4. the detector over the steps stepped, then the divergence guard:
        # the first of those steps at which any row's state leaves it is where
        # a per-step guard would have stopped, before any later switch error
        _observe(det, xr_blk[:done + 1], u_blk[:done], yq_blk[:done], yr_blk[:done],
                 scratch[:done])
        bad = np.zeros(done, dtype=bool)
        for x in states.values():
            bad |= ~(np.abs(x[1:done + 1]).max(axis=(1, 2, 3)) <= STATE_OVERFLOW)
        if bad.any():
            failed = int(bad.argmax())
            signals = () if wm is None else (yp_blk[failed], ywt_blk[failed])
            failure, before = _check_step(start + failed, signals,
                                          {name: x[failed + 1] for name, x in states.items()})
        # the deferral warning at step j, if a run stepped on its own reaches
        # that step's attack: no failure, a later one, or one at step j after
        # the attack
        j = deferred_at - start
        if 0 <= j < rows and (failure is None or failed > j or (failed == j and not before)):
            log.warning("replay attack at step %d lacks %d steps of history; activation deferred",
                        deferred_at, attack.window - deferred_at)
        if failure is not None:
            raise failure

        out = slice(start, start + rows)
        for name, buf in (("y_p", yp_blk), ("y_w_tilde", ywt_blk), ("y_q", yq_blk),
                          ("y_r", yr_blk)):
            cols[name][out] = buf[:rows, run]
        cols["u"][out] = u_blk[:rows, run, :1]
        residual[out] = yr_blk[:rows, n_runs:]
        for x in states.values():
            x[0] = x[rows]
        if wm is not None:
            # the generator register holds views of y_p rows the next block overwrites
            reg_w = tuple(r.copy() for r in reg_w)

    columns = {name: cols[name].reshape(horizon, n_runs) for name in _COLUMNS}
    threshold = None
    if calibrate:
        # the quantile (1.0: the maximum) of the pooled |residual|, taken in
        # place, times the safety factor; zero (noiseless) gives the floor
        np.abs(residual, out=residual)
        value = float(np.quantile(residual, spec.quantile, overwrite_input=True)) * spec.safety
        threshold = value if value > 0.0 else spec.floor
    return columns, switch[:, run], tap_record[run], times_w[run], times_q[run], threshold
