"""Reference simulator for the lockstep batch: the one-run-at-a-time loop.

`oracle_run` steps a single run on 1-D numpy states with float signals,
through `WatermarkUnit.step` and `SwitchProtocol`, keeping a separate y_w
history for the attack. `run_batch` must reproduce each of its rows bit for
bit; `oracle_threshold` is the matching calibration, one run at a time.
"""

import logging
import math
from dataclasses import replace

import numpy as np

from ecwatermark.errors import DivergenceError
from ecwatermark.sim import (
    STATE_OVERFLOW,
    STATE_OVERFLOW_SQ,
    AttackSpec,
    Scenario,
    SimTrace,
    _noise_block,
    apply_attack,
)
from ecwatermark.switching import sigma
from ecwatermark.watermark import make_pair

log = logging.getLogger("ecwatermark.sim")


class SwitchProtocol:
    """Owns one unit's trigger rule, that of a `WatermarkSetup` (None never
    fires), and the record of its trigger times."""

    def __init__(self, setup=None):
        self.setup = setup
        self.switch_times: list[int] = []

    def check(self, k: int, signal: float) -> bool:
        """Evaluate the trigger at time k; record and report a firing."""
        if self.setup is None:
            return False
        if self.setup.fires(k, signal):
            self.switch_times.append(k)
            return True
        return False


def _check_state(name: str, state: np.ndarray, step: int) -> None:
    peak = float(np.abs(state).max()) if state.size else 0.0
    if not math.isfinite(peak) or peak > STATE_OVERFLOW:
        raise DivergenceError(name, step, peak)



# a state that overflows is reported by the divergence guard, not by numpy
@np.errstate(over="ignore")
def oracle_run(scenario: Scenario, *, horizon: int | None = None,
                 seed: int | None = None, threshold: float | None = None) -> SimTrace:
    """One closed-loop run stepped on its own, on 1-D states and float
    signals: the reference every row of a lockstep batch must equal."""
    horizon = scenario.horizon if horizon is None else int(horizon)
    seed = scenario.seed if seed is None else seed
    spec = scenario.detector.threshold
    if threshold is not None:
        thr = float(threshold)
    elif spec.mode == "fixed":
        thr = spec.value
    else:
        thr = oracle_threshold(replace(scenario, attack=AttackSpec()))

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
    proto_w, proto_q = SwitchProtocol(wm), SwitchProtocol(wm)
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
    # the whole run's noise as one block: the stream does not depend on the block size
    block = _noise_block(np.random.default_rng(seed), plant, n)
    v_col, w_blk = block[:, 0].tolist(), block[:, 1:]

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
        y_wt = apply_attack(y_w, y_w_history, attack, k)
        # a replay whose window reaches before step 0 defers its activation
        deferred = attack.kind == "replay" and attack.start <= k < attack.window
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
        metadata={"seed": seed, "threshold": thr, "horizon": n, "scenario": scenario.source},
    )


def oracle_threshold(scenario: Scenario) -> float:
    """`calibrate_threshold` with each calibration run stepped on its own."""
    spec = scenario.detector.threshold
    base = scenario.seed + 1_000_003
    pooled = np.concatenate([np.abs(oracle_run(scenario, seed=base + i, threshold=math.inf).y_r)
                             for i in range(spec.runs)])
    value = float(np.quantile(pooled, spec.quantile)) * spec.safety
    return value if value > 0.0 else spec.floor
