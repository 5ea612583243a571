"""Iteration engines: NEAR-DGD variants, DGD, and gradient tracking.

A run is strictly sequential; parallelism lives one level up (sweeps over
methods and seeds share no mutable state). run()'s loop does only the
method's work and buffers each iteration's state; the certificates and trace
rows are computed from those buffers one block of rows at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .consensus import CommCounter, ConsensusMatrix, apply_consensus
from .diagnostics import (CostModel, RunTrace, TraceRecord, consensus_distance,
                          consensus_distance_bound, cumulative_cost,
                          descent_certificate, inner, lyapunov_grad_at,
                          lyapunov_value_at, rho_constant)
from .objective import Objective

INIT_BOUND = 1.0        # iterates start uniform in [-INIT_BOUND, INIT_BOUND]
BOX_INFLATION = 4.0     # trajectory box radius = INIT_BOUND * BOX_INFLATION
# a run buffers max(1, BLOCK_ELEMENTS // (n p)) iterations between two
# certificate passes, so its buffers and temporaries do not grow with budget
BLOCK_ELEMENTS = 2**12

METHOD_NAMES = ("near-dgd-t", "near-dgd-plus", "near-dgd-plus-doubling",
                "dgd", "gradient-tracking")


class SteplengthError(ValueError):
    """alpha fails the descent condition alpha < 2/L."""


@dataclass(frozen=True)
class Schedule:
    """Consensus rounds per iteration: fixed t, t(k)=k+1, or periodic doubling."""

    kind: str  # "fixed" | "linear" | "doubling"
    t: int = 1
    period: int = 100
    start: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "linear", "doubling"):
            raise ValueError("unknown schedule kind %r" % self.kind)
        if self.t < 1 or self.period < 1 or self.start < 1:
            raise ValueError("schedule parameters must be >= 1")

    def rounds(self, k: int) -> int:
        if self.kind == "fixed":
            return self.t
        if self.kind == "linear":
            return k + 1
        return self.start * 2 ** (k // self.period)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    t: int = 1
    period: int = 100

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError("unknown method %r" % self.name)

    def schedule(self) -> Schedule:
        if self.name == "near-dgd-t":
            return Schedule("fixed", t=self.t)
        if self.name == "near-dgd-plus":
            return Schedule("linear")
        if self.name == "near-dgd-plus-doubling":
            return Schedule("doubling", period=self.period)
        return Schedule("fixed", t=1)  # baselines: one round per iteration

    def label(self) -> str:
        if self.name == "near-dgd-t":
            return "near-dgd-t:%d" % self.t
        if self.name == "near-dgd-plus-doubling":
            return "near-dgd-plus-doubling:%d" % self.period
        return self.name

    @staticmethod
    def parse(token: str) -> "MethodSpec":
        name, _, param = token.strip().partition(":")
        if name == "near-dgd-t":
            return MethodSpec(name, t=int(param) if param else 1)
        if name == "near-dgd-plus-doubling":
            return MethodSpec(name, period=int(param) if param else 100)
        if param:
            raise ValueError("method %r takes no parameter" % name)
        return MethodSpec(name)


# ---------------------------------------------------------------------------
# Single steps (the spec-level primitives; run() drives them with tracing)

def gradient(x, objective: Objective, counter: CommCounter) -> np.ndarray:
    """grad f(x) at every node: one gradient evaluation."""
    counter.gradient_evals += 1
    return objective.stacked_grad(x)


def gradient_step(x, objective: Objective, alpha: float, counter: CommCounter):
    """The computation half of NEAR-DGD: (grad f(x), y+ = x - a grad f(x))."""
    grad = gradient(x, objective, counter)
    return grad, x - alpha * grad


def near_dgd_step(y, objective: Objective, cm: ConsensusMatrix, t: int,
                  alpha: float, counter: CommCounter):
    """One NEAR-DGD iteration: x = Z^t y, then y+ = x - a grad f(x)."""
    x = apply_consensus(cm, t, y, counter)
    return x, gradient_step(x, objective, alpha, counter)[1]


def dgd_step(x, objective: Objective, cm: ConsensusMatrix, alpha: float,
             counter: CommCounter):
    """One DGD iteration: x+ = Z x - a grad f(x); consensus fused with gradient."""
    g = gradient(x, objective, counter)
    return apply_consensus(cm, 1, x, counter) - alpha * g


def gradient_tracking_step(x, s, grad_x, objective: Objective,
                           cm: ConsensusMatrix, alpha: float, counter: CommCounter):
    """DIGing-form update with a tracked average-gradient estimate.

    x+ = Wx - a s;  s+ = Ws + grad f(x+) - grad f(x). The gradient at x+ is
    returned for caching, so steady state costs 2 comms + 1 grad.
    """
    x_next = apply_consensus(cm, 1, x, counter) - alpha * s
    grad_next = gradient(x_next, objective, counter)
    s_next = apply_consensus(cm, 1, s, counter) + grad_next - grad_x
    return x_next, s_next, grad_next


# ---------------------------------------------------------------------------
# Full runs

@dataclass
class RunResult:
    trace: RunTrace
    counter: CommCounter
    final_y: np.ndarray
    final_x: np.ndarray
    final_avg: np.ndarray
    b_y: float                    # trajectory max of the stacked iterate norm
    max_cons_gap: float           # max over iterations of cons_dist - beta^t ||y_k||
    max_eq7_inf: float            # fixed-t runs: worst Eq.-style identity violation
    lipschitz: float

    @property
    def diverged(self) -> bool:
        return self.trace.diverged

    @property
    def final_avg_grad_norm(self) -> float:
        return self.trace.final.grad_avg_norm


def _validate_alpha(alpha, lipschitz, allow_large_alpha):
    if alpha <= 0:
        raise SteplengthError("alpha must be positive")
    if alpha >= 2.0 / lipschitz and not allow_large_alpha:
        raise SteplengthError(
            "alpha=%g violates alpha < 2/L with L=%g; pass allow_large_alpha "
            "to override (descent guarantees are then void)" % (alpha, lipschitz))


def initial_point(n, p, seed) -> np.ndarray:
    """Uniform draw in [-1, 1]^{np}; one stream per seed, shared across methods."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    return rng.uniform(-INIT_BOUND, INIT_BOUND, size=(n, p))


def _running_max(current, values) -> float:
    """max(current, *values) as Python's max computes it: a NaN never
    replaces the running value (current is never NaN)."""
    return float(np.fmax.reduce(values, initial=current))


class _BlockCertifier:
    """The certificates and trace rows of one run, a block of rows at a time.

    push() buffers one iteration and _certify() turns a full block into trace
    records and certificate maxima; finish() certifies the rest and appends
    the terminal row. Slot 0 of ys and xs holds the state (y_k, x_k) the
    block starts from, with its Lyapunov value in lyap; row i's y_{k+1} and
    x_{k+1} go in slot i + 1. The baselines have x_k = y_k, so xs is ys.
    """

    def __init__(self, objective, cm, method, alpha, cost_model, result, y, x):
        n, p = objective.n, objective.p
        self.objective, self.cm, self.alpha, self.cost_model = objective, cm, alpha, cost_model
        self.result, self.trace, self.lipschitz = result, result.trace, result.lipschitz
        self.f_star = objective.min_value()
        self.near_dgd = method.name.startswith("near-dgd")
        self.rows = max(1, BLOCK_ELEMENTS // (n * p))
        self.ys = np.empty((self.rows + 1, n, p))
        self.xs = np.empty_like(self.ys) if self.near_dgd else self.ys
        # grad f(x_k) per row, for the Eq.-7 check of fixed-t NEAR-DGD
        self.grads = np.empty((self.rows, n, p)) if method.name == "near-dgd-t" else None
        self.ys[0], self.xs[0] = y, x
        self.meta, self.changes = [], []  # (k, t_k, comms, grads); (i, Z^{t_k} y_{k+1})
        self.lyap = lyapunov_value_at(y, x, objective, alpha) if self.near_dgd else math.nan
        self.rho = {}  # descent constant per t

    def push(self, k, t, counter, y_next, x_next, grad=None, z_change=None):
        """Buffer iteration k at t_k = t: y_{k+1}, x_{k+1} and grad f(x_k).
        z_change is Z^{t_k} y_{k+1} when t_{k+1} != t_k (x_{k+1} then uses
        t_{k+1}); after a divergence x_{k+1} is Z^{t_k} of the out-of-box
        y_{k+1}. Certifies the block once it is full."""
        i = len(self.meta)
        self.ys[i + 1] = y_next
        if self.xs is not self.ys:
            self.xs[i + 1] = x_next
        if self.grads is not None:
            self.grads[i] = grad
        if z_change is not None:
            self.changes.append((i, z_change))
        self.meta.append((k, t, counter.consensus_rounds, counter.gradient_evals))
        if len(self.meta) == self.rows:
            self._certify()

    def finish(self, k, t, counter, y):
        """Certify the buffered rows, then append the terminal row at y: the
        state y_K, or y_k with the last row's L_t(y_k) after a divergence."""
        self._certify()
        lyap = self.trace.final.lyapunov if self.trace.diverged else self.lyap
        self._append_rows(np.array([[k, t, counter.consensus_rounds, counter.gradient_evals]]),
                          y[None], np.array([lyap]), np.array([math.nan]))

    def _certify(self):
        m = len(self.meta)
        if m == 0:
            return
        meta = np.array(self.meta)
        ts = meta[:, 1].tolist()
        ys, xs = self.ys[:m + 1], self.xs[:m + 1]
        objective, cm, alpha, res = self.objective, self.cm, self.alpha, self.result
        norms = np.sqrt(inner(ys, ys))  # ||y_k||, and ||y_{k+1}|| of the last row
        res.b_y = _running_max(res.b_y, norms[1:])
        lyaps = np.full(m + 1, math.nan)  # L_{t_k}(y_k) from (y_k, x_k)
        residuals = np.full(m, math.nan)
        if self.near_dgd:
            lyaps[0] = self.lyap
            lyaps[1:] = lyapunov_value_at(ys[1:], xs[1:], objective, alpha)
            lyap_next = lyaps[1:].copy()  # L_{t_k}(y_{k+1})
            if self.changes:
                rows = np.array([i for i, _ in self.changes])
                lyap_next[rows] = lyapunov_value_at(
                    ys[rows + 1], np.array([z for _, z in self.changes]), objective, alpha)
            for t in set(ts) - self.rho.keys():
                # alpha >= 2/L under the override flag: no guaranteed margin,
                # report the raw Lyapunov difference
                self.rho[t] = (rho_constant(cm, t, alpha, self.lipschitz)
                               if alpha < 2.0 / self.lipschitz else 0.0)
            residuals = descent_certificate(lyaps[:m], lyap_next, ys[:m], ys[1:],
                                            np.array([self.rho[t] for t in ts]))
        cons = self._append_rows(meta, xs[:m], lyaps[:m], residuals)
        if self.near_dgd:
            bounds = [consensus_distance_bound(cm.beta, t, b)
                      for t, b in zip(ts, norms[:m].tolist())]
            res.max_cons_gap = _running_max(res.max_cons_gap, cons - bounds)
        if self.grads is not None:
            # x_{k+1} - x_k vs -a grad L_t(y_k)
            violation = np.abs(xs[1:] - xs[:m] + alpha * lyapunov_grad_at(
                xs[:m], self.grads[:m], cm, ts[0], alpha))
            res.max_eq7_inf = _running_max(res.max_eq7_inf,
                                           violation.reshape(m, -1).max(axis=1))
        self.ys[0], self.xs[0], self.lyap = ys[m], xs[m], lyaps[m]
        self.meta.clear()
        self.changes.clear()

    def _append_rows(self, meta, points, lyaps, residuals):
        """Append the trace rows with (k, t_k, comms, grads) in meta, each
        describing its (n, p) point; returns their cons_dist."""
        ks, ts, comms, grads = meta.T
        cons = consensus_distance(points)
        avgs = points.mean(axis=-2)
        values, grad_norms = self.objective.batch_value_and_grad_norm(avgs)
        cost = cumulative_cost(CommCounter(comms, grads), self.cost_model)
        self.trace.records.extend(map(
            TraceRecord, ks.tolist(), ts.tolist(), comms.tolist(), grads.tolist(),
            (values - self.f_star).tolist(), grad_norms.tolist(), cons.tolist(),
            lyaps.tolist(), residuals.tolist(), np.linalg.norm(avgs, axis=-1).tolist(),
            cost.tolist()))
        return cons


def run(objective: Objective, cm: ConsensusMatrix, method: MethodSpec,
        alpha: float, budget: int, seed: int = 0, cost_model: CostModel | None = None,
        grad_tol: float | None = None, allow_large_alpha: bool = False,
        box_radius: float | None = None, x0: np.ndarray | None = None) -> RunResult:
    """Execute one method until the gradient-evaluation budget (or tolerance).

    Iteration k of NEAR-DGD communicates, x_k = Z^{t_k} y_k, then computes,
    y_{k+1} = x_k - a grad f(x_k); the baselines have x_k = y_k. Trace row k
    describes x_k; rows 0..K-1 carry the Lyapunov value and descent residual
    (NEAR-DGD methods), the final row the terminal state y_K. A run that
    leaves the box |y|_inf <= box_radius stops there and is marked diverged.
    Deterministic for fixed seed and config.

    The loop does only the method's work: the gradient, the step, the
    consensus that forms x_{k+1}, the box test and, with grad_tol set, the
    stop test on the current row's average. It buffers each iteration's
    state, and every max(1, BLOCK_ELEMENTS // (n p)) rows, and once more when
    the run ends or diverges, one batched pass computes the rows' trace
    columns and the descent, Eq.-7 and consensus-bound certificates. Each
    iterate's Lyapunov value is evaluated once, plus L_{t_k}(y_{k+1}) on the
    rows after which t changes. The pass gives the same values, bit for bit,
    for any block size.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cost_model = cost_model or CostModel()
    n, p = objective.n, objective.p
    if box_radius is None:
        box_radius = INIT_BOUND * BOX_INFLATION
    lipschitz = objective.lipschitz_estimate(box_radius)
    _validate_alpha(alpha, lipschitz, allow_large_alpha)

    y = initial_point(n, p, seed) if x0 is None else np.array(x0, dtype=float)
    if y.shape != (n, p):
        raise ValueError("initial point has shape %r, expected (%d, %d)" % (y.shape, n, p))

    counter = CommCounter()
    trace = RunTrace(method=method.label(), seed=int(seed))
    result = RunResult(trace=trace, counter=counter, final_y=y, final_x=y,
                       final_avg=y.mean(axis=0), b_y=float(np.linalg.norm(y)),
                       max_cons_gap=-math.inf, max_eq7_inf=0.0, lipschitz=lipschitz)
    sched = method.schedule()
    near_dgd = method.name.startswith("near-dgd")
    grad = None  # grad f(x_k): NEAR-DGD's for the Eq.-7 check, the tracker's cache
    if method.name == "gradient-tracking":
        if budget < 2:
            budget = 0  # not enough budget for tracker init plus a step
        else:
            s = grad = gradient(y, objective, counter)

    k, t = 0, sched.rounds(0)
    # Z^{t_k} y_k; its t_k rounds are counted when iteration k uses it
    x = apply_consensus(cm, t, y) if near_dgd else y
    block = _BlockCertifier(objective, cm, method, alpha, cost_model, result, y, x)
    while counter.gradient_evals < budget:
        if near_dgd:
            counter.consensus_rounds += t
            grad, y_next = gradient_step(x, objective, alpha, counter)
            x_next = apply_consensus(cm, t, y_next)  # Z^{t_k} y_{k+1}
        elif method.name == "dgd":
            y_next = x_next = dgd_step(y, objective, cm, alpha, counter)
        else:
            y_next, s, grad = gradient_tracking_step(y, s, grad, objective, cm,
                                                     alpha, counter)
            x_next = y_next
        peak = np.abs(y_next).max()
        if not peak <= box_radius:  # also true for a non-finite peak
            block.push(k, t, counter, y_next, x_next, grad)
            trace.diverged = True
            trace.divergence_note = (
                "iteration %d: |y|_inf = %g left the box |y|_inf <= %g; Lipschitz "
                "estimate no longer valid" % (k, peak, box_radius))
            break  # y stays y_k
        t_next, z_change = sched.rounds(k + 1), None
        if t_next != t:
            # x_{k+1} = Z^{t_{k+1}} y_{k+1} in one application (same cost at
            # any t), as near_dgd_step forms it; the certificate keeps Z^{t_k} y_{k+1}
            z_change, x_next = x_next, apply_consensus(cm, t_next, y_next)
        block.push(k, t, counter, y_next, x_next, grad, z_change)
        stop = grad_tol is not None and objective.batch_value_and_grad_norm(
            x.mean(axis=0, keepdims=True))[1][0] <= grad_tol  # row k's x_k
        y, x, k, t = y_next, x_next, k + 1, t_next
        if stop:
            break
    block.finish(k, t, counter, y)
    result.final_y = y
    result.final_x = x
    result.final_avg = y.mean(axis=0)
    return result
