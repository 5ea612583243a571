"""Iteration engines: NEAR-DGD variants, DGD, and gradient tracking.

A run is strictly sequential; parallelism lives one level up (sweeps over
methods and seeds share no mutable state).
"""

import math
from dataclasses import dataclass

import numpy as np

from .consensus import CommCounter, ConsensusMatrix, apply_consensus
from .diagnostics import (CostModel, RunTrace, TraceRecord, consensus_distance,
                          consensus_distance_bound, cumulative_cost,
                          descent_certificate, lyapunov_grad_at,
                          lyapunov_value_at, rho_constant)
from .objective import Objective

INIT_BOUND = 1.0        # iterates start uniform in [-INIT_BOUND, INIT_BOUND]
BOX_INFLATION = 4.0     # trajectory box radius = INIT_BOUND * BOX_INFLATION

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


def _online_record(k, t, point, lyap, residual, counter, cost_model):
    """Trace row k without the columns of its average (f_err, grad_avg_norm,
    dist_saddle), which run() fills in for all rows after its loop."""
    return TraceRecord(k, t, counter.consensus_rounds, counter.gradient_evals,
                       math.nan, math.nan, consensus_distance(point), lyap, residual,
                       math.nan, cumulative_cost(counter, cost_model))


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

    The loop records k, t_k, comms, grads, cons_dist, lyapunov,
    descent_residual and cost of each row, and its average. f_err,
    grad_avg_norm and dist_saddle depend only on that average; they are
    computed for all rows in one batched pass after the loop, also after a
    divergence. With grad_tol set, the stop test evaluates the same function
    on the current row. L_t(y_{k+1}) from the descent certificate is the next
    row's L_t(y_k) while t is unchanged, and is recomputed after a schedule
    change.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cost_model = cost_model or CostModel()
    n, p = objective.n, objective.p
    if box_radius is None:
        box_radius = INIT_BOUND * BOX_INFLATION
    lipschitz = objective.lipschitz_estimate(box_radius)
    _validate_alpha(alpha, lipschitz, allow_large_alpha)
    f_star = objective.min_value()

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
    if method.name == "gradient-tracking":
        if budget < 2:
            budget = 0  # not enough budget for tracker init plus a step
        else:
            s = grad = gradient(y, objective, counter)
    rho = {}  # descent constant per t
    avgs = []  # the average of each trace row's point

    k, t = 0, sched.rounds(0)
    # Z^{t_k} y_k; its t_k rounds are counted when iteration k uses it
    x = apply_consensus(cm, t, y) if near_dgd else y
    lyap = lyapunov_value_at(y, x, objective, alpha) if near_dgd else math.nan  # L_t(y_k)
    while counter.gradient_evals < budget:
        residual = math.nan
        if near_dgd:
            counter.consensus_rounds += t
            grad, y_next = gradient_step(x, objective, alpha, counter)
            z = apply_consensus(cm, t, y_next)  # Z^{t_k} y_{k+1}
            if t not in rho:
                # alpha >= 2/L under the override flag: no guaranteed margin,
                # report the raw Lyapunov difference
                rho[t] = (rho_constant(cm, t, alpha, lipschitz)
                          if alpha < 2.0 / lipschitz else 0.0)
            lyap_next, residual = descent_certificate(lyap, y, y_next, z, objective,
                                                      alpha, rho[t])
            if sched.kind == "fixed":
                # x_{k+1} - x_k vs -a grad L_t(y_k)
                result.max_eq7_inf = max(result.max_eq7_inf, float(np.abs(
                    z - x + alpha * lyapunov_grad_at(x, grad, cm, t, alpha)).max()))
        elif method.name == "dgd":
            y_next = dgd_step(y, objective, cm, alpha, counter)
        else:
            y_next, s, grad = gradient_tracking_step(y, s, grad, objective, cm,
                                                     alpha, counter)
        rec = _online_record(k, t, x, lyap, residual, counter, cost_model)
        trace.append(rec)
        avgs.append(x.mean(axis=0))
        if near_dgd:
            bound = consensus_distance_bound(cm.beta, t, float(np.linalg.norm(y)))
            result.max_cons_gap = max(result.max_cons_gap, rec.cons_dist - bound)
        result.b_y = max(result.b_y, float(np.linalg.norm(y_next)))
        peak = np.abs(y_next).max()
        if not peak <= box_radius:  # also true for a non-finite peak
            trace.diverged = True
            trace.divergence_note = (
                "iteration %d: |y|_inf = %g left the box |y|_inf <= %g; Lipschitz "
                "estimate no longer valid" % (k, peak, box_radius))
            break  # y stays y_k, and lyap L_t(y_k)
        y, k = y_next, k + 1
        t_prev, t = t, sched.rounds(k)
        if not near_dgd:
            x = y
        elif t == t_prev:
            # x_k = Z^{t_k} y_k is the certificate's z, and L_t(y_k) its value
            x, lyap = z, lyap_next
        else:
            # one application from y_k (same cost at any t), which matches
            # near_dgd_step exactly
            x = apply_consensus(cm, t, y)
            lyap = lyapunov_value_at(y, x, objective, alpha)
        if (grad_tol is not None
                and objective.batch_value_and_grad_norm(avgs[-1:])[1][0] <= grad_tol):
            break

    # terminal row: state y_K, consensus not yet performed
    trace.append(_online_record(k, t, y, lyap, math.nan, counter, cost_model))
    avgs.append(y.mean(axis=0))
    avgs = np.array(avgs)
    values, grad_norms = objective.batch_value_and_grad_norm(avgs)
    for rec, f_err, grad_norm, dist in zip(trace.records, (values - f_star).tolist(),
                                           grad_norms.tolist(),
                                           np.linalg.norm(avgs, axis=1).tolist()):
        rec.f_err, rec.grad_avg_norm, rec.dist_saddle = f_err, grad_norm, dist
    result.final_y = y
    result.final_x = x
    result.final_avg = y.mean(axis=0)
    return result
