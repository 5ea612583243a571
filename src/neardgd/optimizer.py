"""Iteration engines: NEAR-DGD variants, DGD, and gradient tracking.

A run is strictly sequential; parallelism lives one level up (sweeps over
methods and seeds share no mutable state). run()'s loop does only the
method's arithmetic and keeps each iteration's fresh arrays; one pass per
block of iterations decides how the run ends and computes the certificates
and trace rows.
"""

import itertools
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
class MethodSpec:
    name: str
    t: int = 1          # near-dgd-t: consensus rounds per iteration
    period: int = 100   # near-dgd-plus-doubling: iterations between doublings

    def __post_init__(self):
        if self.name not in METHOD_NAMES:
            raise ValueError("unknown method %r" % self.name)
        if self.t < 1 or self.period < 1:
            raise ValueError("method %s needs t >= 1 and period >= 1, got t=%r, "
                             "period=%r" % (self.name, self.t, self.period))

    def rounds(self, k: int) -> int:
        """Consensus rounds t_k of iteration k: fixed t, k + 1, or doubling
        every period iterations; the baselines communicate once."""
        if self.name == "near-dgd-t":
            return self.t
        if self.name == "near-dgd-plus":
            return k + 1
        if self.name == "near-dgd-plus-doubling":
            return 2 ** (k // self.period)
        return 1

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
# Single steps (the spec-level primitives; tests hold run() bitwise equal to them)

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


# ---------------------------------------------------------------------------
# The iterations of one block. Each takes the state the block starts from and
# returns the fresh arrays of its iterations, without checks or tallies; the
# block pass decides which of them the run keeps. The arithmetic is that of
# near_dgd_step, dgd_step and gradient_tracking_step.

def _near_dgd_iterations(objective, cm, alpha, x, ts):
    """Iterations k..k+m-1 from x_k = Z^{t_k} y_k, given ts = [t_k, ...,
    t_{k+m}]: the lists of y_{k+1}, x_{k+1} = Z^{t_{k+1}} y_{k+1} and
    grad f(x_k)."""
    ys, xs, grads = [], [], []
    grad_of, apply = objective.stacked_grad, cm.apply
    for t in ts[1:]:
        grad = grad_of(x)
        y = x - alpha * grad
        x = apply(t, y)
        ys.append(y)
        xs.append(x)
        grads.append(grad)
    return ys, xs, grads


def _dgd_iterations(objective, cm, alpha, x, m):
    xs = []
    grad_of, apply = objective.stacked_grad, cm.apply
    for _ in range(m):
        grad = grad_of(x)
        x = apply(1, x) - alpha * grad
        xs.append(x)
    return xs


def _tracking_iterations(objective, cm, alpha, x, s, grad, m):
    """m tracker iterations; returns the list of x_{k+1} and the final (s, grad)."""
    xs = []
    grad_of, apply = objective.stacked_grad, cm.apply
    for _ in range(m):
        x_next = apply(1, x) - alpha * s
        grad_next = grad_of(x_next)
        s = apply(1, s) + grad_next - grad
        x, grad = x_next, grad_next
        xs.append(x)
    return xs, s, grad


def _stack(arrays):
    """np.stack of (n, p) arrays, as one concatenate."""
    return np.concatenate(arrays).reshape((len(arrays),) + arrays[0].shape)


class _BlockCertifier:
    """How a run ends, its certificates and its trace rows, a block at a time.

    certify() takes the fresh iterates of one block of iterations and decides
    how many of them the run keeps: the first row whose y_{k+1} leaves the
    box ends the run there (diverged); otherwise, with grad_tol set, the
    first row whose grad_avg_norm is at most grad_tol ends it (stopped); the
    later rows are discarded. It then turns the kept rows into trace records
    and certificate maxima. (k, t_k, comms, grads) of each row follow from k
    and the schedule in exact ints. finish() appends the terminal row.

    y, x, lyap, k and the tallies are the state (y_k, x_k) the next block
    starts from; the baselines have x_k = y_k.
    """

    def __init__(self, objective, cm, method, alpha, cost_model, result,
                 box_radius, grad_tol, y, x, grad_evals):
        n, p = objective.n, objective.p
        self.objective, self.cm, self.alpha, self.cost_model = objective, cm, alpha, cost_model
        self.result, self.trace, self.lipschitz = result, result.trace, result.lipschitz
        self.box_radius, self.grad_tol = box_radius, grad_tol
        self.f_star = objective.min_value()
        self.near_dgd = method.name.startswith("near-dgd")
        self.fixed_t = method.name == "near-dgd-t"  # the Eq.-7 check applies
        # comms per round of t_k: the tracker communicates x and s
        self.comms_per_round = 2 if method.name == "gradient-tracking" else 1
        self.rows = max(1, BLOCK_ELEMENTS // (n * p))
        self.y, self.x, self.k = y, x, 0
        self.comm_rounds, self.grad_evals = 0, grad_evals
        self.lyap = lyapunov_value_at(y, x, objective, alpha) if self.near_dgd else math.nan
        self.rho = {}  # descent constant per t
        self.ended = False

    def certify(self, ts, fresh_y, fresh_x, grads):
        """Certify iterations k..k+m-1 from ts = [t_k, ..., t_{k+m}] and the
        lists of their y_{k+1}, x_{k+1} = Z^{t_{k+1}} y_{k+1} (fresh_y for
        the baselines) and, for fixed-t NEAR-DGD, grad f(x_k)."""
        m = len(fresh_y)
        stack_y = _stack([self.y, *fresh_y])
        stack_x = _stack([self.x, *fresh_x]) if self.near_dgd else stack_y
        objective, cm, alpha, res = self.objective, self.cm, self.alpha, self.result

        peaks = np.abs(stack_y[1:]).reshape(m, -1).max(axis=1)
        out = np.flatnonzero(~(peaks <= self.box_radius))  # also a non-finite peak
        diverged = int(out[0]) if out.size else None
        r = m if diverged is None else diverged + 1  # the rows kept
        evaluated = self._evaluate(stack_x[:r])
        stopped = None
        if self.grad_tol is not None:
            below = np.flatnonzero(evaluated[2][:r if diverged is None else diverged]
                                   <= self.grad_tol)
            if below.size:
                stopped, diverged = int(below[0]), None
                r = stopped + 1
        ys, xs, ts_rows = stack_y[:r + 1], stack_x[:r + 1], ts[:r]

        comms = list(itertools.accumulate((self.comms_per_round * t for t in ts_rows),
                                          initial=self.comm_rounds))[1:]
        meta = np.array([list(range(self.k, self.k + r)), ts_rows, comms,
                         list(range(self.grad_evals + 1, self.grad_evals + r + 1))])
        norms = np.sqrt(inner(ys, ys))  # ||y_k||, and ||y_{k+1}|| of the last row
        res.b_y = _running_max(res.b_y, norms[1:])
        lyaps = np.full(r + 1, math.nan)  # L_{t_k}(y_k) from (y_k, x_k)
        residuals = np.full(r, math.nan)
        if self.near_dgd:
            lyaps[0] = self.lyap
            lyaps[1:] = lyapunov_value_at(ys[1:], xs[1:], objective, alpha)
            lyap_next = lyaps[1:].copy()  # L_{t_k}(y_{k+1})
            changes = [i for i in range(r) if ts[i + 1] != ts[i]]
            if changes:
                # x_{k+1} used t_{k+1}; the certificate needs Z^{t_k} y_{k+1}
                rows = np.array(changes)
                lyap_next[rows] = lyapunov_value_at(
                    ys[rows + 1], np.array([cm.apply(ts[i], fresh_y[i]) for i in changes]),
                    objective, alpha)
            for t in set(ts_rows) - self.rho.keys():
                # alpha >= 2/L under the override flag: no guaranteed margin,
                # report the raw Lyapunov difference
                self.rho[t] = (rho_constant(cm, t, alpha, self.lipschitz)
                               if alpha < 2.0 / self.lipschitz else 0.0)
            residuals = descent_certificate(lyaps[:r], lyap_next, ys[:r], ys[1:],
                                            np.array([self.rho[t] for t in ts_rows]))
        cons = self._append_rows(meta, xs[:r], lyaps[:r], residuals,
                                 *(column[:r] for column in evaluated))
        if self.near_dgd:
            bounds = [consensus_distance_bound(cm.beta, t, b)
                      for t, b in zip(ts_rows, norms[:r].tolist())]
            res.max_cons_gap = _running_max(res.max_cons_gap, cons - bounds)
        if self.fixed_t:
            # x_{k+1} - x_k vs -a grad L_t(y_k)
            violation = np.abs(xs[1:] - xs[:r] + alpha * lyapunov_grad_at(
                xs[:r], _stack(grads[:r]), cm, ts[0], alpha))
            res.max_eq7_inf = _running_max(res.max_eq7_inf,
                                           violation.reshape(r, -1).max(axis=1))

        self.comm_rounds, self.grad_evals = comms[-1], self.grad_evals + r
        end = r  # the state the run goes on from, or ends at
        if diverged is not None:
            # the run stops at y_k; its terminal row repeats row k's L_t(y_k)
            end = diverged
            self.trace.diverged = True
            self.trace.divergence_note = (
                "iteration %d: |y|_inf = %g left the box |y|_inf <= %g; Lipschitz "
                "estimate no longer valid" % (self.k + end, peaks[end], self.box_radius))
        self.y, self.x, self.lyap = ys[end], xs[end], lyaps[end]
        self.k += end
        if diverged is not None or stopped is not None:
            self.ended = True
            self.finish(ts[end])

    def finish(self, t):
        """Append the terminal row (k, t, tallies) at the state y."""
        points = self.y[None]
        meta = np.array([[self.k], [t], [self.comm_rounds], [self.grad_evals]])
        self._append_rows(meta, points, np.array([self.lyap]), np.array([math.nan]),
                          *self._evaluate(points))

    def _evaluate(self, points):
        """The averages of a stack of (n, p) points, and f and ||grad f|| there."""
        avgs = points.mean(axis=-2)
        return (avgs, *self.objective.batch_value_and_grad_norm(avgs))

    def _append_rows(self, meta, points, lyaps, residuals, avgs, values, grad_norms):
        """Append the trace rows with (k, t_k, comms, grads) in the rows of
        meta, each describing its (n, p) point, given _evaluate's columns;
        returns their cons_dist."""
        ks, ts, comms, grads = meta
        cons = consensus_distance(points)
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

    The loop does only the method's arithmetic: per iteration one gradient
    and one consensus application (two for the tracker), through
    ConsensusMatrix.apply. It keeps each iteration's fresh arrays for one
    block of max(1, BLOCK_ELEMENTS // (n p)) iterations, and one batched
    pass per block then decides how the run ends and certifies the rows it
    keeps. The first row whose y_{k+1} leaves the box ends the run there,
    diverged; otherwise, with grad_tol set, the first row whose
    grad_avg_norm is at most grad_tol ends it; the rest of that block is
    discarded. The pass computes the rows' (k, t_k, comms, grads) from k and
    the schedule, their trace columns and the descent, Eq.-7 and
    consensus-bound certificates. Each iterate's Lyapunov value is evaluated
    once, plus L_{t_k}(y_{k+1}) on the rows after which t changes. The run
    gives the same values, bit for bit, for any block size.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    cost_model = cost_model or CostModel()
    n, p = objective.n, objective.p
    if box_radius is None:
        box_radius = INIT_BOUND * BOX_INFLATION
    lipschitz = objective.lipschitz_estimate(box_radius)
    _validate_alpha(alpha, lipschitz, allow_large_alpha)
    # the schedules never decrease, so no t_k exceeds t_budget and the comms
    # tally stays at most budget * t_budget; both must convert to float
    if budget * method.rounds(budget) >= 2**1024:
        raise ValueError("%s at budget %d: the consensus rounds per iteration "
                         "outgrow the float range" % (method.label(), budget))

    y = initial_point(n, p, seed) if x0 is None else np.array(x0, dtype=float)
    if y.shape != (n, p):
        raise ValueError("initial point has shape %r, expected (%d, %d)" % (y.shape, n, p))

    trace = RunTrace(method=method.label(), seed=int(seed))
    result = RunResult(trace=trace, counter=CommCounter(), final_y=y, final_x=y,
                       final_avg=y.mean(axis=0), b_y=float(np.linalg.norm(y)),
                       max_cons_gap=-math.inf, max_eq7_inf=0.0, lipschitz=lipschitz)
    near_dgd = method.name.startswith("near-dgd")
    iterations, grad_evals = budget, 0
    if method.name == "gradient-tracking":
        if budget < 2:
            iterations = 0  # not enough budget for tracker init plus a step
        else:
            s = grad = objective.stacked_grad(y)
            iterations, grad_evals = budget - 1, 1

    # Z^{t_0} y_0; its t_0 rounds are counted when iteration 0 uses it
    x = cm.apply(method.rounds(0), y) if near_dgd else y
    block = _BlockCertifier(objective, cm, method, alpha, cost_model, result,
                            box_radius, grad_tol, y, x, grad_evals)
    while block.k < iterations and not block.ended:
        k, m = block.k, min(block.rows, iterations - block.k)
        ts = [method.rounds(j) for j in range(k, k + m + 1)]
        grads = None
        # iterations past a divergence may overflow; the pass discards them
        with np.errstate(over="ignore", invalid="ignore"):
            if near_dgd:
                ys, xs, grads = _near_dgd_iterations(objective, cm, alpha, block.x, ts)
            elif method.name == "dgd":
                ys = xs = _dgd_iterations(objective, cm, alpha, block.y, m)
            else:
                ys, s, grad = _tracking_iterations(objective, cm, alpha, block.y, s, grad, m)
                xs = ys
        block.certify(ts, ys, xs, grads)
    if not block.ended:
        block.finish(method.rounds(block.k))
    result.counter = CommCounter(block.comm_rounds, block.grad_evals)
    result.final_y, result.final_x = block.y, block.x
    result.final_avg = block.y.mean(axis=0)
    return result
