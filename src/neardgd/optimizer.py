"""Iteration engines: NEAR-DGD variants, DGD, and gradient tracking.

A run is strictly sequential; parallelism lives one level up (sweeps over
methods and seeds share no mutable state). run()'s loop does only the
method's arithmetic and writes each iteration's iterates into two buffers
allocated once per run; one pass per block of iterations reads them in
place, decides how the run ends and appends the certificates and trace
columns.
"""

import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

# apply_consensus has no caller here; the benchmark harness traces it under
# this name
from .consensus import ConsensusMatrix, apply_consensus, dense_pays
from .diagnostics import (FLOAT_COLUMNS, CommCounter, CostModel, RunTrace, as_float,
                          consensus_distance, consensus_distance_bound, cumulative_cost,
                          descent_certificate, inner, lyapunov_grad_at, lyapunov_value_at,
                          rho_constant)
from .linalg import mean_rows, sum_last
from .objective import Objective

INIT_BOUND = 1.0        # iterates start uniform in [-INIT_BOUND, INIT_BOUND]
BOX_INFLATION = 4.0     # trajectory box radius = INIT_BOUND * BOX_INFLATION
# a run buffers max(1, BLOCK_ELEMENTS // (n p)) iterations between two
# certificate passes, so its buffers and temporaries do not grow with budget
BLOCK_ELEMENTS = 2**14

# Each method's facts, read through MethodSpec alone: the field that its token
# "name:value" and its label carry, the values of MethodSpec's properties, and
# the consecutive iterations that share one t (repeats()): every one of a run
# (inf), one, or the named field.
_Facts = namedtuple("_Facts", "param certificates comms_per_round near_dgd repeat")
_METHODS = {
    "near-dgd-t": _Facts("t", ("descent-residual", "eq7-identity", "consensus-bound"), 1, True,
                         math.inf),
    "near-dgd-plus": _Facts(None, ("descent-residual", "consensus-bound"), 1, True, 1),
    "near-dgd-plus-doubling": _Facts("period", ("descent-residual", "consensus-bound"), 1,
                                     True, "period"),
    "dgd": _Facts(None, (), 1, False, math.inf),
    "gradient-tracking": _Facts(None, (), 2, False, math.inf),
}
METHOD_NAMES = tuple(_METHODS)


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
        try:  # int and NumPy integers; 2.5 would make fractional rounds
            object.__setattr__(self, "t", operator.index(self.t))
            object.__setattr__(self, "period", operator.index(self.period))
        except TypeError:
            raise ValueError("method %s needs integer t and period, got t=%r, period=%r"
                             % (self.name, self.t, self.period)) from None
        if self.t < 1 or self.period < 1:
            raise ValueError("method %s needs t >= 1 and period >= 1, got t=%r, "
                             "period=%r" % (self.name, self.t, self.period))
        for f in fields(self)[1:]:  # a parameter the method lacks keeps its default
            if f.name != _METHODS[self.name].param and getattr(self, f.name) != f.default:
                raise ValueError("method %s takes no %s, got %s=%r"
                                 % (self.name, f.name, f.name, getattr(self, f.name)))

    def rounds(self, k: int) -> int:
        """Consensus rounds t_k of iteration k."""
        return self.schedule(k, 1)[0]

    def schedule(self, k: int, count: int) -> list:
        """[t_k, ..., t_{k+count-1}], the consensus rounds of count
        iterations from k: fixed t, k + 1, or doubling every period
        iterations; the baselines communicate once. One list operation
        except for the doubling."""
        if self.name == "near-dgd-t":
            return [self.t] * count
        if self.name == "near-dgd-plus":
            return list(range(k + 1, k + count + 1))
        if self.name == "near-dgd-plus-doubling":
            return [2 ** (j // self.period) for j in range(k, k + count)]
        return [1] * count

    def repeats(self, iterations: int) -> int:
        """The fewest consecutive iterations of a run of this many that
        share one t, as the schedule counts them: all of them for a fixed t,
        one for near-dgd-plus, the period for the doubling (its last t may
        be cut short by the run's end)."""
        repeat = _METHODS[self.name].repeat
        return min(iterations, getattr(self, repeat) if isinstance(repeat, str) else repeat)

    @property
    def certificates(self) -> tuple:
        """The run certificates a run evaluates: descent and the consensus
        bound where the paper defines a Lyapunov function, and Eq. 7 for a fixed t."""
        return _METHODS[self.name].certificates

    @property
    def near_dgd(self) -> bool:
        """Whether a run iterates x = Z^t y, with a Lyapunov function."""
        return _METHODS[self.name].near_dgd

    @property
    def comms_per_round(self) -> int:
        """The vectors one consensus round sends: x, and s for the tracker."""
        return _METHODS[self.name].comms_per_round

    def label(self) -> str:
        param = _METHODS[self.name].param
        return self.name if param is None else "%s:%d" % (self.name, getattr(self, param))

    @staticmethod
    def parse(token: str) -> "MethodSpec":
        name, colon, param = token.partition(":")
        spec = MethodSpec(name.strip())  # rejects an unknown name
        key = _METHODS[spec.name].param
        if colon and key is None:
            raise ValueError("method %r takes no parameter" % spec.name)
        try:
            params = {key: int(param)} if colon else {}
        except ValueError:
            raise ValueError("method %r needs an integer after ':'" % token.strip()) from None
        return MethodSpec(spec.name, **params)


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


def _validate_alpha(alpha, lipschitz, allow_large_alpha, size, box_radius):
    """Reject an alpha that is not positive and finite, that is at least 2/L
    unless allowed, or for which a 1/alpha-weighted certificate term on an
    iterate of size entries in the box |y|_inf <= box_radius is not finite."""
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise SteplengthError("alpha must be positive and finite, got %r" % alpha)
    if not 1.0 / alpha < math.inf:  # 1/alpha bounds L_t's 1/(2 alpha) and rho
        raise SteplengthError("alpha=%r is too small: 1/alpha is not finite" % alpha)
    # the largest 1/alpha-weighted term the certificates form on the box:
    # rho ||y_{k+1} - y_k||^2 <= 4 n p R^2 / alpha
    if not 4.0 * size * box_radius * box_radius / alpha < math.inf:
        raise SteplengthError("alpha=%r is too small for the box of radius %r: "
                              "4 n p R^2 / alpha is not finite" % (alpha, box_radius))
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
# The iterations of one block. Each takes the per-slot views of the block
# buffers, whose slot 0 holds the state the block starts from, and writes
# iteration i's fresh iterates into slot i + 1, without checks or tallies;
# the block pass decides which of them the run keeps. The updates are
#   NEAR-DGD   y_{k+1} = x_k - a grad f(x_k),  x_{k+1} = Z^{t_{k+1}} y_{k+1};
#   DGD        x_{k+1} = Z x_k - a grad f(x_k);
#   tracking   x_{k+1} = Z x_k - a s_k,  s_{k+1} = Z s_k + grad f(x_{k+1}) - grad f(x_k),
# each evaluated as written, element for element: a grad f(x) (a s for the
# tracker) goes into one (n, p) step buffer per block, and each consensus
# product straight into its slot. alpha is held as an (n, p) array,
# since NumPy multiplies two same-shape arrays faster than it converts a
# Python float, and the ufuncs take their output positionally, which NumPy
# parses faster than the out keyword.

def _near_dgd_iterations(objective, cm, alpha, ys, xs, ts):
    """Iterations k..k+m-1 from x_k = xs[0], given ts = [t_k, ..., t_{k+m}]:
    y_{k+i+1} into ys[i+1] and x_{k+i+1} = Z^{t_{k+i+1}} y_{k+i+1} into
    xs[i+1]. The schedules never decrease, so ts[1] == ts[m] means one
    product for the whole block."""
    grad_of, multiply, subtract = objective.stacked_grad, np.multiply, np.subtract
    alphas, step = np.full_like(xs[0], alpha), np.empty_like(xs[0])
    m = len(ts) - 1
    products = (itertools.repeat(cm.product(ts[1]), m) if ts[1] == ts[m]
                else map(cm.product, ts[1:]))
    for product, x, y_next, x_next in zip(products, xs, ys[1:], xs[1:]):
        subtract(x, multiply(grad_of(x), alphas, step), y_next)
        product(y_next, x_next)


def _dgd_iterations(objective, cm, alpha, xs, m):
    grad_of, multiply, subtract = objective.stacked_grad, np.multiply, np.subtract
    product = cm.product(1)
    alphas, step = np.full_like(xs[0], alpha), np.empty_like(xs[0])
    for x, x_next in zip(xs[:m], xs[1:m + 1]):
        multiply(grad_of(x), alphas, step)
        subtract(product(x, x_next), step, x_next)


def _tracking_iterations(objective, cm, alpha, xs, s, grad, m):
    """m tracker iterations into xs[1..m]; returns the final (s, grad)."""
    grad_of, multiply, subtract = objective.stacked_grad, np.multiply, np.subtract
    product = cm.product(1)
    alphas, step = np.full_like(xs[0], alpha), np.empty_like(xs[0])
    for x, x_next in zip(xs[:m], xs[1:m + 1]):
        subtract(product(x, x_next), multiply(s, alphas, step), x_next)
        grad_next = grad_of(x_next)
        # W s is a fresh array, so (W s + grad_next) - grad is formed in it
        s = product(s)
        s += grad_next
        s -= grad
        grad = grad_next
    return s, grad


class _BlockCertifier:
    """How a run ends, its certificates and its trace rows, a block at a time.

    The run's two (rows + 1, n, p) buffers Y and X are allocated here once;
    the baselines have x_k = y_k and share one. Slot 0 holds the state
    (y_k, x_k) the next block starts from, and the loop writes y_{k+i+1} and
    x_{k+i+1} into slot i + 1. certify() reads the buffers in place and
    decides how many of the block's rows the run keeps: the first row whose
    y_{k+1} leaves the box ends the run there (diverged); otherwise, with
    grad_tol set, the first row whose grad_avg_norm is at most grad_tol ends
    it (stopped); the later rows are discarded. It then appends the kept
    rows to the trace as columns and updates the trajectory maxima b_y,
    max_cons_gap and max_eq7_inf. (k, t_k, comms, grads) of each row follow
    from k and the schedule in exact ints. finish() appends the terminal row.
    """

    def __init__(self, objective, cm, method, alpha, cost_model, trace, lipschitz,
                 box_radius, grad_tol, y, x, iterations, grad_evals):
        n, p = objective.n, objective.p
        self.objective, self.cm, self.alpha, self.cost_model = objective, cm, alpha, cost_model
        self.trace, self.lipschitz = trace, lipschitz
        self.box_radius, self.grad_tol = box_radius, grad_tol
        self.f_star = objective.min_value()
        self.near_dgd, self.comms_per_round = method.near_dgd, method.comms_per_round
        self.fixed_t = "eq7-identity" in method.certificates
        self.rows = max(1, min(BLOCK_ELEMENTS // (n * p), iterations))
        self.Y = np.empty((self.rows + 1, n, p))
        self.X = np.empty_like(self.Y) if self.near_dgd else self.Y
        self.Y[0], self.X[0] = y, x
        self.ys, self.xs = list(self.Y), list(self.X)  # per-slot views for the loop
        self.k, self.comm_rounds, self.grad_evals = 0, 0, grad_evals
        self.b_y, self.max_cons_gap, self.max_eq7_inf = float(np.linalg.norm(y)), -math.inf, 0.0
        self.lyap = lyapunov_value_at(y, x, objective, alpha) if self.near_dgd else math.nan
        self.ended = False

    def certify(self, ts):
        """Certify iterations k..k+m-1 from ts = [t_k, ..., t_{k+m}] and the
        buffers' slots 0..m. What it computes from a y_{k+1} that left the
        box may overflow, as the loop may past it; such a block is certified
        with overflow and invalid operations ignored."""
        m = len(ts) - 1
        peaks = np.abs(self.Y[1:m + 1]).reshape(m, -1).max(axis=1)
        out = np.flatnonzero(~(peaks <= self.box_radius))  # also a non-finite peak
        ignore = "ignore" if out.size else None  # None keeps the caller's setting
        with np.errstate(over=ignore, invalid=ignore):
            self._certify(ts, m, peaks, int(out[0]) if out.size else None)

    def _certify(self, ts, m, peaks, diverged):
        """certify() given each row's |y_{k+1}|_inf and the first row out of
        the box, by one path for every schedule: L_{t_k}(y_{k+1}), the
        distinct t and the row map follow from one selection of the rows
        after which t changes (none for a constant t, the full slice when
        every row changes)."""
        stack_y, stack_x = self.Y[:m + 1], self.X[:m + 1]
        objective, cm, alpha = self.objective, self.cm, self.alpha
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
        # the schedules never decrease, so a constant t has no step for
        # np.diff (which takes ts past int64 too) to find; the row map gives
        # row i the count of changes before it, its index among the distinct t
        changes = (np.flatnonzero(np.diff(ts[:r + 1])) if ts[0] != ts[r]
                   else np.empty(0, dtype=np.intp))
        if changes.size == r:
            changed = per_row = slice(None)
            t_changed = ts_rows
        else:
            changed, t_changed = changes, [ts[i] for i in changes]
            per_row = changes.searchsorted(np.arange(r))
        if not changes.size:  # one t for every row: its comms are one progression
            step = self.comms_per_round * ts[0]
            comms = list(range(self.comm_rounds + step, self.comm_rounds + (r + 1) * step, step))
        else:
            comms = list(itertools.accumulate((self.comms_per_round * t for t in ts_rows),
                                              initial=self.comm_rounds))[1:]
        grads = list(range(self.grad_evals + 1, self.grad_evals + r + 1))
        norms = np.sqrt(inner(ys, ys))  # ||y_k||, and ||y_{k+1}|| of the last row
        self.b_y = _running_max(self.b_y, norms[1:])
        lyaps = np.full(r + 1, math.nan)  # L_{t_k}(y_k) from (y_k, x_k)
        residuals = np.full(r, math.nan)
        if self.near_dgd:
            lyaps[0] = self.lyap
            lyaps[1:] = lyapunov_value_at(ys[1:], xs[1:], objective, alpha)
            # L_{t_k}(y_{k+1}) differs from L_{t_{k+1}}(y_{k+1}) on the changed
            # rows: x_{k+1} used t_{k+1}, the certificate needs Z^{t_k} y_{k+1}
            lyap_next = lyaps[1:]
            if changes.size:
                ys_changed, lyap_next = ys[1:][changed], lyap_next.copy()
                lyap_next[changed] = lyapunov_value_at(
                    ys_changed, cm.apply_each(t_changed, ys_changed), objective, alpha)
            # the distinct t: the changed rows', and the last row's unless it changed
            distinct = t_changed + [ts[r - 1]] if ts[r - 1] == ts[r] else t_changed
            # alpha >= 2/L under the override flag: no guaranteed margin,
            # report the raw Lyapunov difference
            rho = (rho_constant(cm, distinct, alpha, self.lipschitz)[per_row]
                   if alpha < 2.0 / self.lipschitz else 0.0)
            residuals = descent_certificate(lyaps[:r], lyap_next, ys[:r], ys[1:], rho)
        cons = self._append_rows(list(range(self.k, self.k + r)), ts_rows, comms, grads,
                                 xs[:r], lyaps[:r], residuals,
                                 *(column[:r] for column in evaluated))
        if self.near_dgd:
            # beta^t ||y_k||, with Python's beta ** t once per distinct t
            # (NumPy's power of an array may differ in the last bit)
            bounds = np.array([consensus_distance_bound(cm.beta, t, 1.0)
                               for t in distinct])[per_row] * norms[:r]
            self.max_cons_gap = _running_max(self.max_cons_gap, cons - bounds)
        if self.fixed_t:
            # |x_{k+1} - x_k + a grad L_t(y_k)|, formed in the array of the
            # difference; grad f(x_k) is recomputed on the stack, elementwise
            # and so equal to the loop's bitwise
            grad_step = lyapunov_grad_at(xs[:r], objective.node_grads(xs[:r]), cm, ts[0], alpha)
            grad_step *= alpha
            violation = np.subtract(xs[1:], xs[:r])
            violation += grad_step
            np.abs(violation, violation)
            self.max_eq7_inf = _running_max(self.max_eq7_inf,
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
        self.Y[0], self.X[0] = ys[end], xs[end]  # the baselines' X is Y
        self.lyap = lyaps[end]
        self.k += end
        if diverged is not None or stopped is not None:
            self.ended = True
            self.finish(ts[end])

    def finish(self, t):
        """Append the terminal row (k, t, tallies) at the state y_k in slot 0."""
        points = self.Y[:1]
        self._append_rows([self.k], [t], [self.comm_rounds], [self.grad_evals], points,
                          np.array([self.lyap]), np.array([math.nan]),
                          *self._evaluate(points))

    def _evaluate(self, points):
        """The averages of a stack of (n, p) points, and f and ||grad f|| there."""
        avgs = mean_rows(points)
        return (avgs, *self.objective.batch_value_and_grad_norm(avgs))

    def _append_rows(self, ks, ts, comms, grads, points, lyaps, residuals, avgs, values,
                     grad_norms):
        """Append the trace rows with the given (k, t_k, comms, grads), each
        describing its (n, p) point, given _evaluate's columns; returns
        their cons_dist."""
        cons = consensus_distance(points, avgs)
        floats = np.empty((len(ks), len(FLOAT_COLUMNS)))
        floats[:, 0] = values - self.f_star
        floats[:, 1] = grad_norms
        floats[:, 2] = cons
        floats[:, 3] = lyaps
        floats[:, 4] = residuals
        floats[:, 5] = np.sqrt(sum_last(avgs * avgs))  # ||xbar||, as numpy.linalg.norm
        # run() bounds the tallies below 2^1024, so they convert to float
        floats[:, 6] = cumulative_cost(CommCounter(*np.array([comms, grads], dtype=float)),
                                       self.cost_model)
        self.trace.extend(ks, ts, comms, grads, floats)
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
    leaves the box |y|_inf <= box_radius, whose radius must be finite,
    stops there and is marked diverged. Deterministic for fixed seed and
    config.

    The loop does only the method's arithmetic: per iteration one gradient
    and one consensus application (two for the tracker), through the handle
    cm.product(t), fetched once per block of one t and once per iteration
    where t changes, after one cm.hold of the block's schedule, which forms
    each new lam^t (dense: Z^t) of a block once for loop and pass.
    A NEAR-DGD run for which dense_pays(n, p, method.repeats(iterations))
    runs on cm.dense_twin(), x_0, loop and pass alike; on a two-product cm
    its values then differ by rounding, and cm's own products keep their
    bits. The loop writes each iteration's y_{k+1} and x_{k+1} into the
    slots of two (rows + 1, n, p) buffers, rows = max(1, BLOCK_ELEMENTS //
    (n p)) capped at the iterations, and one batched pass per block then
    reads them in place, decides how the run
    ends and certifies the rows it keeps. The first row whose y_{k+1} leaves
    the box ends the run there, diverged; otherwise, with grad_tol set, the
    first row whose grad_avg_norm is at most grad_tol ends it; the rest of
    that block is discarded. The stop test reads row k, the average xbar_k;
    the terminal row describes y_{k+1}, so its grad_avg_norm, which
    final_avg_grad_norm and the summary lines report, may lie above
    grad_tol. The pass computes the rows' (k, t_k, comms, grads) from k and
    the schedule, their trace columns and the descent, Eq.-7 and
    consensus-bound certificates. Each iterate's Lyapunov
    value is evaluated once, plus L_{t_k}(y_{k+1}) on the rows after which t
    changes, which one whole-array search per block finds for every
    schedule. The run gives the same values, bit for bit, for any block size.
    final_y and final_x are copies, never views of the buffers.
    """
    try:  # int and NumPy integers; 2.5 iterations or seed 1.5 would be truncated
        budget, seed = operator.index(budget), operator.index(seed)
    except TypeError:
        raise ValueError("budget and seed must be integers, got budget=%r, seed=%r"
                         % (budget, seed)) from None
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    # Python floats from here on: an int past the float range fails once,
    # here, and a NumPy scalar takes Python's float arithmetic, warning-free
    alpha = as_float("alpha", alpha)
    grad_tol = grad_tol if grad_tol is None else as_float("grad_tol", grad_tol)
    if grad_tol is not None and not grad_tol >= 0:
        raise ValueError("grad_tol must be nonnegative, got %r" % grad_tol)
    cost_model = cost_model or CostModel()
    n, p = objective.n, objective.p
    box_radius = as_float("box_radius",
                          INIT_BOUND * BOX_INFLATION if box_radius is None else box_radius)
    if not 0 < box_radius < math.inf:  # NaN fails both comparisons
        raise ValueError("box_radius must be positive and finite, got %r" % box_radius)
    lipschitz = objective.lipschitz_estimate(box_radius)
    _validate_alpha(alpha, lipschitz, allow_large_alpha, n * p, box_radius)
    # the schedules never decrease, so no t_k exceeds t_budget and the comms
    # tally stays at most budget * t_budget; both must convert to float
    if budget * method.rounds(budget) >= 2**1024:
        raise ValueError("%s at budget %d: the consensus rounds per iteration "
                         "outgrow the float range" % (method.label(), budget))

    try:
        y = initial_point(n, p, seed) if x0 is None else np.array(x0, dtype=float)
    except (TypeError, ValueError, OverflowError):  # an int past the float range, text
        raise ValueError("initial point x0 must hold numbers within the float range") from None
    if y.shape != (n, p):
        raise ValueError("initial point has shape %r, expected (%d, %d)" % (y.shape, n, p))
    if not np.isfinite(y).all():
        raise ValueError("initial point has a non-finite entry")

    trace = RunTrace(method=method.label(), seed=seed)
    iterations, grad_evals = budget, 0
    # what the set-up, and the end of a run that ends at y_0, evaluate at a
    # y_0 outside the box may overflow, as the pass's evaluations at a y past it
    ignore = None if np.abs(y).max() <= box_radius else "ignore"
    with np.errstate(over=ignore, invalid=ignore):
        if method.name == "gradient-tracking":
            if budget < 2:
                iterations = 0  # not enough budget for tracker init plus a step
            else:
                s = grad = objective.stacked_grad(y)
                iterations, grad_evals = budget - 1, 1

        if method.near_dgd and dense_pays(n, p, method.repeats(iterations)):
            cm = cm.dense_twin()
        # Z^{t_0} y_0; its t_0 rounds are counted when iteration 0 uses it
        x = cm.apply(method.rounds(0), y) if method.near_dgd else y
        block = _BlockCertifier(objective, cm, method, alpha, cost_model, trace, lipschitz,
                                box_radius, grad_tol, y, x, iterations, grad_evals)
    while block.k < iterations and not block.ended:
        k, m = block.k, min(block.rows, iterations - block.k)
        ts = method.schedule(k, m + 1)
        # iterations past a divergence may overflow; the pass discards them
        with np.errstate(over="ignore", invalid="ignore"):
            if method.near_dgd:
                cm.hold(ts)
                _near_dgd_iterations(objective, cm, alpha, block.ys, block.xs, ts)
            elif method.name == "dgd":
                _dgd_iterations(objective, cm, alpha, block.ys, m)
            else:
                s, grad = _tracking_iterations(objective, cm, alpha, block.ys, s, grad, m)
        block.certify(ts)
    with np.errstate(over=ignore, invalid=ignore):
        if not block.ended:
            block.finish(method.rounds(block.k))
        # copies, so that no result holds a view of the run's buffers
        final_y = block.Y[0].copy()
        final_avg = final_y.mean(axis=0)
    return RunResult(trace=trace, counter=CommCounter(block.comm_rounds, block.grad_evals),
                     final_y=final_y,
                     final_x=final_y if block.X is block.Y else block.X[0].copy(),
                     final_avg=final_avg, b_y=block.b_y,
                     max_cons_gap=block.max_cons_gap, max_eq7_inf=block.max_eq7_inf,
                     lipschitz=lipschitz)
