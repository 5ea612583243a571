"""Iteration engines: NEAR-DGD variants, DGD, and gradient tracking.

A run is strictly sequential; run_batch() iterates several runs side by
side, each with its own bits, and run() is run_batch()'s driver on one
cell. One slot loop, or a lone NEAR-DGD cell's own, does only the methods'
arithmetic and writes the iterates into buffers allocated once per batch;
one pass per block and cell reads them in place, decides how the run ends
and appends the certificates and trace columns.
"""

import contextlib
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
# The iterations of one block, by _slot_loop or, for a lone NEAR-DGD cell,
# _near_dgd_iterations. Each takes the per-slot views of the block buffers,
# whose slot 0 holds the state the block starts from, and writes iteration
# i's fresh iterates into slot i + 1, without checks or tallies; the block
# pass decides which of them the run keeps. The updates are
#   NEAR-DGD   y_{k+1} = x_k - a grad f(x_k),  x_{k+1} = Z^{t_{k+1}} y_{k+1};
#   DGD        x_{k+1} = Z x_k - a grad f(x_k);
#   tracking   x_{k+1} = Z x_k - a s_k,  s_k = Z s_{k-1} + grad f(x_k) - grad f(x_{k-1}),
# with s_0 = grad f(x_0), each evaluated as written, element for element:
# a grad f(x) (a s for the tracker) goes into a step buffer, and each
# consensus product straight into its slot. alpha is held as an array of the
# step's shape, since NumPy multiplies two same-shape arrays faster than it
# converts a Python float, and the ufuncs take their output positionally,
# which NumPy parses faster than the out keyword. The lone NEAR-DGD loop
# writes grad f(x) itself into its step buffer, by stacked_grad(x, step),
# which tests neither array: the run allocates that buffer and the slots at
# (n, p), once, and no call needs to check them again.

def _handles(cm, ts):
    """The product handles of iterations k..k+m-1, given ts = [t_k, ...,
    t_{k+m}]: Z^{t_{k+i+1}} for each i, fetched once per run of equal t.
    The schedules never decrease, so ts[1] == ts[m] means one handle for the
    whole block."""
    m = len(ts) - 1
    if ts[1] == ts[m]:
        return itertools.repeat(cm.product(ts[1]), m)
    handles, last = [], None
    for t in ts[1:]:
        if t != last:
            handle, last = cm.product(t), t
        handles.append(handle)
    return handles


def _near_dgd_iterations(objective, cm, alphas, step, ys, xs, ts):
    """Iterations k..k+m-1 from x_k = xs[0], given ts = [t_k, ..., t_{k+m}]:
    y_{k+i+1} into ys[i+1] and x_{k+i+1} = Z^{t_{k+i+1}} y_{k+i+1} into
    xs[i+1]. alphas (alpha in every entry) and step are the run's (n, p)
    arrays; each gradient is asked for in step, and the returned array is
    the one used, so an oracle that returns a fresh array works too."""
    grad_of, multiply, subtract = objective.stacked_grad, np.multiply, np.subtract
    for product, x, y_next, x_next in zip(_handles(cm, ts), xs, ys[1:], xs[1:]):
        subtract(x, multiply(grad_of(x, step), alphas, step), y_next)
        product(y_next, x_next)


def _iterations(method, budget):
    """(iterations, gradient evaluations counted before the first) of a run
    of the given budget: the tracker counts grad f(x_0), its s_0, and has no
    iteration below a budget of 2 (its loop never evaluates grad f(x_K))."""
    if method.name != "gradient-tracking":
        return budget, 0
    return (budget - 1, 1) if budget >= 2 else (0, 0)


def _block_rows(n, p, iterations):
    """The iterations of one block: BLOCK_ELEMENTS // (n p), at least one
    and at most the run's."""
    return max(1, min(BLOCK_ELEMENTS // (n * p), iterations))


def _quiet(flag):
    """np.errstate ignoring overflow and invalid operations where flag is
    set, and otherwise no context at all: the caller's setting holds."""
    return np.errstate(over="ignore", invalid="ignore") if flag else contextlib.nullcontext()


def _floats(ints):
    """A sequence of Python ints as a float array, each rounded as
    float(int) rounds it: an increasing range whose every entry and next
    step stay within 2^53 by one np.arange, whose start + i step is then
    exact (its stop one step past the last entry, so that its count is too),
    anything else by np.array."""
    if isinstance(ints, range) and ints and ints.step > 0 and ints[-1] + ints.step <= 2**53:
        return np.arange(ints.start, ints[-1] + ints.step, ints.step, dtype=float)
    return np.array(ints, dtype=float)


class _BlockCertifier:
    """One run from its first iteration on: how it ends, its certificates
    and its trace rows, a block at a time, and its RunResult.

    The run's matrix is cm or, for a NEAR-DGD run where dense_pays, its
    dense twin. The run's two (rows + 1, n, p) buffers Y and X are the
    caller's; the baselines have x_k = y_k and share one. Slot 0 holds the
    state (y_k, x_k) the next block starts from, and the loop writes
    y_{k+i+1} and x_{k+i+1} into slot i + 1. certify() reads the buffers in
    place and decides how many of the block's rows the run keeps: the first
    row whose y_{k+1} leaves the box ends the run there (diverged);
    otherwise, with grad_tol set, the first row whose grad_avg_norm is at
    most grad_tol ends it (stopped); the later rows are discarded. It then
    appends the kept rows to the trace as columns and updates the trajectory
    maxima b_y, max_cons_gap and max_eq7_inf. (k, t_k, comms, grads) of each
    row follow from k and the schedule in exact ints. finish() appends the
    terminal row, and result() the terminal row of a run that did not end.

    Formed once per run: f*, the per-slot views, and the descent constant
    rho(t) and beta^t of each distinct t the run meets (the run keeps the
    last t's pair, which the next block may repeat).
    Formed once per block: the box test, the rows' trace columns and
    certificates, and, on a block where t changes, the rows after which it
    does and each row's index among the block's distinct t; a block of one
    t takes its constants as two scalars and its comms as one range.
    """

    def __init__(self, objective, cm, method, inputs, y, Y, X):
        n, p = objective.n, objective.p
        self.iterations, self.grad_evals = _iterations(method, inputs.budget)
        if method.near_dgd and dense_pays(n, p, method.repeats(self.iterations)):
            cm = cm.dense_twin()
        alpha = inputs.alpha
        self.objective, self.cm, self.method, self.alpha = objective, cm, method, alpha
        self.cost_model, self.lipschitz = inputs.cost_model, inputs.lipschitz
        self.box_radius, self.grad_tol = inputs.box_radius, inputs.grad_tol
        self.trace = RunTrace(method=method.label(), seed=inputs.seed)
        self.f_star = objective.min_value()
        self.near_dgd, self.comms_per_round = method.near_dgd, method.comms_per_round
        self.fixed_t = "eq7-identity" in method.certificates
        self.Y, self.X = Y, X
        self.ys, self.xs = list(Y), list(X)  # per-slot views for the loop
        self.carry = (None, None, None)  # _constants' last t, rho(t) and beta^t
        # what the set-up, and the end of a run that ends at y_0, evaluate at a
        # y_0 outside the box may overflow, as the pass's evaluations at a y past it
        self.outside = not np.maximum.reduce(np.abs(y), axis=None) <= self.box_radius
        with _quiet(self.outside):
            # Z^{t_0} y_0; its t_0 rounds are counted when iteration 0 uses it
            x = cm.apply(method.rounds(0), y) if self.near_dgd else y
            Y[0], X[0] = y, x
            self.lyap = lyapunov_value_at(y, x, objective, alpha) if self.near_dgd else math.nan
            flat = y.ravel(order="K")  # numpy.linalg.norm(y), operation for operation
            self.b_y = float(np.sqrt(flat.dot(flat)))
        self.k, self.comm_rounds, self.max_cons_gap, self.max_eq7_inf = 0, 0, -math.inf, 0.0
        self.ended = False

    @property
    def running(self) -> bool:
        """Whether iterations are left: the run neither ended nor spent them."""
        return self.k < self.iterations and not self.ended

    def certify(self, ts):
        """Certify iterations k..k+m-1 from ts = [t_k, ..., t_{k+m}] and the
        buffers' slots 0..m. What it computes from a y_{k+1} that left the
        box may overflow, as the loop may past it; such a block is certified
        with overflow and invalid operations ignored."""
        m, top = len(ts) - 1, np.maximum.reduce  # ndarray.max without its Python wrapper
        # |y| is freed before the pass, which then holds at most three block-sized arrays
        if top(np.abs(self.Y[1:m + 1]), axis=None) <= self.box_radius:  # a NaN fails the test
            self._certify(ts, m)
            return
        peaks = top(np.abs(self.Y[1:m + 1]).reshape(m, -1), axis=1)
        diverged = int(np.flatnonzero(~(peaks <= self.box_radius))[0])  # also a non-finite peak
        with np.errstate(over="ignore", invalid="ignore"):
            self._certify(ts, m, diverged, peaks[diverged])

    def _certify(self, ts, m, diverged=None, peak=None):
        """certify() given the first row out of the box, if any, and its
        |y_{k+1}|_inf."""
        stack_y, stack_x = self.Y[:m + 1], self.X[:m + 1]
        r = m if diverged is None else diverged + 1  # the rows kept
        evaluated = self._evaluate(stack_x[:r])
        stopped = None
        if self.grad_tol is not None:
            below = np.flatnonzero(evaluated[2][:r if diverged is None else diverged]
                                   <= self.grad_tol)
            if below.size:
                stopped, diverged = int(below[0]), None
                r = stopped + 1
        end = r if diverged is None else diverged  # the state the run goes on from, or ends at
        ys, xs, ts_rows = stack_y[:r + 1], stack_x[:r + 1], ts[:r]
        if ts[0] == ts[r]:  # one t for every row: its comms are one progression
            step = self.comms_per_round * ts[0]
            comms = range(self.comm_rounds + step, self.comm_rounds + (r + 1) * step, step)
        else:
            comms = list(itertools.accumulate((self.comms_per_round * t for t in ts_rows),
                                              initial=self.comm_rounds))[1:]
        grads = range(self.grad_evals + 1, self.grad_evals + r + 1)
        norms = np.sqrt(inner(ys, ys))  # ||y_k||, and ||y_{k+1}|| of the last row
        self.b_y = _running_max(self.b_y, norms[1:])
        if self.near_dgd:
            lyaps, residuals, bounds = self._descent(ts, r, ys, xs, norms[:r])
            self.lyap = lyaps[end]
            lyaps = lyaps[:r]
        else:
            lyaps = residuals = math.nan
        cons = self._append_rows(range(self.k, self.k + r), ts_rows, comms, grads, xs[:r],
                                 lyaps, residuals, *(column[:r] for column in evaluated))
        if self.near_dgd:
            self.max_cons_gap = _running_max(self.max_cons_gap, cons - bounds)
        if self.fixed_t:
            # |x_{k+1} - x_k + a grad L_t(y_k)|, formed in the array of the
            # difference; grad f(x_k) is recomputed on the stack, elementwise
            # and so equal to the loop's bitwise
            grad_step = lyapunov_grad_at(xs[:r], self.objective.node_grads(xs[:r]), self.cm,
                                         ts[0], self.alpha)
            grad_step *= self.alpha
            violation = np.subtract(xs[1:], xs[:r])
            violation += grad_step
            np.abs(violation, violation)
            self.max_eq7_inf = _running_max(self.max_eq7_inf,
                                            violation.reshape(r, -1).max(axis=1))

        self.comm_rounds, self.grad_evals = comms[-1], grads[-1]
        if diverged is not None:
            # the run stops at y_k; its terminal row repeats row k's L_t(y_k)
            self.trace.diverged = True
            self.trace.divergence_note = (
                "iteration %d: |y|_inf = %g left the box |y|_inf <= %g; Lipschitz "
                "estimate no longer valid" % (self.k + end, peak, self.box_radius))
        self.Y[0], self.X[0] = ys[end], xs[end]  # the baselines' X and Y are one buffer
        self.k += end
        if diverged is not None or stopped is not None:
            self.ended = True
            self.finish(ts[end])

    def _descent(self, ts, r, ys, xs, norms):
        """A NEAR-DGD block's Lyapunov values L_{t_k}(y_k) of rows 0..r (from
        (y_k, x_k)), descent residuals of rows 0..r-1, and their consensus
        bounds beta^{t_k} ||y_k|| given norms = ||y_k||. L_{t_k}(y_{k+1})
        differs from L_{t_{k+1}}(y_{k+1}) on the rows after which t changes:
        x_{k+1} used t_{k+1}, the certificate needs Z^{t_k} y_{k+1}. One
        selection of those rows (the full slice when every row changes)
        gives the block's distinct t and each row's index among them, the
        count of changes before it; a block of one t has none."""
        objective, alpha = self.objective, self.alpha
        lyaps = np.empty(r + 1)
        lyaps[0] = self.lyap
        lyaps[1:] = lyapunov_value_at(ys[1:], xs[1:], objective, alpha)
        lyap_next = lyaps[1:]
        if ts[0] == ts[r]:
            (rho,), (beta_t,) = self._constants(ts[:1])
        else:
            # the schedules never decrease, so np.diff (which takes ts past
            # int64 too) finds each change
            changes = np.flatnonzero(np.diff(ts[:r + 1]))
            if changes.size == r:
                changed = per_row = slice(None)
                t_changed = ts[:r]
            else:
                changed, t_changed = changes, [ts[i] for i in changes]
                per_row = changes.searchsorted(np.arange(r))
            ys_changed, lyap_next = ys[1:][changed], lyap_next.copy()
            lyap_next[changed] = lyapunov_value_at(
                ys_changed, self.cm.apply_each(t_changed, ys_changed), objective, alpha)
            # the distinct t: the changed rows', and the last row's unless it changed
            distinct = t_changed + [ts[r - 1]] if ts[r - 1] == ts[r] else t_changed
            rho, beta_t = (np.array(column)[per_row] for column in self._constants(distinct))
        residuals = descent_certificate(lyaps[:r], lyap_next, ys[:r], ys[1:], rho)
        return lyaps, residuals, beta_t * norms

    def _constants(self, distinct):
        """([rho(t)], [beta^t]) over distinct, a block's distinct t in
        increasing order, each t's pair formed once per run: the run keeps
        the pair of the last t it formed, the one t that a later block may
        repeat, since a schedule never decreases. The t it lacks take one
        rho_constant call (each entry equal to its scalar call bitwise), or
        0.0 for alpha >= 2/L under the override flag (no guaranteed margin:
        the residual is the raw Lyapunov difference), and Python's beta ** t
        (NumPy's power of an array may differ in the last bit)."""
        last, rho, beta_t = self.carry
        new = distinct[1:] if distinct[0] == last else distinct
        if not new:
            return [rho], [beta_t]
        rhos = (rho_constant(self.cm, new, self.alpha, self.lipschitz).tolist()
                if self.alpha < 2.0 / self.lipschitz else [0.0] * len(new))
        betas = [consensus_distance_bound(self.cm.beta, t, 1.0) for t in new]
        self.carry = (new[-1], rhos[-1], betas[-1])
        if len(new) < len(distinct):
            return [rho] + rhos, [beta_t] + betas
        return rhos, betas

    def finish(self, t):
        """Append the terminal row (k, t, tallies) at the state y_k in slot 0."""
        points = self.Y[:1]
        self._append_rows((self.k,), (t,), (self.comm_rounds,), (self.grad_evals,), points,
                          self.lyap, math.nan, *self._evaluate(points))

    def result(self) -> RunResult:
        """The run's RunResult, after the terminal row of a run that did not
        end; final_y and final_x are copies, never views of the buffers."""
        with _quiet(self.outside):
            if not self.ended:
                self.finish(self.method.rounds(self.k))
            final_y = self.Y[0].copy()
            final_avg = final_y.mean(axis=0)
        return RunResult(trace=self.trace, counter=CommCounter(self.comm_rounds, self.grad_evals),
                         final_y=final_y,
                         final_x=self.X[0].copy() if self.near_dgd else final_y,
                         final_avg=final_avg, b_y=self.b_y, max_cons_gap=self.max_cons_gap,
                         max_eq7_inf=self.max_eq7_inf, lipschitz=self.lipschitz)

    def _evaluate(self, points):
        """The averages of a stack of (n, p) points, and f and ||grad f|| there."""
        avgs = mean_rows(points)
        return (avgs, *self.objective.batch_value_and_grad_norm(avgs))

    def _append_rows(self, ks, ts, comms, grads, points, lyaps, residuals, avgs, values,
                     grad_norms):
        """Append the trace rows with the given (k, t_k, comms, grads), each
        describing its (n, p) point, given _evaluate's columns, the Lyapunov
        values and the residuals (an array, or one float for every row);
        returns their cons_dist."""
        cons = consensus_distance(points, avgs)
        floats = np.empty((len(ks), len(FLOAT_COLUMNS)))
        np.subtract(values, self.f_star, floats[:, 0])
        floats[:, 1] = grad_norms
        floats[:, 2] = cons
        floats[:, 3] = lyaps
        floats[:, 4] = residuals
        np.sqrt(sum_last(avgs * avgs), floats[:, 5])  # ||xbar||, as numpy.linalg.norm
        # run() bounds the tallies below 2^1024, so they convert to float
        floats[:, 6] = cumulative_cost(CommCounter(_floats(comms), _floats(grads)),
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
    describes xbar_k, the average of x_k; rows 0..K-1 carry the Lyapunov
    value and descent residual (NEAR-DGD methods), the final row the
    terminal state y_K. The first row whose y_{k+1} leaves the box
    |y|_inf <= box_radius (finite) ends the run there, diverged; otherwise,
    with grad_tol set, the first row whose grad_avg_norm is at most grad_tol
    ends it. The terminal row describes y_{k+1}, so its grad_avg_norm may
    lie above grad_tol. The run is deterministic for fixed seed and
    arguments, and gives the same values, bit for bit, for any block size.
    A NEAR-DGD run for which dense_pays(n, p, method.repeats(iterations))
    runs on cm.dense_twin(); on a two-product cm its values then differ by
    rounding, and cm's own products keep their bits.
    """
    inputs = _checked_inputs(objective, cm, method, alpha, budget, seed, cost_model, grad_tol,
                             allow_large_alpha, box_radius)
    n, p = objective.n, objective.p
    y = initial_point(n, p, inputs.seed) if x0 is None else _checked_start(x0, n, p)
    return _run_cells(objective, cm, [method], [inputs], [y])[0]


def _checked_start(x0, n, p) -> np.ndarray:
    """x0 as a float (n, p) array of finite entries, a copy; a drawn initial
    point is one by construction."""
    try:  # an int past the float range, text, or complex, which a cast would make real
        if np.iscomplexobj(x0):
            raise TypeError
        y = np.array(x0, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("initial point x0 must hold real numbers within the float range") from None
    if y.shape != (n, p):
        raise ValueError("initial point has shape %r, expected (%d, %d)" % (y.shape, n, p))
    if not np.isfinite(y).all():
        raise ValueError("initial point has a non-finite entry")
    return y


# run()'s inputs as the engine reads them: Python ints and floats, the cost
# model, and the Lipschitz estimate on the box
_Inputs = namedtuple("_Inputs", "budget seed alpha grad_tol cost_model box_radius lipschitz")
_DEFAULT_COST = CostModel()  # frozen, so every run without a cost model shares it


def _checked_inputs(objective, cm, method, alpha, budget, seed, cost_model, grad_tol,
                    allow_large_alpha, box_radius) -> _Inputs:
    """The input checks of one run of method from seed on cm, in run()'s
    order."""
    if cm.n != objective.n:
        raise ValueError("the consensus matrix has %d nodes, the objective %d"
                         % (cm.n, objective.n))
    try:  # int and NumPy integers; 2.5 iterations or seed 1.5 would be truncated
        budget, seed = operator.index(budget), operator.index(seed)
    except TypeError:
        raise ValueError("budget and seed must be integers, got budget=%r, seed=%r"
                         % (budget, seed)) from None
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if seed < 0:  # NumPy's SeedSequence takes non-negative integers only
        raise ValueError("seed must be nonnegative, got %d" % seed)
    # Python floats from here on: an int past the float range fails once,
    # here, and a NumPy scalar takes Python's float arithmetic, warning-free
    alpha = as_float("alpha", alpha)
    grad_tol = grad_tol if grad_tol is None else as_float("grad_tol", grad_tol)
    if grad_tol is not None and not grad_tol >= 0:
        raise ValueError("grad_tol must be nonnegative, got %r" % grad_tol)
    box_radius = as_float("box_radius",
                          INIT_BOUND * BOX_INFLATION if box_radius is None else box_radius)
    if not 0 < box_radius < math.inf:  # NaN fails both comparisons
        raise ValueError("box_radius must be positive and finite, got %r" % box_radius)
    lipschitz = objective.lipschitz_estimate(box_radius)
    _validate_alpha(alpha, lipschitz, allow_large_alpha, objective.n * objective.p, box_radius)
    # the schedules never decrease, so no t_k exceeds t_budget and the comms
    # tally stays at most budget * t_budget; both must convert to float
    if budget * method.rounds(budget) >= 2**1024:
        raise ValueError("%s at budget %d: the consensus rounds per iteration "
                         "outgrow the float range" % (method.label(), budget))
    return _Inputs(budget, seed, alpha, grad_tol, cost_model or _DEFAULT_COST, box_radius,
                   lipschitz)


# the order of a batch's cells in its buffers: the NEAR-DGD cells first, so
# that one subtract forms the y_{k+1} of all of them, then DGD, then tracking
_BATCH_ORDER = {"dgd": 1, "gradient-tracking": 2}


def run_batch(objective: Objective, cm: ConsensusMatrix, cells, alpha: float, budget: int,
              cost_model: CostModel | None = None, grad_tol: float | None = None,
              allow_large_alpha: bool = False, box_radius: float | None = None) -> list:
    """run() of every (MethodSpec, seed) cell of cells, as one batch: a list
    with one RunResult per cell, in cell order, each equal bit for bit to
    that cell's run() with the same arguments. A cell's result depends on
    its own inputs alone, not on the other cells of the batch.

    Every cell is checked, in cell order, before any iteration, so a bad
    batch raises the error that the first bad cell's run() raises. Every
    batch but a lone NEAR-DGD cell iterates slot by slot on B-major buffers
    of shape (B, rows + 1, n, p), for x (every cell) and y (the NEAR-DGD
    cells), rows as one run of the longest cell takes: each slot takes one
    stacked_grad and one alpha-multiply for all B cells, one subtract for
    the y_{k+1} of every NEAR-DGD cell, and then each cell's own consensus
    products, from the handles of its matrix (cm, or its dense twin as run()
    picks it), whose memo holds the union of its cells' schedules once per
    block. The tracker's s_k = W s_{k-1} + g_k - g_{k-1} is formed from the
    slot's gradient g_k before x_{k+1} = W x_k - a s_k. After each block
    each cell's own block pass certifies its rows. A cell that diverges or
    stops on grad_tol leaves the batch there with its partial trace and end
    state; its rows of the shared arrays may go on being computed, and are
    never read again.
    """
    cells = list(cells)
    inputs = [_checked_inputs(objective, cm, method, alpha, budget, seed, cost_model,
                              grad_tol, allow_large_alpha, box_radius) for method, seed in cells]
    n, p = objective.n, objective.p
    return _run_cells(objective, cm, [method for method, _ in cells], inputs,
                      [initial_point(n, p, checked.seed) for checked in inputs])


def _run_cells(objective, cm, methods, inputs, starts) -> list:
    """The run driver of run() and run_batch(): the RunResults of the
    checked cells (methods[b], inputs[b]) from y_0 = starts[b], in cell
    order, by one block loop (hold, iterate, certify) over one
    _BlockCertifier per cell on the B-major buffers."""
    if not methods:
        return []
    n, p = objective.n, objective.p
    order = sorted(range(len(methods)), key=lambda b: _BATCH_ORDER.get(methods[b].name, 0))
    near = sum(method.near_dgd for method in methods)
    iterations = max(_iterations(method, inputs[0].budget)[0] for method in methods)
    X = np.empty((len(methods), _block_rows(n, p, iterations) + 1, n, p))
    Y = np.empty((near,) + X.shape[1:])
    blocks = [_BlockCertifier(objective, cm, methods[b], inputs[b], starts[b],
                              Y[j] if j < near else X[j], X[j])
              for j, b in enumerate(order)]
    alpha = inputs[0].alpha
    if len(blocks) == 1 and near:
        # alpha and the step buffer, allocated once per run: the buffer and
        # every slot of X and Y are float64 arrays of shape (n, p) by their
        # allocation, the one check that stacked_grad(x, out) relies on
        cell, alphas, step = blocks[0], np.full((n, p), alpha), np.empty((n, p))

        def iterate(m, schedules):
            _near_dgd_iterations(objective, cell.cm, alphas, step, cell.ys, cell.xs,
                                 schedules[0])
    else:
        iterate = _slot_loop(objective, cm, alpha, blocks, X, Y)
    rows, k = X.shape[1] - 1, 0
    while True:
        live = [j for j, block in enumerate(blocks) if block.running]
        if not live:
            break
        m = min(rows, max(blocks[j].iterations for j in live) - k)
        schedules = {j: blocks[j].method.schedule(k, min(m, blocks[j].iterations - k) + 1)
                     for j in live}
        held = {}  # one hold per matrix, of the union of its NEAR-DGD cells' schedules
        for j, ts in schedules.items():
            if j < near:
                held.setdefault(blocks[j].cm, []).extend(ts)
        for matrix, ts in held.items():
            matrix.hold(ts)
        # iterations past a divergence may overflow; the pass discards them
        with np.errstate(over="ignore", invalid="ignore"):
            iterate(m, schedules)
        for j, ts in schedules.items():
            blocks[j].certify(ts)
        k += m
    results = [None] * len(methods)
    for b, block in zip(order, blocks):
        results[b] = block.result()
    return results


def _slot_loop(objective, cm, alpha, blocks, X, Y):
    """The iterations of a batch on the buffers X and Y, whose first len(Y)
    cells are the NEAR-DGD ones: a function (m, schedules) that runs m
    slots of the live cells that schedules maps to [t_k, ..., t_{k+m}]."""
    # the gradient's coefficients tiled to the slot's shape (B, n, p), once
    grad_of = objective.tiled(X.shape[:1]).stacked_grad
    multiply, subtract, copyto = np.multiply, np.subtract, np.copyto
    w_dot, near = cm.W.dot, len(Y)
    alphas, step = np.full(X[:, 0].shape, alpha), np.empty(X[:, 0].shape)
    # per-slot views of x of every cell and y of the NEAR-DGD cells; a slot's
    # x is copied into one C-ordered array, on which the gradient and the
    # subtract take NumPy's faster same-shape loops
    x_slots, y_near = list(X.swapaxes(0, 1)), list(Y.swapaxes(0, 1))
    x, step_near, steps, cell_alpha = np.empty_like(step), step[:near], list(step), alphas[0]
    x_near = x[:near]
    trackers = {j: [None, None] for j, block in enumerate(blocks)
                if block.method.name == "gradient-tracking"}  # j: [s_{k-1}, g_{k-1}]

    def iterate(m, schedules):
        # slot i's products of the NEAR-DGD cells: (handle, y_{k+i+1}, x_{k+i+1})
        near_cells = [zip(_handles(blocks[j].cm, ts), blocks[j].ys[1:], blocks[j].xs[1:])
                      for j, ts in schedules.items() if j < near]
        near_slots = zip(*near_cells) if near_cells else itertools.repeat((), m)
        dgd = [(blocks[j].xs, steps[j]) for j in schedules if blocks[j].method.name == "dgd"]
        tracking = [(blocks[j].xs, steps[j], j, trackers[j]) for j in schedules if j in trackers]
        for i, near_ops in zip(range(m), near_slots):
            copyto(x, x_slots[i])
            grad = grad_of(x)
            multiply(grad, alphas, step)
            if near:
                subtract(x_near, step_near, y_near[i + 1])
            for product, y_next, x_next in near_ops:
                product(y_next, x_next)
            for xs, cell_step in dgd:
                subtract(w_dot(xs[i], xs[i + 1]), cell_step, xs[i + 1])
            for xs, cell_step, j, state in tracking:
                s, g = state[0], grad[j]
                if s is None:  # s_0 = g_0
                    s = g
                else:  # W s is a fresh array, so (W s + g_k) - g_{k-1} is formed in it
                    s = w_dot(s)
                    s += g
                    s -= state[1]
                subtract(w_dot(xs[i], xs[i + 1]), multiply(s, cell_alpha, cell_step),
                         xs[i + 1])
                state[0], state[1] = s, g
    return iterate
