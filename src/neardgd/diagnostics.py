"""Lyapunov evaluations, descent constants, theoretical bounds, saddle
classification, cost accounting and the run trace.

Everything here but RunTrace, which a run appends its rows to as columns,
is pure evaluation over immutable state; its consensus applications are
diagnostic and count in no run's tallies. The stacked forms take (..., n, p)
stacks of iterates, and each iterate's value equals its (n, p) call bitwise.
"""

import math
from dataclasses import dataclass, field
from itertools import starmap
from typing import NamedTuple

import numpy as np

from .consensus import ConsensusMatrix, apply_consensus, power_grid
# sym_eigen and sym_power have no caller here; the benchmark harness traces
# them under these names
from .linalg import sum_last, sym_eigen, sym_eigvals, sym_power
from .objective import Objective

HESSIAN_SIZE_GUARD = 2000
NEAR_CRITICAL_SCALE = 1e-6  # saddle_classification: ||grad L_t(y)|| <= this * max(1, ||y||)
DEAD_BAND = 1e-8  # an eigenvalue of S (see _coordinate_blocks) within it of 0 has no sign


# ---------------------------------------------------------------------------
# Lyapunov function

def inner(a, b):
    """<a, b> over the last two axes: a float for (n, p) arrays, one value
    per leading index for (..., n, p) stacks. Each value equals np.vdot of
    its (n, p) pair bitwise, since both reduce to the same BLAS dot."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lead, size = a.shape[:-2], a.shape[-2] * a.shape[-1]
    out = (a.reshape(lead + (1, size)) @ b.reshape(lead + (size, 1))).reshape(lead)
    return float(out) if out.ndim == 0 else out


def lyapunov_value_at(y, zy, objective: Objective, alpha: float):
    """L_t(y) = f(Z^t y) + (1/2a)(y' Z^t y - y' Z^2t y), given zy = Z^t y.

    y' Z^2t y = ||Z^t y||^2 by symmetry, so no further consensus is needed.
    (..., n, p) stacks give one value per iterate, each equal to its (n, p)
    call bitwise.
    """
    return objective.stacked_value(zy) + (1.0 / (2.0 * alpha)) * (
        inner(y, zy) - inner(zy, zy))


def lyapunov_value(y, objective: Objective, cm: ConsensusMatrix, t: int, alpha: float) -> float:
    """L_t(y), via block consensus applications."""
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise ValueError("alpha must be positive and finite")
    y = np.asarray(y, dtype=float)
    return lyapunov_value_at(y, apply_consensus(cm, t, y), objective, alpha)


def lyapunov_grad_at(y, zy, grad, cm: ConsensusMatrix, t: int, alpha: float) -> np.ndarray:
    """grad L_t(y) = Z^t grad f(Z^t y) + (1/a)(Z^t - Z^2t) y, given zy = Z^t y
    and grad = grad f(zy), as the one product Z^t ((y - zy)/a + grad), with
    the bits of the formula as written; (n, p) arrays or (..., n, p) stacks,
    each iterate of a stack equal to its (n, p) call bitwise. A zy that is
    not Z^t y shows in the result."""
    return apply_consensus(cm, t, (y - zy) / alpha + grad)


def lyapunov_grad(y, objective: Objective, cm: ConsensusMatrix, t: int, alpha: float) -> np.ndarray:
    """Z^t grad f(Z^t y) + (1/a)(Z^t - Z^2t) y, in two products (lyapunov_grad_at)."""
    if not 0 < alpha < math.inf:  # NaN fails both comparisons
        raise ValueError("alpha must be positive and finite")
    y = np.asarray(y, dtype=float)
    zy = apply_consensus(cm, t, y)
    return lyapunov_grad_at(y, zy, objective.stacked_grad(zy), cm, t, alpha)


def lyapunov_hessian(y, objective: Objective, cm: ConsensusMatrix, t: int, alpha: float) -> np.ndarray:
    """Explicit np x np Hessian Z^t H_f(Z^t y) Z^t + (1/a) Z^t (I - Z^t),
    node-major: V lam^{t/2} S_j lam^{t/2} V' at coordinate j (see _coordinate_blocks)."""
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    if n * p > HESSIAN_SIZE_GUARD:
        raise ValueError("refusing to materialize a %d x %d Hessian" % (n * p, n * p))
    vh = cm.eigenvectors * cm.powers(t / 2.0)
    h = np.zeros((n, p, n, p))
    j = np.arange(p)
    h[:, j, :, j] = vh @ _coordinate_blocks(y, objective, cm, t, alpha) @ vh.T
    h = h.reshape(n * p, n * p)
    return 0.5 * (h + h.T)


# ---------------------------------------------------------------------------
# Descent constants and bounds

def rho_constant(cm: ConsensusMatrix, t, alpha: float, lipschitz: float):
    """Sufficient-descent constant: (2a)^-1 min_i lam_i^t (1 + (1 - aL) lam_i^t).

    The eigenvalues of the stacked operator are those of W, each with
    multiplicity p. g(u) = u (1 + (1 - aL) u) increases for aL <= 1 and is
    concave otherwise, so its minimum over [lambda_min^t, 1] is g at an end,
    min(g(lambda_min^t), 2 - aL), read from the pinned spectrum's two ends
    raised as cm.powers(t) raises them. A sequence of t gives an array with
    one constant per entry, each equal to its scalar call bitwise.
    """
    if not 0 < alpha < 2.0 / lipschitz:  # NaN fails both comparisons
        raise ValueError("rho requires 0 < alpha < 2/L")
    scalar = np.ndim(t) == 0
    lam_t = power_grid(cm.powers(1)[[0, -1]], [t] if scalar else t)
    rho = (lam_t * (1.0 + (1.0 - alpha * lipschitz) * lam_t)).min(axis=-1) / (2.0 * alpha)
    # mathematically positive for PD W and alpha < 2/L, but lambda_min^t
    # underflows to 0 for very large t; 0 is the conservative limit there
    assert (rho >= 0.0).all()
    return float(rho[0]) if scalar else rho


def descent_certificate(lyap_k, lyap_next, y_k, y_next, rho):
    """L_t(y_{k+1}) - L_t(y_k) + rho ||y_{k+1} - y_k||^2, given both Lyapunov
    values; one value per row of (..., n, p) stacks with matching rho."""
    dy = np.subtract(y_next, y_k)
    return lyap_next - lyap_k + rho * inner(dy, dy)


def descent_residual(y_k, y_next, objective, cm, t, alpha, lipschitz) -> float:
    """L_t(y_{k+1}) - L_t(y_k) + rho ||dy||^2; <= ~0 for valid steplengths."""
    y_k = np.asarray(y_k, dtype=float)
    y_next = np.asarray(y_next, dtype=float)
    rho = rho_constant(cm, t, alpha, lipschitz)
    return descent_certificate(
        lyapunov_value_at(y_k, apply_consensus(cm, t, y_k), objective, alpha),
        lyapunov_value_at(y_next, apply_consensus(cm, t, y_next), objective, alpha),
        y_k, y_next, rho)


def consensus_distance(x, mean=None):
    """max_i ||x_i - xbar||, the worst per-node distance to the mean; one
    value per iterate of a (..., n, p) stack. mean, when given, is
    x.mean(axis=-2), the (..., p) averages a caller has already formed."""
    x = np.asarray(x, dtype=float)
    if mean is None:
        mean = x.mean(axis=-2)
    # the difference is formed in a same-shape copy of the mean, the one
    # array of x's size this allocates, as the broadcast subtract would;
    # NumPy subtracts two same-shape arrays about three times as fast
    d = np.repeat(mean[..., None, :], x.shape[-2], axis=-2)
    np.subtract(x, d, d)
    d *= d  # numpy.linalg.norm(d, axis=-1), operation for operation
    dist = np.maximum.reduce(np.sqrt(sum_last(d)), axis=-1)  # .max(axis=-1), unwrapped
    return float(dist) if dist.ndim == 0 else dist


def consensus_distance_bound(beta: float, t: int, b_y: float) -> float:
    """beta^t * B_y, with the running iterate norm as the B_y witness."""
    return beta**t * b_y


def optimality_gap_bound(beta: float, t: int, n: int, lipschitz: float, b_y: float) -> float:
    """beta^t * sqrt(n) * L * B_y, the limiting average-gradient bound."""
    return beta**t * math.sqrt(n) * lipschitz * b_y


# ---------------------------------------------------------------------------
# Saddle classification

def _coordinate_blocks(y, objective, cm, t, alpha):
    """Coordinate j of the Lyapunov Hessian and of Dg in W's eigenbasis.

    Every Hessian here is diagonal per node, so both stacked operators split
    by coordinate. With Z^t = V diag(lam^t) V' from the eigenpairs cached on
    cm and lam^t, lam^{t/2} from cm.powers, h the diagonal of H_f(Z^t y) and
    B_j = V' diag(h_j) V, returns the one (p, n, n) stack
      S_j = lam^{t/2} B_j lam^{t/2} + diag(1 - lam^t) / a,
    congruent to the Hessian V lam^{t/2} S_j lam^{t/2} V', with I - a S_j
    similar to Dg; unlike the Hessian's, its curvature does not shrink like lam^t.
    """
    zy = apply_consensus(cm, t, np.asarray(y, dtype=float))
    h = objective.node_hessian_diags(objective._check_stacked(zy))
    v = cm.eigenvectors
    b = (v.T * h.T[:, None, :]) @ v
    b = 0.5 * (b + np.swapaxes(b, -1, -2))
    lam_half = cm.powers(t / 2.0)
    return b * np.outer(lam_half, lam_half) + np.diag((1.0 - cm.powers(t)) / alpha)


def neardgd_map_jacobian_eigenvalues(y, objective, cm, t, alpha) -> np.ndarray:
    """Eigenvalues of Dg(y) = Z^t (I - a H_f(Z^t y)), ascending, (np,).

    Dg is similar to the symmetric I - a S (see _coordinate_blocks), so the
    spectrum is real and computable with the symmetric solver.
    """
    s = sym_eigvals(_coordinate_blocks(y, objective, cm, t, alpha))
    return np.sort(1.0 - alpha * s, axis=None)


@dataclass
class SaddleReport:
    label: str  # "min" | "strict-saddle" | "indefinite-tolerance"
    lambda_min_s: float
    max_abs_dg_eigenvalue: float
    unstable_count: int  # eigenvalues of S below -DEAD_BAND


def saddle_classification(y, objective, cm, t, alpha) -> SaddleReport:
    """Classify a near-critical point of the Lyapunov function.

    Uses the sign of the smallest eigenvalue of S (see _coordinate_blocks)
    outside DEAD_BAND. S has the Hessian's inertia (Sylvester's law) and
    I - a S is similar to Dg, so the criterion max|lam(Dg)| > 1 agrees by
    construction and unstable_count counts both. No np x np matrix is formed,
    so there is no size limit. A point whose ||grad L_t(y)|| exceeds
    NEAR_CRITICAL_SCALE * max(1, ||y||) raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    gnorm = float(np.linalg.norm(lyapunov_grad(y, objective, cm, t, alpha)))
    tol = NEAR_CRITICAL_SCALE * max(1.0, float(np.linalg.norm(y)))
    if gnorm > tol:
        raise ValueError("not near-critical: ||grad L_t|| = %g > %g" % (gnorm, tol))
    s = np.sort(sym_eigvals(_coordinate_blocks(y, objective, cm, t, alpha)), axis=None)
    s_min = float(s[0])
    if s_min < -DEAD_BAND:
        label = "strict-saddle"
    elif s_min > DEAD_BAND:
        label = "min"
    else:
        label = "indefinite-tolerance"
    return SaddleReport(
        label=label,
        lambda_min_s=s_min,
        max_abs_dg_eigenvalue=float(np.abs(1.0 - alpha * s).max()),
        unstable_count=int((s < -DEAD_BAND).sum()),
    )


# ---------------------------------------------------------------------------
# Cost accounting and traces

def as_float(name, value) -> float:
    """An input as a Python float, or a ValueError that names it (an int past
    the float range such as 10**400, text float() cannot read)."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError("%s must be a number within the float range" % name) from None


@dataclass(frozen=True)
class CostModel:
    """Cost = c_c * communications + c_g * computations, frozen, with float coefficients."""

    c_c: float = 1.0
    c_g: float = 1.0

    def __post_init__(self):  # dataclasses.replace runs it too
        for name in ("c_c", "c_g"):
            object.__setattr__(self, name, as_float(name, getattr(self, name)))
        if not (0 <= self.c_c < math.inf and 0 <= self.c_g < math.inf):  # NaN makes it false
            raise ValueError("cost coefficients must be finite and nonnegative, got "
                             "c_c=%r, c_g=%r" % (self.c_c, self.c_g))


@dataclass
class CommCounter:
    """Cumulative communication/computation tallies for one run."""

    consensus_rounds: int = 0
    gradient_evals: int = 0


def cumulative_cost(counter: CommCounter, model: CostModel):
    """Float cost of the tallies, inf past the float range; one per entry of arrays."""
    with np.errstate(over="ignore"):
        return model.c_c * counter.consensus_rounds + model.c_g * counter.gradient_evals


class TraceRecord(NamedTuple):
    k: int
    t_k: int
    comms: int
    grads: int
    f_err: float
    grad_avg_norm: float
    cons_dist: float
    lyapunov: float
    descent_residual: float
    dist_saddle: float
    cost: float


TRACE_COLUMNS = TraceRecord._fields
FLOAT_COLUMNS = TRACE_COLUMNS[4:]  # f_err .. cost


@dataclass(eq=False)
class RunTrace:
    """Per-iteration trace rows of one run, kept as columns: k, t_k, comms
    and grads as lists of Python ints (a doubling schedule's counts outgrow
    int64), and the seven FLOAT_COLUMNS, f_err .. cost, as a list of the
    (r, 7) arrays appended, so that an append copies no earlier row.
    ``records`` builds a new list of every row as a TraceRecord on each
    access; ``final`` builds only the last, from the last block."""

    method: str
    seed: int
    diverged: bool = False
    divergence_note: str = ""
    _ints: tuple = field(default_factory=lambda: ([], [], [], []), init=False, repr=False)
    _floats: list = field(default_factory=lambda: [np.empty((0, len(FLOAT_COLUMNS)))],
                          init=False, repr=False)

    def extend(self, ks, ts, comms, grads, floats):
        """Append r rows: four sequences of r ints (lists, tuples or ranges) and
        an (r, 7) float array."""
        for column, values in zip(self._ints, (ks, ts, comms, grads)):
            column.extend(values)
        self._floats.append(floats)

    @property
    def records(self) -> list:
        return list(starmap(TraceRecord, zip(*self._ints,
                                             *np.concatenate(self._floats).T.tolist())))

    @property
    def final(self) -> TraceRecord:
        ints = [column[-1] for column in self._ints]  # IndexError when empty
        floats = next(block for block in reversed(self._floats) if len(block))
        return TraceRecord(*ints, *floats[-1].tolist())

    def column(self, name):
        """One column over every row: a float array for FLOAT_COLUMNS, a
        list for the integer columns."""
        if name in FLOAT_COLUMNS:
            return np.concatenate(self._floats)[:, FLOAT_COLUMNS.index(name)]
        return list(self._ints[TRACE_COLUMNS.index(name)])

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            self.write_csv_to(fh)

    def write_csv_to(self, fh, header=True, extra_key_columns=False):
        """CSV rows: the four counts as integers and the seven floats as
        %.17g, which round-trips them. No field needs csv quoting: method
        labels hold no comma or quote.

        Each block of rows the trace appended is formatted by one % over
        its values, interleaved row by row, so the text held at once stays
        one block's."""
        cols = list(TRACE_COLUMNS)
        prefix = ""
        if extra_key_columns:
            cols = ["method", "seed"] + cols
            prefix = "%s,%d," % (self.method, self.seed)
        if header:
            fh.write(",".join(cols) + "\n")
        row = (prefix.replace("%", "%%") + "%d,%d,%d,%d,"
               + ",".join(["%.17g"] * len(FLOAT_COLUMNS)) + "\n")
        width, start = len(TRACE_COLUMNS), 0
        for floats in self._floats:
            r, end = len(floats), start + len(floats)
            values = [None] * (r * width)
            for j, column in enumerate((*(c[start:end] for c in self._ints),
                                        *floats.T.tolist())):
                values[j::width] = column
            fh.write((row * r) % tuple(values))
            start = end

    def cost_to_reach(self, f_err_target: float) -> float:
        """Float cost of first reaching the error target and staying at or below it.

        Transient dips that later rise back above the target do not count;
        inf if the run never settles below the target.
        """
        unsettled = np.flatnonzero(~(self.column("f_err") <= f_err_target))
        start = int(unsettled[-1]) + 1 if unsettled.size else 0
        costs = self.column("cost")
        return float(costs[start]) if start < len(costs) else math.inf
