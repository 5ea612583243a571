"""Lyapunov evaluations, descent constants, theoretical bounds, saddle
classification and cost accounting.

Everything here is pure evaluation over immutable state and never touches a
run's communication counter: diagnostic consensus applications are free.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .consensus import ConsensusMatrix, CommCounter, apply_consensus, average_project
from .linalg import kron_identity, sym_eigen, sym_power
from .objective import Objective

HESSIAN_SIZE_GUARD = 2000

TRACE_COLUMNS = (
    "k", "t_k", "comms", "grads", "f_err", "grad_avg_norm", "cons_dist",
    "lyapunov", "descent_residual", "dist_saddle", "cost",
)


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
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=float)
    return lyapunov_value_at(y, apply_consensus(cm, t, y), objective, alpha)


def lyapunov_grad_at(zy, grad, cm: ConsensusMatrix, t: int, alpha: float) -> np.ndarray:
    """grad L_t(y) = Z^t grad f(Z^t y) + (1/a)(Z^t - Z^2t) y, given zy = Z^t y
    and grad = grad f(zy); (n, p) arrays or (..., n, p) stacks."""
    return _consensus_at(cm, t, grad) + (zy - _consensus_at(cm, t, zy)) / alpha


def _consensus_at(cm: ConsensusMatrix, t: int, x) -> np.ndarray:
    """Z^t applied along the node axis of an (n, p) iterate or (..., n, p) stack."""
    return np.moveaxis(apply_consensus(cm, t, np.moveaxis(x, -2, 0)), 0, -2)


def lyapunov_grad(y, objective: Objective, cm: ConsensusMatrix, t: int, alpha: float) -> np.ndarray:
    """Z^t grad f(Z^t y) + (1/a)(Z^t - Z^2t) y."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    zy = apply_consensus(cm, t, np.asarray(y, dtype=float))
    return lyapunov_grad_at(zy, objective.stacked_grad(zy), cm, t, alpha)


def lyapunov_hessian(y, objective: Objective, cm: ConsensusMatrix, t: int, alpha: float) -> np.ndarray:
    """Explicit np x np Hessian Z^t H_f(Z^t y) Z^t + (1/a) Z^t (I - Z^t)."""
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    if n * p > HESSIAN_SIZE_GUARD:
        raise ValueError("refusing to materialize a %d x %d Hessian" % (n * p, n * p))
    wt = sym_power(cm.W, t)
    zt = kron_identity(wt, p)
    hf = objective.stacked_hessian(apply_consensus(cm, t, y))
    h = zt @ hf @ zt + (zt @ (np.eye(n * p) - zt)) / alpha
    return 0.5 * (h + h.T)


# ---------------------------------------------------------------------------
# Descent constants and bounds

def rho_constant(cm: ConsensusMatrix, t: int, alpha: float, lipschitz: float) -> float:
    """Sufficient-descent constant: (2a)^-1 min_i lam_i^t (1 + (1 - aL) lam_i^t).

    The eigenvalues of the stacked operator are those of W, each with
    multiplicity p, so the minimum runs over the cached spectrum of W.
    """
    if alpha <= 0 or alpha >= 2.0 / lipschitz:
        raise ValueError("rho requires 0 < alpha < 2/L")
    lam_t = cm.eigenvalues**t
    rho = float((lam_t * (1.0 + (1.0 - alpha * lipschitz) * lam_t)).min() / (2.0 * alpha))
    # mathematically positive for PD W and alpha < 2/L, but lambda_min^t
    # underflows to 0 for very large t; 0 is the conservative limit there
    assert rho >= 0.0
    return rho


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


def consensus_distance(x):
    """max_i ||x_i - xbar||, the worst per-node distance to the mean; one
    value per iterate of a (..., n, p) stack."""
    x = np.asarray(x, dtype=float)
    dist = np.linalg.norm(x - x.mean(axis=-2, keepdims=True), axis=-1).max(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


def disagreement_norm(x) -> float:
    """Stacked distance to the consensus subspace, ||x - Mx||."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x - average_project(x)))


def consensus_distance_bound(beta: float, t: int, b_y: float) -> float:
    """beta^t * B_y, with the running iterate norm as the B_y witness."""
    return beta**t * b_y


def optimality_gap_bound(beta: float, t: int, n: int, lipschitz: float, b_y: float) -> float:
    """beta^t * sqrt(n) * L * B_y, the limiting average-gradient bound."""
    return beta**t * math.sqrt(n) * lipschitz * b_y


# ---------------------------------------------------------------------------
# Saddle classification

def neardgd_map_jacobian_eigenvalues(y, objective, cm, t, alpha) -> np.ndarray:
    """Eigenvalues of Dg(y) = Z^t (I - a H_f(Z^t y)), ascending.

    Dg is similar to the symmetric Z^{t/2} (I - a H_f) Z^{t/2}, so the
    spectrum is real and computable with the symmetric solver.
    """
    y = np.asarray(y, dtype=float)
    n, p = y.shape
    zh = kron_identity(sym_power(cm.W, t / 2.0), p)
    hf = objective.stacked_hessian(apply_consensus(cm, t, y))
    sym = zh @ (np.eye(n * p) - alpha * hf) @ zh
    return sym_eigen(0.5 * (sym + sym.T)).eigenvalues


@dataclass
class SaddleReport:
    label: str  # "min" | "strict-saddle" | "indefinite-tolerance"
    lambda_min_hessian: float
    max_abs_dg_eigenvalue: float
    negative_hessian_count: int
    expanding_dg_count: int  # eigenvalues of Dg exceeding 1


def saddle_classification(y, objective, cm, t, alpha, dead_band=1e-8,
                          grad_tol_scale=1e-6) -> SaddleReport:
    """Classify a near-critical point of the Lyapunov function.

    Uses the sign of the smallest Hessian eigenvalue with a dead band, and
    cross-checks against the unstable-fixed-point criterion max|lam(Dg)| > 1.
    """
    y = np.asarray(y, dtype=float)
    gnorm = float(np.linalg.norm(lyapunov_grad(y, objective, cm, t, alpha)))
    tol = grad_tol_scale * max(1.0, float(np.linalg.norm(y)))
    if gnorm > tol:
        raise ValueError("not near-critical: ||grad L_t|| = %g > %g" % (gnorm, tol))
    hess_eigs = sym_eigen(lyapunov_hessian(y, objective, cm, t, alpha)).eigenvalues
    dg_eigs = neardgd_map_jacobian_eigenvalues(y, objective, cm, t, alpha)
    lam1 = float(hess_eigs[0])
    if lam1 < -dead_band:
        label = "strict-saddle"
    elif lam1 > dead_band:
        label = "min"
    else:
        label = "indefinite-tolerance"
    return SaddleReport(
        label=label,
        lambda_min_hessian=lam1,
        max_abs_dg_eigenvalue=float(np.abs(dg_eigs).max()),
        negative_hessian_count=int((hess_eigs < -dead_band).sum()),
        expanding_dg_count=int((dg_eigs > 1.0 + dead_band).sum()),
    )


# ---------------------------------------------------------------------------
# Cost accounting and traces

@dataclass
class CostModel:
    """Cost = c_c * communications + c_g * computations."""

    c_c: float = 1.0
    c_g: float = 1.0

    def __post_init__(self):
        if self.c_c < 0 or self.c_g < 0:
            raise ValueError("cost coefficients must be nonnegative")


def cumulative_cost(counter: CommCounter, model: CostModel):
    """Cost of the counter's tallies; arrays of tallies give one cost each."""
    return model.c_c * counter.consensus_rounds + model.c_g * counter.gradient_evals


@dataclass
class TraceRecord:
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

    def row(self):
        return [getattr(self, c) for c in TRACE_COLUMNS]


def _fmt(value):
    if isinstance(value, (int, np.integer)):
        return "%d" % value
    return "%.17g" % value


@dataclass
class RunTrace:
    """Per-iteration metric records for one run."""

    method: str
    seed: int
    records: list = field(default_factory=list)
    diverged: bool = False
    divergence_note: str = ""

    def append(self, record: TraceRecord):
        self.records.append(record)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def write_csv(self, path, extra_key_columns=False):
        with open(path, "w", newline="") as fh:
            self.write_csv_to(fh, header=True, extra_key_columns=extra_key_columns)

    def write_csv_to(self, fh, header=True, extra_key_columns=False):
        writer = csv.writer(fh, lineterminator="\n")
        cols = list(TRACE_COLUMNS)
        if extra_key_columns:
            cols = ["method", "seed"] + cols
        if header:
            writer.writerow(cols)
        for rec in self.records:
            row = [_fmt(v) for v in rec.row()]
            if extra_key_columns:
                row = [self.method, "%d" % self.seed] + row
            writer.writerow(row)

    def cost_to_reach(self, f_err_target: float) -> float:
        """Cost of first reaching the error target and staying at or below it.

        Transient dips that later rise back above the target do not count;
        inf if the run never settles below the target.
        """
        reached_at = None
        for rec in self.records:
            if rec.f_err <= f_err_target:
                if reached_at is None:
                    reached_at = rec.cost
            else:
                reached_at = None
        return math.inf if reached_at is None else reached_at
