"""Invariant/diagnostic check suite backing the `check` CLI subcommand."""

import math

import numpy as np

from .config import RunConfig
from .consensus import (ConsensusMatrix, ConsensusMatrixError, apply_consensus,
                        average_project, metropolis_weights)
from .diagnostics import lyapunov_grad, lyapunov_value
from .graph import build_ring
from .objective import finite_difference_grad
from .optimizer import MethodSpec, RunResult


def default_check_config() -> RunConfig:
    return RunConfig(n=4, p=2, index=2, budget=200, method=MethodSpec("near-dgd-t", t=2))


def _rel_err(a, b):
    denom = max(1.0, float(np.abs(b).max()))
    return float(np.abs(a - b).max()) / denom


def check_objective_gradients(problem, rng, points=20, step=1e-5, tol=1e-6):
    worst = 0.0
    for _ in range(points):
        x = rng.uniform(-1.0, 1.0, size=(problem.n, problem.p))
        fd = finite_difference_grad(problem.stacked_value, x, step)
        worst = max(worst, _rel_err(problem.stacked_grad(x), fd))
    return worst <= tol, "max rel err %.3g" % worst


def check_hessian_vector(problem, rng, points=10, step=1e-5, tol=1e-5):
    worst = 0.0
    shape = (problem.n, problem.p)
    for _ in range(points):
        x = rng.uniform(-1.0, 1.0, size=shape)
        v = rng.normal(size=shape)
        hv = problem.node_hessian_diags(x) * v
        fd = (problem.stacked_grad(x + step * v) - problem.stacked_grad(x - step * v)) / (2 * step)
        worst = max(worst, _rel_err(hv, fd))
    return worst <= tol, "max rel err %.3g" % worst


def check_lyapunov_gradient(problem, cm, alpha, rng, points=10, step=1e-5, tol=1e-6):
    worst = 0.0
    for _ in range(points):
        y = rng.uniform(-1.0, 1.0, size=(problem.n, problem.p))
        for t in (1, 2):
            fd = finite_difference_grad(
                lambda v: lyapunov_value(v, problem, cm, t, alpha), y, step)
            worst = max(worst, _rel_err(lyapunov_grad(y, problem, cm, t, alpha), fd))
    return worst <= tol, "max rel err %.3g" % worst


def check_consensus_properties(cm, rng, tol=1e-12):
    """Nonexpansive, contracting by beta^t, composing, mean-keeping, equal
    to t successive products, and, for every t >= 2, equal to the two
    eigenbasis products (V diag(lam^t)) (V' y), which guard a dense Z^t."""
    n = cm.n
    v = cm.eigenvectors
    problems = []
    for _ in range(5):
        y = rng.normal(size=(n, 3))
        for t in (2, 5, 20):
            if np.abs(apply_consensus(cm, t, y) - (v * cm.powers(t)) @ (v.T @ y)).max() > tol:
                problems.append("two-product form")
        z1 = apply_consensus(cm, 1, y)
        if np.linalg.norm(z1) > np.linalg.norm(y) + tol:
            problems.append("expansive")
        m = average_project(y)
        z3 = apply_consensus(cm, 3, y)
        if np.linalg.norm(z3 - m) > cm.beta**3 * np.linalg.norm(y - m) + tol:
            problems.append("contraction bound")
        if np.abs(apply_consensus(cm, 2, apply_consensus(cm, 1, y)) - z3).max() > tol:
            problems.append("composition")
        if np.abs(average_project(z3) - m).max() > 1e-11:
            problems.append("mean preservation")
        z7 = y
        for _ in range(7):
            z7 = cm.W @ z7
        if np.abs(apply_consensus(cm, 7, y) - z7).max() > tol:
            problems.append("spectral power")
    return not problems, ", ".join(sorted(set(problems)))


def check_pd_rejection():
    g = build_ring(4)
    w = metropolis_weights(g)  # lambda_1 = -1/3, not positive definite
    try:
        ConsensusMatrix(w, g)
    except ConsensusMatrixError:
        return True, ""
    return False, "indefinite matrix accepted"


DESCENT_SLACK = 1e-10  # a descent residual is at most DESCENT_SLACK * max(1, |L_t(y_k)|)
EQ7_TOL = 1e-10        # |x_{k+1} - x_k + a grad L_t(y_k)|_inf
CONS_GAP_TOL = 1e-12   # cons_dist - beta^t ||y_k||


def certificate_verdicts(result: RunResult, method: MethodSpec):
    """(name, ok, detail) of the three run certificates of a finished run of
    method. ok is None for a certificate the method does not evaluate, and
    for all three when no iteration ran; a diverged run fails the others."""
    trace = result.trace
    lyapunov = trace.column("lyapunov")[:-1]  # the terminal row certifies nothing
    slack = DESCENT_SLACK * np.fmax(1.0, np.abs(lyapunov))
    worst_rel = float(np.fmax.reduce(trace.column("descent_residual")[:-1] / slack,
                                     initial=-math.inf))
    eq7, gap = result.max_eq7_inf, result.max_cons_gap
    out = []
    for name, ok, detail in (
            ("descent-residual", worst_rel <= 1.0, "worst residual/slack ratio %.3g" % worst_rel),
            ("eq7-identity", eq7 <= EQ7_TOL, "max inf-norm %.3g" % eq7),
            ("consensus-bound", gap <= CONS_GAP_TOL, "max gap %.3g" % gap)):
        if name not in method.certificates:
            ok, detail = None, "not evaluated for %s" % method.label()
        elif not lyapunov.size:
            ok, detail = None, "no iteration to certify"
        elif result.diverged:
            ok, detail = False, "run diverged: %s" % trace.divergence_note
        out.append((name, ok, detail))
    return out


def run_check_suite(problem, cm, alpha):
    """The (name, ok, detail) of the checks of a problem, a consensus matrix
    and a step length; certificate_verdicts judges a run."""
    rng = np.random.default_rng(12345)
    return [("objective-gradient-fd", *check_objective_gradients(problem, rng)),
            ("hessian-vector-fd", *check_hessian_vector(problem, rng)),
            ("lyapunov-gradient-fd", *check_lyapunov_gradient(problem, cm, alpha, rng)),
            ("consensus-properties", *check_consensus_properties(cm, rng)),
            ("pd-shift-detection", *check_pd_rejection())]
