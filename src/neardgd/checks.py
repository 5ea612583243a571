"""Invariant/diagnostic check suite backing the `check` CLI subcommand."""

import math

import numpy as np

from .consensus import (ConsensusMatrix, ConsensusMatrixError, apply_consensus,
                        average_project, metropolis_weights)
from .diagnostics import lyapunov_grad, lyapunov_value
from .graph import build_ring
from .objective import finite_difference_grad
from .optimizer import MethodSpec, RunResult


# What `neardgd check` judges by: the finite-difference checks (central
# differences of step FD_STEP), the consensus check and a finished run's certificates.
FD_STEP = 1e-5
GRAD_FD_POINTS, GRAD_FD_TOL = 20, 1e-6  # objective-gradient-fd
HESS_FD_POINTS, HESS_FD_TOL = 10, 1e-5  # hessian-vector-fd
LYAP_FD_POINTS, LYAP_FD_TOL = 10, 1e-6  # lyapunov-gradient-fd, at t = 1 and 2
CONSENSUS_TOL, MEAN_TOL = 1e-12, 1e-11  # consensus-properties; MEAN_TOL: the node mean
DESCENT_SLACK = 1e-10   # a descent residual is at most DESCENT_SLACK * max(1, |L_t(y_k)|)
EQ7_TOL = 1e-10         # |x_{k+1} - x_k + a grad L_t(y_k)|_inf
CONS_GAP_TOL = 1e-12    # cons_dist - beta^t ||y_k||
# the config `neardgd check` loads without --config: near-dgd-t:2 on a small instance
DEFAULT_CONFIG = "problem.n = 4\nproblem.p = 2\nproblem.I = 2\nmethod.t = 2\nrun.budget = 200\n"


def _fd_verdict(problem, rng, points, tol, pairs):
    """(ok, detail) of the worst relative error over the (analytic,
    finite-difference) pairs that pairs(x) gives at each of points draws
    of x from [-1, 1]^(n x p); pairs may draw from rng after x."""
    worst = 0.0
    for _ in range(points):
        x = rng.uniform(-1.0, 1.0, size=(problem.n, problem.p))
        for analytic, fd in pairs(x):
            rel = float(np.abs(analytic - fd).max()) / max(1.0, float(np.abs(fd).max()))
            worst = max(worst, rel)
    return worst <= tol, "max rel err %.3g" % worst


def check_objective_gradients(problem, rng):
    return _fd_verdict(problem, rng, GRAD_FD_POINTS, GRAD_FD_TOL, lambda x: [
        (problem.stacked_grad(x), finite_difference_grad(problem.stacked_value, x, FD_STEP))])


def check_hessian_vector(problem, rng):
    def pairs(x):
        v = rng.normal(size=x.shape)
        fd = (problem.stacked_grad(x + FD_STEP * v)
              - problem.stacked_grad(x - FD_STEP * v)) / (2 * FD_STEP)
        return [(problem.node_hessian_diags(x) * v, fd)]
    return _fd_verdict(problem, rng, HESS_FD_POINTS, HESS_FD_TOL, pairs)


def check_lyapunov_gradient(problem, cm, alpha, rng):
    return _fd_verdict(problem, rng, LYAP_FD_POINTS, LYAP_FD_TOL, lambda y: [
        (lyapunov_grad(y, problem, cm, t, alpha),
         finite_difference_grad(lambda v: lyapunov_value(v, problem, cm, t, alpha), y, FD_STEP))
        for t in (1, 2)])


def check_consensus_properties(cm, rng):
    """Nonexpansive, contracting by beta^t, composing, mean-keeping, equal to
    t successive products, and, for every t >= 2, the dense Z^t that runs use
    (cm.dense_twin()'s) equal to the two eigenbasis products (V diag(lam^t)) (V' y)."""
    v, twin = cm.eigenvectors, cm.dense_twin()
    problems = []
    for _ in range(5):
        y = rng.normal(size=(cm.n, 3))
        for t in (2, 5, 20):
            two_products = (v * cm.powers(t)) @ (v.T @ y)
            if np.abs(apply_consensus(twin, t, y) - two_products).max() > CONSENSUS_TOL:
                problems.append("two-product form")
        z1 = apply_consensus(cm, 1, y)
        if np.linalg.norm(z1) > np.linalg.norm(y) + CONSENSUS_TOL:
            problems.append("expansive")
        m = average_project(y)
        z3 = apply_consensus(cm, 3, y)
        if np.linalg.norm(z3 - m) > cm.beta**3 * np.linalg.norm(y - m) + CONSENSUS_TOL:
            problems.append("contraction bound")
        if np.abs(apply_consensus(cm, 2, apply_consensus(cm, 1, y)) - z3).max() > CONSENSUS_TOL:
            problems.append("composition")
        if np.abs(average_project(z3) - m).max() > MEAN_TOL:
            problems.append("mean preservation")
        z7 = y
        for _ in range(7):
            z7 = cm.W @ z7
        if np.abs(apply_consensus(cm, 7, y) - z7).max() > CONSENSUS_TOL:
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


def certificate_verdicts(result: RunResult, method: MethodSpec):
    """(name, ok, detail) of the three run certificates of a finished run of
    method. ok is None for a certificate the method does not evaluate, and
    for all three when no iteration ran. A diverged run, of any method, has
    one failing verdict in their place, carrying the divergence note."""
    trace = result.trace
    if result.diverged:
        return [("certificates", False, "run diverged: %s" % trace.divergence_note)]
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
