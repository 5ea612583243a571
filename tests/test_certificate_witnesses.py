"""Witnesses for the run certificates, each recomputed from first principles.

For a grid of NEAR-DGD runs the test rebuilds the trajectory itself, with
Z^t as W multiplied t times (no eigenbasis), the descent constant rho from
np.linalg.eigvalsh(W) and the formula of the paper's descent lemma,

    rho(t) = (2 alpha)^-1 min_i lam_i^t (1 + (1 - alpha L) lam_i^t),

and L_t from its definition, L_t(y) = f(Z^t y) + (2 alpha)^-1 y'(Z^t - Z^2t) y,
with f the quartic family's sum of f_i(x) = x'Q^i x / 2 + (c^2 / 4n) x_I^4
written out here. It then compares every row's Lyapunov value and descent
residual, and the run's max_cons_gap and max_eq7_inf, with the run's own,
each within TOL of the size of the terms it combines. A change that weakens
a certificate (rho dropped, or halved) fails here, whatever the golden
digest says. Blocks of five rows make each run cross several block passes,
so that what a run forms once and keeps (rho and beta^t per t) is held to
the same witnesses as what each pass forms. The cells of run_batch are held
to the same witnesses as lone runs.
"""

import numpy as np
import pytest

from neardgd import (MethodSpec, build_consensus_matrix, build_erdos_renyi, build_ring,
                     build_star, run, run_batch)
from neardgd import optimizer
from neardgd.objective import sample_quartic_problem

TOL = 1e-10
BUDGET = 24
ROWS = 5  # rows per block pass


def t_k(token, k):
    """The consensus rounds of iteration k, from the methods' definitions."""
    if token.startswith("near-dgd-t:"):
        return int(token.split(":")[1])
    if token == "near-dgd-plus":
        return k + 1
    return 2 ** (k // int(token.split(":")[1]))  # near-dgd-plus-doubling:period


def f_value(prob, x):
    quartic = prob.c**2 / (4 * prob.n) * x[:, prob.index - 1] ** 4
    return 0.5 * np.sum(prob.q * x * x) + np.sum(quartic)


def f_grad(prob, x):
    grad = prob.q * x
    grad[:, prob.index - 1] += prob.c**2 / prob.n * x[:, prob.index - 1] ** 3
    return grad


class Powers:
    """Z^t = W W ... W (t factors), each t formed once."""

    def __init__(self, w):
        self.w, self.memo = w, {}

    def __call__(self, t):
        if t not in self.memo:
            z = np.eye(len(self.w))
            for _ in range(t):
                z = z @ self.w
            self.memo[t] = z
        return self.memo[t]


def lyapunov(prob, z, y, alpha):
    """(L_t(y), the sum of its terms' sizes) with z = Z^t."""
    zy, z2y = z @ y, z @ (z @ y)
    terms = (f_value(prob, zy), np.vdot(y, zy) / (2 * alpha), np.vdot(y, z2y) / (2 * alpha))
    return terms[0] + terms[1] - terms[2], sum(map(abs, terms))


def rho(lam, t, alpha, lipschitz):
    """rho(t) from the eigenvalues lam of W."""
    lam_t = lam**t
    return np.min(lam_t * (1 + (1 - alpha * lipschitz) * lam_t)) / (2 * alpha)


def close(got, want, scale):
    return abs(got - want) <= TOL * scale


def witness(prob, w, token, alpha, lipschitz, y0):
    """The rows' (t_k, L_{t_k}(y_k) and its scale, the descent residual and
    its scale), max_cons_gap and its scale, max_eq7_inf and its scale, and
    y_K, from the trajectory rebuilt with Powers."""
    powers, lam = Powers(w), np.linalg.eigvalsh(w)
    beta = lam[-2]
    rows, gaps, eq7 = [], [], []
    y, size = y0, 0.0
    for k in range(BUDGET):
        t = t_k(token, k)
        z = powers(t)
        x = z @ y
        y_next = x - alpha * f_grad(prob, x)
        lyap, lyap_scale = lyapunov(prob, z, y, alpha)
        lyap_next, next_scale = lyapunov(prob, z, y_next, alpha)  # L_{t_k}(y_{k+1})
        descent = rho(lam, t, alpha, lipschitz) * np.vdot(y_next - y, y_next - y)
        rows.append((t, lyap, lyap_scale, lyap_next - lyap + descent,
                     lyap_scale + next_scale + descent))
        # cons_dist is a norm of x_i - xbar, whose terms have the size of x
        cons = np.max(np.linalg.norm(x - x.mean(axis=0), axis=1))
        bound = beta**t * np.linalg.norm(y)
        gaps.append((cons - bound, np.max(np.abs(x)) + bound))
        if token.startswith("near-dgd-t:"):
            # x_{k+1} - x_k + alpha grad L_t(y_k), with
            # grad L_t(y) = Z^t grad f(Z^t y) + (Z^t - Z^2t) y / alpha
            grad_l = z @ f_grad(prob, x) + (x - z @ x) / alpha
            eq7.append(np.max(np.abs(z @ y_next - x + alpha * grad_l)))
        size = max(size, np.max(np.abs(x)), np.max(np.abs(y_next)))
        y = y_next
    gap = max(gaps)
    return rows, gap, max(eq7, default=0.0), size, y


TOKENS = ("near-dgd-t:1", "near-dgd-t:5", "near-dgd-plus", "near-dgd-plus-doubling:4")
GRAPHS = {"ring": build_ring, "star": build_star,
          "er": lambda n: build_erdos_renyi(n, 0.5, seed=n)}
SHAPES = [(graph, n, p, frac) for graph in GRAPHS for n in (4, 12, 30) for p in (1, 3)
          for frac in (0.5, 1.5)]  # alpha = frac / L, both below 2 / L


def instance(graph, n, p, frac):
    """(problem, consensus matrix, alpha, L) of one grid shape."""
    # c^2 / n = 1/4 on every n keeps the minimisers of f well inside the box
    prob = sample_quartic_problem(n, p, p, np.sqrt(n) / 2, seed=n + p)
    cm = build_consensus_matrix(GRAPHS[graph](n))
    # the Lipschitz estimate on the default box |y|_inf <= 4, from its definition
    lipschitz = np.max(np.abs(prob.q)) + 3 * prob.c**2 / n * 4.0**2
    return prob, cm, frac / lipschitz, lipschitz


def assert_witnessed(res, prob, cm, token, alpha, lipschitz, y0):
    assert not res.trace.diverged and res.lipschitz == pytest.approx(lipschitz, rel=1e-15)
    rows, gap, eq7, size, y_end = witness(prob, cm.W, token, alpha, lipschitz, y0)
    records = res.trace.records
    assert len(records) == BUDGET + 1
    assert np.max(np.abs(res.final_y - y_end)) <= TOL * size
    for rec, (t, lyap, lyap_scale, residual, residual_scale) in zip(records, rows):
        assert rec.t_k == t
        assert close(rec.lyapunov, lyap, lyap_scale), (rec.k, rec.lyapunov, lyap)
        assert close(rec.descent_residual, residual, residual_scale), (
            rec.k, rec.descent_residual, residual)
    assert close(res.max_cons_gap, gap[0], gap[1]), (res.max_cons_gap, gap)
    assert close(res.max_eq7_inf, eq7, size), (res.max_eq7_inf, eq7)


@pytest.mark.parametrize("graph, n, p, frac", SHAPES)
@pytest.mark.parametrize("token", TOKENS)
def test_run_certificates_match_their_first_principles_witnesses(monkeypatch, token, graph, n,
                                                                 p, frac):
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", ROWS * n * p)
    prob, cm, alpha, lipschitz = instance(graph, n, p, frac)
    y0 = np.random.default_rng(100 * n + p).uniform(-1.0, 1.0, (n, p))
    res = run(prob, cm, MethodSpec.parse(token), alpha, BUDGET, x0=y0)
    assert_witnessed(res, prob, cm, token, alpha, lipschitz, y0)


@pytest.mark.parametrize("graph, n, p, frac", SHAPES)
def test_batch_certificates_match_their_first_principles_witnesses(monkeypatch, graph, n, p,
                                                                   frac):
    # every NEAR-DGD method, one of them on a second seed, beside a dgd cell
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", ROWS * n * p)
    prob, cm, alpha, lipschitz = instance(graph, n, p, frac)
    cells = [("dgd", 0), *((token, 0) for token in TOKENS), ("near-dgd-t:5", 1)]
    results = run_batch(prob, cm, [(MethodSpec.parse(token), seed) for token, seed in cells],
                        alpha, BUDGET)
    for (token, seed), res in zip(cells, results):
        if token != "dgd":
            assert_witnessed(res, prob, cm, token, alpha, lipschitz,
                             optimizer.initial_point(n, p, seed))
