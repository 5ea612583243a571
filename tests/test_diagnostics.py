import io
import math

import numpy as np
import pytest

from neardgd.consensus import (CommCounter, ConsensusMatrix, apply_consensus,
                               build_consensus_matrix)
from neardgd.diagnostics import (CostModel, RunTrace, TraceRecord,
                                 consensus_distance, consensus_distance_bound,
                                 cumulative_cost, descent_residual,
                                 disagreement_norm, lyapunov_grad,
                                 lyapunov_grad_at, lyapunov_hessian,
                                 lyapunov_value, lyapunov_value_at,
                                 neardgd_map_jacobian_eigenvalues,
                                 optimality_gap_bound, rho_constant,
                                 saddle_classification)
from neardgd.graph import Graph, build_ring
from neardgd.linalg import sym_eigen
from neardgd.objective import (QuadraticProblem, finite_difference_grad,
                               sample_quadratic_problem, sample_quartic_problem)
from neardgd.optimizer import MethodSpec, near_dgd_step, run


def two_node_instance():
    g = Graph(2, frozenset({(0, 1)}))
    cm = ConsensusMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), g)
    return QuadraticProblem(np.zeros((2, 1))), cm


def paper_instance():
    prob = sample_quartic_problem(12, 4, 4, 1.0, seed=0)
    cm = build_consensus_matrix(build_ring(12))
    return prob, cm


Y2 = np.array([[1.0], [-1.0]])


# ---------------------------------------------------------------------------
# Lyapunov value / gradient / Hessian

def test_lyapunov_value_hand_example():
    prob, cm = two_node_instance()
    assert lyapunov_value(Y2, prob, cm, 1, 0.1) == pytest.approx(1.64, abs=1e-12)


def test_lyapunov_value_consensual_reduces_to_objective():
    prob, cm = paper_instance()
    v = prob.minimizers()[0]
    y = np.tile(v, (12, 1))
    for t in (1, 4):
        assert lyapunov_value(y, prob, cm, t, 0.1) == pytest.approx(
            prob.stacked_value(y), abs=1e-10)


def test_lyapunov_value_large_t_limit():
    prob, cm = two_node_instance()
    # Z^t -> mean projector; quadratic terms cancel and f(My) = f(0) = 0
    assert lyapunov_value(Y2, prob, cm, 400, 0.1) == pytest.approx(0.0, abs=1e-10)


def test_lyapunov_grad_hand_example():
    prob, cm = two_node_instance()
    g = lyapunov_grad(Y2, prob, cm, 1, 0.1)
    np.testing.assert_allclose(g, [[1.64], [-1.64]], atol=1e-12)


def test_lyapunov_grad_zero_at_consensual_critical_point():
    prob, cm = two_node_instance()
    np.testing.assert_allclose(lyapunov_grad(np.zeros((2, 1)), prob, cm, 3, 0.1),
                               np.zeros((2, 1)), atol=1e-14)


@pytest.mark.parametrize("t", [1, 2, 5])
def test_lyapunov_grad_matches_finite_differences(t):
    prob, cm = paper_instance()
    rng = np.random.default_rng(17)
    for _ in range(50 // 3 + 1):
        y = rng.uniform(-1, 1, size=(12, 4))
        fd = finite_difference_grad(
            lambda v: lyapunov_value(v, prob, cm, t, 0.1), y, step=1e-5)
        g = lyapunov_grad(y, prob, cm, t, 0.1)
        assert np.abs(g - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6


def test_lyapunov_hessian_hand_example():
    prob, cm = two_node_instance()
    h = lyapunov_hessian(Y2, prob, cm, 1, 0.1)
    # Z^2 + 10 Z(I - Z) with Z = [[0.6,0.4],[0.4,0.6]]
    np.testing.assert_allclose(h, [[1.32, -0.32], [-0.32, 1.32]], atol=1e-12)
    lam = sym_eigen(h).eigenvalues
    np.testing.assert_allclose(lam, [1.0, 1.64], atol=1e-12)


def test_lyapunov_hessian_matches_gradient_differences():
    prob, cm = paper_instance()
    rng = np.random.default_rng(23)
    y = rng.uniform(-1, 1, size=(12, 4))
    h = lyapunov_hessian(y, prob, cm, 2, 0.1)
    step = 1e-5
    for _ in range(5):
        v = rng.normal(size=(12, 4))
        fd = (lyapunov_grad(y + step * v, prob, cm, 2, 0.1)
              - lyapunov_grad(y - step * v, prob, cm, 2, 0.1)) / (2 * step)
        hv = (h @ v.reshape(-1)).reshape(12, 4)
        assert np.abs(hv - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6


def test_lyapunov_hessian_pd_for_strongly_convex():
    g = Graph(2, frozenset({(0, 1)}))
    cm = ConsensusMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), g)
    prob = QuadraticProblem(np.array([[1.0], [-2.0]]))
    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.normal(size=(2, 1))
        lam = sym_eigen(lyapunov_hessian(y, prob, cm, 2, 0.1)).eigenvalues
        assert lam[0] > 0


def test_lyapunov_hessian_negative_direction_at_lifted_saddle():
    prob, cm = paper_instance()
    lam = sym_eigen(lyapunov_hessian(np.zeros((12, 4)), prob, cm, 1, 0.1)).eigenvalues
    assert lam[0] < 0


def test_lyapunov_hessian_size_guard():
    prob, cm = paper_instance()
    with pytest.raises(ValueError):
        lyapunov_hessian(np.zeros((1000, 3)), prob, cm, 1, 0.1)


# ---------------------------------------------------------------------------
# Descent constants and bounds

def test_rho_constant_hand_examples():
    prob, cm = two_node_instance()
    np.testing.assert_allclose(cm.eigenvalues, [0.2, 1.0], atol=1e-14)
    assert rho_constant(cm, 1, 0.1, 1.0) == pytest.approx(1.18, abs=1e-12)
    assert rho_constant(cm, 2, 0.1, 1.0) == pytest.approx(0.2072, abs=1e-12)
    # near the steplength boundary the formula stays positive
    assert rho_constant(cm, 1, 1.999, 1.0) > 0
    with pytest.raises(ValueError):
        rho_constant(cm, 1, 2.0, 1.0)
    with pytest.raises(ValueError):
        rho_constant(cm, 1, -0.1, 1.0)


def test_descent_residual_examples():
    prob, cm = two_node_instance()
    _, y1 = near_dgd_step(Y2, prob, cm, 1, 0.1, CommCounter())
    assert descent_residual(Y2, y1, prob, cm, 1, 0.1, 1.0) <= 0.0
    assert descent_residual(Y2, Y2, prob, cm, 1, 0.1, 1.0) == pytest.approx(0.0)


def test_consensus_distance_hand_examples():
    prob, cm = two_node_instance()
    assert consensus_distance(np.tile([1.0, 2.0], (4, 1))) == 0.0
    x = cm.W @ Y2
    assert consensus_distance(x) == pytest.approx(0.2, abs=1e-14)
    assert disagreement_norm(x) == pytest.approx(0.2 * math.sqrt(2), abs=1e-14)
    bound = consensus_distance_bound(cm.beta, 1, float(np.linalg.norm(Y2)))
    assert bound == pytest.approx(0.2 * math.sqrt(2), abs=1e-14)
    assert disagreement_norm(x) <= bound + 1e-14
    x2 = cm.W @ x
    assert disagreement_norm(x2) == pytest.approx(0.04 * math.sqrt(2), abs=1e-14)
    assert consensus_distance_bound(cm.beta, 2, math.sqrt(2)) == pytest.approx(
        0.04 * math.sqrt(2), abs=1e-14)


def test_optimality_gap_bound_examples():
    assert optimality_gap_bound(0.5349, 5, 4, 3.5, 10.0) == pytest.approx(
        0.5349**5 * 2 * 35, rel=1e-12)
    # spec-sheet figure is the same quantity to two decimals
    assert optimality_gap_bound(0.5349, 5, 4, 3.5, 10.0) == pytest.approx(3.09, abs=0.03)
    assert optimality_gap_bound(0.9, 5000, 4, 3.5, 10.0) == pytest.approx(0.0, abs=1e-12)
    assert optimality_gap_bound(0.0, 3, 4, 3.5, 10.0) == 0.0


# ---------------------------------------------------------------------------
# Saddle classification

def test_saddle_classification_at_lifted_saddle():
    prob, cm = paper_instance()
    rep = saddle_classification(np.zeros((12, 4)), prob, cm, 1, 0.1)
    assert rep.label == "strict-saddle"
    assert rep.lambda_min_hessian < 0
    assert rep.max_abs_dg_eigenvalue > 1.0
    assert rep.expanding_dg_count >= 1


def test_saddle_classification_min_at_converged_run():
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-t", t=2), alpha=0.1, budget=3000)
    rep = saddle_classification(res.final_y, prob, cm, 2, 0.1)
    assert rep.label == "min"
    assert rep.max_abs_dg_eigenvalue <= 1.0 + 1e-8
    assert rep.negative_hessian_count == 0


def test_saddle_classification_strongly_convex_always_min():
    g = Graph(2, frozenset({(0, 1)}))
    cm = ConsensusMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), g)
    prob = QuadraticProblem(np.zeros((2, 1)))
    rep = saddle_classification(np.zeros((2, 1)), prob, cm, 2, 0.1)
    assert rep.label == "min"


def test_saddle_classification_rejects_non_critical():
    prob, cm = paper_instance()
    with pytest.raises(ValueError):
        saddle_classification(np.ones((12, 4)), prob, cm, 1, 0.1)


def test_inertia_correspondence_hessian_vs_map():
    # count of negative Hessian eigenvalues == count of map eigenvalues > 1
    prob, cm = paper_instance()
    for t in (1, 2, 3):
        for y in (np.zeros((12, 4)),
                  np.random.default_rng(t).uniform(-0.2, 0.2, size=(12, 4))):
            hess = sym_eigen(lyapunov_hessian(y, prob, cm, t, 0.1)).eigenvalues
            dg = neardgd_map_jacobian_eigenvalues(y, prob, cm, t, 0.1)
            assert (hess < -1e-10).sum() == (dg > 1.0 + 1e-10).sum()


@pytest.mark.parametrize("family", ["quartic", "quadratic"])
@pytest.mark.parametrize("n", [12, 100])
def test_batched_formulas_match_single_iterate_calls(family, n):
    # row b of a (B, n, p) stack gives the (n, p) call's float bit for bit
    prob = (sample_quartic_problem(n, 4, 4, math.sqrt(n / 12), seed=0)
            if family == "quartic" else sample_quadratic_problem(n, 4, seed=0))
    cm = build_consensus_matrix(build_ring(n))
    rng = np.random.default_rng(n)
    y = rng.uniform(-1, 1, size=(5, n, 4))
    zy = np.array([apply_consensus(cm, 5, yb) for yb in y])
    values = prob.stacked_value(zy)
    lyaps = lyapunov_value_at(y, zy, prob, 0.1)
    dists = consensus_distance(zy)
    assert values.shape == lyaps.shape == dists.shape == (5,)
    for b in range(5):
        assert type(prob.stacked_value(zy[b])) is float
        assert values[b] == prob.stacked_value(zy[b])
        assert lyaps[b] == lyapunov_value_at(y[b], zy[b], prob, 0.1)
        assert dists[b] == consensus_distance(zy[b])
    # the gradient applies Z^t to a whole stack at once: equal to rounding
    grads = np.array([prob.stacked_grad(zb) for zb in zy])
    stacked = lyapunov_grad_at(zy, grads, cm, 5, 0.1)
    for b in range(5):
        np.testing.assert_allclose(stacked[b], lyapunov_grad_at(zy[b], grads[b], cm, 5, 0.1),
                                   rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# Cost model and traces

def test_cost_examples():
    counter = CommCounter(consensus_rounds=500, gradient_evals=100)
    assert cumulative_cost(counter, CostModel(1.0, 1.0)) == 600.0
    assert cumulative_cost(counter, CostModel(0.01, 1.0)) == pytest.approx(105.0)
    assert cumulative_cost(CommCounter(), CostModel(1.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        CostModel(-1.0, 1.0)


def make_trace(f_errs, costs):
    trace = RunTrace(method="m", seed=0)
    for k, (fe, c) in enumerate(zip(f_errs, costs)):
        trace.append(TraceRecord(k, 1, k, k, fe, 0.0, 0.0, 0.0, 0.0, 0.0, c))
    return trace


def test_cost_to_reach_sustained_semantics():
    trace = make_trace([1.0, 1e-5, 1.0, 1e-5, 1e-6], [1, 2, 3, 4, 5])
    # the dip at cost 2 does not count; settles from cost 4 onward
    assert trace.cost_to_reach(1e-4) == 4
    assert trace.cost_to_reach(1e-7) == math.inf
    assert make_trace([1.0, 0.5], [1, 2]).cost_to_reach(1e-4) == math.inf
    assert make_trace([1e-9], [0]).cost_to_reach(1e-4) == 0


def test_trace_csv_round_trip_precision():
    trace = make_trace([1 / 3, math.nan], [0.1, 0.2])
    buf = io.StringIO()
    trace.write_csv_to(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("k,t_k,comms,grads,f_err")
    assert float(lines[1].split(",")[4]) == 1 / 3
    assert math.isnan(float(lines[2].split(",")[4]))
    buf = io.StringIO()
    trace.write_csv_to(buf, extra_key_columns=True)
    assert buf.getvalue().splitlines()[0].startswith("method,seed,k,")


def test_cost_nondecreasing_over_run():
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-plus"), alpha=0.1, budget=40,
              cost_model=CostModel(0.01, 1.0))
    costs = [rec.cost for rec in res.trace.records]
    assert all(b >= a for a, b in zip(costs, costs[1:]))
