import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from neardgd import diagnostics, optimizer
from neardgd.consensus import ConsensusMatrix, apply_consensus, build_consensus_matrix
from neardgd.diagnostics import (CommCounter, CostModel, RunTrace, TraceRecord,
                                 _coordinate_blocks,
                                 consensus_distance, consensus_distance_bound,
                                 cumulative_cost, descent_residual,
                                 lyapunov_grad,
                                 lyapunov_grad_at, lyapunov_hessian,
                                 lyapunov_value, lyapunov_value_at,
                                 neardgd_map_jacobian_eigenvalues,
                                 optimality_gap_bound, rho_constant,
                                 saddle_classification)
from neardgd.graph import Graph, build_erdos_renyi, build_ring, build_star
from neardgd.linalg import sym_eigen
from neardgd.objective import (QuadraticProblem, finite_difference_grad,
                               sample_quadratic_problem, sample_quartic_problem)
from neardgd.optimizer import MethodSpec, run
from reference_steps import near_dgd_step


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


@pytest.mark.parametrize("fn", [lyapunov_value, lyapunov_grad])
def test_lyapunov_rejects_a_nan_step(fn):
    prob, cm = two_node_instance()
    with pytest.raises(ValueError, match="^alpha must be positive and finite$"):
        fn(np.zeros((2, 1)), prob, cm, 1, math.nan)


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


@pytest.mark.parametrize("n", [4, 12])
def test_rho_constant_of_a_sequence_equals_its_scalar_calls_bitwise(n):
    # a vectorised power of the whole (len(ts), n) stack differs from the
    # scalar call in the last bit at t = 2 on the 4-node ring
    cm = build_consensus_matrix(build_ring(n))
    ts = [1, 2, 2, 3, 7, 40, 2**70]
    rhos = rho_constant(cm, ts, 0.1, 5.0)
    assert rhos.shape == (len(ts),)
    assert rhos.tolist() == [rho_constant(cm, t, 0.1, 5.0) for t in ts]


def test_rho_constant_pins_the_top_power_at_any_t():
    # eigh leaves the top eigenvalue of this ring an ulp above 1; raised to
    # t unpinned, the top term (1 - aL) lam^2t overflowed to -inf for aL > 1
    cm = build_consensus_matrix(build_ring(30))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho = rho_constant(cm, 2**70, 1.5, 1.0)
        rhos = rho_constant(cm, [1, 2**40, 2**70], 1.5, 1.0)
    assert math.isfinite(rho) and rho >= 0.0
    assert np.isfinite(rhos).all() and (rhos >= 0.0).all() and rhos[-1] == rho


def spectrum_rho(cm, t, alpha, lipschitz):
    """rho by its definition: the minimum over the whole pinned spectrum,
    each lam^t formed as cm.powers(t) forms it."""
    lam_t = cm.powers(t)
    return (lam_t * (1.0 + (1.0 - alpha * lipschitz) * lam_t)).min() / (2.0 * alpha)


RHO_GRAPHS = {"ring": build_ring, "star": build_star,
              "erdos-renyi": lambda n: build_erdos_renyi(n, 0.3, seed=n)}


@pytest.mark.parametrize("kind, n", [(kind, n) for kind in sorted(RHO_GRAPHS)
                                     for n in (2, 4, 12, 30, 100)
                                     if (kind, n) != ("ring", 2)])  # a ring needs 3 nodes
def test_rho_constant_equals_the_minimum_over_the_spectrum_bitwise(kind, n):
    # the closed form reads lambda_min^t and the pinned top power alone; in
    # floating point too, no inner eigenvalue gives a smaller term
    ts = [1, 2, 3, 7, 40, 300, 2**40, 2**70]
    for rule in ("metropolis", "maxdegree"):
        cm = build_consensus_matrix(RHO_GRAPHS[kind](n), rule)
        for lipschitz in (1.0, 5.0):
            for alpha_l in (0.01, 0.5, 1.0, 1.5, 1.999):
                alpha = alpha_l / lipschitz
                expected = [spectrum_rho(cm, t, alpha, lipschitz) for t in ts]
                assert [rho_constant(cm, t, alpha, lipschitz) for t in ts] == expected, \
                    (rule, lipschitz, alpha_l)
                assert rho_constant(cm, ts, alpha, lipschitz).tolist() == expected, \
                    (rule, lipschitz, alpha_l)


def test_descent_residual_examples():
    prob, cm = two_node_instance()
    _, y1 = near_dgd_step(Y2, prob, cm, 1, 0.1)
    assert descent_residual(Y2, y1, prob, cm, 1, 0.1, 1.0) <= 0.0
    assert descent_residual(Y2, Y2, prob, cm, 1, 0.1, 1.0) == pytest.approx(0.0)


def test_consensus_distance_hand_examples():
    prob, cm = two_node_instance()
    assert consensus_distance(np.tile([1.0, 2.0], (4, 1))) == 0.0
    x = cm.W @ Y2
    assert consensus_distance(x) == pytest.approx(0.2, abs=1e-14)
    assert np.linalg.norm(x - x.mean(axis=0)) == pytest.approx(0.2 * math.sqrt(2), abs=1e-14)
    bound = consensus_distance_bound(cm.beta, 1, float(np.linalg.norm(Y2)))
    assert bound == pytest.approx(0.2 * math.sqrt(2), abs=1e-14)
    assert np.linalg.norm(x - x.mean(axis=0)) <= bound + 1e-14
    x2 = cm.W @ x
    assert np.linalg.norm(x2 - x2.mean(axis=0)) == pytest.approx(0.04 * math.sqrt(2), abs=1e-14)
    assert consensus_distance_bound(cm.beta, 2, math.sqrt(2)) == pytest.approx(
        0.04 * math.sqrt(2), abs=1e-14)


@pytest.mark.parametrize("n, p", [(12, 4), (5, 1), (7, 9)])
def test_consensus_distance_takes_the_averages_bitwise(n, p):
    # the averages a caller passes give the bits of the averages formed
    # here, and both the bits of numpy.linalg.norm's per-node distances
    rng = np.random.default_rng(n * p)
    stack = rng.uniform(-3, 3, size=(6, n, p))
    for x in (stack[0], stack, stack.reshape(2, 3, n, p)):
        mean = x.mean(axis=-2)
        want = np.linalg.norm(x - x.mean(axis=-2, keepdims=True), axis=-1).max(axis=-1)
        for got in (consensus_distance(x, mean), consensus_distance(x)):
            assert np.asarray(got).tobytes() == want.tobytes()
    assert isinstance(consensus_distance(stack[0], stack[0].mean(axis=0)), float)


@pytest.mark.parametrize("n, p", [(12, 4), (5, 1), (100, 4)])
def test_consensus_distance_keeps_the_bits_of_its_formula_on_special_values(n, p):
    # the same-shape subtract and the unwrapped reductions give the bits of
    # the broadcast formula: NaNs of both signs, infinities, signed zeros,
    # subnormals and squares that overflow included, on stacks below and
    # above the sizes that linalg.sum_last reduces in one call
    rng = np.random.default_rng(n + p)
    stack = rng.standard_normal((9, n, p)) * np.exp(rng.uniform(-360, 360, (9, n, p)))
    special = rng.uniform(size=stack.shape) < 0.03
    stack[special] = rng.choice([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324],
                                size=int(special.sum()))
    with np.errstate(invalid="ignore", over="ignore"):
        mean = stack.mean(axis=-2)
        want = np.linalg.norm(stack - mean[..., None, :], axis=-1).max(axis=-1)
        assert consensus_distance(stack, mean).tobytes() == want.tobytes()
        for x, m, w in zip(stack, mean, want):
            assert np.float64(consensus_distance(x, m)).tobytes() == w.tobytes()


def test_optimality_gap_bound_examples():
    assert optimality_gap_bound(0.5349, 5, 4, 3.5, 10.0) == pytest.approx(
        0.5349**5 * 2 * 35, rel=1e-12)
    # spec-sheet figure is the same quantity to two decimals
    assert optimality_gap_bound(0.5349, 5, 4, 3.5, 10.0) == pytest.approx(3.09, abs=0.03)
    assert optimality_gap_bound(0.9, 5000, 4, 3.5, 10.0) == pytest.approx(0.0, abs=1e-12)
    assert optimality_gap_bound(0.0, 3, 4, 3.5, 10.0) == 0.0


# ---------------------------------------------------------------------------
# Saddle classification

def test_saddle_classification_at_lifted_saddle(monkeypatch):
    prob, cm = paper_instance()
    rep = saddle_classification(np.zeros((12, 4)), prob, cm, 1, 0.1)
    assert rep.label == "strict-saddle"
    assert rep.lambda_min_s < 0
    assert rep.max_abs_dg_eigenvalue > 1.0
    assert rep.unstable_count >= 1
    # a dead band wider than |s_min| leaves the sign undecided
    monkeypatch.setattr(diagnostics, "DEAD_BAND", 2 * abs(rep.lambda_min_s))
    rep = saddle_classification(np.zeros((12, 4)), prob, cm, 1, 0.1)
    assert rep.label == "indefinite-tolerance" and rep.unstable_count == 0


@pytest.mark.parametrize("t", [2, 10, 20])
def test_saddle_classification_min_at_converged_run(t):
    # the Hessian's smallest eigenvalue shrinks like lambda_min^t and falls
    # inside DEAD_BAND by t = 10; S's stays near 0.55
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-t", t=t), alpha=0.1, budget=3000)
    rep = saddle_classification(res.final_y, prob, cm, t, 0.1)
    assert rep.label == "min"
    assert rep.max_abs_dg_eigenvalue <= 1.0 + 1e-8
    assert rep.unstable_count == 0


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


def dense_spectra(y, prob, cm, t, alpha):
    """Lyapunov-Hessian and Dg spectra from the np x np Kronecker operators."""
    n, p = y.shape
    eye = np.eye(n * p)
    lam, v = np.linalg.eigh(cm.W)
    zt = np.kron(np.linalg.matrix_power(cm.W, t), np.eye(p))
    zh = np.kron((v * lam ** (t / 2.0)) @ v.T, np.eye(p))
    hf = np.diag(prob.node_hessian_diags(apply_consensus(cm, t, y)).reshape(-1))
    hess = zt @ hf @ zt + zt @ (eye - zt) / alpha
    dg = zh @ (eye - alpha * hf) @ zh
    return (np.linalg.eigvalsh(0.5 * (hess + hess.T)),
            np.linalg.eigvalsh(0.5 * (dg + dg.T)))


@pytest.mark.parametrize("family", ["quartic", "quadratic"])
@pytest.mark.parametrize("n", [4, 12, 100])
def test_split_spectra_match_dense_reference(family, n):
    prob = (sample_quartic_problem(n, 4, 4, math.sqrt(n / 12), seed=0)
            if family == "quartic" else sample_quadratic_problem(n, 4, seed=0))
    cm = build_consensus_matrix(build_ring(n))
    rng = np.random.default_rng(n)
    for t in (1, 2, 3, 5, 20):
        for y in (np.zeros((n, 4)), rng.uniform(-1, 1, size=(n, 4))):
            ref_hess, ref_dg = dense_spectra(y, prob, cm, t, 0.1)
            # the Hessian in W's eigenbasis is lam^{t/2} S lam^{t/2}
            lam_half = cm.powers(t / 2.0)
            hess = np.sort(sym_eigen(_coordinate_blocks(y, prob, cm, t, 0.1)
                                     * np.outer(lam_half, lam_half)).eigenvalues, axis=None)
            dg = neardgd_map_jacobian_eigenvalues(y, prob, cm, t, 0.1)
            assert hess.shape == dg.shape == (4 * n,)
            for split, ref in ((hess, ref_hess), (dg, ref_dg)):
                assert np.all(np.abs(split - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
            assert (hess < -1e-10).sum() == (ref_hess < -1e-10).sum()
            assert (dg > 1.0 + 1e-10).sum() == (ref_dg > 1.0 + 1e-10).sum()
            if family == "quartic" and not y.any():
                rep = saddle_classification(y, prob, cm, t, 0.1)
                assert rep.unstable_count == (ref_hess < -1e-8).sum() >= 1
                assert rep.unstable_count == (ref_dg > 1.0 + 1e-8).sum()


def test_saddle_classification_beyond_the_hessian_size_guard():
    # np = 2400: only the explicit Hessian is refused
    prob = sample_quartic_problem(600, 4, 4, math.sqrt(600 / 12), seed=0)
    cm = build_consensus_matrix(build_ring(600))
    y = np.zeros((600, 4))
    rep = saddle_classification(y, prob, cm, 5, 0.1)
    assert rep.label == "strict-saddle"
    assert rep.unstable_count >= 1
    with pytest.raises(ValueError, match="refusing to materialize"):
        lyapunov_hessian(y, prob, cm, 5, 0.1)


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
    # the gradient applies Z^t to a whole stack in one call, one product per
    # iterate
    grads = np.array([prob.stacked_grad(zb) for zb in zy])
    stacked = lyapunov_grad_at(y, zy, grads, cm, 5, 0.1)
    for b in range(5):
        np.testing.assert_array_equal(stacked[b],
                                      lyapunov_grad_at(y[b], zy[b], grads[b], cm, 5, 0.1))
    # formed in place, with the bits of the formula as written
    written = apply_consensus(cm, 5, (y - zy) / 0.1 + grads)
    assert stacked.tobytes() == written.tobytes()


# ---------------------------------------------------------------------------
# Cost model and traces

def test_cost_examples():
    counter = CommCounter(consensus_rounds=500, gradient_evals=100)
    assert cumulative_cost(counter, CostModel(1.0, 1.0)) == 600.0
    assert cumulative_cost(counter, CostModel(0.01, 1.0)) == pytest.approx(105.0)
    assert cumulative_cost(CommCounter(), CostModel(1.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        CostModel(-1.0, 1.0)


@pytest.mark.parametrize("name", ["c_c", "c_g"])
def test_cost_model_is_frozen_and_replace_runs_its_checks(name):
    # an assignment after construction would skip the checks: 10**400 or "x"
    # ended in run() outside a ValueError, -1.0 and nan ran silently
    model = CostModel(2, 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(model, name, 1.0)
    assert (model.c_c, model.c_g) == (2.0, 3.0)
    for bad, says in ((10**400, "float range"), ("x", "float range"),
                      (-1.0, "nonnegative"), (math.nan, "nonnegative")):
        with pytest.raises(ValueError, match=says):
            dataclasses.replace(model, **{name: bad})
    replaced = dataclasses.replace(model, **{name: 5})
    assert type(getattr(replaced, name)) is float and getattr(replaced, name) == 5.0


def test_cost_past_the_float_range_reads_inf():
    # the suite turns a RuntimeWarning into an error: the overflow is quiet
    model = CostModel(1e308, 1e308)
    costs = cumulative_cost(CommCounter(np.array([0, 2]), np.array([0, 1])), model)
    np.testing.assert_array_equal(costs, [0.0, math.inf])
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-t", t=2), alpha=0.1, budget=20, cost_model=model)
    np.testing.assert_array_equal(res.trace.column("cost"), [math.inf] * 21)


def extend_rows(trace, rows):
    """Append TraceRecords to trace as one block of columns."""
    trace.extend([rec.k for rec in rows], [rec.t_k for rec in rows],
                 [rec.comms for rec in rows], [rec.grads for rec in rows],
                 np.array([rec[4:] for rec in rows], dtype=float))


def make_trace(f_errs, costs):
    trace = RunTrace(method="m", seed=0)
    extend_rows(trace, [TraceRecord(k, 1, k, k, fe, 0.0, 0.0, 0.0, 0.0, 0.0, c)
                        for k, (fe, c) in enumerate(zip(f_errs, costs))])
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


# ---------------------------------------------------------------------------
# The columnar trace against a row-built reference

def reference_csv(method, seed, rows, extra_key_columns, header=True):
    """The CSV as a list of TraceRecords prints, one row and field at a time."""
    head = (["method", "seed"] if extra_key_columns else []) + list(TraceRecord._fields)
    lines = [",".join(head)] if header else []
    for rec in rows:
        fields = (["%s" % method, "%d" % seed] if extra_key_columns else [])
        fields += ["%d" % v for v in rec[:4]] + ["%.17g" % v for v in rec[4:]]
        lines.append(",".join(fields))
    return "".join(line + "\n" for line in lines)


def reference_cost_to_reach(rows, target):
    reached = None
    for rec in rows:
        if rec.f_err <= target:
            if reached is None:
                reached = rec.cost
        else:
            reached = None
    return math.inf if reached is None else reached


def assert_trace_matches_rows(trace, rows):
    """records, final, cost_to_reach and write_csv_to agree with rows;
    repr tells NaN, -0.0 and an int from a float apart."""
    assert repr(list(trace.records)) == repr(rows)
    assert len(trace.records) == len(rows)
    for i in (0, len(rows) // 2, -2, -1):
        assert repr(trace.records[i]) == repr(rows[i])
    assert repr(trace.records[1:-1]) == repr(rows[1:-1])
    with pytest.raises(IndexError):
        trace.records[len(rows)]
    assert repr(trace.final) == repr(rows[-1])
    targets = {rec.f_err for rec in rows} | {-math.inf, 0.0, 1e-3, math.inf, math.nan}
    for target in targets:
        assert (repr(trace.cost_to_reach(target))
                == repr(reference_cost_to_reach(rows, target))), target
    for extra in (False, True):
        buf = io.StringIO()
        trace.write_csv_to(buf, extra_key_columns=extra)
        assert buf.getvalue() == reference_csv(trace.method, trace.seed, rows, extra)


APPENDED = [
    # costs above 2^53 and counts past int64
    TraceRecord(99, 1, 2**53, 1, math.nan, math.inf, -math.inf, -0.0, 0.1, 1e-300,
                2.0**53 + 2),
    TraceRecord(100, 2**70, 2**80, 2, 1e-9, 0.0, 0.0, 1.0, -1e-17, 2.5, 2.0**80),
    # the f_err that settles cost_to_reach
    TraceRecord(101, 3, 7, 3, -math.inf, math.nan, 1.0, math.nan, math.nan, 0.0, 1e300),
    TraceRecord(102, 3, 8, 4, 1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 1e-12, 12.5),
]


@pytest.mark.parametrize("costs", [
    (1, 1), (0.01, 1.0),
    # integer coefficients whose products with the counts pass int64
    (10**18, 1), (3, 2**62), (2**63, 1)],
    ids=["int-coefficients", "float-coefficients", "int-products-past-int64",
         "int-coefficient-2^62", "int-coefficient-2^63"])
def test_columnar_trace_matches_a_row_built_reference(costs):
    prob, cm = paper_instance()
    c_c, c_g = map(float, costs)
    res = run(prob, cm, MethodSpec("near-dgd-plus-doubling", period=3), alpha=0.1,
              budget=60, cost_model=CostModel(*costs))
    rows = list(res.trace.records)
    for rec in rows:  # the counts are exact ints, the cost the float c_c comms + c_g grads
        assert all(type(v) is int for v in rec[:4])
        assert type(rec.cost) is float
        assert rec.cost == c_c * rec.comms + c_g * rec.grads
    assert_trace_matches_rows(res.trace, rows)
    # a trace built a row at a time from the same records
    rebuilt = RunTrace(method=res.trace.method, seed=res.trace.seed)
    for rec in rows:
        extend_rows(rebuilt, [rec])
    assert_trace_matches_rows(rebuilt, rows)
    # records appended after a run, with NaN, +-inf, -0.0 and big ints
    for rec in APPENDED:
        extend_rows(res.trace, [rec])
    assert_trace_matches_rows(res.trace, rows + APPENDED)
    # f_err = 1e-9 does not reach 1e-11; -inf and 1e-12 after it do
    assert res.trace.cost_to_reach(1e-11) == 1e300


def test_csv_formats_each_block_as_the_per_row_reference_does():
    # blocks of several rows, each written in one piece, whose costs are
    # given as ints, NumPy ints and floats; the label's % must not reach
    # the format
    big = 2**63 + 5  # past int64, so the count columns are object arrays
    blocks = [
        [TraceRecord(k, 1, k, k, 1.0 / (k + 3), -0.0, 0.0, k * 0.1, math.nan, 2.0**-1074,
                     2 * k) for k in range(5)],
        [TraceRecord(5, 2**70, big, big + 1, math.nan, math.inf, -math.inf, -0.0, 1e-300,
                     1e300, 0.25),
         TraceRecord(6, 2**70, big + 2**70, big + 2, -math.inf, math.nan, 1e308, 5e-324,
                     -1.5, 0.1, math.inf)],
        [TraceRecord(7, 3, 9, 9, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, big),
         TraceRecord(8, 3, 12, 10, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, np.int64(26))],
        [TraceRecord(9, 3, 15, 11, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 22.0),
         TraceRecord(10, 3, 18, 12, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, math.nan)],
        [TraceRecord(11, 4, 22, 13, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0, big + 35)],
    ]
    trace = RunTrace(method="near-dgd-t:5 %d", seed=-3)
    empty = RunTrace(method="m", seed=0)
    for block in blocks:
        extend_rows(trace, block)
    rows = [rec for block in blocks for rec in block]
    for tr, recs in ((trace, rows), (empty, [])):
        for header in (True, False):
            for extra in (False, True):
                buf = io.StringIO()
                tr.write_csv_to(buf, header=header, extra_key_columns=extra)
                assert buf.getvalue() == reference_csv(tr.method, tr.seed, recs, extra,
                                                       header), (header, extra)
    assert reference_csv("m", 0, [], False, header=False) == ""


def test_final_reads_the_last_row_from_the_last_block(monkeypatch):
    # a run of 8 blocks of 4 rows and a terminal row, and then rows with
    # NaN, +-inf and -0.0 appended as blocks, the last of them empty: final
    # is records[-1] without joining the blocks
    prob, cm = paper_instance()
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", 4 * 12 * 4)
    trace = run(prob, cm, MethodSpec("near-dgd-t", t=5), alpha=0.1, budget=30).trace
    assert len(trace._floats) == 1 + 8 + 1  # the initial empty block, 8 blocks, the terminal row
    finals = [trace.final]
    for rec in APPENDED:
        extend_rows(trace, [rec])
        finals.append(trace.final)
    trace.extend([], [], [], [], np.empty((0, len(diagnostics.FLOAT_COLUMNS))))
    records = trace.records
    with monkeypatch.context() as m:
        m.setattr(np, "concatenate", None)
        assert repr(trace.final) == repr(records[-1]) == repr(APPENDED[-1])
    assert repr(finals) == repr(records[-1 - len(APPENDED):])
    assert all(type(v) is int for v in trace.final[:4])
    assert all(type(v) is float for v in trace.final[4:])
    # an empty trace raises IndexError, with an empty block appended too
    empty = RunTrace(method="m", seed=0)
    for _ in range(2):
        with pytest.raises(IndexError):
            empty.final
        empty.extend([], [], [], [], np.empty((0, len(diagnostics.FLOAT_COLUMNS))))


def test_empty_trace():
    trace = RunTrace(method="m", seed=0)
    assert len(trace.records) == 0 and list(trace.records) == []
    assert trace.cost_to_reach(1.0) == math.inf
    buf = io.StringIO()
    trace.write_csv_to(buf)
    assert buf.getvalue() == reference_csv("m", 0, [], False)
    with pytest.raises(IndexError):
        trace.final
