"""run_batch: every cell of a batch equals its own run() bit for bit."""

import math

import numpy as np
import pytest

from neardgd import optimizer
from neardgd.consensus import ConsensusMatrix, build_consensus_matrix, dense_pays
from neardgd.diagnostics import TRACE_COLUMNS
from neardgd.graph import build_ring
from neardgd.objective import Objective, sample_quadratic_problem, sample_quartic_problem
from neardgd.optimizer import MethodSpec, run, run_batch

SWEEP_METHODS = ("near-dgd-t:1", "near-dgd-t:5", "near-dgd-plus", "near-dgd-plus-doubling:100",
                 "dgd", "gradient-tracking")


def paper_instance():
    return (sample_quartic_problem(12, 4, 4, 1.0, seed=0),
            build_consensus_matrix(build_ring(12)))


def cells_of(tokens, seeds):
    return [(MethodSpec.parse(token), seed) for seed in seeds for token in tokens]


def assert_batch_equals_runs(prob, cm, cells, alpha, budget, **options):
    """Run the batch, then each cell alone, and compare every field of each
    result bitwise; returns the batch's results."""
    batch = run_batch(prob, cm, cells, alpha, budget, **options)
    assert len(batch) == len(cells)
    for (method, seed), got in zip(cells, batch):
        want = run(prob, cm, method, alpha, budget, seed=seed, **options)
        where = "%s seed %d" % (method.label(), seed)
        assert (got.trace.method, got.trace.seed) == (want.trace.method, want.trace.seed)
        for name in TRACE_COLUMNS:
            a, b = got.trace.column(name), want.trace.column(name)
            if isinstance(b, list):
                assert a == b, (where, name)
            else:  # the bytes tell apart signed zeros and NaN payloads
                assert a.tobytes() == b.tobytes(), (where, name)
        assert got.counter == want.counter, where
        for name in ("b_y", "max_cons_gap", "max_eq7_inf", "lipschitz"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), (where, name)
        for name in ("final_y", "final_x", "final_avg"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (where, name)
        assert got.diverged == want.diverged, where
        assert got.trace.divergence_note == want.trace.divergence_note, where
    return batch


def test_the_sweep_methods_over_two_seeds():
    prob, cm = paper_instance()
    assert_batch_equals_runs(prob, cm, cells_of(SWEEP_METHODS, (0, 3)), 0.1, 1000)


def test_the_sweep_methods_on_the_quadratic_family():
    prob = sample_quadratic_problem(12, 4, seed=0)
    cm = build_consensus_matrix(build_ring(12))
    assert_batch_equals_runs(prob, cm, cells_of(SWEEP_METHODS, (0, 3)), 0.5, 400)


def test_cells_on_the_dense_twin_and_on_the_two_product_matrix():
    # on a ring with n = 30 the matrix keeps the two products; fixed-t cells
    # of this budget run on its dense twin, near-dgd-plus on the matrix
    prob = sample_quartic_problem(30, 4, 4, math.sqrt(30 / 12.0), seed=0)
    cm = build_consensus_matrix(build_ring(30))
    budget = 40
    assert not dense_pays(30, 1, 1) and dense_pays(30, 4, budget)
    assert not dense_pays(30, 4, 1)
    cells = cells_of(("near-dgd-t:5", "near-dgd-plus", "near-dgd-t:2", "dgd"), (0, 1))
    assert_batch_equals_runs(prob, cm, cells, 0.1, budget)
    assert cm.dense_twin() is not cm


@pytest.mark.parametrize("rows", [7, 341])
def test_grad_tol_stops_cells_at_different_rows(monkeypatch, rows):
    prob, cm = paper_instance()
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", rows * 12 * 4)
    cells = cells_of(("near-dgd-plus", "gradient-tracking", "dgd"), (0, 1, 2))
    batch = assert_batch_equals_runs(prob, cm, cells, 0.1, 800, grad_tol=1e-5)
    ends = [len(res.trace.column("k")) for res in batch]
    # near-dgd-plus and tracking stop at rows of their own, dgd runs on
    stopped = [end for end in ends if end < 801]
    assert len(set(stopped)) == len(stopped) == 6 and max(ends) == 801, ends


@pytest.mark.parametrize("rows", [7, 341])
def test_a_cell_that_diverges_leaves_the_others_running(monkeypatch, rows):
    # on the box of radius 2.4 near-dgd-t:1 and dgd leave it on their way to
    # a minimiser (|x*|_inf = 2.21); near-dgd-t:5 and tracking stay inside
    prob, cm = paper_instance()
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", rows * 12 * 4)
    cells = cells_of(("near-dgd-t:1", "near-dgd-t:5", "dgd", "gradient-tracking"), (0, 1))
    batch = assert_batch_equals_runs(prob, cm, cells, 0.1, 400, box_radius=2.4)
    assert [res.diverged for res in batch] == [True, False, True, False] * 2


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_the_smallest_budgets(budget):
    # below a budget of 2 the tracker makes no iteration
    prob, cm = paper_instance()
    batch = assert_batch_equals_runs(prob, cm, cells_of(SWEEP_METHODS, (0, 1)), 0.1, budget)
    assert [len(res.trace.column("k")) for res in batch[:6]] == (
        [budget + 1] * 5 + [budget if budget >= 2 else 1])


def test_a_lone_cell_and_no_cell():
    prob, cm = paper_instance()
    assert run_batch(prob, cm, [], 0.1, 10) == []
    assert_batch_equals_runs(prob, cm, cells_of(("near-dgd-plus",), (4,)), 0.1, 50)


def test_one_gradient_call_per_slot_for_every_cell(monkeypatch):
    prob, cm = paper_instance()
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", 4 * 12 * 4)
    calls = []
    stacked_grad = Objective.stacked_grad
    monkeypatch.setattr(Objective, "stacked_grad",
                        lambda self, x: calls.append(np.shape(x)) or stacked_grad(self, x))
    run_batch(prob, cm, cells_of(SWEEP_METHODS, (0, 1)), 0.1, 10)
    assert calls == [(12, 12, 4)] * 10
    # the tracker's first gradient is its initialisation: one iteration fewer
    calls.clear()
    run_batch(prob, cm, cells_of(("gradient-tracking",), (0, 1)), 0.1, 10)
    assert calls == [(2, 12, 4)] * 9


@pytest.mark.parametrize("token", ["near-dgd-t:5", "near-dgd-plus"])
def test_a_lone_near_dgd_cell_keeps_its_own_loop(monkeypatch, token):
    # run() of a NEAR-DGD method, as the escape and scale workloads time it,
    # iterates on (n, p) operands and never tiles the objective; a batch of
    # two cells tiles it once and makes one call per slot for both
    prob, cm = paper_instance()
    shapes, leads = [], []
    stacked_grad, tiled = Objective.stacked_grad, Objective.tiled
    monkeypatch.setattr(Objective, "stacked_grad",
                        lambda self, x: shapes.append(np.shape(x)) or stacked_grad(self, x))
    monkeypatch.setattr(Objective, "tiled",
                        lambda self, lead: leads.append(tuple(lead)) or tiled(self, lead))
    method = MethodSpec.parse(token)
    run(prob, cm, method, 0.1, 50)
    run_batch(prob, cm, [(method, 1)], 0.1, 50)
    assert shapes == [(12, 4)] * 100 and leads == []
    shapes.clear()
    run_batch(prob, cm, [(method, 0), (method, 1)], 0.1, 50)
    assert shapes == [(2, 12, 4)] * 50 and leads == [(2,)]


@pytest.mark.parametrize("token", ["near-dgd-plus-doubling:100", "near-dgd-plus"])
def test_product_handles_are_fetched_once_per_run_of_equal_t(monkeypatch, token):
    # blocks of 341 rows at budget 1000: the doubling's t changes inside
    # each block, near-dgd-plus's at every slot
    prob, cm = paper_instance()
    calls = []
    product = ConsensusMatrix.product
    monkeypatch.setattr(ConsensusMatrix, "product",
                        lambda self, t: calls.append(t) or product(self, t))
    method, budget, rows = MethodSpec.parse(token), 1000, 341
    # one fetch per distinct t of each block's t_{k+1}..t_{k+m}, and one for x_0
    handles = 1 + sum(len(set(method.schedule(k, min(rows, budget - k) + 1)[1:]))
                      for k in range(0, budget, rows))
    assert handles == (14 if method.name == "near-dgd-plus-doubling" else 1 + budget)
    run(prob, cm, method, 0.1, budget)
    assert len(calls) == handles
    calls.clear()
    run_batch(prob, cm, cells_of((token,), (0, 1)), 0.1, budget)
    assert len(calls) == 2 * handles


def test_every_cell_is_checked_before_any_iteration(monkeypatch):
    prob, cm = paper_instance()
    calls = []
    monkeypatch.setattr(Objective, "stacked_grad", lambda self, x: calls.append(1))
    good, doubling = MethodSpec("near-dgd-t", t=5), MethodSpec("near-dgd-plus-doubling", period=1)
    for cells, says in (([(good, 0), (good, 1.5)], "budget and seed must be integers"),
                        ([(good, 0), (doubling, 0), (good, 2.5)], "outgrow the float range")):
        with pytest.raises(ValueError, match=says):
            run_batch(prob, cm, cells, 0.1, 1100)
    with pytest.raises(optimizer.SteplengthError):
        run_batch(prob, cm, [(good, 0), (good, 1)], 0.9, 10)
    assert calls == []


def test_a_negative_seed_and_a_matrix_of_another_size_are_rejected_by_name(monkeypatch):
    prob, cm = paper_instance()
    ring10 = build_consensus_matrix(build_ring(10))
    calls = []
    monkeypatch.setattr(Objective, "stacked_grad", lambda self, x: calls.append(1))
    method = MethodSpec("near-dgd-t", t=5)
    for matrix, seed, says in ((cm, -1, "seed must be nonnegative, got -1"),
                               (ring10, 0, "the consensus matrix has 10 nodes, the objective 12")):
        with pytest.raises(ValueError, match=says):
            run(prob, matrix, method, 0.1, 10, seed=seed)
        for cells in ([(method, seed)], [(method, 0), (method, seed)]):
            with pytest.raises(ValueError, match=says):
                run_batch(prob, matrix, cells, 0.1, 10)
    assert calls == []


def test_a_hundred_seed_escape_batch_meets_the_escape_rule():
    # the acceptance-5 experiment as one batch: every seed ends within 10 %
    # of |x*| of a minimiser, below the saddle's value by more than 0.01
    prob, cm = paper_instance()
    cells = cells_of(("near-dgd-t:5",), range(100))
    batch = assert_batch_equals_runs(prob, cm, cells, 0.1, 1500)
    x_star = prob.minimizers()[0]
    f_saddle = prob.global_value(np.zeros(prob.p))
    escaped = 0
    for res in batch:
        avg = res.final_avg
        near_min = min(np.linalg.norm(avg - x_star), np.linalg.norm(avg + x_star))
        escaped += (prob.global_value(avg) < f_saddle - 0.01
                    and near_min <= 0.1 * np.linalg.norm(x_star))
    assert escaped == 100
