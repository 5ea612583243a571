import io
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neardgd.consensus import ConsensusMatrix, build_consensus_matrix, dense_pays
from neardgd.diagnostics import (FLOAT_COLUMNS, CostModel, descent_residual,
                                 lyapunov_value, lyapunov_value_at)
from neardgd.graph import Graph, build_erdos_renyi, build_ring
from neardgd.objective import (Objective, ObjectiveError, QuadraticProblem,
                               QuadraticQuarticProblem, sample_quartic_problem)
from neardgd import diagnostics, optimizer
from neardgd.optimizer import (MethodSpec, SteplengthError, initial_point, run,
                               run_batch)
from reference_steps import (dgd_step, iterations, near_dgd_step, run_end,
                             tracking_step)


def two_node_instance():
    """n=2, p=1, f_i(x) = x^2/2, W = [[0.6,0.4],[0.4,0.6]]."""
    g = Graph(2, frozenset({(0, 1)}))
    cm = ConsensusMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), g)
    return QuadraticProblem(np.zeros((2, 1))), cm


def paper_instance():
    prob = sample_quartic_problem(12, 4, 4, 1.0, seed=0)
    cm = build_consensus_matrix(build_ring(12))
    return prob, cm


# ---------------------------------------------------------------------------
# Schedules and method specs

def test_schedule_fixed_linear_doubling():
    assert [MethodSpec("near-dgd-t", t=5).rounds(k) for k in (0, 3, 99)] == [5, 5, 5]
    assert [MethodSpec("near-dgd-plus").rounds(k) for k in (0, 1, 9)] == [1, 2, 10]
    dbl = MethodSpec("near-dgd-plus-doubling", period=100)
    assert [dbl.rounds(k) for k in (0, 99, 100, 199, 200)] == [1, 1, 2, 2, 4]
    for baseline in ("dgd", "gradient-tracking"):
        assert [MethodSpec(baseline).rounds(k) for k in (0, 7, 500)] == [1, 1, 1]
    with pytest.raises(ValueError):
        MethodSpec("exp")
    with pytest.raises(ValueError):
        MethodSpec("near-dgd-t", t=0)
    with pytest.raises(ValueError):
        MethodSpec.parse("near-dgd-plus-doubling:0")
    # a period of 2.5 gave fractional rounds and a "near-dgd-plus-doubling:2"
    # label, a t of 2.5 a TypeError from range
    for name, kwargs in (("near-dgd-t", dict(t=2.5)), ("near-dgd-t", dict(t=2.0)),
                         ("near-dgd-t", dict(t="3")), ("dgd", dict(t=None)),
                         ("near-dgd-plus-doubling", dict(period=2.5))):
        with pytest.raises(ValueError, match="needs integer t and period"):
            MethodSpec(name, **kwargs)
    for name, param, value in (("near-dgd-t", "t", np.int32(2)),
                               ("near-dgd-plus-doubling", "period", np.int64(4))):
        spec = MethodSpec(name, **{param: value})
        assert spec == MethodSpec(name, **{param: int(value)})
        assert type(spec.t) is type(spec.period) is int
    # a parameter the method does not carry stays at its default: t=5 on
    # dgd ran dgd, and MethodSpec("dgd", t=5) differed from MethodSpec("dgd")
    for name, param, value in (("dgd", "t", 5), ("gradient-tracking", "period", 7),
                               ("near-dgd-plus", "t", 2), ("near-dgd-t", "period", 7),
                               ("near-dgd-plus-doubling", "t", 2)):
        with pytest.raises(ValueError, match="^method %s takes no %s, got %s=%d$"
                           % (name, param, param, value)):
            MethodSpec(name, **{param: value})


_METHODS = st.one_of(
    st.integers(min_value=1, max_value=50).map(lambda t: MethodSpec("near-dgd-t", t=t)),
    st.just(MethodSpec("near-dgd-plus")),
    st.integers(min_value=1, max_value=40).map(
        lambda period: MethodSpec("near-dgd-plus-doubling", period=period)),
    st.just(MethodSpec("dgd")),
    st.just(MethodSpec("gradient-tracking")))


def _rounds_of_iteration(method, k):
    # t_k of each method, written out one iteration at a time
    return {"near-dgd-t": method.t, "near-dgd-plus": k + 1,
            "near-dgd-plus-doubling": 2 ** (k // method.period)}.get(method.name, 1)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(method=_METHODS, boundary=st.integers(min_value=0, max_value=60),
       offset=st.integers(min_value=-5, max_value=5), count=st.integers(min_value=0, max_value=200))
def test_block_schedule_equals_the_rounds_of_each_iteration(method, boundary, offset, count):
    # blocks start a few iterations before or after the start of a doubling
    # period, and the longer ones span several doublings
    k = max(0, boundary * method.period + offset)
    block = method.schedule(k, count)
    assert block == [_rounds_of_iteration(method, j) for j in range(k, k + count)]
    assert block == [method.rounds(j) for j in range(k, k + count)]


def test_method_spec_labels_and_parse():
    assert MethodSpec("near-dgd-t", t=5).label() == "near-dgd-t:5"
    assert MethodSpec("dgd").label() == "dgd"
    assert MethodSpec.parse("near-dgd-t:10") == MethodSpec("near-dgd-t", t=10)
    assert MethodSpec.parse("near-dgd-plus-doubling:50").period == 50
    assert MethodSpec.parse("gradient-tracking").name == "gradient-tracking"
    with pytest.raises(ValueError):
        MethodSpec.parse("dgd:3")
    with pytest.raises(ValueError):
        MethodSpec("polyak")
    for token in ("near-dgd-t:abc", " near-dgd-plus-doubling:1.5", "near-dgd-t:"):
        with pytest.raises(ValueError, match="method %r needs an integer" % token.strip()):
            MethodSpec.parse(token)
    for token in ("dgd:", "dgd :3", " gradient-tracking: "):
        with pytest.raises(ValueError, match="^method '%s' takes no parameter$"
                           % token.partition(":")[0].strip()):
            MethodSpec.parse(token)
    with pytest.raises(ValueError, match="^unknown method 'nope'$"):
        MethodSpec.parse("nope:3")
    assert MethodSpec.parse(" near-dgd-t :3") == MethodSpec.parse("near-dgd-t: 3") \
        == MethodSpec("near-dgd-t", t=3)


# Each method's facts, written out here rather than read from the library:
# (spec with its token parameter, if any, off its default, label, run
# certificates, NEAR-DGD loop, communications per consensus round)
METHOD_FACTS = [
    (MethodSpec("near-dgd-t", t=7), "near-dgd-t:7",
     ("descent-residual", "eq7-identity", "consensus-bound"), True, 1),
    (MethodSpec("near-dgd-plus"), "near-dgd-plus",
     ("descent-residual", "consensus-bound"), True, 1),
    (MethodSpec("near-dgd-plus-doubling", period=9), "near-dgd-plus-doubling:9",
     ("descent-residual", "consensus-bound"), True, 1),
    (MethodSpec("dgd"), "dgd", (), False, 1),
    (MethodSpec("gradient-tracking"), "gradient-tracking", (), False, 2),
]


def test_method_facts_cover_every_method_name():
    assert [spec.name for spec, *_ in METHOD_FACTS] == list(optimizer.METHOD_NAMES)


@pytest.mark.parametrize("spec, label, certificates, near_dgd, comms_per_round", METHOD_FACTS,
                         ids=[label for _, label, *_ in METHOD_FACTS])
def test_method_facts(spec, label, certificates, near_dgd, comms_per_round):
    assert spec.label() == label
    assert MethodSpec.parse(spec.label()) == spec
    assert spec.certificates == certificates
    assert spec.near_dgd is near_dgd
    assert spec.comms_per_round == comms_per_round


# ---------------------------------------------------------------------------
# The reference updates: hand-iteration values, and run() at budget 1 or 2

def run_from(prob, cm, token, budget, x0):
    return run(prob, cm, MethodSpec.parse(token), alpha=0.1, budget=budget, x0=x0)


def test_near_dgd_step_hand_example():
    prob, cm = two_node_instance()
    y0 = np.array([[1.0], [-1.0]])
    x0, y1 = near_dgd_step(y0, prob, cm, 1, 0.1)
    np.testing.assert_allclose(x0, [[0.2], [-0.2]], atol=1e-15)
    np.testing.assert_allclose(y1, [[0.18], [-0.18]], atol=1e-15)
    res = run_from(prob, cm, "near-dgd-t:1", 1, y0)
    assert res.final_y.tobytes() == y1.tobytes()
    assert (res.counter.consensus_rounds, res.counter.gradient_evals) == (1, 1)

    x0, y1 = near_dgd_step(y0, prob, cm, 2, 0.1)
    np.testing.assert_allclose(x0, [[0.04], [-0.04]], atol=1e-15)
    np.testing.assert_allclose(y1, [[0.036], [-0.036]], atol=1e-15)
    res = run_from(prob, cm, "near-dgd-t:2", 1, y0)
    assert res.final_y.tobytes() == y1.tobytes()
    assert (res.counter.consensus_rounds, res.counter.gradient_evals) == (2, 1)


def test_near_dgd_consensual_start_stays_consensual():
    # identical f_i: every node takes the same step, consensus is invariant
    cm = build_consensus_matrix(build_ring(5))
    prob = QuadraticProblem(np.tile([0.3, -0.7], (5, 1)))
    y0 = np.tile([1.0, 1.0], (5, 1))
    x0, y1 = near_dgd_step(y0, prob, cm, 3, 0.1)
    np.testing.assert_allclose(x0, y0, atol=1e-12)
    assert np.abs(y1 - y1.mean(axis=0)).max() <= 1e-12
    assert run_from(prob, cm, "near-dgd-t:3", 1, y0).final_y.tobytes() == y1.tobytes()
    # at the shared minimizer the consensual point is fixed
    ym = np.tile([0.3, -0.7], (5, 1))
    xm, ym1 = near_dgd_step(ym, prob, cm, 2, 0.1)
    np.testing.assert_allclose(ym1, ym, atol=1e-12)


def test_dgd_step_hand_example():
    prob, cm = two_node_instance()
    x0 = np.array([[1.0], [-1.0]])
    x1 = dgd_step(x0, prob, cm, 0.1)
    np.testing.assert_allclose(x1, [[0.1], [-0.1]], atol=1e-15)
    res = run_from(prob, cm, "dgd", 1, x0)
    assert res.final_y.tobytes() == x1.tobytes()
    assert (res.counter.consensus_rounds, res.counter.gradient_evals) == (1, 1)


def test_dgd_fixed_point_and_pure_consensus():
    prob, cm = two_node_instance()
    zero = np.zeros((2, 1))
    np.testing.assert_allclose(dgd_step(zero, prob, cm, 0.1), zero)
    # alpha = 0 degenerates to a consensus iteration
    x = np.array([[1.0], [3.0]])
    for _ in range(200):
        x = cm.W @ x - 0.0 * prob.stacked_grad(x)
    np.testing.assert_allclose(x, [[2.0], [2.0]], atol=1e-10)


def test_gradient_tracking_hand_example():
    prob, cm = two_node_instance()
    x0 = np.array([[1.0], [-1.0]])
    s0 = prob.stacked_grad(x0)
    np.testing.assert_allclose(s0, [[1.0], [-1.0]])
    x1, s1, g1 = tracking_step(x0, s0, s0, prob, cm, 0.1)
    np.testing.assert_allclose(x1, [[0.1], [-0.1]], atol=1e-15)
    np.testing.assert_allclose(s1, [[-0.7], [0.7]], atol=1e-15)
    np.testing.assert_allclose(g1, prob.stacked_grad(x1))
    # budget 2: the tracker's initial gradient, then one iteration
    res = run_from(prob, cm, "gradient-tracking", 2, x0)
    assert res.final_y.tobytes() == x1.tobytes()
    assert (res.counter.consensus_rounds, res.counter.gradient_evals) == (2, 2)


def test_gradient_tracking_identity_after_random_steps():
    prob, cm = paper_instance()
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(12, 4))
    g = prob.stacked_grad(x)
    s = g
    for _ in range(10):
        x, s, g = tracking_step(x, s, g, prob, cm, 0.1)
        # tracking identity: mean of s equals mean of grad f(x)
        err = np.abs(s.mean(axis=0) - g.mean(axis=0)).max()
        assert err <= 1e-12


def test_gradient_tracking_consensual_minimizer_fixed():
    prob, cm = two_node_instance()
    x = np.zeros((2, 1))
    g = prob.stacked_grad(x)
    x1, s1, _ = tracking_step(x, g, g, prob, cm, 0.1)
    np.testing.assert_allclose(x1, x, atol=1e-15)
    np.testing.assert_allclose(s1, np.zeros((2, 1)), atol=1e-15)


# ---------------------------------------------------------------------------
# Full runs

def test_run_counter_accounting_fixed_t5():
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-t", t=5), alpha=0.1, budget=100,
              cost_model=CostModel(1.0, 1.0))
    assert res.counter.gradient_evals == 100
    assert res.counter.consensus_rounds == 500
    assert res.trace.final.cost == pytest.approx(600.0)
    # 100 iteration rows plus the terminal row
    assert len(res.trace.records) == 101
    assert res.trace.final.k == 100
    assert all(rec.t_k == 5 for rec in res.trace.records)
    res2 = run(prob, cm, MethodSpec("near-dgd-t", t=5), alpha=0.1, budget=100,
               cost_model=CostModel(0.01, 1.0))
    assert res2.trace.final.cost == pytest.approx(105.0)


def test_run_zero_budget_single_record():
    prob, cm = paper_instance()
    for name in ("near-dgd-t", "dgd", "gradient-tracking"):
        res = run(prob, cm, MethodSpec(name), alpha=0.1, budget=0)
        assert len(res.trace.records) == 1
        rec = res.trace.final
        assert rec.k == 0 and rec.comms == 0 and rec.grads == 0


def test_run_deterministic_and_shared_initial_point():
    prob, cm = paper_instance()
    a = run(prob, cm, MethodSpec("near-dgd-t", t=2), alpha=0.1, budget=20, seed=3)
    b = run(prob, cm, MethodSpec("near-dgd-t", t=2), alpha=0.1, budget=20, seed=3)
    np.testing.assert_array_equal(a.final_y, b.final_y)
    x0 = initial_point(12, 4, 3)
    assert np.abs(x0).max() <= 1.0
    np.testing.assert_array_equal(initial_point(12, 4, 3), x0)
    assert not np.array_equal(initial_point(12, 4, 4), x0)


def test_run_gradient_tracking_accounting():
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("gradient-tracking"), alpha=0.1, budget=50)
    # one extra gradient eval initializes the tracker; 2 comms per iteration
    assert res.counter.gradient_evals == 50
    assert res.counter.consensus_rounds == 2 * 49


def test_run_near_dgd_plus_counts_triangular_comms():
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-plus"), alpha=0.1, budget=10)
    assert res.counter.gradient_evals == 10
    assert res.counter.consensus_rounds == sum(range(1, 11))
    assert [rec.t_k for rec in res.trace.records][:10] == list(range(1, 11))


def test_run_refuses_a_doubling_schedule_past_the_float_range(monkeypatch):
    # period 3 doubles t 333 times in 1000 iterations: t = 2^333 still runs;
    # by budget 3100, t_k passes 2^1024 and could no longer become a float
    prob, cm = paper_instance()
    method = MethodSpec("near-dgd-plus-doubling", period=3)
    res = run(prob, cm, method, alpha=0.1, budget=1000)
    assert res.trace.final.t_k == 2**333 and not res.diverged
    monkeypatch.setattr(Objective, "stacked_grad",
                        lambda *args: pytest.fail("refused only after iterating"))
    with pytest.raises(ValueError, match=r"near-dgd-plus-doubling:3 at budget 3100"):
        run(prob, cm, method, alpha=0.1, budget=3100)


def test_run_quadratic_near_dgd_plus_converges_exactly():
    cm = build_consensus_matrix(build_ring(6))
    rng = np.random.default_rng(5)
    prob = QuadraticProblem(rng.uniform(-1, 1, size=(6, 2)))
    res = run(prob, cm, MethodSpec("near-dgd-plus"), alpha=0.5, budget=200)
    assert np.linalg.norm(res.final_avg - prob.minimizers()[0]) <= 1e-8
    assert res.final_avg_grad_norm <= 1e-8


@pytest.mark.parametrize("token", ["near-dgd-t:3", "near-dgd-plus",
                                   "near-dgd-plus-doubling:4"])
def test_run_matches_the_reference_near_dgd_iterations(token):
    # fixed, linear and doubling schedules; a run with budget K ends at
    # y_K with final_x = x_K = Z^{t_K} y_K and the tallies of K iterations
    prob, cm = paper_instance()
    method = MethodSpec.parse(token)
    y, comms = initial_point(12, 4, 2), 0
    for step in itertools.islice(iterations(prob, cm, method, 0.1, y), 13):
        res = run(prob, cm, method, alpha=0.1, budget=step.k, seed=2)
        np.testing.assert_array_equal(res.final_y, y)
        np.testing.assert_array_equal(res.final_x, step.x)
        assert (res.counter.consensus_rounds, res.counter.gradient_evals) == (comms, step.k)
        # the average iterate: consensus preserves the mean, x_k and y_k agree
        np.testing.assert_allclose(step.x.mean(axis=0), y.mean(axis=0), atol=1e-12)
        y, comms = step.y_next, step.comms


@pytest.mark.parametrize("rows", [1, 5, 12])
@pytest.mark.parametrize("n, p", [(12, 4), (30, 2)], ids=["dense-12", "two-product-30"])
@pytest.mark.parametrize("token", ["near-dgd-t:3", "near-dgd-plus", "near-dgd-plus-doubling:4",
                                   "near-dgd-plus-doubling:1"])
def test_run_lyapunov_column_is_carried_bitwise(monkeypatch, token, n, p, rows):
    # row k holds L_{t_k}(y_k), computed once per iterate and carried from the
    # certificate's L_t(y_{k+1}) while t is unchanged; the terminal row too.
    # In blocks of 1, 5 and 12 rows, t changes after no row, some rows or
    # every row (near-dgd-plus, doubling:1); on the two-product matrix the
    # reference is the dense twin where dense_pays holds
    prob = sample_quartic_problem(n, p, p, 1.0, seed=0)
    cm = build_consensus_matrix(build_ring(n))
    method = MethodSpec.parse(token)
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", rows * n * p)
    res = run(prob, cm, method, alpha=0.1, budget=12, seed=2)
    if dense_pays(n, p, method.repeats(12)):
        cm = cm.dense_twin()
    y = initial_point(n, p, 2)
    records = res.trace.records
    assert len(records) == 13
    for rec, step in zip(records, iterations(prob, cm, method, 0.1, y)):
        assert rec.k == step.k
        assert rec.lyapunov == lyapunov_value_at(y, step.x, prob, 0.1)
        if step.k < 12:
            # L_{t_k}(y_{k+1}), also on the rows after which t changes
            assert rec.descent_residual == descent_residual(
                y, step.y_next, prob, cm, step.t, 0.1, res.lipschitz)
        y = step.y_next


@pytest.mark.parametrize("token, calls", [
    ("near-dgd-t:5", 11), ("near-dgd-plus-doubling:4", 13), ("near-dgd-plus", 21)])
def test_run_evaluates_stacked_value_once_per_iterate(monkeypatch, token, calls):
    # L_t(y_0), then L_t(y_{k+1}) per iteration, plus L_{t_k}(y_{k+1}) again
    # on each row after which t changes (k = 3 and 7 for doubling:4, every k
    # for plus); counted in evaluated iterates, since the pass stacks them
    prob, cm = paper_instance()
    seen = []
    original = Objective.stacked_value

    def counting(self, x):
        seen.append(1 if np.ndim(x) == 2 else len(x))
        return original(self, x)

    monkeypatch.setattr(Objective, "stacked_value", counting)
    run(prob, cm, MethodSpec.parse(token), alpha=0.1, budget=10)
    assert sum(seen) == calls


def count_kernel_calls(monkeypatch):
    """Counts consensus products, split into those made inside a block pass
    and the rest (x_0 and run()'s loop): each call of a handle that
    ConsensusMatrix.product returns (which apply() on one iterate calls too)
    and each apply() on a stack, which takes no handle; apply() is patched
    to count stacks alone."""
    counts, in_pass = {"loop": 0, "pass": 0}, []
    product, apply = ConsensusMatrix.product, ConsensusMatrix.apply
    certify = optimizer._BlockCertifier.certify

    def count():
        counts["pass" if in_pass else "loop"] += 1

    def counting_product(self, t):
        handle = product(self, t)
        return lambda cols, out=None: count() or handle(cols, out)

    def counting_apply(self, t, cols, out=None):
        if cols.ndim > 2:
            count()
        return apply(self, t, cols, out)

    def flagged(self, *args):
        in_pass.append(True)
        try:
            return certify(self, *args)
        finally:
            in_pass.pop()

    monkeypatch.setattr(ConsensusMatrix, "product", counting_product)
    monkeypatch.setattr(ConsensusMatrix, "apply", counting_apply)
    monkeypatch.setattr(optimizer._BlockCertifier, "certify", flagged)
    return counts


def test_run_fixed_t_loop_makes_one_consensus_and_one_gradient_call(monkeypatch):
    # blocks of 4 rows: budget 10 makes passes over 4, 4 and 2 rows; per
    # iteration the loop applies Z^t once and evaluates one gradient, and
    # the certificates cost a fixed number of calls per pass
    prob, cm = paper_instance()
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", 4 * 12 * 4)
    kernel = count_kernel_calls(monkeypatch)
    calls = {}

    def counting(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name, owner] = calls.get((name, owner), 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for owner, name in ((diagnostics, "apply_consensus"), (Objective, "stacked_grad"),
                        (Objective, "stacked_value"), (optimizer, "consensus_distance")):
        counting(owner, name)
    res = run(prob, cm, MethodSpec("near-dgd-t", t=5), alpha=0.1, budget=10)
    assert res.counter.gradient_evals == 10 and res.counter.consensus_rounds == 50
    assert kernel["loop"] == 1 + 10  # x_0, then x_{k+1}
    assert calls["stacked_grad", Objective] == 10
    # Eq. 7: twice per pass, through apply_consensus, and nothing else
    assert calls["apply_consensus", diagnostics] == kernel["pass"] == 2 * 3
    assert calls["stacked_value", Objective] == 1 + 3  # L_t(y_0), then per pass
    assert calls["consensus_distance", optimizer] == 3 + 1  # per pass, terminal row



@pytest.mark.parametrize("name", optimizer.METHOD_NAMES)
def test_run_makes_one_stacked_grad_call_per_gradient_evaluation(monkeypatch, name):
    # blocks of 4 rows over a budget of 10: every iteration evaluates one
    # gradient. The tracker counts grad f(x_0), its s_0, as its first
    # gradient and makes 9 iterations, which evaluate grad f(x_0..x_8);
    # grad f(x_9) would only form s_9, which nothing reads, so it is never
    # evaluated and the tracker makes one call fewer than it counts. A lone
    # run_batch() cell makes the same calls, by shape and bytes
    prob, cm = paper_instance()
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", 4 * 12 * 4)
    calls = []
    stacked_grad = Objective.stacked_grad
    monkeypatch.setattr(Objective, "stacked_grad", lambda self, x: calls.append(
        (np.shape(x), np.asarray(x).tobytes())) or stacked_grad(self, x))
    res = run(prob, cm, MethodSpec(name), alpha=0.1, budget=10)
    assert res.counter.gradient_evals == 10
    assert len(calls) == (9 if name == "gradient-tracking" else 10)
    alone = list(calls)
    calls.clear()
    batch = run_batch(prob, cm, [(MethodSpec(name), 0)], alpha=0.1, budget=10)
    assert calls == alone
    assert batch[0].counter.gradient_evals == 10

def _run_fingerprint(res):
    buf = io.StringIO()
    res.trace.write_csv_to(buf)
    return (buf.getvalue(), res.trace.diverged, res.trace.divergence_note,
            res.final_y.tobytes(), res.final_x.tobytes(), res.final_avg.tobytes(),
            repr(res.b_y), repr(res.max_cons_gap), repr(res.max_eq7_inf),
            res.counter.consensus_rounds, res.counter.gradient_evals)


BLOCK_CASES = [pytest.param(tok, dict(budget=30), id=tok) for tok in (
    "near-dgd-t:3", "near-dgd-plus", "near-dgd-plus-doubling:4", "dgd", "gradient-tracking")]
BLOCK_CASES += [
    # alpha > 2/L = 0.78 on this box: diverges at k = 8, inside a block of 7
    pytest.param("near-dgd-t:5", dict(budget=3000, alpha=0.9, allow_large_alpha=True,
                                      box_radius=2.5, seed=1), id="diverges"),
    # stops at k = 214 on grad_tol, inside a block of 7 rows
    pytest.param("near-dgd-plus", dict(budget=3000, grad_tol=1e-5), id="grad_tol"),
]


@pytest.mark.parametrize("token, kwargs", BLOCK_CASES)
def test_run_is_bitwise_independent_of_block_size(monkeypatch, token, kwargs):
    prob, cm = paper_instance()
    kwargs = dict(dict(alpha=0.1), **kwargs)
    reference = run(prob, cm, MethodSpec.parse(token), **kwargs)
    assert len(reference.trace.records) > 7
    assert reference.trace.diverged == ("box_radius" in kwargs)
    for rows in (1, 2, 7):
        monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", rows * 12 * 4)
        res = run(prob, cm, MethodSpec.parse(token), **kwargs)
        assert _run_fingerprint(res) == _run_fingerprint(reference)


@pytest.mark.parametrize("name", optimizer.METHOD_NAMES)
def test_run_batched_columns_match_single_point_oracles(monkeypatch, name):
    # every row's point passes through consensus_distance once, in row order,
    # one block per call; the 201 rows span four blocks of 64
    prob, cm = paper_instance()
    monkeypatch.setattr(optimizer, "BLOCK_ELEMENTS", 64 * 12 * 4)
    points = []
    original = optimizer.consensus_distance

    def capturing(x, mean=None):
        points.extend(np.array(x).reshape(-1, 12, 4))
        return original(x, mean)

    monkeypatch.setattr(optimizer, "consensus_distance", capturing)
    res = run(prob, cm, MethodSpec(name), alpha=0.1, budget=200)
    assert len(points) == len(res.trace.records) > 3 * 64
    f_star = prob.min_value()

    def close(a, b):
        return abs(a - b) <= 1e-15 * max(1.0, abs(b))

    for rec, point in zip(res.trace.records, points):
        avg = point.mean(axis=0)
        assert rec.cons_dist == original(point)
        assert rec.f_err == prob.global_value(avg) - f_star
        assert close(rec.grad_avg_norm, float(np.linalg.norm(prob.global_grad(avg))))
        assert close(rec.dist_saddle, float(np.linalg.norm(avg)))


def test_run_near_dgd_plus_applies_each_round_once(monkeypatch):
    # one application costs the same at any t, so the work is the number of
    # calls: x_0, then per iteration x_{k+1} = Z^{t_{k+1}} y_{k+1} in the
    # loop; the pass forms every row's z = Z^{t_k} y_{k+1} for the descent
    # certificate in one apply_each call
    prob, cm = paper_instance()
    kernel = count_kernel_calls(monkeypatch)
    batches = []
    apply_each = ConsensusMatrix.apply_each
    monkeypatch.setattr(ConsensusMatrix, "apply_each", lambda self, ts, stack: (
        batches.append(list(ts)) or apply_each(self, ts, stack)))
    res = run(prob, cm, MethodSpec("near-dgd-plus"), alpha=0.1, budget=10)
    assert kernel == {"loop": 1 + 10, "pass": 0}
    assert batches == [list(range(1, 11))]
    assert res.counter.consensus_rounds == 55


@pytest.mark.parametrize("token, alpha", [
    ("near-dgd-t:5", 0.9), ("near-dgd-plus", 0.9), ("dgd", 0.9),
    # these two overflow to inf and nan by k = 11 and k = 10
    ("near-dgd-t:5", 6.0), ("dgd", 3.0)])
def test_run_ends_at_a_mid_block_divergence_without_warnings(monkeypatch, token, alpha):
    # alpha > 2/L on a box of 2.5: the first y_{k+1} out of the box falls
    # inside the first block of 341 rows; the loop runs on to the end of the
    # block, and the pass discards the rows past the divergence
    prob, cm = paper_instance()
    method = MethodSpec.parse(token)
    end = run_end(prob, cm, method, alpha, 3000, initial_point(12, 4, 1), 2.5)
    k = end.k
    rows = optimizer.BLOCK_ELEMENTS // (12 * 4)
    assert end.note and 0 < k < rows - 1
    grad_calls = []
    stacked_grad = Objective.stacked_grad
    monkeypatch.setattr(Objective, "stacked_grad",
                        lambda self, x: grad_calls.append(1) or stacked_grad(self, x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run(prob, cm, method, alpha=alpha, budget=3000, allow_large_alpha=True,
                  box_radius=2.5, seed=1)
    assert len(grad_calls) == rows  # the loop did run past the divergence
    assert res.diverged
    assert res.trace.divergence_note == end.note
    assert res.final_y.tobytes() == end.y.tobytes()
    assert [rec.k for rec in res.trace.records] == list(range(k + 1)) + [k]
    assert (res.counter.consensus_rounds, res.counter.gradient_evals) == end.tallies


def test_run_descent_and_eq7_certificates():
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-t", t=2), alpha=0.1, budget=300)
    residuals = [rec.descent_residual for rec in res.trace.records[:-1]]
    assert max(residuals) <= 1e-10
    assert res.max_eq7_inf <= 1e-10
    assert res.max_cons_gap <= 1e-10


def test_eq7_certificate_catches_a_loop_with_a_wrong_gradient(monkeypatch):
    # only the loop calls stacked_grad; the block pass recomputes grad f(x_k)
    # from the buffered x_k and applies Z^t itself, so a loop that steps
    # along grad f at a perturbed point breaks the Eq.-7 identity
    prob, cm = paper_instance()
    true_grad = prob.stacked_grad
    monkeypatch.setattr(prob, "stacked_grad", lambda x: true_grad(x + 1e-3))
    res = run(prob, cm, MethodSpec("near-dgd-t", t=2), alpha=0.1, budget=300)
    assert res.max_eq7_inf > 1e-10


def test_run_steplength_validation():
    prob, cm = paper_instance()
    big = 2.0 / prob.lipschitz_estimate(4.0) + 0.1
    with pytest.raises(SteplengthError):
        run(prob, cm, MethodSpec("dgd"), alpha=big, budget=10)
    with pytest.raises(SteplengthError):
        run(prob, cm, MethodSpec("dgd"), alpha=-0.1, budget=10)
    # override flag lets the run proceed (it may then leave the box)
    res = run(prob, cm, MethodSpec("dgd"), alpha=big, budget=50,
              allow_large_alpha=True, box_radius=1e11)
    assert res.trace.records


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_library_checks_reject_meaningless_values(bad):
    # NaN passes a "<= 0" test; each check rejects it, and every value
    # that is negative or (but for grad_tol) infinite
    prob, cm = paper_instance()
    quadratic = QuadraticProblem(np.zeros((12, 4)))
    method = MethodSpec("near-dgd-t", t=2)
    with pytest.raises(SteplengthError):
        run(prob, cm, method, alpha=bad, budget=5)
    with pytest.raises(ValueError, match="c must be"):
        sample_quartic_problem(12, 4, 4, bad, seed=0)
    q = prob.q.copy()
    q[0, 0] = bad
    with pytest.raises(ValueError, match="finite" if bad != -1.0 else "positive"):
        QuadraticQuarticProblem(q, prob.index, prob.c)
    with pytest.raises(ValueError, match="alpha"):
        lyapunov_value(q, prob, cm, 2, bad)
    with pytest.raises(ValueError, match="cost coefficients"):
        CostModel(c_c=bad)
    with pytest.raises(ValueError, match="cost coefficients"):
        CostModel(c_g=bad)
    for objective in (prob, quadratic):
        with pytest.raises(ValueError, match="box_radius must be positive and finite"):
            run(objective, cm, method, alpha=0.1, budget=5, box_radius=bad)
    if bad != float("inf"):
        with pytest.raises(ValueError, match="grad_tol"):
            run(prob, cm, method, alpha=0.1, budget=5, grad_tol=bad)


def test_inputs_at_the_float_range_end_in_one_error_or_a_divergence():
    # tier-1 turns any RuntimeWarning into an error, so none is raised here
    prob, cm = paper_instance()
    method = MethodSpec("near-dgd-t", t=2)
    # the quartic's estimate grows with radius^2
    with pytest.raises(ObjectiveError, match="Lipschitz estimate on the box"):
        run(prob, cm, method, alpha=0.1, budget=5, box_radius=1e308)
    quadratic = QuadraticProblem(np.zeros((12, 4)))  # L = 1 on any box
    for objective in (prob, quadratic):  # no alpha fits an infinite box
        with pytest.raises(ValueError, match="box_radius must be positive and finite, got inf"):
            run(objective, cm, method, alpha=0.1, budget=5, box_radius=math.inf)
    assert not run(quadratic, cm, method, alpha=0.1, budget=5, box_radius=1e150).diverged
    # but rho ||y_{k+1} - y_k||^2 may reach 4 n p R^2 / alpha on it
    with pytest.raises(SteplengthError, match=r"alpha=0\.1 is too small for the box of "
                                              r"radius 1e\+308: 4 n p R\^2 / alpha"):
        run(quadratic, cm, method, alpha=0.1, budget=5, box_radius=1e308)
    for alpha in (1e-320, 5e-324):  # subnormal: 1/alpha overflows
        with pytest.raises(SteplengthError, match="1/alpha is not finite"):
            run(prob, cm, method, alpha=alpha, budget=5)
    for token in ("near-dgd-t:3", "near-dgd-plus", "near-dgd-plus-doubling:4", "dgd",
                  "gradient-tracking"):
        res = run(prob, cm, MethodSpec.parse(token), alpha=1e308, budget=5,
                  allow_large_alpha=True)
        assert res.diverged and [rec.k for rec in res.trace.records] == [0, 0], token


def test_an_alpha_whose_certificate_terms_overflow_on_the_box_is_rejected():
    # at alpha = 3e-308, 1/alpha is finite, but L_t's 1/(2 alpha) y'(Z^t - Z^2t) y
    # overflowed on this ring: row 0 read lyapunov = inf and descent_residual
    # = -inf, and every certificate passed
    n, p = 100, 4
    prob = sample_quartic_problem(n, p, p, math.sqrt(n / 12.0), seed=0)
    cm = build_consensus_matrix(build_ring(n))
    method = MethodSpec("near-dgd-t", t=2)
    with pytest.raises(SteplengthError, match=r"alpha=3e-308 is too small for the box of "
                                              r"radius 4\.0"):
        run(prob, cm, method, alpha=3e-308, budget=5)
    # at 4 n p R^2 / alpha = 1e308, finite, every term is
    alpha = 4.0 * n * p * 16.0 / 1e308
    res = run(prob, cm, method, alpha=alpha, budget=5)
    for name in ("lyapunov", "descent_residual"):
        assert np.isfinite(res.trace.column(name)[:-1]).all(), name
    assert not res.diverged


# run()'s own inputs at the edges of the float range, as Python floats,
# ints past the range and NumPy scalars
RUN_EDGE_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-320, 0.1, 1, 2.5,
                   1e100, 1e200, 1e308, -1e308, 10**400, -10**400, np.float64(1e-320),
                   np.float64(1e308), np.float32(0.5), np.int64(3)]


@pytest.mark.parametrize("name", ["alpha", "box_radius", "grad_tol", "c_c", "c_g", "x0"])
def test_run_inputs_end_in_a_run_or_one_error_never_a_warning(name):
    # the library twin of the commands' edge-value grid in test_config_cli
    prob = sample_quartic_problem(4, 2, 2, 1.0, seed=0)
    cm = build_consensus_matrix(build_ring(4))
    for value in RUN_EDGE_VALUES:
        for token in ("near-dgd-t:2", "near-dgd-plus", "dgd", "gradient-tracking"):
            for budget in (0, 20):
                case = (name, value, token, budget)
                kwargs = dict(alpha=0.1, budget=budget)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    try:
                        if name in ("c_c", "c_g"):
                            kwargs["cost_model"] = CostModel(**{name: value})
                        elif name == "x0":
                            kwargs["x0"] = [[value] * 2] * 4  # value at every entry
                        else:
                            kwargs[name] = value
                        res = run(prob, cm, MethodSpec.parse(token), **kwargs)
                    except (ValueError, ObjectiveError):
                        continue
                assert len(res.trace.records) >= 1, case
                if name == "x0" and not abs(value) <= 4.0:  # y_0 outside the box
                    # the first iterate leaves it too: the run ends at row 0
                    assert res.diverged == (budget > 0), case
                    assert len(res.trace.records) == (2 if budget else 1), case


def test_run_divergence_guard_box():
    prob, cm = paper_instance()
    x0 = np.full((12, 4), 5.0)
    res = run(prob, cm, MethodSpec("near-dgd-t", t=1), alpha=0.1, budget=50, x0=x0)
    assert res.diverged and res.trace.diverged
    assert "box" in res.trace.divergence_note
    # the partial trace: iteration 0, then the terminal row at y_0
    assert [rec.k for rec in res.trace.records] == [0, 0]
    np.testing.assert_array_equal(res.final_y, x0)
    # y did not advance, so the terminal row is L_t(y_0), not the certificate's
    # L_t(y_1)
    assert res.trace.final.lyapunov == lyapunov_value(x0, prob, cm, 1, 0.1)
    assert res.trace.final.lyapunov == res.trace.records[0].lyapunov


def test_run_grad_tol_stops_early():
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-plus"), alpha=0.1, budget=3000,
              grad_tol=1e-6)
    assert res.counter.gradient_evals < 3000
    assert res.final_avg_grad_norm <= 1e-6
    # the stop decision reads the trace column: the last iteration row
    # stopped the run, and the one before it did not
    stopped, before = res.trace.records[-2], res.trace.records[-3]
    assert stopped.grad_avg_norm <= 1e-6 < before.grad_avg_norm


def test_grad_tol_reads_the_last_certified_row_not_the_terminal_row():
    # the stop test reads row k (xbar_k); the terminal row describes y_{k+1},
    # so the summary line's grad_avg_norm may lie above the tolerance
    prob, cm = paper_instance()
    res = run(prob, cm, MethodSpec("near-dgd-t", t=5), alpha=0.1, budget=3000,
              grad_tol=1e-3)
    norms = res.trace.column("grad_avg_norm")
    certified, terminal = norms[:-1], norms[-1]
    assert res.trace.final.k == len(certified) == 112
    assert certified[-1] <= 1e-3 and (certified[:-1] > 1e-3).all()
    assert terminal > 1e-3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", optimizer.METHOD_NAMES)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_run_rejects_a_non_finite_initial_point_before_any_product(name, value):
    prob, cm = paper_instance()
    x0 = initial_point(12, 4, 0)
    x0[3, 1] = value
    with pytest.raises(ValueError, match="^initial point has a non-finite entry$"):
        run(prob, cm, MethodSpec(name), alpha=0.1, budget=5, x0=x0)


@pytest.mark.parametrize("x0", [np.zeros((12, 4)) + 1e-3j, np.zeros((12, 4)) + 0j,
                                [[1j] * 4] * 12], ids=["imaginary", "zero-imaginary", "list"])
def test_run_rejects_a_complex_initial_point_by_name(x0):
    # a cast to float would drop the imaginary part, with NumPy's
    # ComplexWarning at most; under warnings as errors run() still raises
    # its own ValueError
    prob, cm = paper_instance()
    for strict in (False, True):
        with warnings.catch_warnings():
            if strict:
                warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^initial point x0 must hold real numbers"):
                run(prob, cm, MethodSpec("near-dgd-t", t=5), alpha=0.1, budget=5, x0=x0)


def test_run_reads_budget_and_seed_as_integers():
    prob, cm = paper_instance()
    with pytest.raises(ValueError, match=r"budget=2\.5"):
        run(prob, cm, MethodSpec("dgd"), alpha=0.1, budget=2.5)
    with pytest.raises(ValueError, match=r"seed=1\.5"):
        run(prob, cm, MethodSpec("dgd"), alpha=0.1, budget=5, seed=1.5)
    res = run(prob, cm, MethodSpec("dgd"), alpha=0.1, budget=np.int64(5), seed=np.int64(1))
    assert type(res.trace.seed) is int and res.trace.seed == 1
    assert _run_fingerprint(res) == _run_fingerprint(
        run(prob, cm, MethodSpec("dgd"), alpha=0.1, budget=5, seed=1))


def test_run_rejects_bad_inputs():
    prob, cm = paper_instance()
    with pytest.raises(ValueError):
        run(prob, cm, MethodSpec("dgd"), alpha=0.1, budget=-1)
    with pytest.raises(ValueError):
        run(prob, cm, MethodSpec("dgd"), alpha=0.1, budget=5, x0=np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# The dense twin: a NEAR-DGD run for which dense_pays(n, p, method.repeats)
# runs on cm.dense_twin()

def _reference_final(prob, cm, method, budget, seed):
    """(y_K, x_K) of the reference iterations on cm, K = budget >= 1."""
    steps = itertools.islice(
        iterations(prob, cm, method, 0.1, initial_point(prob.n, prob.p, seed)), budget + 1)
    *_, last, terminal = steps
    return last.y_next, terminal.x


# on a ring with n = 30 and p = 4, the fewest iterations sharing one t for
# which the dense twin pays; near-dgd-plus (one) stays on the matrix
REPEATS = next(r for r in itertools.count(1) if dense_pays(30, 4, r))


@pytest.mark.parametrize("token, budget, twin", [
    ("near-dgd-t:5", REPEATS - 1, False), ("near-dgd-t:5", REPEATS, True),
    ("near-dgd-plus-doubling:%d" % (REPEATS - 1), 20, False),
    ("near-dgd-plus-doubling:%d" % REPEATS, 20, True), ("near-dgd-plus", 20, False)])
def test_a_run_takes_the_dense_twin_where_dense_pays(token, budget, twin):
    assert 1 < REPEATS <= 20
    prob = sample_quartic_problem(30, 4, 4, math.sqrt(30 / 12.0), seed=0)
    cm = build_consensus_matrix(build_ring(30))
    method = MethodSpec.parse(token)
    res = run(prob, cm, method, alpha=0.1, budget=budget, seed=2)
    picked, other = (cm.dense_twin(), cm) if twin else (cm, cm.dense_twin())
    y, x = _reference_final(prob, picked, method, budget, 2)
    np.testing.assert_array_equal(res.final_y, y)
    np.testing.assert_array_equal(res.final_x, x)
    # the two matrices round differently, so the test tells them apart
    y, x = _reference_final(prob, other, method, budget, 2)
    assert not (np.array_equal(res.final_y, y) and np.array_equal(res.final_x, x))


# The bit contract of a twin run against the same run on the two-product
# matrix: the integer columns and cost are equal; each float column is within
# FLOAT_BOUND (GRAD_BOUND for grad_avg_norm, whose global gradient sums n
# terms that cancel) times max(1, |value|), the descent residual within
# FLOAT_BOUND times max(1, |lyapunov|), the difference of two Lyapunov values
# it is; max_eq7_inf <= 1e-10 and max_cons_gap <= 1e-12.
FLOAT_BOUND, GRAD_BOUND = 1e-12, 1e-11


def _assert_bit_contract(twin, base):
    assert not np.array_equal(twin.final_x, base.final_x)  # the twin ran
    for name in ("k", "t_k", "comms", "grads"):
        assert twin.trace.column(name) == base.trace.column(name)
    np.testing.assert_array_equal(twin.trace.column("cost"), base.trace.column("cost"))
    scale = np.maximum(1.0, np.abs(base.trace.column("lyapunov")))
    for name in FLOAT_COLUMNS:
        a, b = twin.trace.column(name), base.trace.column(name)
        bound = ((GRAD_BOUND if name == "grad_avg_norm" else FLOAT_BOUND)
                 * (scale if name == "descent_residual" else np.maximum(1.0, np.abs(b))))
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert (np.abs(a - b)[~np.isnan(b)] <= bound[~np.isnan(b)]).all(), name
    assert twin.max_eq7_inf <= 1e-10 and twin.max_cons_gap <= 1e-12


@pytest.mark.parametrize("kind", ["ring", "erdos-renyi"])
@pytest.mark.parametrize("n", [25, 30, 100])
def test_a_twin_run_keeps_the_bit_contract(monkeypatch, n, kind):
    prob = sample_quartic_problem(n, 4, 4, math.sqrt(n / 12.0), seed=0)
    g = build_ring(n) if kind == "ring" else build_erdos_renyi(n, 0.2, seed=0)
    for rule in ("metropolis", "maxdegree"):
        cm = build_consensus_matrix(g, rule)
        for t in (5, 20):
            method = MethodSpec("near-dgd-t", t=t)
            twin = run(prob, cm, method, alpha=0.1, budget=1000)
            assert _run_fingerprint(run(prob, cm, method, alpha=0.1, budget=1000)) == (
                _run_fingerprint(twin))
            with monkeypatch.context() as m:
                m.setattr(optimizer, "BLOCK_ELEMENTS", 7 * n * 4)
                assert _run_fingerprint(run(prob, cm, method, alpha=0.1, budget=1000)) == (
                    _run_fingerprint(twin))
                m.setattr(ConsensusMatrix, "dense_twin", lambda self: self)
                base = run(prob, cm, method, alpha=0.1, budget=1000)
            _assert_bit_contract(twin, base)
        # the schedules that change t, run on the twin and on the matrix
        for token in ("near-dgd-plus", "near-dgd-plus-doubling:4"):
            method = MethodSpec.parse(token)
            with monkeypatch.context() as m:
                m.setattr(ConsensusMatrix, "dense_twin", lambda self: self)
                base = run(prob, cm, method, alpha=0.1, budget=1000)
            _assert_bit_contract(run(prob, cm.dense_twin(), method, alpha=0.1, budget=1000),
                                 base)
