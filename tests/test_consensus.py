import math
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from neardgd import checks, consensus, linalg, optimizer
from neardgd.diagnostics import FLOAT_COLUMNS
from neardgd.consensus import (ConsensusMatrix, ConsensusMatrixError, apply_consensus,
                               average_project, build_consensus_matrix,
                               ensure_positive_definite, max_degree_weights,
                               metropolis_weights)
from neardgd.graph import Graph, build_erdos_renyi, build_ring, build_star
from neardgd.objective import sample_quadratic_problem, sample_quartic_problem
from neardgd.optimizer import MethodSpec, run

# the largest ring that dense_pays builds dense; every larger one applies
# Z^t as two eigenbasis products
DENSE_EDGE = max(n for n in range(2, 100) if consensus.dense_pays(n, 1, 1))


def two_node_cm():
    g = Graph(2, frozenset({(0, 1)}))
    return ConsensusMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]), g)


def test_metropolis_ring4():
    w = metropolis_weights(build_ring(4))
    assert w[0, 1] == pytest.approx(1 / 3)
    assert w[0, 0] == pytest.approx(1 / 3)
    assert w[0, 2] == 0.0


def test_metropolis_single_edge():
    w = metropolis_weights(Graph(2, frozenset({(0, 1)})))
    np.testing.assert_allclose(w, [[0.5, 0.5], [0.5, 0.5]])


def test_metropolis_star3():
    w = metropolis_weights(build_star(3))
    assert w[0, 1] == pytest.approx(1 / 3)
    assert w[0, 2] == pytest.approx(1 / 3)
    assert w[0, 0] == pytest.approx(1 / 3)
    assert w[1, 1] == pytest.approx(2 / 3)
    assert w[2, 2] == pytest.approx(2 / 3)


def test_metropolis_rejects_disconnected():
    for rule in (metropolis_weights, max_degree_weights):
        with pytest.raises(ConsensusMatrixError, match="^graph must be connected$"):
            rule(Graph(4, frozenset({(0, 1), (2, 3)})))


def test_max_degree_star3():
    w = max_degree_weights(build_star(3))
    assert w[0, 1] == pytest.approx(1 / 3)
    assert w[1, 1] == pytest.approx(2 / 3)


def test_ensure_pd_ring4_shift():
    g = build_ring(4)
    cm = ensure_positive_definite(metropolis_weights(g), g)
    # affine spectral map with delta = -1/3 - PD_MARGIN, PD_MARGIN = 0.1
    np.testing.assert_allclose(cm.eigenvalues, [3 / 43, 23 / 43, 23 / 43, 1.0],
                               atol=1e-12)
    assert cm.beta == pytest.approx(23 / 43, abs=1e-12)
    assert cm.lambda_min == pytest.approx(3 / 43, abs=1e-12)


def test_ensure_pd_noop_when_already_pd():
    cm0 = two_node_cm()
    cm = ensure_positive_definite(cm0.W, cm0.graph)
    np.testing.assert_allclose(cm.W, cm0.W)


def test_ensure_pd_two_node_complete_mixing():
    g = Graph(2, frozenset({(0, 1)}))
    cm = ensure_positive_definite(np.full((2, 2), 0.5), g)
    np.testing.assert_allclose(cm.W, [[6 / 11, 5 / 11], [5 / 11, 6 / 11]], atol=1e-12)
    np.testing.assert_allclose(cm.eigenvalues, [1 / 11, 1.0], atol=1e-12)


def test_ensure_pd_rejects_negative_entry_the_shift_keeps():
    # rows sum to 1 and lambda_1 = -1.1, so the shift applies; it keeps the
    # sign of the -0.1 entries, and the constructor names them
    w = np.array([[0.0, 1.1, -0.1], [1.1, 0.0, -0.1], [-0.1, -0.1, 1.2]])
    with pytest.raises(ConsensusMatrixError, match="^negative entries$"):
        ensure_positive_definite(w, build_ring(3))


def test_constructor_rejects_indefinite():
    g = build_ring(4)
    with pytest.raises(ConsensusMatrixError):
        ConsensusMatrix(metropolis_weights(g), g)


@pytest.mark.parametrize("rule", sorted(consensus.WEIGHT_RULES))
def test_every_star_is_shifted(rule):
    # a star's weights have an exact eigenvalue 0, which the eigensolver
    # returns at rounding level, positive for some n: it is shifted as 0 is,
    # and the constructor rejects it unshifted
    for n in range(3, 41):
        g = build_star(n)
        assert build_consensus_matrix(g, rule).lambda_min > 0.09, n
        with pytest.raises(ConsensusMatrixError, match="^matrix not positive definite"):
            ConsensusMatrix(consensus.WEIGHT_RULES[rule](g), g)


@pytest.mark.parametrize("w, g, says", [
    (np.array([[0.6, 0.4], [0.4, 0.6]]), build_ring(3), "matrix size 2 != graph size 3"),
    (np.array([[0.6, 0.3], [0.3, 0.6]]), Graph(2, frozenset({(0, 1)})), "rows do not sum to 1"),
    # the identity on an edgeless two-node graph never mixes
    (np.eye(2), Graph(2), r"beta=1 outside \[0, 1\)")],
    ids=["wrong-size", "row-sums", "no-mixing"])
def test_constructor_rejects_a_matrix_that_breaks_an_invariant(w, g, says):
    with pytest.raises(ConsensusMatrixError, match="^%s$" % says):
        ConsensusMatrix(w, g)


@pytest.mark.parametrize("build, args", [
    (build_consensus_matrix, (build_ring(12),)),  # lambda_1 = -1/3: shifted
    (ensure_positive_definite, (two_node_cm().W, two_node_cm().graph))],  # kept
    ids=["shifted", "already-pd"])
def test_a_build_checks_each_matrix_for_symmetry_once(monkeypatch, build, args):
    # ensure_positive_definite decomposes W~ and the constructor W (W~'s
    # copy when no shift is needed); each decomposition is the one symmetry
    # check of its matrix
    calls, real = [], linalg.check_symmetric
    for module in list(sys.modules.values()):  # every module that holds it by name
        if module.__name__.startswith("neardgd") and vars(module).get("check_symmetric") is real:
            monkeypatch.setattr(module, "check_symmetric",
                                lambda a: calls.append(a) or real(a))
    build(*args)
    assert len(calls) == 2


def moved_weight(w, i, j, amount):
    """w with amount added at (i, j) and (j, i) and taken from both diagonals."""
    w = w.copy()
    w[i, j] += amount
    w[j, i] += amount
    w[i, i] -= amount
    w[j, j] -= amount
    return w


def test_constructor_names_the_pair_that_breaks_the_sparsity_pattern():
    g = build_ring(4)  # edges (0,1), (1,2), (2,3), (0,3)
    w = build_consensus_matrix(g).W
    zero_on_edge = moved_weight(w, 1, 2, -w[1, 2])
    with pytest.raises(ConsensusMatrixError, match=r"^zero weight on edge \(1,2\)$"):
        ConsensusMatrix(zero_on_edge, g)
    off_edge = moved_weight(w, 0, 2, 0.05)
    with pytest.raises(ConsensusMatrixError, match=r"^nonzero weight off edge \(0,2\)$"):
        ConsensusMatrix(off_edge, g)
    # with both faults, the first pair in row-major order is named
    both = moved_weight(zero_on_edge, 0, 2, 0.05)
    with pytest.raises(ConsensusMatrixError, match=r"^nonzero weight off edge \(0,2\)$"):
        ConsensusMatrix(both, g)


def test_apply_consensus_examples():
    cm = two_node_cm()
    y = np.array([[1.0], [-1.0]])
    x = apply_consensus(cm, 1, y)
    np.testing.assert_allclose(x, [[0.2], [-0.2]], atol=1e-15)
    x2 = apply_consensus(cm, 2, y)
    np.testing.assert_allclose(x2, [[0.04], [-0.04]], atol=1e-15)


def test_apply_consensus_fixed_on_consensus_subspace():
    cm = build_consensus_matrix(build_ring(5))
    v = np.array([1.5, -2.0, 0.25])
    y = np.tile(v, (5, 1))
    np.testing.assert_allclose(apply_consensus(cm, 7, y), y, atol=1e-12)


def successive_products(cm, t, y):
    for _ in range(t):
        y = cm.W @ y
    return y


@pytest.mark.parametrize("rule", ["metropolis", "maxdegree"])
def test_apply_consensus_equals_successive_products(rule):
    rng = np.random.default_rng(11)
    for g in (build_ring(9), build_star(7), build_erdos_renyi(10, 0.4, seed=1)):
        cm = build_consensus_matrix(g, rule=rule)
        for y in (rng.normal(size=(g.n, 3)), rng.normal(size=g.n)):
            for t in (1, 2, 3, 7, 64, 1000):
                z = apply_consensus(cm, t, y)
                assert z.shape == y.shape
                err = np.abs(z - successive_products(cm, t, y)).max()
                assert err <= 1e-12 * max(1.0, np.linalg.norm(y)), (g.n, t, err)


@pytest.mark.parametrize("t", [3000, 10**5, 10**6])
def test_apply_consensus_long_horizon_keeps_mean_and_contraction(t):
    # eigh puts the top eigenvalue of this W a few ulps above 1; raised to
    # the power t it would move the mean unless it is pinned to 1
    cm = build_consensus_matrix(build_erdos_renyi(100, 0.1, seed=0), rule="maxdegree")
    y = np.random.default_rng(5).normal(size=(100, 3))
    m = average_project(y)
    z = apply_consensus(cm, t, y)
    assert np.abs(average_project(z) - m).max() <= 1e-13
    assert np.linalg.norm(z - m) <= cm.beta**t * np.linalg.norm(y - m) + 1e-12


@pytest.mark.parametrize("t", [0, -1])
def test_apply_consensus_rejects_t_below_one(t):
    with pytest.raises(ValueError, match="^consensus rounds t must be >= 1$"):
        apply_consensus(two_node_cm(), t, np.ones((2, 1)))


@pytest.mark.parametrize("t", [2.5, 3.0, "3"])
def test_apply_consensus_rejects_non_integral_t(t):
    cm = two_node_cm()
    with pytest.raises(ValueError, match="must be an integer"):
        apply_consensus(cm, t, np.ones((2, 1)))


def test_apply_consensus_takes_numpy_integers():
    cm = two_node_cm()
    y = np.array([[1.0], [-1.0]])
    for t in (np.int64(3), np.int32(3)):
        np.testing.assert_array_equal(apply_consensus(cm, t, y), apply_consensus(cm, 3, y))


def test_changing_t_never_serves_a_stale_power():
    g = build_erdos_renyi(10, 0.4, seed=2)
    cm = build_consensus_matrix(g)
    y = np.random.default_rng(4).normal(size=(10, 3))
    for t in (5, 3, 5, 1, 2, 5):
        z = apply_consensus(cm, t, y)
        assert np.abs(z - successive_products(cm, t, y)).max() <= 1e-12
        np.testing.assert_array_equal(z, apply_consensus(build_consensus_matrix(g), t, y))
    for first, second in ((np.int64(3), 3), (3, np.int64(3))):
        fresh = build_consensus_matrix(g)
        np.testing.assert_array_equal(apply_consensus(fresh, first, y),
                                      apply_consensus(fresh, second, y))


def dense_power(cm, t):
    """Z^t = (V diag(lam^t)) V', formed as the kernel forms it."""
    return (cm.eigenvectors * cm.powers(t)) @ cm.eigenvectors.T


def assert_holds_powers(cm, ts):
    """Each held operator of ts is formed from powers(t) bitwise: lam^t as
    the (n, 1) column of a two-product matrix, (V diag(lam^t)) V' on a
    dense one."""
    for t in ts:
        op = cm._ops[cm._rows[t]]
        if cm._vt is None:
            np.testing.assert_array_equal(op, dense_power(cm, t), err_msg="t=%r" % t)
        else:
            assert op.shape == (cm.n, 1)
            np.testing.assert_array_equal(op[:, 0], cm.powers(t), err_msg="t=%r" % t)


@pytest.mark.parametrize("n, budget", [(6, 40), (30, 300)])
def test_memo_holds_the_last_blocks_powers_after_a_run_that_changes_t(n, budget):
    cm = build_consensus_matrix(build_ring(n))
    before = repr(cm)
    prob = sample_quartic_problem(n, 2, 2, math.sqrt(n / 12.0), seed=0)
    res = run(prob, cm, MethodSpec("near-dgd-plus"), alpha=0.1, budget=budget)
    assert res.trace.final.t_k == budget + 1  # t grew by one per iteration
    assert set(vars(cm)) == {"W", "graph", "beta", "lambda_min", "eigenvalues",
                             "eigenvectors", "_vt", "_rows", "_ops"}
    # the last block's schedule is t_k..t_budget = k + 1..budget + 1 (one block
    # of 40 rows at n = 6, the second of 273 and 27 at n = 30); the memo holds
    # its t >= 2 as one block, row i for its i-th t: a dense Z^t for each on
    # the dense matrix and lam^t alone, no n x n array, on the two-product one
    rows = optimizer.BLOCK_ELEMENTS // (n * 2)
    k = (budget - 1) // rows * rows
    held = list(range(max(2, k + 1), budget + 2))
    assert cm._rows == {t: i for i, t in enumerate(held)}
    assert len(cm._ops) == len(held) and all(type(t) is int for t in cm._rows)
    assert_holds_powers(cm, held)
    assert (cm._vt is None) == consensus.dense_pays(n, 1, 1)
    assert repr(cm) == before
    hidden = {f.name: f for f in fields(cm)}
    for name in ("_vt", "_rows", "_ops"):
        assert not (hidden[name].init or hidden[name].repr or hidden[name].compare)


def test_memo_keeps_the_last_t_and_never_serves_a_stale_one():
    cm = build_consensus_matrix(build_erdos_renyi(10, 0.4, seed=2))
    y = np.random.default_rng(4).normal(size=(10, 3))
    assert cm._rows == {} and cm._ops is None  # formed on first use
    for t in (3, 5, 3, 5, 7, 3, 7, 1):
        z = cm.apply(t, y)
        np.testing.assert_array_equal(z, build_consensus_matrix(cm.graph).apply(t, y))
        # W y leaves the memo alone
        assert cm._rows == {7 if t == 1 else t: 0}
        assert len(cm._ops) == 1


@pytest.mark.parametrize("n", [DENSE_EDGE, DENSE_EDGE + 1])
def test_a_result_depends_on_t_and_the_operand_alone_never_on_the_memo(n):
    # the whole-block rule relies on this: a held t's results do not depend
    # on what else the block holds. On the dense matrix (n = DENSE_EDGE), on
    # the two-product one and on its dense twin, every reader of the memo
    # after hold(block), for a block of small t and one shaped like a
    # near-dgd-plus block, equals its call on a fresh matrix
    g = build_ring(n)
    stack = np.random.default_rng(n).normal(size=(6, n, 4))
    ts = [1, 2, 5, 9, 3, 2**70]
    readers = {
        "apply": lambda cm, t, y: cm.apply(t, y),
        "stacked apply": lambda cm, t, y: cm.apply(t, y[None])[0],
        "apply_consensus": lambda cm, t, y: apply_consensus(cm, t, y),
        "product": lambda cm, t, y: cm.product(t)(y),
        "apply_each": lambda cm, t, y: cm.apply_each([t], y[None])[0],
    }
    for twin in ((False, True) if n > DENSE_EDGE else (False,)):
        def matrix():
            cm = build_consensus_matrix(g)
            return cm.dense_twin() if twin else cm

        used = matrix()
        for t in (3, 7, 2, 40):  # the memo has served other t
            used.apply(t, stack)

        def assert_as_fresh():
            np.testing.assert_array_equal(used.apply_each(ts, stack),
                                          matrix().apply_each(ts, stack))
            for t, y in zip(ts, stack):
                for name, read in readers.items():
                    expected = read(matrix(), t, y)
                    for block in ([1, 2, 3, 3, 9], [t, *range(7, 60)]):
                        used.hold(block)
                        np.testing.assert_array_equal(read(used, t, y), expected,
                                                      err_msg="%s t=%r" % (name, t))

        assert_as_fresh()
        # a run on a matrix that served another method's run equals one on a
        # fresh matrix; on the two-product matrix this near-dgd-t:5 run runs
        # on the dense twin, near-dgd-plus with p = 1 on the matrix itself,
        # and the matrix's own products keep their bits
        prob = sample_quartic_problem(n, 1, 1, 1.0, seed=0)
        run(prob, used, MethodSpec("near-dgd-t", t=5), alpha=0.1, budget=50)
        assert_as_fresh()
        for method in (MethodSpec("near-dgd-plus"), MethodSpec("near-dgd-t", t=5)):
            a = run(prob, used, method, alpha=0.1, budget=50)
            b = run(prob, matrix(), method, alpha=0.1, budget=50)
            np.testing.assert_array_equal(a.final_x, b.final_x)
            np.testing.assert_array_equal(a.trace.column("lyapunov"),
                                          b.trace.column("lyapunov"))


def test_the_dense_twin_is_made_on_first_use_and_shares_the_eigenpairs(monkeypatch):
    small = build_consensus_matrix(build_ring(DENSE_EDGE))
    assert small.dense_twin() is small
    g = build_ring(30)
    cm = build_consensus_matrix(g)
    assert cm._twin is None and not cm._rows  # a build forms no twin and no Z^t
    twin = cm.dense_twin()
    assert twin is cm.dense_twin() and twin.dense_twin() is twin
    assert twin._vt is None and cm._vt is not None
    assert all(getattr(twin, name) is getattr(cm, name)
               for name in ("W", "graph", "eigenvalues", "eigenvectors"))
    stack = np.random.default_rng(0).normal(size=(3, 30, 4))
    twin.hold([5, 9])
    assert list(twin._rows) == [5, 9] and not cm._rows  # a memo of its own
    # its products are those of a matrix built dense, and differ from the
    # two-product matrix's by rounding only
    monkeypatch.setattr(consensus, "CALL_COST", 30**3)  # dense_pays(30, 1, 1)
    dense = build_consensus_matrix(g)
    for t in (1, 2, 5, 9):
        np.testing.assert_array_equal(twin.apply(t, stack), dense.apply(t, stack))
        np.testing.assert_array_equal(twin.apply_each([t] * 3, stack), dense.apply(t, stack))
        np.testing.assert_allclose(twin.apply(t, stack), cm.apply(t, stack), rtol=0,
                                   atol=1e-13)


@pytest.mark.parametrize("n", [8, 30])
def test_hold_forms_a_block_whole_when_its_set_changes_and_nothing_otherwise(monkeypatch, n):
    # one rule in both modes: dense at n = 8, two products at n = 30
    cm = build_consensus_matrix(build_ring(n))
    formed, form = [], cm._form

    def recorded(ts):
        formed.append(list(ts))
        return form(ts)

    monkeypatch.setattr(cm, "_form", recorded)
    cm.hold([1, 2, 2, 3, 4])
    cm.hold([4, 3, 1, 2, 3])  # the same set, in another order: nothing is formed
    assert formed == [[2, 3, 4]] and cm._rows == {2: 0, 3: 1, 4: 2}
    cm.hold([4, 5, 6])  # another set: all of it, 4 too
    assert formed[1:] == [[4, 5, 6]] and cm._rows == {4: 0, 5: 1, 6: 2}
    cm.hold(range(1, 8))
    assert formed[2:] == [[2, 3, 4, 5, 6, 7]] and list(cm._rows) == list(range(2, 8))
    assert cm._ops.shape == ((6, n, n) if cm._vt is None else (6, n, 1))
    assert_holds_powers(cm, [3, 7])
    # apply() on a t the memo lacks makes it hold that t alone
    cm.apply(9, np.ones((n, 1)))
    assert formed[3:] == [[9]] and cm._rows == {9: 0}
    # a block of t = 1 alone holds no t, and then forms nothing again
    cm.hold([1, 1])
    cm.hold([1])
    assert formed[4:] == [[]] and cm._rows == {} and len(cm._ops) == 0
    assert (cm._vt is None) == consensus.dense_pays(n, 1, 1)


def test_powers_pin_the_top_eigenvalue():
    cm = build_consensus_matrix(build_ring(30))
    top = cm.eigenvalues[-1]
    for t in (1, 2, 5.5, 2**70):
        with np.errstate(over="ignore"):
            raw = cm.eigenvalues ** t
        lam_t = cm.powers(t)
        assert lam_t[-1] == 1.0
        np.testing.assert_array_equal(lam_t[:-1], raw[:-1])
    assert cm.eigenvalues[-1] == top  # each call pins a fresh array
    # a top eigenvalue an ulp above 1 overflows at a large t, silently
    cm.eigenvalues = cm.eigenvalues.copy()
    cm.eigenvalues[-1] = np.nextafter(1.0, 2.0)
    with np.errstate(over="raise"):
        assert cm.powers(2**70)[-1] == 1.0


@pytest.mark.parametrize("t", [1, 2, 7])
def test_apply_consensus_on_a_stack_equals_its_per_iterate_calls_bitwise(t):
    cm = build_consensus_matrix(build_erdos_renyi(10, 0.4, seed=2))
    rng = np.random.default_rng(t)
    for stack in (rng.normal(size=(5, 10, 3)), rng.normal(size=(2, 3, 10, 1))):
        z = apply_consensus(cm, t, stack)
        assert z.shape == stack.shape
        expected = [apply_consensus(cm, t, y) for y in stack.reshape(-1, 10, stack.shape[-1])]
        np.testing.assert_array_equal(z, np.reshape(expected, stack.shape))


def test_apply_consensus_takes_a_vector():
    cm = build_consensus_matrix(build_ring(6))
    v = np.random.default_rng(1).normal(size=6)
    for t in (1, 4):
        z = apply_consensus(cm, t, v)
        assert z.shape == (6,)
        np.testing.assert_array_equal(z, apply_consensus(cm, t, v[:, None])[:, 0])


@pytest.mark.parametrize("shape", [(), (5,), (5, 2), (6, 5, 2), (6, 2, 6)])
def test_apply_consensus_rejects_a_node_count_off_axis_minus_two(shape):
    cm = build_consensus_matrix(build_ring(6))
    with pytest.raises(ValueError, match="6 node rows on axis -2"):
        apply_consensus(cm, 2, np.ones(shape))



def _iterate_layouts(rng, n):
    """(name, (3, n, k) stack) pairs whose iterates are C-ordered, F-ordered
    and strided views, with k = 4 or k = 1."""
    base = rng.normal(size=(3, 2 * n, 9))
    c4 = np.ascontiguousarray(base[:, :n, :4])
    return [("p=4", c4),
            ("p=1", np.ascontiguousarray(base[:, :n, :1])),
            ("F-ordered", np.swapaxes(np.ascontiguousarray(np.swapaxes(c4, 1, 2)), 1, 2)),
            ("F-ordered stack", np.asfortranarray(c4)),
            ("strided", base[:, ::2, ::2])]


@pytest.mark.parametrize("n", [7, 12, DENSE_EDGE, DENSE_EDGE + 1, 100])
@pytest.mark.parametrize("t", [1, 2, 5])
def test_apply_consensus_on_one_iterate_equals_its_stacked_iterate_and_the_matmul_formula(n, t):
    # one iterate goes through ndarray.dot, a stack through @; both are the
    # same BLAS product per iterate, and both equal W @ y, or for t >= 2
    # Z^t @ y with Z^t = (V diag(lam^t)) @ V' where dense_pays(n, 1, 1) and
    # V @ (lam^t * (V' @ y)) elsewhere, bitwise; an iterate whose rows
    # and columns both have gaps, which BLAS cannot read, as its C-ordered copy
    cm = build_consensus_matrix(build_ring(n))
    rng = np.random.default_rng(100 * n + t)

    def matmul_formula(y):
        if y.shape[-1] > 1 and y.itemsize not in y.strides:
            y = np.ascontiguousarray(y)
        if t == 1:
            return cm.W @ y
        if consensus.dense_pays(n, 1, 1):
            return dense_power(cm, t) @ y
        return cm.eigenvectors @ (cm.powers(t)[:, None] * (cm.eigenvectors.T @ y))

    for name, stack in _iterate_layouts(rng, n):
        stacked = apply_consensus(cm, t, stack)
        for i, y in enumerate(stack):
            z = apply_consensus(cm, t, y)
            np.testing.assert_array_equal(z, stacked[i], err_msg=name)
            np.testing.assert_array_equal(z, matmul_formula(y), err_msg=name)
            out = np.full(y.shape, np.nan)
            assert cm.apply(t, y, out) is out
            np.testing.assert_array_equal(out, z, err_msg=name)
    vectors = rng.normal(size=(3, n))
    stacked = apply_consensus(cm, t, vectors[:, :, None])
    for i, v in enumerate(vectors):
        z = apply_consensus(cm, t, v)
        np.testing.assert_array_equal(z, stacked[i, :, 0])
        np.testing.assert_array_equal(z, matmul_formula(v[:, None])[:, 0])


@pytest.mark.parametrize("graph", [build_ring(12), build_ring(30),
                                   build_erdos_renyi(20, 0.3, seed=0), build_star(7)],
                         ids=["ring12", "ring30", "er20", "star7"])
def test_powers_equal_the_raw_power_with_the_top_entry_pinned_without_overflow(graph):
    cm = build_consensus_matrix(graph)
    for t in (1, 2, 3, 0.5, 5.5, 2**70):
        with np.errstate(over="ignore"):
            expected = cm.eigenvalues ** t
        expected[-1] = 1.0
        with np.errstate(over="raise"):
            lam_t = cm.powers(t)
        np.testing.assert_array_equal(lam_t, expected)
        assert lam_t[-1] == 1.0

@pytest.mark.parametrize("n, p", [(12, 4), (5, 1), (30, 3)])
def test_apply_each_equals_apply_per_row_bitwise(n, p):
    cm = build_consensus_matrix(build_ring(n))
    stack = np.random.default_rng(n).normal(size=(9, n, p))
    # the 1s come first; the larger t in any order
    ts = [1, 1, 2, 2, 3, 8, 40, 2**70, 5]
    expected = np.array([cm.apply(t, y) for t, y in zip(ts, stack)])
    np.testing.assert_array_equal(cm.apply_each(ts, stack), expected)
    # with operators held on the miss above, and after the memo moved on
    cm.hold([4, 6])
    np.testing.assert_array_equal(cm.apply_each(ts, stack), expected)
    # with no t = 1 rows, and with t = 1 rows alone
    for rows in (slice(2, None), slice(None, 2)):
        np.testing.assert_array_equal(cm.apply_each(ts[rows], stack[rows]), expected[rows])
    with pytest.raises(KeyError):  # a 1 after a larger t
        cm.apply_each([2, 1], stack[:2])


@pytest.mark.parametrize("n, twin", [(12, False), (25, False), (25, True)],
                         ids=["dense-12", "two-product-25", "dense-twin-25"])
def test_a_product_handle_equals_apply_bitwise(n, twin):
    def matrix():
        cm = build_consensus_matrix(build_ring(n))
        return cm.dense_twin() if twin else cm

    cm, fresh = matrix(), matrix()
    assert (cm._vt is None) == (n == 12 or twin)
    y = np.random.default_rng(n).normal(size=(n, 4))
    for t in (1, 2, 5, 20):
        expected = fresh.apply(t, y[None])[0]  # a stack takes no handle
        product = cm.product(t)
        out = np.empty_like(y)
        assert product(y, out) is out
        np.testing.assert_array_equal(out, cm.apply(t, y))
        np.testing.assert_array_equal(out, expected)
        # a handle keeps its operator when the memo moves on to other t
        cm.hold([3, 4])
        np.testing.assert_array_equal(product(y), expected)


POWER_GRAPHS = [(kind, n) for kind in ("ring", "star", "erdos-renyi") for n in (4, 12, 30, 100)]


@pytest.mark.parametrize("kind, n", POWER_GRAPHS)
def test_block_formed_powers_equal_powers_bitwise(kind, n):
    # t = 2..2000 held in blocks, in both weight rules and both modes: each
    # held lam^t equals powers(t), which squares at t = 2
    g = {"ring": build_ring, "star": build_star,
         "erdos-renyi": lambda n: build_erdos_renyi(n, 0.3, seed=n)}[kind](n)
    for rule in ("metropolis", "maxdegree"):
        cm = build_consensus_matrix(g, rule)
        for matrix in {id(m): m for m in (cm, cm.dense_twin())}.values():
            for start in range(2, 2001, 250):
                ts = list(range(start, min(start + 250, 2001)))
                matrix.hold(ts)
                assert_holds_powers(matrix, ts)


REFERENCE_METHODS = ("near-dgd-t:1", "near-dgd-t:5", "near-dgd-plus",
                     "near-dgd-plus-doubling:100", "dgd", "gradient-tracking")


def test_dense_powers_keep_the_two_product_runs_within_the_bit_contract(monkeypatch):
    # the reference instance with dense Z^t against the same runs with every
    # t >= 2 applied as two eigenbasis products (no dense matrix: at
    # CALL_COST = -inf dense_pays never holds)
    prob = sample_quartic_problem(12, 4, 4, 1.0, seed=0)
    dense, again = (build_consensus_matrix(build_ring(12)) for _ in range(2))
    monkeypatch.setattr(consensus, "CALL_COST", -math.inf)
    spectral = build_consensus_matrix(build_ring(12))
    assert dense._vt is None and spectral._vt is not None
    for token in REFERENCE_METHODS:
        method = MethodSpec.parse(token)
        a = run(prob, dense, method, alpha=0.1, budget=1000)
        b = run(prob, spectral, method, alpha=0.1, budget=1000)
        for name in ("k", "t_k", "comms", "grads"):
            assert a.trace.column(name) == b.trace.column(name), (token, name)
        np.testing.assert_array_equal(a.trace.column("cost"), b.trace.column("cost"))
        for name in FLOAT_COLUMNS:
            x, y = a.trace.column(name), b.trace.column(name)
            close = np.abs(x - y) <= 1e-12 * np.fmax(1.0, np.abs(y))
            assert np.all(close | (np.isnan(x) & np.isnan(y))), (token, name)
        assert a.max_eq7_inf <= 1e-10 and a.max_cons_gap <= 1e-12, token
        assert not (a.diverged or b.diverged), token
    # a repeated run, on the same or a fresh matrix, gives the same bits
    for token in ("near-dgd-t:5", "near-dgd-plus"):
        first, second = (run(prob, cm, MethodSpec.parse(token), alpha=0.1, budget=400)
                         for cm in (dense, again))
        np.testing.assert_array_equal(first.final_y, second.final_y)
        np.testing.assert_array_equal(first.trace.column("lyapunov"),
                                      second.trace.column("lyapunov"))


def test_matrices_and_problems_compare_by_identity():
    # the generated == compared the array fields and raised NumPy's
    # ambiguous-truth-value ValueError, and left the classes unhashable
    for build in (lambda: build_consensus_matrix(build_ring(5)),
                  lambda: sample_quartic_problem(4, 2, 1, 1.0, 0),
                  lambda: sample_quadratic_problem(4, 2, 0)):
        a, b = build(), build()
        assert a == a and a != b and len({a, a, b}) == 2


def _scaled_at(t_off):
    """checks.apply_consensus, its result doubled at t = t_off."""
    real = checks.apply_consensus
    return lambda cm, t, y: real(cm, t, y) * (2.0 if t == t_off else 1.0)


@pytest.mark.parametrize("patch, failure", [
    (lambda monkeypatch, cm: monkeypatch.setattr(checks, "apply_consensus", _scaled_at(1)),
     "expansive"),
    (lambda monkeypatch, cm: monkeypatch.setattr(cm, "beta", 0.0), "contraction bound"),
    (lambda monkeypatch, cm: monkeypatch.setattr(checks, "apply_consensus", _scaled_at(2)),
     "composition")], ids=["expansive", "contraction-bound", "composition"])
def test_consensus_check_names_each_broken_property(monkeypatch, patch, failure):
    cm = build_consensus_matrix(build_ring(12))
    patch(monkeypatch, cm)
    ok, detail = checks.check_consensus_properties(cm, np.random.default_rng(0))
    assert not ok and failure in detail.split(", ")


def test_pd_check_fails_when_an_indefinite_matrix_is_accepted(monkeypatch):
    assert checks.check_pd_rejection() == (True, "")
    monkeypatch.setattr(checks, "ConsensusMatrix", lambda w, g: None)
    assert checks.check_pd_rejection() == (False, "indefinite matrix accepted")


@pytest.mark.parametrize("n", [12, 30])
def test_consensus_check_catches_a_dense_power_off_the_two_product_form(monkeypatch, n):
    # the check judges the dense twin that repeating runs use; on a dense
    # matrix it is the matrix itself
    cm = build_consensus_matrix(build_ring(n))
    assert checks.check_consensus_properties(cm, np.random.default_rng(0)) == (True, "")
    twin = cm.dense_twin()
    form = twin._form

    def off_by_a_part_in_1e9(ts):
        return form(ts) * (1.0 + 1e-9)

    monkeypatch.setattr(twin, "_form", off_by_a_part_in_1e9)
    ok, detail = checks.check_consensus_properties(cm, np.random.default_rng(0))
    assert not ok and "two-product form" in detail


def test_average_project_examples():
    np.testing.assert_allclose(average_project(np.array([[1.0], [-1.0]])), [[0.0], [0.0]])
    y = np.array([[2.0], [4.0], [6.0]])
    np.testing.assert_allclose(average_project(y), [[4.0], [4.0], [4.0]])
    c = np.tile([1.0, 2.0], (3, 1))
    np.testing.assert_allclose(average_project(c), c)


def random_connected_graphs(count=20):
    graphs = []
    i = 0
    while len(graphs) < count:
        n = 3 + (i % 8)
        graphs.append(build_erdos_renyi(n, 0.5, seed=100 + i))
        i += 1
    return graphs


@pytest.mark.parametrize("rule", ["metropolis", "maxdegree"])
def test_invariant_suite_on_random_graphs(rule):
    for g in random_connected_graphs():
        cm = build_consensus_matrix(g, rule=rule)
        w = cm.W
        assert np.abs(w - w.T).max() <= 1e-12
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert w.min() >= -1e-12
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert (w[i, j] > 0) == ((i, j) in g.edges)
        assert cm.lambda_min > 0
        assert 0 <= cm.beta < 1
        assert cm.eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
        # eigenvector of eigenvalue 1 is the all-ones direction
        ones = np.ones(g.n) / np.sqrt(g.n)
        np.testing.assert_allclose(w @ ones, ones, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
def test_contraction_and_nonexpansiveness(seed, t):
    cm = build_consensus_matrix(build_ring(6))
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(6, 2))
    z = apply_consensus(cm, t, y)
    assert np.linalg.norm(z) <= np.linalg.norm(y) + 1e-12
    m = average_project(y)
    assert np.linalg.norm(z - m) <= cm.beta**t * np.linalg.norm(y - m) + 1e-12


def test_composition_and_mean_commute():
    cm = build_consensus_matrix(build_ring(7))
    rng = np.random.default_rng(3)
    y = rng.normal(size=(7, 3))
    a = apply_consensus(cm, 5, y)
    b = apply_consensus(cm, 2, apply_consensus(cm, 3, y))
    np.testing.assert_allclose(a, b, atol=1e-12)
    np.testing.assert_allclose(average_project(a), average_project(y), atol=1e-12)


def test_blockwise_equals_kronecker_operator():
    cm = build_consensus_matrix(build_ring(4))
    rng = np.random.default_rng(8)
    for p in (1, 2):
        y = rng.normal(size=(4, p))
        z = np.kron(cm.W @ cm.W @ cm.W, np.eye(p)) @ y.reshape(-1)
        np.testing.assert_allclose(apply_consensus(cm, 3, y).reshape(-1), z, atol=1e-12)
