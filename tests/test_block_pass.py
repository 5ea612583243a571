"""The block pass's array functions under added leading axes.

_box_exit, _trace_floats, _descent_rows and _eq7_rows take (rows + 1, n, p)
slot stacks of one cell, and must give the same bits row by row and cell by
cell: each row of a call equals that row's one-row call, and a (B, rows + 1,
n, p) stack of cells gives each cell's own result. The slots are those of
real iterations, from reference_steps, on rings, stars and Erdos-Renyi
graphs, for a fixed t and for near-dgd-plus, whose t changes every row.
"""

import math

import numpy as np
import pytest

from neardgd import optimizer
from neardgd.consensus import build_consensus_matrix
from neardgd.diagnostics import CostModel, lyapunov_value_at, rho_constant
from neardgd.graph import build_erdos_renyi, build_ring, build_star
from neardgd.objective import sample_quartic_problem
from neardgd.optimizer import MethodSpec, initial_point
from reference_steps import iterations

ALPHA, CELLS, ROWS = 0.1, 3, 5
GRAPHS = {"ring": build_ring, "star": build_star,
          "erdos-renyi": lambda n: build_erdos_renyi(n, 0.3, seed=n)}
SHAPES = [(kind, n, p) for kind in GRAPHS for n in (12, 30, 100) for p in (1, 4)]
CASES = [shape + (token,) for shape in SHAPES for token in ("near-dgd-t:5", "near-dgd-plus")]


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def block(kind, n, p, token):
    """The problem and matrix of a case, the block's ts = [t_0, ..., t_ROWS],
    and the (CELLS, ROWS + 1, n, p) slots Y and X of CELLS runs of the
    method from seeds 0, 1, 2: Y[b, i] = y_i and X[b, i] = x_i."""
    prob = sample_quartic_problem(n, p, p, math.sqrt(n / 12.0), seed=0)
    cm = build_consensus_matrix(GRAPHS[kind](n))
    method = MethodSpec.parse(token)
    Y, X = np.empty((2, CELLS, ROWS + 1, n, p))
    for b in range(CELLS):
        y = initial_point(n, p, b)
        for i, step in zip(range(ROWS + 1), iterations(prob, cm, method, ALPHA, y)):
            Y[b, i], X[b, i], y = y, step.x, step.y_next
    return prob, cm, method.schedule(0, ROWS + 1), Y, X


@pytest.mark.parametrize("kind, n, p", SHAPES)
def test_box_exit_gives_each_slot_and_cell_its_own_peak(kind, n, p):
    _, _, _, Y, _ = block(kind, n, p, "near-dgd-plus")
    assert optimizer._box_exit(Y, 4.0) is None
    Y[1, 3, n // 2, p - 1] = -5.0  # cell 1 leaves the box at slot 3, cell 2 at slot 2
    Y[2, 2, 0, 0] = math.nan
    peaks = optimizer._box_exit(Y, 4.0)
    assert peaks.shape == (CELLS, ROWS + 1)
    assert optimizer._box_exit(Y[0], 4.0) is None
    for b in (1, 2):
        assert bits(optimizer._box_exit(Y[b], 4.0)) == bits(peaks[b])
        for i in range(ROWS + 1):
            alone = optimizer._box_exit(Y[b, i:i + 1], 4.0)
            if alone is not None:
                assert bits(alone) == bits(peaks[b, i:i + 1])
    assert peaks[1, 3] == 5.0 and math.isnan(peaks[2, 2])


@pytest.mark.parametrize("kind, n, p, token", CASES)
def test_trace_floats_of_a_stack_are_each_row_and_cells_own(kind, n, p, token):
    prob, _, ts, _, X = block(kind, n, p, token)
    comms = list(np.cumsum(ts[:ROWS]).tolist())
    grads = range(1, ROWS + 1)

    def floats(points, rows):
        return optimizer._trace_floats(prob, prob.min_value(), CostModel(0.01, 1.0), points,
                                       comms[rows], grads[rows], -0.5)

    stack = floats(X[:, :ROWS], slice(None))
    assert stack.shape == (CELLS, ROWS, len(optimizer.FLOAT_COLUMNS))
    for b in range(CELLS):
        assert bits(floats(X[b, :ROWS], slice(None))) == bits(stack[b])
        for i in range(ROWS):
            assert bits(floats(X[b, i:i + 1], slice(i, i + 1))) == bits(stack[b, i:i + 1])


def descent_inputs(prob, cm, ts, Y, X):
    """lyap of slot 0, rho and changes of a block, as the pass forms them."""
    lyap = lyapunov_value_at(Y[:, 0], X[:, 0], prob, ALPHA)
    rho = rho_constant(cm, ts[:ROWS], ALPHA, prob.lipschitz_estimate(4.0))
    if len(set(ts)) == 1:
        return lyap, float(rho[0]), None
    return lyap, rho, (slice(None), ts[:ROWS])  # near-dgd-plus: every row changes t


@pytest.mark.parametrize("kind, n, p, token", CASES)
def test_descent_rows_of_a_block_are_each_rows_own(kind, n, p, token):
    prob, cm, ts, Y, X = block(kind, n, p, token)
    lyap, rho, changes = descent_inputs(prob, cm, ts, Y, X)
    for b in range(CELLS):
        lyaps, residuals = optimizer._descent_rows(prob, cm, ALPHA, lyap[b], Y[b], X[b], rho,
                                                   changes)
        for i in range(ROWS):
            one = (slice(None), ts[i:i + 1]) if changes else None
            row = optimizer._descent_rows(prob, cm, ALPHA, lyaps[i], Y[b, i:i + 2],
                                          X[b, i:i + 2], np.take(rho, [i]) if changes else rho,
                                          one)
            assert bits(row[0]) == bits(lyaps[i:i + 2])
            assert bits(row[1]) == bits(residuals[i:i + 1])


@pytest.mark.parametrize("kind, n, p", SHAPES)
def test_descent_rows_of_a_fixed_t_stack_are_each_cells_own(kind, n, p):
    # a block of one t alone: where t changes, cm.apply_each takes one
    # (rows, n, p) stack, not a stack of cells
    prob, cm, ts, Y, X = block(kind, n, p, "near-dgd-t:5")
    lyap, rho, changes = descent_inputs(prob, cm, ts, Y, X)
    lyaps, residuals = optimizer._descent_rows(prob, cm, ALPHA, lyap, Y, X, rho, changes)
    assert lyaps.shape == (CELLS, ROWS + 1) and residuals.shape == (CELLS, ROWS)
    for b in range(CELLS):
        cell = optimizer._descent_rows(prob, cm, ALPHA, lyap[b], Y[b], X[b], rho, changes)
        assert bits(cell[0]) == bits(lyaps[b]) and bits(cell[1]) == bits(residuals[b])


@pytest.mark.parametrize("kind, n, p", SHAPES)
def test_eq7_rows_of_a_stack_are_each_row_and_cells_own(kind, n, p):
    prob, cm, _, Y, X = block(kind, n, p, "near-dgd-t:5")
    stack = optimizer._eq7_rows(prob, cm, 5, ALPHA, Y, X)
    assert stack.shape == (CELLS, ROWS)
    assert stack.max() < 1e-12  # the slots are NEAR-DGD's, so Eq. 7 holds on them
    for b in range(CELLS):
        assert bits(optimizer._eq7_rows(prob, cm, 5, ALPHA, Y[b], X[b])) == bits(stack[b])
        for i in range(ROWS):
            row = optimizer._eq7_rows(prob, cm, 5, ALPHA, Y[b, i:i + 2], X[b, i:i + 2])
            assert bits(row) == bits(stack[b, i:i + 1])
