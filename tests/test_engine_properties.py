"""Engine invariants of run() over drawn methods, budgets and block sizes.

run() must give the same values, bit for bit, for any block size, and end
where a hand loop of the step functions ends: at the same k, with the same
divergence note and final iterate, whether it runs out of budget, stops on
grad_tol or leaves the box.
"""

import io
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from neardgd import optimizer
from neardgd.consensus import CommCounter, build_consensus_matrix
from neardgd.graph import build_ring
from neardgd.objective import sample_quartic_problem
from neardgd.optimizer import (MethodSpec, dgd_step, gradient_tracking_step,
                               initial_point, near_dgd_step, run)

TOKENS = ("near-dgd-t:1", "near-dgd-t:3", "near-dgd-plus", "near-dgd-plus-doubling:4",
          "dgd", "gradient-tracking")
# (n, p): the reference instance, and shapes whose buffer slots are not
# 16-byte aligned or hold a single column
SHAPES = ((12, 4), (5, 1), (7, 3))
INSTANCES = {(n, p): (sample_quartic_problem(n, p, p, 1.0, seed=0),
                      build_consensus_matrix(build_ring(n))) for n, p in SHAPES}


def fingerprint(res):
    buf = io.StringIO()
    res.trace.write_csv_to(buf)
    return (buf.getvalue(), res.trace.diverged, res.trace.divergence_note,
            res.final_y.tobytes(), res.final_x.tobytes(), res.final_avg.tobytes(),
            repr(res.b_y), repr(res.max_cons_gap), repr(res.max_eq7_inf),
            res.counter.consensus_rounds, res.counter.gradient_evals)


def hand_loop(prob, cm, method, alpha, budget, seed, grad_tol, box_radius):
    """run()'s end decisions, one iteration at a time with the step
    functions: returns (k, note, y_k, counter) where the run ends."""
    counter = CommCounter()
    y = initial_point(prob.n, prob.p, seed)
    iterations = budget
    if method.name == "gradient-tracking":
        iterations = budget - 1 if budget >= 2 else 0
        if iterations:
            s = grad = optimizer.gradient(y, prob, counter)
    for k in range(iterations):
        if method.name.startswith("near-dgd"):
            x, y_next = near_dgd_step(y, prob, cm, method.rounds(k), alpha, counter)
        elif method.name == "dgd":
            x, y_next = y, dgd_step(y, prob, cm, alpha, counter)
        else:
            x = y
            y_next, s, grad = gradient_tracking_step(y, s, grad, prob, cm, alpha, counter)
        peak = np.abs(y_next).max()
        if not peak <= box_radius:  # the run counts the step that left the box
            return k, ("iteration %d: |y|_inf = %g left the box |y|_inf <= %g; Lipschitz "
                       "estimate no longer valid" % (k, peak, box_radius)), y, counter
        grad_norm = np.linalg.norm(prob.global_grad(x.mean(axis=0)))
        y = y_next
        if grad_tol is not None and grad_norm <= grad_tol:
            return k + 1, "", y, counter
    return iterations, "", y, counter


@settings(max_examples=200, deadline=None, derandomize=True)
@given(token=st.sampled_from(TOKENS), shape=st.sampled_from(SHAPES),
       budget=st.integers(0, 120), rows=st.integers(1, 64), seed=st.integers(0, 3),
       grad_tol=st.none() | st.sampled_from([1.0, 0.3, 0.1]),
       large_alpha=st.booleans(), alpha_draw=st.floats(0.05, 0.95))
def test_run_is_block_size_free_and_ends_where_the_step_functions_do(
        token, shape, budget, rows, seed, grad_tol, large_alpha, alpha_draw):
    prob, cm = INSTANCES[shape]
    method = MethodSpec.parse(token)
    if large_alpha:
        # above 2/L on a small box: most of these runs leave it
        box_radius = 2.5
        lipschitz = prob.lipschitz_estimate(box_radius)
        alpha = (2.0 + 2.0 * alpha_draw) / lipschitz
    else:
        box_radius = optimizer.INIT_BOUND * optimizer.BOX_INFLATION
        alpha = 1.9 * alpha_draw / prob.lipschitz_estimate(box_radius)
    kwargs = dict(alpha=alpha, budget=budget, seed=seed, grad_tol=grad_tol,
                  allow_large_alpha=large_alpha, box_radius=box_radius)

    reference = run(prob, cm, method, **kwargs)
    with mock.patch.object(optimizer, "BLOCK_ELEMENTS", rows * prob.n * prob.p):
        blocked = run(prob, cm, method, **kwargs)
    assert fingerprint(blocked) == fingerprint(reference)

    k, note, y, counter = hand_loop(prob, cm, method, alpha, budget, seed, grad_tol,
                                    box_radius)
    assert reference.trace.final.k == k
    assert [rec.k for rec in reference.trace.records][-1] == k
    assert reference.trace.diverged == bool(note)
    assert reference.trace.divergence_note == note
    assert reference.final_y.tobytes() == y.tobytes()
    assert (reference.counter.consensus_rounds, reference.counter.gradient_evals) == (
        counter.consensus_rounds, counter.gradient_evals)
