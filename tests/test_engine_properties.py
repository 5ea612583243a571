"""Engine invariants of run() over drawn methods, budgets, block sizes, graphs,
sizes and weight rules.

run() must give the same values, bit for bit, for any block size, on a
repeated run and as one cell of a batch beside a second drawn cell, and end
where the reference iterations of reference_steps end:
at the same k, with the same divergence note, final iterate and tallies,
whether it runs out of budget, stops on grad_tol or leaves the box, on the
kernel that dense_pays picks for the run: the matrix or its dense twin. Every
row's tallies are those of the reference, and every certificate a run
evaluates holds on the runs with alpha < 2/L that stay in the box.
"""

import functools
import io
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from neardgd import checks, optimizer
from neardgd.consensus import build_consensus_matrix, dense_pays
from neardgd.graph import build_erdos_renyi, build_ring, build_star
from neardgd.objective import sample_quartic_problem
from neardgd.optimizer import MethodSpec, initial_point, run, run_batch
from reference_steps import run_end

TOKENS = ("near-dgd-t:1", "near-dgd-t:3", "near-dgd-plus", "near-dgd-plus-doubling:4",
          "dgd", "gradient-tracking")
# (n, p): the reference instance, shapes whose buffer slots are not 16-byte
# aligned or hold a single column, and two-product matrices on which
# near-dgd-plus runs on the dense twin (20, 4) and on the matrix (30, 2); or
# any n from 3 to 40 with p = 1 or 4, on both sides of consensus.dense_pays
# for every method
SHAPES = ((12, 4), (5, 1), (7, 3), (20, 4), (30, 2))
# each shape on a ring, a star and an Erdos-Renyi graph under either weight
# rule, so that both memos run on six kinds of spectrum
GRAPHS = {"ring": build_ring, "star": build_star,
          "erdos-renyi": lambda n: build_erdos_renyi(n, 0.5, seed=n)}


@functools.lru_cache(maxsize=None)
def instance(kind, rule, n, p):
    return (sample_quartic_problem(n, p, p, 1.0, seed=0),
            build_consensus_matrix(GRAPHS[kind](n), rule))


def fingerprint(res):
    buf = io.StringIO()
    res.trace.write_csv_to(buf)
    return (buf.getvalue(), res.trace.diverged, res.trace.divergence_note,
            res.final_y.tobytes(), res.final_x.tobytes(), res.final_avg.tobytes(),
            repr(res.b_y), repr(res.max_cons_gap), repr(res.max_eq7_inf),
            res.counter.consensus_rounds, res.counter.gradient_evals)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(token=st.sampled_from(TOKENS), graph=st.sampled_from(sorted(GRAPHS)),
       rule=st.sampled_from(["metropolis", "maxdegree"]),
       shape=st.sampled_from(SHAPES) | st.tuples(st.integers(3, 40), st.sampled_from([1, 4])),
       budget=st.integers(0, 120), rows=st.integers(1, 64), seed=st.integers(0, 3),
       grad_tol=st.none() | st.sampled_from([1.0, 0.3, 0.1]),
       large_alpha=st.booleans(), alpha_draw=st.floats(0.05, 0.95),
       other_token=st.sampled_from(TOKENS), other_seed=st.integers(0, 3))
def test_run_is_block_size_free_and_ends_where_the_reference_does(
        token, graph, rule, shape, budget, rows, seed, grad_tol, large_alpha, alpha_draw,
        other_token, other_seed):
    prob, cm = instance(graph, rule, *shape)
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
    assert fingerprint(run(prob, cm, method, **kwargs)) == fingerprint(reference)
    with mock.patch.object(optimizer, "BLOCK_ELEMENTS", rows * prob.n * prob.p):
        blocked = run(prob, cm, method, **kwargs)
    assert fingerprint(blocked) == fingerprint(reference)
    # each cell of a batch of two is its own run()
    other = MethodSpec.parse(other_token)
    options = dict(kwargs)
    del options["seed"]
    batch = run_batch(prob, cm, [(method, seed), (other, other_seed)], **options)
    assert fingerprint(batch[0]) == fingerprint(reference)
    assert fingerprint(batch[1]) == fingerprint(run(prob, cm, other, seed=other_seed, **options))

    twin = method.near_dgd and dense_pays(prob.n, prob.p, method.repeats(budget))
    end = run_end(prob, cm.dense_twin() if twin else cm, method, alpha, budget,
                  initial_point(prob.n, prob.p, seed), box_radius, grad_tol)
    records = reference.trace.records
    assert [rec.k for rec in records] == [step.k for step in end.steps] + [end.k]
    assert reference.trace.diverged == bool(end.note)
    assert reference.trace.divergence_note == end.note
    assert reference.final_y.tobytes() == end.y.tobytes()
    # row k's tallies follow iteration k; the terminal row repeats the last
    assert [(rec.t_k, rec.comms, rec.grads) for rec in records[:-1]] == [
        (step.t, step.comms, step.grads) for step in end.steps]
    assert (records[-1].t_k, records[-1].comms, records[-1].grads) == (
        method.rounds(end.k), *end.tallies)
    assert (reference.counter.consensus_rounds, reference.counter.gradient_evals) == end.tallies

    if not large_alpha and not reference.diverged:
        # every certificate the run evaluates holds, judged as `neardgd check` judges it
        verdicts = checks.certificate_verdicts(reference, method)
        assert not [(name, detail) for name, ok, detail in verdicts
                    if ok is not None and not ok]
        gap = np.abs(reference.final_x.mean(axis=0) - reference.final_y.mean(axis=0)).max()
        assert gap <= 1e-12
