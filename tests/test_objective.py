import re

import numpy as np
import pytest

from neardgd.objective import (Objective, ObjectiveError, QuadraticProblem,
                               QuadraticQuarticProblem,
                               finite_difference_grad,
                               sample_quadratic_problem,
                               sample_quartic_problem)


def small_quartic(n=1):
    """n nodes, each f_i(x) = 1/4 x_1^2 - 1/8 x_2^2 + 1/4 x_2^4 (c^2 / n = 1)."""
    return QuadraticQuarticProblem(q=np.tile([0.5, -0.25], (n, 1)), index=2, c=np.sqrt(n))


# one point per node of small_quartic(3)
POINTS = np.array([[0.0, 0.5], [0.0, 0.0], [1.0, 1.0]])


def test_stacked_value_examples():
    prob = small_quartic()
    assert prob.stacked_value([[0.0, 0.5]]) == pytest.approx(-0.015625)
    assert prob.stacked_value([[0.0, 0.0]]) == 0.0
    assert prob.stacked_value([[1.0, 1.0]]) == pytest.approx(0.375)
    prob = small_quartic(3)
    assert prob.stacked_value(POINTS) == pytest.approx(-0.015625 + 0.375)
    assert prob.stacked_value(np.tile([1.0, 1.0], (3, 1))) == pytest.approx(3 * 0.375)


def test_stacked_grad_examples():
    prob = small_quartic()
    np.testing.assert_allclose(prob.stacked_grad([[1.0, 1.0]]), [[0.5, 0.75]])
    np.testing.assert_allclose(prob.stacked_grad([[0.0, 0.5]]), [[0.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(prob.stacked_grad([[0.0, 0.0]]), [[0.0, 0.0]])
    prob = small_quartic(3)
    np.testing.assert_allclose(prob.stacked_grad(POINTS),
                               [[0.0, 0.0], [0.0, 0.0], [0.5, 0.75]], atol=1e-15)
    np.testing.assert_allclose(prob.stacked_grad(np.tile([1.0, 1.0], (3, 1))),
                               np.tile([0.5, 0.75], (3, 1)))


def test_minimizers_examples():
    plus, minus = small_quartic().minimizers()
    np.testing.assert_allclose(plus, [0.0, 0.5])
    np.testing.assert_allclose(minus, [0.0, -0.5])

    prob = QuadraticQuarticProblem(q=np.array([[0.5, -1.0]]), index=2, c=1.0)
    np.testing.assert_allclose(prob.minimizers()[0], [0.0, 1.0])
    prob = QuadraticQuarticProblem(q=np.array([[0.5, -1.0]]), index=2, c=2.0)
    np.testing.assert_allclose(prob.minimizers()[0], [0.0, 0.5])


def test_grad_vanishes_at_minimizers_and_hessian_pd():
    prob = sample_quartic_problem(6, 3, 2, 1.5, seed=11)
    for x in prob.minimizers():
        stacked = prob.stacked_grad(np.tile(x, (prob.n, 1)))
        assert np.linalg.norm(stacked.sum(axis=0)) <= 1e-12
        assert abs(prob.global_grad(x)).max() <= 1e-12
        # the Hessian of f at x is diagonal: its eigenvalues are the entries
        assert prob.node_hessian_diags(np.tile(x, (prob.n, 1))).sum(axis=0).min() > 0


def test_saddle_structure_at_origin():
    prob = sample_quartic_problem(5, 3, 3, 1.0, seed=2)
    lam = np.sort(prob.node_hessian_diags(np.zeros((5, 3))), axis=None)
    # exactly one negative direction per node block, in the quartic coordinate
    assert (lam < 0).sum() == prob.n
    assert lam[0] < 0


def test_sampling_intervals_and_determinism():
    a = sample_quartic_problem(12, 4, 4, 1.0, seed=123)
    b = sample_quartic_problem(12, 4, 4, 1.0, seed=123)
    np.testing.assert_array_equal(a.q, b.q)
    assert np.all(a.q[:, 3] > -1) and np.all(a.q[:, 3] < 0)
    others = np.delete(a.q, 3, axis=1)
    assert np.all(others > 0) and np.all(others < 1)
    c = sample_quartic_problem(12, 4, 4, 1.0, seed=124)
    assert not np.array_equal(a.q, c.q)


def test_lipschitz_examples():
    prob = small_quartic()
    assert prob.lipschitz_estimate(1.0) == pytest.approx(3.5)
    assert prob.lipschitz_estimate(1e-9) == pytest.approx(0.5, abs=1e-6)
    quad = QuadraticQuarticProblem(q=np.array([[0.5, -0.25]]), index=2, c=1e-8)
    assert quad.lipschitz_estimate(1.0) == pytest.approx(0.5, abs=1e-6)


def test_invalid_construction():
    with pytest.raises(ObjectiveError):
        QuadraticQuarticProblem(q=np.array([[0.5, 0.25]]), index=2, c=1.0)
    with pytest.raises(ObjectiveError):
        QuadraticQuarticProblem(q=np.array([[-0.5, -0.25]]), index=2, c=1.0)
    with pytest.raises(ObjectiveError):
        QuadraticQuarticProblem(q=np.array([[0.5, -0.25]]), index=3, c=1.0)


@pytest.mark.parametrize("index", [0, 5, 9, -1])
def test_sampler_rejects_an_index_outside_1_to_p(index):
    # an index past p reached q[:, index - 1] and raised IndexError
    with pytest.raises(ObjectiveError, match=r"^index %d outside 1\.\.4$" % index):
        sample_quartic_problem(12, 4, index, 1.0, 0)


@pytest.mark.parametrize("build, says", [
    (lambda: sample_quartic_problem(12, 4, 2.5, 1.0, 0), "index must be an integer, got 2.5"),
    (lambda: QuadraticQuarticProblem(q=np.array([[-0.5, 0.25]]), index=1.5, c=1.0),
     "index must be an integer, got 1.5"),
    (lambda: sample_quartic_problem(0, 4, 1, 1.0, 0), "node count must be at least 1, got 0"),
    (lambda: QuadraticQuarticProblem(q=np.empty((0, 2)), index=1, c=1.0),
     "node count must be at least 1, got 0")],
    ids=["fractional-index-sampler", "fractional-index-constructor", "no-nodes-sampler",
         "no-nodes-constructor"])
def test_quartic_family_rejects_a_fractional_index_or_no_nodes(build, says):
    # these raised IndexError and ZeroDivisionError
    with pytest.raises(ObjectiveError, match="^%s$" % re.escape(says)):
        build()


@pytest.mark.parametrize("build, says", [
    (lambda: sample_quadratic_problem(0, 2, 0), "node count must be at least 1, got 0"),
    (lambda: QuadraticProblem(b=np.array([[np.nan, 1.0]])), "the targets b must be finite, got nan"),
    (lambda: sample_quartic_problem(2.5, 4, 2, 1.0, 0), "node count must be an integer, got 2.5"),
    (lambda: sample_quadratic_problem(2.5, 2, 0), "node count must be an integer, got 2.5"),
    (lambda: QuadraticQuarticProblem(q=np.array([-0.5, 0.25]), index=1, c=1.0),
     "the diagonals q must be an (n, p) array, got shape (2,)"),
    (lambda: sample_quartic_problem(3, 0, 1, 1.0, 0), "coordinate count must be at least 1, got 0"),
    (lambda: QuadraticQuarticProblem(q=np.array([[-np.inf, 1.0]]), index=1, c=1.0),
     "the diagonals q must be finite, got -inf")],
    ids=["no-nodes-quadratic-sampler", "nan-target", "fractional-n-quartic-sampler",
         "fractional-n-quadratic-sampler", "one-dimensional-q", "no-coordinates-quartic-sampler",
         "infinite-q"])
def test_both_families_reject_bad_sizes_and_coefficients(build, says):
    # an empty problem had a nan f*, NumPy raised TypeError on a fractional
    # n, a 1-D q failed to unpack, and p = 0 was reported as a bad index
    with pytest.raises(ObjectiveError, match="^%s$" % re.escape(says)):
        build()


def test_stacked_oracles_reject_a_wrong_shape():
    prob = sample_quartic_problem(12, 4, 4, 1.0, 0)
    with pytest.raises(ObjectiveError, match=re.escape("expected shape (..., 12, 4), got (3, 4)")):
        prob.stacked_value(np.zeros((3, 4)))
    # stacked_grad takes stacks too, and tests the trailing shape of lists
    # and float32 arrays after their conversion
    for bad in (np.zeros((2, 12, 3)), np.zeros((12, 4, 1)), np.zeros(48), np.float64(1.0),
                np.zeros((2, 4, 12), dtype=np.float32), [[0.0] * 4] * 11):
        with pytest.raises(ObjectiveError, match=re.escape(
                "expected shape (..., 12, 4), got %r" % (np.shape(bad),))):
            prob.stacked_grad(bad)


@pytest.mark.parametrize("family", ["quartic", "quadratic"])
def test_stacked_grad_of_a_stack_equals_its_per_iterate_calls(family):
    prob = (sample_quartic_problem(12, 4, 4, 1.0, 0) if family == "quartic"
            else sample_quadratic_problem(12, 4, 0))
    x = np.random.default_rng(5).uniform(-3.0, 3.0, size=(3, 5, 12, 4))
    # a strided view, as a batch's slot across its cells' buffers is
    stack = x[:, ::2]
    grads = prob.stacked_grad(stack)
    assert grads.shape == stack.shape
    for index in np.ndindex(stack.shape[:2]):
        np.testing.assert_array_equal(grads[index], prob.stacked_grad(stack[index]))
        np.testing.assert_array_equal(grads[index], prob.stacked_grad(stack[index].tolist()))


@pytest.mark.parametrize("family", ["quartic", "quadratic"])
def test_tiled_stacked_grad_equals_the_per_iterate_calls(family):
    prob = (sample_quartic_problem(12, 4, 4, 1.0, 0) if family == "quartic"
            else sample_quadratic_problem(12, 4, 0))
    names = ("q", "_quartic") if family == "quartic" else ("b",)
    originals = {name: getattr(prob, name).copy() for name in names}
    rng = np.random.default_rng(9)
    for cells in range(1, 9):
        tiled = prob.tiled((cells,))
        for name in names:
            coefficients = getattr(tiled, name)
            assert coefficients.shape == (cells, 12, 4) and coefficients.flags.c_contiguous
            # the original keeps its own (n, p) arrays
            assert getattr(prob, name).shape == (12, 4)
            assert getattr(prob, name).tobytes() == originals[name].tobytes()
        # slot 3 of cells buffers of 5 slots each: a strided view, as a
        # batch's slot across its cells' buffers is
        slot = rng.uniform(-3.0, 3.0, size=(cells, 5, 12, 4))[:, 3]
        grads = tiled.stacked_grad(slot)
        assert grads.shape == slot.shape
        for b in range(cells):
            assert grads[b].tobytes() == prob.stacked_grad(slot[b]).tobytes()


@pytest.mark.parametrize("family", ["quartic", "quadratic"])
def test_stacked_grad_into_out_returns_out_with_the_bits_of_its_checked_call(family):
    # with out, the gradient goes into out by the same elementwise operations:
    # one iterate, a stack and a tiled twin's stack, with strided slot views
    # as x and as out, and NaN of both signs, +-inf and -0.0 among the entries
    prob = (sample_quartic_problem(12, 4, 4, 1.0, 0) if family == "quartic"
            else sample_quadratic_problem(12, 4, 0))
    buffers = np.random.default_rng(13).uniform(-3.0, 3.0, size=(3, 5, 12, 4))
    buffers[:, :, 0, :] = [np.nan, -np.nan, np.inf, -np.inf]
    buffers[:, :, 1, :2] = [-0.0, 0.0]
    outs = np.empty_like(buffers)
    cases = [(prob, buffers[1, 2], np.empty((12, 4))),       # one C-ordered iterate
             (prob, buffers[1, 2], outs[1, 2]),
             (prob, buffers[:, ::2], np.empty((3, 3, 12, 4))),  # a strided stack
             (prob, buffers[:, 3], outs[:, 1]),                 # strided slot views
             (prob.tiled((3,)), buffers[:, 3], outs[:, 1]),
             (prob.tiled((3,)), buffers[:, 3], np.empty((3, 12, 4)))]
    with np.errstate(all="ignore"):  # inf * 0 and inf - inf
        for objective, x, out in cases:
            out.fill(7.0)
            got = objective.stacked_grad(x, out)
            assert got is out
            assert got.tobytes() == objective.stacked_grad(x).tobytes()
            assert got.tobytes() == prob.stacked_grad(x).tobytes()


def test_a_family_without_gradient_coefficients_is_not_tiled():
    class Linear(Objective):
        n, p = 2, 3

        def node_grads(self, x, out=None):
            return np.ones(np.shape(x))

    prob = Linear()
    assert prob.tiled((4,)) is prob


def test_a_family_whose_node_grads_takes_no_out_is_refused_when_defined():
    # the lone NEAR-DGD loop calls node_grads(x, out); a family without out
    # would fail there with a bare TypeError, so its class is refused instead
    with pytest.raises(TypeError, match=re.escape(
            "XOnly.node_grads must take (x, out=None), as the Objective contract asks; "
            "it has the signature (self, x)")):
        class XOnly(Objective):
            def node_grads(self, x):
                return x

    class Variadic(Objective):  # out may come through *args
        n, p = 1, 1

        def node_grads(self, x, *args):
            return np.multiply(x, 2.0, *args)

    out = np.empty((1, 1))
    assert Variadic().stacked_grad(np.ones((1, 1)), out) is out
    assert out[0, 0] == 2.0


@pytest.mark.parametrize("c, says", [
    (1e155, "c^2/n finite and nonzero"),  # c**2 overflows
    (1e-200, "c^2/n finite and nonzero"),  # c^2/n underflows to 0; f* would be -inf
    (1e-160, "finite minimum value f*")])  # c^2/n is subnormal; the minimizer's x^2 overflows
def test_c_outside_the_float_range_is_rejected(c, says):
    with pytest.raises(ObjectiveError, match=re.escape("%s, got %r" % (says, c))):
        QuadraticQuarticProblem(q=np.array([[0.5, -0.25]]), index=2, c=c)


def test_quadratic_problem():
    prob = sample_quadratic_problem(2, 1, seed=0)
    prob.b = np.array([[0.0], [2.0]])
    np.testing.assert_allclose(prob.minimizers()[0], [1.0])
    zero = sample_quadratic_problem(3, 2, seed=1)
    zero.b = np.zeros((3, 2))
    np.testing.assert_allclose(zero.minimizers()[0], [0.0, 0.0])
    a = sample_quadratic_problem(4, 2, seed=5)
    b = sample_quadratic_problem(4, 2, seed=5)
    np.testing.assert_array_equal(a.b, b.b)


@pytest.mark.parametrize("factory", [
    lambda: sample_quartic_problem(4, 3, 2, 1.3, seed=7),
    lambda: sample_quadratic_problem(4, 3, seed=7),
])
def test_gradient_matches_finite_differences(factory):
    prob = factory()
    rng = np.random.default_rng(42)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=(prob.n, prob.p))
        fd = finite_difference_grad(prob.stacked_value, x, step=1e-5)
        err = np.abs(prob.stacked_grad(x) - fd).max() / max(1.0, np.abs(fd).max())
        assert err <= 1e-6


def test_hessian_vector_matches_gradient_differences():
    prob = sample_quartic_problem(4, 3, 2, 1.3, seed=7)
    rng = np.random.default_rng(1)
    step = 1e-5
    for _ in range(10):
        x = rng.uniform(-1, 1, size=(prob.n, prob.p))
        v = rng.normal(size=(prob.n, prob.p))
        hv = prob.node_hessian_diags(x) * v
        fd = (prob.stacked_grad(x + step * v) - prob.stacked_grad(x - step * v)) / (2 * step)
        assert np.abs(hv - fd).max() / max(1.0, np.abs(fd).max()) <= 1e-6


@pytest.mark.parametrize("factory", [
    lambda: sample_quartic_problem(4, 3, 2, 1.3, seed=7),
    lambda: sample_quadratic_problem(4, 3, seed=7),
])
def test_global_oracles_are_stacked_oracles_at_consensus(factory):
    prob = factory()
    n, p = prob.n, prob.p
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.uniform(-1, 1, size=p)
        x = np.tile(v, (n, 1))
        assert prob.global_value(v) == pytest.approx(prob.stacked_value(x), rel=1e-14)
        np.testing.assert_allclose(prob.global_grad(v), prob.stacked_grad(x).sum(axis=0),
                                   rtol=1e-14, atol=1e-15)
    for bad in (np.zeros(p + 1), np.zeros((1, p)), np.zeros((n, p))):
        for oracle in (prob.global_value, prob.global_grad):
            with pytest.raises(ObjectiveError):
                oracle(bad)


@pytest.mark.parametrize("factory", [
    lambda: sample_quartic_problem(4, 3, 2, 1.3, seed=7),
    lambda: sample_quadratic_problem(4, 3, seed=7),
], ids=["quartic", "quadratic"])
def test_primitives_take_a_leading_batch_axis(factory):
    prob = factory()
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, size=(5, prob.n, prob.p))
    # a broadcast view, as batch_value_and_grad_norm passes, as well
    v = rng.uniform(-1, 1, size=(5, prob.p))
    at_consensus = np.broadcast_to(v[:, None, :], x.shape)
    for batch in (x, at_consensus):
        for primitive in (prob.node_values, prob.node_grads, prob.node_hessian_diags):
            whole = primitive(batch)
            assert whole.shape[0] == len(batch)
            for b in range(len(batch)):
                np.testing.assert_array_equal(whole[b], primitive(np.array(batch[b])))


def test_quartic_oracles_match_power_formulas():
    prob = sample_quartic_problem(5, 3, 2, 1.3, seed=4)
    q, ii, k = prob.q, prob.index - 1, prob.c**2 / prob.n

    def values(x):
        return 0.5 * (q * x**2).sum(axis=-1) + (k / 4.0) * x[..., ii] ** 4

    def grads(x):
        g = q * x
        g[..., ii] += k * x[..., ii] ** 3
        return g

    def hessian_diags(x):
        h = q + 0.0 * x
        h[..., ii] += 3.0 * k * x[..., ii] ** 2
        return h

    rng = np.random.default_rng(6)
    stack = rng.uniform(-3, 3, size=(4, 5, 3))
    read_only = np.broadcast_to(rng.uniform(-3, 3, size=(4, 1, 3)), (4, 5, 3))
    assert not read_only.flags.writeable
    for x in (stack[0], stack, read_only):
        kept = x.copy()
        for fused, reference in ((prob.node_values, values), (prob.node_grads, grads),
                                 (prob.node_hessian_diags, hessian_diags)):
            got, want = fused(x), reference(x)
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))
        np.testing.assert_array_equal(x, kept)


@pytest.mark.parametrize("n", [1, 12, 100])
@pytest.mark.parametrize("p", [1, 4, 9])
def test_quartic_oracles_equal_the_broadcast_row_formulas_bitwise(n, p):
    # the oracles keep c^2 / n in column I of a full (n, p) array; written
    # with a (p,) row broadcast over the nodes instead, every entry is the
    # same product, so the bits are the same
    prob = sample_quartic_problem(n, p, (p + 1) // 2, 1.7, seed=n + p)
    q, row = prob.q, np.zeros(p)
    row[prob.index - 1] = prob.c**2 / n

    def values(x):
        x2 = x * x
        return ((0.5 * q + (0.25 * row) * x2) * x2).sum(axis=-1)

    def grads(x):
        return x * (q + row * (x * x))

    def hessian_diags(x):
        return q + (3.0 * row) * (x * x)

    stack = np.random.default_rng(p).uniform(-3, 3, size=(5, n, p))
    for x in (stack[0], stack):
        for oracle, formula in ((prob.node_values, values), (prob.node_grads, grads),
                                (prob.node_hessian_diags, hessian_diags)):
            got, want = oracle(x), formula(x)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("factory", [
    lambda: sample_quartic_problem(4, 3, 2, 1.3, seed=7),
    lambda: sample_quadratic_problem(4, 3, seed=7),
], ids=["quartic", "quadratic"])
def test_batch_value_and_grad_norm_matches_global_oracles(factory):
    prob = factory()
    v = np.random.default_rng(3).uniform(-2, 2, size=(7, prob.p))
    values, grad_norms = prob.batch_value_and_grad_norm(v)
    assert values.shape == grad_norms.shape == (7,)
    for j in range(7):
        assert values[j] == prob.global_value(v[j])
        assert grad_norms[j] == np.linalg.norm(prob.global_grad(v[j]))
    empty_values, empty_norms = prob.batch_value_and_grad_norm(np.zeros((0, prob.p)))
    assert empty_values.shape == empty_norms.shape == (0,)
    for bad in (np.zeros(prob.p), np.zeros((2, prob.p + 1)), np.zeros((1, prob.n, prob.p))):
        with pytest.raises(ObjectiveError):
            prob.batch_value_and_grad_norm(bad)
