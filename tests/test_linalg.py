import numpy as np
import pytest

from neardgd.consensus import metropolis_weights
from neardgd.graph import build_ring
from neardgd.linalg import (SymmetryError, mean_rows, sum_last, sym_eigen, sym_eigvals,
                            sym_power)

W2 = np.array([[0.6, 0.4], [0.4, 0.6]])


def test_identity_spectrum():
    spec = sym_eigen(np.eye(3))
    np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0])


def test_two_by_two_spectrum():
    spec = sym_eigen(W2)
    np.testing.assert_allclose(spec.eigenvalues, [0.2, 1.0], atol=1e-14)


def test_ring4_metropolis_circulant_spectrum():
    w = metropolis_weights(build_ring(4))
    expected = np.sort(1.0 / 3.0 + (2.0 / 3.0) * np.cos(2 * np.pi * np.arange(4) / 4))
    np.testing.assert_allclose(sym_eigen(w).eigenvalues, expected, atol=1e-12)


def test_rejects_asymmetric():
    with pytest.raises(SymmetryError):
        sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("n,seed", [(3, 0), (6, 1), (10, 2), (25, 3)])
def test_matches_numpy_eigh(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a = (a + a.T) / 2
    spec = sym_eigen(a)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(a),
                               atol=1e-9 * max(1.0, np.linalg.norm(a)))
    # reconstruction residual for every computed pair
    for i in range(n):
        v = spec.eigenvectors[:, i]
        assert np.linalg.norm(a @ v - spec.eigenvalues[i] * v) <= 1e-8 * np.linalg.norm(a)
    np.testing.assert_allclose(spec.eigenvectors.T @ spec.eigenvectors, np.eye(n),
                               atol=1e-10)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(7, 7))
    a = a + a.T
    assert abs(sym_eigen(a).eigenvalues.sum() - np.trace(a)) <= 1e-10 * max(1, abs(np.trace(a)))


def test_stack_decomposes_each_matrix():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(3, 5, 5))
    a = a + np.swapaxes(a, -1, -2)
    spec = sym_eigen(a)
    assert spec.eigenvalues.shape == (3, 5) and spec.eigenvectors.shape == (3, 5, 5)
    for k in range(3):
        np.testing.assert_array_equal(spec.eigenvalues[k], sym_eigen(a[k]).eigenvalues)
    a[1, 0, 4] += 1.0
    with pytest.raises(SymmetryError):
        sym_eigen(a)
    with pytest.raises(SymmetryError):
        sym_eigen(np.zeros((2, 3, 4)))


def test_sym_power_integer_and_half():
    wt = sym_power(W2, 3)
    np.testing.assert_allclose(wt, W2 @ W2 @ W2, atol=1e-12)
    half = sym_power(W2, 0.5)
    np.testing.assert_allclose(half @ half, W2, atol=1e-12)


def test_eigvals_agree_with_the_full_decomposition():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 12, 12))
    a = a + np.swapaxes(a, -1, -2)
    lam = sym_eigvals(a)
    assert lam.shape == (4, 12)
    assert np.all(np.diff(lam, axis=-1) >= 0)  # ascending
    np.testing.assert_allclose(lam, sym_eigen(a).eigenvalues, rtol=0,
                               atol=1e-12 * np.abs(lam).max())
    np.testing.assert_allclose(sym_eigvals(W2), [0.2, 1.0], atol=1e-14)
    with pytest.raises(SymmetryError):
        sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(SymmetryError):
        sym_eigvals(np.zeros((2, 3)))


SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, 5e-324])


def _layouts(a):
    """a (C-ordered), an F-ordered copy and a strided view holding a's
    values, and 2-D, row-sliced, 1-D and reversed views of a."""
    padded = np.zeros(tuple(2 * d for d in a.shape))
    view = padded[tuple(slice(None, None, 2) for _ in a.shape)]
    view[...] = a
    return (("C-ordered", a), ("F-ordered", np.asfortranarray(a)), ("strided", view),
            ("2-D", a[0]), ("row slice", a[:, min(3, a.shape[1] - 1)]), ("1-D", a[0, 0]),
            ("reversed", a[::-1, ::-1]))


@pytest.mark.parametrize("length", range(1, 13))
def test_sum_last_equals_numpy_sum_bitwise(length):
    # NaNs of both signs, infinities of both signs (whose sum is a third
    # NaN), signed zeros, overflow and a subnormal: the bits, sign of zero
    # and of NaN included, are the reduction's on every layout
    rng = np.random.default_rng(length)
    for trial in range(10):
        a = rng.standard_normal((7, 11, length)) * np.exp(rng.uniform(-30, 30, (7, 11, length)))
        special = rng.uniform(size=a.shape) < 0.1 * (trial % 5)
        a[special] = rng.choice(SPECIALS, size=int(special.sum()))
        with np.errstate(invalid="ignore", over="ignore"):
            for layout, b in _layouts(a):
                want, got = b.sum(axis=-1), sum_last(b)
                assert np.shape(got) == np.shape(want), layout
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), layout


@pytest.mark.parametrize("n", [1, 2, 12, 100])
@pytest.mark.parametrize("length", range(1, 13))
def test_mean_rows_equals_numpy_mean_bitwise(n, length):
    # the same specials as above: where NaNs of both signs meet in a column
    # the fast path's sum differs from the reduction's, and mean_rows must
    # still give the reduction's bits
    rng = np.random.default_rng(100 * n + length)
    for trial in range(5):
        a = rng.standard_normal((7, n, length)) * np.exp(rng.uniform(-30, 30, (7, n, length)))
        special = rng.uniform(size=a.shape) < 0.1 * trial
        a[special] = rng.choice(SPECIALS, size=int(special.sum()))
        with np.errstate(invalid="ignore", over="ignore"):
            for layout, b in _layouts(a):
                if b.ndim < 2:
                    continue
                want, got = b.mean(axis=-2), mean_rows(b)
                assert got.shape == want.shape, layout
                assert got.tobytes() == want.tobytes(), layout
    if n > 1:
        # a sum that overflows warns as the mean's reduction does
        with pytest.warns(RuntimeWarning, match="overflow"):
            mean_rows(np.full((3, n, length), 1e308))


def test_sum_last_of_negative_zeros_is_positive_zero():
    for length in (1, 4, 9):
        got = sum_last(np.full((3, length), -0.0))
        assert got.tobytes() == np.zeros(3).tobytes()
