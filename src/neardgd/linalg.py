"""Dense symmetric linear algebra: eigendecomposition, eigenvalues and matrix
powers, and the last-axis sum and row mean the objectives and trace columns
reduce with.

Matrices here are node-count sized, one at a time or as (..., m, m) stacks;
eigendecompositions go to LAPACK through numpy.linalg.eigh, and spectra
alone through numpy.linalg.eigvalsh, after a symmetry check. All arithmetic
is float64.
"""

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12


class SymmetryError(ValueError):
    """Input matrix is not symmetric within tolerance."""


def check_symmetric(a):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise SymmetryError("expected a square matrix, got shape %r" % (a.shape,))
    scale = np.maximum(1.0, np.abs(a))
    if not np.all(np.abs(a - np.swapaxes(a, -1, -2)) <= SYM_TOL * scale):
        raise SymmetryError("matrix not symmetric within %g" % SYM_TOL)
    return a


@dataclass
class Spectrum:
    """Eigenvalues in ascending order with orthonormal eigenvectors (columns);
    (..., m) and (..., m, m) for a stack of matrices."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(a) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, or of each matrix of a
    (..., m, m) stack (LAPACK, via eigh)."""
    return Spectrum(*np.linalg.eigh(check_symmetric(a)))


def sym_eigvals(a) -> np.ndarray:
    """The eigenvalues alone, ascending, of a symmetric matrix or of each
    matrix of a (..., m, m) stack (LAPACK, via eigvalsh). It forms no
    eigenvectors, so it costs about half of sym_eigen; its values may
    differ from sym_eigen's in the last bits."""
    return np.linalg.eigvalsh(check_symmetric(a))


def sym_power(a, exponent: float) -> np.ndarray:
    """A^s for symmetric A via its eigendecomposition.

    Fractional exponents require positive eigenvalues (consensus matrices
    qualify). Decomposes A on every call and forms the full matrix, so no
    library code calls it: `consensus.apply_consensus` and the spectral
    diagnostics work from the eigenpairs cached on the ConsensusMatrix.
    """
    spec = sym_eigen(a)
    lam = spec.eigenvalues
    if exponent != int(exponent) and np.any(lam <= 0):
        raise ValueError("fractional power of a non-positive-definite matrix")
    return (spec.eigenvectors * lam**exponent) @ spec.eigenvectors.T


def sum_last(a) -> np.ndarray:
    """a.sum(axis=-1) of a float array, bitwise.

    NumPy adds fewer than 8 entries in order, starting from 0.0, so for a
    C-ordered array with such a last axis one in-place add per column gives
    the reduction's bits at a fraction of its cost: on a (341, 12, 4) stack
    the reduction took about 90 us and the adds under 20 us (one core,
    NumPy 2.4). A longer axis, which NumPy sums pairwise, and any other
    layout take a.sum(axis=-1): on strided columns NumPy's elementwise adds
    do not always propagate the NaN its reduction does where NaNs of both
    signs meet.
    """
    length = a.shape[-1]
    if not (0 < length < 8 and a.flags.c_contiguous):
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0  # NumPy's 0.0 + a_0, so that -0.0 sums to 0.0
    for j in range(1, length):
        out += a[..., j]
    return out


def mean_rows(a) -> np.ndarray:
    """a.mean(axis=-2) of a float array, bitwise: the mean of the rows of
    each matrix of a (..., m, k) stack.

    NumPy reduces a middle axis in order, one row add at a time, starting
    from 0.0, and then divides by m; with a last axis of length k >= 2 on a
    C-ordered array, einsum's column sums add in that same order, so the
    two agree bit for bit, at a fraction of the reduction's cost on short
    rows: on a (341, 12, 4) stack the mean took about 105 us and this path,
    finiteness test included, about 30 us (one core, NumPy 2.4). Where NaNs
    of both signs meet the two keep different ones, and einsum raises no
    floating-point warning where a sum overflows, so a sum that is not
    finite is taken again as the mean, with the mean's bits and warnings. A
    last axis of length 1, which NumPy sums pairwise, and any other layout
    take a.mean(axis=-2).
    """
    if a.shape[-1] < 2 or not a.flags.c_contiguous:
        return a.mean(axis=-2)
    out = np.einsum("...ij->...j", a)
    if not np.isfinite(out).all():
        return a.mean(axis=-2)
    out /= a.shape[-2]
    return out
