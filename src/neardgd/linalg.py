"""Dense symmetric linear algebra: eigendecomposition, powers, quadratic forms.

Matrices here are node-count or stacked-iterate sized; eigendecompositions
go to LAPACK through numpy.linalg.eigh after a symmetry check. All
arithmetic is float64.
"""

from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12


class SymmetryError(ValueError):
    """Input matrix is not symmetric within tolerance."""


def check_symmetric(a, tol=SYM_TOL):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SymmetryError("expected a square matrix, got shape %r" % (a.shape,))
    scale = np.maximum(1.0, np.abs(a))
    if not np.all(np.abs(a - a.T) <= tol * scale):
        raise SymmetryError("matrix not symmetric within %g" % tol)
    return a


@dataclass
class Spectrum:
    """Eigenvalues in ascending order with orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def sym_eigen(a) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix (LAPACK, via eigh)."""
    return Spectrum(*np.linalg.eigh(check_symmetric(a)))


def quad_form(a, x) -> float:
    """v' A v."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float).reshape(-1)
    if a.shape != (x.size, x.size):
        raise ValueError("dimension mismatch: A is %r, v has %d" % (a.shape, x.size))
    return float(x @ a @ x)


def sym_power(a, exponent: float) -> np.ndarray:
    """A^s for symmetric A via its eigendecomposition.

    Fractional exponents require positive eigenvalues (consensus matrices
    qualify). Decomposes A on every call and forms the full matrix, so it
    serves diagnostics and tests; the consensus hot path
    (`consensus.apply_consensus`) applies W^t to an iterate from the
    eigenpairs cached on the ConsensusMatrix instead.
    """
    spec = sym_eigen(a)
    lam = spec.eigenvalues
    if exponent != int(exponent) and np.any(lam <= 0):
        raise ValueError("fractional power of a non-positive-definite matrix")
    return (spec.eigenvectors * lam**exponent) @ spec.eigenvectors.T


def kron_identity(w, p: int) -> np.ndarray:
    """W (x) I_p, the stacked-space operator, materialized explicitly.

    Test/diagnostics utility only; the consensus module applies W block-wise.
    """
    return np.kron(np.asarray(w, dtype=float), np.eye(p))
