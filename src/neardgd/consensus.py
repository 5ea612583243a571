"""Consensus weight matrices and multi-round averaging on stacked iterates.

Stacked iterates are ndarrays of shape (n, p): row i is node i's local
p-vector. Flattened, they are node-major np-length vectors. Several iterates
side by side form an (..., n, p) stack.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, adjacency, is_connected
from .linalg import check_symmetric, sym_eigen

STOCH_TOL = 1e-12
# ConsensusMatrix.apply_each forms at most this many scaled eigenvector
# entries at once
APPLY_EACH_ELEMENTS = 2**17


class ConsensusMatrixError(ValueError):
    """Weight matrix violates a consensus-matrix requirement."""


def metropolis_weights(g: Graph) -> np.ndarray:
    """Metropolis-Hastings weights: w_ij = 1/(1 + max(d_i, d_j)) on edges.

    Symmetric and doubly stochastic with the graph's sparsity pattern, but
    not necessarily positive definite.
    """
    if not is_connected(g):
        raise ConsensusMatrixError("graph must be connected")
    a = adjacency(g)
    d = a.sum(axis=1)
    w = np.where(a, 1.0 / (1.0 + np.maximum.outer(d, d)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def max_degree_weights(g: Graph) -> np.ndarray:
    """Max-degree weights: w_ij = 1/(1 + max_k d_k) on edges, diagonal residual."""
    if not is_connected(g):
        raise ConsensusMatrixError("graph must be connected")
    a = adjacency(g)
    w = np.where(a, 1.0 / (1.0 + a.sum(axis=1).max()), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


WEIGHT_RULES = {"metropolis": metropolis_weights, "maxdegree": max_degree_weights}


@dataclass
class ConsensusMatrix:
    """Symmetric doubly stochastic positive-definite weight matrix.

    The spectrum is computed once at construction; beta is the second
    largest eigenvalue (the consensus contraction factor) and lambda_min
    the smallest. powers(t) is the one source of lam^t, with the top power
    pinned to 1. One slot keeps (t, V diag(lam^t)) for the last t >= 2 that
    apply() was asked for, formed on first use.
    """

    W: np.ndarray
    graph: Graph
    beta: float = field(init=False)
    lambda_min: float = field(init=False)
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)
    _scaled_memo: tuple | None = field(init=False, default=None, repr=False,
                                       compare=False)

    def __post_init__(self):
        self.W = check_symmetric(self.W)
        _check_consensus_invariants(self.W, self.graph)
        spec = sym_eigen(self.W)
        self.eigenvalues = spec.eigenvalues
        self.eigenvectors = spec.eigenvectors
        self.lambda_min = float(spec.eigenvalues[0])
        self.beta = float(spec.eigenvalues[-2]) if self.W.shape[0] > 1 else 0.0
        if self.lambda_min <= 0:
            raise ConsensusMatrixError(
                "matrix not positive definite (lambda_min=%g)" % self.lambda_min
            )
        if not (0.0 <= self.beta < 1.0):
            raise ConsensusMatrixError("beta=%g outside [0, 1)" % self.beta)

    @property
    def n(self):
        return self.W.shape[0]

    def powers(self, t) -> np.ndarray:
        """lam^t, a fresh (n,) array, with the top eigenvalue's power pinned
        to exactly 1.

        The top eigenvalue of a doubly stochastic W is exactly 1, but eigh
        may leave it a few ulps above; raised to a large t that error would
        grow, move the mean and overflow near t = 2^62. So the top entry of
        a copy of the spectrum is set to 1.0 before the power is taken: 1^t
        is exactly 1, the other entries lie in (0, 1), and no power can
        overflow. t may be fractional (t / 2 for Z^{t/2}).
        """
        lam_t = self.eigenvalues.copy()
        lam_t[-1] = 1.0
        lam_t **= t
        return lam_t

    def apply(self, t: int, cols, out=None) -> np.ndarray:
        """Z^t cols for an int t >= 1 and a float (n,) or (n, k) array, or
        an (r, n, k) stack with one product per iterate, none of them
        checked; written into out when given (a C-ordered float array of
        the result's shape that shares no memory with cols). apply_consensus
        checks its arguments and calls this; run()'s loop calls it directly.
        Every consensus application thus takes this one arithmetic path.

        t = 1 is the single product W cols. For t >= 2 the rounds are applied
        at once from the cached eigenpairs, W^t cols = (V diag(lam^t)) (V'
        cols), two products whose cost is the same for every t. The memo
        slot holds V diag(lam^t) for the last t: a run that keeps t pays the
        O(n^2) scaling once, one that moves t on every call pays it per call,
        below the cost of the product it feeds.

        One iterate, a 1-D or 2-D cols, goes through ndarray.dot and a stack
        through the @ operator: both reach the same BLAS routine (gemm, or
        gemv for a vector) for each iterate, so a 2-D call equals the
        matching iterate of a stacked call bitwise, and dot spends less on
        each call.
        """
        if t == 1:
            return self.W.dot(cols, out) if cols.ndim <= 2 else np.matmul(self.W, cols, out=out)
        memo = self._scaled_memo
        if memo is None or memo[0] != t:
            memo = self._scaled_memo = (t, self.eigenvectors * self.powers(t))
        if cols.ndim <= 2:
            return memo[1].dot(self.eigenvectors.T.dot(cols), out)
        return np.matmul(memo[1], self.eigenvectors.T @ cols, out=out)

    def apply_each(self, ts, stack) -> np.ndarray:
        """Z^{ts[i]} stack[i] for each i of a float (c, n, k) stack, without
        checks; each equal to apply(ts[i], stack[i]) bitwise.

        The rows with t = 1 take the product W stack[i]. The others form all
        their V diag(lam^t) in one broadcast product, each lam^t taken as its
        own power as apply() takes it, and then make two batched products,
        which NumPy evaluates as one matrix product per row. At most
        APPLY_EACH_ELEMENTS scaled entries are formed at a time, so a large
        n takes the rows a few at a time.
        """
        out = np.empty_like(stack)
        ones = [i for i, t in enumerate(ts) if t == 1]
        if ones:
            out[ones] = self.W @ stack[ones]
        rest = [i for i, t in enumerate(ts) if t != 1]
        step = max(1, APPLY_EACH_ELEMENTS // self.n**2)
        for j in range(0, len(rest), step):
            rows = rest[j:j + step]
            lam_t = np.array([self.powers(ts[i]) for i in rows])
            scaled = self.eigenvectors * lam_t[:, None, :]
            out[rows] = scaled @ (self.eigenvectors.T @ stack[rows])
        return out


def _check_consensus_invariants(w, g: Graph):
    n = w.shape[0]
    if n != g.n:
        raise ConsensusMatrixError("matrix size %d != graph size %d" % (n, g.n))
    if np.any(w < -STOCH_TOL):
        raise ConsensusMatrixError("negative entries")
    rows = w.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > STOCH_TOL):
        raise ConsensusMatrixError("rows do not sum to 1")
    a = adjacency(g)
    bad = np.argwhere(np.triu(np.where(a, w <= 0, w != 0), 1))
    if bad.size:
        i, j = bad[0]  # row-major, so the first offending pair i < j
        if a[i, j]:
            raise ConsensusMatrixError("zero weight on edge (%d,%d)" % (i, j))
        raise ConsensusMatrixError("nonzero weight off edge (%d,%d)" % (i, j))


def ensure_positive_definite(w_tilde, g: Graph, margin: float = 0.1) -> ConsensusMatrix:
    """Shift a symmetric doubly stochastic matrix into the positive-definite cone.

    If lambda_1 > 0 the matrix is returned unchanged; otherwise applies
    W = (W~ - delta*I) / (1 - delta) with delta = lambda_1 - margin, which
    keeps rows stochastic and eigenvectors intact while moving lambda_1 to
    margin / (1 - delta) > 0. It keeps the sign of every off-diagonal entry,
    so the ConsensusMatrix constructor rejects a negative one.
    """
    if not 0 < margin < math.inf:  # NaN fails both comparisons
        raise ValueError("margin must be positive and finite, got %r" % margin)
    w_tilde = check_symmetric(w_tilde)
    lam1 = sym_eigen(w_tilde).eigenvalues[0]
    if lam1 > 0:
        return ConsensusMatrix(w_tilde.copy(), g)
    delta = lam1 - margin
    w = (w_tilde - delta * np.eye(w_tilde.shape[0])) / (1.0 - delta)
    return ConsensusMatrix(w, g)


def build_consensus_matrix(g: Graph, rule: str = "metropolis", margin: float = 0.1) -> ConsensusMatrix:
    """Weight-rule construction followed by the positive-definite shift."""
    try:
        base = WEIGHT_RULES[rule]
    except KeyError:
        raise ConsensusMatrixError("unknown weight rule %r" % rule) from None
    return ensure_positive_definite(base(g), g, margin)


def apply_consensus(cm: ConsensusMatrix, t: int, y):
    """Z^t y: t consensus rounds applied block-wise to a stacked iterate.

    y is an (n, p) iterate, an (n,) vector, or an (..., n, p) stack of
    iterates, each taking its own product, so that its values equal those of
    its (n, p) calls bitwise. The arguments are checked here and the product
    is ConsensusMatrix.apply's, whose cost is the same for every t.
    """
    try:
        t = operator.index(t)  # int and NumPy integers; 3.0 would be a fractional power
    except TypeError:
        raise ValueError("consensus rounds t must be an integer, got %r" % (t,)) from None
    if t < 1:
        raise ValueError("consensus rounds t must be >= 1")
    y = np.asarray(y, dtype=float)
    cols = y.reshape(-1, 1) if y.ndim == 1 else y  # a vector is one column
    if cols.ndim < 2 or cols.shape[-2] != cm.n:
        raise ValueError("iterate of shape %r does not have the matrix's %d node rows "
                         "on axis -2" % (y.shape, cm.n))
    return cm.apply(t, cols).reshape(y.shape)


def average_project(y):
    """Replace every node slice with the across-node mean (the M operator)."""
    y = np.asarray(y, dtype=float)
    return np.broadcast_to(y.mean(axis=0), y.shape).copy()

