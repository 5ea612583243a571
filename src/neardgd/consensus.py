"""Consensus weight matrices and multi-round averaging on stacked iterates.

Stacked iterates are ndarrays of shape (n, p): row i is node i's local
p-vector. Flattened, they are node-major np-length vectors.
"""

import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, adjacency, is_connected
from .linalg import check_symmetric, sym_eigen

STOCH_TOL = 1e-12


class ConsensusMatrixError(ValueError):
    """Weight matrix violates a consensus-matrix requirement."""


@dataclass
class CommCounter:
    """Cumulative communication/computation tallies for one run."""

    consensus_rounds: int = 0
    gradient_evals: int = 0


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
    the smallest. V diag(lam^t) for the last t >= 2 that apply() was
    asked for is kept beside it, formed on first use.
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

    def apply(self, t: int, cols) -> np.ndarray:
        """Z^t cols for an int t >= 1 and a float (n,) or (n, k) array,
        neither of them checked. apply_consensus checks its arguments and
        calls this; run()'s loop calls it directly. Every consensus
        application thus takes this one arithmetic path.

        t = 1 is the single product W cols. For t >= 2 the rounds are applied
        at once from the cached eigenpairs, W^t cols = (V diag(lam^t)) (V'
        cols), two products whose cost is the same for every t.
        """
        if t == 1:
            return self.W @ cols
        return self._scaled_eigenvectors(t) @ (self.eigenvectors.T @ cols)

    def _scaled_eigenvectors(self, t: int) -> np.ndarray:
        """V diag(lam^t), so that W^t = self._scaled_eigenvectors(t) @ V'.

        The top eigenvalue of a doubly stochastic W is exactly 1; it is
        pinned there, because the few ulps eigh leaves on it would grow with
        t and move the mean. One slot holds the last t: a run that keeps t
        pays the O(n^2) scaling once, and one that changes it every
        iteration pays it per call, below the cost of the product it feeds.
        """
        if self._scaled_memo is None or self._scaled_memo[0] != t:
            lam_t = self.eigenvalues ** t
            lam_t[-1] = 1.0
            self._scaled_memo = (t, self.eigenvectors * lam_t)
        return self._scaled_memo[1]


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
    if margin <= 0:
        raise ValueError("margin must be positive")
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


def apply_consensus(cm: ConsensusMatrix, t: int, y, counter: CommCounter | None = None):
    """Z^t y: t consensus rounds applied block-wise to a stacked iterate.

    y has the node axis first: an (n, p) iterate, an (n,) vector, or any
    (n, ...) array, whose trailing axes are columns of one product. The
    arguments are checked here and the product is ConsensusMatrix.apply's,
    whose cost is the same for every t. Each of the t rounds is still one
    communication: the counter advances by t.
    """
    try:
        t = operator.index(t)  # int and NumPy integers; 3.0 would be a fractional power
    except TypeError:
        raise ValueError("consensus rounds t must be an integer, got %r" % (t,)) from None
    if t < 1:
        raise ValueError("consensus rounds t must be >= 1")
    y = np.asarray(y, dtype=float)
    if y.shape[0] != cm.n:
        raise ValueError("iterate has %d node rows, matrix expects %d" % (y.shape[0], cm.n))
    out = cm.apply(t, y.reshape(cm.n, -1))
    if counter is not None:
        counter.consensus_rounds += t
    return out.reshape(y.shape)


def average_project(y):
    """Replace every node slice with the across-node mean (the M operator)."""
    y = np.asarray(y, dtype=float)
    return np.broadcast_to(y.mean(axis=0), y.shape).copy()

