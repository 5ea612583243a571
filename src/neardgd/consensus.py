"""Consensus weight matrices and multi-round averaging on stacked iterates.

Stacked iterates are ndarrays of shape (n, p): row i is node i's local
p-vector. Flattened, they are node-major np-length vectors. Several iterates
side by side form an (..., n, p) stack.
"""

import copy
import operator
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, adjacency, is_connected
from .linalg import sym_eigen

STOCH_TOL = 1e-12
# the eigenbasis kernel's NumPy call overhead per use, in multiply-adds: p = 4
# near-dgd-plus runs faster dense at n <= 20, and 21^2 (21 - 4) ~ 7500
CALL_COST = 7500
PD_MARGIN = 0.1  # lambda_1 after ensure_positive_definite's shift: PD_MARGIN / (1 - delta)


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


def dense_pays(n, width, repeats) -> bool:
    """Whether one Z^t applied to repeats operands of width columns costs
    less as a dense Z^t than as V (lam^t * (V' y)): forming it costs n^3
    multiply-adds, and each use saves n^2 width of them and CALL_COST. A
    matrix asks at (1, 1) and run() at (p, repeats) >= 1, so a run only
    moves toward dense."""
    return n * n * (n - width * repeats) <= repeats * CALL_COST


@dataclass(eq=False)
class ConsensusMatrix:
    """Symmetric doubly stochastic positive-definite weight matrix.

    The spectrum is computed once at construction; beta is the second
    largest eigenvalue (the consensus contraction factor) and lambda_min
    the smallest. powers(t) is the one source of lam^t, with the top power
    pinned to 1.

    Z^t for t >= 2 is applied through an operator formed from lam^t: the
    dense Z^t = (V diag(lam^t)) V' where dense_pays(n, 1, 1), otherwise
    lam^t itself, applied as V (lam^t * (V' y)) (the mode is fixed at
    construction: _vt holds V' on a two-product matrix, None on a dense
    one). A memo keeps lam^t and the operator per t, by one rule in
    both modes: hold(ts) sets it to the t >= 2 of one block of a run, and
    _operators(ts), the one look-up of product(), apply() and apply_each(),
    to the t >= 2 of a call that misses one. An operator is a function of
    (W, t) alone, each slice of a batched formation the same BLAS product as
    a lone one, so every result depends on (cm, t, operand) alone.

    dense_twin() is the same matrix in the dense mode, at any n: a shallow
    copy sharing W and the eigenpairs, with a memo of its own, made on first
    use and kept here (the matrix itself if dense). A run for which
    dense_pays runs on it; the matrix's own results keep their bits.
    """

    W: np.ndarray
    graph: Graph
    beta: float = field(init=False)
    lambda_min: float = field(init=False)
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)
    _vt: np.ndarray | None = field(init=False, repr=False, compare=False)
    # the memo: lam^t and the operator of each t it holds
    _lams: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _ops: dict = field(init=False, default_factory=dict, repr=False, compare=False)
    _twin: "ConsensusMatrix | None" = field(init=False, default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        spec = sym_eigen(self.W)  # rejects a matrix that is not symmetric
        _check_consensus_invariants(self.W, self.graph)
        self.eigenvalues = spec.eigenvalues
        self.eigenvectors = spec.eigenvectors
        self.lambda_min = float(spec.eigenvalues[0])
        self.beta = float(spec.eigenvalues[-2]) if self.W.shape[0] > 1 else 0.0
        if self.lambda_min <= STOCH_TOL:  # an exact 0 comes back at rounding level
            raise ConsensusMatrixError(
                "matrix not positive definite (lambda_min=%g)" % self.lambda_min
            )
        if not (0.0 <= self.beta < 1.0):
            raise ConsensusMatrixError("beta=%g outside [0, 1)" % self.beta)
        self._vt = None if dense_pays(self.n, 1, 1) else self.eigenvectors.T

    @property
    def n(self):
        return self.W.shape[0]

    def dense_twin(self) -> "ConsensusMatrix":
        """This matrix in the dense mode: Z^t, t >= 2, applied as one product
        with a dense Z^t whatever n. Its products equal those of a dense
        matrix bitwise, and differ from a two-product one's by rounding only."""
        if self._vt is None:
            return self
        if self._twin is None:
            twin = copy.copy(self)
            twin._vt, twin._lams, twin._ops = None, {}, {}
            self._twin = twin
        return self._twin

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

    def power_rows(self, ts) -> np.ndarray:
        """A (len(ts), n) array whose row i equals powers(ts[i]) bitwise,
        read from the memo where it holds ts[i]."""
        lams = self._lams
        return np.array([lams[t] if t in lams else self.powers(t) for t in ts])

    def _form(self, ts):
        """(lam^t rows, operators) of a nonempty list of t >= 2. The rows
        take one power call on the (len(ts), n) grid of the pinned spectrum
        and the ts, and the rows with t = 2 its square, as powers() takes
        them (NumPy's ** by a Python 2 is a square, which a power may round
        otherwise), so row i equals powers(ts[i]) bitwise. The operators:
        the dense Z^t = (V diag(lam^t)) V' in one batched product, or lam^t
        itself as an (n, 1) column view."""
        pinned = self.powers(1)
        exponents = np.array(ts, dtype=float)
        lams = np.power(pinned, exponents[:, None])
        lams[exponents == 2] = np.square(pinned)
        if self._vt is not None:
            return lams, lams[:, :, None]
        return lams, (self.eigenvectors * lams[:, None, :]) @ self.eigenvectors.T

    def hold(self, ts):
        """Make the memo hold exactly the distinct t >= 2 of ts, keeping
        those it holds and forming the others at once; a run calls this once
        per block, so that its loop, its pass and rho_constant share one
        lam^t, and a dense matrix one Z^t, per t. A two-product matrix forms
        n floats per t, a dense one n^2 and as many for its scaled
        eigenvectors: for a block of rows iterations at most (rows + 1) n^2,
        2.5 MB at n = 19 and p = 1, and on the dense twin, where each t
        repeats r times with dense_pays(n, p, r), (rows / r + 2) n^2."""
        lams, ops = self._lams, self._ops
        keep = [t for t in dict.fromkeys(ts) if t != 1]
        new = [t for t in keep if t not in ops]
        if not new and len(keep) == len(ops):  # it holds these t already, and no other
            return
        if new:
            for memo, formed in zip((lams, ops), self._form(new)):
                memo.update(zip(new, formed))
        self._lams, self._ops = {t: lams[t] for t in keep}, {t: ops[t] for t in keep}

    def _operators(self, ts):
        """The memo's operators of a list of t >= 2, in a list, by the one
        look-up rule: on a miss the memo holds these t alone."""
        try:
            return [*map(self._ops.__getitem__, ts)]
        except KeyError:
            self.hold(ts)
            return [*map(self._ops.__getitem__, ts)]

    def product(self, t: int):
        """The product Z^t on one iterate, for an int t >= 1: a function
        (cols, out=None) of a float (n, k) array, unchecked, that returns Z^t
        cols, written into out when given (a C-ordered float array of that
        shape sharing no memory with cols). It is W.dot for t = 1, and for
        t >= 2 takes the memo's operator for t, from _operators on a miss:
        the dense Z^t's dot, or the two products V (lam^t * (V' cols)), the
        (n, k) intermediate scaled row by row. Either costs the same for
        every t. run()'s loop fetches it once per run of equal t within a
        block; apply() calls it on one iterate."""
        if t == 1:
            return self.W.dot
        ops = self._ops  # a dict hit: near-dgd-plus fetches a handle every iteration
        op = ops[t] if t in ops else self._operators([t])[0]
        vt = self._vt
        if vt is None:
            return op.dot
        v, multiply = self.eigenvectors, np.multiply

        def two_products(cols, out=None):
            scaled = vt.dot(cols)
            return v.dot(multiply(scaled, op, scaled), out)
        return two_products

    def apply(self, t: int, cols, out=None) -> np.ndarray:
        """Z^t cols for an int t >= 1 and a float (n, k) array, or an
        (r, n, k) stack with one product per iterate, none of them checked;
        written into out when given (a C-ordered float array of the
        result's shape that shares no memory with cols). apply_consensus
        checks its arguments, makes a vector one column and calls this.
        Every consensus application thus takes one arithmetic path: one
        iterate goes through product(t), the handle run()'s loop calls, and
        a stack takes the same operator, so each of its iterates equals a
        2-D call bitwise.

        One iterate goes through ndarray.dot and a stack through the @
        operator: both reach the same BLAS routine (gemm, or gemv for one
        column) for each iterate, and dot spends less on each call. But @
        multiplies (n, k > 1) iterates whose rows and columns both have gaps
        in a loop of its own, which may round otherwise (with OpenBLAS
        0.3.31, at n = 16 to 31), where dot hands BLAS a C-ordered copy; so
        such a stack is copied into C order first.
        """
        if cols.ndim < 3:
            return self.product(t)(cols, out)
        if cols.shape[-1] > 1 and cols.itemsize not in cols.strides[-2:]:
            cols = np.ascontiguousarray(cols)
        if t == 1:
            return np.matmul(self.W, cols, out=out)
        return self._apply_ops(self._operators([t])[0], cols, out)

    def _apply_ops(self, ops, stack, out=None):
        """An operator, or one per iterate, applied to a stack as apply() does."""
        if self._vt is None:
            return np.matmul(ops, stack, out=out)
        scaled = self._vt @ stack
        return np.matmul(self.eigenvectors, np.multiply(scaled, ops, scaled), out=out)

    def apply_each(self, ts, stack) -> np.ndarray:
        """Z^{ts[i]} stack[i] for each i of a float (c, n, k) stack and c
        ints ts[i] >= 1 whose 1s come first, as in a schedule, which never
        decreases (a 1 after a larger t is a KeyError); without checks, each
        equal to apply(ts[i], stack[i]) bitwise. The leading t = 1 rows take
        W stack[i], the others their operators, gathered by _operators as
        product() and apply() gather theirs, in one batched product (one
        matrix product per row), each written into its slice of the output."""
        ones = next((i for i, t in enumerate(ts) if t != 1), len(ts))  # leading t = 1 rows
        out = np.empty_like(stack)
        np.matmul(self.W, stack[:ones], out=out[:ones])
        if ones < len(ts):
            self._apply_ops(np.array(self._operators(ts[ones:])), stack[ones:], out[ones:])
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


def ensure_positive_definite(w_tilde, g: Graph) -> ConsensusMatrix:
    """Shift a symmetric doubly stochastic matrix into the positive-definite cone.

    If lambda_1 > STOCH_TOL the matrix is returned unchanged (an exact 0,
    as every star's weights have, comes back from the eigensolver at rounding
    level, of either sign); otherwise applies
    W = (W~ - delta*I) / (1 - delta), delta = lambda_1 - PD_MARGIN, which
    keeps rows stochastic and eigenvectors intact while moving lambda_1 to
    PD_MARGIN / (1 - delta) > 0. It keeps the sign of every off-diagonal
    entry, so the ConsensusMatrix constructor rejects a negative one.
    """
    w_tilde = np.asarray(w_tilde, dtype=float)
    lam1 = sym_eigen(w_tilde).eigenvalues[0]  # rejects a matrix that is not symmetric
    if lam1 > STOCH_TOL:
        return ConsensusMatrix(w_tilde.copy(), g)
    delta = lam1 - PD_MARGIN
    w = (w_tilde - delta * np.eye(w_tilde.shape[0])) / (1.0 - delta)
    return ConsensusMatrix(w, g)


def build_consensus_matrix(g: Graph, rule: str = "metropolis") -> ConsensusMatrix:
    """Weight-rule construction followed by the positive-definite shift."""
    try:
        base = WEIGHT_RULES[rule]
    except KeyError:
        raise ConsensusMatrixError("unknown weight rule %r" % rule) from None
    return ensure_positive_definite(base(g), g)


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

