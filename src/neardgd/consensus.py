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
# ConsensusMatrix forms at most this many entries of its t-th power
# operators at once
APPLY_EACH_ELEMENTS = 2**17
# a ConsensusMatrix of at most this many nodes applies Z^t, t >= 2, as one
# product with a dense Z^t; a larger one as two eigenbasis products
DENSE_POWER_NODES = 24
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


@dataclass(eq=False)
class ConsensusMatrix:
    """Symmetric doubly stochastic positive-definite weight matrix.

    The spectrum is computed once at construction; beta is the second
    largest eigenvalue (the consensus contraction factor) and lambda_min
    the smallest. powers(t) is the one source of lam^t, with the top power
    pinned to 1.

    Z^t for t >= 2 is applied through an operator formed from lam^t: the
    dense Z^t = (V diag(lam^t)) V' on at most DENSE_POWER_NODES nodes,
    otherwise V diag(lam^t), which apply() follows with V' (the mode is
    fixed at construction: _vt holds V' on a two-product matrix, None on a
    dense one). A memo keeps lam^t and the operator per t: hold(ts)
    sets it to the t of one block of a run, and apply() on a t it lacks to
    that t alone. An operator is a function of (W, t) alone, each slice of
    a batched formation the same BLAS product as a lone one, so every
    result depends on (cm, t, operand) alone, never on what the memo holds.

    dense_twin() is the same matrix in the dense mode, at any n: a shallow
    copy sharing W and the eigenpairs, with a memo of its own, made on first
    use and kept here (the matrix itself on at most DENSE_POWER_NODES
    nodes). A run whose schedule repeats each t on enough iterations runs
    on it; the matrix's own results keep their bits.
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
        if self.lambda_min <= 0:
            raise ConsensusMatrixError(
                "matrix not positive definite (lambda_min=%g)" % self.lambda_min
            )
        if not (0.0 <= self.beta < 1.0):
            raise ConsensusMatrixError("beta=%g outside [0, 1)" % self.beta)
        self._vt = None if self.W.shape[0] <= DENSE_POWER_NODES else self.eigenvectors.T

    @property
    def n(self):
        return self.W.shape[0]

    def dense_twin(self) -> "ConsensusMatrix":
        """This matrix in the dense mode: Z^t, t >= 2, applied as one product
        with a dense Z^t whatever n. Forming a Z^t costs one n x n x n
        product and each use then saves one n x n x p product over the two
        eigenbasis products, so it pays on a t applied n / p times or more.
        Its products equal those of a dense matrix bitwise, and differ from
        this matrix's, above DENSE_POWER_NODES nodes, by rounding only."""
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
        """(lam^t rows, operators) of a list of t >= 2: each lam^t taken as
        its own power, as powers() takes it (NumPy's power of a whole stack
        may differ in the last bit), then V diag(lam^t) for all of them in
        one broadcast product and, dense, Z^t in one batched product."""
        lams = np.array([self.powers(t) for t in ts])
        scaled = self.eigenvectors * lams[:, None, :]
        return lams, (scaled @ self.eigenvectors.T if self._vt is None else scaled)

    def _step(self):
        """The operators formed or copied at once: at most
        APPLY_EACH_ELEMENTS entries, and at least one."""
        return max(1, APPLY_EACH_ELEMENTS // self.n**2)

    def hold(self, ts):
        """On a dense matrix, make the memo hold exactly the distinct t >= 2
        of ts, keeping those it holds and forming the others a chunk at a
        time. A run calls this once per block, so that its loop, its
        certificate pass and rho_constant share one lam^t and one Z^t per t;
        a run on the dense twin does so at every n. A two-product matrix
        keeps the one t that apply() last formed: its operators are n x n
        each, and a block may need hundreds of them.
        """
        if self._vt is not None:
            return
        lams, ops = self._lams, self._ops
        keep = [t for t in dict.fromkeys(ts) if t != 1]
        new = [t for t in keep if t not in ops]
        step = self._step()
        for j in range(0, len(new), step):
            chunk = new[j:j + step]
            formed_lams, formed_ops = self._form(chunk)
            lams.update(zip(chunk, formed_lams))
            ops.update(zip(chunk, formed_ops))
        self._lams, self._ops = {t: lams[t] for t in keep}, {t: ops[t] for t in keep}

    def _operator(self, t):
        """The memo's operator for t >= 2; on a miss the memo holds t alone."""
        op = self._ops.get(t)
        if op is None:
            lams, ops = self._form([t])
            self._lams, self._ops = {t: lams[0]}, {t: ops[0]}
            op = ops[0]
        return op

    def apply(self, t: int, cols, out=None) -> np.ndarray:
        """Z^t cols for an int t >= 1 and a float (n,) or (n, k) array, or
        an (r, n, k) stack with one product per iterate, none of them
        checked; written into out when given (a C-ordered float array of
        the result's shape that shares no memory with cols). apply_consensus
        checks its arguments and calls this; run()'s loop calls it directly.
        Every consensus application thus takes this one arithmetic path.

        t = 1 is the single product W cols. For t >= 2 the memo's operator
        for t, formed on a miss, is applied: on a dense matrix the single
        product Z^t cols, otherwise the two products (V diag(lam^t)) (V'
        cols). Either costs the same for every t once the operator exists;
        forming one costs an n^3 product (dense) or O(n^2) (two-product),
        which hold() spreads over a block.

        One iterate, a 1-D or 2-D cols, goes through ndarray.dot and a stack
        through the @ operator: both reach the same BLAS routine (gemm, or
        gemv for a vector) for each iterate, so a 2-D call equals the
        matching iterate of a stacked call bitwise, and dot spends less on
        each call; a stack BLAS cannot read is copied first (_apply_stack).
        """
        if cols.ndim > 2:
            return self._apply_stack(t, cols, out)
        if t == 1:
            return self.W.dot(cols, out)
        try:
            op = self._ops[t]
        except KeyError:
            op = self._operator(t)
        vt = self._vt
        return op.dot(cols if vt is None else vt.dot(cols), out)

    def _apply_stack(self, t, stack, out):
        """apply() on an (r, n, k) stack. NumPy multiplies a stack of
        (n, k > 1) iterates whose rows and columns both have gaps in a loop
        of its own, which may round otherwise than BLAS (with OpenBLAS
        0.3.31, at n = 16 to 31), while dot hands BLAS a C-ordered copy of
        such an iterate; so such a stack is copied into C order first."""
        if stack.shape[-1] > 1 and stack.itemsize not in stack.strides[-2:]:
            stack = np.ascontiguousarray(stack)
        if t == 1:
            return np.matmul(self.W, stack, out=out)
        op = self._operator(t)
        if self._vt is not None:
            stack = self._vt @ stack
        return np.matmul(op, stack, out=out)

    def apply_each(self, ts, stack) -> np.ndarray:
        """Z^{ts[i]} stack[i] for each i of a float (c, n, k) stack, without
        checks; each equal to apply(ts[i], stack[i]) bitwise.

        The rows with t = 1 take the product W stack[i]. The others take
        their operators, copied from the memo when it holds them all and
        formed as apply() forms them otherwise, in batched products, which
        NumPy evaluates as one matrix product per row, at most
        APPLY_EACH_ELEMENTS operator entries at a time.
        """
        out = np.empty_like(stack)
        ones = [i for i, t in enumerate(ts) if t == 1]
        if ones:
            out[ones] = self.W @ stack[ones]
        rest = [i for i, t in enumerate(ts) if t != 1]
        held, step = self._ops, self._step()
        for j in range(0, len(rest), step):
            rows = rest[j:j + step]
            row_ts = [ts[i] for i in rows]
            ops = (np.array([held[t] for t in row_ts]) if all(t in held for t in row_ts)
                   else self._form(row_ts)[1])
            cols = stack[rows] if self._vt is None else self._vt @ stack[rows]
            out[rows] = ops @ cols
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

    If lambda_1 > 0 the matrix is returned unchanged; otherwise applies
    W = (W~ - delta*I) / (1 - delta), delta = lambda_1 - PD_MARGIN, which
    keeps rows stochastic and eigenvectors intact while moving lambda_1 to
    PD_MARGIN / (1 - delta) > 0. It keeps the sign of every off-diagonal
    entry, so the ConsensusMatrix constructor rejects a negative one.
    """
    w_tilde = np.asarray(w_tilde, dtype=float)
    lam1 = sym_eigen(w_tilde).eigenvalues[0]  # rejects a matrix that is not symmetric
    if lam1 > 0:
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

