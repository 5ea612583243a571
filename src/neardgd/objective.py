"""Separable objectives as whole-array operations over (n, p) iterates.

The stacked objective is f(x) = sum_i f_i(x_i) over an (n, p) iterate; the
network-wide function evaluated at a single point is f(v) = sum_i f_i(v).
Subclasses evaluate every node at once: row i of an (n, p) array goes
through f_i, and any leading batch axes, as in (B, n, p), pass through.
Every family here has diagonal per-node Hessians.
"""

from dataclasses import dataclass

import numpy as np


class ObjectiveError(ValueError):
    pass


class Objective:
    """Separable objective defined by four whole-array primitives.

    Subclasses implement three per-node primitives, node_values
    ((..., n, p) -> (..., n), the f_i(x_i)), node_grads ((..., n, p) ->
    (..., n, p), the grad f_i(x_i)) and node_hessian_diags ((..., n, p) ->
    (..., n, p), the diagonals of the Hessians of the f_i at x_i); one
    network primitive, network_value_and_grad ((K, p) -> (K,), (K, p): the
    network-wide f(v) = sum_i f_i(v) and its gradient at each of K points,
    in closed form, without an n-fold broadcast); and lipschitz_estimate.
    Stacked evaluators and single-point aggregates are derived here, and
    subclasses do not override them.
    """

    n: int
    p: int

    def node_values(self, x) -> np.ndarray:
        raise NotImplementedError

    def node_grads(self, x) -> np.ndarray:
        raise NotImplementedError

    def node_hessian_diags(self, x) -> np.ndarray:
        raise NotImplementedError

    def network_value_and_grad(self, v):
        raise NotImplementedError

    def lipschitz_estimate(self, radius: float) -> float:
        raise NotImplementedError

    # stacked evaluators over (n, p) iterates

    def stacked_value(self, x):
        """f(x) for an (n, p) iterate, or one value per iterate of a
        (..., n, p) stack (each equal to its (n, p) call bitwise)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (self.n, self.p):
            raise ObjectiveError("expected shape (..., %d, %d), got %r"
                                 % (self.n, self.p, x.shape))
        values = self.node_values(x).sum(axis=-1)
        return float(values) if values.ndim == 0 else values

    def stacked_grad(self, x) -> np.ndarray:
        return self.node_grads(self._check_stacked(x))

    # aggregates of the network-wide f at p-dimensional points; the value and
    # gradient come from network_value_and_grad alone, and none of them calls
    # stacked_*, so stacked_grad calls stay one per gradient evaluation a run
    # counts

    def global_value(self, v) -> float:
        return float(self.network_value_and_grad(self._point(v))[0][0])

    def global_grad(self, v) -> np.ndarray:
        return self.network_value_and_grad(self._point(v))[1][0]

    def global_hessian(self, v) -> np.ndarray:
        x = np.broadcast_to(self._point(v), (self.n, self.p))
        return np.diag(self.node_hessian_diags(x).sum(axis=0))

    def batch_value_and_grad_norm(self, v):
        """(f(v_j), ||grad f(v_j)||) as two (K,) arrays for a (K, p) stack of
        points; row j equals global_value(v_j) and the norm of
        global_grad(v_j) bitwise."""
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.p:
            raise ObjectiveError("expected shape (K, %d), got %r" % (self.p, v.shape))
        values, grads = self.network_value_and_grad(v)
        return values, np.linalg.norm(grads, axis=-1)

    def _check_stacked(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.p):
            raise ObjectiveError("expected shape (%d, %d), got %r" % (self.n, self.p, x.shape))
        return x

    def _point(self, v):
        """A (p,) point as the (1, p) stack the network primitive takes."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ObjectiveError("expected shape (%d,), got %r" % (self.p, v.shape))
        return v[None]


@dataclass
class QuadraticQuarticProblem(Objective):
    """Diagonal quadratics plus a quartic along one coordinate.

    f_i(x) = 1/2 x'Q^i x + (c^2 / 4n) * x_I^4, with q^i_II < 0 and the
    remaining diagonal entries positive, so the network objective has a
    strict saddle at the origin and two symmetric minimizers along e_I.
    ``index`` is 1-based.
    """

    q: np.ndarray  # (n, p) diagonals of the Q^i
    index: int
    c: float

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=float)
        self.n, self.p = self.q.shape
        if not 1 <= self.index <= self.p:
            raise ObjectiveError("index %d outside 1..%d" % (self.index, self.p))
        if self.c <= 0:
            raise ObjectiveError("c must be positive")
        ii = self.index - 1
        if np.any(self.q[:, ii] >= 0):
            raise ObjectiveError("q^i_II must be negative at the quartic coordinate")
        others = np.delete(self.q, ii, axis=1)
        if others.size and np.any(others <= 0):
            raise ObjectiveError("off-index diagonal entries must be positive")
        # (c^2 / n) e_I: the oracles scale x^2 by this row instead of raising
        # one strided column to a power and writing it back; summed over the
        # n nodes it is c^2 e_I, the network function's row beside Q = sum_i q^i
        self._quartic_row = np.zeros(self.p)
        self._quartic_row[ii] = self.c**2 / self.n
        self._network_quartic_row = np.zeros(self.p)
        self._network_quartic_row[ii] = self.c**2
        self._q_sum = self.q.sum(axis=0)

    @property
    def _ii(self):
        return self.index - 1

    def node_values(self, x):
        x2 = x * x
        return ((0.5 * self.q + (0.25 * self._quartic_row) * x2) * x2).sum(axis=-1)

    def node_grads(self, x):
        return x * (self.q + self._quartic_row * (x * x))

    def node_hessian_diags(self, x):
        return self.q + (3.0 * self._quartic_row) * (x * x)

    def network_value_and_grad(self, v):
        """f(v) = sum_j (Q_j / 2 + c^2 [j = I] v_j^2 / 4) v_j^2 and
        grad f(v) = v (Q + c^2 e_I v^2), with Q = sum_i q^i."""
        v2 = v * v
        return (((0.5 * self._q_sum + (0.25 * self._network_quartic_row) * v2) * v2).sum(axis=-1),
                v * (self._q_sum + self._network_quartic_row * v2))

    def lipschitz_estimate(self, radius):
        """Gradient Lipschitz bound valid on the box ||x||_inf <= radius.

        Deliberately an over-estimate: max diagonal curvature plus the
        quartic term's worst-case curvature on the box.
        """
        if radius <= 0:
            raise ObjectiveError("radius must be positive")
        return float(np.abs(self.q).max(axis=1).max()
                     + 3.0 * (self.c**2 / self.n) * radius**2)

    def minimizers(self):
        """The two symmetric minimizers +-(1/c) sqrt(-sum_i q^i_II) e_I."""
        s = self.q[:, self._ii].sum()
        if s >= 0:
            raise ObjectiveError("sum of q^i_II must be negative")
        x = np.zeros(self.p)
        x[self._ii] = np.sqrt(-s) / self.c
        return x, -x

    def min_value(self) -> float:
        """Network objective value at either minimizer."""
        return self.global_value(self.minimizers()[0])


def sample_quartic_problem(n, p, index, c, seed) -> QuadraticQuarticProblem:
    """Random diagonals: q^i_II uniform in (-1, 0), the rest uniform in (0, 1)."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    q = rng.uniform(0.0, 1.0, size=(n, p))
    q[q == 0.0] = 0.5  # keep the interval open
    q[:, index - 1] = -rng.uniform(0.0, 1.0, size=n)
    q[:, index - 1][q[:, index - 1] == 0.0] = -0.5
    return QuadraticQuarticProblem(q=q, index=index, c=float(c))


@dataclass
class QuadraticProblem(Objective):
    """Strongly convex sanity problem: f_i(x) = 1/2 ||x - b_i||^2.

    Unique network minimizer at the mean of the b_i; L = 1.
    """

    b: np.ndarray  # (n, p) targets

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        self.n, self.p = self.b.shape

    def node_values(self, x):
        d = x - self.b
        return 0.5 * (d * d).sum(axis=-1)

    def node_grads(self, x):
        return x - self.b

    def node_hessian_diags(self, x):
        return np.ones(np.shape(x))

    def network_value_and_grad(self, v):
        """f(v) = sum_j (n/2 (v_j - bbar_j)^2 + s_j) and grad f(v) =
        n (v - bbar), with bbar the mean of the b_i and s_j =
        sum_i (b_ij - bbar_j)^2 / 2."""
        b_mean = self.b.mean(axis=0)
        spread = self.b - b_mean
        d = v - b_mean
        return (((0.5 * self.n) * (d * d) + 0.5 * (spread * spread).sum(axis=0)).sum(axis=-1),
                self.n * d)

    def lipschitz_estimate(self, radius):
        return 1.0

    def minimizer(self) -> np.ndarray:
        return self.b.mean(axis=0)

    def min_value(self) -> float:
        return self.global_value(self.minimizer())


def sample_quadratic_problem(n, p, seed) -> QuadraticProblem:
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    return QuadraticProblem(b=rng.uniform(-1.0, 1.0, size=(n, p)))


def finite_difference_grad(fn, x, step=1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of an ndarray."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[idx] += step
        xm[idx] -= step
        g[idx] = (fn(xp) - fn(xm)) / (2.0 * step)
    return g
