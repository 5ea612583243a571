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
    """Separable objective defined by three whole-array primitives.

    Subclasses implement node_values ((..., n, p) -> (..., n), the
    f_i(x_i)), node_grads ((..., n, p) -> (..., n, p), the grad f_i(x_i)),
    node_hessian_diags ((..., n, p) -> (..., n, p), the diagonals of the
    Hessians of the f_i at x_i) and lipschitz_estimate. Stacked evaluators
    and single-point aggregates are derived here, and subclasses do not
    override them.
    """

    n: int
    p: int

    def node_values(self, x) -> np.ndarray:
        raise NotImplementedError

    def node_grads(self, x) -> np.ndarray:
        raise NotImplementedError

    def node_hessian_diags(self, x) -> np.ndarray:
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

    def stacked_hessian(self, x) -> np.ndarray:
        """Block-diagonal np x np Hessian; diagnostics-scale sizes only."""
        return np.diag(self.node_hessian_diags(self._check_stacked(x)).reshape(-1))

    # aggregates of the network-wide f at one p-dimensional point; they call
    # the primitives rather than stacked_*, so stacked_grad calls stay one per
    # gradient evaluation a run counts

    def global_value(self, v) -> float:
        return float(self.node_values(self._at_consensus(v)).sum())

    def global_grad(self, v) -> np.ndarray:
        return self.node_grads(self._at_consensus(v)).sum(axis=0)

    def global_hessian(self, v) -> np.ndarray:
        return np.diag(self.node_hessian_diags(self._at_consensus(v)).sum(axis=0))

    def batch_value_and_grad_norm(self, v):
        """(f(v_j), ||grad f(v_j)||) as two (K,) arrays for a (K, p) stack of points.

        Row j equals global_value(v_j) bitwise; the norm agrees with
        np.linalg.norm(global_grad(v_j)) to rounding. The stack is broadcast
        to (K, n, p) at once, so callers bound K to keep temporaries small.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.p:
            raise ObjectiveError("expected shape (K, %d), got %r" % (self.p, v.shape))
        x = np.broadcast_to(v[:, None, :], (len(v), self.n, self.p))
        return (self.node_values(x).sum(axis=-1),
                np.linalg.norm(self.node_grads(x).sum(axis=-2), axis=-1))

    def _check_stacked(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n, self.p):
            raise ObjectiveError("expected shape (%d, %d), got %r" % (self.n, self.p, x.shape))
        return x

    def _at_consensus(self, v):
        """The (n, p) iterate with v in every row (a read-only view)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.p,):
            raise ObjectiveError("expected shape (%d,), got %r" % (self.p, v.shape))
        return np.broadcast_to(v, (self.n, self.p))


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

    @property
    def _ii(self):
        return self.index - 1

    def node_values(self, x):
        return (0.5 * (self.q * x * x).sum(axis=-1)
                + (self.c**2 / (4.0 * self.n)) * x[..., self._ii] ** 4)

    def node_grads(self, x):
        g = self.q * x
        g[..., self._ii] += (self.c**2 / self.n) * x[..., self._ii] ** 3
        return g

    def node_hessian_diags(self, x):
        h = np.array(np.broadcast_to(self.q, np.shape(x)))
        h[..., self._ii] += 3.0 * (self.c**2 / self.n) * x[..., self._ii] ** 2
        return h

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
