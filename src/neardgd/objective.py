"""Separable objectives as whole-array operations over (n, p) iterates.

The stacked objective is f(x) = sum_i f_i(x_i) over an (n, p) iterate; the
network-wide function evaluated at a single point is f(v) = sum_i f_i(v).
Subclasses evaluate every node at once: row i of an (n, p) array goes
through f_i, and any leading batch axes, as in (B, n, p), pass through.
Every family here has diagonal per-node Hessians.
"""

import copy
import inspect
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import sum_last


_FLOAT64 = np.dtype(float)


class ObjectiveError(ValueError):
    pass


def _check_radius(radius):
    """A box radius must be positive; NaN is not. An infinite box is allowed."""
    if not radius > 0:
        raise ObjectiveError("radius must be positive, got %r" % radius)


def _sizes(n, p):
    """The node count n and coordinate count p as ints, each at least 1."""
    sizes = []
    for name, value in (("node count", n), ("coordinate count", p)):
        try:
            value = operator.index(value)
        except TypeError:
            raise ObjectiveError("%s must be an integer, got %r" % (name, value)) from None
        if value < 1:
            raise ObjectiveError("%s must be at least 1, got %d" % (name, value))
        sizes.append(value)
    return sizes


def _coefficients(name, a) -> np.ndarray:
    """a as a finite (n, p) float array with n, p >= 1."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ObjectiveError("%s must be an (n, p) array, got shape %r" % (name, a.shape))
    _sizes(*a.shape)
    bad = a[~np.isfinite(a)]
    if bad.size:
        raise ObjectiveError("%s must be finite, got %r" % (name, float(bad[0])))
    return a


def _quartic_index(p, index) -> int:
    """index as an int in 1..p; a fractional one is rejected."""
    try:
        index = operator.index(index)
    except TypeError:
        raise ObjectiveError("index must be an integer, got %r" % (index,)) from None
    if not 1 <= index <= p:
        raise ObjectiveError("index %d outside 1..%d" % (index, p))
    return index


class Objective:
    """Separable objective defined by six primitives.

    Subclasses implement three per-node primitives, node_values
    ((..., n, p) -> (..., n), the f_i(x_i)), node_grads ((..., n, p) ->
    (..., n, p), the grad f_i(x_i), written into out when given: a float
    array of x's shape that shares no memory with x, passed to its first
    ufunc as the output) and node_hessian_diags ((..., n, p) -> (..., n,
    p), the diagonals of the Hessians of the f_i at x_i); one network
    primitive, network_value_and_grad ((K, p) -> (K,), (K, p): the
    network-wide f(v) = sum_i f_i(v) and its gradient at each of K points,
    in closed form, without an n-fold broadcast); lipschitz_estimate; and
    minimizers, the global minimizers of that f. Stacked evaluators,
    single-point aggregates and f* = min_value() are derived here, and
    subclasses do not override them.

    The primitives run once per iteration on small arrays, where a NumPy
    call costs more than its arithmetic. At n = 12, p = 4 a (p,) row
    broadcast over an (n, p) operand costs two to three times a same-shape
    ufunc, and a reduction over the short coordinate axis several times
    the column adds that give its bits. So coefficient arrays are kept at
    the full (n, p) shape of an iterate, and sums over coordinates go
    through linalg.sum_last. For the same reason stacked_grad(x, out)
    tests nothing: a run checks its buffers once, when it allocates them,
    and its loop then writes each gradient into its step buffer. So
    node_grads must take (x, out=None), and a subclass whose node_grads
    cannot take out is refused when it is defined.
    """

    n: int
    p: int
    # the names of the coefficient arrays that node_grads reads
    _grad_coefficients = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        try:
            inspect.signature(cls.node_grads).bind(cls, None, None)
        except TypeError:
            raise TypeError("%s.node_grads must take (x, out=None), as the Objective "
                            "contract asks; it has the signature %s"
                            % (cls.__name__, inspect.signature(cls.node_grads))) from None

    def node_values(self, x) -> np.ndarray:
        raise NotImplementedError

    def node_grads(self, x, out=None) -> np.ndarray:
        raise NotImplementedError

    def node_hessian_diags(self, x) -> np.ndarray:
        raise NotImplementedError

    def network_value_and_grad(self, v):
        raise NotImplementedError

    def lipschitz_estimate(self, radius: float) -> float:
        raise NotImplementedError

    def minimizers(self) -> tuple:
        raise NotImplementedError

    def min_value(self) -> float:
        """f*: the network-wide f at the first of minimizers()."""
        return self.global_value(self.minimizers()[0])

    # stacked evaluators over (n, p) iterates

    def stacked_value(self, x):
        """f(x) for an (n, p) iterate, or one value per iterate of a
        (..., n, p) stack (each equal to its (n, p) call bitwise)."""
        x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (self.n, self.p):
            raise ObjectiveError("expected shape (..., %d, %d), got %r"
                                 % (self.n, self.p, x.shape))
        values = np.add.reduce(self.node_values(x), axis=-1)  # .sum(axis=-1), unwrapped
        return float(values) if values.ndim == 0 else values

    def stacked_grad(self, x, out=None) -> np.ndarray:
        """grad f(x) for an (n, p) iterate, or one gradient per iterate of
        a (..., n, p) stack (each equal to its (n, p) call bitwise). A float64
        ndarray, such as a run's buffer slot, takes one trailing-shape test
        and no conversion.

        With out, grad f(x) is written into out, which is returned, by the
        same elementwise operations, so every bit stays; neither argument is
        tested. x must then be a float64 ndarray of shape (..., n, p) and out
        one of x's shape that shares no memory with it, both checked once by
        the caller, as a run's loop has its slots and its step buffer by
        allocating them at that shape. Nothing catches a breach: an x of
        another shape may broadcast into out, and an out that overlaps x
        gives a wrong gradient."""
        if out is not None:
            return self.node_grads(x, out)
        if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
            x = np.asarray(x, dtype=float)
        if x.shape[-2:] != (self.n, self.p):
            raise ObjectiveError("expected shape (..., %d, %d), got %r"
                                 % (self.n, self.p, x.shape))
        return self.node_grads(x)

    def tiled(self, lead) -> "Objective":
        """A copy of this objective whose coefficient arrays that node_grads
        reads are C-ordered arrays of shape lead + (n, p), formed once. Its
        stacked_grad on a stack of that shape then multiplies same-shape
        operands, which NumPy runs by its contiguous loop instead of its
        broadcast one; each value is the same elementwise product, so every
        bit stays. The copy is for stacked_grad on stacks of that shape
        alone, and this objective keeps its (n, p) arrays. A family whose
        node_grads reads no such array is returned as it is."""
        if not self._grad_coefficients:
            return self
        shape = tuple(lead) + (self.n, self.p)
        twin = copy.copy(self)
        for name in self._grad_coefficients:
            coefficients = np.empty(shape)
            coefficients[...] = getattr(self, name)
            setattr(twin, name, coefficients)
        return twin

    # aggregates of the network-wide f at p-dimensional points; the value and
    # gradient come from network_value_and_grad alone, and none of them calls
    # stacked_*, so stacked_grad calls stay one per gradient evaluation a run
    # counts

    def global_value(self, v) -> float:
        return float(self.network_value_and_grad(self._point(v))[0][0])

    def global_grad(self, v) -> np.ndarray:
        return self.network_value_and_grad(self._point(v))[1][0]

    def batch_value_and_grad_norm(self, v):
        """(f(v_j), ||grad f(v_j)||) as two (K,) arrays for a (K, p) stack of
        points; row j equals global_value(v_j) and the norm of
        global_grad(v_j) bitwise."""
        v = np.asarray(v, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.p:
            raise ObjectiveError("expected shape (K, %d), got %r" % (self.p, v.shape))
        values, grads = self.network_value_and_grad(v)
        # numpy.linalg.norm(grads, axis=-1), operation for operation
        return values, np.sqrt(sum_last(grads * grads))

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


@dataclass(eq=False)
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
    _grad_coefficients = ("q", "_quartic")

    def __post_init__(self):
        self.q = _coefficients("the diagonals q", self.q)
        self.n, self.p = self.q.shape
        self.index = _quartic_index(self.p, self.index)
        # NaN fails every comparison; c * c, unlike c**2, overflows without raising
        if not (0 < self.c < math.inf and 0 < self.c * self.c / self.n < math.inf):
            raise ObjectiveError("c must be positive, c^2/n finite and nonzero, got %r" % self.c)
        ii = self.index - 1
        if np.any(self.q[:, ii] >= 0):
            raise ObjectiveError("q^i_II must be negative at the quartic coordinate")
        others = np.delete(self.q, ii, axis=1)
        if others.size and np.any(others <= 0):
            raise ObjectiveError("off-index diagonal entries must be positive")
        # the quartic coefficients c^2 / n of every node, in column I of a
        # full (n, p) array so that the oracles combine same-shape operands;
        # summed over the n nodes they are c^2 e_I, the network function's
        # row beside Q = sum_i q^i
        self._quartic = np.zeros_like(self.q)
        self._quartic[:, ii] = self.c**2 / self.n
        # the value's coefficients, 0.5 q and 0.25 c^2 / n, formed once
        self._half_q = 0.5 * self.q
        self._quarter_quartic = 0.25 * self._quartic
        self._network_quartic_row = np.zeros(self.p)
        self._network_quartic_row[ii] = self.c**2
        self._q_sum = self.q.sum(axis=0)
        self._curvature = np.abs(self.q).max(axis=1).max()  # the largest |q^i_jj|
        # and the network value's 0.5 Q and 0.25 c^2 e_I, formed once
        self._half_q_sum = 0.5 * self._q_sum
        self._quarter_quartic_row = 0.25 * self._network_quartic_row
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(self.min_value()):
                raise ObjectiveError("c must give a finite minimum value f*, got %r" % self.c)

    # each oracle forms its products in one array: the operations of
    # (0.5 q + (0.25 c^2/n) x^2) x^2 and x (q + (c^2/n) x^2), with the
    # operands of a product swapped where that keeps its bits

    def node_values(self, x):
        x2 = x * x
        terms = self._quarter_quartic * x2
        terms += self._half_q
        terms *= x2
        return sum_last(terms)

    def node_grads(self, x, out=None):
        grads = np.multiply(x, x, out)
        grads *= self._quartic
        grads += self.q
        grads *= x
        return grads

    def node_hessian_diags(self, x):
        return self.q + (3.0 * self._quartic) * (x * x)

    def network_value_and_grad(self, v):
        """f(v) = sum_j (Q_j / 2 + c^2 [j = I] v_j^2 / 4) v_j^2 and
        grad f(v) = v (Q + c^2 e_I v^2), with Q = sum_i q^i."""
        v2 = v * v
        return (sum_last((self._half_q_sum + self._quarter_quartic_row * v2) * v2),
                v * (self._q_sum + self._network_quartic_row * v2))

    def lipschitz_estimate(self, radius):
        """Gradient Lipschitz bound valid on the box ||x||_inf <= radius.

        Deliberately an over-estimate: max diagonal curvature plus the
        quartic term's worst-case curvature on the box, which must be finite.
        """
        _check_radius(radius)
        try:
            estimate = float(self._curvature + 3.0 * (self.c**2 / self.n) * radius**2)
        except OverflowError:  # radius**2 past the float range
            estimate = math.inf
        if estimate == math.inf:
            raise ObjectiveError("the Lipschitz estimate on the box of radius %r is not "
                                 "finite" % radius)
        return estimate

    def minimizers(self):
        """The two symmetric minimizers +-(1/c) sqrt(-sum_i q^i_II) e_I."""
        ii = self.index - 1
        s = self.q[:, ii].sum()
        x = np.zeros(self.p)
        x[ii] = np.sqrt(-s) / self.c
        return x, -x


def sample_quartic_problem(n, p, index, c, seed) -> QuadraticQuarticProblem:
    """Random diagonals: q^i_II uniform in (-1, 0), the rest uniform in (0, 1)."""
    n, p = _sizes(n, p)
    index = _quartic_index(p, index)  # before q[:, index - 1] reads any column
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    q = rng.uniform(0.0, 1.0, size=(n, p))
    q[q == 0.0] = 0.5  # keep the interval open
    q[:, index - 1] = -rng.uniform(0.0, 1.0, size=n)
    q[:, index - 1][q[:, index - 1] == 0.0] = -0.5
    return QuadraticQuarticProblem(q=q, index=index, c=float(c))


@dataclass(eq=False)
class QuadraticProblem(Objective):
    """Strongly convex sanity problem: f_i(x) = 1/2 ||x - b_i||^2.

    Unique network minimizer at the mean of the b_i; L = 1.
    """

    b: np.ndarray  # (n, p) targets
    _grad_coefficients = ("b",)

    def __post_init__(self):
        self.b = _coefficients("the targets b", self.b)
        self.n, self.p = self.b.shape

    def node_values(self, x):
        d = x - self.b
        return 0.5 * sum_last(d * d)

    def node_grads(self, x, out=None):
        return np.subtract(x, self.b, out)

    def node_hessian_diags(self, x):
        return np.ones(np.shape(x))

    def network_value_and_grad(self, v):
        """f(v) = sum_j (n/2 (v_j - bbar_j)^2 + s_j) and grad f(v) =
        n (v - bbar), with bbar the mean of the b_i and s_j =
        sum_i (b_ij - bbar_j)^2 / 2."""
        b_mean = self.b.mean(axis=0)
        spread = self.b - b_mean
        d = v - b_mean
        return (sum_last((0.5 * self.n) * (d * d) + 0.5 * (spread * spread).sum(axis=0)),
                self.n * d)

    def lipschitz_estimate(self, radius):
        _check_radius(radius)
        return 1.0

    def minimizers(self):
        """The unique minimizer, the mean of the b_i."""
        return (self.b.mean(axis=0),)


def sample_quadratic_problem(n, p, seed) -> QuadraticProblem:
    n, p = _sizes(n, p)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    return QuadraticProblem(b=rng.uniform(-1.0, 1.0, size=(n, p)))


def finite_difference_grad(fn, x, step) -> np.ndarray:
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
