"""run()'s three updates written from their equations, one iteration at a
time: the reference that the tests hold run() to.

  NEAR-DGD   x_k = Z^{t_k} y_k,  y_{k+1} = x_k - a grad f(x_k)
  DGD        y_{k+1} = Z y_k - a grad f(y_k)                     (x_k = y_k)
  tracking   y_{k+1} = Z y_k - a s_k,                            (x_k = y_k)
             s_{k+1} = Z s_k + grad f(y_{k+1}) - grad f(y_k),  s_0 = grad f(y_0)

Every product goes through apply_consensus and every gradient through
stacked_grad, and each update is evaluated as written, so the iterates equal
run()'s bit for bit.
"""

import itertools
from typing import NamedTuple

import numpy as np

from neardgd.consensus import apply_consensus


def near_dgd_step(y, objective, cm, t, alpha):
    """(x, y+): x = Z^t y, then y+ = x - a grad f(x)."""
    x = apply_consensus(cm, t, y)
    return x, x - alpha * objective.stacked_grad(x)


def dgd_step(x, objective, cm, alpha):
    """x+ = Z x - a grad f(x)."""
    return apply_consensus(cm, 1, x) - alpha * objective.stacked_grad(x)


def tracking_step(x, s, grad, objective, cm, alpha):
    """(x+, s+, grad f(x+)) from x, the tracked gradient s and grad = grad f(x)."""
    x_next = apply_consensus(cm, 1, x) - alpha * s
    grad_next = objective.stacked_grad(x_next)
    return x_next, apply_consensus(cm, 1, s) + grad_next - grad, grad_next


class Step(NamedTuple):
    k: int
    t: int              # t_k
    x: np.ndarray       # x_k, the point that trace row k describes
    y_next: np.ndarray  # y_{k+1}
    comms: int          # the tallies after iteration k
    grads: int


def iterations(objective, cm, method, alpha, y0):
    """The Steps of method from y_0 for k = 0, 1, ..., without end.

    Iteration k communicates t_k rounds, twice for the tracker, which sends
    x and s, and evaluates one gradient; the tracker's s_0 = grad f(y_0) is
    evaluated and counted before iteration 0.
    """
    tracker = method.name == "gradient-tracking"
    y, comms, grads = y0, 0, 0
    if tracker:
        s = grad = objective.stacked_grad(y)
        grads = 1
    for k in itertools.count():
        t = method.rounds(k)
        if method.name.startswith("near-dgd"):
            x, y_next = near_dgd_step(y, objective, cm, t, alpha)
        elif tracker:
            x = y
            y_next, s, grad = tracking_step(y, s, grad, objective, cm, alpha)
        else:
            x, y_next = y, dgd_step(y, objective, cm, alpha)
        comms += (2 if tracker else 1) * t
        grads += 1
        yield Step(k, t, x, y_next, comms, grads)
        y = y_next


class End(NamedTuple):
    steps: list    # the Steps of the iterations whose trace rows the run keeps
    k: int         # the terminal row's k
    y: np.ndarray  # y_k, the state the run ends at
    note: str      # the divergence note; "" when the run did not diverge

    @property
    def tallies(self):
        """(comms, grads) of the terminal row: those of the last kept step."""
        return (self.steps[-1].comms, self.steps[-1].grads) if self.steps else (0, 0)


def run_end(objective, cm, method, alpha, budget, y0, box_radius, grad_tol=None):
    """Where run() ends, decided one iteration at a time: after the budget's
    iterations (one fewer for the tracker, none below a budget of 2); at the
    first y_{k+1} out of the box |y|_inf <= box_radius, or at the first step
    when y_0 is out of it, keeping that step and staying at y_k (diverged),
    or at y_0 when it is out of the box and there is no step (diverged);
    or, with grad_tol, after the first step whose ||grad f(mean x_k)|| is at
    most grad_tol."""
    count = budget
    if method.name == "gradient-tracking":
        count = budget - 1 if budget >= 2 else 0
    note = ("iteration %d: |y|_inf = %g left the box |y|_inf <= %g; Lipschitz estimate no "
            "longer valid")
    steps, y = [], y0
    for step in itertools.islice(iterations(objective, cm, method, alpha, y0), count):
        steps.append(step)
        # the first step also tests y_0, whose |y|_inf the note then gives
        peak = np.abs(y0).max() if step.k == 0 else 0.0
        if peak <= box_radius:
            peak = np.abs(step.y_next).max()
        if not peak <= box_radius:
            return End(steps, step.k, y, note % (step.k, peak, box_radius))
        y = step.y_next
        if (grad_tol is not None
                and np.linalg.norm(objective.global_grad(step.x.mean(axis=0))) <= grad_tol):
            break
    if not count and not np.abs(y0).max() <= box_radius:
        return End(steps, 0, y0, note % (0, np.abs(y0).max(), box_radius))
    return End(steps, len(steps), y, "")
