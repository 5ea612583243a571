"""Saddle-point analysis and empirical escape statistics.

The quartic instance has a strict saddle at the origin and two symmetric
minimizers. This demo (1) classifies the lifted saddle through
S = (I - Dg)/alpha, which has the Lyapunov Hessian's inertia and gives
the iteration-map Jacobian's spectrum, and (2) runs the method from many
random initial points, counting how often it lands at a minimizer
instead of the saddle.
"""

import numpy as np

from neardgd import (MethodSpec, build_consensus_matrix, build_ring, run,
                     saddle_classification, sample_quartic_problem)

N_RUNS = 25
problem = sample_quartic_problem(n=12, p=4, index=4, c=1.0, seed=0)
cm = build_consensus_matrix(build_ring(12))

report = saddle_classification(np.zeros((12, 4)), problem, cm, t=5, alpha=0.1)
print("classification at the lifted origin: %s" % report.label)
print("  smallest eigenvalue of S = (I - Dg)/alpha: %.4f" % report.lambda_min_s)
print("  unstable directions (negative Hessian, iteration-map eigenvalues above 1): %d"
      " (max |eig| = %.4f)" % (report.unstable_count, report.max_abs_dg_eigenvalue))
print()

x_star = problem.minimizers()[0]
f_saddle = problem.global_value(np.zeros(4))
escaped = 0
for seed in range(N_RUNS):
    res = run(problem, cm, MethodSpec("near-dgd-t", t=5), alpha=0.1,
              budget=1500, seed=seed)
    avg = res.final_avg
    dist = min(np.linalg.norm(avg - x_star), np.linalg.norm(avg + x_star))
    if problem.global_value(avg) < f_saddle - 0.01 and dist <= 0.1 * np.linalg.norm(x_star):
        escaped += 1

print("runs from random points in [-1,1]^{np}: %d/%d converged to a"
      % (escaped, N_RUNS))
print("minimizer, %d stalled at the saddle -- the unstable directions of the"
      % (N_RUNS - escaped))
print("iteration map repel generic trajectories.")
