"""Descent certificate walkthrough.

Runs NEAR-DGD with a fixed consensus count on the reference quartic
instance and verifies, iteration by iteration, that the Lyapunov function
decreases by at least rho * ||y_{k+1} - y_k||^2, and that the x-update is
exactly a gradient step on the Lyapunov function.
"""

import sys

from neardgd import (MethodSpec, build_consensus_matrix, build_ring,
                     rho_constant, run, sample_quartic_problem)
from neardgd.checks import certificate_verdicts

ALPHA = 0.1
T = 2

problem = sample_quartic_problem(n=12, p=4, index=4, c=1.0, seed=0)
cm = build_consensus_matrix(build_ring(12))

method = MethodSpec("near-dgd-t", t=T)
result = run(problem, cm, method, alpha=ALPHA, budget=500, seed=0)

rho = rho_constant(cm, T, ALPHA, result.lipschitz)
print("instance: n=12 ring, p=4, quartic coordinate 4")
print("beta (consensus contraction) = %.4f" % cm.beta)
print("descent constant rho(t=%d)   = %.4f" % (T, rho))
print()

lyap = [rec.lyapunov for rec in result.trace.records]
residuals = [rec.descent_residual for rec in result.trace.records[:-1]]
print("Lyapunov value: start %.6f -> end %.6f (monotone: %s)"
      % (lyap[0], lyap[-1], all(b <= a + 1e-12 for a, b in zip(lyap, lyap[1:]))))
print("worst descent residual (should be <= ~0): %.3g" % max(residuals))
print("worst |x_{k+1} - x_k + alpha * grad L_t(y_k)|: %.3g" % result.max_eq7_inf)
print("worst consensus-distance gap vs beta^t ||y_k||: %.3g" % result.max_cons_gap)
print()
# the verdicts of `neardgd check`: the closing claim only when they hold
failed = [(name, detail) for name, ok, detail in certificate_verdicts(result, method)
          if ok is not None and not ok]
for name, detail in failed:
    print("FAIL %s (%s)" % (name, detail))
if failed:
    sys.exit(1)
print("every certificate holds with slack; the iteration is literally")
print("gradient descent on the Lyapunov function in the x-variables.")
