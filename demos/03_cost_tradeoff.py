"""Communication/computation cost tradeoff.

Reruns the method comparison and asks a different question: how much total
cost (c_c per consensus round + c_g per gradient evaluation) does each
method spend before settling below an objective-error target? When
communication is cheap, trading extra consensus rounds for accuracy wins;
when communication costs as much as computation, gradient tracking's two
rounds per iteration are hard to beat.
"""

import math

from neardgd import CostModel, MethodSpec, build_consensus_matrix, build_ring, \
    run, sample_quartic_problem

TARGET = 1e-4
REGIMES = {"cheap communication (c_c = 0.01 c_g)": (0.01, 1.0),
           "equal cost (c_c = c_g)": (1.0, 1.0)}

problem = sample_quartic_problem(n=12, p=4, index=4, c=1.0, seed=0)
cm = build_consensus_matrix(build_ring(12))

methods = [
    MethodSpec("near-dgd-t", t=1),
    MethodSpec("near-dgd-t", t=5),
    MethodSpec("near-dgd-plus"),
    MethodSpec("near-dgd-plus-doubling", period=100),
    MethodSpec("dgd"),
    MethodSpec("gradient-tracking"),
]

for regime, (c_c, c_g) in REGIMES.items():
    print(regime)
    for m in methods:
        # the cost column prices each row at c_c comms + c_g grads
        res = run(problem, cm, m, alpha=0.1, budget=1000, seed=0,
                  cost_model=CostModel(c_c, c_g))
        cost = res.trace.cost_to_reach(TARGET)
        print("  %-28s cost to f_err <= %g: %s"
              % (m.label(), TARGET, "never" if math.isinf(cost) else "%.2f" % cost))
    print()

print("methods that plateau above the target (fixed small t, DGD) never")
print("reach it at any cost; among the exact methods the winner flips with")
print("the price of communication.")
