"""Paired wall-clock comparison of two neardgd source trees in one process.

Copies the `neardgd` package of each tree into a temporary directory under
a name of its own, imports both, and times one call of a workload per tree
per pair. Each pair runs the two trees back to back, the first of them
alternating from pair to pair, so that a host whose speed changes over
seconds slows both sides of a pair alike. Prints each tree's median time
and quartiles, the median and the interquartile range over pairs of the
ratio change / base, and one verdict line: "gain shown" when the change is
faster in at least nine tenths of at least ten pairs (a tie counts for
neither tree) and the base's median time exceeds the change's by more than
the distance between the base's quartiles, "no gain shown" otherwise, with
each test it failed:

    python3 tools/ab_time.py --base /path/to/other/checkout/src --workload escape
    python3 tools/ab_time.py --base old/src --change new/src --workload dgd --pairs 40

Workloads, after the benchmark's (benchmarks/harness.py) on the n=12
reference instance (quartic, p=4, I=4, c=1, Metropolis ring, alpha=0.1):
  escape          one near-dgd-t:5 run at budget 1500, on the next seed
  escape100       the acceptance-5 experiment: near-dgd-t:5 at budget 1500 on
                  seeds 0..99, as one run_batch call
  sweep           `neardgd sweep`, in process: six methods, budget 1000, one seed
  batch           the sweep's six cells as one run_batch call, without the CLI
                  and the CSV
  csv             the sweep's sweep.csv written to memory from its six traces,
                  which are run before the timed calls
  scale           near-dgd-t:5 at budget 100 on a ring and an Erdos-Renyi
                  graph (prob 0.1) at n=100 under both weight rules, then a
                  saddle classification of the reference instance at t=5
  saddle          saddle_classification of the lifted origin at t=5
  short-blocks    one near-dgd-t:5 run at budget 300 with the tree's
                  optimizer.BLOCK_ELEMENTS set to n p, so that each of its
                  300 block passes certifies one row: the fixed cost of a pass
  tiny            200 near-dgd-t:5 run() calls at budget 1, on seeds 0..199:
                  the fixed cost of a run
  diverge         one near-dgd-t:5 run at alpha 6.0 (allow_large_alpha) on a
                  box of 2.5, budget 3000, seed 1: its y overflows by k = 11,
                  so this times the pass of a block that diverges
  grad-tol        one near-dgd-plus run at budget 3000 with grad_tol 1e-5,
                  seed 0: at n=12 it stops at k = 214, inside its first
                  block, so this times the pass of a block that stops
  <method token>  one run of that method (e.g. dgd, near-dgd-plus) at budget 1000
--n N runs escape, escape100, batch, saddle, short-blocks, tiny, grad-tol and
the method tokens on a Metropolis ring of N nodes with c = sqrt(N / 12), as
the benchmark's scale workload sizes its n=100 instance (N = 12 is the
reference instance). At N = 24 or 100 the batch's NEAR-DGD cells run on both
memos in one block loop: near-dgd-plus on the matrix and near-dgd-t:5 on its
dense twin.


    python3 tools/ab_time.py --base old/src --workload near-dgd-plus --n 32
    python3 tools/ab_time.py --base old/src --workload saddle --n 1000 --pairs 5
    python3 tools/ab_time.py --base old/src --workload short-blocks --n 100
    python3 tools/ab_time.py --base old/src --workload batch --n 24

consensus.CALL_COST is calibrated this way: near-dgd-plus, which forms a new
Z^t every iteration, at N = 12 to 32, with --base a copy of the tree with
CALL_COST = -inf (dense_pays never holds) and --change one with CALL_COST =
inf (it always does); where the ratio crosses 1, at N_x, CALL_COST =
N_x^2 (N_x - 4).

Set-up (problem and matrix builds) is outside the timed calls. The output
is for reading only; it is no gate. Run an A/A comparison beside each
A/B one, the base tree against itself (--change the same directory as
--base): its median and interquartile range show what the host's noise
alone reads (an A/A near-dgd-plus run of 30 pairs has read 0.975 on a
shared two-CPU host), and an A/B ratio inside them shows no change.
"""

import argparse
import contextlib
import importlib
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS thread, pinned before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ALPHA = 0.1
MIN_PAIRS = 10  # the fewest pairs on which a gain can be shown
SWEEP_METHODS = ("near-dgd-t:1", "near-dgd-t:5", "near-dgd-plus", "near-dgd-plus-doubling:100",
                 "dgd", "gradient-tracking")
SWEEP_CONFIG = """\
problem.kind = quartic
problem.n = 12
problem.p = 4
problem.I = 4
problem.c = 1.0
problem.seed = 0
graph.kind = ring
weights.rule = metropolis
run.alpha = %r
run.budget = 1000
cost.c_c = 0.01
cost.c_g = 1.0
sweep.methods = %s
sweep.seeds = 0
""" % (ALPHA, ", ".join(SWEEP_METHODS))


def import_tree(src, name, into):
    """Import <src>/neardgd as the package `name`, copied into `into`."""
    shutil.copytree(Path(src) / "neardgd", Path(into) / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def workload(pkg, token, workdir, n=12):
    """A call that runs the workload once on the package pkg; escape,
    escape100, batch, saddle, short-blocks, tiny, grad-tol and the method
    tokens run on a ring of n nodes."""
    def from_pkg(module):
        return importlib.import_module("%s.%s" % (pkg.__name__, module))

    optimizer, diagnostics = from_pkg("optimizer"), from_pkg("diagnostics")
    if n != 12 and token in ("sweep", "csv", "scale", "diverge"):
        raise ValueError("--n applies to escape, escape100, batch, saddle, short-blocks, tiny, "
                         "grad-tol and the method tokens, not to %s" % token)
    problem = pkg.sample_quartic_problem(n, 4, 4, math.sqrt(n / 12.0), seed=0)
    cm = pkg.build_consensus_matrix(pkg.build_ring(n))
    if token == "escape":
        method, seeds = pkg.MethodSpec("near-dgd-t", t=5), iter(range(10**9))
        return lambda: optimizer.run(problem, cm, method, ALPHA, 1500, seed=next(seeds))
    if token == "short-blocks":
        method = pkg.MethodSpec("near-dgd-t", t=5)
        optimizer.BLOCK_ELEMENTS = n * 4  # one row per block, in this tree alone
        return lambda: optimizer.run(problem, cm, method, ALPHA, 300, seed=0)
    if token == "tiny":
        method = pkg.MethodSpec("near-dgd-t", t=5)
        return lambda: [optimizer.run(problem, cm, method, ALPHA, 1, seed=seed)
                        for seed in range(200)]
    if token == "diverge":
        method = pkg.MethodSpec("near-dgd-t", t=5)
        return lambda: optimizer.run(problem, cm, method, 6.0, 3000, seed=1,
                                     allow_large_alpha=True, box_radius=2.5)
    if token == "grad-tol":
        method = pkg.MethodSpec("near-dgd-plus")
        return lambda: optimizer.run(problem, cm, method, ALPHA, 3000, seed=0, grad_tol=1e-5)
    if token == "escape100":
        method = pkg.MethodSpec("near-dgd-t", t=5)
        cells = [(method, seed) for seed in range(100)]
        return lambda: optimizer.run_batch(problem, cm, cells, ALPHA, 1500)
    if token == "batch":
        cells = [(pkg.MethodSpec.parse(m), 0) for m in SWEEP_METHODS]
        cost = diagnostics.CostModel(c_c=0.01, c_g=1.0)
        return lambda: optimizer.run_batch(problem, cm, cells, ALPHA, 1000, cost_model=cost)
    if token == "saddle":
        origin = np.zeros((n, 4))
        return lambda: diagnostics.saddle_classification(origin, problem, cm, 5, ALPHA)
    if token == "sweep":
        cli = from_pkg("cli")
        config = Path(workdir) / "sweep.cfg"
        config.write_text(SWEEP_CONFIG)
        out_dir = Path(workdir) / ("out-" + pkg.__name__)

        def sweep():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["sweep", "--config", str(config), "--out", str(out_dir)])
            if code != 0:
                raise RuntimeError("sweep exited with %d" % code)
        return sweep
    if token == "csv":
        cost = diagnostics.CostModel(c_c=0.01, c_g=1.0)
        traces = [optimizer.run(problem, cm, pkg.MethodSpec.parse(m), ALPHA, 1000,
                                cost_model=cost).trace for m in SWEEP_METHODS]

        def write():
            fh = io.StringIO()
            for i, trace in enumerate(traces):
                trace.write_csv_to(fh, header=(i == 0), extra_key_columns=True)
        return write
    if token == "scale":
        n, method = 100, pkg.MethodSpec("near-dgd-t", t=5)
        large = pkg.sample_quartic_problem(n, 4, 4, math.sqrt(n / 12.0), seed=0)
        cms = [pkg.build_consensus_matrix(g, rule)
               for g in (pkg.build_ring(n), pkg.build_erdos_renyi(n, 0.1, seed=0))
               for rule in ("metropolis", "maxdegree")]

        def scale():
            for c in cms:
                optimizer.run(large, c, method, ALPHA, 100, seed=0)
            diagnostics.saddle_classification(np.zeros((12, 4)), problem, cm, 5, ALPHA)
        return scale
    method = pkg.MethodSpec.parse(token)
    return lambda: optimizer.run(problem, cm, method, ALPHA, 1000, seed=0)


def quartiles(values):
    """(first quartile, median, third quartile) of values; one value is all
    three."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def verdict(base, change):
    """The verdict line on paired times, base[i] and change[i] of pair i:
    "gain shown" when there are at least MIN_PAIRS pairs, the change is
    faster in at least nine tenths of them (a tie counts for neither tree),
    and the base's median exceeds the change's by more than the base's
    interquartile range; "no gain shown" otherwise, naming each test that
    failed."""
    pairs, wins = len(base), sum(c < b for b, c in zip(base, change))
    q1, median, q3 = quartiles(base)
    gain, spread = median - quartiles(change)[1], q3 - q1
    failed = []
    if pairs < MIN_PAIRS:
        failed.append("%d pairs, fewer than %d" % (pairs, MIN_PAIRS))
    if 10 * wins < 9 * pairs:
        failed.append("faster in %d of %d pairs, fewer than nine tenths" % (wins, pairs))
    if not gain > spread:
        failed.append("median gain %.5f s not above the base's interquartile range %.5f s"
                      % (gain, spread))
    if failed:
        return "verdict: no gain shown (%s)" % "; ".join(failed)
    return ("verdict: gain shown (faster in %d of %d pairs, median gain %.5f s above the "
            "base's interquartile range %.5f s)" % (wins, pairs, gain, spread))


def timed(call):
    """Seconds of one call."""
    started = perf_counter()
    call()
    return perf_counter() - started


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="source directory of the base tree")
    parser.add_argument("--change", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="source directory of the changed tree (default: this checkout's src/)")
    parser.add_argument("--workload", default="escape",
                        help="escape, escape100, sweep, batch, csv, scale, saddle, "
                             "short-blocks, tiny, diverge, grad-tol or a method token "
                             "(default: escape)")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs (default: 20)")
    parser.add_argument("--n", type=int, default=12,
                        help="ring size for escape, escape100, batch, saddle, short-blocks, "
                             "tiny, grad-tol and the method tokens (default: 12)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.n < 3:
        parser.error("--n must be at least 3, the smallest ring")
    for src in (args.base, args.change):
        if not (Path(src) / "neardgd" / "__init__.py").is_file():
            parser.error("no neardgd package under %s" % src)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            calls = {side: workload(import_tree(src, "neardgd_" + side, tmp), args.workload, tmp,
                                    args.n)
                     for side, src in (("base", args.base), ("change", args.change))}
        except ValueError as exc:  # a workload that is no method token, or --n with sweep
            parser.error("--workload: %s" % exc)
        for call in calls.values():
            call()  # warm-up: first calls and caches stay out of the samples
        times = {"base": [], "change": []}
        for i in range(args.pairs):
            for side in (("base", "change") if i % 2 == 0 else ("change", "base")):
                times[side].append(timed(calls[side]))
    ratios = [c / b for b, c in zip(times["base"], times["change"])]
    for side in ("base", "change"):
        q1, median, q3 = quartiles(times[side])
        print("%-6s median %.5f s, quartiles %.5f-%.5f s" % (side, median, q1, q3))
    q1, _, q3 = quartiles(ratios)  # one pair has no spread
    print("change / base: median paired ratio %.3f (%+.1f %%), interquartile range %.3f, "
          "change faster in %d of %d pairs"
          % (statistics.median(ratios), 100 * (statistics.median(ratios) - 1), q3 - q1,
             sum(r < 1 for r in ratios), len(ratios)))
    print(verdict(times["base"], times["change"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
