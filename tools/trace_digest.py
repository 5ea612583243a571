"""SHA-256 digests of the program's observable output.

Prints one line per item, "<sha256>  <name>": the trace CSV and end state
of runs of every method (both objective families, cost coefficients given
as ints and as floats, a diverging run and a grad_tol run), of quartic
runs with one and with nine coordinates (sums over fewer and over more
than 8 entries, which NumPy adds in order and pairwise), of runs on the
benchmark's n=100 networks and on a ring of 30, the consensus products on C-ordered,
F-ordered and strided operands, a sweep CSV, the stdout of `neardgd run`,
`neardgd sweep` and `neardgd check` (`run` and `check` for every method on
a small instance and at run.budget = 0, whose certificates read n/a, and
`check` of a run that run.grad_tol ends early), and the spectral
diagnostics (saddle classification, Dg eigenvalues, Lyapunov Hessian and
descent constant rho) over a grid of t and alpha, then, last, runs and
products on both sides of consensus.dense_pays, on rings of 16, 20 and 24
nodes, and one run_batch on the ring of 24 whose block loop keeps the
matrix's memo and its dense twin's live at once. The tool runs NumPy on
one BLAS thread, since the bits of the larger-n products depend on the
thread count. tests/golden_digest.txt holds its output for this checkout,
and a tier-1 test compares the two; a change that alters bits rewrites
that file and states its bounds. A change that promises byte-identical
output shows it by printing the same lines on both trees:

    python3 tools/trace_digest.py > new.txt
    python3 tools/trace_digest.py --src /path/to/other/checkout/src > old.txt
    diff old.txt new.txt

--src names the package source to import (default: this checkout's src/).
The runs take a few seconds on one core.
"""

import argparse
import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

# One BLAS thread, pinned before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# (token, run() keyword arguments) on the n=12 reference instance
RUNS = [(tok, {}) for tok in ("near-dgd-t:1", "near-dgd-t:5", "near-dgd-plus",
                               "near-dgd-plus-doubling:4", "dgd", "gradient-tracking")]
RUNS += [
    # alpha above 2/L on a small box: leaves it mid-block
    ("near-dgd-t:5", dict(alpha=0.9, allow_large_alpha=True, box_radius=2.5, seed=1)),
    ("dgd", dict(alpha=0.9, allow_large_alpha=True, box_radius=2.5, seed=1)),
    ("near-dgd-plus", dict(budget=3000, grad_tol=1e-5)),
    ("near-dgd-t:3", dict(budget=3000, grad_tol=1e-4, seed=2)),
]

SMALL_CHECK = """\
problem.n = 4
problem.p = 2
problem.I = 2
run.budget = 200
method.name = %s
"""


def small_check(method):
    """SMALL_CHECK running method, with method.t = 2 for near-dgd-t."""
    return SMALL_CHECK % method + ("method.t = 2\n" if method == "near-dgd-t" else "")


SWEEP = """\
run.budget = 300
cost.c_c = 0.01
sweep.methods = %s
sweep.seeds = 0,1
""" % ",".join(("near-dgd-t:1", "near-dgd-t:5", "near-dgd-plus", "near-dgd-plus-doubling:100",
                "dgd", "gradient-tracking"))


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def run_result_digests(res, name):
    """The trace CSV and the end state of one run."""
    buf = io.StringIO()
    res.trace.write_csv_to(buf, extra_key_columns=True)
    yield sha(buf.getvalue()), "trace " + name
    state = b"".join([
        res.final_y.tobytes(), res.final_x.tobytes(), res.final_avg.tobytes(),
        repr((res.b_y, res.max_cons_gap, res.max_eq7_inf, res.lipschitz,
              res.counter.consensus_rounds, res.counter.gradient_evals,
              res.trace.diverged, res.trace.divergence_note)).encode()])
    yield sha(state), "state " + name


def run_digests():
    from neardgd import (CostModel, MethodSpec, build_consensus_matrix, build_ring,
                         run, sample_quadratic_problem, sample_quartic_problem)

    cm = build_consensus_matrix(build_ring(12))
    families = (("quartic", sample_quartic_problem(12, 4, 4, 1.0, seed=0)),
                ("quadratic", sample_quadratic_problem(12, 4, seed=0)))
    for family, problem in families:
        for costs in ((1, 1), (0.01, 1.0)):
            for token, kwargs in RUNS:
                kwargs = dict(dict(alpha=0.1, budget=400), **kwargs)
                res = run(problem, cm, MethodSpec.parse(token),
                          cost_model=CostModel(*costs), **kwargs)
                name = "%s %s %s c=%r,%r" % (family, token, sorted(kwargs.items()), *costs)
                yield from run_result_digests(res, name)
    for p in (1, 9):
        problem = sample_quartic_problem(12, p, p, 1.0, seed=0)
        for token in ("near-dgd-t:5", "near-dgd-plus"):
            res = run(problem, cm, MethodSpec.parse(token), alpha=0.1, budget=400)
            yield from run_result_digests(res, "quartic p=%d %s" % (p, token))


def network_run_digests(n, kind, g, rule, tokens):
    """Runs of each token on g, budget 100, seeds 0 and 1, of a quartic
    problem with p = 4 and c = sqrt(n / 12)."""
    from neardgd import MethodSpec, build_consensus_matrix, run, sample_quartic_problem

    problem = sample_quartic_problem(n, 4, 4, math.sqrt(n / 12.0), seed=0)
    cm = build_consensus_matrix(g, rule)
    for token in tokens:
        for seed in (0, 1):
            res = run(problem, cm, MethodSpec.parse(token), alpha=0.1, budget=100, seed=seed)
            yield from run_result_digests(
                res, "n=%d %s/%s %s seed=%d" % (n, kind, rule, token, seed))


def large_run_digests():
    """Runs on two-product matrices: the benchmark's scale networks at n=100,
    near-dgd-t:5 on a ring and an Erdos-Renyi graph (prob 0.1) under both
    weight rules, plus dgd, gradient tracking and the two changing-t
    schedules on the Metropolis ring, and near-dgd-t:5 on a ring of 30. A
    NEAR-DGD run for which consensus.dense_pays holds runs on the dense twin,
    one product per Z^t: near-dgd-t:5 and near-dgd-plus-doubling:25.
    near-dgd-plus and near-dgd-plus-doubling:4 stay on the two-product
    matrix, where each new t takes n powers and each use V (lam^t * (V' y))."""
    from neardgd import build_erdos_renyi, build_ring

    n = 100
    graphs = (("ring", build_ring(n)), ("erdos-renyi", build_erdos_renyi(n, 0.1, seed=0)))
    for kind, g in graphs:
        for rule in ("metropolis", "maxdegree"):
            tokens = ["near-dgd-t:5"]
            if (kind, rule) == ("ring", "metropolis"):
                tokens += ["dgd", "gradient-tracking", "near-dgd-plus",
                           "near-dgd-plus-doubling:4", "near-dgd-plus-doubling:25"]
            yield from network_run_digests(n, kind, g, rule, tokens)
    yield from network_run_digests(30, "ring", build_ring(30), "metropolis", ["near-dgd-t:5"])


def kernel_digests(ns=(12, 100)):
    """apply_consensus on rings of each n in ns, on C-ordered, F-ordered and
    strided iterates and stacks, on one column and on (n,) vectors."""
    from neardgd import apply_consensus, build_consensus_matrix, build_ring

    for n in ns:
        cm = build_consensus_matrix(build_ring(n))
        base = np.random.default_rng(n).uniform(-1.0, 1.0, size=(3, 2 * n, 9))
        c4 = np.ascontiguousarray(base[:, :n, :4])
        operands = (("C-ordered", c4), ("F-ordered stack", np.asfortranarray(c4)),
                    ("strided", base[:, ::2, ::2]), ("one column", c4[:, :, :1]))
        for t in (1, 2, 5):
            for layout, stack in operands:
                parts = [apply_consensus(cm, t, stack).tobytes()]
                parts += [apply_consensus(cm, t, y).tobytes() for y in stack]
                parts += [apply_consensus(cm, t, np.asfortranarray(y)).tobytes() for y in stack]
                yield sha(b"".join(parts)), "apply_consensus n=%d t=%d %s" % (n, t, layout)
            yield (sha(apply_consensus(cm, t, base[0, :n, 0]).tobytes()),
                   "apply_consensus n=%d t=%d vector" % (n, t))


def spectral_digests():
    from neardgd import build_consensus_matrix, build_ring, sample_quartic_problem
    from neardgd.diagnostics import (lyapunov_hessian, neardgd_map_jacobian_eigenvalues,
                                     rho_constant, saddle_classification)

    problem = sample_quartic_problem(12, 4, 4, 1.0, seed=0)
    cm = build_consensus_matrix(build_ring(12))
    saddle = np.zeros((12, 4))  # the lifted saddle of every node's f_i
    near = 1e-3 * np.random.default_rng(0).uniform(-1.0, 1.0, size=saddle.shape)
    ts = (1, 2, 5, 20)
    for alpha in (0.05, 0.1, 0.3):
        for t in ts:
            name = "t=%d alpha=%r" % (t, alpha)
            yield (sha(repr(saddle_classification(saddle, problem, cm, t, alpha))),
                   "saddle_classification at the saddle " + name)
            yield (sha(neardgd_map_jacobian_eigenvalues(saddle, problem, cm, t, alpha).tobytes()),
                   "Dg eigenvalues at the saddle " + name)
            yield (sha(lyapunov_hessian(near, problem, cm, t, alpha).tobytes()),
                   "lyapunov_hessian near the saddle " + name)
        rhos = [rho_constant(cm, t, alpha, 5.0) for t in ts]
        yield (sha(repr(rhos).encode() + rho_constant(cm, ts, alpha, 5.0).tobytes()),
               "rho_constant t=%r alpha=%r L=5.0" % (ts, alpha))


def cli_digests():
    from neardgd.cli import main

    def capture(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return "%s\n--stderr--\n%s--exit %d--\n" % (out.getvalue(), err.getvalue(), code)

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)  # the printed paths are then the same on every tree
        try:
            Path("sweep.cfg").write_text(SWEEP)
            yield sha(capture(["run", "--out", "."])), "stdout run (default config)"
            yield sha(Path("trace.csv").read_bytes()), "trace.csv of run (default config)"
            yield sha(capture(["sweep", "--config", "sweep.cfg", "--out", "."])), "stdout sweep"
            yield sha(Path("sweep.csv").read_bytes()), "sweep.csv"
            yield sha(capture(["check"])), "stdout check (default config)"
            for method in ("near-dgd-t", "near-dgd-plus", "near-dgd-plus-doubling",
                           "dgd", "gradient-tracking"):
                Path("check.cfg").write_text(small_check(method))
                yield (sha(capture(["check", "--config", "check.cfg"])),
                       "stdout check (method.name = %s)" % method)
                yield (sha(capture(["run", "--config", "check.cfg", "--out", "."])),
                       "stdout run (method.name = %s)" % method)
            Path("check.cfg").write_text(small_check("near-dgd-t") + "run.grad_tol = 1e-2\n")
            yield (sha(capture(["check", "--config", "check.cfg"])),
                   "stdout check (run.grad_tol = 1e-2, ends at k = 85 of 200)")
            # no iteration: no certificate row
            Path("check.cfg").write_text(small_check("near-dgd-t").replace(
                "run.budget = 200", "run.budget = 0"))
            for argv in (["run", "--out", "."], ["check"]):
                yield (sha(capture(argv + ["--config", "check.cfg"])),
                       "stdout %s (run.budget = 0)" % argv[0])
        finally:
            os.chdir(cwd)


def boundary_digests():
    """Both sides of consensus.dense_pays: near-dgd-plus and near-dgd-t:5 on
    rings of 16 and 24, and apply_consensus on a ring of 20, the smallest
    that is built two-product. near-dgd-plus runs dense at n = 16 and as two
    eigenbasis products at n = 24; near-dgd-t:5 runs dense at both."""
    from neardgd import build_ring

    for n in (16, 24):
        yield from network_run_digests(n, "ring", build_ring(n), "metropolis",
                                       ["near-dgd-plus", "near-dgd-t:5"])
    yield from kernel_digests((20,))


def batch_digests():
    """One run_batch on the Metropolis ring of 24, a two-product matrix, with
    p = 4 and budget 400, three blocks of at most 170 rows: near-dgd-plus
    runs on the matrix, near-dgd-t:5 and near-dgd-plus-doubling:4 on its
    dense twin, and dgd on W, so that each block holds both memos."""
    from neardgd import (MethodSpec, build_consensus_matrix, build_ring, run_batch,
                         sample_quartic_problem)

    n, tokens = 24, ("near-dgd-plus", "near-dgd-t:5", "near-dgd-plus-doubling:4", "dgd")
    problem = sample_quartic_problem(n, 4, 4, math.sqrt(n / 12.0), seed=0)
    cells = [(MethodSpec.parse(token), 0) for token in tokens]
    results = run_batch(problem, build_consensus_matrix(build_ring(n)), cells, 0.1, 400)
    for token, res in zip(tokens, results):
        yield from run_result_digests(res, "batch n=%d ring/metropolis %s seed=0" % (n, token))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the neardgd package")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    for digest, name in (*run_digests(), *large_run_digests(), *kernel_digests(),
                         *spectral_digests(), *cli_digests(), *boundary_digests(),
                         *batch_digests()):
        print("%s  %s" % (digest, name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
