"""Workloads, tracing and metrics for the neardgd benchmark.

The benchmark measures the library from outside: it times calls into public
functions and never edits library code. For the per-layer numbers, a traced
run swaps wrappers in at every name a caller looks up (see TRACE_POINTS),
records one span per wrapped call, and restores the originals before any
timed run.

Each workload is a closed loop with one caller: a batch starts when the
previous one has ended and been checked. Inputs come from the workload seed;
every run's final f_err is compared with reference.json, recorded with the
same inputs at the commit named in that file.
"""

import contextlib
import csv
import functools
import gc
import io
import json
import math
import os
import platform
import random
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from neardgd import (cli, config, consensus, diagnostics, graph, linalg,
                     objective, optimizer)

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

ALPHA = 0.1
# Certificate tolerances, as in tests/test_acceptance.py.
DESCENT_RTOL = 1e-10
EQ7_TOL = 1e-10
CONS_GAP_TOL = 1e-12
# Final f_err must match the recorded value to this relative tolerance; it is
# looser than the certificates so that reordered float sums still pass.
F_ERR_RTOL = 1e-9

# Reported in the result line and bounded in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("runs_per_s", "1/s"),
    ("iters_per_s", "1/s"), ("run_s.p50", "s"), ("peak_rss_mb", "MB"),
)
# Printed for people only: on a shared host its spread between runs is
# wider than any bound BENCHMARK.json may set (see README.md).
PRINTED_ONLY = (("run_s.tail", "s"),)

PER_LAYER = tuple(
    [("objective.%s.%s" % (fn, stat), unit)
     for fn in ("stacked_value", "stacked_grad", "global_value", "global_grad")
     for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("objective.value_calls_per_iter", "ratio"),
       ("objective.grad_useful_ratio", "ratio"),
       ("optimizer.run.calls", "count"), ("optimizer.run.self_s", "s"),
       ("diagnostics.certificate.self_s", "s"),
       ("consensus.apply.calls", "count"), ("consensus.apply.rounds", "count"),
       ("consensus.apply.self_s", "s"), ("consensus.counted_ratio", "ratio"),
       ("consensus.build.calls", "count"), ("consensus.build.self_s", "s"),
       ("linalg.sym_eigen.calls", "count"), ("linalg.sym_eigen.self_s", "s"),
       ("linalg.sym_eigen.per_build", "ratio"), ("linalg.sym_power.calls", "count"),
       ("graph.build.calls", "count"), ("graph.build.self_s", "s"),
       ("diagnostics.spectral.self_s", "s"),
       ("diagnostics.write_csv.self_s", "s"), ("diagnostics.csv_bytes", "bytes"),
       ("diagnostics.trace_rows", "count"), ("config.load.self_s", "s"),
       ("cli.sweep.self_s", "s"), ("trace.overhead_frac", "ratio")]
)


# ---------------------------------------------------------------------------
# Tracing

class Tracer:
    """Spans kept in memory as (name, parent index, start, end, amount).

    ``amount`` is a per-call quantity such as the consensus rounds applied;
    ``tallies`` collects counts read off the results of ``optimizer.run``.
    """

    def __init__(self):
        self.spans = []
        self.tallies = Counter()
        self._stack = []

    def wrap(self, fn, name, amount=None, observe=None):
        spans, stack, tallies = self.spans, self._stack, self.tallies

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, start, end,
                              amount(*args, **kwargs) if amount else 0)
            if observe is not None:
                observe(tallies, result)
            return result

        return traced


def span_stats(spans):
    """Per-name [calls, self seconds, amount].

    A span's self time is its duration minus the durations of its direct
    children, which nest inside it and do not overlap in one thread.
    """
    child = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = {}
    for i, (name, _, start, end, amount) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0])
        entry[0] += 1
        entry[1] += end - start - child[i]
        entry[2] += amount
    return stats


def count_within(spans, inner, outer):
    """Number of ``inner`` spans that have an ``outer`` span as an ancestor."""
    count = 0
    for name, parent, *_ in spans:
        if name != inner:
            continue
        while parent >= 0 and spans[parent][0] != outer:
            parent = spans[parent][1]
        count += parent >= 0
    return count


def _rounds(cm, t, *args, **kwargs):
    return t


def _tally_run(tallies, result):
    rows = len(result.trace.records)
    tallies["counted_rounds"] += result.counter.consensus_rounds
    tallies["gradient_evals"] += result.counter.gradient_evals
    tallies["trace_rows"] += rows
    tallies["iterations"] += rows - 1  # the terminal row is not an iteration


# Every (owner, attribute) through which the library or the benchmark reaches
# a layer, with the span name it records. Modules that import a function by
# name hold their own reference, so each such module is listed. The objective
# oracles are defined once, on the base class.
TRACE_POINTS = (
    (objective.Objective, "stacked_value", "objective.stacked_value", {}),
    (objective.Objective, "stacked_grad", "objective.stacked_grad", {}),
    (objective.Objective, "global_value", "objective.global_value", {}),
    (objective.Objective, "global_grad", "objective.global_grad", {}),
    (optimizer, "run", "optimizer.run", {"observe": _tally_run}),
    (cli, "run", "optimizer.run", {"observe": _tally_run}),
    (optimizer, "consensus_distance", "diagnostics.certificate", {}),
    (optimizer, "rho_constant", "diagnostics.certificate", {}),
    (optimizer, "cumulative_cost", "diagnostics.certificate", {}),
    (consensus, "apply_consensus", "consensus.apply", {"amount": _rounds}),
    (optimizer, "apply_consensus", "consensus.apply", {"amount": _rounds}),
    (diagnostics, "apply_consensus", "consensus.apply", {"amount": _rounds}),
    (consensus, "build_consensus_matrix", "consensus.build", {}),
    (config, "build_consensus_matrix", "consensus.build", {}),
    (linalg, "sym_eigen", "linalg.sym_eigen", {}),
    (consensus, "sym_eigen", "linalg.sym_eigen", {}),
    (diagnostics, "sym_eigen", "linalg.sym_eigen", {}),
    (linalg, "sym_power", "linalg.sym_power", {}),
    (diagnostics, "sym_power", "linalg.sym_power", {}),
    (graph, "build_ring", "graph.build", {}),
    (graph, "build_star", "graph.build", {}),
    (graph, "build_erdos_renyi", "graph.build", {}),
    (graph, "from_edge_list", "graph.build", {}),
    (config, "build_ring", "graph.build", {}),
    (config, "build_star", "graph.build", {}),
    (config, "build_erdos_renyi", "graph.build", {}),
    (config, "from_edge_list", "graph.build", {}),
    (diagnostics, "saddle_classification", "diagnostics.spectral", {}),
    (diagnostics, "lyapunov_hessian", "diagnostics.spectral", {}),
    (diagnostics, "neardgd_map_jacobian_eigenvalues", "diagnostics.spectral", {}),
    (diagnostics.RunTrace, "write_csv_to", "diagnostics.write_csv", {}),
    (cli, "load_run_config_file", "config.load", {}),
    (cli, "cmd_sweep", "cli.sweep", {}),
)


class Patches:
    """Installs tracing wrappers at TRACE_POINTS and puts the originals back.

    Create it while nothing is patched: it captures the originals then.
    """

    def __init__(self):
        self.points = TRACE_POINTS
        self.originals = [vars(owner)[attr] for owner, attr, _, _ in TRACE_POINTS]

    def install(self, tracer):
        for (owner, attr, name, hooks), original in zip(self.points, self.originals):
            setattr(owner, attr, tracer.wrap(original, name, **hooks))

    def restore(self):
        for (owner, attr, _, _), original in zip(self.points, self.originals):
            setattr(owner, attr, original)

    def verify(self):
        """Raise unless every traced name holds its original again."""
        stray = ["%s.%s" % (owner.__name__, attr)
                 for (owner, attr, _, _), original in zip(self.points, self.originals)
                 if vars(owner)[attr] is not original]
        if stray:
            raise RuntimeError("tracing wrappers still installed: %s" % ", ".join(stray))


# ---------------------------------------------------------------------------
# Checks shared by the workloads

def f_err_failure(f_err, reference):
    if reference is None:
        return "no recorded f_err"
    if not abs(f_err - reference) <= F_ERR_RTOL * max(1.0, abs(reference)):
        return "f_err %r differs from recorded %r" % (f_err, reference)
    return None


def certificate_failure(res):
    if res.diverged:
        return "diverged (%s)" % res.trace.divergence_note
    for rec in res.trace.records[:-1]:
        if not rec.descent_residual <= DESCENT_RTOL * max(1.0, abs(rec.lyapunov)):
            return "descent residual %g at k=%d" % (rec.descent_residual, rec.k)
    if not res.max_eq7_inf <= EQ7_TOL:
        return "max_eq7_inf %g" % res.max_eq7_inf
    if not res.max_cons_gap <= CONS_GAP_TOL:
        return "max_cons_gap %g" % res.max_cons_gap
    return None


def reference_instance():
    """The paper's reference setup: quartic n=12, p=4, I=4, c=1, Metropolis ring."""
    problem = objective.sample_quartic_problem(12, 4, 4, 1.0, seed=0)
    return problem, consensus.build_consensus_matrix(graph.build_ring(12))


@dataclass
class Batch:
    """One checked result of a workload."""

    seconds: float = 0.0           # program time of the batch: one wall_s sample
    run_times: list = field(default_factory=list)  # run_s samples
    runs: int = 0                  # checked runs (sweep: cells)
    iterations: int = 0
    failures: list = field(default_factory=list)   # one message per failed run
    csv_bytes: int = 0
    speed: float = 1.0             # host speed factor beside the batch (see measure)

    def run(self, label, call, check, sample=True):
        """Time ``call()`` as one run, then ``check`` its result untimed.

        ``check`` returns a failure message or None. An exception from the
        call is a failed run, not an error of the benchmark. With ``sample``
        false the time counts in the batch but is not a run_s sample.
        """
        started = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failed run is counted, not raised
            result, failure = None, "%s: %s" % (type(exc).__name__, exc)
        elapsed = perf_counter() - started
        if result is not None:
            failure = check(result)
            if hasattr(result, "trace"):
                self.iterations += len(result.trace.records) - 1
        self.seconds += elapsed
        if sample:
            self.run_times.append(elapsed)
        self.runs += 1
        if failure:
            self.failures.append("%s: %s" % (label, failure))


class Workload:
    """A workload: ``warmup()``, ``setup_parts()``, ``assemble(results)`` and
    ``batch(state, j) -> Batch``, where ``j`` numbers the batches of a run.

    A set-up calls each of ``setup_parts()`` once, and each call is one
    set-up sample; ``assemble`` turns their results into the batches' state.
    With ``setup_every_batch`` each batch runs on a fresh set-up, so the
    set-up samples spread over the whole run; otherwise one set-up serves
    every batch.
    """

    setup_every_batch = True
    traced_batches = 2

    def assemble(self, results):
        return results[0]


    def setup(self):
        """One untimed set-up: the state for ``batch``."""
        return self.assemble([part() for part in self.setup_parts()])

    note = None  # a line for the output about how the workload runs


# ---------------------------------------------------------------------------
# escape: per-node objective loops, certificates and trace rows dominate

class Escape(Workload):
    """Saddle escape (acceptance 5): near-dgd-t:5 from consecutive seeds.

    A batch is one run: batch j runs the j-th seed after the start seed.
    """

    name = "escape"
    method = optimizer.MethodSpec("near-dgd-t", t=5)
    budget = 1500
    table_seeds = range(64)

    def __init__(self, seed, reference):
        self.reference = reference
        self.start = random.Random(seed).randrange(len(self.table_seeds))
        # escape-rule constants, computed here so that traced counts hold
        # only the program's own objective calls
        problem, _ = reference_instance()
        self.x_star = problem.minimizers()[0]
        self.saddle_gap = problem.global_value(np.zeros(problem.p)) - problem.min_value()

    def setup_parts(self):
        return [reference_instance]

    def _run(self, state, seed):
        problem, cm = state
        return optimizer.run(problem, cm, self.method, ALPHA, self.budget, seed=seed)

    def _seed(self, i):
        return self.table_seeds[(self.start + i) % len(self.table_seeds)]

    def warmup(self):
        self._run(self.setup(), self._seed(0))

    def _check(self, res, seed):
        # acceptance 5; f_err is f at the final average minus f*
        avg, x_star = res.final_avg, self.x_star
        near_min = min(np.linalg.norm(avg - x_star), np.linalg.norm(avg + x_star))
        escaped = (res.trace.final.f_err < self.saddle_gap - 0.01
                   and near_min <= 0.1 * np.linalg.norm(x_star))
        return (certificate_failure(res)
                or (None if escaped else "did not escape the saddle")
                or f_err_failure(res.trace.final.f_err, self.reference.get(str(seed))))

    def batch(self, state, j):
        seed = self._seed(j)
        out = Batch()
        out.run("escape seed %d" % seed, lambda: self._run(state, seed),
                lambda res: self._check(res, seed))
        return out

    def record(self):
        state = self.setup()
        return {str(s): self._run(state, s).trace.final.f_err for s in self.table_seeds}


# ---------------------------------------------------------------------------
# sweep: consensus rounds of near-dgd-plus, config, process pool and CSV

SWEEP_METHODS = ("near-dgd-t:1", "near-dgd-t:5", "near-dgd-plus",
                 "near-dgd-plus-doubling:100", "dgd", "gradient-tracking")
SWEEP_CONFIG = """\
problem.kind = quartic
problem.n = 12
problem.p = 4
problem.I = 4
problem.c = 1.0
problem.seed = 0
graph.kind = ring
weights.rule = metropolis
run.alpha = 0.1
run.budget = 1000
cost.c_c = 0.01
cost.c_g = 1.0
sweep.methods = %s
sweep.seeds = %s
"""


def sustained_cost(rows, target, c_c, c_g):
    """Cost of first reaching f_err <= target and staying there (acceptance 8)."""
    reached = None
    for comms, grads, f_err in rows:
        if f_err <= target:
            if reached is None:
                reached = c_c * comms + c_g * grads
        else:
            reached = None
    return math.inf if reached is None else reached


def ordering_failures(cells):
    """Acceptance 7 and 8 orderings for one seed; cells maps method -> rows."""
    fe = {m: rows[-1][2] for m, rows in cells.items()}
    nd1, nd5, plus, plus100 = (fe["near-dgd-t:1"], fe["near-dgd-t:5"], fe["near-dgd-plus"],
                               fe["near-dgd-plus-doubling:100"])
    failures = []
    if not (max(plus, plus100) < 1e-6 and plus < nd5 and plus100 < nd5
            and nd5 <= nd1 / 10.0 and 0.1 <= fe["dgd"] / nd1 <= 10.0):
        failures.append("final-error ordering (acceptance 7)")
    cheap = {m: sustained_cost(rows, 1e-4, 0.01, 1.0) for m, rows in cells.items()}
    even = {m: sustained_cost(rows, 1e-4, 1.0, 1.0) for m, rows in cells.items()}
    if not (cheap["near-dgd-plus"] < cheap["dgd"]
            and cheap["near-dgd-plus"] < cheap["near-dgd-t:1"]
            and even["gradient-tracking"] < even["near-dgd-plus"]):
        failures.append("cost ordering (acceptance 8)")
    return failures


class Sweep(Workload):
    """`neardgd sweep` in-process: the six methods on one seed per call."""

    name = "sweep"
    note = "sweep: every call, traced or not, uses --parallel 1"
    traced_batches = 1
    table_seeds = range(16)
    cells = len(SWEEP_METHODS)

    def __init__(self, seed, reference, workdir):
        self.reference = reference
        self.seed = random.Random(seed).choice(self.table_seeds)
        self.workdir = Path(workdir)
        self.config_path = self._write_config([self.seed])
        self.expected_csv = None      # the warm-up sweep's output
        self._expected_verdict = None

    def _write_config(self, seeds):
        path = self.workdir / ("sweep-%s.cfg" % "-".join(map(str, seeds)))
        path.write_text(SWEEP_CONFIG % (", ".join(SWEEP_METHODS),
                                        ", ".join(map(str, seeds))))
        return path

    def _sweep(self, config_path):
        out_dir = self.workdir / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            # One process: the traced run's spans all stay in it, and the
            # host-speed calibration (see measure) times the CPU the work
            # runs on. With --parallel 2 the two workers' CPUs change speed
            # apart, and calibrated times still spread 11 to 15 %.
            code = cli.main(["sweep", "--config", str(config_path), "--out",
                             str(out_dir), "--parallel", "1"])
        return code, (out_dir / "sweep.csv").read_bytes()

    def setup_parts(self):
        return [self._cell_setup]

    def _cell_setup(self):
        # what each sweep cell does before its first iteration
        cfg = config.load_run_config_file(self.config_path)
        cfg.build_problem()
        cfg.build_consensus()

    def warmup(self):
        _, self.expected_csv = self._sweep(self.config_path)

    @staticmethod
    def _cells(data):
        reader = csv.reader(io.StringIO(data.decode()))
        col = {c: i for i, c in enumerate(next(reader))}
        cells = {}
        for row in reader:
            cells.setdefault((row[0], int(row[1])), []).append(
                (int(row[col["comms"]]), int(row[col["grads"]]), float(row[col["f_err"]])))
        return cells

    def _verdict(self, data):
        """(failures, iterations) of one sweep CSV."""
        try:
            cells = self._cells(data)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            return ["sweep: unreadable CSV (%s)" % exc] * self.cells, 0
        seed = self.seed
        if not all((m, seed) in cells for m in SWEEP_METHODS):
            return ["sweep seed %d: missing cells" % seed] * self.cells, 0
        runs = {m: cells[m, seed] for m in SWEEP_METHODS}
        order = "; ".join(ordering_failures(runs))
        failures = []
        for m, rows in runs.items():
            failure = f_err_failure(rows[-1][2], self.reference.get("%s@%d" % (m, seed))) or order
            if failure:
                failures.append("sweep %s seed %d: %s" % (m, seed, failure))
        return failures, sum(len(rows) - 1 for rows in runs.values())

    def batch(self, state, j):
        started = perf_counter()
        try:
            code, data = self._sweep(self.config_path)
        except Exception as exc:  # a failed sweep is counted, not raised
            code, data = "%s: %s" % (type(exc).__name__, exc), b""
        elapsed = perf_counter() - started
        if code != 0:
            failures, iterations = ["sweep: %s" % code] * self.cells, 0
        elif data != self.expected_csv:
            failures, iterations = ["sweep: CSV differs from the warm-up sweep's"] * self.cells, 0
        else:
            # identical bytes, identical verdict: check the CSV once
            if self._expected_verdict is None:
                self._expected_verdict = self._verdict(data)
            failures, iterations = self._expected_verdict
        return Batch(seconds=elapsed, run_times=[elapsed], runs=self.cells,
                     iterations=iterations, failures=list(failures), csv_bytes=len(data))

    def record(self):
        seeds = list(self.table_seeds)
        _, data = self._sweep(self._write_config(seeds))
        return {"%s@%d" % key: rows[-1][2] for key, rows in sorted(self._cells(data).items())}


# ---------------------------------------------------------------------------
# scale: consensus-matrix construction and spectral diagnostics dominate

class Scale(Workload):
    """Larger networks: ring and Erdos-Renyi at n=100 under both weight rules."""

    name = "scale"
    setup_every_batch = False  # one set-up builds four networks
    method = optimizer.MethodSpec("near-dgd-t", t=5)
    budget = 100
    networks = (("ring", "metropolis"), ("ring", "maxdegree"),
                ("erdos-renyi", "metropolis"), ("erdos-renyi", "maxdegree"))
    table_seeds = range(32)

    def __init__(self, seed, reference, n=100, er_prob=0.1):
        self.reference = reference
        self.n = n
        self.er_prob = er_prob
        self.start = random.Random(seed).randrange(len(self.table_seeds))
        self.saddle_instance = reference_instance()

    def build(self, kind, rule):
        # c = sqrt(n/12) keeps c^2/n, hence L and the minimisers, as at n=12,
        # so the trajectory stays inside the default box
        n = self.n
        problem = objective.sample_quartic_problem(n, 4, 4, math.sqrt(n / 12.0), seed=0)
        g = (graph.build_ring(n) if kind == "ring"
             else graph.build_erdos_renyi(n, self.er_prob, seed=0))
        return problem, consensus.build_consensus_matrix(g, rule)

    def setup_parts(self):
        return [functools.partial(self.build, kind, rule) for kind, rule in self.networks]

    def assemble(self, results):
        return dict(zip(self.networks, results))

    def warmup(self):
        # the same code paths at n=12, so imports and first calls stay out of
        # the samples without paying for four n=100 builds
        nets = Scale(0, self.reference, n=12, er_prob=0.5).setup()
        problem, cm = self.saddle_instance
        for p, c in nets.values():
            optimizer.run(p, c, self.method, ALPHA, 10, seed=0)
        diagnostics.saddle_classification(np.zeros((12, 4)), problem, cm, 5, ALPHA)

    def batch(self, nets, j):
        ref_problem, ref_cm = self.saddle_instance
        seed = self.table_seeds[(self.start + j) % len(self.table_seeds)]
        out = Batch()
        for (kind, rule), (problem, cm) in nets.items():
            key = "%s/%s@%d" % (kind, rule, seed)
            out.run("scale " + key,
                    lambda: optimizer.run(problem, cm, self.method, ALPHA, self.budget, seed=seed),
                    lambda res: (certificate_failure(res) or f_err_failure(
                        res.trace.final.f_err, self.reference.get(key))))
        out.run("scale saddle",
                lambda: diagnostics.saddle_classification(
                    np.zeros((ref_problem.n, ref_problem.p)), ref_problem, ref_cm, 5, ALPHA),
                lambda report: (None if report.label == "strict-saddle"
                                else "label %r" % report.label),
                sample=False)  # keeps run_s a sample of like runs
        return out

    def record(self):
        nets = self.setup()
        return {"%s/%s@%d" % (kind, rule, s):
                optimizer.run(p, c, self.method, ALPHA, self.budget, seed=s).trace.final.f_err
                for (kind, rule), (p, c) in nets.items() for s in self.table_seeds}


WORKLOADS = ("escape", "sweep", "scale")


def make_workload(name, seed, reference, workdir):
    if name == "escape":
        return Escape(seed, reference)
    if name == "sweep":
        return Sweep(seed, reference, workdir)
    if name == "scale":
        return Scale(seed, reference)
    raise ValueError("unknown workload %r" % name)


def load_reference(path=REFERENCE_FILE):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Measurement and metrics

# ---------------------------------------------------------------------------
# Host speed

# The host's speed drifts: a fixed piece of work runs in one of two speeds
# about 1.7x apart, switching within seconds, and the share of slow time
# changes over minutes. A run's times are scaled by the speed of a fixed
# calibration kernel timed beside them, so that they read as seconds on a
# host where the kernel takes CALIBRATION_REFERENCE_S (its fast-state time on
# the 2-vCPU machine the baseline in README.md was measured on).
CALIBRATION_REFERENCE_S = 0.018
KERNEL_SHARE = 0.05


def calibration_kernel():
    """Fixed work in the library's style: small NumPy products in Python loops.

    It uses only NumPy and the interpreter, never neardgd, so a change to
    the library cannot change it.
    """
    rng = np.random.default_rng(0)
    x = rng.standard_normal((12, 4))
    w = rng.standard_normal((12, 12)) / 12.0
    acc = 0.0
    for _ in range(3000):
        x = w @ x * 0.5 + 0.01
        for i in range(12):
            acc += float(x[i, 0]) ** 2
    return acc


def kernel_seconds():
    started = perf_counter()
    calibration_kernel()
    return perf_counter() - started


def kernel_timings(work_seconds):
    """Kernel timings taken after ``work_seconds`` of work: at least one, and
    enough to add up to KERNEL_SHARE of that work, so that a long piece of
    work is set against a sample of the host's speed as long as needed."""
    timings = [kernel_seconds()]
    while sum(timings) < KERNEL_SHARE * work_seconds:
        timings.append(kernel_seconds())
    return timings


def measure(workload, seconds, state=None):
    """Closed loop: run batches until ``seconds`` have passed (at least one).

    Returns (set-up samples, batches); a set-up sample is (seconds, speed).
    A set-up precedes the first batch, or every batch if the workload asks
    for that; the clock starts after the first set-up. The calibration
    kernel is timed first and then after every set-up part and every batch
    (see kernel_timings), so that each has kernel timings on either side;
    its speed factor is CALIBRATION_REFERENCE_S / (mean of those timings).
    Garbage left by earlier work is collected first, outside the timers, so
    that no batch or set-up pays for another's.
    """
    setup_samples, batches, started = [], [], None
    before = kernel_timings(0.0)

    def speed_since_before(work_seconds):
        nonlocal before
        after = kernel_timings(work_seconds)
        speed = CALIBRATION_REFERENCE_S / statistics.fmean(before + after)
        before = after
        return speed

    while not batches or perf_counter() - started < seconds:
        if state is None or workload.setup_every_batch:
            results = []
            for part in workload.setup_parts():
                gc.collect()
                part_started = perf_counter()
                results.append(part())
                elapsed = perf_counter() - part_started
                setup_samples.append((elapsed, speed_since_before(elapsed)))
            state = workload.assemble(results)
        if started is None:
            started = perf_counter()
        gc.collect()
        batch = workload.batch(state, len(batches))
        batch.speed = speed_since_before(batch.seconds)
        batches.append(batch)
    return setup_samples, batches


def tail(sorted_values):
    """(value, percentile): the highest percentile with ten samples above it.

    With fewer than 21 samples that percentile would not lie above the
    median, so the maximum is reported as p100 instead.
    """
    n = len(sorted_values)
    if n < 21:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb():
    """Peak resident set of this process plus its largest reaped child (ru_maxrss, KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(setup_samples, batches, peak_mb):
    """{name: (value, unit, note)} for every END_TO_END and PRINTED_ONLY metric,
    plus ``raw.<name>`` for each time: the same statistic without the speed
    factor, as the wall clock read it."""
    metrics = {}
    for prefix, factor in (("", lambda speed: speed), ("raw.", lambda speed: 1.0)):
        setups = [t * factor(speed) for t, speed in setup_samples]
        walls = [b.seconds * factor(b.speed) for b in batches]
        run_times = sorted(t * factor(b.speed) for b in batches for t in b.run_times)
        tail_value, tail_pct = tail(run_times)
        per_batch = "median over %d batches" % len(batches)
        values = {
            "setup_s": (statistics.median(setups), "median of %d set-ups" % len(setups)),
            "wall_s": (statistics.median(walls), per_batch),
            "runs_per_s": (statistics.median(b.runs / w for b, w in zip(batches, walls)),
                           "%s, %d runs" % (per_batch, sum(b.runs for b in batches))),
            "iters_per_s": (statistics.median(b.iterations / w for b, w in zip(batches, walls)),
                            "%s, %d iterations"
                            % (per_batch, sum(b.iterations for b in batches))),
            "run_s.p50": (statistics.median(run_times), "n=%d" % len(run_times)),
            "run_s.tail": (tail_value, "p%.1f, n=%d" % (tail_pct, len(run_times))),
        }
        for name, unit in END_TO_END + PRINTED_ONLY:
            if name in values:
                metrics[prefix + name] = (values[name][0], unit, values[name][1])
    metrics["peak_rss_mb"] = (peak_mb, "MB", "process plus children")
    metrics["host.speed"] = (statistics.median(b.speed for b in batches), "ratio",
                             "median factor, %g s / kernel time" % CALIBRATION_REFERENCE_S)
    return metrics


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(spans, tallies, csv_bytes, overhead):
    """{name: (value, unit, note)} for every PER_LAYER metric."""
    stats = span_stats(spans)

    def stat(name, i):
        return stats.get(name, (0, 0.0, 0))[i]

    values = {}
    for fn in ("stacked_value", "stacked_grad", "global_value", "global_grad"):
        values["objective.%s.calls" % fn] = stat("objective." + fn, 0)
        values["objective.%s.self_s" % fn] = stat("objective." + fn, 1)
    values["objective.value_calls_per_iter"] = _ratio(
        stat("objective.stacked_value", 0) + stat("objective.global_value", 0),
        tallies["iterations"])
    values["objective.grad_useful_ratio"] = _ratio(
        tallies["gradient_evals"], stat("objective.stacked_grad", 0))
    for layer in ("optimizer.run", "consensus.apply", "consensus.build",
                  "linalg.sym_eigen", "graph.build"):
        values[layer + ".calls"] = stat(layer, 0)
        values[layer + ".self_s"] = stat(layer, 1)
    values["consensus.apply.rounds"] = stat("consensus.apply", 2)
    values["consensus.counted_ratio"] = _ratio(tallies["counted_rounds"],
                                               stat("consensus.apply", 2))
    values["linalg.sym_eigen.per_build"] = _ratio(
        count_within(spans, "linalg.sym_eigen", "consensus.build"),
        stat("consensus.build", 0))
    values["linalg.sym_power.calls"] = stat("linalg.sym_power", 0)
    for layer in ("diagnostics.certificate", "diagnostics.spectral",
                  "diagnostics.write_csv", "config.load", "cli.sweep"):
        values[layer + ".self_s"] = stat(layer, 1)
    values["diagnostics.csv_bytes"] = csv_bytes
    values["diagnostics.trace_rows"] = tallies["trace_rows"]
    values["trace.overhead_frac"] = overhead
    return {name: (values[name], unit, "") for name, unit in PER_LAYER}


def git_commit(root):
    """Commit of a git checkout at ``root``, read without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_version():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas["name"], blas["version"])
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment(root):
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_version(), "commit": git_commit(root),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def execute(workload, seconds, trace, patches):
    """Warm up, set up and measure one workload.

    Returns (metrics, attempted, failures, notes), where metrics maps each
    END_TO_END (trace off) or PER_LAYER (trace on) name to (value, unit, note).
    """
    notes = []
    if workload.note:
        notes.append(workload.note)
    workload.warmup()
    if not trace:
        patches.verify()
        setup_samples, batches = measure(workload, seconds)
        metrics = end_to_end(setup_samples, batches, peak_rss_mb())
    else:
        tracer = Tracer()
        patches.install(tracer)
        try:
            state = workload.setup()
            traced = [workload.batch(state, j) for j in range(workload.traced_batches)]
        finally:
            patches.restore()
        patches.verify()
        _, batches = measure(workload, seconds, state)
        overhead = (statistics.median(b.seconds for b in traced)
                    / statistics.median(b.seconds for b in batches) - 1.0)
        notes.append("traced: 1 set-up + %d batches, %d spans; untraced reference: %d batches"
                     % (len(traced), len(tracer.spans), len(batches)))
        metrics = per_layer(tracer.spans, tracer.tallies,
                            sum(b.csv_bytes for b in traced), overhead)
        batches = traced + batches
    failures = [f for b in batches for f in b.failures]
    return metrics, sum(b.runs for b in batches), failures, notes
