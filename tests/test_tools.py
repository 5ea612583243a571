"""The byte-identity, timing and record tools in tools/ run against the package in src/."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(*args):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def load_tool(name):
    """tools/<name>.py as a module; the BLAS thread pins it sets on import
    are undone, so that later subprocesses inherit this process's settings."""
    spec = importlib.util.spec_from_file_location(name, TOOLS / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(module)
    return module


def test_trace_digest_prints_one_digest_per_named_item():
    # the output, run on one BLAS thread, is the committed golden file line
    # for line; a change that alters bits rewrites the file
    proc = run_tool(TOOLS / "trace_digest.py", "--src", ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    golden = (ROOT / "tests" / "golden_digest.txt").read_text().splitlines()
    changed = [(old, new) for old, new in zip(golden, lines) if old != new]
    assert len(lines) == len(golden) and not changed, changed
    matches = [re.fullmatch(r"([0-9a-f]{64})  (\S.*)", line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    names = [m.group(2) for m in matches]
    assert len(set(names)) == len(names)


# Runs whose bits depend on the BLAS thread count: the n=100 runs on the
# dense twin, whose Z^t is formed by one n x n x n product
THREAD_SENSITIVE = re.compile(r"(trace|state) n=100 \S+ (near-dgd-t:5|near-dgd-plus-doubling:25) "
                              r"seed=\d")


def test_trace_digest_at_two_blas_threads_differs_only_on_the_dense_twin_runs():
    # NumPy is loaded under two threads before the tool pins one, so the pin
    # has no effect; a host that caps OpenBLAS at one thread changes nothing
    launch = ("import runpy, sys\nimport numpy\nsys.argv = sys.argv[1:]\n"
              "runpy.run_path(sys.argv[0], run_name='__main__')")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", launch, str(TOOLS / "trace_digest.py"),
                           "--src", str(ROOT / "src")], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    golden = (ROOT / "tests" / "golden_digest.txt").read_text().splitlines()
    assert [line[66:] for line in lines] == [line[66:] for line in golden]
    sensitive = [line[66:] for line in golden if THREAD_SENSITIVE.fullmatch(line[66:])]
    assert len(sensitive) == 20, sensitive
    changed = [new[66:] for old, new in zip(golden, lines) if old != new]
    assert set(changed) <= set(sensitive), changed


def test_ab_time_compares_a_tree_with_itself():
    # one pair has no spread; three have one
    for pairs, spread in ((1, r"0\.000"), (3, r"\d+\.\d{3}")):
        proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "dgd",
                        "--pairs", pairs)
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^change / base: median paired ratio \d+\.\d{3} \([+-]\d+\.\d %%\), "
                         r"interquartile range %s, change faster in [0-%d] of %d pairs$"
                         % (spread, pairs, pairs), proc.stdout, re.MULTILINE), proc.stdout
        for side in ("base  ", "change"):
            assert re.search(r"^%s median \d\.\d{5} s, quartiles \d\.\d{5}-\d\.\d{5} s$"
                             % side, proc.stdout, re.MULTILINE), proc.stdout
        # fewer than ten pairs show no gain, whatever the times
        assert re.search(r"^verdict: no gain shown \(%d pairs, fewer than 10[;)]" % pairs,
                         proc.stdout, re.MULTILINE), proc.stdout
        # bench_record --base reads these lines
        paired = load_tool("bench_record").parse_paired(proc.stdout)
        assert paired["pairs"] == pairs and paired["verdict"].startswith("verdict: no gain")


def test_ab_time_verdict_shows_a_gain_only_by_the_pair_and_spread_rule():
    verdict = load_tool("ab_time").verdict
    base = [1.0 + 0.01 * i for i in range(10)]  # quartiles 1.0175 and 1.0725
    faster = [b - 0.1 for b in base]
    assert verdict(base, faster).startswith(
        "verdict: gain shown (faster in 10 of 10 pairs, median gain 0.10000 s above the "
        "base's interquartile range 0.05500 s)")
    # a tie counts for neither tree: nine of ten pairs still show the gain, eight do not
    assert verdict(base, base[:1] + faster[1:]).startswith("verdict: gain shown (faster in 9 ")
    assert verdict(base, base[:2] + faster[2:]) == (
        "verdict: no gain shown (faster in 8 of 10 pairs, fewer than nine tenths)")
    assert verdict(base * 2, base[:2] + faster[2:] + faster).startswith(
        "verdict: gain shown (faster in 18 of 20 pairs")
    # every pair faster, by less than the base's own spread
    assert verdict(base, [b - 0.05 for b in base]) == (
        "verdict: no gain shown (median gain 0.05000 s not above the base's interquartile "
        "range 0.05500 s)")
    # nine pairs are too few for any gain
    assert verdict(base[:9], faster[:9]).startswith(
        "verdict: no gain shown (9 pairs, fewer than 10)")
    assert verdict(faster, base) == (
        "verdict: no gain shown (faster in 0 of 10 pairs, fewer than nine tenths; median gain "
        "-0.10000 s not above the base's interquartile range 0.05500 s)")


def test_ab_time_runs_a_method_on_a_ring_of_n_nodes():
    # short-blocks and tiny probe the fixed costs of a block pass and of a run
    for workload in ("near-dgd-plus", "saddle", "short-blocks", "tiny"):
        proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", workload,
                        "--n", "16", "--pairs", "1")
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^change / base: median paired ratio \d+\.\d{3} ", proc.stdout,
                         re.MULTILINE), proc.stdout
    # the sweep and scale workloads have sizes of their own
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "sweep",
                    "--n", "16", "--pairs", "1")
    assert proc.returncode == 2
    assert ("--n applies to escape, escape100, batch, saddle, short-blocks, tiny, grad-tol "
            "and the method tokens") in proc.stderr


def test_ab_time_times_the_pass_of_a_diverging_block():
    # the one workload that reaches a block pass past the box; n=12 alone
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "diverge",
                    "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "diverge",
                    "--n", "16", "--pairs", "1")
    assert proc.returncode == 2
    assert "--n applies to" in proc.stderr


def test_ab_time_times_the_pass_of_a_block_that_stops_on_grad_tol():
    # near-dgd-plus stops at k = 214, inside its first block
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "grad-tol",
                    "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout


def test_ab_time_times_the_sweep_csv_writer_apart_from_the_runs():
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "csv",
                    "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "csv",
                    "--n", "16", "--pairs", "1")
    assert proc.returncode == 2
    assert ("--n applies to escape, escape100, batch, saddle, short-blocks, tiny, grad-tol "
            "and the method tokens") in proc.stderr


def test_ab_time_runs_the_hundred_seed_escape_as_one_batch():
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "escape100",
                    "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout


def test_ab_time_runs_the_sweep_cells_as_one_batch_without_the_cli():
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "batch",
                    "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout
    # at n = 24 its near-dgd-plus cell runs on the matrix and near-dgd-t:5 on
    # the dense twin, both memos in one block loop
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "batch",
                    "--n", "24", "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout


BENCH_OUTPUT = """\
env {"nproc": 2, "commit": "%s", "workload": "escape", "seed": 0, "seconds": 1.0}
escape wall_s = 0.00922938 s  (median over 19 batches)
escape raw.wall_s = 0.00830713 s  (median over 19 batches)
escape peak_rss_mb = 40.5938 MB  (process plus children)
escape fail_frac = 0  (0 of 19 runs failed)
env {"nproc": 2, "commit": "%s", "workload": "sweep", "seed": 0, "seconds": 1.0}
note sweep: every call, traced or not, uses --parallel 1
sweep iters_per_s = 101548 1/s  (median over 10 batches, 59990 iterations)
sweep fail_frac = 0  (0 of 60 runs failed)
{"correct": true, "attempted": 79, "failed": 0, "metrics": {}}
""" % ("0" * 40, "0" * 40)


def test_bench_record_reads_every_line_the_benchmark_prints():
    tool = load_tool("bench_record")
    rec = tool.record("x", 1.0, BENCH_OUTPUT, 2585, False)
    assert tool.check(rec) == []
    assert rec["attempted"] == 79 and rec["commit"] == "0" * 40
    escape, sweep = rec["workloads"]["escape"], rec["workloads"]["sweep"]
    assert escape["metrics"]["raw.wall_s"] == {"value": 0.00830713, "unit": "s"}
    assert escape["metrics"]["fail_frac"] == {"value": 0.0, "unit": ""}
    assert (escape["attempted"], sweep["attempted"], sweep["correct"]) == (19, 60, True)
    assert sweep["notes"] == ["sweep: every call, traced or not, uses --parallel 1"]
    # a failed run, a non-finite metric and a stray line are each caught
    failed = BENCH_OUTPUT.replace("(0 of 60 runs failed)", "(1 of 60 runs failed)")
    assert tool.check(tool.record("x", 1.0, failed, 2585, False)) == ["sweep: correct False"]
    broken = BENCH_OUTPUT.replace("101548 1/s", "nan 1/s")
    assert tool.check(tool.record("x", 1.0, broken, 2585, False)) == [
        "sweep iters_per_s: {'value': nan, 'unit': '1/s'}"]
    with pytest.raises(ValueError, match="not a metric line of workload sweep"):
        tool.parse(BENCH_OUTPUT.replace("note sweep", "sweep: a stray line"))


AB_OUTPUT = """\
base   median 0.01300 s, quartiles 0.01280-0.01330 s
change median 0.01180 s, quartiles 0.01160-0.01200 s
change / base: median paired ratio 0.906 (-9.4 %), interquartile range 0.031, change faster in 29 of 30 pairs
verdict: gain shown (faster in 29 of 30 pairs, median gain 0.00120 s above the base's interquartile range 0.00050 s)
"""


def test_bench_record_base_pairs_each_workload_with_an_aa_run(monkeypatch, tmp_path):
    # ab_time and git are stubbed: each workload runs this checkout against
    # the base (ab) and the base against itself (aa), both kept with the
    # base's commit under "paired", which check() accepts and checks
    tool = load_tool("bench_record")
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        stdout = "f" * 40 + "\n" if cmd[0] == "git" else AB_OUTPUT
        return subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    entry = tool.paired(tmp_path)
    base = str(tmp_path / "src")
    assert [(c[c.index("--workload") + 1], c[c.index("--change") + 1])
            for c in commands[:-1]] == [(w, change)
                                        for w in ("escape", "sweep", "scale", "escape100",
                                                  "batch")
                                        for change in (str(ROOT / "src"), base)]
    assert all(c[c.index("--base") + 1] == base for c in commands[:-1])
    assert entry["base_commit"] == "f" * 40 and entry["pairs"] == 30
    assert entry["workloads"]["scale"]["ab"] == {
        "median_ratio": 0.906, "iqr": 0.031, "faster": 29, "pairs": 30,
        "verdict": AB_OUTPUT.splitlines()[-1]}
    rec = tool.record("x", 1.0, BENCH_OUTPUT, 2585, False)
    rec["paired"] = entry
    assert tool.check(rec) == []
    # a record from before escape100 and batch were paired holds three
    earlier = {name: entry["workloads"][name] for name in ("escape", "sweep", "scale")}
    assert tool.check(dict(rec, paired=dict(entry, workloads=earlier))) == []
    entry["workloads"]["sweep"]["aa"]["median_ratio"] = float("nan")
    del entry["workloads"]["batch"]
    assert [p.split(":")[0] for p in tool.check(rec)] == ["paired", "paired sweep"]
    with pytest.raises(ValueError, match="no ratio or verdict line"):
        tool.parse_paired(AB_OUTPUT.replace("verdict:", "outcome:"))


def test_every_committed_bench_record_keeps_the_schema():
    # the performance record at the repo root: keys, finite values and
    # correct: true, and every end-to-end metric BENCHMARK.json names, for
    # each of its workloads; the benchmark itself is not run here
    tool = load_tool("bench_record")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json at the repo root"
    for path in records:
        rec = json.loads(path.read_text())
        assert tool.check(rec) == [], path.name
        assert path.name == "BENCH_%s.json" % rec["label"]
        assert set(rec["workloads"]) == {w["name"] for w in benchmark["workloads"]}, path.name
        for name, workload in rec["workloads"].items():
            missing = {m["name"] for m in benchmark["end_to_end"]} - set(workload["metrics"])
            assert not missing, (path.name, name, missing)
