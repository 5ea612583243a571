"""The byte-identity and timing tools in tools/ run against the package in src/."""

import importlib.util
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

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
            assert re.search(r"^%s median \d\.\d{5} s, quartiles \d\.\d{5}-\d\.\d{5} s, "
                             % side, proc.stdout, re.MULTILINE), proc.stdout
        # fewer than ten pairs show no gain, whatever the times
        assert re.search(r"^verdict: no gain shown \(%d pairs, fewer than 10[;)]" % pairs,
                         proc.stdout, re.MULTILINE), proc.stdout


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
    for workload in ("near-dgd-plus", "saddle"):
        proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", workload,
                        "--n", "16", "--pairs", "1")
        assert proc.returncode == 0, proc.stderr
        assert re.search(r"^change / base: median paired ratio \d+\.\d{3} ", proc.stdout,
                         re.MULTILINE), proc.stdout
    # the sweep and scale workloads have sizes of their own
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "sweep",
                    "--n", "16", "--pairs", "1")
    assert proc.returncode == 2
    assert "--n applies to escape, escape100, saddle and the method tokens" in proc.stderr


def test_ab_time_times_the_sweep_csv_writer_apart_from_the_runs():
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "csv",
                    "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "csv",
                    "--n", "16", "--pairs", "1")
    assert proc.returncode == 2
    assert "--n applies to escape, escape100, saddle and the method tokens" in proc.stderr


def test_ab_time_runs_the_hundred_seed_escape_with_or_without_run_batch(tmp_path):
    # a tree without run_batch runs the 100 seeds as 100 run() calls
    shutil.copytree(ROOT / "src" / "neardgd", tmp_path / "neardgd")
    with open(tmp_path / "neardgd" / "optimizer.py", "a") as fh:
        fh.write("\nrun_batch = None\n")
    proc = run_tool(TOOLS / "ab_time.py", "--base", tmp_path, "--workload", "escape100",
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
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "batch",
                    "--n", "16", "--pairs", "1")
    assert proc.returncode == 2
    assert "--n applies to escape, escape100, saddle and the method tokens" in proc.stderr
