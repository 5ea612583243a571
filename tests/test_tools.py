"""The byte-identity and timing tools in tools/ run against the package in src/."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(*args):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def test_trace_digest_prints_one_digest_per_named_item():
    proc = run_tool(TOOLS / "trace_digest.py", "--src", ROOT / "src")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 215
    matches = [re.fullmatch(r"([0-9a-f]{64})  (\S.*)", line) for line in lines]
    assert all(matches), [line for line, m in zip(lines, matches) if not m]
    names = [m.group(2) for m in matches]
    assert len(set(names)) == len(names)


def test_ab_time_compares_a_tree_with_itself():
    proc = run_tool(TOOLS / "ab_time.py", "--base", ROOT / "src", "--workload", "dgd",
                    "--pairs", "1")
    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^change / base: median paired ratio \d+\.\d{3} .* in [01] of 1 pairs$",
                     proc.stdout, re.MULTILINE), proc.stdout


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
    assert "--n applies to escape, saddle and the method tokens" in proc.stderr
