"""Each benchmark workload runs end to end against the package in src/.

benchmarks/test_harness.py checks the harness's parts and
test_benchmark_trace_points.py the names it traces; neither runs a workload.
This runs each one briefly through benchmarks/run.py, so that a change to
what the harness uses of the package (run()'s options, RunResult, the trace)
fails here and not only in a full benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["escape", "sweep", "scale"])
def test_benchmark_workload_runs_correct_with_no_failed_run(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seconds", "0.2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
