"""Every demo runs to completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "04_saddle_escape":
        assert "classification at the lifted origin: strict-saddle" in proc.stdout
        converged, runs, stalled = map(int, re.search(
            r"(\d+)/(\d+) converged to a\nminimizer, (\d+) stalled", proc.stdout).groups())
        assert converged + stalled == runs
