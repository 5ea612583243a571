"""The names the benchmark traces still exist in the package.

benchmarks/harness.py wraps functions and methods it looks up by name
(TRACE_POINTS). Without this test a rename in the package would fail only
``python3 -m pytest benchmarks``, which the default test run does not collect.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_benchmark_trace_points_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    harness = importlib.import_module("harness")
    patches = harness.Patches()  # a KeyError names a traced name that is gone
    patches.verify()
    assert patches.originals and all(callable(fn) for fn in patches.originals)
