"""Tests of the benchmark harness itself: python3 -m pytest benchmarks"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
import harness  # noqa: E402  (needs the path above)


def test_span_stats_self_time_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7]; d is a root
    spans = [("a", -1, 0.0, 10.0, 0), ("b", 0, 1.0, 4.0, 3), ("c", 1, 2.0, 3.0, 0),
             ("b", 0, 5.0, 7.0, 2), ("d", -1, 12.0, 13.0, 0)]
    stats = harness.span_stats(spans)
    assert stats == {"a": [1, 5.0, 0], "b": [2, 4.0, 5], "c": [1, 1.0, 0],
                     "d": [1, 1.0, 0]}
    assert harness.count_within(spans, "c", "a") == 1
    assert harness.count_within(spans, "b", "c") == 0


def test_tracer_records_parent_and_amount():
    tracer = harness.Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", amount=lambda x: x)
    outer = tracer.wrap(lambda x: 2 * inner(x), "outer")
    assert outer(3) == 8
    (outer_name, outer_parent, *_), (inner_name, inner_parent, *_, rounds) = tracer.spans
    assert (outer_name, outer_parent) == ("outer", -1)
    assert (inner_name, inner_parent, rounds) == ("inner", 0, 3)


def test_tail_has_ten_samples_above_it_and_lies_above_the_median():
    assert harness.tail(list(range(1, 22))) == (11, 100.0 * 11 / 21)
    assert harness.tail(list(range(1, 21))) == (20, 100.0)
    assert harness.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)


def test_times_are_scaled_by_the_host_speed_beside_them():
    batches = [harness.Batch(seconds=2.0, speed=0.5, run_times=[2.0], runs=1, iterations=10),
               harness.Batch(seconds=1.0, speed=1.0, run_times=[1.0], runs=1, iterations=10)]
    metrics = harness.end_to_end([(0.4, 0.5), (0.2, 1.0)], batches, 40.0)
    assert metrics["wall_s"][0] == metrics["run_s.p50"][0] == 1.0
    assert metrics["raw.wall_s"][0] == 1.5
    assert metrics["setup_s"][0] == 0.2
    assert metrics["raw.setup_s"][0] == pytest.approx(0.3)
    assert metrics["iters_per_s"][0] == 10.0
    assert metrics["host.speed"][0] == 0.75


def test_measure_brackets_every_batch_with_the_kernel(monkeypatch):
    # one timing before the set-up and one after it; the batch's 1 s of work
    # asks for 0.05 s of kernel time after it, so two timings
    timings = iter([0.02, 0.04, 0.03, 0.03])
    monkeypatch.setattr(harness, "kernel_seconds", lambda: next(timings))

    class Fixed(harness.Workload):
        def setup_parts(self):
            return [lambda: time.sleep(0.2) or "state"]

        def batch(self, state, j):
            assert state == "state"
            return harness.Batch(seconds=1.0)

    samples, batches = harness.measure(Fixed(), -1.0)  # one batch only
    assert len(batches) == len(samples) == 1
    assert samples[0][1] == pytest.approx(harness.CALIBRATION_REFERENCE_S / 0.03)
    assert batches[0].speed == pytest.approx(harness.CALIBRATION_REFERENCE_S / (0.1 / 3))


def _originals_in_place(patches):
    return all(vars(owner)[attr] is original
               for (owner, attr, _, _), original in zip(patches.points, patches.originals))


def test_traced_run_restores_every_original():
    patches = harness.Patches()
    workload = harness.Escape(0, {})
    workload.budget = 30  # short runs; their f_err checks fail, which is fine here
    metrics, attempted, failures, _ = harness.execute(workload, 0.0, True, patches)
    assert _originals_in_place(patches)
    patches.verify()
    assert attempted == len(failures) == workload.traced_batches + 1
    assert metrics["optimizer.run.calls"][0] == workload.traced_batches
    assert metrics["objective.grad_useful_ratio"][0] == 1.0
    assert metrics["linalg.sym_eigen.per_build"][0] == 2.0
    assert metrics["consensus.apply.rounds"][0] > metrics["consensus.apply.calls"][0] > 0


def test_failing_traced_run_still_restores_originals():
    class Broken(harness.Workload):
        def warmup(self):
            pass

        def setup_parts(self):
            return [lambda: None]

        def batch(self, state, j):
            harness.consensus.build_consensus_matrix(harness.graph.build_ring(3), "nope")

    patches = harness.Patches()
    with pytest.raises(harness.consensus.ConsensusMatrixError):
        harness.execute(Broken(), 0.0, True, patches)
    assert _originals_in_place(patches)


def test_verify_reports_a_wrapper_left_installed():
    patches = harness.Patches()
    patches.install(harness.Tracer())
    try:
        with pytest.raises(RuntimeError, match="optimizer.run"):
            patches.verify()
    finally:
        patches.restore()
    patches.verify()


def test_wrong_f_err_reference_makes_runs_fail():
    reference = harness.load_reference()["escape"]
    wrong = {seed: f_err + 1e-6 for seed, f_err in reference.items()}
    for table, expected_failures in ((reference, 0), (wrong, 1)):
        workload = harness.Escape(0, table)
        _, attempted, failures, _ = harness.execute(workload, 0.0, False, harness.Patches())
        assert attempted == 1
        assert len(failures) == expected_failures
    assert "differs from recorded" in failures[0]


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
