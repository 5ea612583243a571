"""Benchmark for neardgd: end-to-end metrics per workload, or per-layer with --trace 1.

    python3 benchmarks/run.py                        # every workload, trace off
    python3 benchmarks/run.py --workload escape --seed 3 --seconds 30 --trace 1

Run from the root of a source checkout; the library is imported from its
``src`` directory. Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
"""

import os

# One BLAS thread, pinned before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def run_one(args, harness):
    env = harness.environment(ROOT)
    env["loadavg_before"] = os.getloadavg()
    patches = harness.Patches()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = harness.make_workload(args.workload, args.seed,
                                         harness.load_reference()[args.workload], workdir)
        metrics, attempted, failures, notes = harness.execute(
            workload, args.seconds, bool(args.trace), patches)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    env["loadavg_after"] = os.getloadavg()
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    print("env %s" % json.dumps(env))
    for note in notes:
        print("note %s" % note)
    for failure in failures[:20]:
        print("FAIL %s" % failure)
    for name, (value, unit, note) in metrics.items():
        print("%s %s = %.6g %s%s" % (args.workload, name, value, unit,
                                      "  (%s)" % note if note else ""))
    print("%s fail_frac = %.6g  (%d of %d runs failed)"
          % (args.workload, len(failures) / attempted, len(failures), attempted))
    reported = harness.PER_LAYER if args.trace else harness.END_TO_END
    print(result_line(not failures, attempted, len(failures),
                      {name: metrics[name][:2] for name, _ in reported}))
    return 0


def run_all(args, workloads):
    """Each workload in its own process, so peak memory is its own."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("error: workload %s exited with code %d" % (name, proc.returncode),
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, entry in result["metrics"].items():
            metrics["%s.%s" % (name, metric)] = (entry["value"], entry["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None):
    if not (SRC / "neardgd" / "__init__.py").is_file():
        print("error: no neardgd sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # noqa: E402  (needs the path above)

    source = Path(harness.optimizer.__file__).resolve()
    if SRC.resolve() not in source.parents:
        print("error: neardgd was imported from %s, not from %s" % (source, SRC),
              file=sys.stderr)
        return 2
    args = parse_args(argv, harness.WORKLOADS)
    if args.workload == "all":
        return run_all(args, harness.WORKLOADS)
    return run_one(args, harness)


if __name__ == "__main__":
    sys.exit(main())
