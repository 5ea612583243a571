"""Write one point of the performance record: BENCH_<label>.json at the repo root.

Runs `python3 benchmarks/run.py` (every workload, each in its own process)
from this checkout in a subprocess, parses what it prints and writes the
record:

    python3 tools/bench_record.py --label 2104bdb
    python3 tools/bench_record.py --label my-change --seconds 10

The record holds the label, the commit the benchmark names in its env lines
and whether src/ differed from it (dirty), the seconds per workload, the
totals of the benchmark's result line (correct, attempted, failed), the
line count of src/neardgd, and per workload its env, its correct,
attempted and failed, its note and FAIL lines, and every metric it
printed, host-scaled and raw.,
each as {"value": float, "unit": str}. A metric printed without a unit
(fail_frac) has the unit "". The benchmark is not changed by this tool;
it only reads the lines the benchmark prints:

    env {json}                                     one per workload, first
    <workload> <metric> = <value> [<unit>]  (<note>)
    note <text> / FAIL <text>
    {json}                                         the result line, last

A record's numbers are one run on one host: compare two records by the
paired ratios of tools/ab_time.py, not by their medians alone.
"""

import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
METRIC = re.compile(r"(?P<workload>\S+) (?P<name>\S+) = (?P<value>\S+)(?: (?P<unit>[^\s(]+))?"
                    r"(?:  \((?P<note>.*)\))?")
RUNS = re.compile(r"(?P<failed>\d+) of (?P<attempted>\d+) runs failed")
LABEL = re.compile(r"[A-Za-z0-9._-]+")


def parse(stdout):
    """(workloads, result) from the benchmark's standard output: workloads
    maps each workload to its env, notes, failures, metrics and run counts,
    result is the final JSON line. Raises ValueError on a line it cannot
    read or on output without a result line."""
    lines = stdout.splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    workloads, current = {}, None
    for line in lines[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
            current = workloads.setdefault(env["workload"], {
                "env": env, "notes": [], "failures": [], "metrics": {}})
            continue
        if current is None:
            raise ValueError("a line before the first env line: %r" % line)
        if line.startswith("note "):
            current["notes"].append(line[5:])
        elif line.startswith("FAIL "):
            current["failures"].append(line[5:])
        else:
            match = METRIC.fullmatch(line)
            if match is None or match["workload"] != current["env"]["workload"]:
                raise ValueError("not a metric line of workload %s: %r"
                                 % (current["env"]["workload"], line))
            value = float(match["value"])
            if match["name"] == "fail_frac":
                runs = RUNS.fullmatch(match["note"] or "")
                if runs is None:
                    raise ValueError("a fail_frac line without its run counts: %r" % line)
                current["attempted"] = int(runs["attempted"])
                current["failed"] = int(runs["failed"])
                current["correct"] = current["failed"] == 0
            current["metrics"][match["name"]] = {"value": value, "unit": match["unit"] or ""}
    for name, workload in workloads.items():
        if "attempted" not in workload:
            raise ValueError("workload %s printed no fail_frac line" % name)
    return workloads, result


def src_lines(root=ROOT):
    """Lines of the Python files of src/neardgd."""
    return sum(len(path.read_text().splitlines())
               for path in sorted((root / "src" / "neardgd").glob("*.py")))


def dirty(root=ROOT):
    """Whether src/ differs from the checked-out commit (False where git
    cannot tell, as in an exported tree)."""
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--", "src"],
                          cwd=root, capture_output=True, text=True, check=False)
    return proc.returncode == 0 and bool(proc.stdout.strip())


def record(label, seconds, stdout, lines, modified):
    """The record of one benchmark run, from its standard output."""
    workloads, result = parse(stdout)
    commits = {workload["env"].get("commit") for workload in workloads.values()}
    if len(commits) != 1:
        raise ValueError("the workloads name different commits: %r" % sorted(map(str, commits)))
    return {"label": label, "commit": commits.pop(), "dirty": modified, "seconds": seconds,
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "src_lines": lines,
            "workloads": {name: {key: workload[key] for key in
                                 ("env", "correct", "attempted", "failed", "notes", "failures",
                                  "metrics")}
                          for name, workload in workloads.items()}}


def check(rec):
    """The schema of a record, as a list of what is wrong with it (empty
    when nothing is): its keys, finite metric values and correct: true."""
    problems = []
    keys = {"label", "commit", "dirty", "seconds", "correct", "attempted", "failed", "src_lines",
            "workloads"}
    if set(rec) != keys:
        return ["keys %s, expected %s" % (sorted(rec), sorted(keys))]
    if not (isinstance(rec["label"], str) and LABEL.fullmatch(rec["label"])):
        problems.append("label %r" % (rec["label"],))
    if not (isinstance(rec["commit"], str) and re.fullmatch(r"[0-9a-f]{40}", rec["commit"])):
        problems.append("commit %r is no 40-digit hash" % (rec["commit"],))
    if rec["correct"] is not True or rec["failed"] != 0:
        problems.append("correct %r with %r failed" % (rec["correct"], rec["failed"]))
    if not (isinstance(rec["src_lines"], int) and rec["src_lines"] > 0):
        problems.append("src_lines %r" % (rec["src_lines"],))
    if not rec["workloads"]:
        problems.append("no workloads")
    attempted = 0
    for name, workload in rec["workloads"].items():
        if set(workload) != {"env", "correct", "attempted", "failed", "notes", "failures",
                             "metrics"}:
            problems.append("%s: keys %s" % (name, sorted(workload)))
            continue
        attempted += workload["attempted"]
        if workload["correct"] is not True or workload["failed"] != 0:
            problems.append("%s: correct %r" % (name, workload["correct"]))
        if workload["env"].get("workload") != name:
            problems.append("%s: env names workload %r" % (name, workload["env"].get("workload")))
        for metric, entry in workload["metrics"].items():
            if not (set(entry) == {"value", "unit"} and isinstance(entry["unit"], str)
                    and isinstance(entry["value"], (int, float))
                    and math.isfinite(entry["value"])):
                problems.append("%s %s: %r" % (name, metric, entry))
    if attempted != rec["attempted"]:
        problems.append("attempted %r, but the workloads add to %d"
                        % (rec["attempted"], attempted))
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="names the file BENCH_<label>.json (letters, digits, . _ -)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per workload (default: 30, the benchmark's own)")
    args = parser.parse_args(argv)
    if not LABEL.fullmatch(args.label):
        parser.error("--label may hold letters, digits, '.', '_' and '-' only")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--seconds", str(args.seconds)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        print("error: benchmarks/run.py exited with code %d" % proc.returncode, file=sys.stderr)
        return 2
    rec = record(args.label, args.seconds, proc.stdout, src_lines(), dirty())
    problems = check(rec)
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out)
    for problem in problems:
        print("schema: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
