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
printed, host-scaled and raw (named raw.<metric>), each as {"value":
float, "unit": str}. A metric printed without a unit (fail_frac) has the
unit "". The benchmark is not changed by this tool; it only reads the
lines the benchmark prints:

    env {json}                                     one per workload, first
    <workload> <metric> = <value> [<unit>]  (<note>)
    note <text> / FAIL <text>
    {json}                                         the result line, last

A record's numbers are one run on one host: compare two records by the
paired ratios of tools/ab_time.py, not by their medians alone. With
--base DIR, a checkout of another tree, the record also holds them, under
"paired": for each of escape, sweep, scale, escape100 and batch,
tools/ab_time.py times this checkout's src/ against DIR/src (A/B) and
DIR/src against itself (A/A, what the host's noise alone reads), PAIRS
pairs each, and the record keeps each run's median ratio change / base,
its interquartile range, the pairs in which the change was faster, the
pairs and the verdict line, beside DIR's commit:

    python3 tools/bench_record.py --label my-change --base ../parent
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
PAIRED_WORKLOADS = ("escape", "sweep", "scale", "escape100", "batch")
# the workloads of a record written before escape100 and batch were paired
EARLIER_PAIRED = PAIRED_WORKLOADS[:3]
PAIRS = 30  # timed pairs of each ab_time.py run, enough for its gain rule (at least 10)
RATIO = re.compile(r"change / base: median paired ratio (?P<median_ratio>\S+) \(.*\), "
                   r"interquartile range (?P<iqr>\S+), change faster in (?P<faster>\d+) of "
                   r"(?P<pairs>\d+) pairs")
PAIRED_KEYS = {"median_ratio", "iqr", "faster", "pairs", "verdict"}


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


def parse_paired(stdout):
    """The median ratio, interquartile range, faster-in count, pairs and
    verdict line of one tools/ab_time.py run, from its standard output."""
    ratio = RATIO.search(stdout)
    verdict = re.search(r"^verdict: .*$", stdout, re.MULTILINE)
    if ratio is None or verdict is None:
        raise ValueError("no ratio or verdict line in the ab_time output: %r" % stdout)
    return {"median_ratio": float(ratio["median_ratio"]), "iqr": float(ratio["iqr"]),
            "faster": int(ratio["faster"]), "pairs": int(ratio["pairs"]),
            "verdict": verdict.group()}


def paired(base):
    """The "paired" entry of a record: base's commit (None where git cannot
    tell), and for each of PAIRED_WORKLOADS the A/B run of this checkout
    against base and the A/A run of base against itself, PAIRS pairs each,
    as parse_paired reads them. Raises RuntimeError when an ab_time run
    fails."""
    src = str(Path(base) / "src")
    workloads = {}
    for workload in PAIRED_WORKLOADS:
        runs = {}
        for kind, change in (("ab", str(ROOT / "src")), ("aa", src)):
            proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_time.py"),
                                   "--base", src, "--change", change, "--workload", workload,
                                   "--pairs", str(PAIRS)],
                                  cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                raise RuntimeError("ab_time.py --workload %s exited with code %d: %s"
                                   % (workload, proc.returncode, proc.stderr.strip()))
            runs[kind] = parse_paired(proc.stdout)
        workloads[workload] = runs
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=base, capture_output=True, text=True,
                         check=False)
    commit = git.stdout.strip() if git.returncode == 0 else None
    return {"base_commit": commit, "pairs": PAIRS, "workloads": workloads}


def _paired_run_ok(run, pairs):
    """Whether one A/B or A/A entry holds what parse_paired reads, over pairs."""
    return (isinstance(run, dict) and set(run) == PAIRED_KEYS and run["pairs"] == pairs
            and all(isinstance(run[key], (int, float)) and math.isfinite(run[key])
                    for key in ("median_ratio", "iqr"))
            and run["faster"] in range(pairs + 1)
            and isinstance(run["verdict"], str) and run["verdict"].startswith("verdict: "))


def check_paired(entry):
    """What is wrong with a record's "paired" entry, as a list: its keys, the
    base's commit (a hash, or None), and an A/B and an A/A run of each of
    PAIRED_WORKLOADS (or EARLIER_PAIRED) over the entry's pairs."""
    if not (isinstance(entry, dict) and set(entry) == {"base_commit", "pairs", "workloads"}
            and isinstance(entry["pairs"], int) and isinstance(entry["workloads"], dict)):
        return ["paired: %r" % (entry,)]
    problems = []
    commit = entry["base_commit"]
    if not (commit is None or isinstance(commit, str) and re.fullmatch(r"[0-9a-f]{40}", commit)):
        problems.append("paired: base_commit %r" % (commit,))
    if set(entry["workloads"]) not in (set(PAIRED_WORKLOADS), set(EARLIER_PAIRED)):
        problems.append("paired: workloads %s" % sorted(entry["workloads"]))
    for name, runs in entry["workloads"].items():
        if not (isinstance(runs, dict) and set(runs) == {"ab", "aa"}
                and all(_paired_run_ok(run, entry["pairs"]) for run in runs.values())):
            problems.append("paired %s: %r" % (name, runs))
    return problems


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
    when nothing is): its keys, finite metric values and correct: true, and
    the optional "paired" entry of --base."""
    keys = {"label", "commit", "dirty", "seconds", "correct", "attempted", "failed", "src_lines",
            "workloads"}
    if set(rec) - {"paired"} != keys:
        return ["keys %s, expected %s and optionally paired" % (sorted(rec), sorted(keys))]
    problems = check_paired(rec["paired"]) if "paired" in rec else []
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
    parser.add_argument("--base", help="a checkout of the tree to compare with: also record "
                        "paired ab_time.py ratios against its src/")
    args = parser.parse_args(argv)
    if not LABEL.fullmatch(args.label):
        parser.error("--label may hold letters, digits, '.', '_' and '-' only")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.base and not (Path(args.base) / "src" / "neardgd" / "__init__.py").is_file():
        parser.error("--base: no src/neardgd package under %s" % args.base)
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--seconds", str(args.seconds)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        print("error: benchmarks/run.py exited with code %d" % proc.returncode, file=sys.stderr)
        return 2
    rec = record(args.label, args.seconds, proc.stdout, src_lines(), dirty())
    if args.base:
        try:
            rec["paired"] = paired(args.base)
        except RuntimeError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
    problems = check(rec)
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % out)
    for problem in problems:
        print("schema: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
