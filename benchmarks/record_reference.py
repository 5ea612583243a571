"""Record the final f_err of every run the benchmark can make into reference.json.

    python3 benchmarks/record_reference.py

Run it only at a commit whose results are meant to be the reference: the
benchmark counts every later run whose f_err differs from the recorded value
by more than harness.F_ERR_RTOL as failed.
"""

import json
import shutil
import sys
import tempfile

from run import ROOT, SRC  # pins the BLAS threads before NumPy is imported

sys.path.insert(0, str(SRC))
import harness  # noqa: E402  (needs the path above)


def main():
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        table = {
            "recorded_at": harness.git_commit(ROOT),
            "escape": harness.Escape(0, {}).record(),
            "sweep": harness.Sweep(0, {}, workdir).record(),
            "scale": harness.Scale(0, {}).record(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(harness.REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % harness.REFERENCE_FILE)


if __name__ == "__main__":
    main()
