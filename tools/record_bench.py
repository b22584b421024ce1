"""Record one point of the benchmark trajectory as a BENCH_<n>.json file.

    python3 tools/record_bench.py OUT

runs ``bench/run.py --trace 0 --seconds 0 --seed s`` for s = 1..5 (one
untraced pass per workload and seed) and ``bench/run.py --trace 1`` once,
from the checkout that holds this script.  OUT gets the commit and the
machine (nproc, Python, numpy and its BLAS), the seeds, every run's
summary line, the median and quartiles of each end-to-end metric per
workload over the seeds, and the per-layer metrics of the traced run.
Exits 1 when any run is not correct.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3, 4, 5)
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
NOTE = ("peak_rss_mb is the worker's ru_maxrss, which carries the bench "
        "harness's own resident-memory high-water mark across exec, so it "
        "is an upper bound on what capsym uses, not its own peak.  "
        "Quartiles are statistics.quantiles(..., n=4, method='inclusive').")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _bench(*args):
    """The summary (last stdout line) of one bench/run.py run."""
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench/run.py {' '.join(args)} printed nothing:\n"
                         f"{proc.stderr}")
    return {"args": list(args), **json.loads(lines[-1])}


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit(__doc__)
    runs = [_bench("--trace", "0", "--seconds", "0", "--seed", str(s))
            for s in SEEDS]
    traced = _bench("--trace", "1")
    end_to_end = {}
    for key, entry in runs[0]["metrics"].items():
        workload, metric = key.split("/")
        if metric in END_TO_END:
            values = [run["metrics"][key]["value"] for run in runs]
            end_to_end.setdefault(workload, {})[metric] = {
                **_spread(values), "unit": entry["unit"]}
    record = {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted": _git("status", "--porcelain", "--", "src", "bench"),
        **_machine(), "note": NOTE, "seeds": list(SEEDS),
        "correct": all(run["correct"] for run in (*runs, traced)),
        "end_to_end": end_to_end, "per_layer": traced["metrics"],
        "runs": [*runs, traced]}
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
