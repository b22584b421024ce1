"""Paired bench runs of a base checkout against this one.

    python3 tools/bench_pairs.py BASE_CHECKOUT [--workload W] [--pairs N]
                                 [--seconds S] [--seed S0]

runs ``bench/run.py --workload W --seed s --seconds S --trace 0`` in
BASE_CHECKOUT and in the checkout that holds this script, one pair per
seed s = S0 .. S0 + N - 1 and workload (defaults: every workload of
BENCHMARK.json, 10 pairs, 5 s, seed 1), alternating which side runs
first: the base in even pairs, the change in odd ones.  Each workload
runs on its own, so the two runs of a pair are seconds apart.  For each
workload and end-to-end metric of this checkout's BENCHMARK.json it
prints each side's median and quartiles, the ratio of the change's median
to the base's, and the pairs the change wins, that is, reads better than
the base in the same pair (ties count for neither).  Last it prints each
side's failed operations and incorrect runs.  The output is a report
only: the exit status is 0 whatever it reads, and 1 only when a run
prints no summary line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(checkout, workload, seed, seconds):
    """The summary (last stdout line) of one untraced bench/run.py run."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run([sys.executable, "bench/run.py", *args],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench/run.py {' '.join(args)} in {checkout} "
                         f"printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def _spread(values):
    """median [q1, q3]; one value is its own quartiles."""
    if len(values) < 2:
        return f"{values[0]:.4g} [{values[0]:.4g}, {values[0]:.4g}]"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def summarise(pairs, end_to_end):
    """The report lines of {workload: pairs of (base summary, change
    summary)}, for the end-to-end metrics of BENCHMARK.json."""
    lines = []
    for workload, runs in pairs.items():
        for entry in end_to_end:
            key = entry["name"]
            paired = [(b["metrics"][key]["value"], c["metrics"][key]["value"])
                      for b, c in runs
                      if key in b["metrics"] and key in c["metrics"]]
            if not paired:
                continue
            base, change = zip(*paired)
            sign = 1.0 if entry["better"] == "lower" else -1.0
            wins = sum(sign * (b - c) > 0 for b, c in paired)
            ratio = statistics.median(change) / statistics.median(base)
            lines.append(f"{workload} {key} ({entry['unit']}, "
                         f"{entry['better']} is better): base {_spread(base)}"
                         f", change {_spread(change)}, ratio {ratio:.3f}, "
                         f"change wins {wins} of {len(paired)}")
    for side, name in enumerate(("base", "change")):
        runs = [pair[side] for each in pairs.values() for pair in each]
        lines.append(
            f"{name}: {sum(s['failed'] for s in runs)} of "
            f"{sum(s['attempted'] for s in runs)} operations failed, "
            f"{sum(not s['correct'] for s in runs)} of {len(runs)} runs "
            "incorrect")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = ([w["name"] for w in bench["workloads"]]
             if args.workload == "all" else [args.workload])
    pairs = {name: [] for name in names}
    for i in range(args.pairs):
        sides = [(args.base, 0), (ROOT, 1)]
        for name in names:
            pair = [None, None]
            for checkout, side in sides if i % 2 == 0 else sides[::-1]:
                pair[side] = _run(checkout, name, args.seed + i, args.seconds)
            pairs[name].append(pair)
    print(f"{args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}"
          f", {args.seconds:g} s per run; base {os.path.abspath(args.base)}")
    print("\n".join(summarise(pairs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
