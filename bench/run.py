"""capsym benchmark: runs the CLI on fixed workloads and checks its outputs.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1]

Each pass of a workload runs in a fresh worker process (bench/worker.py),
one at a time, with BLAS pinned to one thread.  With --trace 0 the harness
starts set-up-only workers, then runs untraced passes until --seconds have
gone by (at least one), and reports the end-to-end metrics of
BENCHMARK.json: median pass wall time, median set-up time, median peak
resident memory.  With --trace 1 it runs one untraced and one traced pass
and reports the per-layer metrics; the traced pass wraps capsym's public
functions from bench/spans.py, and the difference of the two wall times is
the tracing overhead.

Every pass's outputs go through the checks of bench/checks.py.  An
operation is one CLI subcommand call; it fails when it exits non-zero or
when a check on its output fails.  Each metric is printed as
``<workload> <metric> = <value> <unit>``, then the operations attempted and
failed; the last line is one JSON object.  The exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
# set-up-only workers per untraced run; every pass worker adds one sample
SETUP_WORKERS = 4
WORKER_TIMEOUT_S = 170
# One BLAS thread: the box has two cores and the harness uses one.  No
# transparent-huge-page advice from numpy: whether the kernel grants huge
# pages depends on the host's memory, and it made the star-check peak
# memory flip between 226 MB and 246 MB from run to run.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMPY_MADVISE_HUGEPAGE": "0"}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def run_worker(spec, directory, tag):
    """Run one worker; returns (result or None, set-up seconds, peak MB)."""
    spec_path = os.path.join(directory, f"{tag}.spec.json")
    spec["result"] = os.path.join(directory, f"{tag}.result.json")
    _write_json(spec_path, spec)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
               **WORKER_ENV)
    with open(os.path.join(directory, f"{tag}.log"), "wb") as log:
        t_spawn = _now()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        return None, None, usage.ru_maxrss / 1024.0
    with open(spec["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["t_ready"] - t_spawn, usage.ru_maxrss / 1024.0


def _tree_bytes(directory):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(directory) for f in files)


def _same_reports(name, dir_a, dir_b):
    """Per output directory: are the reports of two passes byte-identical?"""
    same = []
    for a, b in zip(workloads.output_dirs(name, dir_a),
                    workloads.output_dirs(name, dir_b)):
        files = sorted(os.listdir(a))
        same.append(files == sorted(os.listdir(b)) and all(
            filecmp.cmp(os.path.join(a, f), os.path.join(b, f), shallow=False)
            for f in files))
    return same


def _layer_outputs(name, pass_dir):
    """Per-layer numbers the harness computes from a pass's reports."""
    outs = [checks.load_outputs(d) for d in workloads.output_dirs(name, pass_dir)]
    m = {"cli.report_bytes": _tree_bytes(pass_dir),
         "solve.check_misfit": max(checks.check_grid_misfit(o["solution"])
                                   for o in outs),
         "capacity.gauss_gap": 0.0,
         "identities.residual_over_scale": 0.0,
         "identities.bochner_max": 0.0}
    out = outs[0]
    cap = None
    if "capacity" in out:
        cap = out["capacity"]["capacity"]
    elif "criteria" in out:
        cap = checks.witness(checks.rows_by_id(out["criteria"]).get("C1.3-capacity", {}),
                              "capacity")
    if cap is not None:
        m["capacity.gauss_gap"] = abs(cap - checks.gauss_capacity(out["solution"])) / cap
    if "identities" in out:
        ids = out["identities"]
        m["identities.residual_over_scale"] = checks.identity_residual(ids)
        m["identities.bochner_max"] = ids["bochnerMaxResidual"]
    return m


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (correct, attempted, failed, metrics)."""
    wdir = os.path.join(OUT, name)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    first_config = workloads.write_configs(name, seed, wdir)
    setup_s, walls, peaks = [], [], []
    if not trace:
        for k in range(SETUP_WORKERS):
            _, t, _ = run_worker({"mode": "setup", "config": first_config},
                                 wdir, f"setup{k}")
            if t is None:
                raise RuntimeError(f"set-up worker failed; see {wdir}/setup{k}.log")
            setup_s.append(t)

    attempted = failed = 0
    correct = True
    results = []
    start = _now()
    k = 0
    # traced: one untraced pass, then one traced; else passes for `seconds`
    while (k < 2) if trace else (k == 0 or _now() - start < seconds):
        traced = trace and k == 1
        pass_dir = os.path.join(wdir, f"pass{k}")
        plan = workloads.plan(name, wdir, pass_dir)
        spec = {"mode": "pass", "config": first_config, "trace": traced, **plan}
        result, t_setup, peak = run_worker(spec, wdir, f"pass{k}")
        bad = [True] * len(plan["ops"])
        if result is not None:
            bad = [rc != 0 for rc in result["rcs"]]
            try:
                found = workloads.run_checks(name, pass_dir, seed, result)
            except (KeyError, OSError, ValueError, TypeError) as exc:
                found = [checks.Check(i, "outputs_readable", False, repr(exc))
                         for i in range(len(bad))]
            if traced:
                # star-solve writes one directory per order, from ops 2i, 2i+1
                found += [checks.Check(2 * i if name == "star-solve" else 0,
                                       "reports_identical_across_passes", same,
                                       "untraced and traced pass reports")
                          for i, same in enumerate(_same_reports(
                              name, os.path.join(wdir, "pass0"), pass_dir))]
            for c in found:
                if not c.ok:
                    bad[c.op] = True
                    print(f"CHECK FAILED {name} op {c.op} {c.name}: {c.detail}",
                          file=sys.stderr)
            setup_s.append(t_setup)
            walls.append(result["wall_s"])
            peaks.append(peak)
            results.append(result)
        else:
            print(f"worker failed; see {wdir}/pass{k}.log", file=sys.stderr)
        attempted += len(bad)
        failed += sum(bad)
        correct = correct and not any(bad)
        k += 1

    if not correct or len(results) < k:
        return False, attempted, failed, {}
    if not trace:
        return True, attempted, failed, {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": statistics.median(peaks),
        }
    metrics = dict(results[1]["layers"])
    metrics.update(_layer_outputs(name, os.path.join(wdir, "pass1")))
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    return True, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "capsym")):
        print(f"error: capsym sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = bench["per_layer" if args.trace else "end_to_end"]

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        correct, attempted, failed, metrics = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        for entry in listed if correct else ():
            value = metrics[entry["name"]]
            key = entry["name"] if len(names) == 1 else f"{name}/{entry['name']}"
            summary["metrics"][key] = {"value": value, "unit": entry["unit"]}
            print(f"{name} {entry['name']} = {value!r} {entry['unit']}")
        print(f"{name} operations attempted {attempted} failed {failed}")
        summary["correct"] = summary["correct"] and correct
        summary["attempted"] += attempted
        summary["failed"] += failed
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
