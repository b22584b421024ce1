"""tools/bench_pairs.py on canned bench/run.py summary lines."""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "bench_pairs.py")
END_TO_END = [{"name": "wall_s", "unit": "s", "better": "lower"},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower"}]


def summary_line(wall, rss, failed=0):
    """A last line of a one-workload bench/run.py run."""
    metrics = {} if failed else {"wall_s": {"value": wall, "unit": "s"},
                                 "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": not failed, "attempted": 4,
                       "failed": failed, "metrics": metrics})


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def canned(lines):
    return [[json.loads(s) for s in pair] for pair in lines]


def test_counts_wins_and_quartiles_per_metric(bench_pairs):
    ball = canned([(summary_line(0.036, 54.0), summary_line(0.026, 54.0)),
                   (summary_line(0.033, 54.1), summary_line(0.027, 54.2)),
                   (summary_line(0.041, 54.0), summary_line(0.030, 54.0)),
                   (summary_line(0.030, 54.0),
                    summary_line(0.031, 54.0, failed=1))])
    star = canned([(summary_line(0.12, 60.0), summary_line(0.11, 60.0))])
    # the failed run has no metrics: its pair is left out of every row
    assert bench_pairs.summarise({"ball-report": ball, "star-check": star},
                                 END_TO_END) == [
        "ball-report wall_s (s, lower is better): base 0.036 [0.0345, "
        "0.0385], change 0.027 [0.0265, 0.0285], ratio 0.750, change wins "
        "3 of 3",
        "ball-report peak_rss_mb (MB, lower is better): base 54 [54, 54.05], "
        "change 54 [54, 54.1], ratio 1.000, change wins 0 of 3",
        "star-check wall_s (s, lower is better): base 0.12 [0.12, 0.12], "
        "change 0.11 [0.11, 0.11], ratio 0.917, change wins 1 of 1",
        "star-check peak_rss_mb (MB, lower is better): base 60 [60, 60], "
        "change 60 [60, 60], ratio 1.000, change wins 0 of 1",
        "base: 0 of 20 operations failed, 0 of 5 runs incorrect",
        "change: 1 of 20 operations failed, 1 of 5 runs incorrect"]


def test_pairs_alternate_which_side_runs_first(bench_pairs, monkeypatch,
                                               capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout == ROOT, workload, seed))
        return json.loads(summary_line(0.03 if checkout == ROOT else 0.04,
                                       54.0))

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    assert bench_pairs.main(["base", "--pairs", "2", "--seed", "21"]) == 0
    # (is the change, workload, seed): every workload of BENCHMARK.json
    # runs as its own pair, the base first in even pairs
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert calls == [
        *[(change, name, 21) for name in names for change in (False, True)],
        *[(change, name, 22) for name in names for change in (True, False)]]
    out = capsys.readouterr().out
    assert out.count("wall_s (s, lower is better)") == len(names)
    assert "change wins 2 of 2" in out
