"""The five reference runs: `capsym report` on the unit ball, the interior
ball and the ellipsoid (2,1,1) in exterior and interior form, and
`capsym check` on the bench star.  Every verdict, equality flag,
certificate outcome and failing metric they report is pinned here, so a
change to the numerics that flips any of them fails Tier-1.
"""

import json

import pytest

from capsym.cli import main

BENCH_STAR = {"kind": "star", "mean_radius": 1.0,
              "terms": [[2, 0, 0.1], [3, 1, 0.05]]}

EXTERIOR = ("T1.1-integral", "C1.2-global", "C1.3-capacity",
            "C1.4-pointwise", "T1.5-neumann", "T1.9-two-boundary")
INTERIOR = ("T1.6-interior-integral", "C1.7-interior-pointwise",
            "T1.8-interior-neumann", "T1.9-two-boundary")
# the radial equality case: every condition satisfied with equality
EQUALITY = ["satisfied"] * 6
ASYMMETRIC = ["violated", "violated", "violated", "violated",
              "hypothesis-not-met", "violated"]

# run -> (arguments, criterion ids, verdicts, equality flags, granted,
# failing metric)
REFERENCE_RUNS = {
    "ball-report": (["report", "--domain", "sphere:1"],
                    EXTERIOR, EQUALITY, [True] * 6, True, None),
    "interior-ball-report": (
        ["report", "--domain", "sphere:1", "--problem", "interior:c=1,d=1"],
        INTERIOR, ["satisfied"] * 4, [True] * 4, True, None),
    "ellipsoid-report": (["report", "--domain", "ellipsoid:2,1,1"],
                         EXTERIOR, ASYMMETRIC, [False] * 6, False,
                         "pFunctionSpread"),
    "interior-ellipsoid-report": (
        ["report", "--domain", "ellipsoid:2,1,1",
         "--problem", "interior:c=1,d=1"],
        INTERIOR, ["violated", "violated", "hypothesis-not-met", "violated"],
        [False] * 4, False, "pFunctionSpread"),
    "star-check": (["check", "--domain", "@{star}"],
                   EXTERIOR, ASYMMETRIC, [False] * 6, False,
                   "pFunctionSpread"),
}


@pytest.mark.parametrize("run", list(REFERENCE_RUNS))
def test_reference_run_outcomes(tmp_path, run):
    args, ids, verdicts, equality, granted, failing = REFERENCE_RUNS[run]
    star = tmp_path / "star.json"
    star.write_text(json.dumps(BENCH_STAR))
    out = tmp_path / "out"
    args = [a.format(star=star) for a in args] + ["--out", str(out)]
    assert main(args) == 0
    report = json.loads((out / "criteria.json").read_text())
    rows = report["criteria"]
    assert [r["criterionId"] for r in rows] == list(ids)
    assert [r["verdict"] for r in rows] == verdicts
    assert [{w["name"]: w["value"] for w in r["witnesses"]}["equality"]
            for r in rows] == equality
    assert report["certificate"]["granted"] is granted
    assert report["certificate"]["failingMetric"] == failing
