"""The five reference runs: `capsym report` on the unit ball, the interior
ball and the ellipsoid (2,1,1) in exterior and interior form, and
`capsym check` on the bench star.  Every verdict, equality flag,
certificate outcome and failing metric they report is pinned here, so a
change to the numerics that flips any of them fails Tier-1.  So is the
list of (level, order) pairs each run solves, so that an added extraction
fails too, and the number of u evaluations it makes, so that a scan column
computed twice fails too (every level shares its order's one march), and the
rule that T1.9, the certificate and the default identity share the outer
default levels, and the keys of every JSON object each run writes.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from capsym import HarmonicSolution, levelset
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


def exterior_solves(order, refined=False):
    """The default exterior levels at the solve order, and, when T1.1's
    angular spectrum is off its roundoff plateau (``refined``), the middle
    one again at order + 8 for T1.1's error bar."""
    solves = [(0.25, order), (0.5, order), (0.75, order)]
    return sorted(solves + [(0.5, order + 8)]) if refined else solves


def interior_solves(order):
    return [(1.5, order), (2.0, order), (3.0, order)]


# run -> (arguments, criterion ids, verdicts, equality flags, granted,
# failing metric, sorted (level, order) pairs solved, field(want="u") calls)
REFERENCE_RUNS = {
    "ball-report": (["report", "--domain", "sphere:1"],
                    EXTERIOR, EQUALITY, [True] * 6, True, None,
                    exterior_solves(16), 12),
    "interior-ball-report": (
        ["report", "--domain", "sphere:1", "--problem", "interior:c=1,d=1"],
        INTERIOR, ["satisfied"] * 4, [True] * 4, True, None,
        interior_solves(16), 10),
    "ellipsoid-report": (["report", "--domain", "ellipsoid:2,1,1"],
                         EXTERIOR, ASYMMETRIC, [False] * 6, False,
                         "pFunctionSpread",
                         exterior_solves(24, refined=True), 22),
    "interior-ellipsoid-report": (
        ["report", "--domain", "ellipsoid:2,1,1",
         "--problem", "interior:c=1,d=1"],
        INTERIOR, ["violated", "violated", "hypothesis-not-met", "violated"],
        [False] * 4, False, "pFunctionSpread", interior_solves(24), 12),
    "star-check": (["check", "--domain", "@{star}"],
                   EXTERIOR, ASYMMETRIC, [False] * 6, False,
                   "pFunctionSpread", exterior_solves(32), 13),
}


DOMAIN_KEYS = {"sphere": {"kind", "center", "radius"},
               "ellipsoid": {"kind", "center", "axes"},
               "star": {"kind", "center", "mean_radius", "terms",
                        "max_degree"}}
EXTERIOR_REPORTS = ("solution", "criteria", "identities", "capacity", "decay")
INTERIOR_REPORTS = ("solution", "criteria", "identities")


def written_keys(kind, levels, reports):
    """report -> path in the file ("[]": the items of a list) -> the keys
    of the JSON object there, for a run on a domain of this kind with these
    certificate levels that writes these reports."""
    domain = DOMAIN_KEYS[kind]
    keys = {
        "solution": {
            "": {"problem", "c", "d", "domain", "sources", "charges",
                 "singularCoefficient", "constant", "fitResidual", "order",
                 "conditionEstimate", "checkMisfit"},
            "domain": domain},
        "criteria": {
            "": {"problem", "domain", "fitResidual", "criteria",
                 "certificate"},
            "domain": domain,
            "criteria[]": {"criterionId", "lhs", "rhs", "margin",
                           "errorEstimate", "verdict", "witnesses"},
            "criteria[].witnesses[]": {"name", "value"},
            "certificate": {"granted", "pFunctionSpread",
                            "levelSetSphericity", "equalityResidual",
                            "inferredRadius", "failingMetric", "thresholds"},
            "certificate.levelSetSphericity": set(levels),
            "certificate.thresholds": {"pFunctionSpread",
                                       "levelSetSphericity",
                                       "equalityResidual"}},
        "identities": {
            "": {"identityChecks", "bochnerMaxResidual",
                 "bochnerSampleCount"},
            "identityChecks[]": {"weight", "t", "a", "b", "lhs", "rhs",
                                 "rhsTerms", "relResidual", "absResidual",
                                 "scale", "quadratureError"},
            "identityChecks[].rhsTerms": {"curvatureBottom", "curvatureTop",
                                          "fluxCubedBottom", "fluxCubedTop"}},
        "capacity": {"": {"capacity", "level", "inferredBallRadius"}},
        "decay": {"": {"fittedExponent", "gradientExponent",
                       "hessianExponent", "sampleRadii"}},
    }
    return {report: keys[report] for report in reports}


EXTERIOR_LEVELS = ("0.25", "0.5", "0.75")
INTERIOR_LEVELS = ("1.5", "2.0", "3.0")
WRITTEN_KEYS = {
    "ball-report": written_keys("sphere", EXTERIOR_LEVELS, EXTERIOR_REPORTS),
    "interior-ball-report": written_keys("sphere", INTERIOR_LEVELS,
                                         INTERIOR_REPORTS),
    "ellipsoid-report": written_keys("ellipsoid", EXTERIOR_LEVELS,
                                     EXTERIOR_REPORTS),
    "interior-ellipsoid-report": written_keys("ellipsoid", INTERIOR_LEVELS,
                                              INTERIOR_REPORTS),
    "star-check": written_keys("star", EXTERIOR_LEVELS, ("criteria",)),
}


def json_keys(out):
    """report -> path -> the keys of the JSON object there, for every
    out/<report>.json; the objects of one path must share their keys."""
    found = {}

    def walk(keys, value, path):
        if isinstance(value, dict):
            assert keys.setdefault(path, set(value)) == set(value), path
            for key, item in value.items():
                walk(keys, item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for item in value:
                walk(keys, item, f"{path}[]")

    for path in out.glob("*.json"):
        walk(found.setdefault(path.stem, {}), json.loads(path.read_text()), "")
    return found


@pytest.mark.parametrize("run", list(REFERENCE_RUNS))
def test_reference_run_outcomes(tmp_path, spy, run):
    (args, ids, verdicts, equality, granted, failing,
     solves, u_calls) = REFERENCE_RUNS[run]
    solved = spy("_extract", levelset)
    fields = spy("field", HarmonicSolution)
    star = tmp_path / "star.json"
    star.write_text(json.dumps(BENCH_STAR))
    out = tmp_path / "out"
    args = [a.format(star=star) for a in args] + ["--out", str(out)]
    assert main(args) == 0
    assert sorted(call.args[1:] for call in solved) == solves
    assert [call.arg("want") for call in fields].count("u") == u_calls
    assert json_keys(out) == WRITTEN_KEYS[run]
    report = json.loads((out / "criteria.json").read_text())
    rows = report["criteria"]
    assert [r["criterionId"] for r in rows] == list(ids)
    assert [r["verdict"] for r in rows] == verdicts
    assert [{w["name"]: w["value"] for w in r["witnesses"]}["equality"]
            for r in rows] == equality
    assert report["certificate"]["granted"] is granted
    assert report["certificate"]["failingMetric"] == failing

    # T1.9 runs on the lowest and highest certificate levels, and the
    # default identity between the same two levels
    t19 = {w["name"]: w["value"] for w in rows[-1]["witnesses"]}
    levels = sorted(map(float, report["certificate"]["levelSetSphericity"]))
    assert (t19["levelA"], t19["levelB"]) == (levels[0], levels[-1])
    if args[0] == "report":
        [identity] = json.loads(
            (out / "identities.json").read_text())["identityChecks"]
        assert math.exp(identity["a"]) == pytest.approx(levels[0], rel=1e-15)
        assert math.exp(identity["b"]) == pytest.approx(levels[-1], rel=1e-15)


THREADS_PROBE = """
import sys
from capsym.cli import main
raise SystemExit(main(["check", "--domain", "@" + sys.argv[1],
                       "--out", sys.argv[2]]))
"""


def test_star_check_at_one_and_two_blas_threads(tmp_path):
    # another BLAS thread count moves the star's charges by roundoff of its
    # order-32 solve (condition 1.2e11); every outcome stays the same, and
    # so do the node witnesses, each the lowest index within the error
    # estimate of the extreme; the two runs take turns, so at most two BLAS
    # threads run at once
    import capsym
    src = os.path.dirname(os.path.dirname(capsym.__file__))
    star = tmp_path / "star.json"
    star.write_text(json.dumps(BENCH_STAR))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", THREADS_PROBE, str(star),
                        str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        runs.append(json.loads((out / "criteria.json").read_text()))
    one, two = runs
    for key in ("granted", "failingMetric"):
        assert one["certificate"][key] == two["certificate"][key]
    assert len(one["criteria"]) == len(two["criteria"]) == 6
    for a, b in zip(one["criteria"], two["criteria"]):
        wa = {w["name"]: w["value"] for w in a["witnesses"]}
        wb = {w["name"]: w["value"] for w in b["witnesses"]}
        assert (a["criterionId"], a["verdict"], wa["equality"],
                wa.get("worstNode")) == (b["criterionId"], b["verdict"],
                                         wb["equality"], wb.get("worstNode"))
        for key in ("lhs", "rhs", "margin"):
            assert abs(a[key] - b[key]) <= a["errorEstimate"], key
        if "worstPoint" in wa:
            np.testing.assert_allclose(wa["worstPoint"], wb["worstPoint"],
                                       rtol=0, atol=1e-9)
