"""Fast tests of the benchmark itself: its output checks, its span
arithmetic and the fixed form of BENCHMARK.json.

Run with: PYTHONPATH=src python -m pytest -q bench
"""

import copy
import json
import math
import os
import re
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

FOUR_PI = 4.0 * math.pi
SPHERE = {"kind": "sphere", "radius": 1.0, "center": [0.0, 0.0, 0.0]}


# ---------------------------------------------------------------------------
# output checks fail on deliberately wrong answers
# ---------------------------------------------------------------------------

def _row(cid, verdict="satisfied", equality=True, lhs=0.0, **witnesses):
    wit = [{"name": "equality", "value": equality}]
    wit += [{"name": k, "value": v} for k, v in witnesses.items()]
    return {"criterionId": cid, "lhs": lhs, "rhs": 0.0, "margin": -lhs,
            "errorEstimate": 1e-11, "verdict": verdict, "witnesses": wit}


def _certificate(granted, radius=1.0):
    return {"granted": granted, "inferredRadius": radius,
            "failingMetric": None if granted else "pFunctionSpread"}


def _identities(lhs=0.0, rhs=1e-15):
    return {"identityChecks": [{"lhs": lhs, "rhs": rhs, "scale": 25.0}],
            "bochnerMaxResidual": 1e-14}


DECAY = {"fittedExponent": -1.0, "gradientExponent": -2.0,
         "hessianExponent": -3.0}


def ball_outputs():
    """Exact outputs for the unit ball: one unit charge at the centre."""
    sol = {"problem": "exterior", "c": 1.0, "order": 16, "fitResidual": 0.0,
           "domain": SPHERE, "sources": [[0.0, 0.0, 0.0]], "charges": [1.0],
           "singularCoefficient": 0.0}
    rows = [_row(cid) for cid in ("T1.1-integral", "C1.3-capacity",
                                  "C1.4-pointwise", "T1.5-neumann",
                                  "T1.9-two-boundary")]
    rows.insert(1, _row("C1.2-global", lhs=4.0))
    return {"solution": sol,
            "criteria": {"criteria": rows, "certificate": _certificate(True)},
            "capacity": {"capacity": FOUR_PI, "inferredBallRadius": 1.0},
            "decay": dict(DECAY), "identities": _identities()}


def interior_outputs():
    """Exact outputs for the punctured unit ball with c = d = 1: u = 1/r."""
    sol = {"problem": "interior", "c": 1.0, "d": 1.0, "order": 16,
           "fitResidual": 0.0, "domain": SPHERE, "sources": [[10.0, 0.0, 0.0]],
           "charges": [0.0], "singularCoefficient": 1.0}
    rows = [_row("T1.6-interior-integral", c2=1.0),
            _row("C1.7-interior-pointwise"), _row("T1.8-interior-neumann"),
            _row("T1.9-two-boundary")]
    return {"solution": sol,
            "criteria": {"criteria": rows, "certificate": _certificate(True)},
            "identities": _identities()}


@pytest.fixture(scope="module")
def star_solution():
    from capsym.harmonic import solve_exterior
    from capsym.geometry import DomainSpec
    return solve_exterior(DomainSpec.from_json_dict(workloads.STAR_DOMAIN))


@pytest.fixture(scope="module")
def star_outputs(star_solution):
    sol = star_solution.to_json_dict()
    cap = checks.gauss_capacity(sol)
    rows = [_row(cid, verdict="violated", equality=False)
            for cid in workloads.STAR_CRITERIA]
    rows[1] = _row("C1.3-capacity", verdict="violated", equality=False,
                   capacity=cap)
    return {"solution": sol,
            "criteria": {"criteria": rows,
                         "certificate": _certificate(False, cap / FOUR_PI)},
            "decay": dict(DECAY)}


def _scale_charges(out, factor):
    out["solution"]["charges"] = [q * factor for q in out["solution"]["charges"]]


def _set_row(out, cid, **fields):
    for row in out["criteria"]["criteria"]:
        if row["criterionId"] == cid:
            row.update(fields)


def _set_witness(out, cid, name, value):
    for row in out["criteria"]["criteria"]:
        if row["criterionId"] == cid:
            for w in row["witnesses"]:
                if w["name"] == name:
                    w["value"] = value


def _error_row(out, cid):
    out["criteria"]["criteria"] = [
        {"criterionId": cid, "error": "TypeError: boom"} if r["criterionId"] == cid
        else r for r in out["criteria"]["criteria"]]


def _ball_scaled(out):
    _scale_charges(out, 1.0 + 1e-4)
    out["capacity"]["capacity"] = checks.gauss_capacity(out["solution"])


BALL_MUTATIONS = {
    "u_is_1_over_r": lambda o: _scale_charges(o, 1.0 + 1e-4),
    "capacity_4pi": _ball_scaled,
    "inferred_radius_1": lambda o: o["capacity"].update(inferredBallRadius=1.001),
    "c12_ratio_4": lambda o: _set_row(o, "C1.2-global", lhs=3.0),
    "rows_satisfied_with_equality": lambda o: _error_row(o, "T1.5-neumann"),
    "certificate_granted": lambda o: o["criteria"].update(
        certificate=_certificate(False)),
    "decay_exponents": lambda o: o["decay"].update(hessianExponent=-2.99),
    "identity_residual": lambda o: o.update(identities=_identities(rhs=1e-4)),
}

INTERIOR_MUTATIONS = {
    "u_is_radial": lambda o: o["solution"].update(singularCoefficient=1.0001),
    "t16_c17_t18_equality": lambda o: _set_row(
        o, "C1.7-interior-pointwise", verdict="violated"),
    "c2_is_1": lambda o: _set_witness(o, "T1.6-interior-integral", "c2", 1.01),
    "no_error_rows": lambda o: _error_row(o, "T1.9-two-boundary"),
    "certificate_granted": lambda o: o["criteria"].update(
        certificate=_certificate(False)),
    "identity_residual": lambda o: o.update(identities=_identities(rhs=1e-4)),
}

STAR_MUTATIONS = {
    "fit_residual": lambda o: o["solution"].update(fitResidual=1e-6),
    "check_grid_misfit": lambda o: _scale_charges(o, 1.0 + 1e-6),
    "no_error_rows": lambda o: _error_row(o, "T1.5-neumann"),
    "certificate_denied": lambda o: o["criteria"].update(
        certificate=_certificate(True, 1.0)),
    "gauss_law": lambda o: _set_witness(o, "C1.3-capacity", "capacity",
                                        checks.gauss_capacity(o["solution"])
                                        * (1.0 + 1e-5)),
    "capacity_between_balls": lambda o: (
        _scale_charges(o, 2.0),
        _set_witness(o, "C1.3-capacity", "capacity",
                     checks.gauss_capacity(o["solution"])),
        o["criteria"].update(certificate=_certificate(
            False, checks.gauss_capacity(o["solution"]) / FOUR_PI))),
}


def _failing(found):
    return {c.name for c in found if not c.ok}


def test_correct_outputs_pass_every_check(star_outputs):
    assert not _failing(checks.ball_report_checks(ball_outputs(), seed=7))
    assert not _failing(checks.interior_report_checks(interior_outputs(), seed=7))
    assert not _failing(checks.star_check_checks(star_outputs))
    outs = [copy.deepcopy(star_outputs) for _ in range(2)]
    assert not _failing(checks.star_solve_checks(outs, [True, True]))


def test_every_check_has_a_mutation(star_outputs):
    names = lambda found: {c.name for c in found}
    assert names(checks.ball_report_checks(ball_outputs(), 1)) == set(BALL_MUTATIONS)
    assert names(checks.interior_report_checks(interior_outputs(), 1)) == \
        set(INTERIOR_MUTATIONS)
    assert names(checks.star_check_checks(star_outputs)) == set(STAR_MUTATIONS)


@pytest.mark.parametrize("name", sorted(BALL_MUTATIONS))
def test_ball_check_fails_on_wrong_answer(name):
    out = ball_outputs()
    BALL_MUTATIONS[name](out)
    assert name in _failing(checks.ball_report_checks(out, seed=3))


@pytest.mark.parametrize("name", sorted(INTERIOR_MUTATIONS))
def test_interior_check_fails_on_wrong_answer(name):
    out = interior_outputs()
    INTERIOR_MUTATIONS[name](out)
    assert name in _failing(checks.interior_report_checks(out, seed=3))


@pytest.mark.parametrize("name", sorted(STAR_MUTATIONS))
def test_star_check_fails_on_wrong_answer(name, star_outputs):
    out = copy.deepcopy(star_outputs)
    STAR_MUTATIONS[name](out)
    assert name in _failing(checks.star_check_checks(out))


def test_star_solution_fails_certificate_granted(star_solution):
    """A real star certificate, dropped into ball outputs, fails the check."""
    from capsym.criteria import symmetry_certificate
    out = ball_outputs()
    cert = symmetry_certificate(star_solution, levels=[0.5], order=12)
    out["criteria"]["certificate"] = cert.to_json_dict()
    assert "certificate_granted" in _failing(checks.ball_report_checks(out, 3))


def test_star_solve_checks_fail_on_wrong_answers(star_outputs):
    def run(mutate, roundtrips=(True, True)):
        outs = [copy.deepcopy(star_outputs) for _ in range(2)]
        mutate(outs[1])
        return _failing(checks.star_solve_checks(outs, list(roundtrips)))

    assert "gauss_agrees_across_orders" in run(
        lambda o: _scale_charges(o, 1.0 + 1e-7))
    assert "check_grid_misfit" in run(lambda o: _scale_charges(o, 1.0 + 1e-6))
    assert "fit_residual" in run(lambda o: o["solution"].update(fitResidual=1e-6))
    assert "decay_exponents" in run(lambda o: o["decay"].update(fittedExponent=-1.01))
    assert "reload_is_exact" in run(lambda o: None, roundtrips=(True, False))


def test_check_grid_oracle_matches_star_radius():
    """The benchmark's own star boundary agrees with capsym's radial graph."""
    from capsym.geometry import DomainSpec, angular_grid
    spec = DomainSpec.from_json_dict(workloads.STAR_DOMAIN)
    th, ph, _ = angular_grid(10)
    assert np.allclose(checks.boundary_radius(workloads.STAR_DOMAIN, th, ph),
                       spec.rho(th, ph), rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _spans(*rows):
    return [spans.Span(name, layer, s, e, parent) for name, layer, s, e, parent in rows]


def test_self_time_of_nested_spans():
    tree = _spans(("main", "cli", 0.0, 10.0, -1),
                  ("a", "levelset", 1.0, 4.0, 0),
                  ("a.inner", "harmonic", 2.0, 3.0, 1),
                  ("b", "harmonic", 5.0, 9.0, 0))
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    tree = _spans(("p", "x", 0.0, 10.0, -1), ("c1", "x", 1.0, 4.0, 0),
                  ("c2", "x", 3.0, 6.0, 0), ("c3", "x", 9.0, 12.0, 0))
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_group_time_counts_nested_members_once():
    tree = _spans(("outer", "levelset", 0.0, 10.0, -1),
                  ("field", "harmonic", 1.0, 2.0, 0),
                  ("inner", "levelset", 2.0, 5.0, 0),
                  ("later", "levelset", 12.0, 13.0, -1))
    in_levelset = lambda s: s.layer == "levelset"
    assert spans.group_time(tree, in_levelset) == 11.0
    assert spans.outermost(tree, in_levelset) == [0, 3]
    assert spans.has_ancestor(tree, 1, in_levelset)
    assert spans.coverage(tree, 0.0, 20.0) == pytest.approx(11.0 / 20.0)


def test_instrument_traces_calls_through_every_module(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "clock", lambda: float(next(ticks)))
    alpha = types.ModuleType("pkg.alpha")
    beta = types.ModuleType("pkg.beta")
    exec("def leaf(x):\n    return x + 1\n"
         "class Box:\n"
         "    def get(self):\n        return leaf(1)\n"
         "    @classmethod\n    def make(cls):\n        return cls()\n",
         alpha.__dict__)
    exec("def top():\n    return LEAF(1) + BOX.make().get()\n", beta.__dict__)
    beta.LEAF, beta.BOX = alpha.leaf, alpha.Box
    tracer = spans.Tracer()
    spans.instrument(tracer, [alpha, beta],
                     {"leaf": lambda args, kwargs, result: result})
    assert beta.top() == 4
    got = [(s.name, s.layer, s.parent, s.note) for s in tracer.spans]
    assert got == [("top", "beta", -1, None), ("leaf", "alpha", 0, 2),
                   ("Box.make", "alpha", 0, None), ("Box.get", "alpha", 0, None),
                   ("leaf", "alpha", 3, 2)]
    top_self = spans.self_times(tracer.spans)[0]
    assert top_self == tracer.spans[0].duration - sum(
        s.duration for s in tracer.spans[1:4])


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

HARNESS_LAYER_METRICS = {"cli.report_bytes", "solve.check_misfit",
                         "capacity.gauss_gap", "identities.residual_over_scale",
                         "identities.bochner_max", "levelset.level_misfit",
                         "trace.overhead_s"}


def test_benchmark_json_has_exactly_its_fixed_fields():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "bench/run.py"]
    assert bench["paths"] == ["bench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"]
        assert len(w["why"]) <= 200
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert list(e2e) == ["wall_s", "setup_s", "peak_rss_mb"]
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    names = [m["name"] for m in bench["per_layer"]]
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["better"] in ("lower", "higher")
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    all_names = names + list(e2e) + [w["name"] for w in bench["workloads"]]
    assert len(set(all_names)) == len(all_names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in all_names)
    produced = set(layers.summarize([], 0.0, 1.0)[0]) | HARNESS_LAYER_METRICS
    assert set(names) == produced
