import json
import math
from pathlib import Path

import numpy as np
import pytest

from bench_star import BENCH_STAR_JSON as BENCH_STAR
from capsym import cli, harmonic
from capsym.cli import ConfigError, RunConfig, main


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


BALL_DOMAIN = {"kind": "sphere", "radius": 1.0}
BALL_CONFIG = {
    "domain": BALL_DOMAIN,
    "problem": {"kind": "exterior", "c": 1.0},
    "levels": [0.25, 0.5, 0.75],
    "identities": [{"weight": "linear", "a": math.log(0.25),
                    "b": math.log(0.75)}],
}


def test_solve_writes_solution(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", BALL_CONFIG)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert data["problem"] == "exterior"
    assert data["fitResidual"] < 1e-9
    out = capsys.readouterr().out
    assert "fitResidual" in out
    assert f"checkMisfit {data['checkMisfit']:.6e}" in out


def test_solver_order_is_the_only_solver_setting():
    assert RunConfig({"domain": BALL_DOMAIN}).order is None
    assert RunConfig({"domain": BALL_DOMAIN,
                      "solver": {"order": 24.0}}).order == 24


@pytest.mark.parametrize("key, value", [
    ("source_order", 12), ("source_factor", 0.5), ("rcond", 1e-14),
    ("tolerance", 1.0)])
def test_placement_solver_keys_are_rejected(tmp_path, capsys, key, value):
    data = {"domain": BALL_DOMAIN, "solver": {key: value}}
    named = f"unknown key {key!r} in solver"
    with pytest.raises(ConfigError, match=named):
        RunConfig(data)
    cfg = write_config(tmp_path / "run.json", data)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert named in capsys.readouterr().err


def test_refine_flag_is_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--domain", "sphere:1", "--refine", "1",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "--refine" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_solve_shorthand(tmp_path):
    rc = main(["solve", "--domain", "sphere:1", "--problem", "exterior:c=1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert (tmp_path / "out" / "solution.json").exists()


def test_missing_config_names_path(tmp_path, capsys):
    rc = main(["solve", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc != 0
    assert "nope.json" in capsys.readouterr().err


def test_interior_d_must_be_positive(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {
        "domain": BALL_DOMAIN,
        "problem": {"kind": "interior", "c": 1.0, "d": -1.0},
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc != 0
    assert "d must be positive" in capsys.readouterr().err


def test_levels_validated_against_problem(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {
        "domain": BALL_DOMAIN,
        "problem": {"kind": "exterior", "c": 1.0},
        "levels": [1.5],
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc != 0


def test_interior_level_at_the_boundary_value_is_accepted(tmp_path):
    # the level range is the library's: an interior u takes the value c
    cfg = write_config(tmp_path / "run.json", {
        "domain": BALL_DOMAIN,
        "problem": {"kind": "interior", "c": 1.0, "d": 1.0},
        "levels": [1.0, 2.0],
    })
    out = tmp_path / "out"
    rc = main(["check", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "criteria.json").read_text())
    assert [r["verdict"] for r in report["criteria"]] == ["satisfied"] * 4


def test_interior_boundary_level_with_an_inexact_fit(tmp_path):
    # the interior ellipsoid fits u = c only to 1.4e-7, so on 588 of its
    # 1,152 rays u stays above c up to the boundary: the level c must still
    # be found, by the criteria and by an identity whose lower level is c
    cfg = write_config(tmp_path / "run.json", {
        "domain": {"kind": "ellipsoid", "axes": [2.0, 1.0, 1.0]},
        "problem": {"kind": "interior", "c": 2.0, "d": 1.0},
        "levels": [2.0, 4.0],
        "identities": [{"weight": "shifted-log", "t": 32.0,
                        "a": math.log(2.0),
                        "b": math.log(32.0 * (1 - 1e-9))}],
    })
    out = tmp_path / "out"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "criteria.json").read_text())
    assert all("error" not in r for r in report["criteria"])
    [res] = json.loads((out / "identities.json").read_text())["identityChecks"]
    assert res["relResidual"] <= 1e-6


def test_interior_criteria_rejected_for_exterior_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {
        "domain": BALL_DOMAIN,
        "problem": {"kind": "exterior", "c": 1.0},
        "criteria": ["T1.6-interior-integral"],
    })
    rc = main(["check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc != 0
    assert "incompatible" in capsys.readouterr().err


def test_shifted_log_t_guard(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {
        "domain": BALL_DOMAIN,
        "problem": {"kind": "exterior", "c": 1.0},
        "identities": [{"weight": "shifted-log", "t": 0.5,
                        "a": math.log(0.25), "b": math.log(0.75)}],
    })
    rc = main(["identities", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc != 0
    assert "shifted-log" in capsys.readouterr().err


def test_check_ball_grants_certificate(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", BALL_CONFIG)
    out = tmp_path / "out"
    rc = main(["check", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "criteria.json").read_text())
    assert report["certificate"]["granted"] is True
    verdicts = {r["criterionId"]: r["verdict"] for r in report["criteria"]}
    assert set(verdicts) == {"T1.1-integral", "C1.2-global", "C1.3-capacity",
                             "C1.4-pointwise", "T1.5-neumann",
                             "T1.9-two-boundary"}
    assert all(v == "satisfied" for v in verdicts.values())
    shown = capsys.readouterr().out
    assert "granted" in shown and "equality" in shown


def test_battery_takes_the_middle_level_by_value(tmp_path):
    # levels keep the order given; the battery's middle level is their
    # median, not the entry in the middle position
    cfg = write_config(tmp_path / "run.json", {
        "domain": BALL_DOMAIN,
        "levels": [0.75, 0.25, 0.5],
    })
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "criteria.json").read_text())["criteria"]
    witnesses = {r["criterionId"]: {w["name"]: w["value"]
                                    for w in r["witnesses"]} for r in rows}
    for cid in ("T1.1-integral", "C1.4-pointwise", "T1.5-neumann"):
        assert witnesses[cid]["level"] == 0.5
    t19 = witnesses["T1.9-two-boundary"]
    assert (t19["levelA"], t19["levelB"]) == (0.25, 0.75)


def test_check_empty_criteria_certificate_only(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "domain": BALL_DOMAIN,
        "problem": {"kind": "exterior", "c": 1.0},
        "criteria": [],
    })
    out = tmp_path / "out"
    rc = main(["check", "--config", cfg, "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "criteria.json").read_text())
    assert report["criteria"] == []
    assert "granted" in report["certificate"]


def test_identities_reports(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", BALL_CONFIG)
    out = tmp_path / "out"
    rc = main(["identities", "--config", cfg, "--out", str(out)])
    assert rc == 0
    data = json.loads((out / "identities.json").read_text())
    assert data["bochnerMaxResidual"] < 1e-9
    check = data["identityChecks"][0]
    assert abs(check["lhs"]) < 1e-6 * check["scale"]
    csv_text = (out / "identity_terms.csv").read_text()
    assert csv_text.splitlines()[0] == "weight,a,b,term,value"


def test_capacity_command(tmp_path, capsys):
    rc = main(["capacity", "--domain", "sphere:1", "--out",
               str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "capacity.json").read_text())
    assert abs(data["capacity"] - 4 * math.pi) / (4 * math.pi) < 1e-6
    assert abs(data["inferredBallRadius"] - 1.0) < 1e-6
    out = capsys.readouterr().out
    assert out.startswith(f"capacity {data['capacity']!r} (inferred ball "
                          f"radius {data['inferredBallRadius']!r})")


def test_decay_command(tmp_path):
    rc = main(["decay", "--domain", "sphere:1", "--radii", "10:100:8",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "decay.json").read_text())
    assert abs(data["fittedExponent"] + 1.0) < 1e-6
    assert abs(data["gradientExponent"] + 2.0) < 1e-6
    assert abs(data["hessianExponent"] + 3.0) < 1e-6


def test_one_parser_parses_each_call_afresh(monkeypatch, capsys):
    # the parser is built once per process; the second call keeps nothing
    # of the first one's subcommand or options
    seen = []

    def stop(args):
        seen.append(vars(args))
        raise ConfigError("stopped after parsing")

    monkeypatch.setattr(cli, "_config_from_args", stop)
    assert main(["capacity", "--domain", "sphere:1", "--level", "0.3",
                 "--out", "a"]) == 2
    assert main(["decay", "--domain", "sphere:2", "--radii", "10:100:8"]) == 2
    assert cli.build_parser() is cli.build_parser()
    common = {"config": None, "problem": None, "solution": None}
    assert seen == [
        {**common, "command": "capacity", "domain": "sphere:1", "level": 0.3,
         "out": "a"},
        {**common, "command": "decay", "domain": "sphere:2",
         "radii": (10.0, 100.0, 8), "out": "capsym-out"}]
    assert capsys.readouterr().err.count("stopped after parsing") == 2


def test_report_pipeline_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "run.json", BALL_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["report", "--config", cfg, "--out", str(out)])
        assert rc == 0
    for name in ("solution.json", "criteria.json", "identities.json",
                 "identity_terms.csv", "capacity.json", "decay.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_solution_round_trip_through_cli(tmp_path):
    cfg = write_config(tmp_path / "run.json", BALL_CONFIG)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    from capsym import HarmonicSolution
    from capsym.cli import RunConfig
    direct = RunConfig.from_path(cfg).solve()
    loaded = HarmonicSolution.load(out / "solution.json")
    pts = np.array([[2.0, 0.1, -0.3], [0.0, 3.0, 1.0], [1.5, 0.0, 0.2]])
    a = direct.field(pts)
    b = loaded.field(pts)
    assert np.abs(a.u - b.u).max() < 1e-14
    assert np.abs(a.grad - b.grad).max() < 1e-14
    assert np.abs(a.hess - b.hess).max() < 1e-14


# ---------------------------------------------------------------------------
# one config and one solution per run
# ---------------------------------------------------------------------------

REPORT_FILES = ("solution.json", "criteria.json", "identities.json",
                "identity_terms.csv", "capacity.json", "decay.json")
INTERIOR_BALL = {"domain": BALL_DOMAIN,
                 "problem": {"kind": "interior", "c": 1.0, "d": 1.0}}


def solve_at_order_24(tmp_path, data):
    """A solution.json of the config's problem at order 24, not the default
    16, so that a run that solves again instead of loading it shows."""
    cfg = write_config(tmp_path / "order24.json",
                       {**data, "solver": {"order": 24}})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s24")]) == 0
    return tmp_path / "s24" / "solution.json"


@pytest.mark.parametrize("data, stages", [
    ({"domain": BALL_DOMAIN}, ["check", "identities", "capacity", "decay"]),
    (INTERIOR_BALL, ["check", "identities"]),
], ids=["exterior", "interior"])
def test_report_equals_its_stages(tmp_path, data, stages):
    sol = str(solve_at_order_24(tmp_path, data))
    cfg = write_config(tmp_path / "run.json", data)
    rep, sep = tmp_path / "report", tmp_path / "stages"
    assert main(["report", "--config", cfg, "--solution", sol,
                 "--out", str(rep)]) == 0
    for stage in ["solve"] + stages:
        assert main([stage, "--config", cfg, "--solution", sol,
                     "--out", str(sep)]) == 0
    written = sorted(p.name for p in rep.iterdir())
    assert written == sorted(REPORT_FILES[:2 + len(stages)])
    assert written == sorted(p.name for p in sep.iterdir())
    for name in written:
        assert (rep / name).read_bytes() == (sep / name).read_bytes(), name


def test_report_keeps_the_given_solution(tmp_path):
    sol = solve_at_order_24(tmp_path, {"domain": BALL_DOMAIN})
    out = tmp_path / "out"
    assert main(["report", "--domain", "sphere:1", "--solution", str(sol),
                 "--out", str(out)]) == 0
    assert json.loads((out / "solution.json").read_text())["order"] == 24
    assert (out / "solution.json").read_bytes() == sol.read_bytes()


def test_report_parses_once_loads_once_never_solves(tmp_path, spy):
    from capsym import HarmonicSolution
    cfg = write_config(tmp_path / "run.json", BALL_CONFIG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    calls = {"config": spy("__init__", RunConfig),
             "load": spy("load", HarmonicSolution),
             "solve": spy("solve", RunConfig)}
    assert main(["report", "--config", cfg, "--solution",
                 str(tmp_path / "s" / "solution.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert {name: len(made) for name, made in calls.items()} == {
        "config": 1, "load": 1, "solve": 0}


@pytest.mark.parametrize("problem, matches", [("exterior", 6),
                                              ("interior:c=1,d=1", 4)])
def test_a_report_matches_its_charges_once(tmp_path, spy, problem, matches):
    # every stage evaluates the solve's own solution: its one nonzero
    # charge (the ball's center or the interior pole) is matched once and
    # its moments are built once
    mirrored = spy("_mirror", harmonic)
    moments = spy("_charge_moments", harmonic)
    assert main(["report", "--domain", "sphere:1", "--problem", problem,
                 "--out", str(tmp_path / "out")]) == 0
    rows = [len(call.args[0]) for call in mirrored]
    assert len(rows) == matches and rows.count(1) == 1
    assert len(moments) == 1


@pytest.fixture(scope="module")
def saved_solutions(tmp_path_factory):
    """solution.json of the exterior and the interior unit ball."""
    root = tmp_path_factory.mktemp("solutions")
    paths = {}
    for kind in ("exterior", "interior"):
        out = root / kind
        assert main(["solve", "--domain", "sphere:1", "--problem", kind,
                     "--out", str(out)]) == 0
        paths[kind] = str(out / "solution.json")
    return paths


@pytest.mark.parametrize("saved, argv, field", [
    ("interior", ["--domain", "sphere:1"], "problem"),
    ("exterior", ["--domain", "ellipsoid:2,1,1"], "domain"),
    ("exterior", ["--domain", "sphere:1", "--problem", "exterior:c=2"], "c"),
    ("interior", ["--domain", "sphere:1", "--problem", "interior:d=2"], "d"),
])
def test_solution_must_match_config(tmp_path, capsys, saved_solutions,
                                    saved, argv, field):
    out = tmp_path / "out"
    rc = main(["check", *argv, "--solution", saved_solutions[saved],
               "--out", str(out)])
    assert rc == 2
    assert f"does not match the config: {field} is" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data, named", [
    ({"domain": {"kind": "sphere", "radus": 2}}, "domain is missing 'radius'"),
    ({"domain": BALL_DOMAIN, "identities": [{"b": -0.3}]},
     "identity check is missing 'a'"),
    ({"domain": BALL_DOMAIN,
      "identities": [{"weight": "shifted-log", "a": -1.0, "b": -0.3}]},
     "identity check is missing 't'"),
    ({"domain": BALL_DOMAIN, "level": [0.5]}, "unknown key 'level' in config"),
    ({"domain": BALL_DOMAIN, "solver": {"ordr": 24}},
     "unknown key 'ordr' in solver"),
    ({"domain": BALL_DOMAIN, "problem": {"kind": "exterior", "cc": 2}},
     "unknown key 'cc' in problem"),
    ({"domain": BALL_DOMAIN,
      "identities": [{"a": -1.0, "b": -0.3, "level": 8}]},
     "unknown key 'level' in identity check"),
    ({"domain": BALL_DOMAIN, "solver": 24}, "solver must be a JSON object"),
    ({"domain": BALL_DOMAIN, "problem": {"kind": "interior"},
      "levels": [math.inf]}, "interior levels lie in [1.0, inf); got inf"),
    ({"domain": BALL_DOMAIN, "levels": [0.25, 0.5, 0.25]},
     "level 0.25 is repeated in levels"),
    # values of the wrong JSON type, each named by its key
    ({"domain": BALL_DOMAIN, "levels": 0.5},
     "'levels' in config has the wrong JSON type: 0.5"),
    ({"domain": BALL_DOMAIN, "criteria": 5},
     "'criteria' in config has the wrong JSON type: 5"),
    ({"domain": {"kind": "ellipsoid", "axes": 2}},
     "'axes' in domain has the wrong JSON type: 2"),
    ({"domain": {"kind": "star", "mean_radius": 1.0, "terms": 3}},
     "'terms' in domain has the wrong JSON type: 3"),
    ({"domain": BALL_DOMAIN, "levels": [None]},
     "'levels' in config has the wrong JSON type: [null]"),
    ({"domain": BALL_DOMAIN, "problem": {"c": None}},
     "'c' in problem has the wrong JSON type: null"),
    ({"domain": {"kind": "sphere", "radius": None}},
     "'radius' in domain has the wrong JSON type: null"),
    ({"domain": BALL_DOMAIN, "seed": None},
     "'seed' in config has the wrong JSON type: null"),
    ({"domain": BALL_DOMAIN, "solver": {"order": [1]}},
     "'order' in solver has the wrong JSON type: [1]"),
    ({"domain": BALL_DOMAIN, "identities": [{"a": None, "b": -0.3}]},
     "'a' in identity check has the wrong JSON type: null"),
    ({"domain": "sphere"}, "domain must be a JSON object"),
    ({"domain": {"kind": "ellipsoid", "axes": [None, 1.0, 1.0]}},
     "'axes' in domain has the wrong JSON type: [null, 1.0, 1.0]"),
    # integers only: no truncation of a fraction, no bool
    ({"domain": BALL_DOMAIN, "solver": {"order": 24.5}},
     "'order' in solver has the wrong JSON type: 24.5"),
    ({"domain": BALL_DOMAIN, "seed": 1.5},
     "'seed' in config has the wrong JSON type: 1.5"),
    ({"domain": BALL_DOMAIN, "solver": {"order": True}},
     "'order' in solver has the wrong JSON type: true"),
    # non-finite numbers, rejected before solving
    ({"domain": BALL_DOMAIN, "problem": {"kind": "interior", "d": math.inf}},
     "flux density d must be positive and finite"),
    ({"domain": BALL_DOMAIN, "problem": {"c": math.inf}},
     "boundary value c must be positive and finite"),
    ({"domain": BALL_DOMAIN, "problem": {"c": math.nan}},
     "boundary value c must be positive and finite"),
    ({"domain": {"kind": "sphere", "radius": math.inf}},
     "'radius' in domain must be finite: inf"),
    ({"domain": BALL_DOMAIN, "identities": [{"a": math.nan, "b": -0.3}]},
     "'a' in identity check must be finite: nan"),
    ({"domain": BALL_DOMAIN, "identities": [{"a": -1.0, "b": math.nan}]},
     "'b' in identity check must be finite: nan"),
    ({"domain": BALL_DOMAIN, "identities": [{"a": -math.inf, "b": -0.3}]},
     "'a' in identity check must be finite: -inf"),
    ({"domain": BALL_DOMAIN, "identities": [
        {"weight": "shifted-log", "t": math.nan, "a": -1.0, "b": -0.3}]},
     "'t' in identity check must be finite: nan"),
    ({"domain": {"kind": "star", "mean_radius": 1.0,
                 "terms": [[2.7, 0, 0.1]]}},
     "'terms' in domain has the wrong JSON type: [[2.7, 0, 0.1]]"),
    # list-valued keys take a JSON list and no other shape
    ({"domain": BALL_DOMAIN, "criteria": "T1.1-integral"},
     "'criteria' in config has the wrong JSON type: \"T1.1-integral\""),
    ({"domain": BALL_DOMAIN, "criteria": {"T1.1-integral": 1}},
     "'criteria' in config has the wrong JSON type: {\"T1.1-integral\": 1}"),
    ({"domain": BALL_DOMAIN, "levels": {"0.5": 1}},
     "'levels' in config has the wrong JSON type: {\"0.5\": 1}"),
    ({"domain": BALL_DOMAIN, "identities": {}},
     "'identities' in config has the wrong JSON type: {}"),
    # named before anything is solved
    ({"domain": BALL_DOMAIN, "seed": -1},
     "'seed' in config must be non-negative: -1"),
    # d is the interior flux density, never dropped from an exterior problem
    ({"domain": BALL_DOMAIN, "problem": {"kind": "exterior", "d": 5}},
     "'d' in problem is for the interior problem only"),
], ids=["domain-field", "identity-a", "identity-t", "top-key", "solver-key",
        "problem-key", "identity-key", "not-an-object", "infinite-level",
        "repeated-level", "levels-type", "criteria-type", "axes-type",
        "terms-type", "level-type", "c-type", "radius-type", "seed-type",
        "order-type", "identity-a-type", "domain-type", "axis-type",
        "order-fraction", "seed-fraction", "order-bool", "d-inf", "c-inf",
        "c-nan", "radius-inf", "identity-a-nan", "identity-b-nan",
        "identity-a-inf", "identity-t-nan", "terms-fraction",
        "criteria-string", "criteria-object", "levels-object",
        "identities-object", "seed-negative", "exterior-d"])
def test_malformed_config_names_the_field(tmp_path, capsys, data, named):
    cfg = write_config(tmp_path / "run.json", data)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("radii, named", [
    ("10:inf:8", "radii must be finite, positive and increasing"),
    ("nan:100:8", "radii must be finite, positive and increasing"),
    ("0:100:8", "radii must be finite, positive and increasing"),
    ("-10:100:8", "radii must be finite, positive and increasing"),
    ("100:10:8", "radii must be finite, positive and increasing"),
    ("10:10:8", "radii must be finite, positive and increasing"),
    ("10:100:3", "need a count of at least 4 radii"),
    ("10:100:-1", "need a count of at least 4 radii"),
    ("10:100", "expected lo:hi:count"),
    ("10:100:8.5", "expected lo:hi:count"),
], ids=["hi-inf", "lo-nan", "lo-zero", "lo-negative", "decreasing", "equal",
        "count-3", "count-negative", "two-parts", "count-fraction"])
def test_bad_radii_rejected_by_the_parser(tmp_path, capsys, radii, named):
    # named by the parser (exit 2), before any grid is built or solve run
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--domain", "sphere:1", f"--radii={radii}",
              "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument --radii: {named}: {radii}" in capsys.readouterr().err
    assert not out.exists()


def test_decay_default_radii_follow_the_domain(tmp_path):
    rc = main(["decay", "--domain", "sphere:6", "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "decay.json").read_text())
    assert data["sampleRadii"][0] == pytest.approx(18.0)
    assert abs(data["fittedExponent"] + 1.0) < 1e-6


@pytest.mark.parametrize("key, value, shown", [
    ("c", None, "null"), ("order", "x", '"x"'), ("order", 24.5, "24.5"),
    ("charges", "x", '"x"')])
def test_solution_value_of_the_wrong_type_is_named(tmp_path, capsys,
                                                   saved_solutions, key,
                                                   value, shown):
    data = json.loads(Path(saved_solutions["exterior"]).read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, key: value}))
    out = tmp_path / "out"
    rc = main(["check", "--domain", "sphere:1", "--solution", str(bad),
               "--out", str(out)])
    assert rc == 2
    assert (f"{key!r} in solution {bad} has the wrong JSON type: {shown}"
            in capsys.readouterr().err)
    assert not out.exists()


# value and message for a saved unit ball of m sources
@pytest.mark.parametrize("key, value, named", [
    ("charges", lambda m: [0.0] * 287, "must have shape ({m},): (287,)"),
    ("sources", lambda m: [[0.5, 0.0]] * m,
     "must have shape ({m}, 3): ({m}, 2)"),
    ("order", lambda m: -3, "must be at least 6: -3"),
    ("problem", lambda m: "sideways",
     "must be 'exterior' or 'interior': 'sideways'"),
    ("c", lambda m: -1, "must be positive and finite: -1.0"),
    ("c", lambda m: math.nan, "must be positive and finite: nan"),
    ("d", lambda m: 2.0,
     "must be null for an exterior solution, else positive and finite: 2.0")],
    ids=["charges-287", "sources-2-columns", "order-negative",
         "problem-sideways", "c-negative", "c-nan", "d-on-exterior"])
def test_solution_value_out_of_shape_or_range_is_named(tmp_path, capsys,
                                                       saved_solutions, key,
                                                       value, named):
    data = json.loads(Path(saved_solutions["exterior"]).read_text())
    m = len(data["sources"])
    named = named.format(m=m)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**data, key: value(m)}))
    out = tmp_path / "out"
    rc = main(["check", "--domain", "sphere:1", "--solution", str(bad),
               "--out", str(out)])
    assert rc == 2
    assert f"{key!r} in solution {bad} {named}" in capsys.readouterr().err
    assert not out.exists()


def test_solution_missing_a_key_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"problem": "exterior"}))
    out = tmp_path / "out"
    rc = main(["check", "--domain", "sphere:1", "--solution", str(bad),
               "--out", str(out)])
    assert rc == 2
    assert f"solution {bad} is missing 'c'" in capsys.readouterr().err
    assert not out.exists()


HUGE = 10 ** 400   # a JSON integer too large for a float
# the error of a file holding {'domain': 1}
NOT_JSON_NAMED = ("not.json is not valid JSON: Expecting property name "
                  "enclosed in double quotes: line 1 column 2 (char 1)\n")
# an error shows the first 40 characters of a value's JSON
SHOWN = str(HUGE)[:40] + "..."


@pytest.mark.parametrize("config, argv, named", [
    # unknown keys are named, not dropped
    ({"domain": {**BENCH_STAR, "max_degre": 2}}, [],
     "unknown key 'max_degre' in domain"),
    ({"domain": {**BALL_DOMAIN, "centre": [0.1, 0.0, 0.0]}}, [],
     "unknown key 'centre' in domain"),
    ({"domain": {**BALL_DOMAIN, "axes": [2.0, 1.0, 1.0]}}, [],
     "unknown key 'axes' in domain"),
    (None, ["--domain", "sphere:1", "--solution", {"chargez": []}],
     "unknown key 'chargez' in solution"),
    # numbers are JSON numbers, not strings or bools
    ({"domain": {"kind": "sphere", "radius": "2.0"}}, [],
     "'radius' in domain has the wrong JSON type: \"2.0\""),
    ({"domain": BALL_DOMAIN, "problem": {"c": True}}, [],
     "'c' in problem has the wrong JSON type: true"),
    ({"domain": BALL_DOMAIN, "levels": ["0.5", True]}, [],
     "'levels' in config has the wrong JSON type: [\"0.5\", true]"),
    ({"domain": BALL_DOMAIN, "levels": [0.5, True]}, [],
     "'levels' in config has the wrong JSON type: [0.5, true]"),
    ({"domain": {**BALL_DOMAIN, "center": "000"}}, [],
     "'center' in domain has the wrong JSON type: \"000\""),
    ({"domain": BALL_DOMAIN, "identities": [{"a": "-1", "b": -0.3}]}, [],
     "'a' in identity check has the wrong JSON type: \"-1\""),
    (None, ["--domain", "sphere:1", "--solution", {"c": "1.0"}],
     "'c' in solution"),
    # a JSON integer too large for a float is named as out of range, not
    # a traceback, and shown cut short
    ({"domain": BALL_DOMAIN, "problem": {"c": HUGE}}, [],
     f"'c' in problem is out of range: {SHOWN}\n"),
    ({"domain": BALL_DOMAIN, "levels": [HUGE]}, [],
     f"'levels' in config is out of range: {f'[{HUGE}'[:40]}...\n"),
    ({"domain": BALL_DOMAIN, "identities": [{"a": -1.0, "b": HUGE}]}, [],
     f"'b' in identity check is out of range: {SHOWN}\n"),
    ({"domain": {"kind": "sphere", "radius": HUGE}}, [],
     f"'radius' in domain is out of range: {SHOWN}\n"),
    # the domain of a saved solution is named with its file
    (None, ["--domain", "sphere:1", "--solution",
            {"domain": {**BALL_DOMAIN, "radius ": 1.0}}],
     "unknown key 'radius ' in domain of solution "),
    (None, ["--domain", "sphere:1", "--solution",
            {"domain": {**BALL_DOMAIN, "radius": math.inf}}],
     "'radius' in domain of solution "),
    (None, ["--domain", "sphere:1", "--solution",
            {"domain": {**BALL_DOMAIN, "kind": "cube"}}],
     "unknown domain kind 'cube' in domain of solution "),
    # each weight kind has one name
    ({"domain": BALL_DOMAIN, "identities": [
        {"weight": "shifted_log", "t": 32.0, "a": -1.0, "b": -0.3}]}, [],
     "unknown identity weight 'shifted_log'"),
    # levels select no work when left out, and [] is no level at all
    ({"domain": BALL_DOMAIN, "levels": []}, [],
     "'levels' in config must not be empty"),
    # shorthand values are named by their flag and key
    (None, ["--domain", "sphere:1", "--problem", "interior:c=abc"],
     "'c' in --problem is not a number: 'abc'"),
    (None, ["--domain", "sphere:1", "--problem", "interior:c"],
     "'c' in --problem is not a number: ''"),
    (None, ["--domain", "sphere:abc"],
     "'radius' in --domain is not a number: 'abc'"),
    (None, ["--domain", "ellipsoid:2,x,1"],
     "'axes' in --domain is not a number: 'x'"),
    (None, ["--domain", "sphere:1", "--problem", "interior:c=2,c=3"],
     "'c' is repeated in --problem"),
    (None, ["--domain", "sphere:1", "--problem", "exterior:c=1,d=5"],
     "'d' in problem is for the interior problem only"),
    # a file that is not JSON is named, with the parser's line and column
    (None, ["--config", "{not_json}"], NOT_JSON_NAMED),
    (None, ["--domain", "@{not_json}"], NOT_JSON_NAMED),
    (None, ["--domain", "sphere:1", "--solution", "{not_json}"],
     NOT_JSON_NAMED),
], ids=["domain-max-degree", "domain-centre", "sphere-axes",
        "solution-key", "radius-string", "c-bool", "levels-string-bool",
        "levels-bool", "center-string", "identity-a-string",
        "solution-c-string", "c-huge", "level-huge", "identity-b-huge",
        "radius-huge", "solution-domain-key", "solution-domain-inf",
        "solution-domain-kind",
        "shifted_log", "levels-empty", "problem-c-string",
        "problem-c-no-value", "sphere-radius-string", "ellipsoid-axis-string",
        "problem-c-repeated", "problem-exterior-d", "config-not-json",
        "domain-file-not-json", "solution-not-json"])
def test_every_reader_names_the_bad_key(tmp_path, capsys, saved_solutions,
                                        config, argv, named):
    # one rule for every JSON object and shorthand: exit 2 with the key named
    # before anything is solved or written; a dict in argv is merged into
    # the saved exterior solution, and {not_json} is a file that is not JSON
    def solution(extra):
        data = json.loads(Path(saved_solutions["exterior"]).read_text())
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**data, **extra}))
        return str(path)

    not_json = tmp_path / "not.json"
    not_json.write_text("{'domain': 1}")
    argv = [solution(a) if isinstance(a, dict) else a.format(not_json=not_json)
            for a in argv]
    if config is not None:
        argv = ["--config", write_config(tmp_path / "run.json", config), *argv]
    out = tmp_path / "out"
    rc = main(["check", *argv, "--out", str(out)])
    assert rc == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    if config is not None and named.endswith(" in domain"):
        # a bad domain read from a --domain file is named alike
        (tmp_path / "domain.json").write_text(json.dumps(config["domain"]))
        domain = "@" + str(tmp_path / "domain.json")
        assert main(["check", "--domain", domain, "--out", str(out)]) == 2
        assert named in capsys.readouterr().err


def test_empty_identities_run_no_identity_check(tmp_path):
    cfg = write_config(tmp_path / "run.json",
                       {"domain": BALL_DOMAIN, "identities": []})
    out = tmp_path / "out"
    assert main(["identities", "--config", cfg, "--out", str(out)]) == 0
    data = json.loads((out / "identities.json").read_text())
    assert data["identityChecks"] == []
    assert data["bochnerSampleCount"] == 20
    assert data["bochnerMaxResidual"] < 1e-9
    assert ((out / "identity_terms.csv").read_text().splitlines()
            == ["weight,a,b,term,value"])


@pytest.mark.parametrize("command", ["capacity", "decay"])
def test_exterior_only_commands_fail_before_solving(tmp_path, capsys,
                                                    monkeypatch, command):
    from capsym import cli
    calls = []
    monkeypatch.setattr(cli, "solve_interior",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "out"
    rc = main([command, "--domain", "sphere:1", "--problem", "interior",
               "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert f"{command} is defined for the exterior problem only" \
        in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, data, argv, level", [
    ("report", {"domain": BALL_DOMAIN,
                "identities": [{"a": -1.0, "b": 0.5}]}, [], "1.64872127070013"),
    ("report", {"domain": BALL_DOMAIN}, ["--level", "2"], "2.0"),
    ("capacity", {"domain": BALL_DOMAIN}, ["--level", "2"], "2.0"),
], ids=["identity-level", "report-level", "capacity-level"])
def test_out_of_range_levels_fail_before_solving(tmp_path, capsys,
                                                 monkeypatch, command, data,
                                                 argv, level):
    # identity levels exp(a), exp(b) and --level are checked with the config,
    # before anything is solved or written
    from capsym import cli
    calls = []
    monkeypatch.setattr(cli, "solve_exterior",
                        lambda *args, **kwargs: calls.append(args))
    cfg = write_config(tmp_path / "run.json", data)
    out = tmp_path / "out"
    rc = main([command, "--config", cfg, *argv, "--out", str(out)])
    assert rc == 2
    assert calls == []
    assert f"exterior levels lie in (0, 1.0]; got {level}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_identity_level_one_ulp_above_c_is_the_level_c():
    # exp(log 3) = 3.0000000000000004 is the level 3.0 that extraction
    # solves, so an exterior identity up to log c is accepted for c = 3
    cfg = RunConfig({"domain": BALL_DOMAIN, "problem": {"c": 3.0},
                     "identities": [{"a": math.log(1.5), "b": math.log(3.0)}]})
    assert math.exp(cfg.identity_checks[0][2]) > 3.0


def test_interior_report_solves_each_level_once(tmp_path, solved):
    # the identity's upper level exp(log 3) = 3.0000000000000004 shares the
    # cache entry of the level 3.0 that T1.9 and the certificate solved
    out = tmp_path / "out"
    assert main(["report", "--domain", "sphere:1",
                 "--problem", "interior:c=1,d=1", "--out", str(out)]) == 0
    # the cache holds one LevelSet per extracted (level, order), besides
    # the boundary, which is not solved
    cached = [ls for key, ls in solved[0].args[0]._levelset_cache.items()
              if isinstance(key, tuple)]
    assert sorted(call.args[1] for call in solved) == [1.5, 2.0, 3.0]
    assert sorted(ls.level for ls in cached) == [1.5, 2.0, 3.0]
    # the radial case: both sides of the identity vanish to roundoff
    [check] = json.loads((out / "identities.json").read_text())["identityChecks"]
    assert check["b"] == math.log(3.0) and check["relResidual"] < 1e-14


@pytest.fixture
def solved(spy):
    """Every levelset._extract call, its args (solution, level, order)."""
    from capsym import levelset
    return spy("_extract", levelset)


@pytest.mark.parametrize("command, domain, order", [
    ("report", BALL_DOMAIN, 16),
    ("check", BENCH_STAR, 32),
], ids=["ball-report", "star-check"])
def test_exterior_run_solves_three_level_sets(tmp_path, solved, command,
                                              domain, order):
    # the default levels c/4, c/2, 3c/4 serve T1.9, the certificate and
    # capacity (on c/2); T1.1's angular spectrum on c/2 is at its roundoff
    # plateau, so T1.1 does not refine c/2 at order + 8
    cfg = write_config(tmp_path / "run.json", {"domain": domain})
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert sorted(call.args[1:] for call in solved) == [
        (0.25, order), (0.5, order), (0.75, order)]


def test_capacity_run_solves_only_its_level(tmp_path, solved):
    # capacity checks its level's flux against the boundary's, so on the
    # bench star it extracts the level c/2 alone
    cfg = write_config(tmp_path / "run.json", {"domain": BENCH_STAR})
    assert main(["capacity", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 0
    assert [call.args[1:] for call in solved] == [(0.5, 32)]


IMPORT_PROBE = """
import json, sys
import capsym.cli
loaded = set(sys.modules)
for i, argv in enumerate(json.loads(sys.argv[1])):
    assert capsym.cli.main([*argv, "--out", f"out{i}"]) == 0, argv
top = lambda names: sorted(m for m in names
                           if m.split(".")[0] in ("numpy", "scipy"))
with open("modules.json", "w") as fh:
    json.dump({"scipy": [m for m in top(loaded) if m.startswith("scipy")],
               "new": top(set(sys.modules) - loaded)}, fh)
"""
INTERIOR = ["--problem", "interior:c=1,d=1"]
# runs that reach every charge rule: the ball's closed forms, the Kelvin
# image of a pole off the ball's center, the star rings, the interior
# oblate's dilated rings, the focal segment of (2,1,1), the disk of (3,2,1)
PROBE_RUNS = [
    ["report", "--domain", "sphere:1"],
    ["report", "--domain", "sphere:1", *INTERIOR],
    ["check", "--domain", "@star.json"],
    ["solve", "--domain", "@off-center.json", *INTERIOR],
    ["solve", "--domain", "ellipsoid:1,1,0.5", *INTERIOR],
    ["capacity", "--domain", "ellipsoid:2,1,1"],
    ["capacity", "--domain", "@off-center-ell.json"],
    ["capacity", "--domain", "ellipsoid:3,2,1"],
]


def test_cli_runs_on_numpy_alone_and_imports_nothing_late(tmp_path):
    # capsym needs no scipy, and a run imports no numpy module after start-up
    # (numpy.random is imported by criteria, not at the certificate's draw)
    import os
    import subprocess
    import sys

    import capsym
    src = os.path.dirname(os.path.dirname(capsym.__file__))
    for name, domain in [
            ("star", BENCH_STAR),
            ("off-center", {**BALL_DOMAIN, "center": [0.5, 0, 0]}),
            ("off-center-ell", {"kind": "ellipsoid", "axes": [2, 1, 1],
                                "center": [1.5, 0, 0]})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(domain))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", IMPORT_PROBE,
                    json.dumps(PROBE_RUNS)], cwd=tmp_path, env=env,
                   check=True, stdout=subprocess.DEVNULL)
    modules = json.loads((tmp_path / "modules.json").read_text())
    assert modules == {"scipy": [], "new": []}
