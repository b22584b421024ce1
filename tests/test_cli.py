import json
import math

import numpy as np
import pytest

from capsym.cli import main


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


BALL_CONFIG = {
    "domain": {"kind": "sphere", "radius": 1.0},
    "problem": {"kind": "exterior", "c": 1.0},
    "levels": [0.25, 0.5, 0.75],
    "identities": [{"weight": "linear", "a": math.log(0.25),
                    "b": math.log(0.75), "levels": 8}],
}


def test_solve_writes_solution(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", BALL_CONFIG)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert data["problem"] == "exterior"
    assert data["fitResidual"] < 1e-9
    assert "fitResidual" in capsys.readouterr().out


def test_refine_raises_default_order(tmp_path):
    rc = main(["solve", "--domain", "sphere:1", "--refine", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    data = json.loads((tmp_path / "out" / "solution.json").read_text())
    assert data["order"] == 24


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
        "domain": {"kind": "sphere", "radius": 1.0},
        "problem": {"kind": "interior", "c": 1.0, "d": -1.0},
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc != 0
    assert "d must be positive" in capsys.readouterr().err


def test_levels_validated_against_problem(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {
        "domain": {"kind": "sphere", "radius": 1.0},
        "problem": {"kind": "exterior", "c": 1.0},
        "levels": [1.5],
    })
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc != 0


def test_interior_criteria_rejected_for_exterior_run(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {
        "domain": {"kind": "sphere", "radius": 1.0},
        "problem": {"kind": "exterior", "c": 1.0},
        "criteria": ["T1.6-interior-integral"],
    })
    rc = main(["check", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc != 0
    assert "incompatible" in capsys.readouterr().err


def test_shifted_log_t_guard(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.json", {
        "domain": {"kind": "sphere", "radius": 1.0},
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


def test_check_empty_criteria_certificate_only(tmp_path):
    cfg = write_config(tmp_path / "run.json", {
        "domain": {"kind": "sphere", "radius": 1.0},
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
