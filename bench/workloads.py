"""The four benchmark workloads: their configs, CLI calls and output checks.

Each workload is one pass of capsym CLI subcommands, run in one process.
An operation is one subcommand call.  The domains are fixed; the seed goes
into the config ``seed`` (the certificate's and the Bochner check's sample
points) and into the checks' own oracle points.
"""

from __future__ import annotations

import json
import os

import checks

STAR_DOMAIN = {"kind": "star", "mean_radius": 1.0,
               "terms": [[2, 0, 0.1], [3, 1, 0.05]]}
# C1.2-global (191 s on the star) and the coarea identities (about 110 s)
# would make one pass several minutes long; the two ball reports cover them.
STAR_CRITERIA = ["T1.1-integral", "C1.3-capacity", "C1.4-pointwise",
                 "T1.5-neumann", "T1.9-two-boundary"]
STAR_SOLVE_ORDERS = (32, 40, 48)
UNIT_BALL = {"kind": "sphere", "radius": 1.0}

NAMES = ("ball-report", "interior-report", "star-check", "star-solve")


def configs(name, seed):
    """Config file stem -> config data."""
    if name == "ball-report":
        return {"ball": {"domain": UNIT_BALL, "seed": seed}}
    if name == "interior-report":
        return {"interior": {"domain": UNIT_BALL, "seed": seed,
                             "problem": {"kind": "interior", "c": 1.0, "d": 1.0}}}
    if name == "star-check":
        return {"star": {"domain": STAR_DOMAIN, "criteria": STAR_CRITERIA,
                         "seed": seed}}
    if name == "star-solve":
        return {f"star{o}": {"domain": STAR_DOMAIN, "solver": {"order": o},
                             "seed": seed} for o in STAR_SOLVE_ORDERS}
    raise ValueError(f"unknown workload {name!r}")


def write_configs(name, seed, directory):
    """Write the configs; returns the path of the first one."""
    paths = []
    for stem, data in configs(name, seed).items():
        path = os.path.join(directory, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=1)
        paths.append(path)
    return paths[0]


def plan(name, cfg_dir, pass_dir):
    """The CLI calls of one pass, plus the solution files the worker uses:
    ``level_solution`` for the level misfit, ``roundtrip`` to reload."""
    def cfg(stem):
        return os.path.join(cfg_dir, f"{stem}.json")

    sol = os.path.join(pass_dir, "solution.json")
    if name in ("ball-report", "interior-report"):
        stem = "ball" if name == "ball-report" else "interior"
        return {"ops": [["report", "--config", cfg(stem), "--out", pass_dir]],
                "level_solution": sol, "roundtrip": []}
    if name == "star-check":
        return {"ops": [["solve", "--config", cfg("star"), "--out", pass_dir],
                        ["check", "--config", cfg("star"), "--solution", sol,
                         "--out", pass_dir]],
                "level_solution": sol, "roundtrip": []}
    ops, roundtrip = [], []
    for o in STAR_SOLVE_ORDERS:
        out = os.path.join(pass_dir, f"order{o}")
        sol = os.path.join(out, "solution.json")
        ops += [["solve", "--config", cfg(f"star{o}"), "--out", out],
                ["decay", "--config", cfg(f"star{o}"), "--solution", sol,
                 "--out", out]]
        roundtrip.append(sol)
    return {"ops": ops, "level_solution": None, "roundtrip": roundtrip}


def output_dirs(name, pass_dir):
    if name == "star-solve":
        return [os.path.join(pass_dir, f"order{o}") for o in STAR_SOLVE_ORDERS]
    return [pass_dir]


def run_checks(name, pass_dir, seed, worker_result):
    """All output checks of one pass."""
    outs = [checks.load_outputs(d) for d in output_dirs(name, pass_dir)]
    if name == "ball-report":
        return checks.ball_report_checks(outs[0], seed)
    if name == "interior-report":
        return checks.interior_report_checks(outs[0], seed)
    if name == "star-check":
        return checks.star_check_checks(outs[0])
    return checks.star_solve_checks(outs, worker_result["roundtrip"])
