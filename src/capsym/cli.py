"""Batch front-end: each run builds one RunConfig and one HarmonicSolution,
loaded from ``--solution`` or else solved, and runs the stages of its
subcommand on that pair.  The solve is set by the config's domain, problem
and ``solver.order``, the only solver key (unset: the per-kind default).
A loaded solution must have the config's problem kind, c, d and domain
(its order may differ), else a ConfigError names the field that differs.
The stages are solve (solution.json), check (criteria.json), identities
(identities.json, identity_terms.csv), and, for exterior problems only,
capacity and decay (capacity.json, decay.json); report runs them all in that
order.  They share the solution and so its level-set cache: no level set is
solved twice.  A level outside the range of u (config ``levels``,
``identities``, ``--level``) or an interior config asking for capacity or
decay fails before anything is solved or loaded.  Unset levels come from
``criteria.DEFAULT_LEVELS`` (low, middle, high): the battery runs on the
middle one and T1.9 on the outer two, the certificate on all three, capacity
on the middle one, and the default identity between the logs of the outer two.

Every JSON object read (config, domain, problem, solver, identity check,
solution) names a missing, unknown or mistyped key, and a number must be a
JSON number, not a string or a bool.  An empty ``criteria`` or ``identities``
list runs none of them; an empty ``levels`` is an error.  Every JSON object
written (the reports and solution.json) goes through one writer,
``geometry._json_value``: its keys are the camelCase names of the fields it
holds (fit_residual -> fitResidual), and the domain keeps its own snake_case
keys (mean_radius, max_degree), the ones it is read with.

Exit code 0 means the run completed; criterion verdicts live in the
reports, not the exit code.  Reports are written deterministically (sorted
keys, repr floats, no timestamps), so identical configs produce
byte-identical output, but only on one machine at one BLAS thread count.
At 2 OpenBLAS threads instead of 1 the bench star's charges differ by
5.4e-7 of the largest, its fitResidual by 8.0e-7 relative and every
errorEstimate by at most 8.0e-7 relative; the identity residuals stay at
roundoff (relResidual 7e-17 and 2e-16), and its verdicts, equality flags,
certificate and node witnesses stay the same.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from functools import lru_cache

import numpy as np

from . import criteria as crit
from .errors import CapsymError, ConfigError
from .geometry import (DomainSpec, _integer, _json_value, _load_json, _number,
                       _read_object)
from .harmonic import (HarmonicSolution, decay_report, solve_exterior,
                       solve_interior)
from .identities import WeightSpec, bochner_sides, weighted_identity_check
from .levelset import check_level_range


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

def _json_list(value):
    """value if it is a JSON list, else TypeError."""
    if not isinstance(value, list):
        raise TypeError(f"not a list: {value!r}")
    return value


# the keys of each JSON object, with the reader of each value (None: as is)
_CONFIG_KEYS = {"domain": None, "problem": None, "solver": None,
                "levels": lambda v: [_number(x) for x in _json_list(v)],
                "criteria": lambda v: tuple(_json_list(v)),
                "identities": _json_list, "seed": _integer}
_PROBLEM_KEYS = {"kind": None, "c": _number, "d": _number}
_SOLVER_KEYS = {"order": _integer}
_IDENTITY_KEYS = {"weight": None, "t": _number, "a": _number, "b": _number}


class RunConfig:
    """Validated view of the JSON run configuration, read by the rule in the
    module docstring, so that a misspelt key cannot leave a default in place.
    """

    def __init__(self, data):
        data = _read_object(data, "config", _CONFIG_KEYS, ("domain",))
        self.domain = DomainSpec.from_json_dict(data["domain"])
        problem = _read_object(data.get("problem", {}), "problem", _PROBLEM_KEYS)
        self.problem_kind = problem.get("kind", "exterior")
        if self.problem_kind not in ("exterior", "interior"):
            raise ConfigError(f"unknown problem kind {self.problem_kind!r}")
        if self.problem_kind == "exterior" and "d" in problem:
            raise ConfigError("'d' in problem is for the interior problem only")
        self.c = problem.get("c", 1.0)
        self.d = problem.get("d", 1.0) if self.problem_kind == "interior" else None
        if not 0 < self.c < math.inf:
            raise ConfigError("boundary value c must be positive and finite")
        if self.problem_kind == "interior" and not 0 < self.d < math.inf:
            raise ConfigError("flux density d must be positive and finite")

        solver = _read_object(data.get("solver", {}), "solver", _SOLVER_KEYS)
        self.order = solver.get("order")
        self.levels = data.get("levels")
        if self.levels == []:
            raise ConfigError("'levels' in config must not be empty")
        check_level_range(self.problem_kind, self.c, self.levels or ())
        for i, level in enumerate(self.levels or ()):
            if level in self.levels[:i]:
                raise ConfigError(f"level {level} is repeated in levels")
        self.criteria = data.get("criteria")
        try:
            crit.select_criteria(self.problem_kind, self.criteria)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        entries = data.get("identities")
        if entries is None:
            lo, _, hi = crit.default_levels(self.problem_kind, self.c)
            entries = [{"a": math.log(lo), "b": math.log(hi)}]
        self.identity_checks = []
        for entry in entries:
            kind = isinstance(entry, dict) and entry.get("weight", "linear")
            required = ("a", "b", "t") if kind == "shifted-log" else ("a", "b")
            entry = _read_object(entry, "identity check", _IDENTITY_KEYS,
                                 required)
            for key in ("t", "a", "b"):
                if key in entry and not math.isfinite(entry[key]):
                    raise ConfigError(f"{key!r} in identity check must be "
                                      f"finite: {entry[key]}")
            try:
                if kind == "linear":
                    weight = WeightSpec.linear()
                elif kind == "shifted-log":
                    weight = WeightSpec.shifted_log(entry["t"])
                else:
                    raise ConfigError(f"unknown identity weight {kind!r}")
                a, b = entry["a"], entry["b"]
                if not a < b:
                    raise ConfigError("identity check needs a < b")
                weight.validate_range(b)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
            with np.errstate(over="ignore"):  # a huge a or b is the level inf
                check_level_range(self.problem_kind, self.c, np.exp([a, b]))
            self.identity_checks.append((weight, a, b))
        self.seed = data.get("seed", 0)
        if self.seed < 0:
            raise ConfigError(f"'seed' in config must be non-negative: "
                              f"{self.seed}")

    @classmethod
    def from_path(cls, path):
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        return cls(_load_json(path))

    def solve(self):
        if self.problem_kind == "exterior":
            return solve_exterior(self.domain, c=self.c, order=self.order)
        return solve_interior(self.domain, c=self.c, d=self.d, order=self.order)


def _shorthand_number(flag, key, text):
    """text as a float, else a ConfigError naming the flag and the key."""
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key!r} in {flag} is not a number: "
                          f"{text!r}") from None


def _parse_domain_shorthand(text):
    kind, _, rest = text.partition(":")
    if kind == "sphere":
        return {"kind": "sphere",
                "radius": _shorthand_number("--domain", "radius", rest or 1.0)}
    if kind == "ellipsoid":
        return {"kind": "ellipsoid",
                "axes": [_shorthand_number("--domain", "axes", v)
                         for v in rest.split(",")]}
    if text.startswith("@"):
        return _load_json(text[1:])
    raise ConfigError(f"cannot parse domain shorthand {text!r} "
                      "(use sphere:R, ellipsoid:A,B,C, or @file.json)")


def _parse_problem_shorthand(text):
    kind, _, rest = text.partition(":")
    problem = {"kind": kind}
    for piece in filter(None, rest.split(",")):
        key, _, val = piece.partition("=")
        if key in problem:
            raise ConfigError(f"{key!r} is repeated in --problem")
        problem[key] = _shorthand_number("--problem", key, val)
    return problem


def _config_from_args(args):
    if args.config:
        return RunConfig.from_path(args.config)
    if args.domain:
        data = {"domain": _parse_domain_shorthand(args.domain)}
        if args.problem:
            data["problem"] = _parse_problem_shorthand(args.problem)
        return RunConfig(data)
    raise ConfigError("either --config or --domain is required")


def _load_matching(config, path):
    """The solution saved at path, which must solve the config's problem."""
    sol = HarmonicSolution.load(path)
    for name, want, got in (
            ("problem", config.problem_kind, sol.problem),
            ("c", config.c, sol.c), ("d", config.d, sol.d),
            ("domain", config.domain.to_json_dict(), sol.domain.to_json_dict())):
        if got != want:
            raise ConfigError(f"solution {path} does not match the config: "
                              f"{name} is {got!r} in the solution, "
                              f"{want!r} in the config")
    return sol


# ---------------------------------------------------------------------------
# stages: each takes (args, config, sol), writes its reports and prints a
# summary; failures raise
# ---------------------------------------------------------------------------

def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_value(payload), fh, sort_keys=True, indent=1)
        fh.write("\n")


def _solve_stage(args, config, sol):
    path = os.path.join(args.out, "solution.json")
    sol.save(path)
    print(f"{'loaded' if args.solution else 'solved'} {config.problem_kind} "
          f"problem on {config.domain.kind}: fitResidual "
          f"{sol.fit_residual:.6e} checkMisfit {sol.check_misfit:.6e} "
          f"-> {path}")


def _check_stage(args, config, sol):
    reports = crit.run_battery(sol, criteria=config.criteria,
                               levels=config.levels)
    certificate = crit.symmetry_certificate(sol, levels=config.levels,
                                            seed=config.seed)
    payload = {
        "problem": config.problem_kind,
        "domain": config.domain,
        "fitResidual": sol.fit_residual,
        "criteria": reports,
        "certificate": certificate,
    }
    path = os.path.join(args.out, "criteria.json")
    _write_json(path, payload)
    print(f"{'criterion':<26} {'lhs':>13} {'rhs':>13} {'margin':>12} verdict")
    for r in reports:
        if isinstance(r, dict):
            print(f"{r['criterionId']:<26} {'-':>13} {'-':>13} {'-':>12} "
                  f"error: {r['error']}")
            continue
        eq = " (equality)" if r.witnesses.get("equality") else ""
        print(f"{r.criterion_id:<26} {r.lhs:>13.6g} {r.rhs:>13.6g} "
              f"{r.margin:>12.3e} {r.verdict}{eq}")
    print(f"certificate: {'granted' if certificate.granted else 'denied'}"
          + ("" if certificate.granted
             else f" (failing metric: {certificate.failing_metric})"))
    print(f"report -> {path}")


def _identities_stage(args, config, sol):
    rows = []
    results = []
    for weight, a, b in config.identity_checks:
        res = weighted_identity_check(sol, weight, a, b)
        results.append({
            "weight": weight.kind,
            "t": None if math.isinf(weight.t) else weight.t,
            "a": a, "b": b,
            **res.to_json_dict(),
        })
        for name, value in sorted(res.rhs_terms.items()):
            rows.append([weight.kind, repr(a), repr(b), name, repr(value)])
    # pointwise Bochner residuals at deterministic sample points
    pts = crit.sample_region_points(sol, count=20, seed=config.seed)
    states = sol.field(pts, want="hess", check_region=False)
    lhs, rhs = bochner_sides(states.u, states.grad, states.hess)
    boch = float(np.abs(lhs - rhs).max())
    payload = {
        "identityChecks": results,
        "bochnerMaxResidual": boch,
        "bochnerSampleCount": len(pts),
    }
    path = os.path.join(args.out, "identities.json")
    _write_json(path, payload)
    csv_path = os.path.join(args.out, "identity_terms.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weight", "a", "b", "term", "value"])
        writer.writerows(rows)
    for res in results:
        print(f"identity [{res['weight']}] a={res['a']:.4g} b={res['b']:.4g}: "
              f"lhs {res['lhs']:.6e} rhs {res['rhs']:.6e} "
              f"rel {res['relResidual']:.3e}")
    print(f"bochner max residual over {len(pts)} points: {boch:.3e}")
    print(f"reports -> {path}, {csv_path}")


def _capacity_stage(args, config, sol):
    level = (args.level if args.level is not None
             else crit.default_levels(config.problem_kind, config.c)[1])
    cap = float(crit.capacity(sol, level=level))
    payload = {
        "capacity": cap,
        "level": level,
        "inferredBallRadius": float(crit.inferred_ball_radius(cap)),
    }
    path = os.path.join(args.out, "capacity.json")
    _write_json(path, payload)
    print(f"capacity {cap!r} (inferred ball radius "
          f"{payload['inferredBallRadius']!r}) -> {path}")


def _decay_stage(args, config, sol):
    if args.radii is not None:
        lo, hi, count = args.radii
    else:
        r_hi = config.domain.bounding_radii[1]
        lo, hi, count = max(10.0, 3 * r_hi), max(100.0, 30 * r_hi), 8
    report = decay_report(sol, np.geomspace(lo, hi, count))
    path = os.path.join(args.out, "decay.json")
    _write_json(path, report)
    print(f"decay exponents: u {report.fitted_exponent:.6f}, "
          f"|Du| {report.gradient_exponent:.6f}, "
          f"|D2u| {report.hessian_exponent:.6f} -> {path}")


# in the order report runs them
_STAGES = {"solve": _solve_stage, "check": _check_stage,
           "identities": _identities_stage, "capacity": _capacity_stage,
           "decay": _decay_stage}
_EXTERIOR_ONLY = {"capacity", "decay"}


def _radii_triple(text):
    """--radii lo:hi:count, with finite radii 0 < lo < hi and count >= 4."""
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi:count: {text}") from None
    if not 0 < lo < hi < math.inf:
        raise argparse.ArgumentTypeError(
            f"radii must be finite, positive and increasing: {text}")
    if count < 4:
        raise argparse.ArgumentTypeError(
            f"need a count of at least 4 radii: {text}")
    return lo, hi, count


@lru_cache(maxsize=None)
def build_parser():
    """The capsym argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="capsym",
        description="Potential solves, capacity, conformal identities, and "
                    "symmetry criteria on smooth domains")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config",
                        help="JSON run configuration; its solver.order sets "
                             "the solve order (default: per domain kind)")
    common.add_argument("--domain", help="shorthand: sphere:R | ellipsoid:A,B,C"
                                         " | @domain.json")
    common.add_argument("--problem", help="shorthand: exterior:c=1 | "
                                          "interior:c=1,d=1")
    common.add_argument("--solution",
                        help="use this saved solution.json instead of "
                             "solving; its problem, c, d and domain must "
                             "match the config")
    common.add_argument("--out", default="capsym-out", help="output directory")
    for name in ("solve", "check", "identities", "capacity", "decay", "report"):
        cmd = sub.add_parser(name, parents=[common])
        if name in ("capacity", "report"):
            cmd.add_argument("--level", type=float, default=None,
                             help="level of the capacity flux (default c/2)")
        if name in ("decay", "report"):
            cmd.add_argument("--radii", type=_radii_triple, default=None,
                             help="lo:hi:count geometric radii (default: "
                                  "3 and 30 domain radii, at least 10:100:8)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        stages = list(_STAGES) if args.command == "report" else [args.command]
        if config.problem_kind != "exterior":
            if args.command in _EXTERIOR_ONLY:
                raise ConfigError(f"{args.command} is defined for the "
                                  "exterior problem only")
            stages = [s for s in stages if s not in _EXTERIOR_ONLY]
        elif getattr(args, "level", None) is not None:
            check_level_range("exterior", config.c, [args.level])
        sol = (_load_matching(config, args.solution) if args.solution
               else config.solve())
        os.makedirs(args.out, exist_ok=True)
        for name in stages:
            _STAGES[name](args, config, sol)
    except (CapsymError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
