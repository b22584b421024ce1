"""Batch front-end: solve -> extract -> check pipelines driven by a JSON
config, with JSON/CSV reports.

Subcommands: solve, check, identities, capacity, decay, report.  Exit code 0
means the run completed; criterion verdicts live in the reports, not the
exit code.  Reports are written deterministically (sorted keys, repr floats,
no timestamps), so identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import criteria as crit
from .errors import CapsymError
from .geometry import DomainSpec, build_quadrature
from .harmonic import (DEFAULT_ORDER, HarmonicSolution, SolverOptions,
                       decay_report, solve_exterior, solve_interior)
from .identities import WeightSpec, bochner_residual, weighted_identity_check
from .levelset import extract_level_set


class ConfigError(CapsymError):
    pass


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

class RunConfig:
    """Validated view of the JSON run configuration."""

    def __init__(self, data, refine=0):
        try:
            self.domain = DomainSpec.from_json_dict(data["domain"])
        except KeyError:
            raise ConfigError("config needs a 'domain' entry")
        problem = data.get("problem", {"kind": "exterior", "c": 1.0})
        self.problem_kind = problem.get("kind", "exterior")
        if self.problem_kind not in ("exterior", "interior"):
            raise ConfigError(f"unknown problem kind {self.problem_kind!r}")
        self.c = float(problem.get("c", 1.0))
        self.d = float(problem.get("d", 1.0)) if self.problem_kind == "interior" else None
        if self.c <= 0:
            raise ConfigError("boundary value c must be positive")
        if self.problem_kind == "interior" and self.d <= 0:
            raise ConfigError("flux density d must be positive")

        solver = dict(data.get("solver", {}))
        order = solver.get("order")
        if order is None and refine:
            order = DEFAULT_ORDER[self.domain.kind]
        if order is not None:
            order = int(order) + 8 * refine
        self.solver = SolverOptions(
            order=order,
            source_order=solver.get("source_order"),
            source_factor=float(solver.get("source_factor", 0.35)),
            rcond=float(solver.get("rcond", 1e-12)),
            tolerance=solver.get("tolerance"),
        )
        self.refine = refine
        self.levels = [float(v) for v in data.get("levels", [])]
        for lv in self.levels:
            lo, hi = (0.0, self.c) if self.problem_kind == "exterior" \
                else (self.c, math.inf)
            if not lo < lv <= hi:
                raise ConfigError(
                    f"level {lv} outside the range of u for the "
                    f"{self.problem_kind} problem")
        compatible = (crit.EXTERIOR_CRITERIA if self.problem_kind == "exterior"
                      else crit.INTERIOR_CRITERIA)
        self.criteria = data.get("criteria")
        if self.criteria is not None:
            for cid in self.criteria:
                if cid not in crit.CRITERION_IDS:
                    raise ConfigError(f"unknown criterion id {cid!r}")
                if cid not in compatible:
                    raise ConfigError(
                        f"criterion {cid} is incompatible with the "
                        f"{self.problem_kind} problem")
        self.identity_checks = []
        for entry in data.get("identities", []):
            kind = entry.get("weight", "linear")
            if kind == "linear":
                weight = WeightSpec.linear()
            elif kind in ("shifted-log", "shifted_log"):
                weight = WeightSpec.shifted_log(float(entry["t"]))
            else:
                raise ConfigError(f"unknown identity weight {kind!r}")
            a = float(entry["a"])
            b = float(entry["b"])
            if not a < b:
                raise ConfigError("identity check needs a < b")
            if weight.kind == "shifted-log" and b >= math.log(weight.t):
                raise ConfigError(
                    f"shifted-log weight needs t > e^b = {math.exp(b):.6g}")
            levels = int(entry.get("levels", 16)) * (2 ** refine)
            self.identity_checks.append((weight, a, b, levels))
        self.seed = int(data.get("seed", 0))

    @classmethod
    def from_path(cls, path, refine=0):
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh), refine=refine)

    def solve(self):
        if self.problem_kind == "exterior":
            return solve_exterior(self.domain, c=self.c, opts=self.solver)
        return solve_interior(self.domain, c=self.c, d=self.d, opts=self.solver)


def _parse_domain_shorthand(text):
    kind, _, rest = text.partition(":")
    if kind == "sphere":
        return DomainSpec(kind="sphere", radius=float(rest or 1.0))
    if kind == "ellipsoid":
        axes = tuple(float(v) for v in rest.split(","))
        return DomainSpec(kind="ellipsoid", axes=axes)
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return DomainSpec.from_json_dict(json.load(fh))
    raise ConfigError(f"cannot parse domain shorthand {text!r} "
                      "(use sphere:R, ellipsoid:A,B,C, or @file.json)")


def _parse_problem_shorthand(text):
    kind, _, rest = text.partition(":")
    params = {}
    for piece in filter(None, rest.split(",")):
        key, _, val = piece.partition("=")
        params[key] = float(val)
    if kind not in ("exterior", "interior"):
        raise ConfigError(f"unknown problem kind {kind!r}")
    return {"kind": kind, **params}


def _config_from_args(args):
    if args.config:
        return RunConfig.from_path(args.config, refine=args.refine)
    if getattr(args, "domain", None):
        data = {"domain": _parse_domain_shorthand(args.domain).to_json_dict()}
        if getattr(args, "problem", None):
            data["problem"] = _parse_problem_shorthand(args.problem)
        return RunConfig(data, refine=args.refine)
    raise ConfigError("either --config or --domain is required")


# ---------------------------------------------------------------------------
# deterministic output helpers
# ---------------------------------------------------------------------------

def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args):
    config = _config_from_args(args)
    sol = config.solve()
    path = _out_path(args, "solution.json")
    sol.save(path)
    print(f"solved {config.problem_kind} problem on {config.domain.kind}: "
          f"fitResidual {sol.fit_residual:.6e} -> {path}")
    return 0


def _load_solution(args, config):
    if args.solution:
        return HarmonicSolution.load(args.solution)
    return config.solve()


def cmd_check(args):
    config = _config_from_args(args)
    sol = _load_solution(args, config)
    reports = crit.run_battery(sol, criteria=config.criteria,
                               levels=config.levels or None)
    certificate = crit.symmetry_certificate(
        sol, levels=config.levels or None, seed=config.seed)
    payload = {
        "problem": config.problem_kind,
        "domain": config.domain.to_json_dict(),
        "fitResidual": sol.fit_residual,
        "criteria": [r.to_json_dict() if hasattr(r, "to_json_dict") else r
                     for r in reports],
        "certificate": certificate.to_json_dict(),
    }
    path = _out_path(args, "criteria.json")
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
    return 0


def cmd_identities(args):
    config = _config_from_args(args)
    sol = _load_solution(args, config)
    checks = config.identity_checks
    if not checks:
        if config.problem_kind == "exterior":
            a, b = math.log(0.25 * config.c), math.log(0.75 * config.c)
        else:
            a, b = math.log(1.5 * config.c), math.log(3.0 * config.c)
        checks = [(WeightSpec.linear(), a, b, 16 * 2 ** args.refine)]
    rows = []
    results = []
    for weight, a, b, levels in checks:
        res = weighted_identity_check(sol, weight, a, b, levels=levels)
        results.append({
            "weight": weight.kind,
            "t": None if math.isinf(weight.t) else weight.t,
            "a": a, "b": b, "levels": levels,
            **res.to_json_dict(),
        })
        for name, value in sorted(res.rhs_terms.items()):
            rows.append([weight.kind, repr(a), repr(b), name, repr(value)])
    # pointwise Bochner residuals at deterministic sample points
    pts = crit.sample_region_points(sol, count=20, seed=config.seed)
    states = sol.field(pts, want="hess", check_region=False)
    boch = [bochner_residual(states[i]) for i in range(len(pts))]
    payload = {
        "identityChecks": results,
        "bochnerMaxResidual": max(boch),
        "bochnerSampleCount": len(boch),
    }
    path = _out_path(args, "identities.json")
    _write_json(path, payload)
    csv_path = _out_path(args, "identity_terms.csv")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["weight", "a", "b", "term", "value"])
        writer.writerows(rows)
    for res in results:
        print(f"identity [{res['weight']}] a={res['a']:.4g} b={res['b']:.4g}: "
              f"lhs {res['lhs']:.6e} rhs {res['rhs']:.6e} "
              f"rel {res['relResidual']:.3e}")
    print(f"bochner max residual over {len(boch)} points: {max(boch):.3e}")
    print(f"reports -> {path}, {csv_path}")
    return 0


def cmd_capacity(args):
    config = _config_from_args(args)
    sol = _load_solution(args, config)
    if config.problem_kind != "exterior":
        raise ConfigError("capacity requires an exterior problem")
    level = args.level if args.level is not None else 0.5 * config.c
    cap = float(crit.capacity(sol, level=level))
    payload = {
        "capacity": cap,
        "level": level,
        "inferredBallRadius": float(crit.inferred_ball_radius(cap)),
    }
    path = _out_path(args, "capacity.json")
    _write_json(path, payload)
    print(f"capacity {cap!r} (inferred ball radius "
          f"{payload['inferredBallRadius']!r}) -> {path}")
    return 0


def cmd_decay(args):
    config = _config_from_args(args)
    sol = _load_solution(args, config)
    lo, hi, count = args.radii
    radii = np.geomspace(lo, hi, int(count))
    report = decay_report(sol, radii)
    payload = {
        "fittedExponent": report.fitted_exponent,
        "gradientExponent": report.gradient_exponent,
        "hessianExponent": report.hessian_exponent,
        "sampleRadii": list(report.sample_radii),
    }
    path = _out_path(args, "decay.json")
    _write_json(path, payload)
    print(f"decay exponents: u {report.fitted_exponent:.6f}, "
          f"|Du| {report.gradient_exponent:.6f}, "
          f"|D2u| {report.hessian_exponent:.6f} -> {path}")
    return 0


def cmd_report(args):
    rc = cmd_solve(args)
    args.solution = os.path.join(args.out, "solution.json")
    rc |= cmd_check(args)
    rc |= cmd_identities(args)
    config = _config_from_args(args)
    if config.problem_kind == "exterior":
        rc |= cmd_capacity(args)
        r_hi = config.domain.bounding_radii()[1]
        if args.radii is None:
            args.radii = (max(10.0, 3 * r_hi), max(100.0, 30 * r_hi), 8)
        rc |= cmd_decay(args)
    return rc


def _radii_triple(text):
    lo, hi, count = text.split(":")
    return float(lo), float(hi), int(count)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="capsym",
        description="Potential solves, capacity, conformal identities, and "
                    "symmetry criteria on smooth domains")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--domain", help="shorthand: sphere:R | ellipsoid:A,B,C"
                                         " | @domain.json")
    common.add_argument("--problem", help="shorthand: exterior:c=1 | "
                                          "interior:c=1,d=1")
    common.add_argument("--solution", help="reuse a saved solution.json")
    common.add_argument("--out", default="capsym-out", help="output directory")
    common.add_argument("--refine", type=int, default=0,
                        help="refinement level: bumps orders and level counts")
    sub.add_parser("solve", parents=[common]).set_defaults(func=cmd_solve)
    sub.add_parser("check", parents=[common]).set_defaults(func=cmd_check)
    sub.add_parser("identities", parents=[common]).set_defaults(func=cmd_identities)
    cap = sub.add_parser("capacity", parents=[common])
    cap.add_argument("--level", type=float, default=None)
    cap.set_defaults(func=cmd_capacity)
    dec = sub.add_parser("decay", parents=[common])
    dec.add_argument("--radii", type=_radii_triple, default=(10.0, 100.0, 8),
                     help="lo:hi:count geometric radii")
    dec.set_defaults(func=cmd_decay)
    rep = sub.add_parser("report", parents=[common])
    rep.add_argument("--level", type=float, default=None)
    rep.add_argument("--radii", type=_radii_triple, default=None)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapsymError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
