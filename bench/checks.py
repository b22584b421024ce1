"""Output checks for the benchmark workloads.

Every check compares a program output with a computation made here, apart
from capsym, or with a property the method must have: the closed-form
potential of the ball, Gauss's law (the capacity equals 4 pi times the sum
of the MFS charges), monotonicity of capacity under inclusion, the boundary
misfit on an independent check grid of order + 8 (Barnett & Betcke, J.
Comput. Phys. 227 (2008)), the far-field decay rates of a harmonic function.
No check compares with a stored copy of earlier output.

Only numpy and scipy are used here: the potential is summed directly from
the sources and charges in ``solution.json`` and the star boundary is built
from its spherical-harmonic terms.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import sph_harm_y

FOUR_PI = 4.0 * math.pi

Check = namedtuple("Check", "op name ok detail")


def load_outputs(directory):
    """Parse every ``*.json`` report in ``directory`` keyed by file stem."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                out[name[:-5]] = json.load(fh)
    return out


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def potential(solution, points, chunk=1024):
    """u at ``points`` from the charges and sources of a solution dict."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    src = np.asarray(solution["sources"], dtype=float)
    q = np.asarray(solution["charges"], dtype=float)
    u = np.empty(len(pts))
    for k in range(0, len(pts), chunk):
        d = pts[k:k + chunk, None, :] - src[None, :, :]
        u[k:k + chunk] = (1.0 / np.sqrt(np.sum(d * d, axis=-1))) @ q
    s0 = solution.get("singularCoefficient", 0.0)
    if s0:
        u += s0 / np.linalg.norm(pts, axis=1)
    return u


def gauss_capacity(solution):
    """4 pi times the total charge: the flux of u through any enclosing surface."""
    return FOUR_PI * float(np.sum(solution["charges"]))


def _real_harmonic(l, m, theta, phi):
    y = sph_harm_y(l, abs(m), theta, phi)
    if m > 0:
        return math.sqrt(2.0) * y.real
    if m < 0:
        return math.sqrt(2.0) * y.imag
    return y.real


def boundary_radius(domain, theta, phi):
    """Radial graph of a sphere or star domain about its centre."""
    if domain["kind"] == "sphere":
        return np.full(np.shape(theta), float(domain["radius"]))
    if domain["kind"] != "star":
        raise ValueError(f"no boundary oracle for {domain['kind']!r} domains")
    rho = np.full(np.shape(theta), float(domain["mean_radius"]))
    for l, m, coef in domain["terms"]:
        rho = rho + coef * _real_harmonic(int(l), int(m), theta, phi)
    return rho


def boundary_grid(domain, order):
    """Boundary points on a Gauss-Legendre x trapezoid grid of ``order``."""
    x, _ = leggauss(order)
    theta, phi = np.meshgrid(np.arccos(x), np.pi * np.arange(2 * order) / order,
                             indexing="ij")
    theta, phi = theta.ravel(), phi.ravel()
    omega = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                      np.cos(theta)], axis=-1)
    rho = boundary_radius(domain, theta, phi)
    return np.asarray(domain.get("center", (0.0, 0.0, 0.0))) + rho[:, None] * omega


def check_grid_misfit(solution):
    """max |u - c|/c on a boundary grid of the solve order + 8."""
    pts = boundary_grid(solution["domain"], int(solution["order"]) + 8)
    c = float(solution["c"])
    return float(np.max(np.abs(potential(solution, pts) - c)) / c)


def radius_range(domain, order=96):
    """(min, max) of the boundary radius, sampled on a fine grid."""
    r = np.linalg.norm(boundary_grid(domain, order), axis=1)
    return float(r.min()), float(r.max())


def level_misfit(solution, levels):
    """max |u(node) - c|/c over extracted level sets [(c, nodes), ...]."""
    worst = 0.0
    for c, nodes in levels:
        u = potential(solution, nodes)
        worst = max(worst, float(np.max(np.abs(u - c)) / c))
    return worst


def seeded_points(seed, count, r_lo, r_hi):
    """Points with uniform directions and radii uniform in [r_lo, r_hi]."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = rng.uniform(r_lo, r_hi, count)
    return dirs * r[:, None], r


# ---------------------------------------------------------------------------
# helpers on report payloads
# ---------------------------------------------------------------------------

def rows_by_id(criteria):
    return {row["criterionId"]: row for row in criteria["criteria"]}


def witness(row, name):
    for w in row.get("witnesses", []):
        if w["name"] == name:
            return w["value"]
    return None


def _satisfied_with_equality(row):
    return ("error" not in row and row["verdict"] == "satisfied"
            and witness(row, "equality") is True)


def _error_rows(criteria):
    return [row["criterionId"] for row in criteria["criteria"] if "error" in row]


def identity_residual(identities):
    """Largest |lhs - rhs| / scale over the weighted identity checks."""
    return max(abs(r["lhs"] - r["rhs"]) / r["scale"]
               for r in identities["identityChecks"])


def _identity_ok(identities, rel):
    worst = identity_residual(identities)
    return worst <= rel, f"max |lhs - rhs|/scale = {worst:.3e} (limit {rel:g})"


def _decay_ok(decay, tol=1e-3):
    got = (decay["fittedExponent"], decay["gradientExponent"],
           decay["hessianExponent"])
    ok = all(abs(g - e) <= tol for g, e in zip(got, (-1.0, -2.0, -3.0)))
    return ok, f"exponents {got} against (-1, -2, -3) to {tol:g}"


# ---------------------------------------------------------------------------
# per-workload checks; op is the index of the CLI call a check belongs to
# ---------------------------------------------------------------------------

def ball_report_checks(out, seed):
    """Unit ball, exterior problem: every output has a closed form."""
    sol, crit = out["solution"], out["criteria"]
    pts, r = seeded_points(seed, 64, 1.0, 10.0)
    err = float(np.max(np.abs(potential(sol, pts) * r - 1.0)))
    cap = out["capacity"]["capacity"]
    radius = out["capacity"]["inferredBallRadius"]
    rows = rows_by_id(crit)
    c12 = rows.get("C1.2-global", {}).get("lhs", math.nan)
    not_equal = [cid for cid, row in rows.items() if not _satisfied_with_equality(row)]
    return [
        Check(0, "u_is_1_over_r", err <= 1e-8, f"max |u r - 1| = {err:.3e}"),
        Check(0, "capacity_4pi", abs(cap / FOUR_PI - 1.0) <= 1e-6,
              f"capacity {cap!r}"),
        Check(0, "inferred_radius_1", abs(radius - 1.0) <= 1e-6,
              f"inferred radius {radius!r}"),
        Check(0, "c12_ratio_4", abs(c12 - 4.0) <= 1e-4, f"C1.2 ratio {c12!r}"),
        Check(0, "rows_satisfied_with_equality",
              len(rows) == 6 and not not_equal,
              f"{len(rows)} rows, not satisfied with equality: {not_equal}"),
        Check(0, "certificate_granted", crit["certificate"]["granted"] is True,
              f"failing metric {crit['certificate']['failingMetric']}"),
        Check(0, "decay_exponents", *_decay_ok(out["decay"])),
        Check(0, "identity_residual", *_identity_ok(out["identities"], 1e-6)),
    ]


def interior_report_checks(out, seed, c=1.0, d=1.0, r0=1.0):
    """Unit ball, interior problem: u = d r0^2/r + c - d r0 in closed form."""
    sol, crit = out["solution"], out["criteria"]
    pts, r = seeded_points(seed, 64, 0.05 * r0, 0.95 * r0)
    exact = d * r0 ** 2 / r + c - d * r0
    err = float(np.max(np.abs(potential(sol, pts) / exact - 1.0)))
    rows = rows_by_id(crit)
    want = ("T1.6-interior-integral", "C1.7-interior-pointwise",
            "T1.8-interior-neumann")
    not_equal = [cid for cid in want
                 if cid not in rows or not _satisfied_with_equality(rows[cid])]
    c2 = witness(rows.get("T1.6-interior-integral", {}), "c2")
    c2 = math.nan if c2 is None else c2
    return [
        Check(0, "u_is_radial", err <= 1e-8, f"max relative error {err:.3e}"),
        Check(0, "t16_c17_t18_equality", not not_equal,
              f"not satisfied with equality: {not_equal}"),
        Check(0, "c2_is_1", abs(c2 - 1.0) <= 1e-9, f"c2 {c2!r}"),
        Check(0, "no_error_rows", not _error_rows(crit),
              f"error rows {_error_rows(crit)}"),
        Check(0, "certificate_granted", crit["certificate"]["granted"] is True,
              f"failing metric {crit['certificate']['failingMetric']}"),
        Check(0, "identity_residual", *_identity_ok(out["identities"], 1e-6)),
    ]


def star_check_checks(out):
    """Star graph: op 0 is the solve, op 1 the criteria check."""
    sol, crit = out["solution"], out["criteria"]
    misfit = check_grid_misfit(sol)
    gauss = gauss_capacity(sol)
    cap = witness(rows_by_id(crit).get("C1.3-capacity", {}), "capacity")
    cap = math.nan if cap is None else cap
    cert = crit["certificate"]
    cert_cap = FOUR_PI * (cert["inferredRadius"] or math.nan)
    gap = max(abs(cap - gauss), abs(cert_cap - gauss)) / gauss
    r_min, r_max = radius_range(sol["domain"])
    return [
        Check(0, "fit_residual", sol["fitResidual"] <= 1e-7,
              f"fit residual {sol['fitResidual']:.3e}"),
        Check(0, "check_grid_misfit", misfit <= 1e-7, f"misfit {misfit:.3e}"),
        Check(1, "no_error_rows", not _error_rows(crit),
              f"error rows {_error_rows(crit)}"),
        Check(1, "certificate_denied", cert["granted"] is False,
              "only the ball is rigid"),
        Check(1, "gauss_law", gap <= 1e-6,
              f"level-set capacity {cap!r}, from certificate {cert_cap!r}, "
              f"4 pi sum q {gauss!r}"),
        Check(1, "capacity_between_balls",
              FOUR_PI * r_min <= cap <= FOUR_PI * r_max,
              f"capacity {cap!r} against [{FOUR_PI * r_min!r}, "
              f"{FOUR_PI * r_max!r}]"),
    ]


def star_solve_checks(outs, roundtrips):
    """Star solves at rising orders: ops alternate solve, decay per order.

    ``outs`` holds the parsed reports of each order, ``roundtrips`` whether
    the reloaded solution saved again byte for byte.
    """
    checks = []
    gauss = [gauss_capacity(out["solution"]) for out in outs]
    mid = float(np.median(gauss))
    for k, out in enumerate(outs):
        sol = out["solution"]
        misfit = check_grid_misfit(sol)
        rel = abs(gauss[k] - mid) / mid
        checks += [
            Check(2 * k, "fit_residual", sol["fitResidual"] <= 1e-7,
                  f"order {sol['order']} fit residual {sol['fitResidual']:.3e}"),
            Check(2 * k, "check_grid_misfit", misfit <= 1e-7,
                  f"order {sol['order']} misfit {misfit:.3e}"),
            Check(2 * k, "gauss_agrees_across_orders", rel <= 1e-8,
                  f"order {sol['order']} 4 pi sum q {gauss[k]!r}, median {mid!r}"),
            Check(2 * k + 1, "decay_exponents", *_decay_ok(out["decay"])),
            Check(2 * k + 1, "reload_is_exact", roundtrips[k] is True,
                  f"order {sol['order']} solution.json round trip"),
        ]
    return checks
