"""Overdetermining symmetry conditions, capacity, and the certificate that
operationalizes the rigidity conclusion (constant P-function, round level
sets, and the pointwise equality H/(n-1) = |Du|/((n-2) u)).

Each check returns a CriterionReport with lhs/rhs oriented so that
margin = rhs - lhs >= 0 means "condition satisfied".  Verdicts come with a
quadrature/solver error estimate: margins below -error report "violated",
anything not worse than -error reports "satisfied" with an equality flag
whenever |margin| <= error, so roundoff near the radial equality cases can
never produce a false violation.  Reports serialize to JSON with the stable
field names criterionId/lhs/rhs/margin/errorEstimate/verdict/witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .conformal import p_function
from .errors import CapsymError, IrregularLevelSetError
from .geometry import build_quadrature, unit_sphere_area
from .identities import interior_flux_cubed_limit
from .levelset import (coarea_volume_integral, extract_level_set,
                       extract_level_sets, require_regular, surface_integral)

_N = 3
_SPHERE_AREA = unit_sphere_area(_N)

CRITERION_IDS = (
    "T1.1-integral",
    "C1.2-global",
    "C1.3-capacity",
    "C1.4-pointwise",
    "T1.5-neumann",
    "T1.6-interior-integral",
    "C1.7-interior-pointwise",
    "T1.8-interior-neumann",
    "T1.9-two-boundary",
)

EXTERIOR_CRITERIA = ("T1.1-integral", "C1.2-global", "C1.3-capacity",
                     "C1.4-pointwise", "T1.5-neumann", "T1.9-two-boundary")
INTERIOR_CRITERIA = ("T1.6-interior-integral", "C1.7-interior-pointwise",
                     "T1.8-interior-neumann", "T1.9-two-boundary")

NEUMANN_SPREAD_THRESHOLD = 1e-6


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of one overdetermining condition."""

    criterion_id: str
    lhs: float
    rhs: float
    margin: float
    error_estimate: float
    verdict: str
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "criterionId": self.criterion_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "errorEstimate": self.error_estimate,
            "verdict": self.verdict,
            "witnesses": [
                {"name": k, "value": _jsonable(v)}
                for k, v in sorted(self.witnesses.items())
            ],
        }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.bool_):
        return bool(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    return v


def _report(criterion_id, lhs, rhs, error, witnesses=None):
    margin = rhs - lhs
    if not np.isfinite(margin):
        verdict = "inconclusive"
    elif margin < -error:
        verdict = "violated"
    else:
        verdict = "satisfied"
    w = dict(witnesses or {})
    w["equality"] = bool(np.isfinite(margin) and abs(margin) <= error)
    return CriterionReport(criterion_id=criterion_id, lhs=float(lhs),
                           rhs=float(rhs), margin=float(margin),
                           error_estimate=float(error), verdict=verdict,
                           witnesses=w)


def _solver_error_floor(sol):
    return max(1e-11, 50.0 * sol.fit_residual)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def capacity(sol, level=None, cross_check=True, order=None):
    """Electrostatic capacity as the level-set flux integral of |Du|.

    The flux is level-independent for an exterior potential; with
    cross_check the value is recomputed on a second level and the relative
    mismatch must stay below 1e-5.
    """
    if sol.problem != "exterior":
        raise ValueError("capacity is defined for the exterior problem")
    c = level if level is not None else 0.5 * sol.c
    ls = require_regular(extract_level_set(sol, c, order=order))
    cap = surface_integral(ls, ls.u_grad)
    if cross_check:
        c2 = 0.5 * c
        ls2 = require_regular(extract_level_set(sol, c2, order=order))
        cap2 = surface_integral(ls2, ls2.u_grad)
        rel = abs(cap - cap2) / max(abs(cap), 1e-300)
        if rel > 1e-5:
            raise IrregularLevelSetError(
                f"capacity flux differs by {rel:.2e} between levels "
                f"{c} and {c2}; the field is not a clean exterior potential",
                level=c2)
    return cap


def inferred_ball_radius(cap, n=3):
    """Radius of the ball with the given capacity: (Cap/((n-2)|S^{n-1}|))^(1/(n-2))."""
    return (cap / ((n - 2) * unit_sphere_area(n))) ** (1.0 / (n - 2))


# ---------------------------------------------------------------------------
# level-set helper integrals with refinement error bars
# ---------------------------------------------------------------------------

def _equality_gap(ls):
    """Per-node H/(n-1) - |Du|/((n-2) u); zero exactly in the radial case."""
    return ls.mean_curv / (_N - 1) - ls.u_grad / ((_N - 2) * ls.level)


def _integral_with_error(sol, c, node_values_fn, order):
    ls = require_regular(extract_level_set(sol, c, order=order))
    val = surface_integral(ls, node_values_fn(ls))
    ls_ref = require_regular(extract_level_set(sol, c, order=order + 8))
    val_ref = surface_integral(ls_ref, node_values_fn(ls_ref))
    return val, abs(val - val_ref) * 4.0


# ---------------------------------------------------------------------------
# exterior criteria
# ---------------------------------------------------------------------------

def check_T11(sol, c, order=None):
    """Integral condition on one level set:
    int |Du|^2 [H/(n-1) - |Du|/((n-2)u)] dsigma <= 0."""
    if sol.problem != "exterior":
        raise ValueError("T1.1 applies to the exterior problem")
    order = order if order is not None else sol.order
    lhs, err = _integral_with_error(
        sol, c, lambda ls: ls.u_grad ** 2 * _equality_gap(ls), order)
    err = max(err, _solver_error_floor(sol))
    return _report("T1.1-integral", lhs, 0.0, err, {"level": c})


def check_C12(sol, levels=32, order=None):
    """Global coarea condition: Phi(1)/int_0^1 Phi(c) dc <= 2 (n-1)/(n-2),
    with Phi(c) the flux-cubed-over-u integral over {u=c}."""
    if sol.problem != "exterior":
        raise ValueError("C1.2 applies to the exterior problem")
    if levels < 16:
        raise ValueError("C1.2 needs at least 16 coarea levels")
    order = order if order is not None else sol.order

    phi = {}

    def flux_cubed(ls):
        # F with F/|Du| = |Du|^3/u; Phi at each coarea level is kept for
        # the refinement probes
        phi[ls.level] = surface_integral(ls, ls.u_grad ** 3 / ls.level)
        return ls.u_grad ** 4 / ls.level

    # int_0^1 Phi(c) dc = int_{0 < u < 1} |Du|^4/u dmu by coarea
    integral = coarea_volume_integral(sol, flux_cubed, 0.0, 1.0, levels, order)
    cs = list(phi)
    top = require_regular(extract_level_set(sol, sol.c, order=order))
    phi_top = phi[sol.c] = surface_integral(top, top.u_grad ** 3 / sol.c)
    lhs = phi_top / integral
    # error bar from one angular refinement at a few probe levels
    probe = [cs[0], cs[levels // 2], sol.c]
    refs = extract_level_sets(sol, probe, order=order + 8)
    diffs = [abs(phi[p] - surface_integral(ls, ls.u_grad ** 3 / p)) /
             max(phi[p], 1e-300)
             for p, ls in zip(probe, map(require_regular, refs))]
    err = max(max(diffs) * 4.0 * abs(lhs), _solver_error_floor(sol))
    rhs = 2.0 * (_N - 1) / (_N - 2)
    return _report("C1.2-global", lhs, rhs, err,
                   {"phiTop": phi_top, "phiIntegral": integral,
                    "coareaLevels": levels})


def check_C13(sol, quad=None):
    """Capacity condition on the boundary:
    (max|Du|^2 / min|Du|^2) int H/(n-1) dsigma <= Cap/(n-2)."""
    if sol.problem != "exterior":
        raise ValueError("C1.3 applies to the exterior problem")
    quad = quad if quad is not None else build_quadrature(sol.domain, sol.order)
    st = sol.field(quad.nodes, want="grad", check_region=False)
    gn = np.linalg.norm(st.grad, axis=1)
    ratio = float(gn.max() ** 2 / gn.min() ** 2)
    total_mean_curv = quad.integrate(quad.mean_curvature / (_N - 1))
    lhs = ratio * total_mean_curv
    cap = capacity(sol, cross_check=False)
    rhs = cap / (_N - 2)
    err = max(1e-9 * abs(rhs), 200.0 * sol.fit_residual * abs(rhs))
    return _report("C1.3-capacity", lhs, rhs, err,
                   {"gradientRatio": ratio, "totalMeanCurvature": total_mean_curv,
                    "capacity": cap})


def check_pointwise(sol, c, direction="<=", order=None):
    """Pointwise level-set condition.

    direction "<=" (exterior): H/(n-1) <= |Du|/((n-2)u) at every node of
    {u=c}.  direction ">=" (interior): H/(n-1) >= the boundary-average
    right-hand side built from the three |Du| moments and the area ratio,
    checked on the boundary level set.
    """
    order = order if order is not None else sol.order
    if direction == "<=":
        if sol.problem != "exterior":
            raise ValueError("the <= pointwise condition applies to the "
                             "exterior problem")
        ls = require_regular(extract_level_set(sol, c, order=order))
        gap = _equality_gap(ls)          # lhs - rhs per node
        worst = int(np.argmax(gap))
        err = max(_solver_error_floor(sol), 1e-10 * float(np.abs(gap).max() + 1))
        return _report("C1.4-pointwise", float(gap.max()), 0.0, err,
                       {"level": c, "worstNode": worst,
                        "worstPoint": ls.nodes[worst],
                        "nodeCount": len(gap)})
    if direction == ">=":
        return check_C17(sol)
    raise ValueError("direction must be '<=' or '>='")


def check_C17(sol, quad=None):
    """Interior pointwise condition on the boundary: H/(n-1) >= area-ratio
    and |Du|-moment right-hand side at every node."""
    if sol.problem != "interior":
        raise ValueError("C1.7 applies to the interior problem")
    quad = quad if quad is not None else build_quadrature(sol.domain, sol.order)
    st = sol.field(quad.nodes, want="grad", check_region=False)
    gn = np.linalg.norm(st.grad, axis=1)
    area = quad.area
    m1 = quad.integrate(gn) / area
    m2 = quad.integrate(gn ** 2) / area
    m3 = quad.integrate(gn ** 3) / area
    area_ratio = (_SPHERE_AREA / area) ** (1.0 / (_N - 1))
    rhs = area_ratio * (m1 ** 2 / m2) * (m3 / m1 ** 3) ** (_N / (2.0 * (_N - 1)))
    h_over = quad.mean_curvature / (_N - 1)
    worst = int(np.argmin(h_over))
    err = max(_solver_error_floor(sol), 1e-9 * abs(rhs))
    return _report("C1.7-interior-pointwise", rhs, float(h_over.min()), err,
                   {"worstNode": worst, "worstPoint": quad.nodes[worst],
                    "gradMoments": [m1, m2, m3], "areaRatio": area_ratio})


def check_neumann(sol, c=None, quad=None, order=None):
    """Constant-Neumann criteria.

    Exterior (on {u=c}): |Du| must be constant (relative spread below
    1e-6) and inf H/(n-1) <= min |Du|/((n-2)u) over the level set; both
    inf-vs-min and inf-vs-max margins are recorded.

    Interior (on the boundary): |Du| must be constant and
    sup H/(n-1) >= (|S^{n-1}|/|dOmega|)^(1/(n-1)).

    A non-constant |Du| yields verdict "hypothesis-not-met".
    """
    if sol.problem == "exterior":
        cid = "T1.5-neumann"
        c = c if c is not None else sol.c
        order = order if order is not None else sol.order
        ls = require_regular(extract_level_set(sol, c, order=order))
        gn = ls.u_grad
        h_over = ls.mean_curv / (_N - 1)
        rhs_nodes = gn / ((_N - 2) * c)
        lhs = float(h_over.min())
        rhs = float(rhs_nodes.min())
        witnesses = {
            "level": c,
            "gradientSpread": float((gn.max() - gn.min()) / gn.mean()),
            "neumannConstant": float(gn.mean()),
            "marginInfVsMin": float(rhs_nodes.min() - h_over.min()),
            "marginInfVsMax": float(rhs_nodes.max() - h_over.min()),
        }
    else:
        cid = "T1.8-interior-neumann"
        quad = quad if quad is not None else build_quadrature(sol.domain, sol.order)
        st = sol.field(quad.nodes, want="grad", check_region=False)
        gn = np.linalg.norm(st.grad, axis=1)
        h_over = quad.mean_curvature / (_N - 1)
        # oriented so margin >= 0 means sup H/(n-1) >= area ratio
        lhs = float((_SPHERE_AREA / quad.area) ** (1.0 / (_N - 1)))
        rhs = float(h_over.max())
        witnesses = {
            "gradientSpread": float((gn.max() - gn.min()) / gn.mean()),
            "neumannConstant": float(gn.mean()),
        }
    err = max(_solver_error_floor(sol), 1e-10)
    report = _report(cid, lhs, rhs, err, witnesses)
    if witnesses["gradientSpread"] > NEUMANN_SPREAD_THRESHOLD:
        report = CriterionReport(criterion_id=report.criterion_id,
                                 lhs=report.lhs, rhs=report.rhs,
                                 margin=report.margin,
                                 error_estimate=report.error_estimate,
                                 verdict="hypothesis-not-met",
                                 witnesses=report.witnesses)
    return report


# ---------------------------------------------------------------------------
# interior criteria
# ---------------------------------------------------------------------------

def check_T16(sol, quad=None):
    """Interior integral condition built from the three boundary |Du|
    moments:

        avg(H/(n-1) |Du|^2) / avg(|Du|)^2
            >= (|S^{n-1}|/|dOmega|)^(1/(n-1))
               [avg(|Du|^3)/avg(|Du|)^3]^(n/(2(n-1))),

    with the normalization constants c1, c2 reported as witnesses.
    """
    if sol.problem != "interior":
        raise ValueError("T1.6 applies to the interior problem")
    quad = quad if quad is not None else build_quadrature(sol.domain, sol.order)
    st = sol.field(quad.nodes, want="grad", check_region=False)
    gn = np.linalg.norm(st.grad, axis=1)
    area = quad.area
    m1 = quad.integrate(gn) / area
    m2 = quad.integrate(gn ** 2) / area
    m3 = quad.integrate(gn ** 3) / area
    h_term = quad.integrate(quad.mean_curvature / (_N - 1) * gn ** 2) / area
    lhs_value = h_term / m1 ** 2
    area_ratio = (_SPHERE_AREA / area) ** (1.0 / (_N - 1))
    rhs_value = area_ratio * (m3 / m1 ** 3) ** (_N / (2.0 * (_N - 1)))
    err = max(_solver_error_floor(sol), 1e-9 * abs(rhs_value))
    witnesses = {
        "c1": normalization_c1(sol, quad=quad),
        "c2": normalization_c2(sol, quad=quad),
        "gradMoments": [m1, m2, m3],
        "fluxRatio": m1 * area / (sol.d * area),
    }
    # condition is lhs_value >= rhs_value; orient margin accordingly
    return _report("T1.6-interior-integral", rhs_value, lhs_value, err,
                   witnesses)


def normalization_c1(sol, quad=None):
    """Dirichlet normalization making the flux-cubed integral match its
    singular-limit value; depends only on (n, domain, d)."""
    if sol.problem != "interior":
        raise ValueError("c1 is defined for the interior problem")
    quad = quad if quad is not None else build_quadrature(sol.domain, sol.order)
    st = sol.field(quad.nodes, want="grad", check_region=False)
    gn = np.linalg.norm(st.grad, axis=1)   # gradient is normalization-free
    i3 = quad.integrate(gn ** 3)
    return (i3 / interior_flux_cubed_limit(sol)) ** ((_N - 2) / (2.0 * (_N - 1)))


def normalization_c2(sol, quad=None):
    """c2 = d/(n-2) (|dOmega|/|S^{n-1}|)^(1/(n-1))."""
    if sol.problem != "interior":
        raise ValueError("c2 is defined for the interior problem")
    area = quad.area if quad is not None else sol.boundary_area
    return sol.d / (_N - 2) * (area / _SPHERE_AREA) ** (1.0 / (_N - 1))


def check_T19(sol, a, b, order=None):
    """Two-boundary condition: H/(n-1) >= |Du|/((n-2)u) on {u=a} and
    <= on {u=b}, for levels 0 < a < b in the range of u."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    order = order if order is not None else sol.order
    ls_a = require_regular(extract_level_set(sol, a, order=order))
    ls_b = require_regular(extract_level_set(sol, b, order=order))
    gap_a = _equality_gap(ls_a)          # want >= 0 at every node
    gap_b = _equality_gap(ls_b)          # want <= 0 at every node
    # single margin: the worst violation across both levels
    margin = float(min(gap_a.min(), -gap_b.max()))
    err = max(_solver_error_floor(sol), 1e-10)
    witnesses = {
        "levelA": a, "levelB": b,
        "minGapA": float(gap_a.min()), "maxGapB": float(gap_b.max()),
        "connectedA": True, "connectedB": True,   # star-shaped extraction
    }
    return _report("T1.9-two-boundary", -margin, 0.0, err, witnesses)


# ---------------------------------------------------------------------------
# symmetry certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryCertificate:
    """Numerical rigidity certificate: constant P-function, round level
    sets, and the pointwise curvature equality, plus the ball radius
    inferred from capacity."""

    granted: bool
    p_function_spread: float
    level_set_sphericity: dict
    equality_residual: float
    inferred_radius: float | None
    failing_metric: str | None
    thresholds: dict

    def to_json_dict(self):
        return {
            "granted": self.granted,
            "pFunctionSpread": self.p_function_spread,
            "levelSetSphericity": {str(k): v
                                   for k, v in self.level_set_sphericity.items()},
            "equalityResidual": self.equality_residual,
            "inferredRadius": self.inferred_radius,
            "failingMetric": self.failing_metric,
            "thresholds": dict(self.thresholds),
        }


def sample_region_points(sol, count=200, seed=0, radius_factor=4.0):
    """Deterministic sample of points in the solution's region.

    Exterior: uniform directions with radii between the ray exit radius and
    radius_factor times the enclosing radius.  Interior: radii between a
    small multiple of the enclosing radius and the ray exit radius.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r_exit = np.atleast_1d(sol.domain.ray_exit_radius(dirs))
    t = rng.uniform(0.0, 1.0, count)
    if sol.problem == "exterior":
        r_max = radius_factor * sol.domain.bounding_radii()[1]
        radii = r_exit * (1 + 1e-6) * (r_max / (r_exit * (1 + 1e-6))) ** t
    else:
        r_min = 0.05 * sol.domain.bounding_radii()[0]
        radii = r_min * (r_exit * (1 - 1e-6) / r_min) ** t
    return dirs * radii[:, None]


def p_function_spread(sol, count=200, seed=0):
    """(max - min)/mean of the P-function over sampled region points."""
    pts = sample_region_points(sol, count=count, seed=seed)
    st = sol.field(pts, want="grad", check_region=False)
    p = p_function(st.u, st.grad)
    return float((p.max() - p.min()) / p.mean())


def symmetry_certificate(sol, levels=None, order=None,
                         p_threshold=1e-5, sphericity_threshold=1e-5,
                         equality_threshold=1e-6, seed=0):
    """Grant or deny the rigidity certificate over the given levels.

    All three metrics must pass their thresholds; a denied certificate
    names the first failing metric.  The inferred radius is computed from
    capacity for exterior solutions.
    """
    if levels is None:
        levels = ([0.25 * sol.c, 0.5 * sol.c, 0.75 * sol.c]
                  if sol.problem == "exterior"
                  else [1.5 * sol.c, 2.0 * sol.c, 3.0 * sol.c])
    order = order if order is not None else sol.order
    spread = p_function_spread(sol, seed=seed)
    sphericity = {}
    eq_res = 0.0
    for c in levels:
        ls = require_regular(extract_level_set(sol, c, order=order))
        sphericity[c] = float(ls.radii.max() / ls.radii.min() - 1.0)
        eq_res = max(eq_res, float(np.abs(_equality_gap(ls)).max()))
    inferred = None
    if sol.problem == "exterior":
        inferred = float(inferred_ball_radius(capacity(sol, cross_check=False,
                                                       order=order)))
    failing = None
    if spread > p_threshold:
        failing = "pFunctionSpread"
    elif max(sphericity.values()) > sphericity_threshold:
        failing = "levelSetSphericity"
    elif eq_res > equality_threshold:
        failing = "equalityResidual"
    return SymmetryCertificate(
        granted=failing is None,
        p_function_spread=spread,
        level_set_sphericity=sphericity,
        equality_residual=eq_res,
        inferred_radius=inferred,
        failing_metric=failing,
        thresholds={"pFunctionSpread": p_threshold,
                    "levelSetSphericity": sphericity_threshold,
                    "equalityResidual": equality_threshold})


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def run_battery(sol, criteria=None, levels=None, quad=None, order=None):
    """Run the criteria compatible with the solution's problem kind.

    A CapsymError or ValueError raised by one criterion is embedded in the
    result list and the run continues; any other exception propagates.
    Returns a list of CriterionReport-or-error dicts.
    """
    compatible = (EXTERIOR_CRITERIA if sol.problem == "exterior"
                  else INTERIOR_CRITERIA)
    wanted = criteria if criteria is not None else compatible
    results = []
    for cid in wanted:
        if cid not in CRITERION_IDS:
            raise ValueError(f"unknown criterion id {cid!r}")
        if cid not in compatible:
            raise ValueError(
                f"criterion {cid} is incompatible with the {sol.problem} problem")
        try:
            results.append(_dispatch(sol, cid, levels, quad, order))
        except (CapsymError, ValueError) as exc:
            results.append({"criterionId": cid, "error": f"{type(exc).__name__}: {exc}"})
    return results


def _dispatch(sol, cid, levels, quad, order):
    mid_level = (0.5 * sol.c if sol.problem == "exterior" else 2.0 * sol.c)
    if levels:
        mid_level = levels[len(levels) // 2]
    if cid == "T1.1-integral":
        return check_T11(sol, mid_level, order=order)
    if cid == "C1.2-global":
        return check_C12(sol, order=order)
    if cid == "C1.3-capacity":
        return check_C13(sol, quad=quad)
    if cid == "C1.4-pointwise":
        return check_pointwise(sol, mid_level, "<=", order=order)
    if cid == "T1.5-neumann":
        return check_neumann(sol, c=mid_level, order=order)
    if cid == "T1.6-interior-integral":
        return check_T16(sol, quad=quad)
    if cid == "C1.7-interior-pointwise":
        return check_C17(sol, quad=quad)
    if cid == "T1.8-interior-neumann":
        return check_neumann(sol, quad=quad)
    if cid == "T1.9-two-boundary":
        if sol.problem == "exterior":
            a, b = 0.3 * sol.c, 0.7 * sol.c
        else:
            a, b = 1.5 * sol.c, 3.0 * sol.c
        if levels and len(levels) >= 2:
            a, b = min(levels), max(levels)
        return check_T19(sol, a, b, order=order)
    raise ValueError(cid)
