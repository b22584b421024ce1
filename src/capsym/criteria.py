"""Overdetermining symmetry conditions, capacity, and the certificate that
operationalizes the rigidity conclusion (constant P-function, round level
sets, and the pointwise equality H/(n-1) = |Du|/((n-2) u)).

Each check returns a CriterionReport with lhs/rhs oriented so that
margin = rhs - lhs >= 0 means "condition satisfied".  Every verdict comes
with one error rule, applied by _report: the error estimate is
max(own, max(1e-11, 50 fit) scale), where own is the check's own
quadrature error or floor, fit the solution's fit residual and scale the
size of the check's value relative to u (c^2 for T1.1, 4|rhs| for C1.3,
1 elsewhere).  T1.1's own error is the tail of its integrand's angular
spectrum on the solution's grid when that tail is at its roundoff plateau
(at most _PLATEAU times the size of the two terms that cancel), else
4 |I - I'| with I' its integral on the level extracted again at order + 8.
Margins below -error report "violated", anything not worse than -error
reports "satisfied" with an equality flag whenever |margin| <= error, so
roundoff near the radial equality cases can never produce a false
violation; a check whose hypothesis fails reports "hypothesis-not-met".
Reports serialize to JSON with the stable field names
criterionId/lhs/rhs/margin/errorEstimate/verdict/witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import legvander
from numpy.random import default_rng

from .conformal import p_function
from .errors import CapsymError, IrregularLevelSetError
from .geometry import (_json_fields, _json_value, gauss_legendre,
                       unit_sphere_area)
from .identities import interior_flux_cubed_limit
from .levelset import (_boundary, _order_entry, _ray_volume,
                       extract_level_set, surface_integral)

_N = 3
_SPHERE_AREA = unit_sphere_area(_N)

EXTERIOR_CRITERIA = ("T1.1-integral", "C1.2-global", "C1.3-capacity",
                     "C1.4-pointwise", "T1.5-neumann", "T1.9-two-boundary")
INTERIOR_CRITERIA = ("T1.6-interior-integral", "C1.7-interior-pointwise",
                     "T1.8-interior-neumann", "T1.9-two-boundary")

NEUMANN_SPREAD_THRESHOLD = 1e-6
# the certificate's metrics in the order they are checked, each with the
# largest value it may take
CERTIFICATE_THRESHOLDS = {"pFunctionSpread": 1e-5, "levelSetSphericity": 1e-5,
                          "equalityResidual": 1e-6}
# exterior sample points reach out to this multiple of the enclosing radius
_SAMPLE_RADIUS_FACTOR = 4.0
# default levels of each problem kind, as multiples of c, low to high
DEFAULT_LEVELS = {"exterior": (0.25, 0.5, 0.75), "interior": (1.5, 2.0, 3.0)}
# an angular spectrum whose tail is at most this times the size of its
# integrand's terms has reached its roundoff plateau (Aurentz & Trefethen,
# Chopping a Chebyshev series, ACM TOMS 43, 2017)
_PLATEAU = 1e-13


def default_levels(problem, c):
    """DEFAULT_LEVELS of a ``problem`` solution with boundary value c."""
    return tuple(f * c for f in DEFAULT_LEVELS[problem])


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
        """_json_fields, with the witnesses as a list of {name, value}
        sorted by name."""
        return {**_json_fields(self),
                "witnesses": [{"name": k, "value": _json_value(v)}
                              for k, v in sorted(self.witnesses.items())]}


def _report(sol, criterion_id, lhs, rhs, own, witnesses, scale=1.0,
            hypothesis=True, worst=None):
    """The CriterionReport of margin = rhs - lhs on the solution sol, its
    error by the module's rule from the check's ``own`` error and ``scale``.
    A false ``hypothesis`` sets the verdict "hypothesis-not-met".

    ``worst`` = (values, nodes) adds the node witnesses worstNode and
    worstPoint: the lowest index among the nodes whose value lies within
    the error estimate of the largest, so that values equal up to roundoff
    (mirror-image nodes, or every node of a ball) name the same node on
    every machine and BLAS thread count."""
    error = max(own, max(1e-11, 50.0 * sol.fit_residual) * scale)
    margin = rhs - lhs
    verdict = ("hypothesis-not-met" if not hypothesis
               else "inconclusive" if not np.isfinite(margin)
               else "violated" if margin < -error else "satisfied")
    w = dict(witnesses)
    w["equality"] = bool(np.isfinite(margin) and abs(margin) <= error)
    if worst is not None:
        values, nodes = worst
        i = int(np.argmax(values >= values.max() - error))
        w.update(worstNode=i, worstPoint=nodes[i])
    return CriterionReport(criterion_id=criterion_id, lhs=float(lhs),
                           rhs=float(rhs), margin=float(margin),
                           error_estimate=float(error), verdict=verdict,
                           witnesses=w)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def capacity(sol, level=None, order=None):
    """Electrostatic capacity as the level-set flux integral of |Du|/c, c
    the boundary value: the flux is level-independent for an exterior
    potential, and scaling u leaves it unchanged.  The level defaults to the
    middle one of DEFAULT_LEVELS.  The boundary is the level {u = c}, so the
    flux through it (_boundary, at the solution's order) must match: a
    relative mismatch above 1e-5 raises IrregularLevelSetError naming the
    level.
    """
    if sol.problem != "exterior":
        raise ValueError("capacity is defined for the exterior problem")
    c = level if level is not None else default_levels(sol.problem, sol.c)[1]
    ls = extract_level_set(sol, c, order=order)
    cap = surface_integral(ls, ls.u_grad)
    b = _boundary(sol)
    rel = abs(cap - surface_integral(b, b.u_grad)) / max(abs(cap), 1e-300)
    if rel > 1e-5:
        raise IrregularLevelSetError(
            f"capacity flux differs by {rel:.2e} between level set {c} and "
            "the boundary; the field is not a clean exterior potential")
    return cap / sol.c


def inferred_ball_radius(cap):
    """Radius of the ball with the given capacity: (Cap/((n-2)|S^{n-1}|))^(1/(n-2))."""
    return (cap / ((_N - 2) * unit_sphere_area(_N))) ** (1.0 / (_N - 2))


def _grad_moments(ls):
    """Averages of |Du|, |Du|^2 and |Du|^3 over a level set."""
    return tuple(surface_integral(ls, ls.u_grad ** k) / ls.area
                 for k in (1, 2, 3))


def _equality_gap(ls):
    """Per-node H/(n-1) - |Du|/((n-2) u); zero exactly in the radial case."""
    return ls.mean_curv / (_N - 1) - ls.u_grad / ((_N - 2) * ls.level)


# ---------------------------------------------------------------------------
# exterior criteria
# ---------------------------------------------------------------------------

def _angular_tail(ls, values, order):
    """The tail of the angular spectrum of the integrand of
    surface_integral(ls, values), on the grid of ``order`` (n), in units of
    the integral: the larger of the Legendre coefficients of degrees
    3n/4 .. n-1 of the phi-average, each |a_k| times 4 pi, and the
    Fourier coefficients |m| >= 3n/4 of each theta ring, the largest |c_m|
    of a ring times the ring's weight, summed over rings.  The degrees stop
    at n - 1, the highest whose a_k the order-n Gauss rule resolves."""
    top = 3 * order // 4
    rings = (ls.weights * values).reshape(order, 2 * order)
    vander = (legvander(gauss_legendre(order)[0], order - 1)[:, top:]
              * (2 * np.arange(top, order) + 1))
    phase = np.pi / order * np.outer(np.arange(2 * order),
                                     np.arange(top, order + 1))
    return max(np.abs(rings.sum(axis=1) @ vander).max(),
               np.abs(rings @ (np.cos(phase) - 1j * np.sin(phase)))
               .max(axis=1).sum())


def check_T11(sol, c):
    """Integral condition on one level set:
    int |Du|^2 [H/(n-1) - |Du|/((n-2)u)] dsigma <= 0.

    The angular error bar is the tail of the integrand's own angular
    spectrum (_angular_tail) when that tail is at its roundoff plateau, at
    most _PLATEAU times the size of the two terms that cancel,
    int |Du|^2 (|H|/(n-1) + |Du|/((n-2)u)) dsigma; else it is 4 |I - I'|,
    I' the integral on the level extracted again at order + 8."""
    select_criteria(sol.problem, ["T1.1-integral"])

    def gap_flux(ls):
        return ls.u_grad ** 2 * _equality_gap(ls)

    ls = extract_level_set(sol, c)
    lhs = surface_integral(ls, gap_flux(ls))
    size = surface_integral(ls, ls.u_grad ** 2 * (
        np.abs(ls.mean_curv) / (_N - 1) + ls.u_grad / ((_N - 2) * ls.level)))
    err = _angular_tail(ls, gap_flux(ls), sol.order)
    if err > _PLATEAU * size:
        ref = extract_level_set(sol, c, order=sol.order + 8)
        err = 4.0 * abs(lhs - surface_integral(ref, gap_flux(ref)))
    # lhs scales as c^2 when u is scaled, and so does its solver floor
    return _report(sol, "T1.1-integral", lhs, 0.0, err, {"level": c},
                   scale=sol.c ** 2)


def check_C12(sol):
    """Global coarea condition: c Phi(c)/int_0^c Phi(s) ds <= 2 (n-1)/(n-2),
    with Phi(s) the flux-cubed-over-u integral over {u=s} and c the boundary
    value: Phi(1)/int_0^1 Phi for c = 1, unchanged when u is scaled.
    Phi(c) = avg(|Du|^3) |dOmega| / c on the boundary LevelSet {u = c}.  By
    coarea int_0^c Phi = int |Du|^4/u dmu over the exterior, integrated with
    G7/K15 along the rays from the boundary to infinity.  The error bar is
    the relative G7/K15 error of that integral plus 4 times its relative
    change at order + 8 (the angular error), times lhs."""
    select_criteria(sol.problem, ["C1.2-global"])

    # formed without cancellation: no roundoff beyond qk15's floor
    def density(st):
        return st.grad_norm ** 4 / st.u, 0.0

    top = _boundary(sol)
    phi_top = _grad_moments(top)[2] * top.area / sol.c
    scale = sol.c * phi_top

    def exterior_integral(order):
        return _ray_volume(sol, density, "grad", _order_entry(sol, order)[2],
                           np.inf, order, scale)

    integral, quad_err = exterior_integral(sol.order)
    refined, _ = exterior_integral(sol.order + 8)
    lhs = scale / integral
    angular = 4.0 * abs(integral - refined)
    err = (angular + quad_err) / integral * abs(lhs)
    rhs = 2.0 * (_N - 1) / (_N - 2)
    return _report(sol, "C1.2-global", lhs, rhs, err,
                   {"phiTop": phi_top, "phiIntegral": integral})


def check_C13(sol):
    """Capacity condition on the boundary:
    (max|Du|^2 / min|Du|^2) int H/(n-1) dsigma <= Cap/(n-2)."""
    select_criteria(sol.problem, ["C1.3-capacity"])
    b = _boundary(sol)
    ratio = float(b.u_grad.max() ** 2 / b.u_grad.min() ** 2)
    total_mean_curv = surface_integral(b, b.mean_curv / (_N - 1))
    lhs = ratio * total_mean_curv
    cap = capacity(sol)
    rhs = cap / (_N - 2)
    return _report(sol, "C1.3-capacity", lhs, rhs, 1e-9 * abs(rhs),
                   {"gradientRatio": ratio, "totalMeanCurvature": total_mean_curv,
                    "capacity": cap}, scale=4.0 * abs(rhs))


def check_pointwise(sol, c):
    """Pointwise exterior condition C1.4: H/(n-1) <= |Du|/((n-2)u) at every
    node of {u=c}.  Its interior counterpart is check_C17."""
    select_criteria(sol.problem, ["C1.4-pointwise"])
    ls = extract_level_set(sol, c)
    gap = _equality_gap(ls)          # lhs - rhs per node
    return _report(sol, "C1.4-pointwise", float(gap.max()), 0.0,
                   1e-10 * float(np.abs(gap).max() + 1),
                   {"level": c, "nodeCount": len(gap)}, worst=(gap, ls.nodes))


def check_C17(sol):
    """Interior pointwise condition on the boundary: H/(n-1) >= area-ratio
    and |Du|-moment right-hand side at every node."""
    select_criteria(sol.problem, ["C1.7-interior-pointwise"])
    b = _boundary(sol)
    m1, m2, m3 = _grad_moments(b)
    area_ratio = (_SPHERE_AREA / b.area) ** (1.0 / (_N - 1))
    rhs = area_ratio * (m1 ** 2 / m2) * (m3 / m1 ** 3) ** (_N / (2.0 * (_N - 1)))
    h_over = b.mean_curv / (_N - 1)
    return _report(sol, "C1.7-interior-pointwise", rhs, float(h_over.min()),
                   1e-9 * abs(rhs),
                   {"gradMoments": [m1, m2, m3], "areaRatio": area_ratio},
                   worst=(-h_over, b.nodes))


def check_neumann(sol, c=None):
    """Constant-Neumann criteria.

    Exterior (on {u=c}): |Du| must be constant (relative spread below
    1e-6) and inf H/(n-1) <= min |Du|/((n-2)u) over the level set; both
    inf-vs-min and inf-vs-max margins are recorded.

    Interior (on the boundary): |Du| must be constant and
    sup H/(n-1) >= (|S^{n-1}|/|dOmega|)^(1/(n-1)).

    A non-constant |Du| yields verdict "hypothesis-not-met".
    """
    exterior = sol.problem == "exterior"
    c = c if c is not None else sol.c
    ls = extract_level_set(sol, c) if exterior else _boundary(sol)
    gn = ls.u_grad
    h_over = ls.mean_curv / (_N - 1)
    witnesses = {"gradientSpread": float((gn.max() - gn.min()) / gn.mean()),
                 "neumannConstant": float(gn.mean())}
    if exterior:
        cid = "T1.5-neumann"
        rhs_nodes = gn / ((_N - 2) * c)
        lhs = float(h_over.min())
        rhs = float(rhs_nodes.min())
        witnesses.update(level=c,
                         marginInfVsMin=float(rhs_nodes.min() - h_over.min()),
                         marginInfVsMax=float(rhs_nodes.max() - h_over.min()))
    else:
        cid = "T1.8-interior-neumann"
        # oriented so margin >= 0 means sup H/(n-1) >= area ratio
        lhs = float((_SPHERE_AREA / ls.area) ** (1.0 / (_N - 1)))
        rhs = float(h_over.max())
    return _report(sol, cid, lhs, rhs, 1e-10, witnesses, hypothesis=not (
        witnesses["gradientSpread"] > NEUMANN_SPREAD_THRESHOLD))


# ---------------------------------------------------------------------------
# interior criteria
# ---------------------------------------------------------------------------

def check_T16(sol):
    """Interior integral condition built from the three boundary |Du|
    moments:

        avg(H/(n-1) |Du|^2) / avg(|Du|)^2
            >= (|S^{n-1}|/|dOmega|)^(1/(n-1))
               [avg(|Du|^3)/avg(|Du|)^3]^(n/(2(n-1))),

    with the normalization constants c1, c2 reported as witnesses.
    """
    select_criteria(sol.problem, ["T1.6-interior-integral"])
    b = _boundary(sol)
    m1, m2, m3 = _grad_moments(b)
    h_term = surface_integral(b, b.mean_curv / (_N - 1) * b.u_grad ** 2) / b.area
    lhs_value = h_term / m1 ** 2
    area_ratio = (_SPHERE_AREA / b.area) ** (1.0 / (_N - 1))
    rhs_value = area_ratio * (m3 / m1 ** 3) ** (_N / (2.0 * (_N - 1)))
    witnesses = {
        "c1": normalization_c1(sol),
        "c2": normalization_c2(sol),
        "gradMoments": [m1, m2, m3],
        "fluxRatio": m1 / sol.d,
    }
    # condition is lhs_value >= rhs_value; orient margin accordingly
    return _report(sol, "T1.6-interior-integral", rhs_value, lhs_value,
                   1e-9 * abs(rhs_value), witnesses)


def normalization_c1(sol):
    """Dirichlet normalization making the flux-cubed integral match its
    singular-limit value; depends only on (n, domain, d)."""
    if sol.problem != "interior":
        raise ValueError("c1 is defined for the interior problem")
    b = _boundary(sol)   # |Du| is normalization-free
    i3 = _grad_moments(b)[2] * b.area
    return (i3 / interior_flux_cubed_limit(sol)) ** ((_N - 2) / (2.0 * (_N - 1)))


def normalization_c2(sol):
    """c2 = d/(n-2) (|dOmega|/|S^{n-1}|)^(1/(n-1))."""
    if sol.problem != "interior":
        raise ValueError("c2 is defined for the interior problem")
    area = _boundary(sol).area
    return sol.d / (_N - 2) * (area / _SPHERE_AREA) ** (1.0 / (_N - 1))


def check_T19(sol, a, b):
    """Two-boundary condition: H/(n-1) >= |Du|/((n-2)u) on {u=a} and
    <= on {u=b}, for levels 0 < a < b in the range of u."""
    if not 0 < a < b:
        raise ValueError("need 0 < a < b")
    ls_a = extract_level_set(sol, a)
    ls_b = extract_level_set(sol, b)
    gap_a = _equality_gap(ls_a)          # want >= 0 at every node
    gap_b = _equality_gap(ls_b)          # want <= 0 at every node
    # single margin: the worst violation across both levels
    margin = float(min(gap_a.min(), -gap_b.max()))
    witnesses = {"levelA": a, "levelB": b, "minGapA": float(gap_a.min()),
                 "maxGapB": float(gap_b.max())}
    return _report(sol, "T1.9-two-boundary", -margin, 0.0, 1e-10, witnesses)


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

    to_json_dict = _json_fields


def sample_region_points(sol, count=200, seed=0):
    """Deterministic sample of points in the solution's region.

    Exterior: uniform directions with radii between the ray exit radius and
    _SAMPLE_RADIUS_FACTOR times the enclosing radius.  Interior: radii
    between a small multiple of the enclosing radius and the ray exit
    radius.
    """
    rng = default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r_exit = sol.domain.ray_exit_radius(dirs)
    t = rng.uniform(0.0, 1.0, count)
    if sol.problem == "exterior":
        r_max = _SAMPLE_RADIUS_FACTOR * sol.domain.bounding_radii[1]
        radii = r_exit * (1 + 1e-6) * (r_max / (r_exit * (1 + 1e-6))) ** t
    else:
        r_min = 0.05 * sol.domain.bounding_radii[0]
        radii = r_min * (r_exit * (1 - 1e-6) / r_min) ** t
    return dirs * radii[:, None]


def p_function_spread(sol, count=200, seed=0):
    """(max - min)/mean of the P-function over sampled region points."""
    pts = sample_region_points(sol, count=count, seed=seed)
    st = sol.field(pts, want="grad", check_region=False)
    p = p_function(st.u, st.grad)
    return float((p.max() - p.min()) / p.mean())


def symmetry_certificate(sol, levels=None, order=None, seed=0):
    """Grant or deny the rigidity certificate over ``levels`` (by default
    all of DEFAULT_LEVELS).  All three metrics must pass their thresholds; a
    denied certificate names the first failing metric.  The inferred radius
    is computed from capacity for exterior solutions.
    """
    if levels is None:
        levels = default_levels(sol.problem, sol.c)
    spread = p_function_spread(sol, seed=seed)
    sphericity = {}
    eq_res = 0.0
    for c in levels:
        ls = extract_level_set(sol, c, order=order)
        sphericity[c] = float(ls.radii.max() / ls.radii.min() - 1.0)
        eq_res = max(eq_res, float(np.abs(_equality_gap(ls)).max()))
    inferred = None
    if sol.problem == "exterior":
        inferred = float(inferred_ball_radius(capacity(sol, order=order)))
    metrics = {"pFunctionSpread": spread,
               "levelSetSphericity": max(sphericity.values()),
               "equalityResidual": eq_res}
    failing = next((name for name, limit in CERTIFICATE_THRESHOLDS.items()
                    if metrics[name] > limit), None)
    return SymmetryCertificate(
        granted=failing is None,
        p_function_spread=spread,
        level_set_sphericity=sphericity,
        equality_residual=eq_res,
        inferred_radius=inferred,
        failing_metric=failing,
        thresholds=dict(CERTIFICATE_THRESHOLDS))


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def run_battery(sol, criteria=None, levels=None):
    """Run the criteria compatible with the solution's problem kind on
    ``levels`` (by default DEFAULT_LEVELS, see _battery_levels).  A
    CapsymError raised by one criterion is embedded in the result list and
    the run continues; any other exception propagates.  Returns a list of
    CriterionReport-or-error dicts.
    """
    c, pair = _battery_levels(sol, levels)
    results = []
    for cid in select_criteria(sol.problem, criteria):
        try:
            results.append(_DISPATCH[cid](sol, c, pair))
        except CapsymError as exc:
            results.append({"criterionId": cid, "error": f"{type(exc).__name__}: {exc}"})
    return results


def select_criteria(problem, criteria=None):
    """The criterion ids to run on a ``problem`` ("exterior" or "interior")
    solution: ``criteria`` when given, else all compatible ones.  Raises
    ValueError naming an unknown or incompatible id."""
    compatible = (EXTERIOR_CRITERIA if problem == "exterior"
                  else INTERIOR_CRITERIA)
    if criteria is None:
        return compatible
    for cid in criteria:
        if cid not in CRITERION_IDS:
            raise ValueError(f"unknown criterion id {cid!r}")
        if cid not in compatible:
            raise ValueError(
                f"criterion {cid} is incompatible with the {problem} problem")
    return tuple(criteria)


def _battery_levels(sol, levels):
    """The battery's middle level and T1.9 pair: the median by value (the
    upper one of an even count) and the outer two of ``levels``, with
    DEFAULT_LEVELS for whichever of them is not given."""
    defaults = default_levels(sol.problem, sol.c)
    middle = sorted(levels or defaults)
    outer = levels if levels and len(levels) >= 2 else defaults
    return middle[len(middle) // 2], (min(outer), max(outer))


# Criterion id -> call with (sol, middle level, level pair).  The checks
# are looked up by name at call time, so a rebound module name (a wrapper
# or a test double) is the one that runs.
_DISPATCH = {
    "T1.1-integral": lambda sol, c, pair: check_T11(sol, c),
    "C1.2-global": lambda sol, c, pair: check_C12(sol),
    "C1.3-capacity": lambda sol, c, pair: check_C13(sol),
    "C1.4-pointwise": lambda sol, c, pair: check_pointwise(sol, c),
    "T1.5-neumann": lambda sol, c, pair: check_neumann(sol, c=c),
    "T1.6-interior-integral": lambda sol, c, pair: check_T16(sol),
    "C1.7-interior-pointwise": lambda sol, c, pair: check_C17(sol),
    "T1.8-interior-neumann": lambda sol, c, pair: check_neumann(sol),
    "T1.9-two-boundary": lambda sol, c, pair: check_T19(sol, *pair),
}

CRITERION_IDS = tuple(_DISPATCH)
