"""Level sets {u = c} extracted as star-shaped radial graphs, and volume
integrals between them along the rays.

Each angular direction gets one ray from the origin.  A level is found by a
scan of u along the rays, on a geometric grid of 16 radii per decade.  One
rule runs it in both problems: it starts 1e-5 r on the domain's side of the
boundary, so that its first column brackets the level c itself, and steps
away from the domain, outward or inward, until at least 8 columns are done
and u is beyond the level by 1e-6 c on every ray.  The scan is also the
star-shapedness check: u - c must change sign exactly once on every ray,
else the level is reported (NonStarShapedLevelSetError, LevelRangeError),
not worked around.  The grid is the same for every level of a solution at
one order, so its columns form one march that the levels share: a level
reads the columns already computed and computes only those past their
end.  Each level still reads every column from the boundary out to the
one it stops at, so its bracket and its check do not depend on which
levels came before it.

Each level is then solved per ray by safeguarded Newton iteration
(geometry.safeguarded_newton; rtsafe, Numerical Recipes section 9.4) inside
its scan bracket.  The first iterate interpolates log u linearly in log r
between the bracketing scan values, exact for u ~ r^-p; a step that leaves
the bracket, or does not halve the previous one, is replaced by bisection.
A ray stops when its step or its bracket is below 1e-14 r, so
|u - c| <= 1e-12 c at the nodes; a ray that does not converge raises
IrregularLevelSetError.  One Hessian evaluation per level at the nodes
gives the weights and curvatures.

Surface weights use the solid-angle projection dsigma = r^2 dOmega / <nu, omega>
with nu = -Du/|Du|, so no numerical differentiation of the extracted graph is
ever needed; mean curvature comes from the solution's analytic Hessian via
H = D2u(nu, nu)/|Du|.  The boundary {u = c} is a LevelSet too (_boundary),
on the domain's own rule: weights, outward normals and curvature from
geometry.build_quadrature, Du from one gradient evaluation.  Every LevelSet
is regular by construction: one with min |Du| <= REGULARITY_THRESHOLD
raises IrregularLevelSetError naming the level when it is built.

A volume integral over a slab {a < u < b}, by coarea a sum over levels,
needs no level between a and b: the slab is r_b(omega) < r < r_a(omega) on
every ray, and _ray_volume integrates along the rays with G7/K15 panels
(QUADPACK qk15; Piessens et al. 1983).  Its error is |K15 - G7| summed over
rays and panels, in the units of the integral, but at least a roundoff
floor: qk15's 50 eps |F| plus the roundoff estimate dF that the density
supplies per point.  dF is 0 where F is formed without cancellation; the
identity's |hess_g f|_g^2 is formed by cancellation and is exactly 0 on a
radial field, where its computed value is all roundoff.

The field is even under the solution's mirrors (HarmonicSolution.mirrors,
the coordinate-plane reflections that keep its charges), so it is
evaluated on one ray per orbit of the rays under them: the scan, the
bracket and Newton run on the first ray of each orbit, _level_set copies
the node data to the orbit's other rays, Du and the normals with the
reflection's signs, and _ray_volume weights each first ray by its orbit's
total.  _boundary evaluates Du at one node per orbit the same way.  With
no mirror every ray is its own orbit.

Only this module uses a solution's cache: per order, the angular weights,
directions and boundary exit radii, the orbits of the rays and the scan's
march on their first rays (its radius and u columns, grown column by
column); the boundary LevelSet (_boundary); and every LevelSet that
extract_level_set returns, per (level, order).  Every cached array is
read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conformal import level_set_mean_curvature
from .errors import (IrregularLevelSetError, LevelRangeError,
                     NonStarShapedLevelSetError)
from .geometry import (SurfaceQuadrature, angular_grid, build_quadrature,
                       safeguarded_newton, unit_directions)
from .harmonic import _mirror_orbits

REGULARITY_THRESHOLD = 1e-8
_SCAN_PER_DECADE = 16
_RTOL = 1e-14
# a scan interval spans exactly a factor 10^(1/16) in r; pure bisection
# narrows it to _RTOL * r in 44 steps
_MAX_STEPS = 64

# QUADPACK qk15 on [-1, 1]: the Kronrod nodes from the outermost down to 0,
# their weights, and the 7-point Gauss weights at the nodes _XGK[1::2]
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# all 15 nodes in ascending order, their K15 weights, and the G7 weights
# (zero at the 8 Kronrod-only nodes)
_GK15_NODES = np.concatenate([-np.array(_XGK[:-1]), _XGK[::-1]])
_K15_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G7_WEIGHTS = np.zeros(15)
_G7_WEIGHTS[1::2] = np.concatenate([_WG[:-1], _WG[::-1]])
# _ray_volume bisects until its error is at most _RAY_TOL times the
# caller's scale, or until it holds _MAX_PANELS panels
_RAY_TOL = 1e-9
_MAX_PANELS = 32


@dataclass(frozen=True)
class LevelSet(SurfaceQuadrature):
    """A surface quadrature of {u = level} with the field at its nodes.
    Normals are -Du/|Du| on extracted level sets and the geometric outward
    normal on the boundary; mean_curv is taken about them."""

    level: float
    u_grad: np.ndarray           # |Du| per node
    radii: np.ndarray            # |x| per node
    grad: np.ndarray             # Du per node

    def __post_init__(self):
        if not self.u_grad.min() > REGULARITY_THRESHOLD:
            raise IrregularLevelSetError(
                f"level set {self.level} fails the regularity threshold "
                f"(min |Du| = {self.u_grad.min():.3e})")
        # level sets are shared through the solution's cache
        _frozen(*vars(self).values())


def _frozen(*values):
    """``values``, with the arrays among them made read-only for the cache."""
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return values


def _order_entry(sol, order):
    """The cache entry of ``order``: angular weights, unit directions and
    boundary exit radii, computed once per solution; the orbits of the
    rays [om, r_exit] under the solution's mirrors (_mirror_orbits: the
    first ray of each orbit, the orbit of each ray and the signs that map
    its first ray onto it); then the radius and u columns of the scan's
    march on the first rays, which _scan grows."""
    entry = sol._levelset_cache.get(order)
    if entry is None:
        theta, phi, W = angular_grid(order)
        om = unit_directions(theta, phi)
        r_exit = sol.domain.ray_exit_radius(om)
        [(rows, row_of, _, signs)] = _mirror_orbits(
            np.column_stack([om, r_exit]), axes=sol.mirrors)
        entry = sol._levelset_cache[order] = (
            *_frozen(W, om, r_exit, rows, row_of, signs), [], [])
    return entry


def _rays(sol, order):
    """Angular weights, unit directions and boundary exit radii at
    ``order``, computed once per solution."""
    return _order_entry(sol, order)[:3]


def _boundary(sol):
    """The boundary {u = c} as a LevelSet on the domain's quadrature at the
    solution's order, built once per solution."""
    ls = sol._levelset_cache.get("boundary")
    if ls is None:
        quad = build_quadrature(sol.domain, sol.order)
        [(rows, row_of, _, signs)] = _mirror_orbits(quad.nodes,
                                                    axes=sol.mirrors)
        grad = sol.field(quad.nodes[rows], want="grad",
                         check_region=False).grad[row_of] * signs
        ls = sol._levelset_cache["boundary"] = LevelSet(
            **vars(quad), level=sol.c, u_grad=np.linalg.norm(grad, axis=1),
            radii=np.linalg.norm(quad.nodes, axis=1), grad=grad)
    return ls


def check_level_range(problem, c, levels):
    """Raise LevelRangeError unless every level, taken to 15 digits as
    extract_level_set takes it, lies in the range of u: (0, c] for the
    exterior problem, [c, inf) for the interior one."""
    for lv in (float(f"{v:.15g}") for v in levels):
        if problem == "exterior" and not 0 < lv <= c:
            raise LevelRangeError(f"exterior levels lie in (0, {c}]; got {lv}")
        if problem == "interior" and not c <= lv < np.inf:
            raise LevelRangeError(f"interior levels lie in [{c}, inf); got {lv}")


def _scan(sol, order, c):
    """u on a geometric grid of radii along every ray, one call per column.

    The grid starts 1e-5 r on the domain's side of the boundary, at
    r_exit (1 - 1e-5) for the exterior problem and r_exit (1 + 1e-5) for
    the interior one, so that its first column brackets the level c
    itself.  It steps away from the domain, for at most 18 decades, until
    at least 8 columns are done and u is beyond the level by 1e-6 c on
    every ray; the margins keep roundoff from flipping the end signs.  The
    columns are the solution's march at ``order``: a level reads the
    columns an earlier one computed and computes only those past their
    end.  Columns come in increasing r.
    """
    check_level_range(sol.problem, sol.c, [c])
    _, om, r_exit, rows, *_, radii, vals = _order_entry(sol, order)
    om, r_exit = om[rows], r_exit[rows]
    # the exterior scan steps outward (sign 1), the interior one inward
    # (sign -1), so [:, ::sign] puts the interior columns in increasing r
    sign = 1 if sol.problem == "exterior" else -1
    for j in range(18 * _SCAN_PER_DECADE + 1):
        if j == len(vals):
            r = (r_exit * (1.0 - sign * 1e-5)
                 * 10.0 ** (sign * j / _SCAN_PER_DECADE))
            u = sol.field(r[:, None] * om, want="u", check_region=False).u
            _frozen(r, u)
            radii.append(r)
            vals.append(u)
        if j >= 7 and np.all(sign * (vals[j] - c) < -1e-6 * c):
            return (np.stack(radii[:j + 1], axis=1)[:, ::sign],
                    np.stack(vals[:j + 1], axis=1)[:, ::sign])
    raise LevelRangeError(f"could not enclose level {c} away from the boundary")


def _bracket(grid, vals, c):
    """Scan interval and u values at its ends where each ray crosses c.

    u - c must change sign exactly once per ray, else a named error.  The
    change runs from positive at the inner end to non-positive at the outer
    one, because in both problems u falls off along rays away from the
    high-u region.
    """
    above = vals > c
    changes = above[:, 1:] != above[:, :-1]
    n_changes = changes.sum(axis=1)
    if np.any(n_changes > 1):
        i = int(np.argmax(n_changes))
        raise NonStarShapedLevelSetError(
            f"u - {c} changes sign {int(n_changes[i])} times along a ray; "
            "the level set is not star-shaped about the origin")
    if np.any(n_changes == 0):
        i = int(np.argmin(n_changes))
        raise LevelRangeError(
            f"level {c} not bracketed along some ray "
            f"(u in [{vals[i].min():.3e}, {vals[i].max():.3e}])")
    j = np.argmax(changes, axis=1)
    rows = np.arange(len(grid))
    return grid[rows, j], grid[rows, j + 1], vals[rows, j], vals[rows, j + 1]


def _solve_radii(sol, om, c, lo, hi, u_lo, u_hi):
    """Radius of {u = c} on every ray by safeguarded Newton iteration from
    the log-log interpolation between the bracket ends; u - c is positive
    at lo and non-positive at hi."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lo * (hi / lo) ** (np.log(c / u_lo) / np.log(u_hi / u_lo))

    def f_and_slope(rays, r):
        st = sol.field(r[:, None] * om[rays], want="grad", check_region=False)
        return st.u - c, np.einsum("ns,ns->n", st.grad, om[rays])

    radii, todo = safeguarded_newton(f_and_slope, r, lo, hi, _RTOL,
                                     _MAX_STEPS)
    if len(todo):
        raise IrregularLevelSetError(
            f"radius of level set {c} did not converge on {len(todo)} rays "
            f"in {_MAX_STEPS} safeguarded Newton steps")
    return radii


def _level_set(sol, c, r, order):
    """The LevelSet {u = c} from its radii r on the first ray of each
    orbit: the field and the node data on those rays, copied to the other
    rays of each orbit, with the signs on Du and the normals."""
    W, om, _, rows, row_of, signs = _order_entry(sol, order)[:6]
    st = sol.field(r[:, None] * om[rows], want="hess", check_region=False)
    gn = np.linalg.norm(st.grad, axis=1)
    normals = -st.grad / gn[:, None]
    cos = np.einsum("ns,ns->n", normals, om[rows])
    if np.any(cos <= 0.01):
        raise NonStarShapedLevelSetError(
            f"level set {c} is nearly tangent to a ray (min cos "
            f"{cos.min():.3e}); radial-graph weights are unreliable")
    weights = W[rows] * r ** 2 / cos
    H = level_set_mean_curvature(st.grad, st.hess)
    r = r[row_of]
    return LevelSet(level=c, nodes=r[:, None] * om, weights=weights[row_of],
                    normals=normals[row_of] * signs, u_grad=gn[row_of],
                    mean_curv=H[row_of], radii=r,
                    grad=st.grad[row_of] * signs)


def _extract(sol, c, order):
    """The LevelSet {u = c} at ``order``: a scan, then Newton on the first
    ray of every orbit."""
    _, om, _, rows = _order_entry(sol, order)[:4]
    # the stacked scan arrays are released before the level is solved
    bracket = _bracket(*_scan(sol, order, c), c)
    r = _solve_radii(sol, om[rows], c, *bracket)
    return _level_set(sol, c, r, order)


def extract_level_set(sol, c, order=None):
    """Extract {u = c} as a star-shaped radial graph over an angular grid.

    The level must be in the range of u: (0, c_boundary] for exterior
    solutions, [c_boundary, infinity) for interior ones.  Raises
    NonStarShapedLevelSetError when a ray crosses the level more than once
    (reported, not worked around).  The level is taken to 15 significant
    digits, which keeps any level written with at most 15 digits and maps
    levels a few ulp apart, such as exp(log(3.0)) = 3.0000000000000004 and
    3.0, to one.  The result is cached on the solution: asking again for
    the same (level, order) returns the same read-only LevelSet.
    """
    order = order if order is not None else sol.order
    key = (float(f"{c:.15g}"), order)
    ls = sol._levelset_cache.get(key)
    if ls is None:
        ls = sol._levelset_cache[key] = _extract(sol, key[0], order)
    return ls


def surface_integral(ls, integrand):
    """Integrate per-node values over the level set (sum of weights * values)."""
    integrand = np.asarray(integrand, dtype=float)
    if integrand.shape[0] != len(ls.weights):
        raise ValueError(
            f"integrand length {integrand.shape[0]} does not match node "
            f"count {len(ls.weights)}")
    return float(ls.weights @ integrand)


def _ray_volume(sol, density, want, r_in, r_out, order, scale):
    """int F dmu over {r_in < r < r_out} on every ray, as (value, error).

    ``density`` maps the FieldStates of one node column (one point per
    orbit of rays, evaluated with ``want``) to the pair (F, dF) there, with
    dF an estimate of the roundoff of F at each point (0 where F is formed
    without cancellation); F is even under the solution's mirrors, as
    every density of |Du|, u and contractions of D2u is.  r_in holds one
    radius per ray of the angular grid at ``order``, r_out one per ray or
    is inf, and only the first ray of each orbit is read: level-set radii
    are equal on an orbit, exit radii to roundoff.  Panels are
    nested G7/K15 rules in a parameter s on [0, 1] shared by all rays: in
    log r, r = r_in (r_out/r_in)^s with dmu = r^3 log(r_out/r_in) ds dOmega,
    or out to infinity in t = r_in/r = s with dmu = r_in^3 t^-4 dt dOmega.
    A panel's error is |K15 - G7| summed over rays, at least the roundoff
    floor: 50 eps times K15 of |F| (the floor of QUADPACK qk15) plus K15 of
    dF.  The panel with the largest error is bisected until the summed
    error is at most _RAY_TOL times ``scale``; at _MAX_PANELS panels the
    error is returned as it is.
    """
    W, om, _, rows, row_of = _order_entry(sol, order)[:5]
    W, om = np.bincount(row_of, weights=W), om[rows]   # orbit totals
    r_in, r_out = r_in[rows], np.broadcast_to(r_out, r_in.shape)[rows]
    if np.all(np.isinf(r_out)):
        def radius_and_measure(s):
            return r_in / s, r_in ** 3 / s ** 4
    else:
        log_ratio = np.log(r_out / r_in)

        def radius_and_measure(s):
            r = r_in * np.exp(s * log_ratio)
            return r, r ** 3 * log_ratio

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        f = np.empty((len(_GK15_NODES), len(r_in)))
        df = np.zeros_like(f)
        # one field call per node column: density takes one point per ray
        for k, x in enumerate(_GK15_NODES):
            r, measure = radius_and_measure(lo + half * (1.0 + x))
            st = sol.field(r[:, None] * om, want=want, check_region=False)
            f[k], df[k] = density(st)
            f[k] *= W * measure
            df[k] *= W * measure
        k15, g7 = half * (_K15_WEIGHTS @ f), half * (_G7_WEIGHTS @ f)
        roundoff = (50.0 * np.finfo(float).eps * half
                    * np.sum(_K15_WEIGHTS @ np.abs(f))
                    + half * np.sum(_K15_WEIGHTS @ df))
        return float(np.sum(k15)), max(float(np.sum(np.abs(k15 - g7))),
                                       float(roundoff))

    panels = {(0.0, 1.0): panel(0.0, 1.0)}
    while (sum(e for _, e in panels.values()) > _RAY_TOL * scale
           and len(panels) < _MAX_PANELS):
        lo, hi = max(panels, key=lambda p: panels[p][1])
        del panels[(lo, hi)]
        mid = 0.5 * (lo + hi)
        panels[(lo, mid)] = panel(lo, mid)
        panels[(mid, hi)] = panel(mid, hi)
    return (sum(v for v, _ in panels.values()),
            sum(e for _, e in panels.values()))
