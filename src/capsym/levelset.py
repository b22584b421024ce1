"""Level sets {u = c} extracted as star-shaped radial graphs.

Each angular direction gets one ray from the origin.  The levels requested
together share one scan of u along the rays, on a geometric grid of 16
radii per decade from the boundary to the lowest exterior (or highest
interior) level.  The scan is also the star-shapedness check: u - c must
change sign exactly once on every ray, else the level is reported
(NonStarShapedLevelSetError, LevelRangeError), not worked around.

Each level is then solved per ray by safeguarded Newton iteration (rtsafe,
Numerical Recipes section 9.4) inside its scan bracket.  The first iterate
interpolates log u linearly in log r between the bracketing scan values,
exact for u ~ r^-p; a step that leaves the bracket, or does not halve the
previous one, is replaced by bisection.  A ray stops when its step or its
bracket is below 1e-14 r, so |u - c| <= 1e-12 c at the nodes; a ray that
does not converge raises IrregularLevelSetError.  One Hessian evaluation
per level at the nodes gives the weights and curvatures.  Every LevelSet
is regular by construction: where min |Du| <= REGULARITY_THRESHOLD, every
extraction path raises IrregularLevelSetError naming the level.

Surface weights use the solid-angle projection dsigma = r^2 dOmega / <nu, omega>
with nu = -Du/|Du|, so no numerical differentiation of the extracted graph is
ever needed; mean curvature comes from the solution's analytic Hessian via
H = D2u(nu, nu)/|Du|.

Each solution caches the angular grid, directions and boundary exit radii
per order, and every LevelSet that extract_level_set returns, per (level,
order); cached arrays are read-only.  extract_level_sets reads the cache
but does not add to it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .conformal import level_set_mean_curvature
from .errors import (IrregularLevelSetError, LevelRangeError,
                     NonStarShapedLevelSetError)
from .geometry import angular_grid, unit_directions

REGULARITY_THRESHOLD = 1e-8
_SCAN_PER_DECADE = 16
_RTOL = 1e-14
# a scan interval spans at most a factor 10^(1/14) in r; pure bisection
# narrows it to _RTOL * r in 45 steps
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


@dataclass(frozen=True)
class LevelSet:
    """Quadrature-ready discretization of one level set {u = c}."""

    level: float
    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray          # -Du/|Du| per node
    u_grad: np.ndarray           # |Du| per node
    mean_curv: np.ndarray        # H per node, normal -Du/|Du|
    radii: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        # level sets are shared through the solution's cache
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def area(self):
        return float(np.sum(self.weights))

    def export_csv(self, path):
        """Write nodes as CSV with columns theta, phi, radius, x, y, z,
        grad_norm, mean_curvature."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["theta", "phi", "radius", "x", "y", "z",
                             "grad_norm", "mean_curvature"])
            for i in range(len(self.radii)):
                writer.writerow([repr(float(v)) for v in
                                 (self.theta[i], self.phi[i], self.radii[i],
                                  self.nodes[i, 0], self.nodes[i, 1],
                                  self.nodes[i, 2], self.u_grad[i],
                                  self.mean_curv[i])])


def _rays(sol, order):
    """Angular grid, unit directions and boundary exit radii at ``order``,
    computed once per solution."""
    rays = sol._levelset_cache.get(order)
    if rays is None:
        theta, phi, W = angular_grid(order)
        om = unit_directions(theta, phi)
        r_exit = np.atleast_1d(sol.domain.ray_exit_radius(om))
        rays = sol._levelset_cache[order] = (theta, phi, W, om, r_exit)
    return rays


def _scan_bounds(sol, om, r_exit, levels):
    """Per-ray radii between which u passes through every level."""
    if sol.problem == "exterior":
        for c in levels:
            if not 0 < c <= sol.c:
                raise LevelRangeError(
                    f"exterior levels lie in (0, {sol.c}]; got {c}")
        c = min(levels)
        r_lo = r_exit * (1.0 - 1e-5)
        # push the outer bound until u sits below the lowest level with
        # margin, so the scan endpoints cannot flip sign through roundoff
        r_hi = np.full_like(r_lo, 2.0 * r_exit.max())
        for _ in range(60):
            u_hi = sol.field(r_hi[:, None] * om, want="u", check_region=False).u
            if np.all(u_hi < c * (1.0 - 1e-6)):
                return r_lo, r_hi
            r_hi = np.where(u_hi < c * (1.0 - 1e-6), r_hi, r_hi * 2.0)
        raise LevelRangeError(f"could not enclose level {c} from above")
    for c in levels:
        if not c >= sol.c:
            raise LevelRangeError(
                f"interior levels lie in [{sol.c}, inf); got {c}")
    c = max(levels)
    r_hi = r_exit * (1.0 + 1e-12)
    # inside the singular term dominates: u >= s0/r - |v| surely exceeds c
    v_bound = abs(sol.c) + abs(sol.singular_coefficient) / r_exit.min() + abs(c)
    r_lo = np.full_like(r_hi, min(
        0.25 * r_exit.min(),
        sol.singular_coefficient / (c + 2.0 * v_bound)))
    return r_lo, r_hi


def _scan(sol, om, r_lo, r_hi):
    """u on a geometric grid of radii along every ray, one call per column."""
    n = max(8, int(_SCAN_PER_DECADE * np.log10(r_hi.max() / r_lo.min())) + 1)
    t = np.linspace(0.0, 1.0, n)
    grid = np.exp(np.log(r_lo)[:, None] * (1 - t)[None, :]
                  + np.log(r_hi)[:, None] * t[None, :])
    vals = np.empty_like(grid)
    for j in range(n):
        vals[:, j] = sol.field(grid[:, j][:, None] * om, want="u",
                               check_region=False).u
    return grid, vals


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
    """Radius of {u = c} on every ray by safeguarded Newton iteration.

    u - c is positive at lo and non-positive at hi.  Every evaluation
    narrows the bracket; a Newton step that leaves it, or is not at most
    half the previous step, is replaced by bisection (rtsafe).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        r = lo * (hi / lo) ** (np.log(c / u_lo) / np.log(u_hi / u_lo))
    r = np.where((r > lo) & (r < hi), r, 0.5 * (lo + hi))
    dx_old = hi - lo
    radii = np.empty_like(r)
    todo = np.arange(len(r))
    for _ in range(_MAX_STEPS):
        st = sol.field(r[:, None] * om[todo], want="grad", check_region=False)
        f = st.u - c
        slope = np.einsum("ns,ns->n", st.grad, om[todo])
        lo = np.where(f > 0, r, lo)
        hi = np.where(f > 0, hi, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(f == 0, 0.0, f / slope)
        newton = ((r - dx >= lo) & (r - dx <= hi)
                  & (np.abs(dx) <= 0.5 * dx_old))
        dx = np.where(newton, dx, r - 0.5 * (lo + hi))
        r = r - dx
        done = (np.abs(dx) <= _RTOL * r) | (hi - lo <= _RTOL * r)
        radii[todo[done]] = r[done]
        if done.all():
            return radii
        keep = ~done
        todo, r, lo, hi = todo[keep], r[keep], lo[keep], hi[keep]
        dx_old = np.abs(dx[keep])
    raise IrregularLevelSetError(
        f"radius of level set {c} did not converge on {len(todo)} rays in "
        f"{_MAX_STEPS} safeguarded Newton steps", level=c)


def _level_set(sol, c, r, om, theta, phi, W):
    nodes = r[:, None] * om
    st = sol.field(nodes, want="hess", check_region=False)
    gn = np.linalg.norm(st.grad, axis=1)
    if not gn.min() > REGULARITY_THRESHOLD:
        raise IrregularLevelSetError(
            f"level set {c} fails the regularity threshold "
            f"(min |Du| = {gn.min():.3e})", level=c)
    normals = -st.grad / gn[:, None]
    cos = np.einsum("ns,ns->n", normals, om)
    if np.any(cos <= 0.01):
        raise NonStarShapedLevelSetError(
            f"level set {c} is nearly tangent to a ray (min cos "
            f"{cos.min():.3e}); radial-graph weights are unreliable")
    weights = W * r ** 2 / cos
    H = level_set_mean_curvature(st.grad, st.hess)
    return LevelSet(level=c, nodes=nodes, weights=weights,
                    normals=normals, u_grad=gn, mean_curv=H, radii=r,
                    theta=theta, phi=phi, grad=st.grad, hess=st.hess)


def _extract(sol, levels, order):
    """Yield the level sets of the float ``levels`` at ``order`` in turn,
    from one scan that checks every level before the first is solved."""
    theta, phi, W, om, r_exit = _rays(sol, order)
    grid, vals = _scan(sol, om, *_scan_bounds(sol, om, r_exit, levels))
    brackets = [_bracket(grid, vals, c) for c in levels]
    del grid, vals      # not needed while the levels are solved
    for c, b in zip(levels, brackets):
        yield _level_set(sol, c, _solve_radii(sol, om, c, *b), om, theta, phi, W)


def _level_sets(sol, levels, order):
    """Yield a LevelSet per level, in order: cached ones from the cache, the
    others from one shared scan, each built only when it is consumed."""
    order = order if order is not None else sol.order
    levels = [float(c) for c in levels]
    hits = [sol._levelset_cache.get((c, order)) for c in levels]
    new = _extract(sol, [c for c, ls in zip(levels, hits) if ls is None], order)
    for ls in hits:
        yield ls if ls is not None else next(new)


def extract_level_set(sol, c, order=None):
    """Extract {u = c} as a star-shaped radial graph over an angular grid.

    The level must be in the range of u: (0, c_boundary] for exterior
    solutions, [c_boundary, infinity) for interior ones.  Raises
    NonStarShapedLevelSetError when a ray crosses the level more than once
    (reported, not worked around).  The result is cached on the solution:
    asking again for the same (level, order) returns the same read-only
    LevelSet.
    """
    order = order if order is not None else sol.order
    key = (float(c), order)
    ls = sol._levelset_cache.get(key)
    if ls is None:
        ls = sol._levelset_cache[key] = next(_extract(sol, [key[0]], order))
    return ls


def extract_level_sets(sol, levels, order=None):
    """Extract several level sets {u = c} with one shared radial scan.

    Returns one LevelSet per entry of ``levels``, in order, equal to what
    extract_level_set gives to roundoff, and raises the same errors, naming
    the offending level.  Levels cached by extract_level_set are reused;
    the others are not cached, so they live only as long as the caller
    keeps them.
    """
    return list(_level_sets(sol, levels, order))


def surface_integral(ls, integrand):
    """Integrate per-node values over the level set (sum of weights * values)."""
    integrand = np.asarray(integrand, dtype=float)
    if integrand.shape[0] != len(ls.weights):
        raise ValueError(
            f"integrand length {integrand.shape[0]} does not match node "
            f"count {len(ls.weights)}")
    return float(ls.weights @ integrand)


def coarea_volume_integral(sol, integrand, c_min, c_max, order=None):
    """Volume integral between two levels via the coarea formula.

    Computes int_{c_min < u < c_max} F dmu as a sum over levels c of
    int_{u=c} F/|Du| dsigma, where ``integrand`` maps a LevelSet to
    per-node values of F.  The rule in c is the 15-point Gauss-Kronrod rule
    K15 with its embedded 7-point Gauss rule G7 (QUADPACK qk15; Piessens et
    al. 1983): the G7 levels are K15 levels, so the same 15 level sets,
    each solved once and held one at a time, give the value (K15) and its
    error estimate |K15 - G7|, returned as (value, error).  An irregular
    level set aborts with the offending level named.
    """
    if not c_min < c_max:
        raise ValueError("need c_min < c_max")
    half = 0.5 * (c_max - c_min)
    cs = 0.5 * (c_min + c_max) + half * _GK15_NODES
    slices = np.empty(len(cs))
    # one level set alive at a time
    for k, ls in enumerate(_level_sets(sol, cs, order)):
        vals = np.asarray(integrand(ls), dtype=float)
        slices[k] = ls.weights @ (vals / ls.u_grad)
    value = half * float(_K15_WEIGHTS @ slices)
    return value, abs(value - half * float(_G7_WEIGHTS @ slices))
