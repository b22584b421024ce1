"""Harmonic potential solves by superposition of point-source kernels.

Every solution is a sum of kernel charges q_j / |x - y_j| with the sources
off the boundary, plus a constant, so the field is exactly harmonic
wherever it is evaluated, with analytic gradient and Hessian.  The pole
d |dOmega| a_n |x|^(2-n) of the interior problem is exact, never
discretized: one more charge, at the origin, in the same sum.

Quadrics are solved in closed form where one is known (Kellogg 1929):
outside a sphere or an ellipsoid by the equilibrium charge Q = c /
R_F(a1^2, a2^2, a3^2) on its focal set (_focal_charges), inside a sphere
by the ball's Green's function, one Kelvin image charge and a constant
(_sphere_charges).  Stars, for both problems, and interior ellipsoids are
solved by the method of fundamental solutions: a least-squares fit of the
charges to the boundary data at collocation nodes, with the sources on one
rule of rings on the radial graph, contracted inside the domain for the
exterior problem and dilated outside it for the interior one (_placement).
The fit is solved on its mirror-invariant subspace (Allgower et al., SIAM
J. Numer. Anal. 29, 1992): a row per node orbit and a column per source
orbit under the origin's coordinate-plane reflections that keep both.
The reflections that keep the charges (HarmonicSolution.mirrors) leave u
unchanged, so the evaluations on grids fold the same way: the check
grid, the direction averages of decay_report and the rays and nodes of
capsym.levelset are evaluated at one point per orbit, by the solve's own
orbit routine (_mirror_orbits), and the values copied to the orbit.

Every solve measures the fit at its nodes (for a closed form, the order's
own grid) and its check misfit, max |u - c|/c on an independent grid of
order n + 8, in one u call, and fails unless both meet the per-kind
tolerance: the fit alone can hide a wrong solution (Barnett & Betcke,
J. Comput. Phys. 227, 2008).

Kernel sums are evaluated in BLAS form.  The squared distances come from
one matrix product of augmented rows, r^2 = [x, |x|^2, 1] . [-2y, 1,
|y|^2]^T, and u and Du from products of 1/r and 1/r^3 with the charges and
their first moments q y.  The Hessian is one product of 1/r^5 with the
moments [q, q y, q y y], never a tensor of differences x - y.  Points are
taken in row chunks of _CHUNK_PAIRS point-source pairs, so the temporaries
stay in L2 cache.  The collocation matrix is built by the same routine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import (ConfigError, InsufficientSamplesError,
                     OutOfRegionError, SolverFailureError)
from .geometry import (MIN_ORDER, DomainSpec, _camel, _integer, _json_fields,
                       _load_json, _number, _read_object, angular_grid,
                       build_quadrature, gauss_legendre, unit_directions,
                       unit_sphere_area)

N_DIM = 3
A_N = 1.0 / ((N_DIM - 2) * unit_sphere_area(N_DIM))   # 1/(4 pi)

DEFAULT_ORDER = {"sphere": 16, "ellipsoid": 24, "star": 32}
DEFAULT_TOLERANCE_EXTERIOR = {"sphere": 1e-9, "ellipsoid": 1e-7, "star": 1e-7}
DEFAULT_TOLERANCE_INTERIOR = {"sphere": 1e-9, "ellipsoid": 1e-5, "star": 1e-5}
# relative truncated-SVD cutoff of the collocation least-squares solve
_RCOND = 1e-12


@dataclass(frozen=True)
class FieldStates:
    """Vectorized potential data at many points."""

    points: np.ndarray
    u: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    @property
    def grad_norm(self):
        return np.linalg.norm(self.grad, axis=-1)


@dataclass(frozen=True)
class HarmonicSolution:
    """Solver state: kernel sources and charges plus problem constants.

    For the interior problem ``singular_coefficient`` is d*|dOmega|*a_n, the
    coefficient of |x|^(2-n): field adds it to ``sources`` as the charge at
    the origin.  It is zero for exterior solutions.  ``constant`` is added
    to u everywhere: c for an interior sphere off the pole, c -
    d*|dOmega|*a_n/R for one centered on it, and 0 for every other
    solution.  That centered sphere keeps one zero charge outside the ball,
    because an empty source array is saved as [], which reads back with
    shape (0,), not (0, 3).  ``condition_estimate`` is that of the weighted
    mirror-invariant collocation system solved, 1.0 for every closed form.
    ``check_misfit`` is max |u - c|/c on the boundary grid of order + 8.

    A saved solution is the JSON object of every public field under its
    _camel name (singularCoefficient, fitResidual, conditionEstimate,
    checkMisfit, ...), with the domain in its own keys; a file lacking one
    of them or carrying another key is an error, and so are sources not of
    shape (M, 3), charges not of shape (M,), an order below MIN_ORDER and a
    problem, c or d that solve_exterior or solve_interior would refuse.
    """

    problem: str                  # "exterior" | "interior"
    c: float                      # Dirichlet boundary value
    d: float | None               # interior flux density (None for exterior)
    domain: DomainSpec
    sources: np.ndarray
    charges: np.ndarray
    singular_coefficient: float
    constant: float
    fit_residual: float
    order: int
    condition_estimate: float
    check_misfit: float
    # rays and the scan's march per order, the boundary LevelSet and the
    # extracted LevelSets of this solution, read and written by
    # capsym.levelset alone
    _levelset_cache: dict = field(default_factory=dict, init=False,
                                  repr=False, compare=False)

    def field(self, points, want="hess", check_region=True):
        """Evaluate (u, Du, D2u) at many points.

        want is "u", "grad", or "hess" and controls how much is computed.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if check_region:
            self._check_region(pts)
        u, g, h = _kernel_sums(pts, *self._all_charges(), want)
        return FieldStates(points=pts, u=u + self.constant, grad=g, hess=h)

    @cached_property
    def mirrors(self):
        """The axes k whose reflection x_k -> -x_k maps the nonzero
        charges, the pole included, onto themselves, as _mirror matches
        them: u is even under each of them."""
        f = np.column_stack(self._all_charges())
        f = f[f[:, N_DIM] != 0.0]
        return tuple(k for k, p in enumerate(_mirror(f)) if p is not None)

    def _all_charges(self):
        """(sources, charges) with the pole as one more charge, at the
        origin, when it is there."""
        if self.singular_coefficient == 0.0:
            return self.sources, self.charges
        return (np.vstack([self.sources, np.zeros((1, 3))]),
                np.append(self.charges, self.singular_coefficient))

    def _check_region(self, pts):
        if self.problem == "exterior":
            # the closed boundary itself is part of the exterior region
            strictly_inside = self.domain.contains(pts, tol=-1e-9)
            if np.any(strictly_inside):
                bad = pts[np.argmax(strictly_inside)]
                raise OutOfRegionError(
                    f"point {bad.tolist()} lies inside the domain; the "
                    "exterior solution is only valid outside")
            return
        inside = self.domain.contains(pts, tol=1e-9)
        if not np.all(inside):
            bad = pts[np.argmin(inside)]
            raise OutOfRegionError(
                f"point {bad.tolist()} lies outside the closed domain; "
                "the interior solution is only valid inside")
        # |x|^2 as the kernel sum forms it for the pole's 1/r
        if np.any(np.einsum("ij,ij->i", pts, pts) == 0.0):
            raise OutOfRegionError("interior solution is singular at the origin")

    # -- serialization ------------------------------------------------------

    to_json_dict = _json_fields

    @classmethod
    def from_json_dict(cls, data, where="solution"):
        """The solution to_json_dict wrote, read by _read_object with
        _SOLUTION_READERS; where names it in errors."""
        keys = {_camel(name): reader
                for name, reader in _SOLUTION_READERS.items()}
        read = _read_object(data, where, keys, tuple(keys))
        read = {name: read[_camel(name)] for name in _SOLUTION_READERS}
        m, d = read["sources"].shape[:1], read["d"]
        exterior = read["problem"] == "exterior"
        for key, ok, rule in (   # the rules of solve_exterior, solve_interior
                ("problem", exterior or read["problem"] == "interior",
                 "be 'exterior' or 'interior'"),
                ("c", 0 < read["c"] < math.inf, "be positive and finite"),
                ("d", d is None if exterior else 0 < (d or 0) < math.inf,
                 "be null for an exterior solution, else positive and finite"),
                ("order", read["order"] >= MIN_ORDER, f"be at least {MIN_ORDER}"),
                ("sources", read["sources"].shape == (*m, 3),
                 f"have shape {(*m, 3)}"),
                ("charges", read["charges"].shape == m, f"have shape {m}")):
            if not ok:
                shown = getattr(read[key], "shape", read[key])
                raise ConfigError(f"{key!r} in {where} must {rule}: {shown!r}")
        read["domain"] = DomainSpec.from_json_dict(read["domain"],
                                                   f"domain of {where}")
        return cls(**read)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(_load_json(path), f"solution {path}")


# the reader of each field of a saved solution (None: as is); the file's
# key is the field's _camel name, and every key is required
_SOLUTION_READERS = {
    **dict.fromkeys(("c", "singular_coefficient", "constant", "fit_residual",
                     "condition_estimate", "check_misfit"), _number),
    "d": lambda v: None if v is None else _number(v),
    **dict.fromkeys(("sources", "charges"),
                    lambda v: np.asarray(v, dtype=float)),
    "problem": None, "domain": None, "order": _integer}


# ---------------------------------------------------------------------------
# kernel sums
# ---------------------------------------------------------------------------

# Point-source pairs per row chunk of a kernel sum: each (chunk, M)
# temporary is 512 KiB, so 1/r and its powers stay in a 2 MiB L2 cache
# while they are formed and multiplied, however many points are evaluated.
_CHUNK_PAIRS = 1 << 16

# S[:, _SYM[a, b]] picks entry (a, b) of a symmetric 3x3 matrix stored as
# its upper triangle in the order of np.triu_indices(3).
_TRIU = np.triu_indices(3)
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _source_rows(y):
    """The (5, len(y)) augmented source rows [-2y, 1, |y|^2]^T."""
    return np.vstack([-2.0 * y.T, np.ones(len(y)),
                      np.einsum("ij,ij->i", y, y)])


def _point_rows(x):
    """The (len(x), 5) augmented point rows [x, |x|^2, 1]."""
    return np.column_stack([x, np.einsum("ij,ij->i", x, x), np.ones(len(x))])


def _inverse_distance(x_rows, y_rows):
    """The (len(x), len(y)) matrix 1/|x_i - y_j|, with x_rows =
    _point_rows(x) and y_rows = _source_rows(y).

    r^2 = |x|^2 + |y|^2 - 2 x.y^T is one matrix product of the point rows
    with the source rows and is turned into 1/r in place.  x and y are not
    centred on the domain, which contains the origin, and the pole's row
    [0, 0, 0, 1, 0] gives r^2 = |x|^2 exactly.
    """
    w = x_rows @ y_rows
    np.sqrt(w, out=w)
    np.divide(1.0, w, out=w)
    return w


def _kernel_sums(x, y, q, want):
    """u = sum_j q_j / |x - y_j| with its gradient and Hessian.

    want is "u", "grad" or "hess"; the parts not asked for are None.  With
    d = x - y, the sums are reduced to products of powers of 1/r with
    charge-weighted moments of the sources:

        Du   = T1 - x T0,                 T = r^-3 @ [q, q y]
        D2u  = 3 (x x S0 - x S1 - S1 x + S2) - I T0,
                                          S = r^-5 @ [q, q y, q y y]

    Rows of x are taken in chunks of about _CHUNK_PAIRS pairs; the point
    rows are built once and sliced per chunk.
    """
    x_rows, y_rows = _point_rows(x), _source_rows(y)
    if want != "u":
        qy = q[:, None] * y
        m1 = np.column_stack([q, qy])
        m2 = np.column_stack([m1, qy[:, _TRIU[0]] * y[:, _TRIU[1]]])
    n = len(x)
    u = np.empty(n)
    g = np.empty((n, 3)) if want != "u" else None
    h = np.empty((n, 3, 3)) if want == "hess" else None
    rows = max(1, _CHUNK_PAIRS // len(y))
    for lo in range(0, n, rows):
        sl = slice(lo, lo + rows)
        xc = x[sl]
        w = _inverse_distance(x_rows[sl], y_rows)
        u[sl] = w @ q
        if want == "u":
            continue
        w2 = w * w
        w *= w2                                     # 1/r^3
        t = w @ m1
        g[sl] = t[:, 1:] - xc * t[:, :1]
        if want == "grad":
            continue
        w *= w2                                     # 1/r^5
        s = w @ m2
        x_s1 = xc[:, :, None] * s[:, None, 1:4]
        hc = xc[:, :, None] * xc[:, None, :] * s[:, 0, None, None]
        hc -= x_s1 + x_s1.transpose(0, 2, 1)
        hc += s[:, 4 + _SYM]
        hc *= 3.0
        hc -= np.eye(3) * t[:, 0, None, None]
        h[sl] = hc
    return u, g, h


# ---------------------------------------------------------------------------
# source placement
# ---------------------------------------------------------------------------

def _placement(order):
    """(source grid order g, contraction, ring width, node order) of every
    collocation solve at this order; a closed form (_focal_charges,
    _sphere_charges) is measured on the grid of the order itself.

    Sources sit on the g Gauss-Legendre rings in theta of the radial graph
    contracted by this factor, or for the interior remainder dilated by its
    inverse.  Ring j carries min(2g, max(8, ceil(w g sin theta_j)))
    equally spaced phi for ring width w; at w = inf every ring has 2g, the
    directions of angular_grid(g).  The boundary data are collocated on the
    angular grid of the node order.

    One rule serves every order, from a table of check misfit against
    solve time on four stars at orders 32, 40 and 48 (CHANGES.md): 0.5 on
    rings of g = n/4 + 14, narrowed to width 2.5 and collocated on the grid
    of order g + 8.  Full rings of order 5n/8 at 0.35 have a lower rank at
    the SVD cutoff (509 of 800 sources at order 32) and a 2.4 to 46 times
    higher check misfit in more time.  Order 32 takes 730 sources on 1,800
    nodes, and MIN_ORDER = 6 takes g = 15 (346 sources) on the 1,058 nodes
    of order 23.  Inside the ellipsoid (2,1,1) at order 24 the rule fits 56
    times better than full rings on its confocal ellipsoid (1.4e-7, 7.8e-6).
    """
    grid = order // 4 + 14
    return grid, 0.5, 2.5, grid + 8


def _carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z) of x, y, z >= 0,
    at most one of them zero, by duplication (Carlson, Numer. Algorithms
    10, 1995): each step keeps R_F and moves x, y and z a quarter of the way
    together.  Within 1e-3 of their mean A, the fifth-order series in
    X = 1 - x/A, ... errs by less than 1e-18.  A NaN stops the steps.
    """
    v = np.array([x, y, z], dtype=float)
    while np.abs(1.0 - v / v.mean(axis=0)).max() >= 1e-3:
        s = np.sqrt(v)
        v = (v + s[0] * s[1] + s[1] * s[2] + s[2] * s[0]) / 4.0
    a = v.mean(axis=0)
    dx, dy, dz = 1.0 - v / a
    e2, e3 = dx * dy - dz * dz, dx * dy * dz
    return (1.0 - e2 / 10 + e3 / 14 + e2 * e2 / 24 - 3 * e2 * e3 / 44) / np.sqrt(a)


def _focal_charges(spec, c, order):
    """(sources, charges) of the exact exterior potential of a sphere or an
    ellipsoid with u = c on it: the equilibrium charge Q = c / R_F(a1^2,
    a2^2, a3^2) on its focal set (Kellogg 1929, ch. VII).

    With semi-axes sorted a1 >= a2 >= a3, alpha = sqrt(a1^2 - a3^2) and
    beta = sqrt(a2^2 - a3^2), the focal set is the degenerate confocal
    ellipsoid.  Equal axes put Q at the center (c R for a sphere).  At
    beta = 0 the segment [-alpha, alpha] carries the uniform density
    Q / (2 alpha): Q w_i / 2 at order + 8 Gauss nodes alpha x_i.  Else the
    elliptical disk of semi-axes alpha, beta carries Q / (2 pi alpha beta
    sqrt(1 - rho^2)), rho^2 = x^2/alpha^2 + y^2/beta^2; with rho = sin t
    the rim singularity cancels, and order - 4 Gauss rings t_j in
    [0, pi/2] carry Q w_j sin t_j each, split equally over max(8,
    ceil(5 (order + 8) sin t_j)) equally spaced phi.
    """
    center = np.asarray(spec.center, dtype=float)
    axes = np.asarray(spec.axes or (spec.radius,) * 3, dtype=float)
    idx = np.argsort(axes)[::-1]
    a1, a2, a3 = axes[idx]
    q = c / float(_carlson_rf(a1 * a1, a2 * a2, a3 * a3))
    alpha, beta = (math.sqrt(a * a - a3 * a3) for a in (a1, a2))
    if alpha < 1e-9 * a1:
        return center[None, :], np.array([q])
    if beta < 1e-9 * a1:
        x, w = gauss_legendre(order + 8)
        local = [alpha * x, np.zeros_like(x), np.zeros_like(x)]
        charges = q * w / 2.0
    else:
        x, w = gauss_legendre(order - 4)
        t = np.pi / 4 * (x + 1.0)
        count = np.maximum(8, np.ceil(5 * (order + 8) * np.sin(t))).astype(int)
        rho = np.repeat(np.sin(t), count)
        ph = np.concatenate([2.0 * np.pi * np.arange(n) / n for n in count])
        local = [alpha * rho * np.cos(ph), beta * rho * np.sin(ph),
                 np.zeros_like(ph)]
        charges = np.repeat(q * np.pi / 4 * w * np.sin(t) / count, count)
    # local[k] lies along axis idx[k]
    sources = np.column_stack([local[k] for k in np.argsort(idx)])
    return sources + center, charges


def _graph_points(spec, grid_order, factor, ring=math.inf):
    """The radial graph scaled by factor about the center, on the
    Gauss-Legendre rings of grid_order of width ring (see _placement):
    sources, or at factor 1 and full width boundary points."""
    x, _ = gauss_legendre(grid_order)
    th = np.arccos(x)
    width = np.minimum(2 * grid_order, np.maximum(
        8, np.ceil(ring * grid_order * np.sin(th)))).astype(int)
    th = np.repeat(th, width)
    ph = np.concatenate([2.0 * np.pi * np.arange(n) / n for n in width])
    rho = spec.rho(th, ph)
    return np.asarray(spec.center) + factor * rho[:, None] * unit_directions(th, ph)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

_KEY_OFFSET = 1 << 20
_KEY_SHIFTS = np.array([0, 21, 42])


def _mirror(f, axes=range(N_DIM)):
    """For each k in axes, p with row p[i] of f the image of row i (a
    point, then its values) under x_k -> -x_k to 1e-12 of each column's
    largest magnitude, or None.

    Rows are paired by sorting on coordinates rounded to 1e-6 of the
    largest one, far below the spacing of nodes or sources; a pair that
    the rounding splits fails the match, which only loses the mirror.  A
    set whose coordinates are all 0 is rounded at unit scale.  The rounded
    z, y and x, at most 10^6 in magnitude, are offset by _KEY_OFFSET = 2^20
    into disjoint 21-bit fields of one int64 key, z highest: the keys order
    rows as a lexsort on (z, y, x) does, and a stable argsort keeps equal
    rows in index order as the lexsort does, so every pair is the
    lexsort's.  Rounding is odd, so an image's key only negates field k,
    and the sort of f's own keys serves every axis."""
    scale = np.abs(f).max(axis=0, initial=0.0)
    unit = 1e6 / (scale[:N_DIM].max() or 1.0)
    ints = np.round(f[:, :N_DIM] * unit).astype(np.int64)
    key = ((ints + _KEY_OFFSET) << _KEY_SHIFTS).sum(axis=1)
    a = np.argsort(key, kind="stable")
    maps = []
    for k in axes:
        b = np.argsort(key - ints[:, k] * (2 << _KEY_SHIFTS[k]), kind="stable")
        p = np.empty_like(a)
        p[b] = a    # row b[i] of the image set pairs with row a[i] of f
        g = f * np.where(np.arange(f.shape[1]) == k, -1.0, 1.0)
        maps.append(p if np.all(np.abs(f[p] - g) <= 1e-12 * scale) else None)
    return maps


def _mirror_orbits(*sets, axes=range(N_DIM)):
    """(first member, orbit of each row, orbit size, signs of each row) of
    each set under the reflections x_k -> -x_k, k in axes, that _mirror
    finds for every set.  A row's signs (+-1 per axis) are the reflection
    that maps its orbit's first member onto it: a field even under the
    reflections has there the first member's u, Du times the signs and
    D2u times the signs on both its rows and its columns."""
    firsts = [np.arange(len(f)) for f in sets]
    signs = [np.ones((len(f), N_DIM)) for f in sets]
    per_axis = zip(*(_mirror(f, axes) for f in sets)) if axes else ()
    for k, maps in zip(axes, per_axis):
        if any(p is None for p in maps):
            continue
        flip = np.where(np.arange(N_DIM) == k, -1.0, 1.0)
        for i, (first, sign, p) in enumerate(zip(firsts, signs, maps)):
            # they commute: row j's orbit joins that of its image p[j],
            # whose first member reaches j through p[j] and then k
            moved = first[p] < first
            firsts[i] = np.where(moved, first[p], first)
            signs[i] = np.where(moved[:, None], sign[p] * flip, sign)
    return [(*np.unique(i, return_inverse=True, return_counts=True), s)
            for i, s in zip(firsts, signs)]


def _collocation_solve(quad, sources, rhs):
    """(charges, condition estimate) of the weighted least-squares fit of
    the sources' kernels to rhs at the nodes of quad: a row per node orbit,
    at its first node and weighted by the root of its total weight, and a
    column per orbit of s sources, their kernels summed over root s, whose
    coefficient over root s is each one's charge.  The singular values are
    the full matrix's on the invariant subspace, which holds rhs and, by
    Perron-Frobenius, the largest: cutoff and solution are the full fit's."""
    w = quad.weights
    (rows, row_of, _, _), (_, col_of, size, _) = _mirror_orbits(
        np.column_stack([quad.nodes, w, rhs]), sources)
    A = _inverse_distance(_point_rows(quad.nodes[rows]),
                          _source_rows(sources))
    if len(size) < len(sources):   # sum each orbit's columns
        order = np.argsort(col_of, kind="stable")
        A = np.add.reduceat(A[:, order], np.cumsum(size) - size, axis=1)
        A /= np.sqrt(size)
    sw = np.sqrt(np.bincount(row_of, weights=w))
    A *= sw[:, None]    # weighted in place: the solve holds one matrix
    coef, _, rank, sv = np.linalg.lstsq(A, rhs[rows] * sw, rcond=_RCOND)
    cond = float(sv[0] / sv[min(rank, len(sv)) - 1]) if len(sv) else math.inf
    return (coef / np.sqrt(size))[col_of], cond


def _sphere_charges(spec, c, s0):
    """(sources, charges, constant) of the exact interior potential of a
    sphere of radius R and center x0 (Kellogg 1929):
    u = c + s0/|x| - (s0 R/|x0|) / |x - p*|, the Green's function of the
    ball with its pole at the origin and the image at the Kelvin point
    p* = x0 - R^2 x0/|x0|^2; at x0 = 0 the image goes to infinity and
    leaves the constant c - s0/R, with one zero charge at x0 + (2R, 0, 0).
    """
    x0 = np.asarray(spec.center, dtype=float)
    R = spec.radius
    dist = float(np.linalg.norm(x0))
    if dist == 0.0:
        return (x0 + [2.0 * R, 0.0, 0.0])[None, :], np.zeros(1), c - s0 / R
    image = x0 - (R * R / (dist * dist)) * x0
    return image[None, :], np.array([-s0 * R / dist]), c


def _solve(spec, order, problem, c, d):
    """The closed form of a quadric or the collocation solve of either
    problem; d is None for the exterior."""
    if not 0 < c < math.inf:
        raise ValueError("boundary value c must be positive and finite")
    order = DEFAULT_ORDER[spec.kind] if order is None else order
    closed = spec.kind == "sphere" or (problem == "exterior"
                                       and spec.kind != "star")
    src_order, factor, ring, node_order = _placement(order)
    quad = build_quadrature(spec, order if closed else node_order)
    # the pole's charge, from the area of the order's own boundary grid
    s0 = 0.0 if d is None else d * (
        quad if closed else build_quadrature(spec, order)).area * A_N
    constant, cond = 0.0, 1.0
    if closed and problem == "exterior":
        sources, charges = _focal_charges(spec, c, order)
    elif closed:
        sources, charges, constant = _sphere_charges(spec, c, s0)
    else:   # contracted outside, dilated inside
        scale = factor if problem == "exterior" else 1.0 / factor
        sources = _graph_points(spec, src_order, scale, ring)
        rhs = c - s0 / np.linalg.norm(quad.nodes, axis=1)
        charges, cond = _collocation_solve(quad, sources, rhs)
    tol = (DEFAULT_TOLERANCE_EXTERIOR if problem == "exterior"
           else DEFAULT_TOLERANCE_INTERIOR)[spec.kind]
    sol = HarmonicSolution(problem=problem, c=float(c),
                           d=None if d is None else float(d), domain=spec,
                           sources=sources, charges=charges,
                           singular_coefficient=s0, constant=constant,
                           fit_residual=math.nan, order=order,
                           condition_estimate=cond,
                           check_misfit=math.nan)   # measured below
    # the fit at the nodes and the check misfit, from one u call at a
    # point per orbit of the solution's mirrors
    pts = np.vstack([quad.nodes, _graph_points(spec, order + 8, 1.0)])
    [(rows, row_of, _, _)] = _mirror_orbits(pts, axes=sol.mirrors)
    u = sol.field(pts[rows], want="u", check_region=False).u[row_of] - c
    fit = float(np.abs(u[:len(quad.nodes)]).max())
    check = float(np.abs(u[len(quad.nodes):]).max() / c)
    if not (fit <= tol and check <= tol):  # a NaN misfit fails too
        raise SolverFailureError(
            f"{problem} check misfit {check:.3e} on the grid of order "
            f"{order + 8} or boundary misfit {fit:.3e} exceeds tolerance "
            f"{tol:.1e} (condition estimate {cond:.3e}); raise the order "
            "(solver.order)")
    return replace(sol, fit_residual=fit, check_misfit=check)


def solve_exterior(spec, c=1.0, order=None):
    """Solve the exterior problem: harmonic outside the domain, u = c on the
    boundary, u -> 0 at infinity.  order None takes DEFAULT_ORDER[kind].

    Raises SolverFailureError (with the collocation condition estimate) if
    the fit at the nodes or the check misfit exceeds the tolerance.
    """
    return _solve(spec, order, "exterior", c, None)


def solve_interior(spec, c=1.0, d=1.0, order=None):
    """Solve the interior problem with a point source of strength d*|dOmega|
    at the origin and u = c on the boundary.

    The singular part d |dOmega| a_n |x|^(2-n) is exact; only the bounded
    harmonic remainder is fitted, with sources outside the domain.
    """
    if not 0 < d < math.inf:
        raise ValueError("flux density d must be positive and finite")
    return _solve(spec, order, "interior", c, d)


# ---------------------------------------------------------------------------
# far-field decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayReport:
    """Log-log least-squares slopes of direction-averaged far-field norms."""

    fitted_exponent: float
    gradient_exponent: float
    hessian_exponent: float
    sample_radii: tuple

    to_json_dict = _json_fields


# order of the sphere rule that averages the far-field samples
_DECAY_ORDER = 16


def decay_report(sol, radii):
    """Fit far-field decay exponents of (u, |Du|, |D2u|).

    Samples are averaged over directions with a symmetric sphere rule before
    fitting, which cancels the leading multipole contamination of the
    averages.  Radii must be finite, strictly increasing, at least 4, and
    start beyond twice the enclosing radius of the domain.
    """
    if sol.problem != "exterior":
        raise ValueError("decay fits are defined for exterior solutions only")
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 4:
        raise InsufficientSamplesError("need at least 4 radii for a decay fit")
    if not (np.all(np.isfinite(radii)) and np.all(np.diff(radii) > 0)):
        raise ValueError("radii must be finite and strictly increasing")
    r_enc = sol.domain.bounding_radii[1]
    if radii[0] < 2.0 * r_enc:
        raise ValueError(f"radii must start at >= twice the enclosing radius "
                         f"{r_enc:.3g}")
    th, ph, W = angular_grid(_DECAY_ORDER)
    om = unit_directions(th, ph)
    # u, |Du| and |D2u| are even under the mirrors: one direction per
    # orbit, weighted by the orbit's total
    [(rows, row_of, _, _)] = _mirror_orbits(om, axes=sol.mirrors)
    Wn = np.bincount(row_of, weights=W / W.sum())
    avgs = []   # direction averages of u, |Du| and |D2u| per radius
    for r in radii:
        st = sol.field(r * om[rows], want="hess", check_region=False)
        avgs.append([Wn @ st.u, Wn @ np.linalg.norm(st.grad, axis=1),
                     Wn @ np.linalg.norm(st.hess, axis=(1, 2))])
    slopes = [float(np.polyfit(np.log(radii), np.log(v), 1)[0])
              for v in np.transpose(avgs)]
    return DecayReport(fitted_exponent=slopes[0], gradient_exponent=slopes[1],
                       hessian_exponent=slopes[2],
                       sample_radii=tuple(map(float, radii)))
