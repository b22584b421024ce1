"""Harmonic potential solves by superposition of point-source kernels.

Both boundary value problems are handled with the method of fundamental
solutions: a least-squares fit of kernel charges 1/|x - y_j| against the
boundary data, with the sources placed off the boundary so the resulting
field is exactly harmonic (to machine precision) wherever it is evaluated,
with analytic gradient and Hessian.

For the exterior problem (u = c on the boundary, u -> 0 at infinity) the
sources sit inside the domain.  For the interior problem with a point
singularity of strength d*|dOmega| at the origin, the singular term
d |dOmega| a_n |x|^(2-n) is carried in closed form (never discretized) and
only the bounded remainder v is fitted, with sources outside the domain.
The singular term is evaluated as one more kernel sum, with the single
charge d |dOmega| a_n at the origin and the points left uncentred, so that
r = |x| stays exact near the singularity.

A solve is set by the domain, the problem and one order.  The source
placement (described on _placement), the SVD cutoff and the misfit
tolerance all come from per-kind tables in this module.

Every solve reports its check misfit, max |u - c|/c on an independent
boundary grid of order n + 8, next to the fit residual at the collocation
nodes; the fit residual alone can hide a wrong solution (Barnett & Betcke,
J. Comput. Phys. 227, 2008).

Kernel sums are evaluated in BLAS form.  Points and sources are first
centred on the domain center; the squared distances then come from one
matrix product of augmented rows, r^2 = [x, |x|^2, 1] . [-2y, 1, |y|^2]^T,
and u and Du from products of 1/r and 1/r^3 with the charges and their
first moments q y.  The Hessian is one product of 1/r^5 with the moments
[q, q y, q y y], never a tensor of differences x - y.  Points are taken in
row chunks of at most 65,536 point-source pairs, so the temporaries are a few
(chunk, M) arrays of 512 KiB that stay in L2 cache however many points are
evaluated.  The collocation matrix is built by the same routine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (InsufficientSamplesError, OutOfRegionError,
                     SolverFailureError)
from .geometry import (DomainSpec, _integer, _number, _read_object,
                       angular_grid, build_quadrature, unit_directions,
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
    closed-form coefficient of |x|^(2-n); it is zero for exterior solutions.
    ``check_misfit`` is max |u - c|/c on the boundary grid of order + 8; it
    is None for a solution loaded from a file that predates it.
    """

    problem: str                  # "exterior" | "interior"
    c: float                      # Dirichlet boundary value
    d: float | None               # interior flux density (None for exterior)
    domain: DomainSpec
    sources: np.ndarray
    charges: np.ndarray
    singular_coefficient: float
    fit_residual: float
    order: int
    condition_estimate: float
    check_misfit: float | None = None
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
        center = np.asarray(self.domain.center)
        parts = _kernel_sums(pts - center, self.sources - center,
                             self.charges, want)
        if self.singular_coefficient != 0.0:
            # one charge at the origin, not centred, so r = |x| stays exact
            singular = _kernel_sums(pts, np.zeros((1, 3)),
                                    np.array([self.singular_coefficient]), want)
            parts = [None if p is None else p + s
                     for p, s in zip(parts, singular)]
        u, g, h = parts
        return FieldStates(points=pts, u=u, grad=g, hess=h)

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
        r = np.linalg.norm(pts, axis=1)
        if np.any(r == 0.0):
            raise OutOfRegionError("interior solution is singular at the origin")

    # -- serialization ------------------------------------------------------

    def to_json_dict(self):
        out = {
            "problem": self.problem,
            "c": self.c,
            "d": self.d,
            "domain": self.domain.to_json_dict(),
            "sources": [list(map(float, s)) for s in self.sources],
            "charges": [float(q) for q in self.charges],
            "singularCoefficient": self.singular_coefficient,
            "fitResidual": self.fit_residual,
            "order": self.order,
            "conditionEstimate": self.condition_estimate,
        }
        if self.check_misfit is not None:
            out["checkMisfit"] = self.check_misfit
        return out

    @classmethod
    def from_json_dict(cls, data, where="solution"):
        """The solution to_json_dict wrote, read by _read_object; an older file
        may lack conditionEstimate and checkMisfit or carry boundaryArea."""
        read = _read_object(data, where, _SOLUTION_READERS, _SOLUTION_REQUIRED)
        return cls(
            problem=read["problem"], c=read["c"], d=read.get("d"),
            domain=DomainSpec.from_json_dict(read["domain"],
                                             f"domain of {where}"),
            sources=read["sources"], charges=read["charges"],
            singular_coefficient=read["singularCoefficient"],
            fit_residual=read["fitResidual"], order=read["order"],
            condition_estimate=read.get("conditionEstimate", 0.0),
            check_misfit=read.get("checkMisfit"))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh), f"solution {path}")


# the keys of a solution file, with the reader of each value (None: as is)
_SOLUTION_READERS = {
    **dict.fromkeys(("c", "singularCoefficient", "fitResidual",
                     "conditionEstimate"), _number),
    **dict.fromkeys(("d", "checkMisfit"),
                    lambda v: None if v is None else _number(v)),
    **dict.fromkeys(("sources", "charges"),
                    lambda v: np.asarray(v, dtype=float)),
    "problem": None, "domain": None, "order": _integer, "boundaryArea": None}
_SOLUTION_REQUIRED = ("problem", "c", "domain", "sources", "charges",
                      "singularCoefficient", "fitResidual", "order")


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
    with the source rows and is turned into 1/r in place.  Callers centre
    x and y on the domain first, which keeps |x|^2 + |y|^2 small next to
    r^2 and so limits cancellation.
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

def _placement(kind, order):
    """(source grid order, contraction) of the source graph at this order.

    Sources sit on the radial graph contracted by this factor, or for the
    interior remainder dilated by its inverse (an interior ellipsoid uses
    the confocal ellipsoid of that dilation).  Exterior ellipsoids put them
    on the focal set (segment or disk) instead, which the analytic
    continuation of the exterior potential requires: a contracted copy of
    an elongated ellipsoid does not enclose it, and the fit stalls.

    Spheres and ellipsoids take 0.35 at every order.  Stars follow a table
    of check misfit against solve time on four stars at orders 32, 40 and
    48 (CHANGES.md).  Up to order 32 the node grid limits the fit, and 0.35
    on a grid of order 5n/8 serves.  Above it 0.5 on a grid of order
    n/4 + 14 wins: at order 48 the 1,800 sources at 0.35 have numerical
    rank 529 at the SVD cutoff, while the 1,352 at 0.5 have rank 995 and a
    4 to 46 times lower check misfit in about half the time.
    """
    if kind == "sphere":
        return max(8, (3 * order) // 4), 0.35
    if kind == "star":
        if order > 32:
            return order // 4 + 14, 0.5
        return max(12, (5 * order) // 8), 0.35
    return max(12, (2 * order) // 3), 0.35


def _ellipsoid_focal_sources(spec, n_src):
    """Nodes on the focal set of the ellipsoid (segment, disk, or point).

    With semi-axes sorted a1 >= a2 >= a3 the focal set is the elliptical disk
    with semi-axes sqrt(a1^2 - a3^2), sqrt(a2^2 - a3^2) in the plane of the
    two largest axes; it degenerates to a segment for prolate shapes and to
    the center for the sphere.
    """
    axes = np.asarray(spec.axes)
    idx = np.argsort(axes)[::-1]
    a1, a2, a3 = axes[idx]
    alpha = math.sqrt(max(a1 ** 2 - a3 ** 2, 0.0))
    beta = math.sqrt(max(a2 ** 2 - a3 ** 2, 0.0))
    if alpha < 1e-9 * a1:
        return None    # sphere-like: caller falls back to a contracted graph
    if beta < 1e-9 * a1:
        x, _ = leggauss(n_src)
        local = np.column_stack([alpha * x, np.zeros(n_src), np.zeros(n_src)])
    else:
        # disk charge density behaves like 1/sqrt(R^2 - rho^2); cluster the
        # radial nodes at the rim accordingly
        nr = max(6, n_src // 2)
        nphi = 2 * nr
        xr, _ = leggauss(nr)
        rr = np.sqrt(0.5 * (xr + 1.0))
        ph = 2.0 * np.pi * (np.arange(nphi) + 0.5) / nphi
        R, P = np.meshgrid(rr, ph, indexing="ij")
        local = np.column_stack([alpha * (R * np.cos(P)).ravel(),
                                 beta * (R * np.sin(P)).ravel(),
                                 np.zeros(nr * nphi)])
    world = np.zeros_like(local)
    for k in range(3):
        world[:, idx[k]] = local[:, k]
    return world + np.asarray(spec.center)


def _graph_points(spec, grid_order, factor):
    """The radial graph scaled by factor about the center, on the angular
    grid of grid_order: sources, or at factor 1 boundary points."""
    th, ph, _ = angular_grid(grid_order)
    rho = spec.rho(th, ph)
    return np.asarray(spec.center) + factor * rho[:, None] * unit_directions(th, ph)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _collocation_solve(quad, sources, center, rhs):
    center = np.asarray(center)
    A = _inverse_distance(_point_rows(quad.nodes - center),
                          _source_rows(sources - center))
    sw = np.sqrt(quad.weights)
    A *= sw[:, None]    # weighted in place: the solve holds one matrix
    charges, _, rank, sv = np.linalg.lstsq(A, rhs * sw, rcond=_RCOND)
    cond = float(sv[0] / sv[min(rank, len(sv)) - 1]) if len(sv) else math.inf
    fit = float(np.abs((A @ charges) / sw - rhs).max())
    return charges, fit, cond


def _solve(spec, order, problem, c, d):
    """The collocation solve of either problem; d is None for the exterior."""
    if not 0 < c < math.inf:
        raise ValueError("boundary value c must be positive and finite")
    order = DEFAULT_ORDER[spec.kind] if order is None else order
    quad = build_quadrature(spec, order)
    src_order, factor = _placement(spec.kind, order)
    if problem == "exterior":
        s0 = 0.0
        rhs = np.full(len(quad.nodes), float(c))
        sources = (_ellipsoid_focal_sources(spec, order + 8)
                   if spec.kind == "ellipsoid" else None)
        if sources is None:
            sources = _graph_points(spec, src_order, factor)
        tol = DEFAULT_TOLERANCE_EXTERIOR[spec.kind]
    else:
        s0 = d * quad.area * A_N
        rhs = c - s0 / np.linalg.norm(quad.nodes, axis=1)
        dilation = 1.0 / factor
        if spec.kind == "ellipsoid":
            # on a larger confocal ellipsoid
            mu = (dilation ** 2 - 1.0) * min(spec.axes) ** 2
            outer = DomainSpec(kind="ellipsoid", center=spec.center,
                               axes=tuple(math.sqrt(a * a + mu)
                                          for a in spec.axes))
            sources = _graph_points(outer, src_order, 1.0)
        else:
            sources = _graph_points(spec, src_order, dilation)
        tol = DEFAULT_TOLERANCE_INTERIOR[spec.kind]
    charges, fit, cond = _collocation_solve(quad, sources, spec.center, rhs)
    if not fit <= tol:  # a NaN fit fails too
        raise SolverFailureError(
            f"{problem} boundary misfit {fit:.3e} exceeds tolerance "
            f"{tol:.1e} (condition estimate {cond:.3e}); raise the order "
            "(solver.order)")
    sol = HarmonicSolution(problem=problem, c=float(c),
                           d=None if d is None else float(d), domain=spec,
                           sources=sources, charges=charges,
                           singular_coefficient=s0, fit_residual=fit,
                           order=order, condition_estimate=cond)
    u = sol.field(_graph_points(spec, order + 8, 1.0), want="u",
                  check_region=False).u
    return replace(sol, check_misfit=float(np.abs(u - c).max() / c))


def solve_exterior(spec, c=1.0, order=None):
    """Solve the exterior problem: harmonic outside the domain, u = c on the
    boundary, u -> 0 at infinity.  order None takes DEFAULT_ORDER[kind].

    Raises SolverFailureError (with the collocation condition estimate) if
    the boundary misfit exceeds the tolerance.
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
    r_enc = sol.domain.bounding_radii()[1]
    if radii[0] < 2.0 * r_enc:
        raise ValueError(f"radii must start at >= twice the enclosing radius "
                         f"{r_enc:.3g}")
    th, ph, W = angular_grid(_DECAY_ORDER)
    om = unit_directions(th, ph)
    Wn = W / W.sum()
    avgs = []   # direction averages of u, |Du| and |D2u| per radius
    for r in radii:
        st = sol.field(r * om, want="hess", check_region=False)
        avgs.append([Wn @ st.u, Wn @ np.linalg.norm(st.grad, axis=1),
                     Wn @ np.linalg.norm(st.hess, axis=(1, 2))])
    slopes = [float(np.polyfit(np.log(radii), np.log(v), 1)[0])
              for v in np.transpose(avgs)]
    return DecayReport(fitted_exponent=slopes[0], gradient_exponent=slopes[1],
                       hessian_exponent=slopes[2],
                       sample_radii=tuple(map(float, radii)))
