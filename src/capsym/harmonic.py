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

Source placement: spheres and star-shaped graphs use a contracted (or, for
the interior remainder, dilated) copy of the radial graph; ellipsoids use
nodes on the focal set (segment or disk), which the analytic continuation
of the exterior potential requires.  A uniformly contracted copy of an
elongated ellipsoid does not enclose the focal set and the fit then stalls
far above the tolerances needed here.

Kernel sums are evaluated in BLAS form.  Points and sources are first
centred on the domain center; the squared distances then come from one
matrix product, r^2 = |x|^2 + |y|^2 - 2 x.y^T, and u and Du from products
of 1/r and 1/r^3 with the charges and their first moments q y.  The Hessian
is one product of 1/r^5 with the moments [q, q y, q y y], never a tensor of
differences x - y.  Points are taken in row chunks of about a million
point-source pairs, so the temporaries stay a few (chunk, M) arrays however
many points are evaluated.  The collocation matrix of the solve is built by
the same inverse-distance routine.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (InsufficientSamplesError, InvalidDomainError,
                     OutOfRegionError, SolverFailureError)
from .geometry import (DomainSpec, SurfaceQuadrature, angular_grid,
                       build_quadrature, unit_directions, unit_sphere_area)

N_DIM = 3
A_N = 1.0 / ((N_DIM - 2) * unit_sphere_area(N_DIM))   # 1/(4 pi)

DEFAULT_ORDER = {"sphere": 16, "ellipsoid": 24, "star": 32}
DEFAULT_TOLERANCE_EXTERIOR = {"sphere": 1e-9, "ellipsoid": 1e-7, "star": 1e-7}
DEFAULT_TOLERANCE_INTERIOR = {"sphere": 1e-9, "ellipsoid": 1e-5, "star": 1e-5}


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the collocation solve.

    source_factor is the contraction of the source graph for exterior
    solves; the interior remainder uses the dilation 1/source_factor.
    rcond is the relative truncated-SVD cutoff of the least-squares solve.
    A tolerance of None picks the per-kind default.
    """

    order: int | None = None
    source_order: int | None = None
    source_factor: float = 0.35
    rcond: float = 1e-12
    tolerance: float | None = None

    def resolved_order(self, kind):
        return self.order if self.order is not None else DEFAULT_ORDER[kind]

    def resolved_source_order(self, kind, order):
        if self.source_order is not None:
            return self.source_order
        if kind == "sphere":
            return max(8, (3 * order) // 4)
        if kind == "star":
            return max(12, (5 * order) // 8)
        return max(12, (2 * order) // 3)

    def resolved_tolerance(self, kind, problem):
        if self.tolerance is not None:
            return self.tolerance
        table = (DEFAULT_TOLERANCE_EXTERIOR if problem == "exterior"
                 else DEFAULT_TOLERANCE_INTERIOR)
        return table[kind]


@dataclass(frozen=True)
class PointState:
    """Potential data at one point: u, Du and D2u."""

    point: np.ndarray
    u: float
    grad: np.ndarray
    hess: np.ndarray

    @property
    def grad_norm(self):
        return float(np.linalg.norm(self.grad))

    @property
    def laplacian(self):
        return float(np.trace(self.hess))


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

    def __getitem__(self, i):
        return PointState(self.points[i], float(self.u[i]), self.grad[i],
                          self.hess[i])


@dataclass(frozen=True)
class HarmonicSolution:
    """Solver state: kernel sources and charges plus problem constants.

    For the interior problem ``singular_coefficient`` is d*|dOmega|*a_n, the
    closed-form coefficient of |x|^(2-n); it is zero for exterior solutions.
    """

    problem: str                  # "exterior" | "interior"
    c: float                      # Dirichlet boundary value
    d: float | None               # interior flux density (None for exterior)
    domain: DomainSpec
    sources: np.ndarray
    charges: np.ndarray
    singular_coefficient: float
    fit_residual: float
    boundary_area: float
    order: int
    condition_estimate: float
    # rays and level sets extracted from this solution (capsym.levelset)
    # and its boundary data (capsym.criteria)
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
        return {
            "problem": self.problem,
            "c": self.c,
            "d": self.d,
            "domain": self.domain.to_json_dict(),
            "sources": [list(map(float, s)) for s in self.sources],
            "charges": [float(q) for q in self.charges],
            "singularCoefficient": self.singular_coefficient,
            "fitResidual": self.fit_residual,
            "boundaryArea": self.boundary_area,
            "order": self.order,
            "conditionEstimate": self.condition_estimate,
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            problem=data["problem"],
            c=float(data["c"]),
            d=None if data.get("d") is None else float(data["d"]),
            domain=DomainSpec.from_json_dict(data["domain"]),
            sources=np.asarray(data["sources"], dtype=float),
            charges=np.asarray(data["charges"], dtype=float),
            singular_coefficient=float(data["singularCoefficient"]),
            fit_residual=float(data["fitResidual"]),
            boundary_area=float(data["boundaryArea"]),
            order=int(data["order"]),
            condition_estimate=float(data.get("conditionEstimate", 0.0)),
        )

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=1)

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def evaluate(sol, x, check_region=True):
    """Evaluate (u, Du, D2u) at a single point, returned as a PointState.

    The Hessian is exactly symmetric and exactly trace-free up to roundoff
    (the kernels are harmonic).
    """
    states = sol.field(np.asarray(x, dtype=float)[None, :], want="hess",
                       check_region=check_region)
    return states[0]


# ---------------------------------------------------------------------------
# kernel sums
# ---------------------------------------------------------------------------

# Point-source pairs per row chunk of a kernel sum; each temporary is one
# (chunk, M) float array of 8 MiB, whatever the number of points.
_CHUNK_PAIRS = 1 << 20

# S[:, _SYM[a, b]] picks entry (a, b) of a symmetric 3x3 matrix stored as
# its upper triangle in the order of np.triu_indices(3).
_TRIU = np.triu_indices(3)
_SYM = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _inverse_distance(x, y):
    """The (len(x), len(y)) matrix 1/|x_i - y_j|.

    r^2 = |x|^2 + |y|^2 - 2 x.y^T takes one matrix product and is turned
    into 1/r in place.  Callers centre x and y on the domain first, which
    keeps |x|^2 + |y|^2 small next to r^2 and so limits cancellation.
    """
    w = (-2.0 * x) @ y.T
    w += np.einsum("ij,ij->i", y, y)
    w += np.einsum("ij,ij->i", x, x)[:, None]
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

    Rows of x are taken in chunks of about _CHUNK_PAIRS pairs.
    """
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
        w = _inverse_distance(xc, y)
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


def _graph_sources(spec, src_order, factor):
    th, ph, _ = angular_grid(src_order)
    rho = spec.rho(th, ph)
    return np.asarray(spec.center) + factor * rho[:, None] * unit_directions(th, ph)


def _exterior_sources(spec, opts, order):
    src_order = opts.resolved_source_order(spec.kind, order)
    if spec.kind == "ellipsoid":
        pts = _ellipsoid_focal_sources(spec, order + 8)
        if pts is not None:
            return pts
    return _graph_sources(spec, src_order, opts.source_factor)


def _interior_sources(spec, opts, order):
    src_order = opts.resolved_source_order(spec.kind, order)
    dilation = 1.0 / opts.source_factor
    if spec.kind == "ellipsoid":
        a, b, c = spec.axes
        mu = (dilation ** 2 - 1.0) * min(a, b, c) ** 2
        outer = DomainSpec(kind="ellipsoid",
                           axes=(math.sqrt(a * a + mu), math.sqrt(b * b + mu),
                                 math.sqrt(c * c + mu)),
                           center=spec.center)
        return _graph_sources(outer, src_order, 1.0)
    return _graph_sources(spec, src_order, dilation)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def _collocation_solve(quad, sources, center, rhs, rcond):
    center = np.asarray(center)
    A = _inverse_distance(quad.nodes - center, sources - center)
    sw = np.sqrt(quad.weights)
    A *= sw[:, None]    # weighted in place: the solve holds one matrix
    charges, _, rank, sv = np.linalg.lstsq(A, rhs * sw, rcond=rcond)
    cond = float(sv[0] / sv[min(rank, len(sv)) - 1]) if len(sv) else math.inf
    fit = float(np.abs((A @ charges) / sw - rhs).max())
    return charges, fit, cond


def solve_exterior(spec, quad=None, c=1.0, opts=SolverOptions()):
    """Solve the exterior problem: harmonic outside the domain, u = c on the
    boundary, u -> 0 at infinity.

    Raises SolverFailureError (with the collocation condition estimate) if
    the boundary misfit exceeds the tolerance.
    """
    if not c > 0:
        raise ValueError("boundary value c must be positive")
    order = quad.order if quad is not None else opts.resolved_order(spec.kind)
    if quad is None:
        quad = build_quadrature(spec, order)
    sources = _exterior_sources(spec, opts, order)
    rhs = np.full(len(quad.nodes), float(c))
    charges, fit, cond = _collocation_solve(quad, sources, spec.center,
                                             rhs, opts.rcond)
    tol = opts.resolved_tolerance(spec.kind, "exterior")
    if fit > tol:
        raise SolverFailureError(
            f"boundary misfit {fit:.3e} exceeds tolerance {tol:.1e} "
            f"(condition estimate {cond:.3e}); raise the order or adjust "
            "source placement", fit_residual=fit, condition=cond)
    return HarmonicSolution(problem="exterior", c=float(c), d=None, domain=spec,
                            sources=sources, charges=charges,
                            singular_coefficient=0.0, fit_residual=fit,
                            boundary_area=quad.area, order=order,
                            condition_estimate=cond)


def solve_interior(spec, quad=None, c=1.0, d=1.0, opts=SolverOptions()):
    """Solve the interior problem with a point source of strength d*|dOmega|
    at the origin and u = c on the boundary.

    The singular part d |dOmega| a_n |x|^(2-n) is exact; only the bounded
    harmonic remainder is fitted, with sources outside the domain.
    """
    if not d > 0:
        raise ValueError("flux density d must be positive")
    order = quad.order if quad is not None else opts.resolved_order(spec.kind)
    if quad is None:
        quad = build_quadrature(spec, order)
    area = quad.area
    s0 = d * area * A_N
    sources = _interior_sources(spec, opts, order)
    r_nodes = np.linalg.norm(quad.nodes, axis=1)
    rhs = c - s0 / r_nodes
    charges, fit, cond = _collocation_solve(quad, sources, spec.center,
                                             rhs, opts.rcond)
    tol = opts.resolved_tolerance(spec.kind, "interior")
    if fit > tol:
        raise SolverFailureError(
            f"boundary misfit {fit:.3e} exceeds tolerance {tol:.1e} "
            f"(condition estimate {cond:.3e})", fit_residual=fit, condition=cond)
    return HarmonicSolution(problem="interior", c=float(c), d=float(d),
                            domain=spec, sources=sources, charges=charges,
                            singular_coefficient=s0, fit_residual=fit,
                            boundary_area=area, order=order,
                            condition_estimate=cond)


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


def decay_report(sol, radii, order=16):
    """Fit far-field decay exponents of (u, |Du|, |D2u|).

    Samples are averaged over directions with a symmetric sphere rule before
    fitting, which cancels the leading multipole contamination of the
    averages.  Radii must be strictly increasing, at least 4, and start
    beyond twice the enclosing radius of the domain.
    """
    if sol.problem != "exterior":
        raise ValueError("decay fits are defined for exterior solutions only")
    radii = np.asarray(radii, dtype=float)
    if len(radii) < 4:
        raise InsufficientSamplesError("need at least 4 radii for a decay fit")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be strictly increasing")
    r_enc = sol.domain.bounding_radii()[1]
    if radii[0] < 2.0 * r_enc:
        raise ValueError(f"radii must start at >= twice the enclosing radius "
                         f"{r_enc:.3g}")
    th, ph, W = angular_grid(order)
    om = unit_directions(th, ph)
    Wn = W / W.sum()
    avg_u, avg_g, avg_h = [], [], []
    for r in radii:
        st = sol.field(r * om, want="hess", check_region=False)
        avg_u.append(float(Wn @ st.u))
        avg_g.append(float(Wn @ np.linalg.norm(st.grad, axis=1)))
        avg_h.append(float(Wn @ np.linalg.norm(st.hess, axis=(1, 2))))
    logs = np.log(radii)
    slopes = [float(np.polyfit(logs, np.log(v), 1)[0])
              for v in (avg_u, avg_g, avg_h)]
    return DecayReport(fitted_exponent=slopes[0], gradient_exponent=slopes[1],
                       hessian_exponent=slopes[2],
                       sample_radii=tuple(map(float, radii)))
