"""Smooth closed surfaces in R^3: domain descriptions, surface quadrature,
outward normals, mean curvature, and exact radial formulas for any n >= 3.

Surfaces are radial graphs rho(theta, phi) over the unit sphere around the
domain center.  Quadrature is tensor Gauss-Legendre in cos(theta) times
trapezoid in phi, which integrates spherical harmonics up to the grid degree
exactly.  Mean curvature is the sum of principal curvatures with respect to
the outward normal, so a sphere of radius r has H = (n-1)/r = 2/r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma, sph_harm_y

from .errors import InvalidDomainError

MIN_ORDER = 6
DEFAULT_MAX_DEGREE = 8
DEFAULT_RHO_MIN = 1e-2


def unit_sphere_area(n):
    """Area of the (n-1)-dimensional unit sphere, 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)


# ---------------------------------------------------------------------------
# real spherical harmonics with angular derivatives
# ---------------------------------------------------------------------------

def real_sph_harm(l, m, theta, phi, derivatives=False):
    """Real orthonormal spherical harmonic of degree l and order m.

    The basis is sqrt(2) Re Y_l^m for m > 0, Y_l^0 for m = 0, and
    sqrt(2) Im Y_l^|m| for m < 0, orthonormal on the unit sphere.

    Parameters
    ----------
    l, m : int
        Degree and order, |m| <= l.
    theta, phi : ndarray
        Colatitude and longitude, broadcastable.
    derivatives : bool
        If True, also return first and second angular derivatives
        (d_theta, d_phi, d_theta_theta, d_theta_phi, d_phi_phi).
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not derivatives:
        y = sph_harm_y(l, abs(m), theta, phi)
        return _realize(y, m)
    y, jac, hess = sph_harm_y(l, abs(m), theta, phi, diff_n=2)
    vals = _realize(y, m)
    d_t = _realize(jac[..., 0], m)
    d_p = _realize(jac[..., 1], m)
    d_tt = _realize(hess[..., 0, 0], m)
    d_tp = _realize(hess[..., 0, 1], m)
    d_pp = _realize(hess[..., 1, 1], m)
    return vals, d_t, d_p, d_tt, d_tp, d_pp


def _realize(y, m):
    if m > 0:
        return math.sqrt(2.0) * np.real(y)
    if m < 0:
        return math.sqrt(2.0) * np.imag(y)
    return np.real(y)


# ---------------------------------------------------------------------------
# domain specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DomainSpec:
    """Parametric description of a smooth closed boundary surface in R^3.

    kind is one of "sphere" (radius), "ellipsoid" (semi-axes), or "star"
    (radial graph rho = mean_radius + sum of real spherical-harmonic terms
    [l, m, coefficient]).  The surface must be a radial graph about
    ``center`` and the origin must lie inside the domain.
    """

    kind: str
    radius: float = 0.0
    axes: tuple = ()
    mean_radius: float = 0.0
    terms: tuple = ()
    center: tuple = (0.0, 0.0, 0.0)
    max_degree: int = DEFAULT_MAX_DEGREE
    rho_min: float = DEFAULT_RHO_MIN

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        if self.kind == "sphere":
            if not self.radius > 0:
                raise InvalidDomainError("sphere radius must be positive")
        elif self.kind == "ellipsoid":
            object.__setattr__(self, "axes", tuple(float(a) for a in self.axes))
            if len(self.axes) != 3 or min(self.axes) <= 0:
                raise InvalidDomainError("ellipsoid needs three positive semi-axes")
        elif self.kind == "star":
            if not self.mean_radius > 0:
                raise InvalidDomainError("star surface needs a positive mean radius")
            terms = tuple((int(l), int(m), float(c)) for (l, m, c) in self.terms)
            object.__setattr__(self, "terms", terms)
            for (l, m, _) in terms:
                if l < 1 or abs(m) > l:
                    raise InvalidDomainError(f"invalid harmonic index (l={l}, m={m})")
                if l > self.max_degree:
                    raise InvalidDomainError(
                        f"harmonic degree {l} exceeds the smoothness guard "
                        f"max_degree={self.max_degree}"
                    )
            self._validate_star_rho()
        else:
            raise InvalidDomainError(f"unknown domain kind {self.kind!r}")
        if not self._origin_is_interior():
            raise InvalidDomainError("origin must lie inside the domain")

    # -- radial graph -------------------------------------------------------

    def rho(self, theta, phi):
        """Radial graph rho(theta, phi) about the center."""
        if self.kind != "star":
            return self.rho_derivatives(theta, phi)[0]
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        vals = np.full(np.broadcast(theta, phi).shape, self.mean_radius)
        for (l, m, c) in self.terms:
            vals = vals + c * real_sph_harm(l, m, theta, phi)
        return vals

    def rho_derivatives(self, theta, phi):
        """rho and its angular derivatives (r, r_t, r_p, r_tt, r_tp, r_pp)."""
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        zero = np.zeros(np.broadcast(theta, phi).shape)
        if self.kind == "sphere":
            return (np.full_like(zero, self.radius), zero, zero.copy(),
                    zero.copy(), zero.copy(), zero.copy())
        if self.kind == "ellipsoid":
            return _ellipsoid_rho(theta, phi, self.axes)
        vals = np.full_like(zero, self.mean_radius)
        d = [vals, zero, zero.copy(), zero.copy(), zero.copy(), zero.copy()]
        for (l, m, c) in self.terms:
            parts = real_sph_harm(l, m, theta, phi, derivatives=True)
            for k in range(6):
                d[k] = d[k] + c * parts[k]
        return tuple(d)

    def ray_exit_radius(self, omega):
        """Radius where the ray r*omega from the origin crosses the boundary."""
        omega = np.atleast_2d(np.asarray(omega, dtype=float))
        c = np.asarray(self.center)
        if self.kind == "sphere":
            b = omega @ c
            disc = b * b + self.radius ** 2 - c @ c
            r = b + np.sqrt(disc)
        elif self.kind == "ellipsoid":
            a = np.asarray(self.axes)
            A = np.sum((omega / a) ** 2, axis=1)
            B = -2.0 * (omega / a) @ (c / a)
            D = np.sum((c / a) ** 2) - 1.0
            r = (-B + np.sqrt(B * B - 4 * A * D)) / (2 * A)
        else:
            r = self._ray_exit_star(omega)
        return r if r.shape[0] > 1 else float(r[0])

    def _ray_exit_star(self, omega):
        c = np.asarray(self.center)
        lo = np.zeros(len(omega))
        hi = np.full(len(omega), 4.0 * (self.mean_radius + sum(abs(t[2]) for t in self.terms)
                                        + np.linalg.norm(c)))

        def over(r):
            p = r[:, None] * omega - c
            d = np.linalg.norm(p, axis=1)
            d = np.maximum(d, 1e-300)
            th = np.arccos(np.clip(p[:, 2] / d, -1, 1))
            ph = np.arctan2(p[:, 1], p[:, 0])
            return d - self.rho(th, ph)

        for _ in range(80):
            mid = 0.5 * (lo + hi)
            out = over(mid) > 0
            hi = np.where(out, mid, hi)
            lo = np.where(out, lo, mid)
        return 0.5 * (lo + hi)

    def contains(self, points, tol=1e-12):
        """True where points lie inside (or on) the closed domain."""
        p = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(self.center)
        d = np.linalg.norm(p, axis=1)
        safe = np.maximum(d, 1e-300)
        th = np.arccos(np.clip(p[:, 2] / safe, -1, 1))
        ph = np.arctan2(p[:, 1], p[:, 0])
        return d <= self.rho(th, ph) * (1 + tol)

    def bounding_radii(self):
        """(min, max) of |x| over the boundary, radii measured from the origin."""
        th, ph, _ = angular_grid(32)
        r, *_ = self.rho_derivatives(th, ph)
        pts = np.asarray(self.center) + r[:, None] * unit_directions(th, ph)
        d = np.linalg.norm(pts, axis=1)
        return float(d.min()), float(d.max())

    # -- validation ---------------------------------------------------------

    def _validate_star_rho(self):
        th, ph, _ = angular_grid(48)
        r = self.rho(th, ph)
        if r.min() < self.rho_min:
            raise InvalidDomainError(
                f"radial graph dips to {r.min():.3g} < rho_min={self.rho_min}"
            )

    def _origin_is_interior(self):
        c = np.asarray(self.center)
        dist = np.linalg.norm(c)
        if dist == 0.0:
            return True
        omega = -c / dist
        th = math.acos(max(-1.0, min(1.0, omega[2])))
        ph = math.atan2(omega[1], omega[0])
        return dist < float(np.asarray(self.rho(th, ph)))

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self):
        out = {"kind": self.kind, "center": list(self.center)}
        if self.kind == "sphere":
            out["radius"] = self.radius
        elif self.kind == "ellipsoid":
            out["axes"] = list(self.axes)
        else:
            out["mean_radius"] = self.mean_radius
            out["terms"] = [list(t) for t in self.terms]
            out["max_degree"] = self.max_degree
        return out

    @classmethod
    def from_json_dict(cls, data):
        kind = data.get("kind")
        kwargs = {"center": tuple(data.get("center", (0.0, 0.0, 0.0)))}
        if kind == "sphere":
            kwargs["radius"] = float(data["radius"])
        elif kind == "ellipsoid":
            kwargs["axes"] = tuple(data["axes"])
        elif kind == "star":
            kwargs["mean_radius"] = float(data["mean_radius"])
            kwargs["terms"] = tuple(tuple(t) for t in data.get("terms", ()))
            if "max_degree" in data:
                kwargs["max_degree"] = int(data["max_degree"])
        else:
            raise InvalidDomainError(f"unknown domain kind {kind!r}")
        return cls(kind=kind, **kwargs)


def _ellipsoid_rho(theta, phi, axes):
    a, b, c = axes
    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    A, B, C = 1 / a ** 2, 1 / b ** 2, 1 / c ** 2
    q = A * cp ** 2 + B * sp ** 2
    q_p = 2 * (B - A) * sp * cp
    q_pp = 2 * (B - A) * (cp ** 2 - sp ** 2)
    s = st ** 2 * q + C * ct ** 2
    s_t = 2 * st * ct * (q - C)
    s_tt = 2 * (ct ** 2 - st ** 2) * (q - C)
    s_p = st ** 2 * q_p
    s_pp = st ** 2 * q_pp
    s_tp = 2 * st * ct * q_p
    rho = s ** (-0.5)
    rho_t = -0.5 * s ** (-1.5) * s_t
    rho_p = -0.5 * s ** (-1.5) * s_p
    rho_tt = 0.75 * s ** (-2.5) * s_t ** 2 - 0.5 * s ** (-1.5) * s_tt
    rho_pp = 0.75 * s ** (-2.5) * s_p ** 2 - 0.5 * s ** (-1.5) * s_pp
    rho_tp = 0.75 * s ** (-2.5) * s_t * s_p - 0.5 * s ** (-1.5) * s_tp
    return rho, rho_t, rho_p, rho_tt, rho_tp, rho_pp


# ---------------------------------------------------------------------------
# angular grids and surface quadrature
# ---------------------------------------------------------------------------

def angular_grid(order):
    """Gauss-Legendre x trapezoid grid over the unit sphere directions.

    Returns (theta, phi, solid_angle_weights) flattened to length
    order * 2*order; the weights sum to 4 pi.
    """
    if order < MIN_ORDER:
        raise ValueError(f"order must be at least {MIN_ORDER}")
    x, w = leggauss(order)
    nphi = 2 * order
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    th = np.arccos(x)
    TH, PH = np.meshgrid(th, phi, indexing="ij")
    W = np.repeat(w[:, None], nphi, axis=1) * (2.0 * np.pi / nphi)
    return TH.ravel(), PH.ravel(), W.ravel()


def unit_directions(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Quadrature-ready discretization of a closed surface.

    nodes carry the area measure in ``weights`` (sum equals the surface
    area), outward unit ``normals``, and ``mean_curvature`` = sum of the
    principal curvatures with respect to the outward normal.
    """

    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    mean_curvature: np.ndarray
    order: int
    theta: np.ndarray
    phi: np.ndarray

    @property
    def area(self):
        return float(np.sum(self.weights))

    def integrate(self, values):
        values = np.asarray(values)
        if values.shape[0] != len(self.weights):
            raise ValueError("integrand length does not match node count")
        return float(self.weights @ values)


def build_quadrature(spec, order):
    """Build a SurfaceQuadrature for the boundary of ``spec``.

    The parameterization X = center + rho(theta, phi) * omega(theta, phi) is
    differentiated analytically; normals and mean curvature come from the
    first and second fundamental forms, independent of any PDE solve.
    """
    if order < MIN_ORDER:
        raise InvalidDomainError(f"quadrature order must be >= {MIN_ORDER}")
    theta, phi, W = angular_grid(order)
    rho, rho_t, rho_p, rho_tt, rho_tp, rho_pp = spec.rho_derivatives(theta, phi)
    if rho.min() < spec.rho_min:
        raise InvalidDomainError("radial graph violates the rho_min guard")

    st, ct = np.sin(theta), np.cos(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    zeros = np.zeros_like(st)
    om = np.stack([st * cp, st * sp, ct], axis=-1)
    om_t = np.stack([ct * cp, ct * sp, -st], axis=-1)
    om_p = np.stack([-st * sp, st * cp, zeros], axis=-1)
    om_tt = -om
    om_tp = np.stack([-ct * sp, ct * cp, zeros], axis=-1)
    om_pp = np.stack([-st * cp, -st * sp, zeros], axis=-1)

    X_t = rho_t[:, None] * om + rho[:, None] * om_t
    X_p = rho_p[:, None] * om + rho[:, None] * om_p
    X_tt = rho_tt[:, None] * om + 2 * rho_t[:, None] * om_t + rho[:, None] * om_tt
    X_tp = (rho_tp[:, None] * om + rho_t[:, None] * om_p
            + rho_p[:, None] * om_t + rho[:, None] * om_tp)
    X_pp = rho_pp[:, None] * om + 2 * rho_p[:, None] * om_p + rho[:, None] * om_pp

    E = np.einsum("ns,ns->n", X_t, X_t)
    F = np.einsum("ns,ns->n", X_t, X_p)
    G = np.einsum("ns,ns->n", X_p, X_p)
    cross = np.cross(X_t, X_p)
    dA = np.linalg.norm(cross, axis=-1)
    nu = cross / dA[:, None]
    # (theta, phi) ordering gives the outward orientation for a radial graph
    inward = np.einsum("ns,ns->n", nu, om) < 0
    nu[inward] *= -1.0

    L = np.einsum("ns,ns->n", X_tt, nu)
    M = np.einsum("ns,ns->n", X_tp, nu)
    N = np.einsum("ns,ns->n", X_pp, nu)
    H = -(E * N - 2 * F * M + G * L) / (E * G - F * F)

    nodes = np.asarray(spec.center) + rho[:, None] * om
    weights = W * dA / st
    return SurfaceQuadrature(nodes=nodes, weights=weights, normals=nu,
                             mean_curvature=H, order=order, theta=theta,
                             phi=phi)


# ---------------------------------------------------------------------------
# exact radial formulas, any dimension n >= 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialGeometry:
    """Closed-form radial data for the ball of radius r0 in R^n."""

    n: int
    r0: float

    def __post_init__(self):
        if self.n < 3:
            raise InvalidDomainError("dimension must be at least 3")
        if not self.r0 > 0:
            raise InvalidDomainError("radius must be positive")

    @property
    def sphere_area(self):
        """|S^{n-1}|, area of the unit (n-1)-sphere."""
        return unit_sphere_area(self.n)

    @property
    def boundary_area(self):
        return self.sphere_area * self.r0 ** (self.n - 1)

    @property
    def capacity(self):
        """Boundary flux of the exterior unit-Dirichlet potential."""
        return (self.n - 2) * self.sphere_area * self.r0 ** (self.n - 2)


@dataclass(frozen=True)
class RadialValues:
    u: float
    du_magnitude: float
    d2u_radial: float


def radial_solution(geom, problem, r, c=None, d=1.0):
    """Exact radial potential of the ball, with derivatives.

    problem="exterior": u = c (r0/r)^(n-2) for r >= r0, decaying at infinity
    (boundary value c defaults to 1).
    problem="interior": u = d |dOmega| a_n r^(2-n) + const for 0 < r <= r0,
    normalized so u(r0) = c and with a_n = 1/((n-2)|S^{n-1}|); the default
    c = d r0/(n-2) makes the additive constant vanish.

    Returns (u, |Du|, second radial derivative of u).
    """
    n, r0 = geom.n, geom.r0
    r = float(r)
    if problem == "exterior":
        c = 1.0 if c is None else c
        if r < r0:
            raise ValueError(f"exterior solution needs r >= r0, got r={r}")
        u = c * (r0 / r) ** (n - 2)
        du = c * (n - 2) * r0 ** (n - 2) * r ** (1 - n)
        d2u = c * (n - 2) * (n - 1) * r0 ** (n - 2) * r ** (-n)
        return RadialValues(u, du, d2u)
    if problem == "interior":
        c = d * r0 / (n - 2) if c is None else c
        if not 0 < r <= r0:
            raise ValueError(f"interior solution needs 0 < r <= r0, got r={r}")
        amp = d * geom.boundary_area / ((n - 2) * geom.sphere_area)
        const = c - d * r0 / (n - 2)
        u = amp * r ** (2 - n) + const
        du = amp * (n - 2) * r ** (1 - n)
        d2u = amp * (n - 2) * (n - 1) * r ** (-n)
        return RadialValues(u, du, d2u)
    raise ValueError(f"unknown problem kind {problem!r}")
