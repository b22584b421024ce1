"""Smooth closed surfaces in R^3: domain descriptions, surface quadrature,
outward normals and mean curvature.

Surfaces are radial graphs rho(theta, phi) over the unit sphere around the
domain center.  Quadrature is tensor Gauss-Legendre in cos(theta) times
trapezoid in phi, which integrates spherical harmonics up to the grid degree
exactly; the Gauss-Legendre rule of each order is built once and shared
(gauss_legendre), so its arrays are read-only.  Mean curvature is the sum
of principal curvatures with respect to the outward normal, so a sphere of
radius r has H = (n-1)/r = 2/r.

Star surfaces are sums of real orthonormal spherical harmonics, evaluated
in numpy from the stable three-term degree recurrence of the normalized
associated Legendre functions, with the Condon-Shortley phase of
scipy.special.sph_harm_y; their angular derivatives come from the ladder
relation between neighbouring orders, exact at the poles.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, fields
from functools import cached_property, lru_cache
from numbers import Real

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, InvalidDomainError

MIN_ORDER = 6
DEFAULT_MAX_DEGREE = 8
# radial graphs must stay this far from the center
RHO_MIN = 1e-2
# a star's ray exit radius stops at a Newton step or bracket below
# _EXIT_RTOL r; bisection alone narrows the bracket that far in about 55
# steps
_EXIT_RTOL = 1e-15
_EXIT_STEPS = 100


def unit_sphere_area(n):
    """Area of the (n-1)-dimensional unit sphere, 2 pi^(n/2) / Gamma(n/2)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def safeguarded_newton(f_and_slope, r, lo, hi, rtol, max_steps):
    """Root of f on every ray by safeguarded Newton iteration (rtsafe,
    Numerical Recipes section 9.4), inside brackets with f > 0 at lo and
    f <= 0 at hi.

    f_and_slope(rays, r) returns f and df/dr at the radii r of the rays
    (indices) still running.  A first iterate r outside its bracket starts
    at the midpoint.  Every evaluation narrows the bracket; a Newton step
    that leaves it, or is not at most half the previous step, is replaced
    by bisection.  A ray stops when its step or its bracket is below
    rtol r.  Returns the radii and the rays that did not stop in
    max_steps, which keep their last iterate.
    """
    r = np.where((r > lo) & (r < hi), r, 0.5 * (lo + hi))
    dx_old = hi - lo
    radii = r.copy()
    todo = np.arange(len(r))
    for _ in range(max_steps):
        f, slope = f_and_slope(todo, r)
        lo = np.where(f > 0, r, lo)
        hi = np.where(f > 0, hi, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(f == 0, 0.0, f / slope)
        newton = ((r - dx >= lo) & (r - dx <= hi)
                  & (np.abs(dx) <= 0.5 * dx_old))
        dx = np.where(newton, dx, r - 0.5 * (lo + hi))
        r = r - dx
        radii[todo] = r
        keep = ~((np.abs(dx) <= rtol * r) | (hi - lo <= rtol * r))
        todo, r, lo, hi = todo[keep], r[keep], lo[keep], hi[keep]
        dx_old = np.abs(dx[keep])
        if not len(todo):
            break
    return radii, todo


# ---------------------------------------------------------------------------
# real spherical harmonics with angular derivatives
# ---------------------------------------------------------------------------

def real_sph_harm(l, m, theta, phi):
    """Real orthonormal spherical harmonic of degree l and order m, and its
    first and second angular derivatives: the tuple (Y, d_theta, d_phi,
    d_theta_theta, d_theta_phi, d_phi_phi).

    The basis is sqrt(2) Re Y_l^m for m > 0, Y_l^0 for m = 0, and
    sqrt(2) Im Y_l^|m| for m < 0, orthonormal on the unit sphere, where
    Y_l^m = Pbar_l^m(cos theta) e^(i m phi) carries the Condon-Shortley
    phase (-1)^m, as in scipy.special.sph_harm_y.  The normalized Legendre
    functions Pbar come from the stable three-term recurrence in the degree
    (_legendre); theta-derivatives come from the ladder relation
    d_theta Pbar_l^k = (a_k Pbar_l^(k+1) - a_(k-1) Pbar_l^(k-1)) / 2, with
    a_k = sqrt((l - k)(l + k + 1)) and Pbar_l^-k = (-1)^k Pbar_l^k, which
    has no 1/sin(theta) and so stays exact at the poles.

    Parameters
    ----------
    l, m : int
        Degree and order, |m| <= l.
    theta, phi : ndarray
        Colatitude and longitude, broadcastable.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(phi, dtype=float))
    k = abs(m)
    # the phi factor and its phi-derivative divided by k
    trig, trig_p = _phi_factor(m, phi), -np.sign(m) * _phi_factor(-m, phi)
    x, s = np.cos(theta), np.sin(theta)
    p = {j: _legendre(l, j, x, s) for j in range(k - 2, k + 3)}
    d = {j: 0.5 * (_ladder(l, j) * p[j + 1] - _ladder(l, j - 1) * p[j - 1])
         for j in (k - 1, k, k + 1)}
    d_tt = 0.5 * (_ladder(l, k) * d[k + 1] - _ladder(l, k - 1) * d[k - 1])
    return (p[k] * trig, d[k] * trig, k * p[k] * trig_p, d_tt * trig,
            k * d[k] * trig_p, -k * k * p[k] * trig)


def _phi_factor(m, phi):
    """The phi factor of the real harmonic of order m: sqrt(2) cos(m phi),
    1 or sqrt(2) sin(|m| phi) for m > 0, m = 0 and m < 0."""
    if m == 0:
        return np.ones_like(phi)
    return math.sqrt(2.0) * (np.cos if m > 0 else np.sin)(abs(m) * phi)


def _ladder(l, k):
    """sqrt((l - k)(l + k + 1)), zero outside -l - 1 <= k <= l."""
    return math.sqrt((l - k) * (l + k + 1)) if -l - 1 <= k <= l else 0.0


def _legendre(l, k, x, s):
    """Pbar_l^k at x = cos(theta), s = sin(theta), any integer k.

    Pbar_k^k is 1/sqrt(4 pi) times -sqrt((2j + 1)/(2j)) s for j = 1..k, and
    the degree steps up by Pbar_j^k = a (x Pbar_(j-1)^k - b Pbar_(j-2)^k).
    """
    sign = (-1.0) ** k if k < 0 else 1.0
    k = abs(k)
    if k > l:
        return np.zeros_like(x)
    p = np.full_like(x, 1.0 / math.sqrt(4.0 * math.pi))
    for j in range(1, k + 1):
        p = -math.sqrt((2 * j + 1) / (2 * j)) * s * p
    prev = np.zeros_like(x)
    for j in range(k + 1, l + 1):
        a = math.sqrt((4 * j * j - 1) / (j * j - k * k))
        b = math.sqrt(((j - 1) ** 2 - k * k) / (4 * (j - 1) ** 2 - 1))
        p, prev = a * (x * p - b * prev), p
    return sign * p


# ---------------------------------------------------------------------------
# domain specification
# ---------------------------------------------------------------------------

def _integer(value):
    """value as an int if it is a whole number (24, 24.0), else TypeError."""
    if isinstance(value, bool) or not isinstance(value, Real) or value % 1:
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _number(value):
    """value as a float if it is a number (2, 2.5), not a string or a bool,
    else TypeError; OverflowError if it is an int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _load_json(path):
    """The JSON value in the file at ``path``; a file that is not JSON is a
    ConfigError naming it, with the parser's line and column."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None


# an error shows at most this many characters of the bad value's JSON
_SHOWN_CHARS = 40


def _read_object(data, where, readers, required=(), error=ConfigError):
    """The JSON object data, each value read by its key's reader (None: as
    is); error names a missing (in required), unknown or mistyped key, or a
    number too large for a float, with at most _SHOWN_CHARS of its value."""
    if not isinstance(data, dict):
        raise error(f"{where} must be a JSON object")
    for key in required:
        if key not in data:
            raise error(f"{where} is missing {key!r}")
    read = {}
    for key, value in data.items():
        if key not in readers:
            raise error(f"unknown key {key!r} in {where}")
        try:
            read[key] = readers[key](value) if readers[key] else value
        except (TypeError, ValueError, OverflowError) as exc:
            what = ("is out of range" if isinstance(exc, OverflowError)
                    else "has the wrong JSON type")
            shown = json.dumps(value, default=repr)
            if len(shown) > _SHOWN_CHARS:
                shown = shown[:_SHOWN_CHARS] + "..."
            raise error(f"{key!r} in {where} {what}: {shown}") from None
    return read


def _camel(name):
    """The JSON key of a field name: fit_residual -> fitResidual."""
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


def _json_value(value):
    """value in JSON types: to_json_dict() where value has one, arrays and
    numpy scalars by tolist(), tuples as lists, dict keys as str."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    return value


def _json_fields(obj):
    """The public fields of the dataclass obj under their _camel names, each
    value by _json_value; classes take it as their to_json_dict."""
    return {_camel(f.name): _json_value(getattr(obj, f.name))
            for f in fields(obj) if not f.name.startswith("_")}


# how a DomainSpec reads each field; the JSON keys of each kind, required
# first, which from_json_dict reads and to_json_dict writes after kind and
# center
_FIELD_READERS = {
    "center": lambda v: tuple(map(_number, v)), "radius": _number,
    "axes": lambda v: tuple(map(_number, v)), "mean_radius": _number,
    "terms": lambda t: tuple((_integer(l), _integer(m), _number(c))
                             for l, m, c in t),
    "max_degree": _integer}
_JSON_KEYS = {"sphere": ("radius",), "ellipsoid": ("axes",),
              "star": ("mean_radius", "terms", "max_degree")}


def _check_kind(kind, where):
    if not (isinstance(kind, str) and kind in _JSON_KEYS):
        raise InvalidDomainError(f"unknown domain kind {kind!r} in {where}")


@dataclass(frozen=True)
class DomainSpec:
    """Parametric description of a smooth closed boundary surface in R^3.

    kind is one of "sphere" (radius), "ellipsoid" (semi-axes), or "star"
    (radial graph rho = mean_radius + sum of real spherical-harmonic terms
    [l, m, coefficient]).  Every number must be finite, the surface a
    radial graph about ``center``, and the origin inside the domain.  A
    field of another kind must keep its default.  ``where`` names the
    domain in errors and is not stored.
    """

    kind: str
    radius: float = 0.0
    axes: tuple = ()
    mean_radius: float = 0.0
    terms: tuple = ()
    center: tuple = (0.0, 0.0, 0.0)
    max_degree: int = DEFAULT_MAX_DEGREE
    where: InitVar[str] = "domain"

    def __post_init__(self, where):
        _check_kind(self.kind, where)
        read = _read_object({name: getattr(self, name)
                             for name in _FIELD_READERS},
                            where, _FIELD_READERS, error=InvalidDomainError)
        own = ("center", *_JSON_KEYS[self.kind])
        for f in fields(self):
            if f.name not in own and read.get(f.name, f.default) != f.default:
                raise InvalidDomainError(f"unknown key {f.name!r} in {where}")
        for name, value in read.items():
            if not np.isfinite(np.asarray(value, dtype=float)).all():
                raise InvalidDomainError(
                    f"{name!r} in {where} must be finite: {value!r}")
            object.__setattr__(self, name, value)
        if self.kind == "sphere":
            if not self.radius > 0:
                raise InvalidDomainError("sphere radius must be positive")
        elif self.kind == "ellipsoid":
            if len(self.axes) != 3 or min(self.axes) <= 0:
                raise InvalidDomainError("ellipsoid needs three positive semi-axes")
        else:
            if not self.mean_radius > 0:
                raise InvalidDomainError("star surface needs a positive mean radius")
            for (l, m, _) in self.terms:
                if l < 1 or abs(m) > l:
                    raise InvalidDomainError(f"invalid harmonic index (l={l}, m={m})")
                if l > self.max_degree:
                    raise InvalidDomainError(
                        f"harmonic degree {l} exceeds the smoothness guard "
                        f"max_degree={self.max_degree}"
                    )
            self._validate_star_rho()
        if not self.contains(np.zeros(3), tol=-1e-12)[0]:
            raise InvalidDomainError("origin must lie inside the domain")

    # -- radial graph -------------------------------------------------------

    def rho(self, theta, phi):
        """Radial graph rho(theta, phi) about the center: the value of
        rho_derivatives, a star's from one Legendre recurrence and one phi
        factor per term."""
        if self.kind != "star":
            return self.rho_derivatives(theta, phi)[0]
        theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                         np.asarray(phi, dtype=float))
        x, s = np.cos(theta), np.sin(theta)
        vals = np.full_like(x, self.mean_radius)
        for (l, m, c) in self.terms:
            y = _legendre(l, abs(m), x, s) * _phi_factor(m, phi)
            vals = vals + c * y
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
            parts = real_sph_harm(l, m, theta, phi)
            for k in range(6):
                d[k] = d[k] + c * parts[k]
        return tuple(d)

    def ray_exit_radius(self, omega):
        """Radii where the rays r*omega from the origin cross the boundary."""
        omega = np.atleast_2d(np.asarray(omega, dtype=float))
        c = np.asarray(self.center)
        if self.kind == "sphere":
            b = omega @ c
            return b + np.sqrt(b * b + self.radius ** 2 - c @ c)
        if self.kind == "ellipsoid":
            a = np.asarray(self.axes)
            A = np.sum((omega / a) ** 2, axis=1)
            B = -2.0 * (omega / a) @ (c / a)
            D = np.sum((c / a) ** 2) - 1.0
            return (-B + np.sqrt(B * B - 4 * A * D)) / (2 * A)
        return self._ray_exit_star(omega)

    def _ray_exit_star(self, omega):
        """Root of f(r) = rho(angles of r omega - c) - |r omega - c|, which
        is positive at r = 0 and negative at the bracket's far end, by
        safeguarded Newton iteration.  The first iterate is the exit radius
        of the sphere of the mean radius about c; with c at the origin f is
        linear in r and one Newton step is exact."""
        c = np.asarray(self.center)
        lo = np.zeros(len(omega))
        hi = np.full(len(omega), 4.0 * (self.mean_radius + sum(abs(t[2]) for t in self.terms)
                                        + np.linalg.norm(c)))
        b = omega @ c
        with np.errstate(invalid="ignore"):
            r = b + np.sqrt(b * b + self.mean_radius ** 2 - c @ c)

        def f_and_slope(rays, r):
            om = omega[rays]
            p = r[:, None] * om - c
            d = np.maximum(np.linalg.norm(p, axis=1), 1e-300)
            th = np.arccos(np.clip(p[:, 2] / d, -1, 1))
            ph = np.arctan2(p[:, 1], p[:, 0])
            rho, rho_t, rho_p = self.rho_derivatives(th, ph)[:3]
            # df/dr = rho_t dtheta/dr + rho_p dphi/dr - d|p|/dr along
            # dp/dr = omega, with dtheta/dr = <omega, e_theta>/|p|, and
            # dphi/dr taken as 0 on the polar axis, where rho_p = 0
            om_e_t = (np.cos(th) * (om[:, 0] * np.cos(ph)
                                    + om[:, 1] * np.sin(ph))
                      - np.sin(th) * om[:, 2])
            cross = p[:, 0] * om[:, 1] - p[:, 1] * om[:, 0]
            pxy2 = p[:, 0] ** 2 + p[:, 1] ** 2
            dphi = np.divide(cross, pxy2, out=np.zeros_like(cross),
                             where=pxy2 > 0)
            slope = ((rho_t * om_e_t - np.einsum("ns,ns->n", om, p)) / d
                     + rho_p * dphi)
            return rho - d, slope

        return safeguarded_newton(f_and_slope, r, lo, hi, _EXIT_RTOL,
                                  _EXIT_STEPS)[0]

    def contains(self, points, tol=1e-12):
        """True where points lie inside (or on) the closed domain."""
        p = np.atleast_2d(np.asarray(points, dtype=float)) - np.asarray(self.center)
        d = np.linalg.norm(p, axis=1)
        safe = np.maximum(d, 1e-300)
        th = np.arccos(np.clip(p[:, 2] / safe, -1, 1))
        ph = np.arctan2(p[:, 1], p[:, 0])
        return d <= self.rho(th, ph) * (1 + tol)

    @cached_property
    def bounding_radii(self):
        """(min, max) of |x| over the boundary, radii measured from the
        origin, computed once per domain."""
        th, ph, _ = angular_grid(32)
        r = self.rho(th, ph)
        pts = np.asarray(self.center) + r[:, None] * unit_directions(th, ph)
        d = np.linalg.norm(pts, axis=1)
        return float(d.min()), float(d.max())

    # -- validation ---------------------------------------------------------

    def _validate_star_rho(self):
        th, ph, _ = angular_grid(48)
        r = self.rho(th, ph)
        if r.min() < RHO_MIN:
            raise InvalidDomainError(
                f"radial graph dips to {r.min():.3g} < rho_min={RHO_MIN}"
            )

    # -- JSON ---------------------------------------------------------------

    def to_json_dict(self):
        """kind, center and the _JSON_KEYS of the kind, by _json_value."""
        return {"kind": self.kind,
                **{key: _json_value(getattr(self, key))
                   for key in ("center", *_JSON_KEYS[self.kind])}}

    @classmethod
    def from_json_dict(cls, data, where="domain"):
        """The domain of a JSON object, read by the rule of _read_object;
        where names it in errors."""
        if not isinstance(data, dict):
            raise InvalidDomainError(f"{where} must be a JSON object")
        kind = data.get("kind")
        _check_kind(kind, where)
        keys = ("center", *_JSON_KEYS[kind])
        readers = {"kind": None, **{key: _FIELD_READERS[key] for key in keys}}
        return cls(**_read_object(data, where, readers,
                                  ("kind", _JSON_KEYS[kind][0]),
                                  InvalidDomainError), where=where)


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

@lru_cache(maxsize=None)
def gauss_legendre(order):
    """(nodes, weights) of numpy's order-point Gauss-Legendre rule on
    [-1, 1], built once per order and read-only: a write raises ValueError."""
    rule = leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def angular_grid(order):
    """Gauss-Legendre x trapezoid grid over the unit sphere directions.

    Returns (theta, phi, solid_angle_weights) flattened to length
    order * 2*order; the weights sum to 4 pi.
    """
    if order < MIN_ORDER:
        raise ValueError(f"order must be at least {MIN_ORDER}")
    x, w = gauss_legendre(order)
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
    area), unit ``normals`` (outward from build_quadrature), and
    ``mean_curv`` = sum of the principal curvatures about those normals.
    """

    nodes: np.ndarray
    weights: np.ndarray
    normals: np.ndarray
    mean_curv: np.ndarray

    @property
    def area(self):
        return float(np.sum(self.weights))


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
    if rho.min() < RHO_MIN:
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
                             mean_curv=H)
