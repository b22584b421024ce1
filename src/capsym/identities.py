"""Two-sided numerical checks of the integral and pointwise identities that
the conformal reformulation satisfies.

The pointwise check is the specialized Bochner identity for P = |grad f|_g^2,

    Delta_g P = 2 |hess_g f|_g^2 - <grad P, grad f>_g,

assembled on both sides from raw Euclidean derivative data without assuming
harmonicity anywhere, so feeding in artificially non-harmonic values makes
the residual respond linearly.

The integral check is the weighted partial-integration identity between two
levels a < b of f = log u,

    2 int_{a<f<b} |hess_g f|_g^2 e^phi dmu_g
        = K [I3(b) - I3(a)] + 2 e^{phi(b)} J(b) - 2 e^{phi(a)} J(a),

with I3(l) = int_{f=l} |grad f|_g^3 dsigma_g, J(l) = int_{f=l} |grad f|_g^2 H_g
dsigma_g, valid whenever the weight phi solves phi'' + (phi')^2 - phi' = 0;
K = (1 - phi') e^phi is then a first integral.  Two such weights are
provided: phi(f) = f (K = 0) and phi_t(f) = log(1 - e^f/t) (K = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (dsigma_g_weight, dmu_g_weight, hess_f_conformal,
                        mean_curvature_conformal, p_function)
from .errors import CutoffTooLargeError, InsufficientSamplesError
from .geometry import unit_sphere_area
from .levelset import (coarea_volume_integral, extract_level_set,
                       require_regular)

_N = 3
_QEXP = 2.0 * (_N - 1) / (_N - 2)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """A weight e^phi(f) whose phi solves phi'' + (phi')^2 - phi' = 0.

    kind "linear" is phi(f) = f with first integral K = 0; kind
    "shifted-log" is phi_t(f) = log(1 - e^f/t) with K = 1, defined for
    f < log t.
    """

    kind: str
    t: float = math.inf

    @classmethod
    def linear(cls):
        return cls(kind="linear")

    @classmethod
    def shifted_log(cls, t):
        if not t > 0:
            raise ValueError("shifted-log weight needs t > 0")
        return cls(kind="shifted-log", t=float(t))

    @property
    def first_integral(self):
        """K = (1 - phi') e^phi, constant along the weight ODE."""
        return 0.0 if self.kind == "linear" else 1.0

    def phi(self, f):
        f = np.asarray(f, dtype=float)
        if self.kind == "linear":
            return f
        return np.log(1.0 - np.exp(f) / self.t)

    def dphi(self, f):
        f = np.asarray(f, dtype=float)
        if self.kind == "linear":
            return np.ones_like(f)
        e = np.exp(f)
        return -e / (self.t - e)

    def d2phi(self, f):
        f = np.asarray(f, dtype=float)
        if self.kind == "linear":
            return np.zeros_like(f)
        e = np.exp(f)
        return -self.t * e / (self.t - e) ** 2

    def ode_residual(self, f):
        """phi'' + (phi')^2 - phi', identically zero for valid weights."""
        return self.d2phi(f) + self.dphi(f) ** 2 - self.dphi(f)

    def first_integral_residual(self, f):
        """(1 - phi') e^phi - K at sample values of f."""
        return (1.0 - self.dphi(f)) * np.exp(self.phi(f)) - self.first_integral

    def validate_range(self, f_max):
        if self.kind == "shifted-log" and f_max >= math.log(self.t):
            raise ValueError(
                f"shifted-log weight needs f < log t = {math.log(self.t):.6g}; "
                f"got f up to {f_max:.6g}")


# ---------------------------------------------------------------------------
# pointwise Bochner identity
# ---------------------------------------------------------------------------

def bochner_sides(u, grad, hess, lap_grad=0.0, n=3):
    """Both sides of the specialized Bochner identity at a point or a batch.

    Shapes are those of capsym.conformal: u (...), grad (..., 3), hess
    (..., 3, 3).  Returns (Delta_g P, 2|hess_g f|_g^2 - <grad P, grad f>_g).
    No harmonicity is assumed: the Laplacian of u enters through the Hessian
    trace and third derivatives through lap_grad = D(Delta u), which is
    identically zero for kernel superpositions.
    """
    u = np.asarray(u, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)

    g2 = np.sum(grad * grad, axis=-1)
    hg = np.einsum("...ab,...b->...a", hess, grad)
    hgg = np.sum(hg * grad, axis=-1)
    h2 = np.sum(hess * hess, axis=(-2, -1))
    lap_u = np.trace(hess, axis1=-2, axis2=-1)

    psi = u ** (-_QEXP)
    coef = _QEXP * g2 * psi / u
    grad_p = 2.0 * psi[..., None] * hg - coef[..., None] * grad
    lap_phi = 2.0 * (h2 + np.sum(grad * lap_grad, axis=-1))
    lap_psi = -_QEXP * psi / u * lap_u + _QEXP * (_QEXP + 1) * psi / u ** 2 * g2
    lap_p = psi * lap_phi - 4.0 * _QEXP * (psi / u) * hgg + g2 * lap_psi

    dot_pf = np.sum(grad_p * grad, axis=-1) / u
    conf = u ** (-2.0 / (n - 2))
    lhs = conf * (lap_p + dot_pf)
    hess_norm = hess_f_conformal(u, grad, hess, n=n)[1]
    rhs = 2.0 * hess_norm ** 2 - conf * dot_pf
    return lhs, rhs


def bochner_residual(state, n=3):
    """|LHS - RHS| of the Bochner identity at one PointState."""
    lhs, rhs = bochner_sides(state.u, state.grad, state.hess, n=n)
    return float(np.abs(lhs - rhs))


# ---------------------------------------------------------------------------
# level-set boundary integrals shared by the identity checks
# ---------------------------------------------------------------------------

def _level_data(sol, c, order):
    ls = require_regular(extract_level_set(sol, c, order=order))
    p = p_function(ls.level, ls.grad)
    dsg = ls.weights * dsigma_g_weight(ls.level)
    h_g = mean_curvature_conformal(ls.mean_curv, ls.level, ls.u_grad)
    i3 = float(np.sum(dsg * p ** 1.5))
    i2h = float(np.sum(dsg * p * h_g))
    i2h_abs = float(np.sum(dsg * p * np.abs(h_g)))
    return ls, i3, i2h, i2h_abs


def flux_cubed_integral(sol, c, order=None):
    """int_{f=log c} |grad f|_g^3 dsigma_g = int_{u=c} P |Du| dsigma."""
    order = order if order is not None else sol.order
    return _level_data(sol, c, order)[1]


def _hessian_density(weight):
    """Integrand of the volume term: e^phi |hess_g f|_g^2 dmu_g/dmu per node."""
    def density(ls):
        hnorm = hess_f_conformal(ls.level, ls.grad, ls.hess)[1]
        return (float(np.exp(weight.phi(math.log(ls.level))))
                * hnorm ** 2 * dmu_g_weight(ls.level))
    return density


@dataclass(frozen=True)
class IdentityResidual:
    """Two sides of the weighted identity plus the relative residual.

    rhs_terms holds the individually computed boundary contributions;
    ``scale`` is the sum of the two |grad f|_g^3 fluxes, the size of the
    problem, and rel_residual is |lhs - rhs| / scale, which stays
    meaningful when both sides vanish (the radial case).
    """

    lhs: float
    rhs: float
    rhs_terms: dict
    rel_residual: float
    abs_residual: float
    scale: float
    quadrature_error: float

    def to_json_dict(self):
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rhsTerms": dict(self.rhs_terms),
            "relResidual": self.rel_residual,
            "absResidual": self.abs_residual,
            "scale": self.scale,
            "quadratureError": self.quadrature_error,
        }


def weighted_identity_check(sol, weight, a, b, levels=16, order=None):
    """Check the weighted identity between the f-levels a < b.

    Both sides are produced by independent numerical pipelines: the left by
    coarea integration of 2 e^phi |hess_g f|_g^2 over the slab, the right
    from the four boundary integrals.  rel_residual is |lhs - rhs| / scale,
    with scale = I3(a) + I3(b) the two flux-cubed integrals; the quadrature
    error field is the change of the volume term when the number of coarea
    levels is halved.
    """
    if not a < b:
        raise ValueError("need a < b")
    if levels < 8:
        raise InsufficientSamplesError("weighted identity needs >= 8 levels")
    weight.validate_range(b)
    order = order if order is not None else sol.order
    ca, cb = math.exp(a), math.exp(b)

    _, i3_b, i2h_b, _ = _level_data(sol, cb, order)
    _, i3_a, i2h_a, _ = _level_data(sol, ca, order)
    K = weight.first_integral
    eb = float(np.exp(weight.phi(b)))
    ea = float(np.exp(weight.phi(a)))
    terms = {
        "fluxCubedTop": K * i3_b,
        "fluxCubedBottom": -K * i3_a,
        "curvatureTop": 2.0 * eb * i2h_b,
        "curvatureBottom": -2.0 * ea * i2h_a,
    }
    rhs = sum(terms.values())
    density = _hessian_density(weight)
    lhs = 2.0 * coarea_volume_integral(sol, density, ca, cb, levels, order)
    lhs_half = 2.0 * coarea_volume_integral(sol, density, ca, cb,
                                            max(8, levels // 2), order)
    scale = abs(i3_b) + abs(i3_a)
    abs_res = abs(lhs - rhs)
    return IdentityResidual(lhs=lhs, rhs=rhs, rhs_terms=terms,
                            rel_residual=abs_res / scale, abs_residual=abs_res,
                            scale=scale,
                            quadrature_error=abs(lhs - lhs_half))


def prop_exterior_truncated_identity(sol, c, eps=2e-3, levels=16, order=None,
                                     cutoff_bound=1e-6):
    """Truncated linear-weight identity on {eps < u < c} for an exterior
    solution:

        int |hess_g f|_g^2 e^f dmu_g  =  c J(c) - eps J(eps),

    with J the curvature flux integral.  Returns (volume_term,
    boundary_term, cutoff_term) where boundary_term = c J(c) and
    cutoff_term = eps J(eps), the O(eps) far-field remainder.  The cutoff
    estimate eps * max|grad f|_g * max|hess_g f|_g * area_g(eps-level) must
    stay below cutoff_bound relative to the problem scale, else the call
    fails rather than report a polluted comparison.
    """
    if sol.problem != "exterior":
        raise ValueError("the truncated identity applies to exterior solutions")
    if not 0 < eps < c:
        raise ValueError("need 0 < eps < c")
    order = order if order is not None else sol.order
    ls_eps, _, j_eps, _ = _level_data(sol, eps, order)
    p_eps = p_function(eps, ls_eps.grad)
    h_eps = hess_f_conformal(eps, ls_eps.grad, ls_eps.hess)[1]
    area_g = float(np.sum(ls_eps.weights * dsigma_g_weight(eps)))
    cutoff_estimate = eps * float(np.sqrt(p_eps).max()) * float(h_eps.max()) \
        * area_g
    _, _, j_c, j_c_abs = _level_data(sol, c, order)
    scale = max(abs(c * j_c), c * j_c_abs, 1e-14)
    if cutoff_estimate > cutoff_bound * max(1.0, scale):
        raise CutoffTooLargeError(
            f"far-field cutoff estimate {cutoff_estimate:.3e} exceeds "
            f"{cutoff_bound:.1e} x scale; shrink eps")
    weight = WeightSpec.linear()
    volume = coarea_volume_integral(sol, _hessian_density(weight), eps, c,
                                    levels, order)
    return volume, c * j_c, eps * j_eps


def interior_flux_cubed_limit(sol):
    """Closed-form limit of int_{f=log t} |grad f|_g^3 dsigma_g as t -> inf
    for the interior problem, evaluated from the singular-part decomposition:

        (n-2)^(2(n-1)/(n-2)) (|S^{n-1}| / (d |dOmega|))^(2/(n-2)) d |dOmega|.

    The limit is independent of the Dirichlet boundary constant.
    """
    if sol.problem != "interior":
        raise ValueError("the flux-cubed limit applies to interior solutions")
    n = _N
    s_area = unit_sphere_area(n)
    d_area = sol.d * sol.boundary_area
    return ((n - 2) ** (2.0 * (n - 1) / (n - 2))
            * (s_area / d_area) ** (2.0 / (n - 2)) * d_area)


def interior_truncated_identity(sol, c, t_level, levels=16, order=None):
    """Shifted-log identity specialization for the interior problem on
    {c < u < t}: returns (volume_term, rhs) with

        volume = 2 int |hess_g f|_g^2 (1 - u/t) dmu_g,
        rhs = I3(t) - I3(c) - 2 (1 - c/t) J(c),

    the boundary form the shifted-log weight leaves after its top-level
    contribution vanishes.
    """
    if sol.problem != "interior":
        raise ValueError("interior identity applies to interior solutions")
    if not sol.c <= c < t_level:
        raise ValueError("need boundary value <= c < t")
    order = order if order is not None else sol.order
    weight = WeightSpec.shifted_log(t_level)
    _, i3_t, i2h_t, _ = _level_data(sol, t_level * (1 - 1e-9), order)
    _, i3_c, i2h_c, _ = _level_data(sol, c, order)
    volume = 2.0 * coarea_volume_integral(sol, _hessian_density(weight), c,
                                          t_level * (1 - 1e-9), levels, order)
    rhs = i3_t - i3_c - 2.0 * (1.0 - c / t_level) * i2h_c
    return volume, rhs
