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
provided: phi(f) = f (K = 0) and phi_t(f) = log(1 - e^f/t) (K = 1); the
truncated exterior and interior identities are this identity with those
weights on their own pairs of levels.  The volume term is a coarea integral
over the levels of u with the G7/K15 rule of capsym.levelset, which gives
its quadrature error |K15 - G7| too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (dsigma_g_weight, dmu_g_weight, hess_f_conformal,
                        mean_curvature_conformal, p_function)
from .errors import CutoffTooLargeError
from .geometry import unit_sphere_area
from .levelset import coarea_volume_integral, extract_level_set

_N = 3
_QEXP = 2.0 * (_N - 1) / (_N - 2)
# largest far-field cutoff estimate of the truncated exterior identity,
# relative to its scale
CUTOFF_BOUND = 1e-6


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

def _level_data(sol, c, order=None):
    """(I3, J, int |grad f|_g^2 |H_g| dsigma_g) on {u = c}."""
    ls = extract_level_set(sol, c, order=order)
    p = p_function(ls.level, ls.grad)
    dsg = ls.weights * dsigma_g_weight(ls.level)
    h_g = mean_curvature_conformal(ls.mean_curv, ls.level, ls.u_grad)
    return (float(np.sum(dsg * p ** 1.5)), float(np.sum(dsg * p * h_g)),
            float(np.sum(dsg * p * np.abs(h_g))))


def flux_cubed_integral(sol, c):
    """int_{f=log c} |grad f|_g^3 dsigma_g = int_{u=c} P |Du| dsigma."""
    return _level_data(sol, c)[0]


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
    quadrature_error is the error estimate of lhs in the level variable:
    twice |K15 - G7| of the coarea volume integral.
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


def weighted_identity_check(sol, weight, a, b, order=None):
    """Check the weighted identity between the f-levels a < b.

    Both sides are produced by independent numerical pipelines: the left by
    coarea integration of 2 e^phi |hess_g f|_g^2 over the slab, the right
    from the four boundary integrals.  rel_residual is |lhs - rhs| / scale,
    with scale = I3(a) + I3(b) the two flux-cubed integrals; the quadrature
    error field is the G7/K15 error of the left side.
    """
    if not a < b:
        raise ValueError("need a < b")
    weight.validate_range(b)
    ca, cb = math.exp(a), math.exp(b)

    i3_b, i2h_b, _ = _level_data(sol, cb, order)
    i3_a, i2h_a, _ = _level_data(sol, ca, order)
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
    volume, volume_err = coarea_volume_integral(
        sol, _hessian_density(weight), ca, cb, order)
    lhs = 2.0 * volume
    scale = abs(i3_b) + abs(i3_a)
    abs_res = abs(lhs - rhs)
    return IdentityResidual(lhs=lhs, rhs=rhs, rhs_terms=terms,
                            rel_residual=abs_res / scale, abs_residual=abs_res,
                            scale=scale, quadrature_error=2.0 * volume_err)


def prop_exterior_truncated_identity(sol, c, eps=2e-3):
    """Truncated linear-weight identity on {eps < u < c} for an exterior
    solution: the weighted identity with phi(f) = f between the f-levels
    log eps and log c,

        2 int |hess_g f|_g^2 e^f dmu_g  =  2 c J(c) - 2 eps J(eps),

    with J the curvature flux integral, returned as its IdentityResidual:
    rhs_terms "curvatureTop" is 2 c J(c) and "curvatureBottom" is
    -2 eps J(eps), the O(eps) far-field remainder.  The cutoff estimate
    eps * max|grad f|_g * max|hess_g f|_g * area_g(eps-level) must stay
    below CUTOFF_BOUND relative to the problem scale, else the call fails
    rather than report a polluted comparison.
    """
    if sol.problem != "exterior":
        raise ValueError("the truncated identity applies to exterior solutions")
    if not 0 < eps < c:
        raise ValueError("need 0 < eps < c")
    ls = extract_level_set(sol, eps)
    h_eps = hess_f_conformal(eps, ls.grad, ls.hess)[1]
    cutoff_estimate = (eps * float(np.sqrt(p_function(eps, ls.grad)).max())
                       * float(h_eps.max()) * dsigma_g_weight(eps) * ls.area)
    # |c J(c)| is at most c int |grad f|_g^2 |H_g| dsigma_g
    scale = max(c * _level_data(sol, c)[2], 1e-14)
    if cutoff_estimate > CUTOFF_BOUND * max(1.0, scale):
        raise CutoffTooLargeError(
            f"far-field cutoff estimate {cutoff_estimate:.3e} exceeds "
            f"{CUTOFF_BOUND:.1e} x scale; shrink eps")
    return weighted_identity_check(sol, WeightSpec.linear(), math.log(eps),
                                   math.log(c))


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


def interior_truncated_identity(sol, c, t_level):
    """Shifted-log identity for the interior problem on {c < u < t}: the
    weighted identity with phi_t(f) = log(1 - e^f/t) between the f-levels
    log c and log(t (1 - 1e-9)), just below the weight's singular level,

        2 int |hess_g f|_g^2 (1 - u/t) dmu_g
            = I3(t) - I3(c) + 2e-9 J(t) - 2 (1 - c/t) J(c),

    returned as its IdentityResidual.
    """
    if sol.problem != "interior":
        raise ValueError("interior identity applies to interior solutions")
    if not sol.c <= c < t_level:
        raise ValueError("need boundary value <= c < t")
    return weighted_identity_check(sol, WeightSpec.shifted_log(t_level),
                                   math.log(c),
                                   math.log(t_level * (1 - 1e-9)))
