"""Two-sided numerical checks of the integral and pointwise identities that
the conformal reformulation satisfies.

The pointwise check is the specialized Bochner identity for P = |grad f|_g^2,

    Delta_g P = 2 |hess_g f|_g^2 - <grad P, grad f>_g,

assembled on both sides from raw Euclidean derivative data without assuming
harmonicity anywhere, so feeding in artificially non-harmonic values makes
the residual respond linearly.

The integral check is the weighted partial-integration identity between two
levels a < b of f = log u,

    2 int_{a<f<b} |hess_g f|_g^2 w dmu_g
        = K [I3(b) - I3(a)] + 2 w(b) J(b) - 2 w(a) J(a),

with I3(l) = int_{f=l} |grad f|_g^3 dsigma_g, J(l) = int_{f=l} |grad f|_g^2 H_g
dsigma_g, valid whenever the weight w = e^phi has phi solving
phi'' + (phi')^2 - phi' = 0.  As w' = phi' w and w'' = (phi'' + phi'^2) w
(primes in f), that ODE is w'' = w', so every such weight is w = K + B u,
evaluated from u in closed form, with first integral K = w - w'.  Two are
provided: w = u (phi(f) = f, K = 0) and w = 1 - u/t (phi_t(f) =
log(1 - e^f/t), K = 1).  The truncated identities are
weighted_identity_check with these two weights.  The exterior one, on
{eps < u < c}, takes w = u between log eps and log c; its bottom curvature
term -2 eps J(eps) is the O(eps) far-field remainder.  The interior one, on
{c < u < t}, takes w = 1 - u/t between log c and log(t (1 - 1e-9)), just
below the level t where the weight vanishes.  The volume term is integrated
with G7/K15 along the rays of capsym.levelset, between the radii of the two
level sets on each ray; its quadrature error is |K15 - G7| summed over the
rays and panels, in the units of the integral, at least the integral of
the roundoff of |hess_g f|_g^2 (_hessian_density).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conformal import (dsigma_g_weight, dmu_g_weight, hess_f_conformal,
                        mean_curvature_conformal, p_function)
from .geometry import _json_fields, unit_sphere_area
from .levelset import _boundary, _ray_volume, extract_level_set

_N = 3
_QEXP = 2.0 * (_N - 1) / (_N - 2)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightSpec:
    """A weight w = K + B u of the level f = log u, that is w = e^phi(f)
    with phi solving phi'' + (phi')^2 - phi' = 0.

    kind "linear" is w = u (phi(f) = f) with first integral K = 0; kind
    "shifted-log" is w = 1 - u/t (phi_t(f) = log(1 - e^f/t)) with K = 1,
    positive for f < log t.
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
        """K = w - dw/df = (1 - phi') e^phi, constant along the weight ODE."""
        return 0.0 if self.kind == "linear" else 1.0

    def __call__(self, u):
        """The weight w at u = e^f."""
        return u if self.kind == "linear" else 1.0 - u / self.t

    def validate_range(self, f_max):
        if self.kind == "shifted-log" and f_max >= math.log(self.t):
            raise ValueError(
                f"shifted-log weight needs f < log t = {math.log(self.t):.6g}; "
                f"got f up to {f_max:.6g}")


# ---------------------------------------------------------------------------
# pointwise Bochner identity
# ---------------------------------------------------------------------------

def bochner_sides(u, grad, hess, lap_grad=0.0):
    """Both sides of the specialized Bochner identity at a point or a batch.

    Shapes are those of capsym.conformal at n = 3: u (...), grad (..., 3),
    hess (..., 3, 3).  Returns (Delta_g P, 2|hess_g f|_g^2 - <grad P, grad f>_g).
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
    conf = u ** (-2.0 / (_N - 2))
    lhs = conf * (lap_p + dot_pf)
    hess_norm = hess_f_conformal(u, grad, hess)[1]
    rhs = 2.0 * hess_norm ** 2 - conf * dot_pf
    return lhs, rhs


# ---------------------------------------------------------------------------
# level-set boundary integrals of the weighted identity
# ---------------------------------------------------------------------------

def _level_data(sol, c, order=None):
    """(I3, J, radii) on {u = c}."""
    ls = extract_level_set(sol, c, order=order)
    p = p_function(ls.level, ls.grad)
    dsg = ls.weights * dsigma_g_weight(ls.level)
    h_g = mean_curvature_conformal(ls.mean_curv, ls.level, ls.u_grad)
    return (float(np.sum(dsg * p ** 1.5)), float(np.sum(dsg * p * h_g)),
            ls.radii)


def _hessian_density(weight):
    """Integrand of the volume term and its roundoff estimate: the pair
    (F, dF) with F = w |hess_g f|_g^2 dmu_g/dmu at the points of a
    FieldStates, as levelset._ray_volume takes them.

    H = |hess_g f|_g is formed from terms whose Frobenius sizes add to
    T = (|D2u|/u + (3 + sqrt 3) |Du|^2/u^2)/u^2 (hess_f_conformal), which
    cancel to nothing on a radial field, so H carries an error of about
    dH = 4 eps T and H^2 one of (2H + dH) dH.  dF is an estimate of the
    roundoff of forming F from u, Du and D2u, not a bound: it leaves out
    the roundoff those carry from the kernel sums.
    """
    def density(st):
        u, grad, hess = st.u, st.grad, st.hess
        hnorm = hess_f_conformal(u, grad, hess)[1]
        size = (np.sqrt(np.einsum("nab,nab->n", hess, hess)) / u
                + (3.0 + math.sqrt(3.0)) * np.einsum("na,na->n", grad, grad)
                / u ** 2) / u ** 2
        dh = 4.0 * np.finfo(float).eps * size
        w, dmu = weight(u), dmu_g_weight(u)
        return w * hnorm ** 2 * dmu, w * dmu * (2.0 * hnorm + dh) * dh
    return density


@dataclass(frozen=True)
class IdentityResidual:
    """Two sides of the weighted identity plus the relative residual.

    rhs_terms holds the individually computed boundary contributions;
    ``scale`` is the sum of the two |grad f|_g^3 fluxes, the size of the
    problem, and rel_residual is |lhs - rhs| / scale, which stays
    meaningful when both sides vanish (the radial case).
    quadrature_error is the error estimate of lhs: twice |K15 - G7| of the
    volume integral along the rays, summed over rays and panels, at least
    twice its roundoff floor, which counts an estimate of the roundoff of
    |hess_g f|_g^2 (_hessian_density; it leaves out the roundoff of the
    kernel sums).  On a radial field that roundoff is all of lhs.
    """

    lhs: float
    rhs: float
    rhs_terms: dict
    rel_residual: float
    abs_residual: float
    scale: float
    quadrature_error: float

    to_json_dict = _json_fields


def weighted_identity_check(sol, weight, a, b, order=None):
    """Check the weighted identity between the f-levels a < b.

    Both sides are produced by independent numerical pipelines: the left by
    integrating 2 w |hess_g f|_g^2 over the slab along the rays, between
    the radii of the two level sets, the right from the four boundary
    integrals.  rel_residual is |lhs - rhs| / scale, with scale = I3(a) +
    I3(b) the two flux-cubed integrals, which also sets the accuracy the
    left side is integrated to; the quadrature error field is the G7/K15
    error of the left side.
    """
    if not a < b:
        raise ValueError("need a < b")
    weight.validate_range(b)
    ca, cb = math.exp(a), math.exp(b)

    i3_b, i2h_b, r_b = _level_data(sol, cb, order)
    i3_a, i2h_a, r_a = _level_data(sol, ca, order)
    K = weight.first_integral
    terms = {
        "fluxCubedTop": K * i3_b,
        "fluxCubedBottom": -K * i3_a,
        "curvatureTop": 2.0 * weight(cb) * i2h_b,
        "curvatureBottom": -2.0 * weight(ca) * i2h_a,
    }
    rhs = sum(terms.values())
    scale = abs(i3_b) + abs(i3_a)
    # u falls off along every ray, so {u = b} is the inner level set
    volume, volume_err = _ray_volume(
        sol, _hessian_density(weight), "hess", r_b, r_a,
        order if order is not None else sol.order, scale)
    lhs = 2.0 * volume
    abs_res = abs(lhs - rhs)
    return IdentityResidual(lhs=lhs, rhs=rhs, rhs_terms=terms,
                            rel_residual=abs_res / scale, abs_residual=abs_res,
                            scale=scale, quadrature_error=2.0 * volume_err)


def interior_flux_cubed_limit(sol):
    """Closed-form limit of int_{f=log t} |grad f|_g^3 dsigma_g as t -> inf
    for the interior problem, evaluated from the singular-part decomposition:

        (n-2)^(2(n-1)/(n-2)) (|S^{n-1}| / (d |dOmega|))^(2/(n-2)) d |dOmega|.

    The limit is independent of the Dirichlet boundary constant.  The area
    |dOmega| is that of the boundary level set at the solution's order.
    """
    if sol.problem != "interior":
        raise ValueError("the flux-cubed limit applies to interior solutions")
    d_area = sol.d * _boundary(sol).area
    return ((_N - 2) ** (2.0 * (_N - 1) / (_N - 2))
            * (unit_sphere_area(_N) / d_area) ** (2.0 / (_N - 2)) * d_area)

