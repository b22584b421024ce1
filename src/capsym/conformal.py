"""Pointwise quantities of the conformally rescaled metric g = u^(2/(n-2)) g_eucl.

With f = log u, the quantities computed here are the squared conformal
gradient ("P-function")

    |grad f|_g^2 = |Du|^2 / u^(2(n-1)/(n-2)),

the conformal Hessian of f in Euclidean components,

    hess_g f = D^2 f - (2 df x df - |Df|^2 I) / (n-2),

the level-set mean curvature map

    H_g/(n-1) = u^(-1/(n-2)) * (H/(n-1) - |Df|/(n-2)),

and the quasi-Einstein combination Ric_g + hess_g f + df x df/(n-2)
- |grad f|_g^2 g/(n-2), which vanishes identically when u is harmonic.

Everything is assembled from Euclidean (u, Du, D2u) values; nothing here
differentiates a discretized metric, so the only error sources are the
solver's derivative values themselves.  Du has shape (..., 3) and D2u
shape (..., 3, 3) for any leading shape (...), u has shape (...) or one
that broadcasts to it (a level set passes its scalar level), and results
have shape (...) or (..., 3, 3): one point (shape ()) and a batch of
points run the same broadcast code.

The formulas are written for general n, but every quantity here, the
P-function included, is evaluated at n = 3, the dimension of the solver's
points.
"""

from __future__ import annotations

import numpy as np

from .errors import CriticalPointError

_N = 3
_EYE3 = np.eye(_N)


def _log_derivatives(u, grad, hess):
    """u, df x df, D^2 f and |Df|^2 of f = log u.

    Shapes as in the module docstring.  |Df|^2 keeps two unit axes so that
    it broadcasts against the (..., 3, 3) tensors.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("f = log u requires u > 0")
    df = np.asarray(grad, dtype=float) / u[..., None]
    outer = df[..., :, None] * df[..., None, :]
    d2f = np.asarray(hess, dtype=float) / u[..., None, None] - outer
    df2 = np.sum(df * df, axis=-1)[..., None, None]
    return u, outer, d2f, df2


def _hess_g_f(d):
    """(hess_g f, |hess_g f|_g, |Delta_g f|) from _log_derivatives output d."""
    u, outer, d2f, df2 = d
    tensor = d2f - (2.0 * outer - df2 * _EYE3) / (_N - 2)
    conf = u ** (-2.0 / (_N - 2))
    return (tensor, np.sqrt(np.sum(tensor * tensor, axis=(-2, -1))) * conf,
            np.abs(np.trace(tensor, axis1=-2, axis2=-1)) * conf)


def _ricci_g(d):
    """Ric_g from _log_derivatives output d."""
    _, outer, d2f, df2 = d
    lapf = np.trace(d2f, axis1=-2, axis2=-1)[..., None, None]
    return -d2f + outer / (_N - 2) - (lapf + df2) / (_N - 2) * _EYE3


def p_function(u, grad):
    """Squared conformal gradient length |grad f|_g^2 of f = log u.

    Coincides with the classical P-function |Du|^2 / u^(2(n-1)/(n-2));
    constant exactly on radial potentials.
    """
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("p_function requires u > 0")
    grad = np.asarray(grad, dtype=float)
    g2 = np.sum(grad * grad, axis=-1)
    return g2 * u ** (-2.0 * (_N - 1) / (_N - 2))


def hess_f_conformal(u, grad, hess):
    """Conformal Hessian of f = log u in Euclidean components.

    Returns (tensor, |hess_g f|_g, |Delta_g f|).  The g-trace recovers
    Delta_g f = u^(-2/(n-2)) * (Delta f + |Df|^2), which vanishes for
    harmonic u, so the reported Laplacian residual bounds derivative error.
    """
    return _hess_g_f(_log_derivatives(u, grad, hess))


def mean_curvature_conformal(h_euclid, u, grad_norm):
    """Map the Euclidean level-set mean curvature H to its conformal
    counterpart H_g; both use the unit normal -Du/|Du|.

    A level set is minimal in the rescaled metric exactly when
    H/(n-1) = |Du|/((n-2) u).
    """
    u = np.asarray(u, dtype=float)
    grad_norm = np.asarray(grad_norm, dtype=float)
    if np.any(grad_norm == 0):
        raise CriticalPointError("mean curvature map needs |Du| > 0")
    df_norm = grad_norm / u
    return ((_N - 1) * u ** (-1.0 / (_N - 2))
            * (h_euclid / (_N - 1) - df_norm / (_N - 2)))


def level_set_mean_curvature(grad, hess):
    """Euclidean mean curvature of the level set through a regular point,
    H = D2u(nu, nu)/|Du| with nu = -Du/|Du| (equals div nu for harmonic u)."""
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    gn = np.linalg.norm(grad, axis=-1)
    if np.any(gn == 0):
        raise CriticalPointError("level-set curvature needs |Du| > 0")
    quad = np.einsum("...a,...ab,...b->...", grad, hess, grad)
    return quad / gn ** 3


def ricci_conformal(u, grad, hess):
    """Ricci tensor of g in Euclidean components.

    General conformal-change formula; the term with Delta f + |Df|^2 drops
    out for harmonic u but is kept so that non-harmonic perturbations
    register.
    """
    return _ricci_g(_log_derivatives(u, grad, hess))


def quasi_einstein_residual(u, grad, hess):
    """Max-norm defect of Ric_g + hess_g f + df x df/(n-2)
    - |grad f|_g^2 g/(n-2); identically zero in exact arithmetic for
    harmonic u, so the value bounds solver and derivative error.

    Returns (defect, |Delta_g f|), each of the leading shape of u.
    """
    d = _log_derivatives(u, grad, hess)
    tensor, _, lap_res = _hess_g_f(d)
    _, outer, _, df2 = d
    # |grad f|_g^2 g = |Df|^2 g_eucl in Euclidean components
    total = _ricci_g(d) + tensor + (outer - df2 * _EYE3) / (_N - 2)
    return np.max(np.abs(total), axis=(-2, -1)), lap_res


def scalar_curvature(u, grad, hess):
    """Scalar curvature of g; satisfies R_g/(n-1) = |grad f|_g^2/(n-2)
    for harmonic u."""
    d = _log_derivatives(u, grad, hess)
    trace = np.trace(_ricci_g(d), axis1=-2, axis2=-1)
    return d[0] ** (-2.0 / (_N - 2)) * trace


def dsigma_g_weight(u):
    """Weight turning Euclidean surface measure into the g-surface measure
    on a level set: dsigma_g = u^((n-1)/(n-2)) dsigma."""
    return np.asarray(u, dtype=float) ** ((_N - 1.0) / (_N - 2.0))


def dmu_g_weight(u):
    """Weight turning Euclidean volume measure into the g-volume measure:
    dmu_g = u^(n/(n-2)) dmu."""
    return np.asarray(u, dtype=float) ** (_N / (_N - 2.0))
