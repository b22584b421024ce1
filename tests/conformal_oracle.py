"""The Ricci tensor of g = u^(2/(n-2)) g_eucl, an oracle for
capsym.conformal.hess_f_conformal.

With f = log u, the conformal-change formula gives

    Ric_g = -D^2 f + df x df/(n-2) - (Delta f + |Df|^2) I/(n-2)

in Euclidean components.  For harmonic u, Delta f + |Df|^2 = Delta u/u
vanishes, and the rescaled metric satisfies the quasi-Einstein equation

    Ric_g + hess_g f + df x df/(n-2) - |grad f|_g^2 g/(n-2) = 0,

whose trace gives R_g/(n-1) = |grad f|_g^2/(n-2).  Ric_g is computed here
from (u, Du, D2u) alone; hess_g f is the tensor that hess_f_conformal
returns, so the quasi-Einstein residual checks that tensor against an
independent derivation.  Shapes follow capsym.conformal, at n = 3.
"""

from __future__ import annotations

import numpy as np

from capsym.conformal import hess_f_conformal

_N = 3
_EYE3 = np.eye(_N)


def _log_derivatives(u, grad, hess):
    """u, df x df, D^2 f and |Df|^2 (with two unit axes) of f = log u."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("f = log u requires u > 0")
    df = np.asarray(grad, dtype=float) / u[..., None]
    outer = df[..., :, None] * df[..., None, :]
    d2f = np.asarray(hess, dtype=float) / u[..., None, None] - outer
    df2 = np.sum(df * df, axis=-1)[..., None, None]
    return u, outer, d2f, df2


def ricci_conformal(u, grad, hess):
    """Ricci tensor of g in Euclidean components.

    The term with Delta f + |Df|^2 drops out for harmonic u but is kept so
    that non-harmonic perturbations register.
    """
    _, outer, d2f, df2 = _log_derivatives(u, grad, hess)
    lapf = np.trace(d2f, axis1=-2, axis2=-1)[..., None, None]
    return -d2f + outer / (_N - 2) - (lapf + df2) / (_N - 2) * _EYE3


def quasi_einstein_residual(u, grad, hess):
    """Max-norm defect of Ric_g + hess_g f + df x df/(n-2)
    - |grad f|_g^2 g/(n-2); identically zero in exact arithmetic for
    harmonic u, so the value bounds solver and derivative error.

    Returns (defect, |Delta_g f|), each of the leading shape of u.
    """
    _, outer, _, df2 = _log_derivatives(u, grad, hess)
    tensor, _, lap_res = hess_f_conformal(u, grad, hess)
    # |grad f|_g^2 g = |Df|^2 g_eucl in Euclidean components
    total = (ricci_conformal(u, grad, hess) + tensor
             + (outer - df2 * _EYE3) / (_N - 2))
    return np.max(np.abs(total), axis=(-2, -1)), lap_res


def scalar_curvature(u, grad, hess):
    """Scalar curvature of g; R_g/(n-1) = |grad f|_g^2/(n-2) for harmonic
    u."""
    trace = np.trace(ricci_conformal(u, grad, hess), axis1=-2, axis2=-1)
    return np.asarray(u, dtype=float) ** (-2.0 / (_N - 2)) * trace
