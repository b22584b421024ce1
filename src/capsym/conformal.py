"""Pointwise quantities of the conformally rescaled metric g = u^(2/(n-2)) g_eucl.

With f = log u, the quantities computed here are the squared conformal
gradient ("P-function")

    |grad f|_g^2 = |Du|^2 / u^(2(n-1)/(n-2)),

the conformal Hessian of f in Euclidean components, with its g-norm and
the g-Laplacian residual |Delta_g f|,

    hess_g f = D^2 f - (2 df x df - |Df|^2 I) / (n-2),

the Euclidean mean curvature of a level set of u and its conformal map

    H_g/(n-1) = u^(-1/(n-2)) * (H/(n-1) - |Df|/(n-2)),

and the weights dsigma_g/dsigma and dmu_g/dmu of the g-surface and
g-volume measures.  These are the quantities that the criteria and the
identities report.

The Ricci tensor, the scalar curvature and the quasi-Einstein combination
Ric_g + hess_g f + df x df/(n-2) - |grad f|_g^2 g/(n-2) live in
tests/conformal_oracle.py, as an oracle of hess_f_conformal: for harmonic
u the combination vanishes identically, so a residual of it computed at
run time would check only this module's algebra, and no report carries
one.

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
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("f = log u requires u > 0")
    df = np.asarray(grad, dtype=float) / u[..., None]
    outer = df[..., :, None] * df[..., None, :]
    # |Df|^2 keeps two unit axes so that it broadcasts against the tensors
    df2 = np.sum(df * df, axis=-1)[..., None, None]
    d2f = np.asarray(hess, dtype=float) / u[..., None, None] - outer
    tensor = d2f - (2.0 * outer - df2 * _EYE3) / (_N - 2)
    conf = u ** (-2.0 / (_N - 2))
    return (tensor, np.sqrt(np.sum(tensor * tensor, axis=(-2, -1))) * conf,
            np.abs(np.trace(tensor, axis1=-2, axis2=-1)) * conf)


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


def dsigma_g_weight(u):
    """Weight turning Euclidean surface measure into the g-surface measure
    on a level set: dsigma_g = u^((n-1)/(n-2)) dsigma."""
    return np.asarray(u, dtype=float) ** ((_N - 1.0) / (_N - 2.0))


def dmu_g_weight(u):
    """Weight turning Euclidean volume measure into the g-volume measure:
    dmu_g = u^(n/(n-2)) dmu."""
    return np.asarray(u, dtype=float) ** (_N / (_N - 2.0))
