"""
Integral identities of the conformal reformulation
==================================================

Writing f = log u and g = u^2 g_eucl (n = 3), the field f is g-harmonic
and the Bochner identity for P = |grad f|_g^2 closes pointwise; between
two levels of f a weighted partial integration relates the volume integral
of |hess_g f|_g^2 to boundary fluxes.  Both are checked here by computing
the two sides through independent pipelines.
"""

import math

import numpy as np

from capsym import (DomainSpec, WeightSpec, bochner_sides,
                    prop_exterior_truncated_identity, solve_exterior,
                    weighted_identity_check)

spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
sol = solve_exterior(spec)

# pointwise Bochner identity at random exterior points
rng = np.random.default_rng(1)
dirs = rng.normal(size=(30, 3))
dirs /= np.linalg.norm(dirs, axis=1)[:, None]
pts = dirs * rng.uniform(2.2, 6.0, 30)[:, None]
states = sol.field(pts)
lhs, rhs = bochner_sides(states.u, states.grad, states.hess)
print(f"Bochner residual over 30 points: max {np.abs(lhs - rhs).max():.3e}")

# weighted identity between the levels u = 0.2 and u = 0.8
a, b = math.log(0.2), math.log(0.8)
for weight in (WeightSpec.linear(), WeightSpec.shifted_log(5.0)):
    res = weighted_identity_check(sol, weight, a, b)
    print(f"weight {weight.kind:<11} K={weight.first_integral}: "
          f"lhs {res.lhs:.8e}  rhs {res.rhs:.8e}  "
          f"rel residual {res.rel_residual:.2e}")

# truncated identity with an explicit far-field cutoff level: the linear
# weight between u = 2e-3 and u = 0.8, whose lower boundary term is the cutoff
res = prop_exterior_truncated_identity(sol, c=0.8, eps=2e-3)
print(f"truncated identity: volume {res.lhs / 2:.8e}  "
      f"boundary {res.rhs_terms['curvatureTop'] / 2:.8e}  "
      f"cutoff {-res.rhs_terms['curvatureBottom'] / 2:.2e}")
print(f"  rel residual {res.rel_residual:.2e}  "
      f"quadrature error {res.quadrature_error:.2e}")
