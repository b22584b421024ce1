"""
How a 2:1 ellipsoid fails every symmetry criterion
==================================================

The same pipeline on the prolate ellipsoid with semi-axes (2, 1, 1).
The exterior solve puts the equilibrium charge on the focal segment in
closed form, a uniform density sampled at Gauss nodes with no fit, which
gets the boundary misfit to ~1e-15, and the criteria battery then
quantifies how far the domain is from the rigidity case.
"""

import math

from capsym import (DomainSpec, capacity, p_function_spread, run_battery,
                    solve_exterior, symmetry_certificate)

spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
sol = solve_exterior(spec)
print(f"boundary misfit: {sol.fit_residual:.3e}")

# capacity, bracketed by the inscribed and circumscribed balls and equal to
# 4 pi sqrt(3)/log(2 + sqrt(3)) for this conductor
cap = capacity(sol)
exact = 4 * math.pi * math.sqrt(3.0) / math.log(2.0 + math.sqrt(3.0))
print(f"capacity: {cap:.10f}  (closed form {exact:.10f}, "
      f"ball bounds [{4 * math.pi:.4f}, {8 * math.pi:.4f}])")

print(f"P-function spread: {p_function_spread(sol):.4f} "
      "(a ball would give ~1e-12)")

for report in run_battery(sol):
    eq = " (equality)" if getattr(report, "witnesses", {}).get("equality") \
        else ""
    print(f"  {report.criterion_id:<22} lhs {report.lhs:>12.6g} "
          f"rhs {report.rhs:>12.6g}  -> {report.verdict}{eq}")

cert = symmetry_certificate(sol)
print(f"certificate granted: {cert.granted} "
      f"(failing metric: {cert.failing_metric}, "
      f"P spread {cert.p_function_spread:.3e})")
