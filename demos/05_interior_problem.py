"""
The interior problem with a point singularity
=============================================

A potential with -Laplacian u = d |dOmega| delta_0 in the domain and
u = c on the boundary.  The singular part d |dOmega| |x|^(-1)/(4 pi) is
carried in closed form; only the bounded remainder is fitted.  On the ball
with c = d r0/(n-2) the solution is exactly d r0^2/r, so the Neumann data
|Du| is the constant d.
"""

from capsym import (DomainSpec, check_T16, check_neumann, normalization_c1,
                    normalization_c2, solve_interior, surface_integral)
from capsym.geometry import build_quadrature

for name, spec in (("ball", DomainSpec(kind="sphere", radius=1.0)),
                   ("ellipsoid", DomainSpec(kind="ellipsoid",
                                            axes=(2.0, 1.0, 1.0)))):
    sol = solve_interior(spec, c=1.0, d=1.0)
    quad = build_quadrature(spec, sol.order)
    gn = sol.field(quad.nodes, want="grad", check_region=False).grad_norm
    flux_ratio = surface_integral(quad, gn) / (sol.d * quad.area)
    print(f"--- {name} ---")
    print(f"boundary misfit {sol.fit_residual:.2e}, "
          f"flux/(d |dOmega|) - 1 = {flux_ratio - 1:.2e}")
    print(f"|Du| on the boundary: mean {gn.mean():.8f}, "
          f"spread {gn.max() - gn.min():.2e}")
    print(f"normalization constants: c1 = {normalization_c1(sol):.8f}, "
          f"c2 = {normalization_c2(sol):.8f}")
    neumann = check_neumann(sol)
    print(f"constant-Neumann criterion: {neumann.verdict}")
    integral = check_T16(sol)
    print(f"integral criterion: lhs {integral.lhs:.6f} "
          f"rhs {integral.rhs:.6f} -> {integral.verdict}")
