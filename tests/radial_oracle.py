"""Exact radial formulas for the ball in any dimension n >= 3, an oracle
that tests compare the solver, the level sets and the criteria against."""

from __future__ import annotations

from dataclasses import dataclass

from capsym.errors import InvalidDomainError
from capsym.geometry import unit_sphere_area


@dataclass(frozen=True)
class RadialGeometry:
    """Closed-form radial data for the ball of radius r0 in R^n."""

    n: int
    r0: float

    def __post_init__(self):
        if self.n < 3:
            raise InvalidDomainError("dimension must be at least 3")
        if not self.r0 > 0:
            raise InvalidDomainError("radius must be positive")

    @property
    def sphere_area(self):
        """|S^{n-1}|, area of the unit (n-1)-sphere."""
        return unit_sphere_area(self.n)

    @property
    def boundary_area(self):
        return self.sphere_area * self.r0 ** (self.n - 1)

    @property
    def capacity(self):
        """Boundary flux of the exterior unit-Dirichlet potential."""
        return (self.n - 2) * self.sphere_area * self.r0 ** (self.n - 2)


@dataclass(frozen=True)
class RadialValues:
    u: float
    du_magnitude: float
    d2u_radial: float


def radial_solution(geom, problem, r, c=None, d=1.0):
    """Exact radial potential of the ball, with derivatives.

    problem="exterior": u = c (r0/r)^(n-2) for r >= r0, decaying at infinity
    (boundary value c defaults to 1).
    problem="interior": u = d |dOmega| a_n r^(2-n) + const for 0 < r <= r0,
    normalized so u(r0) = c and with a_n = 1/((n-2)|S^{n-1}|); the default
    c = d r0/(n-2) makes the additive constant vanish.

    Returns (u, |Du|, second radial derivative of u).
    """
    n, r0 = geom.n, geom.r0
    r = float(r)
    if problem == "exterior":
        c = 1.0 if c is None else c
        if r < r0:
            raise ValueError(f"exterior solution needs r >= r0, got r={r}")
        u = c * (r0 / r) ** (n - 2)
        du = c * (n - 2) * r0 ** (n - 2) * r ** (1 - n)
        d2u = c * (n - 2) * (n - 1) * r0 ** (n - 2) * r ** (-n)
        return RadialValues(u, du, d2u)
    if problem == "interior":
        c = d * r0 / (n - 2) if c is None else c
        if not 0 < r <= r0:
            raise ValueError(f"interior solution needs 0 < r <= r0, got r={r}")
        amp = d * geom.boundary_area / ((n - 2) * geom.sphere_area)
        const = c - d * r0 / (n - 2)
        u = amp * r ** (2 - n) + const
        du = amp * (n - 2) * r ** (1 - n)
        d2u = amp * (n - 2) * (n - 1) * r ** (-n)
        return RadialValues(u, du, d2u)
    raise ValueError(f"unknown problem kind {problem!r}")
