"""The five reference solutions that the test modules share, each solved
once per module that asks for it: ball_solution (the exterior unit ball),
ellipsoid_solution (the exterior ellipsoid (2, 1, 1)), star_solution (the
exterior bench star), ball_interior and ellipsoid_interior (the interior
unit ball and ellipsoid (2, 1, 1), c = d = 1)."""

import pytest

from capsym import DomainSpec, solve_exterior, solve_interior


@pytest.fixture(scope="module")
def ball_solution():
    return solve_exterior(DomainSpec(kind="sphere", radius=1.0))


@pytest.fixture(scope="module")
def ellipsoid_solution():
    return solve_exterior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="module")
def star_solution():
    return solve_exterior(DomainSpec(kind="star", mean_radius=1.0,
                                     terms=((2, 0, 0.1), (3, 1, 0.05))))


@pytest.fixture(scope="module")
def ball_interior():
    return solve_interior(DomainSpec(kind="sphere", radius=1.0), c=1.0, d=1.0)


@pytest.fixture(scope="module")
def ellipsoid_interior():
    return solve_interior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)),
                          c=1.0, d=1.0)
