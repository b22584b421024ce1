"""Level sets, criteria and identities see a solution only through the field
protocol: ``field(points, want, check_region)``, ``problem``, ``c``, ``d``,
``domain``, ``order``, the error floor's ``fit_residual``, the axes
``mirrors`` whose reflections leave u unchanged and the cache
``_levelset_cache``.

An exact field that offers nothing else, the closed-form potential of a
ball, runs through the battery, the certificate, capacity and the default
identity next to the MFS solution of the same problem.  Reading any other
attribute raises AttributeError, so a new dependency on the solver's state
fails here.  The outcomes must agree, and every MFS value must lie within
its own error estimate of the exact one.
"""

import math

import numpy as np
import pytest

from capsym import (DomainSpec, FieldStates, WeightSpec, capacity,
                    run_battery, solve_exterior, solve_interior,
                    symmetry_certificate, weighted_identity_check)
from capsym.criteria import default_levels

R0, C, D = 1.5, 2.0, 0.5


class ExactBall:
    """u = a/r + b on the ball of radius r0 about the origin, with u = c on
    the sphere: a = c r0, b = 0 outside it (u -> 0 at infinity), and
    a = d r0^2, b = c - d r0 inside it (|Du| = d on the sphere, the point
    source d |dOmega| at the origin)."""

    __slots__ = ("problem", "c", "d", "domain", "order", "fit_residual",
                 "_levelset_cache")
    mirrors = (0, 1, 2)

    def __init__(self, problem, r0, c, d=None, order=16):
        self.problem, self.c, self.d, self.order = problem, c, d, order
        self.domain = DomainSpec(kind="sphere", radius=r0)
        self.fit_residual = 0.0
        self._levelset_cache = {}

    def field(self, points, want="hess", check_region=True):
        r0 = self.domain.radius
        if self.problem == "exterior":
            a, b = self.c * r0, 0.0
        else:
            a, b = self.d * r0 ** 2, self.c - self.d * r0
        x = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(x, axis=1)
        r3, r5 = r[:, None, None] ** 3, r[:, None, None] ** 5
        hess = a * (3.0 * x[:, :, None] * x[:, None, :] / r5 - np.eye(3) / r3)
        return FieldStates(points=x, u=a / r + b, grad=-a * x / r3[:, :, 0],
                           hess=hess)


def outcomes(sol):
    """Battery rows, certificate, capacity (exterior) and the default
    identity of the CLI report, on any object with the field protocol."""
    lo, _, hi = default_levels(sol.problem, sol.c)
    return {
        "rows": run_battery(sol),
        "certificate": symmetry_certificate(sol),
        "capacity": (capacity(sol) if sol.problem == "exterior" else None),
        "identity": weighted_identity_check(sol, WeightSpec.linear(),
                                            math.log(lo), math.log(hi)),
    }


@pytest.fixture(scope="module", params=["exterior", "interior"])
def pair(request):
    spec = DomainSpec(kind="sphere", radius=R0)
    if request.param == "exterior":
        mfs = solve_exterior(spec, c=C)
    else:
        mfs = solve_interior(spec, c=C, d=D)
    exact = ExactBall(request.param, R0, C, mfs.d, order=mfs.order)
    return outcomes(exact), outcomes(mfs)


def test_exact_field_offers_only_the_protocol():
    sol = ExactBall("interior", R0, C, D)
    for name in ("singular_coefficient", "boundary_area", "sources",
                 "charges", "check_misfit", "condition_estimate"):
        with pytest.raises(AttributeError):
            getattr(sol, name)
    with pytest.raises(AttributeError):
        sol.boundary_area = 4.0 * math.pi * R0 ** 2


@pytest.mark.parametrize("problem", ["exterior", "interior"])
def test_exact_field_is_the_ball_potential(problem):
    sol = ExactBall(problem, R0, C, D)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(8, 3))
    x *= (R0 * (2.0 if problem == "exterior" else 0.5)
          / np.linalg.norm(x, axis=1))[:, None]
    st = sol.field(x)
    on_sphere = sol.field(x * (R0 / np.linalg.norm(x, axis=1))[:, None])
    np.testing.assert_allclose(on_sphere.u, C, rtol=1e-15)
    if problem == "interior":
        np.testing.assert_allclose(on_sphere.grad_norm, D, rtol=1e-15)
    # harmonic, and Du is the derivative of u
    np.testing.assert_allclose(np.trace(st.hess, axis1=1, axis2=2), 0.0,
                               atol=1e-12)
    h = 1e-6
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        fd = (sol.field(x + e).u - sol.field(x - e).u) / (2 * h)
        np.testing.assert_allclose(st.grad[:, k], fd, rtol=1e-8)
        fd = (sol.field(x + e).grad - sol.field(x - e).grad) / (2 * h)
        np.testing.assert_allclose(st.hess[:, :, k], fd, rtol=1e-7, atol=1e-9)


def test_battery_agrees_within_the_mfs_error(pair):
    exact, mfs = pair
    assert len(exact["rows"]) == len(mfs["rows"])
    for e, m in zip(exact["rows"], mfs["rows"]):
        assert e.criterion_id == m.criterion_id
        assert e.verdict == m.verdict
        assert e.witnesses["equality"] == m.witnesses["equality"]
        assert abs(e.lhs - m.lhs) <= m.error_estimate, e.criterion_id


def test_certificate_and_capacity_agree(pair):
    exact, mfs = pair
    for key in ("granted", "failing_metric"):
        assert getattr(exact["certificate"], key) == getattr(
            mfs["certificate"], key)
    if exact["capacity"] is not None:
        assert abs(exact["capacity"] - 4.0 * math.pi * R0) <= 1e-12 * R0
        assert abs(mfs["capacity"] - exact["capacity"]) <= 1e-6 * R0
        assert abs(exact["certificate"].inferred_radius - R0) <= 1e-12


def test_default_identity_agrees(pair):
    exact, mfs = pair
    e, m = exact["identity"], mfs["identity"]
    # the volume term vanishes for a radial field, so both sides are
    # roundoff of the problem's scale
    for res in (e, m):
        assert res.abs_residual <= 1e-12 * res.scale
    assert abs(e.scale - m.scale) <= 1e-9 * e.scale
    assert abs(e.lhs - m.lhs) <= m.quadrature_error + 1e-12 * m.scale


@pytest.mark.parametrize("field", ["exact", "mfs"])
@pytest.mark.parametrize("problem", ["exterior", "interior"])
def test_default_identity_error_covers_the_roundoff_of_the_unit_ball(
        problem, field):
    # the volume term of a radial field is exactly 0, so its computed value
    # is all roundoff, which the error must cover without growing into a
    # blanket eps * scale
    if field == "exact":
        sol = ExactBall(problem, 1.0, 1.0, 1.0)
    elif problem == "exterior":
        sol = solve_exterior(DomainSpec(kind="sphere", radius=1.0))
    else:
        sol = solve_interior(DomainSpec(kind="sphere", radius=1.0), d=1.0)
    lo, _, hi = default_levels(problem, 1.0)
    res = weighted_identity_check(sol, WeightSpec.linear(), math.log(lo),
                                  math.log(hi))
    assert abs(res.lhs) <= res.quadrature_error <= 1e-20 * res.scale
