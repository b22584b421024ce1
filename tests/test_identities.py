import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsym import (CutoffTooLargeError, DomainSpec, WeightSpec,
                    bochner_residual, bochner_sides, coarea_volume_integral,
                    flux_cubed_integral, hess_f_conformal, identities,
                    interior_flux_cubed_limit,
                    interior_truncated_identity,
                    prop_exterior_truncated_identity, quasi_einstein_residual,
                    ricci_conformal, scalar_curvature, solve_exterior,
                    solve_interior, weighted_identity_check)
from capsym.harmonic import PointState


@pytest.fixture(scope="module")
def ball_solution():
    return solve_exterior(DomainSpec(kind="sphere", radius=1.0))


@pytest.fixture(scope="module")
def ellipsoid_solution():
    return solve_exterior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="module")
def ball_interior():
    return solve_interior(DomainSpec(kind="sphere", radius=1.0), c=1.0, d=1.0)


def sample_points(sol, count, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r_exit = np.atleast_1d(sol.domain.ray_exit_radius(dirs))
    return dirs * (r_exit * rng.uniform(1.05, 3.0, count))[:, None]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weight_ode_and_first_integral():
    f = np.linspace(-3.0, 1.0, 41)
    linear = WeightSpec.linear()
    assert np.abs(linear.ode_residual(f)).max() < 1e-14
    assert np.abs(linear.first_integral_residual(f)).max() < 1e-14
    assert linear.first_integral == 0.0
    shifted = WeightSpec.shifted_log(5.0)
    assert np.abs(shifted.ode_residual(f)).max() < 1e-12
    assert np.abs(shifted.first_integral_residual(f)).max() < 1e-14
    assert shifted.first_integral == 1.0


def test_shifted_log_range_guard(ellipsoid_solution):
    weight = WeightSpec.shifted_log(2.0)
    with pytest.raises(ValueError):
        weighted_identity_check(ellipsoid_solution, weight,
                                a=math.log(0.2), b=math.log(0.9) + 1.0)


# ---------------------------------------------------------------------------
# Bochner identity
# ---------------------------------------------------------------------------

def test_bochner_residual_small_on_ball(ball_solution):
    for p in sample_points(ball_solution, 20, seed=1):
        st = ball_solution.field(p[None, :])[0]
        assert bochner_residual(st) < 1e-9


def test_bochner_residual_small_on_ellipsoid(ellipsoid_solution):
    for p in sample_points(ellipsoid_solution, 10, seed=2):
        st = ellipsoid_solution.field(p[None, :])[0]
        assert bochner_residual(st) < 1e-7


def test_bochner_detects_broken_harmonicity(ellipsoid_solution):
    # add 1e-3 |x|^2 to u: Laplacian becomes 6e-3 and the identity fails
    eps = 1e-3
    worst = 0.0
    for p in sample_points(ellipsoid_solution, 10, seed=3):
        st = ellipsoid_solution.field(p[None, :])[0]
        broken = PointState(
            point=st.point,
            u=st.u + eps * float(p @ p),
            grad=st.grad + 2 * eps * p,
            hess=st.hess + 2 * eps * np.eye(3))
        worst = max(worst, bochner_residual(broken))
        assert bochner_residual(broken) >= 1e-4
    assert worst > 1e-4


@pytest.mark.parametrize("fn", [hess_f_conformal, ricci_conformal,
                                quasi_einstein_residual, scalar_curvature,
                                bochner_sides], ids=lambda fn: fn.__name__)
def test_single_point_equals_batch_row(fn, ellipsoid_solution):
    # one point and a batch run the same broadcast code
    pts = sample_points(ellipsoid_solution, 8, seed=4)
    st = ellipsoid_solution.field(pts)
    batch = fn(st.u, st.grad, st.hess)
    batch = batch if isinstance(batch, tuple) else (batch,)
    for i in range(len(pts)):
        single = fn(st.u[i], st.grad[i], st.hess[i])
        single = single if isinstance(single, tuple) else (single,)
        assert len(single) == len(batch)
        for one, rows in zip(single, batch):
            assert np.shape(one) == rows.shape[1:]
            assert np.abs(one - rows[i]).max() <= 1e-14 * np.abs(rows[i]).max()


def test_bochner_lap_grad_moves_lhs_only(ellipsoid_solution):
    # Delta_g P gains 2 u^(-2/(n-2)) u^(-2(n-1)/(n-2)) <Du, D(Delta u)>,
    # which is 2 u^-6 <Du, lap_grad> at n = 3; the right side has no
    # third derivatives
    pts = sample_points(ellipsoid_solution, 8, seed=12)
    st = ellipsoid_solution.field(pts)
    lap_grad = np.random.default_rng(13).normal(size=(8, 3))
    lhs0, rhs0 = bochner_sides(st.u, st.grad, st.hess)
    lhs1, rhs1 = bochner_sides(st.u, st.grad, st.hess, lap_grad=lap_grad)
    shift = 2.0 * st.u ** -6 * np.sum(st.grad * lap_grad, axis=1)
    assert np.all(np.abs(shift) > 1e-3 * np.abs(lhs0))
    err = np.abs(lhs1 - lhs0 - shift)
    assert np.all(err <= 1e-13 * np.maximum(np.abs(lhs0), np.abs(lhs1)))
    assert np.array_equal(rhs1, rhs0)


# ---------------------------------------------------------------------------
# weighted identity between levels
# ---------------------------------------------------------------------------

def test_weighted_identity_ball_all_terms_vanish(ball_solution):
    # radial rigidity: the hessian term, K-coefficient, and curvature fluxes
    # all vanish individually; compare them against the flux-cubed scale
    res = weighted_identity_check(ball_solution, WeightSpec.linear(),
                                  a=math.log(0.25), b=math.log(0.75))
    assert res.scale > 1.0
    assert abs(res.lhs) < 1e-6 * res.scale
    assert abs(res.rhs) < 1e-6 * res.scale
    assert res.abs_residual < 1e-6 * res.scale


@pytest.mark.parametrize("name, c_lo, c_hi", [
    ("ball_solution", 0.25, 0.75),
    ("ball_interior", 1.5, 3.0),
], ids=["exterior-ball", "interior-ball"])
def test_weighted_identity_residual_is_relative_to_scale(name, c_lo, c_hi,
                                                         request):
    # both sides vanish on the ball, so the residual is measured against
    # the flux-cubed scale, not against the two roundoff-sized sides
    sol = request.getfixturevalue(name)
    res = weighted_identity_check(sol, WeightSpec.linear(), math.log(c_lo),
                                  math.log(c_hi))
    assert res.scale > 1.0
    assert res.rel_residual == res.abs_residual / res.scale
    assert res.rel_residual <= 1e-12


def test_weighted_identity_ellipsoid_linear(ellipsoid_solution):
    res = weighted_identity_check(ellipsoid_solution, WeightSpec.linear(),
                                  a=math.log(0.2), b=math.log(0.8))
    assert res.rel_residual < 2e-2
    assert res.lhs > 0
    # volume term is a square: a negative value beyond quadrature noise
    # would be a hard failure
    assert res.lhs > -res.quadrature_error


def test_weighted_identity_ellipsoid_shifted_log(ellipsoid_solution):
    weight = WeightSpec.shifted_log(5.0)
    res = weighted_identity_check(ellipsoid_solution, weight,
                                  a=math.log(0.2), b=math.log(0.8))
    assert res.rel_residual < 2e-2
    # boundary coefficient (1 - phi') e^phi equals K = 1 identically
    assert np.abs(weight.first_integral_residual(
        np.array([math.log(0.2), math.log(0.8)]))).max() < 1e-12


def test_weighted_identity_converges_under_refinement(ellipsoid_solution):
    coarse = weighted_identity_check(ellipsoid_solution, WeightSpec.linear(),
                                     a=math.log(0.2), b=math.log(0.8),
                                     order=12)
    fine = weighted_identity_check(ellipsoid_solution, WeightSpec.linear(),
                                   a=math.log(0.2), b=math.log(0.8),
                                   order=24)
    assert fine.rel_residual < 0.5 * coarse.rel_residual


# ---------------------------------------------------------------------------
# truncated exterior identity with far-field cutoff
# ---------------------------------------------------------------------------

def truncated_terms(res):
    """(volume, boundary, cutoff) of the truncated exterior identity: the
    weighted identity's sides halved, the bottom term with its sign."""
    return (res.lhs / 2, res.rhs_terms["curvatureTop"] / 2,
            -res.rhs_terms["curvatureBottom"] / 2)


def test_truncated_identity_ball(ball_solution):
    volume, boundary, cutoff = truncated_terms(
        prop_exterior_truncated_identity(ball_solution, c=0.8, eps=2e-3))
    assert abs(volume) < 1e-8
    assert abs(boundary) < 1e-8
    assert abs(cutoff) < 1e-10


def test_truncated_identity_ellipsoid(ellipsoid_solution):
    volume, boundary, cutoff = truncated_terms(
        prop_exterior_truncated_identity(ellipsoid_solution, c=0.8, eps=2e-3))
    assert volume > 0 and boundary > 0
    # two-sided evaluation of the same identity
    assert abs(volume - (boundary - cutoff)) / boundary < 2e-2
    assert volume <= boundary + 1e-9


def test_truncated_identity_cutoff_shrinks_linearly(ellipsoid_solution):
    _, _, cut1 = truncated_terms(prop_exterior_truncated_identity(
        ellipsoid_solution, c=0.8, eps=2e-3))
    _, _, cut2 = truncated_terms(prop_exterior_truncated_identity(
        ellipsoid_solution, c=0.8, eps=1e-3))
    assert abs(cut2) <= 0.5 * abs(cut1)


def test_truncated_identity_carries_quadrature_error(ellipsoid_solution):
    # the volume term is the weighted identity's G7/K15 coarea integral of
    # e^f |hess_g f|_g^2 over {2e-3 < u < 0.8}, with its own error
    res = prop_exterior_truncated_identity(ellipsoid_solution, c=0.8,
                                           eps=2e-3)
    assert res.quadrature_error > 0
    volume = coarea_volume_integral(
        ellipsoid_solution, identities._hessian_density(WeightSpec.linear()),
        2e-3, 0.8)[0]
    assert abs(res.lhs - 2.0 * volume) <= 1e-12 * abs(res.lhs)


def test_truncated_identity_rejects_large_cutoff(ellipsoid_solution):
    with pytest.raises(CutoffTooLargeError):
        prop_exterior_truncated_identity(ellipsoid_solution, c=0.8, eps=0.05)


# ---------------------------------------------------------------------------
# interior problem
# ---------------------------------------------------------------------------

def test_interior_flux_cubed_limit_on_ball(ball_interior):
    # (n-2)^{2(n-1)/(n-2)} (|S^2|/(d |dOmega|))^{2/(n-2)} d |dOmega| = 4 pi
    limit = interior_flux_cubed_limit(ball_interior)
    assert_allclose(limit, 4.0 * math.pi, rtol=1e-10)


def test_interior_flux_cubed_converges_to_limit(ball_interior):
    # level sets near the singularity are asymptotically round and cheap
    limit = interior_flux_cubed_limit(ball_interior)
    for t in (4.0, 16.0):
        val = flux_cubed_integral(ball_interior, t)
        assert abs(val - limit) / limit < 1e-8


def test_interior_flux_cubed_limit_ellipsoid():
    # approach to the singular limit is first order in the level radius
    sol = solve_interior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)),
                         c=1.0, d=1.0)
    limit = interior_flux_cubed_limit(sol)
    errs = [abs(flux_cubed_integral(sol, t) - limit) / limit
            for t in (60.0, 600.0, 6000.0)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_interior_truncated_identity_ball(ball_interior):
    res = interior_truncated_identity(ball_interior, c=2.0, t_level=32.0)
    volume, rhs = res.lhs, res.rhs
    limit = interior_flux_cubed_limit(ball_interior)
    assert abs(volume) < 1e-6 * limit
    assert abs(rhs) < 1e-6 * limit
