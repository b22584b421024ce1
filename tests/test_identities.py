import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from capsym import (FieldStates, WeightSpec, bochner_sides, dsigma_g_weight,
                    extract_level_set, hess_f_conformal, identities,
                    interior_flux_cubed_limit, p_function,
                    weighted_identity_check)
from conformal_oracle import (quasi_einstein_residual, ricci_conformal,
                              sample_points, scalar_curvature)


def bochner_residuals(u, grad, hess):
    """|LHS - RHS| of the Bochner identity at each point."""
    lhs, rhs = bochner_sides(u, grad, hess)
    return np.abs(lhs - rhs)


def flux_cubed_integral(sol, c):
    """int_{f=log c} |grad f|_g^3 dsigma_g = int_{u=c} P |Du| dsigma."""
    ls = extract_level_set(sol, c)
    p = p_function(ls.level, ls.grad)
    return float(np.sum(ls.weights * dsigma_g_weight(ls.level) * p ** 1.5))


def exterior_truncated_identity(sol, c, eps):
    """The linear-weight identity on {eps < u < c}: between the f-levels
    log eps and log c."""
    return weighted_identity_check(sol, WeightSpec.linear(), math.log(eps),
                                   math.log(c))


def interior_truncated_identity(sol, c, t_level):
    """The shifted-log identity on {c < u < t}: between the f-levels log c
    and log(t (1 - 1e-9)), just below the weight's singular level."""
    return weighted_identity_check(sol, WeightSpec.shifted_log(t_level),
                                   math.log(c),
                                   math.log(t_level * (1 - 1e-9)))


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def test_weights_are_exp_phi_with_first_integral():
    f = np.linspace(-3.0, 1.0, 41)
    h = 1e-5
    for weight, phi in ((WeightSpec.linear(), f),
                        (WeightSpec.shifted_log(5.0),
                         np.log(1.0 - np.exp(f) / 5.0))):
        w = weight(np.exp(f))
        assert_allclose(w, np.exp(phi), rtol=1e-14, atol=0)
        # w - dw/df = K, with dw/df by central differences in f
        dw = (weight(np.exp(f + h)) - weight(np.exp(f - h))) / (2 * h)
        assert np.abs(w - dw - weight.first_integral).max() < 1e-9


def test_shifted_log_range_guard(ellipsoid_solution):
    weight = WeightSpec.shifted_log(2.0)
    with pytest.raises(ValueError):
        weighted_identity_check(ellipsoid_solution, weight,
                                a=math.log(0.2), b=math.log(0.9) + 1.0)


# ---------------------------------------------------------------------------
# Bochner identity
# ---------------------------------------------------------------------------

def test_bochner_residual_small_on_ball(ball_solution):
    st = ball_solution.field(sample_points(ball_solution, 20, seed=1))
    assert np.all(bochner_residuals(st.u, st.grad, st.hess) < 1e-9)


def test_bochner_residual_small_on_ellipsoid(ellipsoid_solution):
    st = ellipsoid_solution.field(sample_points(ellipsoid_solution, 10,
                                                seed=2))
    assert np.all(bochner_residuals(st.u, st.grad, st.hess) < 1e-7)


def test_bochner_detects_broken_harmonicity(ellipsoid_solution):
    # add 1e-3 |x|^2 to u: Laplacian becomes 6e-3 and the identity fails
    eps = 1e-3
    pts = sample_points(ellipsoid_solution, 10, seed=3)
    st = ellipsoid_solution.field(pts)
    broken = bochner_residuals(st.u + eps * np.sum(pts * pts, axis=1),
                               st.grad + 2 * eps * pts,
                               st.hess + 2 * eps * np.eye(3))
    assert np.all(broken >= 1e-4)
    assert broken.max() > 1e-4


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
        exterior_truncated_identity(ball_solution, c=0.8, eps=2e-3))
    assert abs(volume) < 1e-8
    assert abs(boundary) < 1e-8
    assert abs(cutoff) < 1e-10


def test_truncated_identity_ellipsoid(ellipsoid_solution):
    volume, boundary, cutoff = truncated_terms(
        exterior_truncated_identity(ellipsoid_solution, c=0.8, eps=2e-3))
    assert volume > 0 and boundary > 0
    # two-sided evaluation of the same identity
    assert abs(volume - (boundary - cutoff)) / boundary < 2e-2
    assert volume <= boundary + 1e-9


def test_truncated_identity_cutoff_shrinks_linearly(ellipsoid_solution):
    _, _, cut1 = truncated_terms(exterior_truncated_identity(
        ellipsoid_solution, c=0.8, eps=2e-3))
    _, _, cut2 = truncated_terms(exterior_truncated_identity(
        ellipsoid_solution, c=0.8, eps=1e-3))
    assert abs(cut2) <= 0.5 * abs(cut1)


def test_truncated_identity_carries_quadrature_error(ellipsoid_solution):
    # the volume term is the weighted identity's G7/K15 integral of
    # e^f |hess_g f|_g^2 over {2e-3 < u < 0.8} along the rays, with its own
    # error; by coarea it is a sum over the levels of u, here 32
    # Gauss-Legendre levels
    res = exterior_truncated_identity(ellipsoid_solution, c=0.8, eps=2e-3)
    assert res.quadrature_error > 0
    density = identities._hessian_density(WeightSpec.linear())
    x, w = leggauss(32)
    mid, half = 0.5 * (0.8 + 2e-3), 0.5 * (0.8 - 2e-3)
    volume = 0.0
    for xk, wk in zip(x, w):
        ls = extract_level_set(ellipsoid_solution, mid + half * xk)
        hess = ellipsoid_solution.field(ls.nodes, want="hess",
                                        check_region=False).hess
        st = FieldStates(points=ls.nodes, u=np.full(len(ls.radii), ls.level),
                         grad=ls.grad, hess=hess)
        f = density(st)[0]
        volume += half * wk * float(ls.weights @ (f / ls.u_grad))
    assert abs(res.lhs - 2.0 * volume) <= 1e-12 * abs(res.lhs)


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


def test_interior_flux_cubed_limit_ellipsoid(ellipsoid_interior):
    # approach to the singular limit is first order in the level radius
    sol = ellipsoid_interior
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


def test_interior_truncated_identity_closes_on_the_ellipsoid(
        ellipsoid_interior):
    # integrated in the level variable the slab {2.2 < u < 32} left
    # |lhs - rhs| = 1.4e-3 with a quadrature error of 0.40; along the rays,
    # in log r, both sides agree to roundoff of the scale
    res = interior_truncated_identity(ellipsoid_interior, c=2.2, t_level=32.0)
    assert abs(res.lhs - res.rhs) <= 1e-10 * res.scale
    assert res.quadrature_error <= 1e-8 * res.scale
