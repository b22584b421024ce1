import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsym import (CriticalPointError, DomainSpec, dsigma_g_weight,
                    extract_level_set, hess_f_conformal,
                    level_set_mean_curvature, mean_curvature_conformal,
                    p_function, solve_exterior, solve_interior,
                    surface_integral)
from capsym.geometry import build_quadrature
from conformal_oracle import quasi_einstein_residual, scalar_curvature


@pytest.fixture(scope="module")
def ball_solution():
    return solve_exterior(DomainSpec(kind="sphere", radius=1.0))


@pytest.fixture(scope="module")
def ellipsoid_solution():
    return solve_exterior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)))


def sample_points(sol, count, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r_exit = np.atleast_1d(sol.domain.ray_exit_radius(dirs))
    return dirs * (r_exit * rng.uniform(1.05, 3.0, count))[:, None]


# ---------------------------------------------------------------------------
# P-function
# ---------------------------------------------------------------------------

def test_p_function_constant_on_ball(ball_solution):
    # u = (r0/r)^(n-2) gives P = (n-2)^2/r0^2 = 1 for r0 = 1, n = 3
    pts = sample_points(ball_solution, 60, seed=5)
    st = ball_solution.field(pts, want="grad")
    p = p_function(st.u, st.grad)
    assert np.abs(p - 1.0).max() < 1e-9


def test_p_function_interior_normalized_ball():
    # boundary point of the d=1 ball with u normalized to c2 = d r0/(n-2):
    # P = d^2 / c2^4 = 1
    sol = solve_interior(DomainSpec(kind="sphere", radius=1.0), c=1.0, d=1.0)
    st = sol.field(np.array([1.0 - 1e-12, 0.0, 0.0])[None])
    assert abs(p_function(st.u, st.grad)[0] - 1.0) < 1e-9


def test_p_function_rejects_nonpositive_u():
    with pytest.raises(ValueError):
        p_function(0.0, np.array([1.0, 0, 0]))


def test_p_function_zero_at_critical_point():
    assert p_function(1.0, np.zeros(3)) == 0.0


def test_p_function_radial_closed_form():
    # substitute u = r0/r, |Du| = r0/r^2 (n = 3): P = 1/r0^2, independent of r
    r0 = 1.7
    for r in (r0, 2.0 * r0, 10.0 * r0):
        grad = np.array([r0 / r ** 2, 0.0, 0.0])
        assert_allclose(p_function(r0 / r, grad), 1.0 / r0 ** 2, rtol=1e-12)


def test_p_function_maximum_principle(ellipsoid_solution):
    # max over the exterior region is attained on the boundary
    quad = build_quadrature(ellipsoid_solution.domain, 24)
    st_b = ellipsoid_solution.field(quad.nodes, want="grad", check_region=False)
    p_boundary = p_function(st_b.u, st_b.grad).max()
    pts = sample_points(ellipsoid_solution, 400, seed=6)
    st = ellipsoid_solution.field(pts, want="grad")
    p_region = p_function(st.u, st.grad).max()
    assert p_region <= p_boundary + 1e-6


# ---------------------------------------------------------------------------
# conformal Hessian
# ---------------------------------------------------------------------------

def test_hessian_norm_vanishes_on_ball(ball_solution):
    pts = sample_points(ball_solution, 30, seed=7)
    st = ball_solution.field(pts)
    _, hnorm, lap_res = hess_f_conformal(st.u, st.grad, st.hess)
    assert hnorm.max() < 1e-8
    assert lap_res.max() < 1e-10


def test_hessian_norm_positive_on_ellipsoid(ellipsoid_solution):
    quad = build_quadrature(ellipsoid_solution.domain, 16)
    st = ellipsoid_solution.field(quad.nodes, want="hess", check_region=False)
    _, hnorm, lap_res = hess_f_conformal(st.u, st.grad, st.hess)
    assert hnorm.max() > 1e-3
    assert lap_res.max() < 1e-10


def test_conformal_laplacian_small_at_random_points(ellipsoid_solution):
    pts = sample_points(ellipsoid_solution, 10, seed=8)
    st = ellipsoid_solution.field(pts)
    lap_res = hess_f_conformal(st.u, st.grad, st.hess)[2]
    assert lap_res.max() < 1e-10


# ---------------------------------------------------------------------------
# conformal mean curvature
# ---------------------------------------------------------------------------

def test_ball_level_sets_are_minimal(ball_solution):
    # H/(n-1) = |Du|/((n-2)u) = 1/r on the ball, so H_g = 0
    for c in (0.3, 0.6, 0.9):
        ls = extract_level_set(ball_solution, c)
        h_g = mean_curvature_conformal(ls.mean_curv, c, ls.u_grad)
        assert np.abs(h_g).max() < 1e-8


def test_mean_curvature_conformal_algebra():
    # e^{-f/(n-2)} = 1 at u = 1; H/(n-1) = 2 |Df|/(n-2) halves to |Df|/(n-2)
    df = 0.7
    h_euclid = 2.0 * 2.0 * df   # H = (n-1) * 2 |Df|/(n-2) with n = 3
    h_g = mean_curvature_conformal(h_euclid, 1.0, df)
    assert_allclose(h_g / 2.0, df, rtol=1e-14)


def test_mean_curvature_conformal_sign_change_on_ellipsoid(ellipsoid_solution):
    ls = extract_level_set(ellipsoid_solution, 1.0 - 1e-9)
    h_g = mean_curvature_conformal(ls.mean_curv, ls.level, ls.u_grad)
    assert h_g.max() > 1e-3 and h_g.min() < -1e-3


def test_mean_curvature_conformal_rejects_critical_points():
    with pytest.raises(CriticalPointError):
        mean_curvature_conformal(1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# quasi-Einstein structure
# ---------------------------------------------------------------------------

def test_quasi_einstein_residual_vanishes(ball_solution, ellipsoid_solution):
    for sol, tol in ((ball_solution, 1e-9), (ellipsoid_solution, 1e-6)):
        pts = sample_points(sol, 20, seed=9)
        st = sol.field(pts)
        resid, _ = quasi_einstein_residual(st.u, st.grad, st.hess)
        assert resid.max() < tol


def test_quasi_einstein_detects_hessian_perturbation(ellipsoid_solution):
    pts = sample_points(ellipsoid_solution, 5, seed=10)
    st = ellipsoid_solution.field(pts)
    hess = st.hess.copy()
    hess[:, 0, 0] += 1e-3
    resid, _ = quasi_einstein_residual(st.u, st.grad, hess)
    assert resid.min() > 1e-4


def test_scalar_curvature_ratio(ellipsoid_solution):
    # R_g/(n-1) = |grad f|_g^2/(n-2) pointwise
    pts = sample_points(ellipsoid_solution, 30, seed=11)
    st = ellipsoid_solution.field(pts)
    r_g = scalar_curvature(st.u, st.grad, st.hess)
    p = p_function(st.u, st.grad)
    assert np.abs(r_g / 2.0 - p).max() < 1e-8


# ---------------------------------------------------------------------------
# Euclidean vs conformal surface integrals
# ---------------------------------------------------------------------------

def test_rewriting_identity_two_sided(ellipsoid_solution):
    # int |Du|^2 [H/(n-1) - |Du|/((n-2)u)] dsigma over {u=c} equals
    # c^(n/(n-2)) int |grad f|_g^2 (H_g/(n-1)) dsigma_g, both computed
    # from their own definitions
    for c in (0.5, 0.9):
        ls = extract_level_set(ellipsoid_solution, c)
        lhs = surface_integral(
            ls, ls.u_grad ** 2 * (ls.mean_curv / 2.0 - ls.u_grad / c))
        u = np.full_like(ls.u_grad, c)
        p = p_function(u, ls.grad)
        h_g = mean_curvature_conformal(ls.mean_curv, c, ls.u_grad)
        rhs = c ** 3 * surface_integral(
            ls, p * (h_g / 2.0) * dsigma_g_weight(u))
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-6


def test_dsigma_g_weight_value():
    assert_allclose(dsigma_g_weight(0.25), 0.25 ** 2, rtol=1e-15)
