import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsym import (DomainSpec, InsufficientSamplesError, OutOfRegionError,
                    RadialGeometry, SolverOptions, decay_report, evaluate,
                    radial_solution, solve_exterior, solve_interior)
from capsym.geometry import build_quadrature
from capsym.harmonic import _CHUNK_PAIRS, _kernel_sums


@pytest.fixture(scope="module")
def ball_solution():
    return solve_exterior(DomainSpec(kind="sphere", radius=1.0))


@pytest.fixture(scope="module")
def ellipsoid_solution():
    return solve_exterior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="module")
def ball_interior():
    return solve_interior(DomainSpec(kind="sphere", radius=1.0), c=1.0, d=1.0)


@pytest.fixture(scope="module")
def ellipsoid_interior():
    return solve_interior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)),
                          c=1.0, d=1.0)


@pytest.fixture(scope="module")
def star_solution():
    spec = DomainSpec(kind="star", mean_radius=1.0,
                      terms=((2, 0, 0.1), (3, 1, 0.05)))
    return solve_exterior(spec)


def random_exterior_points(spec, count, seed=0, r_max=20.0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r_exit = np.atleast_1d(spec.ray_exit_radius(dirs))
    radii = r_exit * (1 + 1e-9) + rng.uniform(0.0, r_max, count)
    return dirs * radii[:, None]


# ---------------------------------------------------------------------------
# exterior solves
# ---------------------------------------------------------------------------

def test_ball_matches_radial_oracle(ball_solution):
    geom = RadialGeometry(n=3, r0=1.0)
    pts = random_exterior_points(ball_solution.domain, 100, seed=1)
    states = ball_solution.field(pts)
    for i, p in enumerate(pts):
        exact = radial_solution(geom, "exterior", float(np.linalg.norm(p)))
        assert abs(states.u[i] - exact.u) / exact.u < 1e-10
        assert abs(states.grad_norm[i] - exact.du_magnitude) < 1e-10


def test_dirichlet_condition_on_boundary(ball_solution, ellipsoid_solution):
    for sol in (ball_solution, ellipsoid_solution):
        quad = build_quadrature(sol.domain, sol.order + 11)
        u = sol.field(quad.nodes, want="u", check_region=False).u
        assert np.abs(u - sol.c).max() < 10 * max(sol.fit_residual, 1e-12)


def test_hessian_is_symmetric_and_trace_free(ellipsoid_solution):
    pts = random_exterior_points(ellipsoid_solution.domain, 10, seed=2)
    for p in pts:
        st = evaluate(ellipsoid_solution, p)
        assert np.array_equal(st.hess, st.hess.T)
        assert abs(st.laplacian) < 1e-12


def test_maximum_principle(ellipsoid_solution):
    pts = random_exterior_points(ellipsoid_solution.domain, 200, seed=3,
                                 r_max=50.0)
    u = ellipsoid_solution.field(pts, want="u").u
    assert np.all(u > 0)
    assert np.all(u < ellipsoid_solution.c)


def test_fit_residual_decreases_under_refinement():
    spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
    fits = []
    for order in (12, 18, 24):
        sol = solve_exterior(spec, opts=SolverOptions(order=order,
                                                      tolerance=1.0))
        fits.append(sol.fit_residual)
    assert fits[0] > fits[1] > fits[2]


def test_exterior_region_check(ball_solution):
    with pytest.raises(OutOfRegionError):
        evaluate(ball_solution, np.array([0.3, 0.0, 0.0]))


def test_invalid_boundary_value():
    with pytest.raises(ValueError):
        solve_exterior(DomainSpec(kind="sphere", radius=1.0), c=-1.0)


def test_star_domain_reaches_tolerance():
    spec = DomainSpec(kind="star", mean_radius=1.0,
                      terms=((2, 2, 0.12), (3, -1, 0.08), (1, 0, 0.05)))
    sol = solve_exterior(spec)
    assert sol.fit_residual < 1e-7


def test_oblate_and_triaxial_sources():
    # focal set degenerates to a disk instead of a segment
    for axes in ((1.0, 1.0, 0.5), (1.4, 1.2, 1.0)):
        sol = solve_exterior(DomainSpec(kind="ellipsoid", axes=axes))
        assert sol.fit_residual < 1e-7


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def difference_tensor_field(sol, pts):
    """Reference (u, Du, D2u): kernel sums over the (N, M, 3) tensor of
    differences x - y_j, plus the closed-form singular term."""
    d = pts[:, None, :] - sol.sources[None, :, :]
    r2 = np.einsum("nms,nms->nm", d, d)
    inv_r = 1.0 / np.sqrt(r2)
    inv_r3 = inv_r / r2
    inv_r5 = inv_r3 / r2
    u = inv_r @ sol.charges
    g = -np.einsum("nms,nm,m->ns", d, inv_r3, sol.charges)
    h = np.empty((len(pts), 3, 3))
    for a in range(3):
        for b in range(a, 3):
            hab = (3.0 * d[:, :, a] * d[:, :, b] * inv_r5) @ sol.charges
            if a == b:
                hab = hab - inv_r3 @ sol.charges
            h[:, a, b] = hab
            h[:, b, a] = hab
    s0 = sol.singular_coefficient
    r = np.linalg.norm(pts, axis=1)
    u = u + s0 / r
    g = g - s0 * pts / r[:, None] ** 3
    h = h + s0 * (3.0 * pts[:, :, None] * pts[:, None, :] / r[:, None, None] ** 5
                  - np.eye(3)[None] / r[:, None, None] ** 3)
    return u, g, h


# The interior ball is compared as a full field: its fitted remainder
# c - s0/r vanishes on the sphere, so the kernel part alone is roundoff.
@pytest.mark.parametrize("name, radii", [
    ("ball_solution", (1.0, 1.5, 10.0, 1e3)),
    ("star_solution", (1.2, 3.0, 100.0)),
    ("ball_interior", (0.05, 0.5, 1.0)),
], ids=["exterior-ball", "star", "interior-ball"])
def test_kernel_matches_difference_tensor_reference(name, radii, request):
    sol = request.getfixturevalue(name)
    rows = _CHUNK_PAIRS // len(sol.sources)
    rng = np.random.default_rng(5)
    for r in radii:
        for count in (1, rows - 1, rows + 1):
            dirs = rng.normal(size=(count, 3))
            pts = r * dirs / np.linalg.norm(dirs, axis=1)[:, None]
            ref = dict(zip(("u", "grad", "hess"),
                           difference_tensor_field(sol, pts)))
            for want in ("u", "grad", "hess"):
                st = sol.field(pts, want=want, check_region=False)
                got = {"u": st.u, "grad": st.grad, "hess": st.hess}[want]
                err = np.abs(got - ref[want]).max()
                assert err <= 1e-13 * np.abs(ref[want]).max(), (want, r, count)


def closed_form_singular_term(sol, pts):
    """Reference (u, Du, D2u) of the interior term s0/|x| from its closed
    form."""
    s0 = sol.singular_coefficient
    r = np.linalg.norm(pts, axis=1)
    u = s0 / r
    g = -s0 * pts / r[:, None] ** 3
    h = s0 * (3.0 * pts[:, :, None] * pts[:, None, :] / r[:, None, None] ** 5
              - np.eye(3)[None] / r[:, None, None] ** 3)
    return u, g, h


@pytest.mark.parametrize("name", ["ball_interior", "ellipsoid_interior"])
def test_singular_term_matches_closed_form(name, request):
    sol = request.getfixturevalue(name)
    center = np.asarray(sol.domain.center)
    dirs = np.random.default_rng(7).normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for r in np.logspace(-4, 0, 9):
        pts = r * dirs
        fitted = _kernel_sums(pts - center, sol.sources - center, sol.charges,
                              "hess")
        singular = closed_form_singular_term(sol, pts)
        for k, want in enumerate(("u", "grad", "hess")):
            st = sol.field(pts, want=want, check_region=False)
            got = (st.u, st.grad, st.hess)[k].reshape(len(pts), -1)
            ref = (fitted[k] + singular[k]).reshape(len(pts), -1)
            scale = np.abs(ref).max(axis=1)
            assert np.all(np.abs(got - ref).max(axis=1) <= 1e-13 * scale), \
                (want, r)


def test_hessian_evaluation_memory_is_bounded(star_solution):
    assert len(star_solution.sources) == 800
    pts = random_exterior_points(star_solution.domain, 8192, seed=6)
    tracemalloc.start()
    try:
        star_solution.field(pts, want="hess", check_region=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


# ---------------------------------------------------------------------------
# interior solves
# ---------------------------------------------------------------------------

def test_interior_ball_neumann_constant(ball_interior):
    quad = build_quadrature(ball_interior.domain, ball_interior.order)
    gn = ball_interior.field(quad.nodes, want="grad", check_region=False).grad_norm
    assert np.abs(gn - 1.0).max() < 1e-8


def test_interior_ball_closed_form(ball_interior):
    # with c = 1 = d r0/(n-2) the bounded part is identically zero: u = 1/r
    pts = np.array([[0.5, 0, 0], [0.0, 0.25, 0], [0.1, 0.2, 0.3]])
    st = ball_interior.field(pts)
    assert_allclose(st.u, 1.0 / np.linalg.norm(pts, axis=1), rtol=1e-10)


def test_interior_flux_identity_ellipsoid():
    spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
    sol = solve_interior(spec, c=1.0, d=1.0)
    quad = build_quadrature(spec, sol.order)
    gn = sol.field(quad.nodes, want="grad", check_region=False).grad_norm
    flux = quad.integrate(gn)
    assert abs(flux / (sol.d * quad.area) - 1.0) < 1e-6


def test_interior_singular_part_is_exact(ball_interior):
    # singular coefficient equals d |dOmega| a_n = 1 * 4 pi * 1/(4 pi)
    assert_allclose(ball_interior.singular_coefficient, 1.0, rtol=1e-12)


def test_interior_region_checks(ball_interior):
    with pytest.raises(OutOfRegionError):
        evaluate(ball_interior, np.array([1.5, 0.0, 0.0]))
    with pytest.raises(OutOfRegionError):
        evaluate(ball_interior, np.array([0.0, 0.0, 0.0]))


def test_interior_requires_positive_flux():
    with pytest.raises(ValueError):
        solve_interior(DomainSpec(kind="sphere", radius=1.0), d=0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_solution_round_trip(tmp_path, ellipsoid_solution):
    path = tmp_path / "sol.json"
    ellipsoid_solution.save(path)
    from capsym import HarmonicSolution
    again = HarmonicSolution.load(path)
    pts = random_exterior_points(ellipsoid_solution.domain, 20, seed=4)
    a = ellipsoid_solution.field(pts)
    b = again.field(pts)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def test_ball_decay_exponents(ball_solution):
    radii = np.geomspace(10.0, 100.0, 8)
    rep = decay_report(ball_solution, radii)
    assert abs(rep.fitted_exponent + 1.0) < 1e-6
    assert abs(rep.gradient_exponent + 2.0) < 1e-6
    assert abs(rep.hessian_exponent + 3.0) < 1e-6


def test_ellipsoid_decay_exponents(ellipsoid_solution):
    radii = np.geomspace(10.0, 100.0, 12)
    rep = decay_report(ellipsoid_solution, radii)
    assert abs(rep.fitted_exponent + 1.0) < 1e-3
    assert abs(rep.gradient_exponent + 2.0) < 1e-3
    assert abs(rep.hessian_exponent + 3.0) < 1e-3


def test_decay_preconditions(ball_solution, ball_interior):
    with pytest.raises(InsufficientSamplesError):
        decay_report(ball_solution, [10.0, 20.0, 30.0])
    with pytest.raises(ValueError):
        decay_report(ball_solution, [10.0, 9.0, 20.0, 30.0])
    with pytest.raises(ValueError):
        decay_report(ball_solution, [1.1, 10.0, 20.0, 30.0])
    with pytest.raises(ValueError):
        decay_report(ball_interior, [10.0, 20.0, 30.0, 40.0])
