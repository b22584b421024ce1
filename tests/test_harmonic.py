import itertools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsym import (DomainSpec, InsufficientSamplesError, OutOfRegionError,
                    SolverFailureError, decay_report, harmonic,
                    solve_exterior, solve_interior, symmetry_certificate)
from radial_oracle import RadialGeometry, radial_solution
from scipy.special import elliprf

from capsym import HarmonicSolution
from capsym.errors import ConfigError
from capsym.geometry import angular_grid, build_quadrature, unit_directions
from capsym.levelset import surface_integral
from capsym.criteria import capacity
from capsym.harmonic import (_CHUNK_PAIRS, _carlson_rf, _charge_moments,
                             _graph_points, _inverse_distance, _kernel_sums,
                             _placement, _point_rows, _source_rows)


BENCH_STAR = DomainSpec(kind="star", mean_radius=1.0,
                        terms=((2, 0, 0.1), (3, 1, 0.05)))
# a star without mirrors through the origin's coordinate planes
MIRROR_FREE_STAR = DomainSpec(kind="star", mean_radius=1.0,
                              terms=((4, -3, 0.1), (2, 1, -0.08)))


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
        hess = ellipsoid_solution.field(p[None]).hess[0]
        assert np.array_equal(hess, hess.T)
        assert abs(np.trace(hess)) < 1e-12


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
        sol = solve_exterior(spec, order=order)
        fits.append(sol.fit_residual)
    assert fits[0] > fits[1] > fits[2]


def test_exterior_region_check(ball_solution):
    with pytest.raises(OutOfRegionError):
        ball_solution.field(np.array([0.3, 0.0, 0.0])[None])


def test_invalid_boundary_value():
    with pytest.raises(ValueError):
        solve_exterior(DomainSpec(kind="sphere", radius=1.0), c=-1.0)


def test_star_domain_reaches_tolerance(star_solution):
    spec = DomainSpec(kind="star", mean_radius=1.0,
                      terms=((2, 2, 0.12), (3, -1, 0.08), (1, 0, 0.05)))
    sol = solve_exterior(spec)
    assert sol.fit_residual < 1e-7
    # the bench star off its center, where the kernel sums are not centred
    # on it, fits as well as centred (check misfit 2.85e-9 both)
    spec = DomainSpec(kind="star", mean_radius=1.0, center=(0.4, 0.2, 0.0),
                      terms=star_solution.domain.terms)
    sol = solve_exterior(spec)
    assert sol.fit_residual < 1e-7
    assert sol.check_misfit <= 1.01 * star_solution.check_misfit


def test_oblate_and_triaxial_sources():
    # the equilibrium charge on the focal disk is set, not fitted: the
    # triaxial (3,2,1) in all six axis orders (at most 6.8e-9; least
    # squares failed all six at every order up to 40), an oblate and a mild
    # triaxial solve at order 24
    for axes in [*sorted(set(itertools.permutations((3.0, 2.0, 1.0)))),
                 (1.0, 1.0, 0.5), (2.0, 1.5, 1.0)]:
        sol = solve_exterior(DomainSpec(kind="ellipsoid", axes=axes),
                             order=24)
        assert sol.check_misfit <= 1e-7, axes
        assert (len(sol.sources), sol.condition_estimate) == (1955, 1.0)
    # (3,3,1) is too flat for the rings of order 24 (3.3e-7) and passes at
    # order 32 (3.4e-8)
    spec = DomainSpec(kind="ellipsoid", axes=(3.0, 3.0, 1.0))
    with pytest.raises(SolverFailureError,
                       match=r"exterior check misfit 3\.\d+e-07 on the grid "
                             r"of order 32 or boundary misfit \S+ exceeds "
                             r"tolerance 1\.0e-07"):
        solve_exterior(spec, order=24)
    assert solve_exterior(spec, order=32).check_misfit <= 1e-7
    # inside, the star rule fits the oblate (2.0e-6) and the mild triaxial
    # (6.4e-7), which failed on confocal rings at order 24; (3,2,1) still
    # misses the gate 1e-5 (1.1e-4)
    for axes in [(1.0, 1.0, 0.5), (2.0, 1.5, 1.0)]:
        sol = solve_interior(DomainSpec(kind="ellipsoid", axes=axes),
                             order=24)
        assert sol.check_misfit <= 1e-5, axes
    with pytest.raises(SolverFailureError,
                       match=r"interior check misfit \S+ on the grid of "
                             r"order 32 or boundary misfit \S+ exceeds "
                             r"tolerance 1\.0e-05"):
        solve_interior(DomainSpec(kind="ellipsoid", axes=(3.0, 2.0, 1.0)),
                       order=24)


def ellipsoid_potential(points, axes):
    """Closed-form exterior potential of the ellipsoid with u = 1 on it:
    R_F(a^2 + l, b^2 + l, c^2 + l) / R_F(a^2, b^2, c^2), with l >= 0 the
    ellipsoidal coordinate, the root of sum x_i^2 / (a_i^2 + l) = 1."""
    a2 = np.asarray(axes, dtype=float) ** 2
    lo = np.zeros(len(points))
    hi = np.sum(points * points, axis=1)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        outside = np.sum(points ** 2 / (a2 + mid[:, None]), axis=1) > 1.0
        lo = np.where(outside, mid, lo)
        hi = np.where(outside, hi, mid)
    lam = 0.5 * (lo + hi)
    return elliprf(a2[0] + lam, a2[1] + lam, a2[2] + lam) / elliprf(*a2)


# axes and center of each ellipsoid
CLOSED_FORM_ELLIPSOIDS = {"prolate": ((2.0, 1.0, 1.0), (0.0, 0.0, 0.0)),
                          "prolate-off-center": ((2.0, 1.0, 1.0),
                                                 (1.5, 0.0, 0.0)),
                          "oblate": ((1.0, 1.0, 0.5), (0.0, 0.0, 0.0)),
                          "triaxial": ((3.0, 2.0, 1.0), (0.0, 0.0, 0.0)),
                          "mild-triaxial": ((2.0, 1.5, 1.0), (0.0, 0.0, 0.0))}


@pytest.fixture(scope="module", params=sorted(CLOSED_FORM_ELLIPSOIDS))
def focal_solution(request):
    axes, center = CLOSED_FORM_ELLIPSOIDS[request.param]
    return solve_exterior(DomainSpec(kind="ellipsoid", axes=axes,
                                     center=center))


def test_check_misfit_matches_closed_form_ellipsoid(focal_solution):
    # u - U is harmonic outside and vanishes at infinity, so its largest
    # value sits on the boundary; sample it there and just outside
    spec, sol = focal_solution.domain, focal_solution
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(2000, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    r = spec.ray_exit_radius(dirs) * rng.choice([1.0, 1.001], 2000)
    pts = dirs * r[:, None]
    u = sol.field(pts, want="u", check_region=False).u
    err = np.abs(u - ellipsoid_potential(pts - spec.center, spec.axes)).max()
    assert sol.check_misfit / 10 <= err <= 10 * sol.check_misfit


def test_capacity_matches_closed_form_ellipsoid(focal_solution):
    # 4 pi Q / c with the equilibrium charge Q = c / R_F(a^2, b^2, c^2)
    exact = 4.0 * math.pi / elliprf(*np.square(focal_solution.domain.axes))
    assert abs(capacity(focal_solution) / exact - 1.0) <= 1e-9


def test_exterior_quadrics_solve_no_system(monkeypatch):
    def no_system(quad, sources, rhs):
        raise AssertionError("an exterior quadric reached least squares")

    monkeypatch.setattr(harmonic, "_collocation_solve", no_system)
    for spec in [DomainSpec(kind="sphere", radius=1.0),
                 DomainSpec(kind="sphere", radius=2.5, center=(0.3, 0, 0)),
                 DomainSpec(kind="ellipsoid", axes=(1.5, 1.5, 1.5)),
                 *(DomainSpec(kind="ellipsoid", axes=axes, center=center)
                   for axes, center in CLOSED_FORM_ELLIPSOIDS.values())]:
        assert solve_exterior(spec).condition_estimate == 1.0


def test_carlson_rf_matches_scipy():
    x, y, z = np.random.default_rng(3).uniform(0.01, 20.0, (3, 2000))
    got = _carlson_rf(x, y, z)
    assert np.abs(got / elliprf(x, y, z) - 1.0).max() <= 2e-15
    for v in (0.01, 1.0, 4.0, 20.0):
        assert abs(_carlson_rf(v, v, v) * math.sqrt(v) - 1.0) <= 2e-16


def test_sphere_and_ellipsoid_sources_are_unchanged(
        ball_solution, ball_interior, ellipsoid_solution, ellipsoid_interior):
    # the exterior ball's focal set is its center, which carries its one
    # source; the interior ball centered on the pole keeps one zero charge
    # outside it; the interior ellipsoid takes the star rule
    assert np.array_equal(ball_solution.sources, [[0.0, 0.0, 0.0]])
    assert np.array_equal(ball_interior.sources, [[2.0, 0.0, 0.0]])
    assert np.array_equal(ball_interior.charges, [0.0])
    # the prolate's 32 charges are the uniform density Q / (2 alpha) on its
    # focal segment, Q w_i / 2 at the Gauss nodes alpha x_i
    spec = ellipsoid_solution.domain
    x, w = np.polynomial.legendre.leggauss(32)
    alpha = math.sqrt(3.0)
    assert_allclose(ellipsoid_solution.sources,
                    np.column_stack([alpha * x, np.zeros((32, 2))]),
                    rtol=0, atol=1e-15)
    assert_allclose(ellipsoid_solution.charges,
                    w / (2.0 * elliprf(4.0, 1.0, 1.0)), rtol=1e-15)
    # the rings of order 20 on the graph dilated by 2 fit 56 times better
    # than the confocal rings before (check misfit 1.4e-7 against 7.8e-6)
    assert len(ellipsoid_interior.sources) == 608
    assert np.array_equal(ellipsoid_interior.sources,
                          _graph_points(spec, 20, 2.0, 2.5))
    assert ellipsoid_interior.check_misfit <= 1e-6


@pytest.mark.parametrize("spec, c", [
    (DomainSpec(kind="sphere", radius=1.0), 1.0),
    (DomainSpec(kind="sphere", radius=2.5, center=(0.3, -0.2, 0.1)), 3.0),
    (DomainSpec(kind="ellipsoid", axes=(1.5, 1.5, 1.5)), 1.0)],
    ids=["unit-ball", "off-center", "round-ellipsoid"])
def test_exterior_sphere_is_one_charge_at_its_center(spec, c):
    # the focal set of a sphere is its center, and c R / |x - x0| is its
    # exact exterior potential (Kellogg 1929)
    radius = spec.radius or spec.axes[0]
    sol = solve_exterior(spec, c=c)
    assert np.array_equal(sol.sources, [spec.center])
    assert abs(sol.charges[0] - c * radius) <= 1e-14 * c * radius
    assert sol.check_misfit <= 1e-14
    assert sol.condition_estimate == 1.0


# (source grid order, contraction, ring width, node order) at orders 16,
# 24, 32, 40, 48: one rule for stars and interior ellipsoids
PLACEMENT_TABLE = {
    "star": [(18, 0.5, 2.5, 26), (20, 0.5, 2.5, 28), (22, 0.5, 2.5, 30),
             (24, 0.5, 2.5, 32), (26, 0.5, 2.5, 34)],
}


@pytest.mark.parametrize("kind", sorted(PLACEMENT_TABLE))
def test_placement_table_is_pinned(kind):
    assert [_placement(order) for order in (16, 24, 32, 40, 48)] \
        == PLACEMENT_TABLE[kind]


@pytest.mark.parametrize("solve", [solve_exterior, solve_interior],
                         ids=["exterior", "interior"])
def test_order_32_star_placement_fits_no_worse_than_before(solve,
                                                           monkeypatch,
                                                           star_solution):
    spec = star_solution.domain
    new = solve(spec, order=32)
    # the placement before: full rings of order 5n/8 at contraction 0.35,
    # collocated on the grid of order n
    monkeypatch.setattr(harmonic, "_placement",
                        lambda order: (20, 0.35, math.inf, 32))
    old = solve(spec, order=32)
    assert (len(new.sources), len(old.sources)) == (730, 800)
    assert new.check_misfit <= old.check_misfit


@pytest.mark.parametrize("solve", [solve_exterior, solve_interior],
                         ids=["exterior", "interior"])
def test_order_40_star_placement_fits_no_worse_than_before(solve,
                                                           monkeypatch):
    spec = DomainSpec(kind="star", mean_radius=1.0,
                      terms=((2, 2, 0.12), (3, -1, 0.08), (1, 0, 0.05)))
    new = solve(spec, order=40)
    # the placement before: full rings of order 5n/8 at contraction 0.35
    monkeypatch.setattr(harmonic, "_placement",
                        lambda order: (25, 0.35, math.inf, order))
    old = solve(spec, order=40)
    assert len(new.sources) < len(old.sources)
    assert new.check_misfit <= old.check_misfit


def test_order_48_star_narrow_rings_fit_no_worse_than_full_rings(
        monkeypatch):
    new = solve_exterior(MIRROR_FREE_STAR, order=48)
    # the placement before: full rings of order n/4 + 14 at contraction
    # 0.5, collocated on the grid of order n
    monkeypatch.setattr(harmonic, "_placement",
                        lambda order: (26, 0.5, math.inf, order))
    old = solve_exterior(MIRROR_FREE_STAR, order=48)
    assert (len(new.sources), len(old.sources)) == (1012, 1352)
    assert new.check_misfit <= 1.1 * old.check_misfit


def solve_peak_bytes(spec, order):
    tracemalloc.start()
    try:
        sol = solve_exterior(spec, order=order)
        return sol, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_order_48_star_solve_memory_is_bounded():
    # a star without mirrors solves the full system: the weighted 2,312 x
    # 1,012 collocation matrix is 17.9 MiB; the full rings before (4,608 x
    # 1,352) needed 47.5 MiB for it alone
    sol, peak = solve_peak_bytes(MIRROR_FREE_STAR, 48)
    assert len(sol.sources) == 1012
    assert peak < 24 * 2 ** 20


def test_order_48_folded_star_solve_memory_is_bounded(star_solution):
    # the bench star's y and z mirrors leave 595 node rows of 1,012 kernel
    # columns (4.6 MiB) and their sum over 264 source orbits: 10.6 MiB in
    # all
    sol, peak = solve_peak_bytes(star_solution.domain, 48)
    assert len(sol.sources) == 1012
    assert peak < 12 * 2 ** 20


def full_weighted_solve(quad, sources, rhs):
    """The reference of _collocation_solve: one lstsq on the full weighted
    collocation matrix."""
    A = _inverse_distance(_point_rows(quad.nodes), _source_rows(sources))
    sw = np.sqrt(quad.weights)
    charges, _, rank, sv = np.linalg.lstsq(A * sw[:, None], rhs * sw,
                                           rcond=harmonic._RCOND)
    return charges, float(sv[0] / sv[rank - 1])


@pytest.mark.parametrize("solve, spec, order", [
    (solve_exterior, BENCH_STAR, 32), (solve_exterior, BENCH_STAR, 48),
    (solve_interior, DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)), 24),
], ids=["star-32", "star-48", "interior-ellipsoid"])
def test_folded_solve_matches_the_full_system(solve, spec, order,
                                             monkeypatch):
    folded = solve(spec, order=order)
    monkeypatch.setattr(harmonic, "_collocation_solve", full_weighted_solve)
    full = solve(spec, order=order)
    assert abs(folded.check_misfit / full.check_misfit - 1.0) <= 0.01
    # the same charges to the roundoff of a condition near 1e12: they
    # differ by 2.0e-6 of max |q| at order 32 and 2.7e-5 at order 48
    assert np.abs(folded.charges - full.charges).max() \
        <= 1e-4 * np.abs(full.charges).max()
    q, q_full = folded.charges.sum(), full.charges.sum()
    if solve is solve_exterior:   # 4 pi sum q is the capacity
        assert abs(q / q_full - 1.0) <= 1e-12
    else:   # the remainder's sum q, 0.114, cancels in sum |q| = 43
        assert abs(q - q_full) <= 1e-8 * np.abs(full.charges).sum()
    assert folded.condition_estimate <= full.condition_estimate


def collocation_system(spec, order):
    """(quad, sources, rhs) of an exterior star solve at this order."""
    grid, factor, ring, node_order = _placement(order)
    quad = build_quadrature(spec, node_order)
    sources = _graph_points(spec, grid, factor, ring)
    return quad, sources, np.ones(len(quad.nodes))


def test_mirror_images_carry_equal_charges(star_solution):
    y, q = star_solution.sources, star_solution.charges
    pairs = 0
    for k in (1, 2):    # the bench star's mirrors: y -> -y and z -> -z
        image = y * np.where(np.arange(3) == k, -1.0, 1.0)
        j = np.argmin(np.linalg.norm(image[:, None] - y[None], axis=2), axis=1)
        assert np.abs(y[j] - image).max() <= 1e-14
        assert np.array_equal(q[j], q)
        pairs += np.count_nonzero(j != np.arange(len(y)))
    assert pairs > len(y)


def test_mirror_free_star_solves_the_full_system():
    quad, sources, rhs = collocation_system(MIRROR_FREE_STAR, 32)
    assert all(p is None for p in harmonic._mirror(sources))
    charges, cond = harmonic._collocation_solve(quad, sources, rhs)
    full_charges, full_cond = full_weighted_solve(quad, sources, rhs)
    assert np.array_equal(charges, full_charges) and cond == full_cond


@pytest.mark.parametrize("column", [0, 3], ids=["position", "weight"])
def test_a_mirror_image_moved_by_1e_9_drops_the_mirror(column):
    quad, sources, rhs = collocation_system(BENCH_STAR, 32)
    f = np.column_stack([quad.nodes, quad.weights, rhs])
    maps = harmonic._mirror(f)
    assert [k for k, p in enumerate(maps) if p is not None] == [1, 2]
    p = maps[1]
    i = int(np.argmax(p != np.arange(len(p))))
    f[p[i], column] += 1e-9 * np.abs(f[:, column]).max()
    # the moved node's z-image loses its partner too, so both mirrors go
    assert all(p is None for p in harmonic._mirror(f))
    for _, orbit, _, _ in harmonic._mirror_orbits(f, sources):
        assert np.array_equal(orbit, np.arange(len(orbit)))


def test_the_interior_ball_keeps_every_mirror(ball_interior):
    # its one zero charge at (2, 0, 0) does not count; the pole does
    assert ball_interior.mirrors == (0, 1, 2)
    # and with no pole no charge is left: u is constant
    assert replace(ball_interior, singular_coefficient=0.0).mirrors \
        == (0, 1, 2)
    assert solve_interior(DomainSpec(kind="sphere", radius=1.0)).mirrors \
        == (0, 1, 2)
    # off its center the Kelvin image on the x axis keeps y and z only
    off = solve_interior(DomainSpec(kind="sphere", radius=1.0,
                                    center=(0.3, 0.0, 0.0)))
    assert off.mirrors == (1, 2)


@pytest.mark.parametrize("solve, spec", [
    (solve_exterior, DomainSpec(kind="sphere", radius=1.0)),
    (solve_exterior, BENCH_STAR),
    (solve_interior, DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)))],
    ids=["ball", "star", "interior-ellipsoid"])
def test_a_solve_returns_the_solution_it_measured(solve, spec):
    # the check misfit's u call cached the mirrors and the kernel charges
    # on the returned solution, not on a copy left behind
    assert {"mirrors", "_kernel_charges"} <= vars(solve(spec)).keys()


def test_a_point_at_the_origin_keeps_every_mirror():
    # the exterior unit ball's one charge sits at the origin: its
    # coordinates are all 0, which the match must not divide by
    f = np.array([[0.0, 0.0, 0.0, 4.0 * math.pi]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in harmonic._mirror(f):
            assert np.array_equal(p, [0])
        ball = solve_exterior(DomainSpec(kind="sphere", radius=1.0))
        assert ball.mirrors == (0, 1, 2)


def lexsort_mirror(f, k):
    """The matcher that _mirror's one integer sort replaced, two 3-key
    lexsorts on the rounded coordinates, kept as its reference."""
    scale = np.abs(f).max(axis=0)
    g = f * np.where(np.arange(f.shape[1]) == k, -1.0, 1.0)
    unit = 1e6 / (scale[:3].max() or 1.0)
    a, b = (np.lexsort(np.round(x[:, :3] * unit).T) for x in (f, g))
    p = a[np.argsort(b)]
    return p if np.all(np.abs(f[p] - g) <= 1e-12 * scale) else None


def matcher_set(name):
    """A set of rows (a point, then its values) that the solves match."""
    if name.startswith(("nodes", "sources", "check")):
        order = int(name.split("-")[1])
        if name.startswith("check"):
            return _graph_points(BENCH_STAR, order + 8, 1.0)
        quad, sources, rhs = collocation_system(BENCH_STAR, order)
        return (np.column_stack([quad.nodes, quad.weights, rhs])
                if name.startswith("nodes") else sources)
    if name == "focal-211":
        spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
        return np.column_stack(harmonic._focal_charges(spec, 1.0, 24))
    if name == "zeros":
        return np.zeros((6, 4))
    rng = np.random.default_rng(3)
    # keys that would collide if the fields were 20 bits wide, the first
    # row ahead of the second's image under y -> -y
    pts = np.vstack([[[-0.048576, -1e-6, 0.5], [1.0, 0.0, 0.5],
                      [-0.048576, 1e-6, 0.5]],
                     rng.uniform(-1.0, 1.0, size=(40, 3))])
    for k in range(3):   # with every mirror image
        pts = np.vstack([pts, pts * np.where(np.arange(3) == k, -1.0, 1.0)])
    if name == "ties":   # each row twice, shuffled
        return rng.permutation(np.vstack([pts, pts]))
    # the corners round to +-10^6, the edge of the key's bit fields
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
    return np.vstack([corners, pts])


@pytest.mark.parametrize("name", [
    "nodes-32", "nodes-40", "nodes-48", "sources-32", "sources-40",
    "sources-48", "check-32", "check-40", "check-48", "focal-211", "zeros",
    "ties", "field-edge"])
def test_mirror_pairs_rows_as_the_lexsort_did(name):
    f = matcher_set(name)
    maps = harmonic._mirror(f)
    for k, p in enumerate(maps):
        ref = lexsort_mirror(f, k)
        assert (p is None) == (ref is None), k
        assert p is None or np.array_equal(p, ref), k
    found = [k for k, p in enumerate(maps) if p is not None]
    if name == "field-edge":
        assert np.abs(np.round(f * 1e6)).max() == 1e6
    # none of these sets is matched by chance: the star keeps y and z,
    # the rest every axis
    assert found == ([1, 2] if name[-2:] in ("32", "40", "48") else [0, 1, 2])


def unique_mirror_orbits(*sets, axes=range(3)):
    """_mirror_orbits as it was before it read the orbits off the first
    members without a second sort: np.unique on them, kept as its
    reference."""
    firsts = [np.arange(len(f)) for f in sets]
    signs = [np.ones((len(f), 3)) for f in sets]
    per_axis = zip(*(harmonic._mirror(f, axes) for f in sets)) if axes else ()
    for k, maps in zip(axes, per_axis):
        if any(p is None for p in maps):
            continue
        flip = np.where(np.arange(3) == k, -1.0, 1.0)
        for i, (first, sign, p) in enumerate(zip(firsts, signs, maps)):
            moved = first[p] < first
            firsts[i] = np.where(moved, first[p], first)
            signs[i] = np.where(moved[:, None], sign[p] * flip, sign)
    return [(*np.unique(i, return_inverse=True, return_counts=True), s)
            for i, s in zip(firsts, signs)]


def orbit_sets(name):
    """(sets, axes) that the solves fold: the bench star's nodes with their
    weights and rhs and its sources, its check grid of order + 8, the
    ball's fit-plus-check set, and a mirror-free star's nodes and sources."""
    if name.startswith(("star", "free")):
        spec = BENCH_STAR if name.startswith("star") else MIRROR_FREE_STAR
        quad, sources, rhs = collocation_system(spec, int(name[-2:]))
        return (np.column_stack([quad.nodes, quad.weights, rhs]),
                sources), range(3)
    if name.startswith("check"):
        return (_graph_points(BENCH_STAR, int(name[-2:]) + 8, 1.0),), (1, 2)
    ball = DomainSpec(kind="sphere", radius=1.0)
    return (np.vstack([build_quadrature(ball, 16).nodes,
                       _graph_points(ball, 24, 1.0)]),), (0, 1, 2)


@pytest.mark.parametrize("name", ["star-32", "star-48", "check-32",
                                  "check-48", "ball", "free-32"])
def test_orbits_are_those_of_a_second_sort(name):
    sets, axes = orbit_sets(name)
    got = harmonic._mirror_orbits(*sets, axes=axes)
    ref = unique_mirror_orbits(*sets, axes=axes)
    for orbits, ref_orbits in zip(got, ref, strict=True):
        for a, b in zip(orbits, ref_orbits, strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    sizes = [size for _, _, size, _ in got]
    if name.startswith("free"):
        assert all(np.all(size == 1) for size in sizes)
    else:   # every set here folds
        assert all(len(size) < size.sum() for size in sizes)


# ---------------------------------------------------------------------------
# kernel evaluation
# ---------------------------------------------------------------------------

def difference_tensor_field(sol, pts):
    """Reference (u, Du, D2u): kernel sums over the (N, M, 3) tensor of
    differences x - y_j, plus the closed-form singular term and the
    constant."""
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
    u = u + s0 / r + sol.constant
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
    ("ellipsoid_solution", (2.2, 4.0, 100.0)),
], ids=["exterior-ball", "star", "interior-ball", "exterior-ellipsoid"])
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


@pytest.fixture(scope="module")
def off_center_ball_interior():
    return solve_interior(DomainSpec(kind="sphere", radius=1.0,
                                     center=(0.5, 0.0, 0.0)), c=1.0, d=1.0)


@pytest.mark.parametrize("name", ["ball_interior", "ellipsoid_interior",
                                  "off_center_ball_interior"])
def test_singular_term_matches_closed_form(name, request):
    sol = request.getfixturevalue(name)
    dirs = np.random.default_rng(7).normal(size=(64, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    for r in np.logspace(-4, 0, 9):
        pts = r * dirs
        fitted = _kernel_sums(pts, _charge_moments(sol.sources, sol.charges),
                              "hess")
        singular = closed_form_singular_term(sol, pts)
        for k, want in enumerate(("u", "grad", "hess")):
            st = sol.field(pts, want=want, check_region=False)
            got = (st.u, st.grad, st.hess)[k].reshape(len(pts), -1)
            ref = (fitted[k] + singular[k]
                   + (sol.constant if k == 0 else 0.0)).reshape(len(pts), -1)
            scale = np.abs(ref).max(axis=1)
            assert np.all(np.abs(got - ref).max(axis=1) <= 1e-13 * scale), \
                (want, r)


@pytest.mark.parametrize("name", [
    "ball_solution", "ball_interior", "star_solution", "ellipsoid_interior"])
def test_field_makes_one_kernel_sum(name, request, spy):
    # the interior pole is one more charge in the same sum, not a second one
    sol = request.getfixturevalue(name)
    calls = spy("_kernel_sums", harmonic)
    scale = 2.0 if sol.problem == "exterior" else 0.5
    pts = scale * build_quadrature(sol.domain, 8).nodes
    for want in ("u", "grad", "hess"):
        calls.clear()
        sol.field(pts, want=want, check_region=False)
        assert [len(call.args[1][1]) for call in calls] == [  # the charges
            len(sol.sources) + (sol.problem == "interior")]


def test_hessian_evaluation_memory_is_bounded(star_solution):
    # 8,192 x 730 pairs, evaluated in (chunk, 730) temporaries of at most
    # 512 KiB
    assert len(star_solution.sources) == 730
    pts = random_exterior_points(star_solution.domain, 8192, seed=6)
    for want in ("u", "grad", "hess"):
        tracemalloc.start()
        try:
            star_solution.field(pts, want=want, check_region=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, want


@pytest.mark.parametrize("name", [
    "ball_solution", "ball_interior", "ellipsoid_solution",
    "ellipsoid_interior", "star_solution", "star_48"])
def test_collocation_matrix_matches_direct_inverse_distance(name, request):
    if name == "star_48":
        spec = request.getfixturevalue("star_solution").domain
        order = 48
        sources = _graph_points(spec, *_placement(order)[:3])
    else:
        sol = request.getfixturevalue(name)
        spec, order, sources = sol.domain, sol.order, sol.sources
    x = build_quadrature(spec, order).nodes
    got = _inverse_distance(_point_rows(x), _source_rows(sources))
    ref = 1.0 / np.linalg.norm(x[:, None] - sources[None], axis=2)
    assert np.abs(got / ref - 1.0).max() <= 1e-14


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
    flux = surface_integral(quad, gn)
    assert abs(flux / (sol.d * quad.area) - 1.0) < 1e-6


def test_interior_singular_part_is_exact(ball_interior):
    # singular coefficient equals d |dOmega| a_n = 1 * 4 pi * 1/(4 pi)
    assert_allclose(ball_interior.singular_coefficient, 1.0, rtol=1e-12)


def test_interior_region_checks(ball_interior):
    with pytest.raises(OutOfRegionError):
        ball_interior.field(np.array([1.5, 0.0, 0.0])[None])
    with pytest.raises(OutOfRegionError):
        ball_interior.field(np.array([0.0, 0.0, 0.0])[None])


def test_interior_requires_positive_flux():
    with pytest.raises(ValueError):
        solve_interior(DomainSpec(kind="sphere", radius=1.0), d=0.0)


@pytest.mark.parametrize("solve, named", [
    (lambda ball: solve_exterior(ball, c=math.inf), "c must be positive"),
    (lambda ball: solve_interior(ball, c=math.nan), "c must be positive"),
    (lambda ball: solve_interior(ball, d=math.inf), "d must be positive"),
], ids=["exterior-c-inf", "interior-c-nan", "interior-d-inf"])
def test_non_finite_c_and_d_rejected_before_solving(solve, named):
    with pytest.raises(ValueError, match=f"{named} and finite"):
        solve(DomainSpec(kind="sphere", radius=1.0))


@pytest.mark.parametrize("patched, solve, spec, returned", [
    ("_focal_charges", solve_exterior, DomainSpec(kind="sphere", radius=1.0),
     lambda *args: (np.zeros((1, 3)), np.array([math.nan]))),
    ("_sphere_charges", solve_interior, DomainSpec(kind="sphere", radius=1.0),
     lambda *args: (np.zeros((1, 3)), np.array([math.nan]), 0.0)),
    ("_collocation_solve", solve_exterior,
     DomainSpec(kind="star", mean_radius=1.0,
                terms=((2, 0, 0.1), (3, 1, 0.05))),
     lambda quad, sources, rhs: (np.full(len(sources), math.nan), 1.0)),
], ids=["exterior", "interior", "star"])
def test_nan_closed_form_fails_the_tolerance(monkeypatch, patched, solve,
                                              spec, returned):
    # NaN > tol is False, so the gate must ask for fit <= tol instead; the
    # fit of every solve is measured from u at its nodes
    monkeypatch.setattr(harmonic, patched, returned)
    with pytest.raises(SolverFailureError,
                       match="misfit nan on .* misfit nan exceeds"):
        solve(spec)


def ball_green_function(pts, x0, radius, c, s0):
    """(u, Du, D2u) of u = c + s0 (1/|x| - (R/|x0|)/|x - p*|), the interior
    potential of the ball of radius R and center x0 != 0 with its pole at
    the origin, where p* = x0 - R^2 x0/|x0|^2 is the Kelvin image of the
    origin (Kellogg 1929)."""
    x0 = np.asarray(x0, dtype=float)
    dist = np.linalg.norm(x0)
    image = x0 - radius ** 2 * x0 / dist ** 2
    u, g, h = np.full(len(pts), float(c)), np.zeros((len(pts), 3)), 0.0
    for y, q in ((np.zeros(3), s0), (image, -s0 * radius / dist)):
        d = pts - y
        r = np.linalg.norm(d, axis=1)
        u = u + q / r
        g = g - q * d / r[:, None] ** 3
        h = h + q * (3.0 * d[:, :, None] * d[:, None, :]
                     / r[:, None, None] ** 5
                     - np.eye(3)[None] / r[:, None, None] ** 3)
    return u, g, h


@pytest.mark.parametrize("c", [1.0, 2.0])
@pytest.mark.parametrize("center", [(0.5, 0.0, 0.0), (0.2, -0.1, 0.15)])
def test_off_center_interior_sphere_is_the_green_function(tmp_path, center,
                                                          c):
    # one Kelvin image charge and the constant c are the exact potential;
    # the ring fit failed both spheres at the default order
    spec = DomainSpec(kind="sphere", radius=1.0, center=center)
    sol = solve_interior(spec, c=c, d=1.0)
    assert sol.check_misfit <= 1e-14
    assert (len(sol.sources), sol.constant) == (1, c)
    rng = np.random.default_rng(11)
    dirs = rng.normal(size=(400, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pts = np.asarray(center) + rng.uniform(0.0, 0.95, (400, 1)) * dirs
    pts = pts[np.linalg.norm(pts, axis=1) > 0.05]
    # s0 = d |dOmega| a_n = d R^2
    ref = ball_green_function(pts, center, 1.0, c, 1.0)
    st = sol.field(pts)
    for got, want in zip((st.u, st.grad, st.hess), ref):
        got, want = got.reshape(len(pts), -1), want.reshape(len(pts), -1)
        scale = np.abs(want).max(axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * scale)
    path, again = tmp_path / "sol.json", tmp_path / "again.json"
    sol.save(path)
    assert json.loads(path.read_text())["constant"] == c
    HarmonicSolution.load(path).save(again)
    assert again.read_bytes() == path.read_bytes()
    assert symmetry_certificate(sol).granted is False


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_solution_round_trip(tmp_path, ellipsoid_solution):
    path = tmp_path / "sol.json"
    ellipsoid_solution.save(path)
    again = HarmonicSolution.load(path)
    assert again.check_misfit == ellipsoid_solution.check_misfit
    pts = random_exterior_points(ellipsoid_solution.domain, 20, seed=4)
    a = ellipsoid_solution.field(pts)
    b = again.field(pts)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.grad, b.grad)
    assert np.array_equal(a.hess, b.hess)


# the keys of a saved solution, every one of them required
SOLUTION_KEYS = ("c", "charges", "checkMisfit", "conditionEstimate",
                 "constant", "d", "domain", "fitResidual", "order", "problem",
                 "singularCoefficient", "sources")


@pytest.mark.parametrize("change", [None, *SOLUTION_KEYS, "boundaryArea"],
                         ids=["round-trip",
                              *(f"without-{key}" for key in SOLUTION_KEYS),
                              "with-boundaryArea"])
@pytest.mark.parametrize("problem", ["exterior", "interior"])
def test_saved_solution_has_one_complete_form(tmp_path, ball_solution,
                                              ball_interior, problem, change):
    # save -> load -> save is byte-exact; a file lacking a key, or carrying
    # boundaryArea as older files did, fails naming the key and the file
    sol = ball_solution if problem == "exterior" else ball_interior
    path, again = tmp_path / "sol.json", tmp_path / "again.json"
    sol.save(path)
    data = json.loads(path.read_text())
    assert sorted(data) == list(SOLUTION_KEYS)
    if change is None:
        HarmonicSolution.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()
        return
    if change in data:
        del data[change]
        named = f"solution {path} is missing '{change}'"
    else:
        data[change] = 4.0 * math.pi
        named = f"unknown key '{change}' in solution {path}"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match=re.escape(named)):
        HarmonicSolution.load(path)


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


def per_radius_decay(sol, radii):
    """The exponents of decay_report as one field call per radius gave
    them."""
    th, ph, W = angular_grid(harmonic._DECAY_ORDER)
    om = unit_directions(th, ph)
    [(rows, row_of, _, _)] = harmonic._mirror_orbits(om, axes=sol.mirrors)
    Wn = np.bincount(row_of, weights=W / W.sum())
    avgs = []
    for r in radii:
        st = sol.field(r * om[rows], want="hess", check_region=False)
        avgs.append([Wn @ st.u, Wn @ np.linalg.norm(st.grad, axis=1),
                     Wn @ np.linalg.norm(st.hess, axis=(1, 2))])
    return [np.polyfit(np.log(radii), np.log(v), 1)[0]
            for v in np.transpose(avgs)]


@pytest.mark.parametrize("name", ["ball_solution", "star_solution"])
def test_decay_report_makes_one_field_call(name, request, spy):
    sol = request.getfixturevalue(name)
    radii = np.geomspace(10.0, 100.0, 8)
    ref = per_radius_decay(sol, radii)
    calls = spy("field", HarmonicSolution)
    rep = decay_report(sol, radii)
    assert len(calls) == 1
    assert_allclose([rep.fitted_exponent, rep.gradient_exponent,
                     rep.hessian_exponent], ref, rtol=1e-13, atol=0.0)


def test_decay_preconditions(ball_solution, ball_interior):
    with pytest.raises(InsufficientSamplesError):
        decay_report(ball_solution, [10.0, 20.0, 30.0])
    with pytest.raises(ValueError):
        decay_report(ball_solution, [10.0, 9.0, 20.0, 30.0])
    # a non-finite radius is named, not left to the fit (LAPACK noise)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radii must be finite"):
            decay_report(ball_solution, [10.0, 20.0, 30.0, bad])
    with pytest.raises(ValueError):
        decay_report(ball_solution, [1.1, 10.0, 20.0, 30.0])
    with pytest.raises(ValueError):
        decay_report(ball_interior, [10.0, 20.0, 30.0, 40.0])
