import collections
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from capsym import (DomainSpec, FieldStates, HarmonicSolution,
                    IrregularLevelSetError,
                    LevelRangeError, NonStarShapedLevelSetError,
                    WeightSpec, angular_grid, check_C12,
                    criteria, extract_level_set, identities, levelset,
                    solve_exterior, solve_interior,
                    surface_integral, unit_directions,
                    weighted_identity_check)
from capsym.conformal import level_set_mean_curvature
from radial_oracle import RadialGeometry, radial_solution

BENCH_STAR = DomainSpec(kind="star", mean_radius=1.0,
                        terms=((2, 0, 0.1), (3, 1, 0.05)))


def fresh(sol):
    """The same solution with an empty level-set cache."""
    return HarmonicSolution.from_json_dict(sol.to_json_dict())


def reference_radii(sol, c, order=None):
    """Level-set radii by the earlier extractor: a log-spaced scan to
    bracket the crossing, 22 bisection steps, then 5 Newton steps kept
    inside the bisection bracket."""
    order = order if order is not None else sol.order
    om = unit_directions(*angular_grid(order)[:2])
    r_exit = np.atleast_1d(sol.domain.ray_exit_radius(om))

    def u(r):
        return sol.field(r[:, None] * om, want="u", check_region=False).u

    if sol.problem == "exterior":
        r_lo = r_exit * (1.0 - 1e-5)
        r_hi = np.full_like(r_lo, 2.0 * r_exit.max())
        while not np.all(u(r_hi) < c * (1.0 - 1e-6)):
            r_hi = np.where(u(r_hi) < c * (1.0 - 1e-6), r_hi, 2.0 * r_hi)
    else:
        r_hi = r_exit * (1.0 + 1e-12)
        v_bound = (abs(sol.c) + abs(sol.singular_coefficient) / r_exit.min()
                   + abs(c))
        r_lo = np.full_like(r_hi, min(
            0.25 * r_exit.min(), sol.singular_coefficient / (c + 2.0 * v_bound)))
    n = max(8, int(16 * np.log10(r_hi.max() / r_lo.min())) + 1)
    t = np.linspace(0.0, 1.0, n)
    grid = np.exp(np.log(r_lo)[:, None] * (1 - t) + np.log(r_hi)[:, None] * t)
    sign = np.sign(np.stack([u(grid[:, j]) for j in range(n)], axis=1) - c)
    changes = np.abs(np.diff(sign, axis=1)) > 0
    assert np.all(changes.sum(axis=1) == 1)
    first = np.argmax(changes, axis=1)
    rows = np.arange(len(om))
    lo, hi = grid[rows, first], grid[rows, first + 1]
    for _ in range(22):
        mid = 0.5 * (lo + hi)
        above = u(mid) > c
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    r = 0.5 * (lo + hi)
    for _ in range(5):
        st = sol.field(r[:, None] * om, want="grad", check_region=False)
        slope = np.einsum("ns,ns->n", st.grad, om)
        r_new = r - (st.u - c) / slope
        r = np.where((r_new > lo) & (r_new < hi), r_new, r)
    return r


def field_wants(calls):
    """Spied HarmonicSolution.field calls, counted by ``want``."""
    return collections.Counter(call.arg("want") for call in calls)


def phi_oracle_ball(c, n=3, r0=1.0):
    """Flux-cubed-over-u integral of the radial solution, composed by hand:
    |Du|^3/u at the level radius times the level-sphere area."""
    geom = RadialGeometry(n=n, r0=r0)
    r_c = r0 * c ** (-1.0 / (n - 2))
    vals = radial_solution(geom, "exterior", r_c)
    area = geom.sphere_area * r_c ** (n - 1)
    return vals.du_magnitude ** 3 / vals.u * area


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_ball_level_set_radius(ball_solution):
    # r_c = r0 c^{-1/(n-2)}: level 0.5 sits at radius 2
    ls = extract_level_set(ball_solution, 0.5)
    assert np.abs(ls.radii - 2.0).max() < 1e-9


def test_irregular_level_raises_on_every_path_and_is_not_cached(
        monkeypatch, ball_solution):
    # |Du| = c^2 on the unit ball's level c: with the threshold at 0.3 the
    # level 0.5 (|Du| = 0.25) is irregular and the level 0.75 is regular
    monkeypatch.setattr(levelset, "REGULARITY_THRESHOLD", 0.3)
    sol = fresh(ball_solution)
    for extract in [
            lambda: extract_level_set(sol, 0.5),
            lambda: weighted_identity_check(sol, WeightSpec.linear(),
                                            math.log(0.5), math.log(0.75))]:
        with pytest.raises(IrregularLevelSetError,
                           match="level set 0.5 fails the regularity "
                                 "threshold"):
            extract()
    # the identity cached its regular top level, never the irregular one
    assert [v.level for v in sol._levelset_cache.values()
            if isinstance(v, levelset.LevelSet)] == [0.75]
    assert extract_level_set(sol, 0.75).u_grad.min() > 0.3
    [row] = criteria.run_battery(sol, criteria=["C1.4-pointwise"])
    assert row["criterionId"] == "C1.4-pointwise"
    assert row["error"].startswith(
        "IrregularLevelSetError: level set 0.5 fails the regularity threshold")


def test_boundary_level_coincides_with_surface(ball_solution):
    ls = extract_level_set(ball_solution, 1.0)
    assert np.abs(ls.radii - 1.0).max() < 1e-8
    # H = n - 1 on the unit sphere
    assert np.abs(ls.mean_curv - 2.0).max() < 1e-8


def test_extraction_consistency(ball_solution, ellipsoid_solution):
    for sol, c in ((ball_solution, 0.37), (ellipsoid_solution, 0.8)):
        ls = extract_level_set(sol, c)
        u = sol.field(ls.nodes, want="u", check_region=False).u
        assert np.abs(u - c).max() < 1e-10


def test_normals_point_along_minus_gradient(ellipsoid_solution):
    ls = extract_level_set(ellipsoid_solution, 0.5)
    expected = -ls.grad / ls.u_grad[:, None]
    assert np.abs(ls.normals - expected).max() < 1e-14


def test_far_level_sets_round_off(ellipsoid_solution):
    # sphericity improves from the boundary outwards
    def sphericity(c):
        ls = extract_level_set(ellipsoid_solution, c)
        return ls.radii.max() / ls.radii.min() - 1.0

    s_boundary = sphericity(1.0 - 1e-9)
    s_far = sphericity(0.1)
    assert s_far < s_boundary
    assert s_far < 0.05


def test_level_range_errors(ball_solution):
    with pytest.raises(LevelRangeError):
        extract_level_set(ball_solution, 1.5)
    with pytest.raises(LevelRangeError):
        extract_level_set(ball_solution, 0.0)
    with pytest.raises(LevelRangeError, match="1.5"):
        weighted_identity_check(ball_solution, WeightSpec.linear(),
                                math.log(0.25), math.log(1.5))


def test_interior_level_range(ball_interior):
    # the boundary value c is the lowest interior level; inf is not a level
    assert np.allclose(extract_level_set(ball_interior, 1.0).radii, 1.0)
    for level in (0.5, math.inf):
        with pytest.raises(LevelRangeError, match="interior levels"):
            extract_level_set(ball_interior, level)


def pierced_twice():
    """A charge beyond the boundary makes u rise and fall along the +x ray,
    so the levels 3 and 4 are pierced twice by it."""
    return HarmonicSolution(
        problem="exterior", c=6.0, d=None,
        domain=DomainSpec(kind="sphere", radius=0.5),
        sources=np.array([[0.9, 0.0, 0.0]]),
        charges=np.array([1.0]), singular_coefficient=0.0, constant=0.0,
        fit_residual=0.0, order=12,
        condition_estimate=1.0, check_misfit=0.0)


def test_non_star_shaped_level_reported():
    # {u = 3} is pierced twice; the extractor must report, not guess
    sol = pierced_twice()
    with pytest.raises(NonStarShapedLevelSetError):
        extract_level_set(sol, 3.0)
    # the +x ray crosses {u = 4} twice as well
    with pytest.raises(NonStarShapedLevelSetError):
        extract_level_set(sol, 4.0)


# ---------------------------------------------------------------------------
# scan, safeguarded Newton and the per-solution cache
# ---------------------------------------------------------------------------

AGREEMENT_CASES = [("ball_solution", (1.0, 0.5, 0.002)),
                   ("ellipsoid_solution", (1.0 - 1e-9, 0.8, 0.1)),
                   ("star_solution", (0.9, 0.5, 0.05)),
                   ("ball_interior", (1.0, 1.5, 4.0, 40.0))]


@pytest.mark.parametrize("name,levels", AGREEMENT_CASES)
def test_agrees_with_reference_extractor(request, name, levels):
    sol = fresh(request.getfixturevalue(name))
    for c in levels:
        ls = extract_level_set(sol, c)
        ref = reference_radii(sol, c)
        assert np.abs(ls.radii - ref).max() <= 1e-12 * ref.max()
        u = sol.field(ls.nodes, want="u", check_region=False).u
        assert np.abs(u - c).max() <= 1e-12 * c


def test_boundary_level_set_meets_the_regularity_threshold(monkeypatch,
                                                           ball_interior):
    # |Du| = d = 1 on the interior unit ball's boundary: with the threshold
    # at 2 the boundary LevelSet is irregular, named and not cached, and
    # the battery embeds the error
    monkeypatch.setattr(levelset, "REGULARITY_THRESHOLD", 2.0)
    sol = fresh(ball_interior)
    with pytest.raises(IrregularLevelSetError,
                       match="level set 1.0 fails the regularity threshold"):
        levelset._boundary(sol)
    assert "boundary" not in sol._levelset_cache
    [row] = criteria.run_battery(sol, criteria=["C1.7-interior-pointwise"])
    assert row["error"].startswith("IrregularLevelSetError: level set 1.0")


def test_repeat_extraction_is_cached_and_read_only(ball_solution):
    sol = fresh(ball_solution)
    ls = extract_level_set(sol, 0.42)
    assert extract_level_set(sol, np.float64(0.42)) is ls
    assert extract_level_set(sol, 0.42, order=sol.order + 8) is not ls
    with pytest.raises(ValueError):
        ls.radii[0] = 1.0
    for key in ("nodes", "weights", "normals", "u_grad", "mean_curv", "grad"):
        assert not getattr(ls, key).flags.writeable
    # so are the cached rays and the boundary LevelSet
    boundary = levelset._boundary(sol)
    assert levelset._boundary(sol) is boundary
    for array in (*levelset._rays(sol, sol.order), boundary.nodes,
                  boundary.weights, boundary.normals, boundary.mean_curv,
                  boundary.u_grad, boundary.grad):
        assert not array.flags.writeable


def test_rays_computed_once_per_order(spy, star_solution):
    sol = fresh(star_solution)
    calls = spy("ray_exit_radius", DomainSpec)
    extract_level_set(sol, 0.5, order=16)
    extract_level_set(sol, 0.7, order=16)
    assert len(calls) == 1


@pytest.mark.parametrize("name,level", [
    *(("ball_solution", c) for c in (1.0, 0.75, 0.5, 0.25, 0.002)),
    *(("ball_interior", c) for c in (1.5, 3.0, 40.0))])
def test_scan_marches_once_to_the_level(spy, request, name, level):
    # u = 1/r on both unit-ball solutions, so {u = level} is the sphere of
    # radius 1/level; one march from 1e-5 off the boundary at 16 columns
    # per decade reaches it, with at least 8 columns and the column past it
    sol = fresh(request.getfixturevalue(name))
    calls = spy("field", HarmonicSolution)
    ls = extract_level_set(sol, level)
    assert_allclose(ls.radii, 1.0 / level, rtol=1e-12)
    r_start = 1.0 - 1e-5 if sol.problem == "exterior" else 1.0 + 1e-5
    decades = abs(math.log10(level * r_start))
    assert field_wants(calls)["u"] <= max(8, math.ceil(16 * decades) + 2)


def test_levels_share_one_march(spy, ball_solution):
    # the farthest level's march computes every column the nearer ones read
    sol = fresh(ball_solution)
    calls = spy("field", HarmonicSolution)
    extract_level_set(sol, 0.25)
    alone = field_wants(calls)["u"]
    sol = fresh(ball_solution)
    calls.clear()
    for level in (0.5, 0.25, 0.75):
        extract_level_set(sol, level)
    assert field_wants(calls)["u"] == alone == 11


@pytest.mark.parametrize("name,levels", [
    ("star_solution", (0.75, 0.5, 0.25)),
    ("ball_interior", (1.5, 2.0, 3.0, 40.0))])
def test_shared_march_gives_the_level_sets_of_fresh_solutions(request, name,
                                                              levels):
    # bit for bit: a level reads the same columns whichever level computed
    # them, near levels first or far levels first
    sol = request.getfixturevalue(name)
    alone = [extract_level_set(fresh(sol), c) for c in levels]
    for order in (levels, levels[::-1]):
        shared = fresh(sol)
        for c in order:
            ls = extract_level_set(shared, c)
            ref = alone[levels.index(c)]
            for key in ("nodes", "weights", "radii", "grad"):
                assert np.array_equal(getattr(ls, key), getattr(ref, key))


@pytest.mark.parametrize("levels", [(3.0, 4.0), (4.0, 3.0)])
def test_non_star_shaped_level_reported_from_the_shared_march(spy, levels):
    # the second level reads every column from the first one's march and
    # still sees the two crossings on the +x ray
    sol = pierced_twice()
    calls = spy("field", HarmonicSolution)
    for c in levels:
        with pytest.raises(NonStarShapedLevelSetError, match="changes sign 2"):
            extract_level_set(sol, c)
        # the first level marches 8 columns, the second computes none
        assert field_wants(calls)["u"] == 8


def test_march_columns_are_read_only(ball_solution, ball_interior):
    for sol, level in ((fresh(ball_solution), 0.25),
                       (fresh(ball_interior), 3.0)):
        extract_level_set(sol, level)
        radii, vals = levelset._order_entry(sol, sol.order)[-2:]
        assert len(radii) == len(vals) >= 8
        for column in (*radii, *vals):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0.0


# (fixture, level): three exterior solutions at two levels, and the
# interior (2,1,1), whose confocal charges (sum |q| 13,533) left u too noisy
# for Newton at 1e-14 r: 47-49 grad calls per level, against 4 on the
# dilated rings (sum |q| 43)
NEWTON_CASES = [*((name, c) for c in (0.5, 0.002)
                  for name in ("ball_solution", "ellipsoid_solution",
                               "star_solution")),
                ("ellipsoid_interior", 1.5), ("ellipsoid_interior", 3.0)]


@pytest.mark.parametrize("name, c", NEWTON_CASES,
                         ids=[f"{c}-{name}" for name, c in NEWTON_CASES])
def test_newton_gradient_calls_per_level(spy, request, name, c):
    sol = fresh(request.getfixturevalue(name))
    made = spy("field", HarmonicSolution)
    extract_level_set(sol, c)
    calls = field_wants(made)
    assert 1 <= calls["grad"] <= 6
    assert calls["hess"] == 1
    if name == "ball_solution":
        # the log-log start is exact for u = 1/r
        assert calls["grad"] <= 2


def test_safeguard_keeps_newton_in_the_bracket():
    # u = 3 - atan(4 (r - 2)) along every ray: plain Newton from the log-log
    # start overshoots and diverges; the safeguarded solve still finds r = 2
    class Profile:
        def field(self, points, want, check_region):
            r = np.linalg.norm(points, axis=1)
            dudr = -4.0 / (1.0 + 16.0 * (r - 2.0) ** 2)
            return SimpleNamespace(u=3.0 - np.arctan(4.0 * (r - 2.0)),
                                   grad=dudr[:, None] * points / r[:, None])

    def u(r):
        return 3.0 - np.arctan(4.0 * (r - 2.0))

    lo, hi = np.full(3, 0.5), np.full(3, 6.0)
    r = levelset._solve_radii(Profile(), np.eye(3), 3.0, lo, hi, u(lo), u(hi))
    assert np.abs(r - 2.0).max() <= 1e-13


def test_unconverged_rays_raise_named_error(monkeypatch, ellipsoid_solution):
    # one safeguarded Newton step cannot reach 1e-14 r from the scan bracket
    monkeypatch.setattr(levelset, "_MAX_STEPS", 1)
    with pytest.raises(IrregularLevelSetError,
                       match="level set 0.8 did not converge"):
        extract_level_set(fresh(ellipsoid_solution), 0.8)


# ---------------------------------------------------------------------------
# mirror orbits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [0.9, 0.5, 0.25])
def test_folded_level_sets_match_a_direct_evaluation(star_solution, c):
    # the field is evaluated on one ray per orbit of the bench star's y and
    # z mirrors and copied with the reflection's signs; on the plane x = 0
    # (phi = pi/2 and 3 pi/2) om_x is +-1e-16 but Du_x is not roundoff, so
    # signs taken from the coordinates would be wrong there
    sol = fresh(star_solution)
    ls = extract_level_set(sol, c)
    assert sol.mirrors == (1, 2)
    assert len(levelset._order_entry(sol, sol.order)[3]) == 528
    st = sol.field(ls.nodes, want="hess", check_region=False)
    assert np.abs(st.u - c).max() <= 1e-12 * c
    on_plane = np.abs(ls.nodes[:, 0]) <= 1e-12
    scale = np.abs(st.grad).max()
    assert on_plane.sum() == 64
    assert np.abs(ls.grad[on_plane, 0]).max() > 1e-3 * scale
    assert np.abs(ls.grad - st.grad).max() <= 1e-13 * scale
    assert np.abs(ls.grad[on_plane] - st.grad[on_plane]).max() <= 1e-13 * scale
    assert_allclose(ls.u_grad, st.grad_norm, rtol=1e-13)
    # the mean curvature reads D2u at every node, off-diagonal signs too
    H = level_set_mean_curvature(st.grad, st.hess)
    assert np.abs(ls.mean_curv - H).max() <= 1e-12 * np.abs(H).max()


def test_mirror_nodes_carry_bitwise_equal_data(star_solution):
    ls = extract_level_set(fresh(star_solution), 0.5)
    for k in (1, 2):
        flip = np.where(np.arange(3) == k, -1.0, 1.0)
        image = ls.nodes * flip
        j = np.argmin(np.linalg.norm(image[:, None] - ls.nodes[None], axis=2),
                      axis=1)
        assert np.abs(ls.nodes[j] - image).max() <= 1e-14
        # a node on the mirror plane is its own image, with Du_k roundoff
        moved = j != np.arange(len(j))
        assert np.count_nonzero(moved) > len(j) // 2
        for key in ("u_grad", "weights", "mean_curv", "radii"):
            assert np.array_equal(getattr(ls, key)[j], getattr(ls, key))
        for key in ("grad", "normals"):
            value = getattr(ls, key)
            assert np.array_equal(value[j[moved]], value[moved] * flip)


def test_mirror_free_level_set_is_a_direct_evaluation():
    # centred off the origin the bench star keeps no mirror: every ray is
    # its own orbit, and the level set is the field at its nodes bit for bit
    spec = DomainSpec(kind="star", mean_radius=1.0,
                      terms=((2, 0, 0.1), (3, 1, 0.05)),
                      center=(0.4, 0.2, 0.1))
    sol = solve_exterior(spec)
    assert sol.mirrors == ()
    ls = extract_level_set(sol, 0.5)
    st = sol.field(ls.nodes, want="hess", check_region=False)
    W, om = levelset._rays(sol, sol.order)[:2]
    assert np.array_equal(ls.nodes, ls.radii[:, None] * om)
    assert np.array_equal(ls.grad, st.grad)
    assert np.array_equal(ls.u_grad, np.linalg.norm(st.grad, axis=1))
    assert np.array_equal(ls.normals, -st.grad / ls.u_grad[:, None])
    assert np.array_equal(ls.mean_curv,
                          level_set_mean_curvature(st.grad, st.hess))
    cos = np.einsum("ns,ns->n", ls.normals, om)
    assert np.array_equal(ls.weights, W * ls.radii ** 2 / cos)


# ---------------------------------------------------------------------------
# surface integrals
# ---------------------------------------------------------------------------

def test_level_sphere_area(ball_solution):
    ls = extract_level_set(ball_solution, 0.5)
    ones = np.ones(len(ls.weights))
    assert abs(surface_integral(ls, ones) - 16.0 * math.pi) < 1e-8


def test_capacity_flux_on_levels(ball_solution):
    # Cap = (n-2)|S^{n-1}| r0^{n-2} = 4 pi for the unit ball
    for c in (0.25, 0.5, 0.75, 1.0):
        ls = extract_level_set(ball_solution, c)
        cap = surface_integral(ls, ls.u_grad)
        assert abs(cap - 4.0 * math.pi) / (4.0 * math.pi) < 1e-6


def test_capacity_level_independence(ellipsoid_solution):
    caps = []
    for c in (0.25, 0.5, 0.75, 1.0):
        ls = extract_level_set(ellipsoid_solution, c)
        caps.append(surface_integral(ls, ls.u_grad))
    caps = np.asarray(caps)
    assert (caps.max() - caps.min()) / caps.mean() < 1e-5


def test_flux_cubed_integral_matches_radial_oracle(ball_solution):
    # phi_oracle_ball(c) = 4 pi c^3 at n = 3, r0 = 1
    assert_allclose(phi_oracle_ball(0.5), 4 * math.pi * 0.125, rtol=1e-12)
    for c in (0.3, 0.6, 1.0):
        ls = extract_level_set(ball_solution, c)
        phi = surface_integral(ls, ls.u_grad ** 3 / c)
        assert abs(phi - phi_oracle_ball(c)) / phi_oracle_ball(c) < 1e-8


def test_equality_gap_vanishes_on_ball_levels(ball_solution):
    # H/(n-1) - |Du|/((n-2)u) = 0 on every level set of the radial solution
    for c in (0.25, 0.5, 0.75, 1.0):
        ls = extract_level_set(ball_solution, c)
        gap = ls.mean_curv / 2.0 - ls.u_grad / c
        assert np.abs(gap).max() < 1e-8


def test_surface_integral_length_mismatch(ball_solution):
    ls = extract_level_set(ball_solution, 0.5)
    with pytest.raises(ValueError):
        surface_integral(ls, np.ones(3))


# ---------------------------------------------------------------------------
# coarea
# ---------------------------------------------------------------------------

def flux_to_the_fourth_over_u(st):
    return st.grad_norm ** 4 / st.u, 0.0


def exterior_volume(sol, density, want="grad", order=None, scale=1.0):
    """int F dmu over the exterior of the domain by _ray_volume."""
    order = order if order is not None else sol.order
    r_exit = levelset._rays(sol, order)[2]
    return levelset._ray_volume(sol, density, want, r_exit, np.inf, order,
                                scale)


def test_coarea_of_flux_cubed_over_u(ball_solution):
    # int_0^1 Phi(c) dc = int |Du|^4/u dmu = pi for the unit ball, from
    # integrating the hand-composed 4 pi c^3
    val, err = exterior_volume(ball_solution, flux_to_the_fourth_over_u)
    assert abs(val - math.pi) / math.pi < 1e-6
    assert 0 < err < 1e-6 * math.pi


def test_coarea_ratio_is_equality_case(ball_solution):
    # Phi(1) / int_0^1 Phi = 4 = 2(n-1)/(n-2): the radial solution achieves
    # equality in the global coarea condition (see also the closed-form
    # check below for every n)
    ls = extract_level_set(ball_solution, 1.0)
    phi_top = surface_integral(ls, ls.u_grad ** 3 / 1.0)
    integral, _ = exterior_volume(ball_solution, flux_to_the_fourth_over_u)
    assert abs(phi_top / integral - 4.0) < 1e-4


def test_coarea_ratio_closed_form_every_dimension():
    # by hand from the radial solution: Phi(c) = (n-2)^3 |S| r0^{n-4}
    # c^{n/(n-2)}; the ratio Phi(1)/int_0^1 Phi is 2(n-1)/(n-2) exactly
    for n in (3, 4, 5, 8):
        cs = np.linspace(1e-9, 1.0, 20001)
        phi = np.array([phi_oracle_ball(c, n=n, r0=1.3) for c in cs])
        integral = np.trapezoid(phi, cs)
        ratio = phi_oracle_ball(1.0, n=n, r0=1.3) / integral
        assert abs(ratio - 2.0 * (n - 1) / (n - 2)) < 5e-3


def test_coarea_zero_integrand(ball_solution):
    r_in = levelset._rays(ball_solution, ball_solution.order)[2]
    assert levelset._ray_volume(
        ball_solution, lambda st: (np.zeros(len(st.u)), 0.0), "u", r_in,
        2.0 * r_in, ball_solution.order, 1.0) == (0.0, 0.0)


def test_ray_volume_measures(ball_solution):
    # the shell 1 < r < 2 has volume 28 pi/3 (panels in log r), and
    # int_{r > 1} r^-6 dmu = 4 pi/3 (panels in t = 1/r, integrand t^2)
    sol, order = ball_solution, ball_solution.order
    r_in = levelset._rays(sol, order)[2]
    shell, err = levelset._ray_volume(
        sol, lambda st: (np.ones(len(st.u)), 0.0), "u", r_in, 2.0 * r_in,
        order, 1.0)
    assert abs(shell - 28.0 * math.pi / 3.0) <= 1e-13 * shell
    assert err < 1e-12
    tail, err = levelset._ray_volume(
        sol, lambda st: (np.sum(st.points ** 2, axis=1) ** -3, 0.0), "u",
        r_in, np.inf, order, 1.0)
    assert abs(tail - 4.0 * math.pi / 3.0) <= 1e-13 * tail
    assert err < 1e-12


def test_ray_volume_bisects_to_the_tolerance_and_reports_the_cap(
        monkeypatch, ellipsoid_solution):
    # the prolate ellipsoid's foci sit 0.27 inside its tips, so the exterior
    # integral needs more than one panel; the error meets the tolerance
    # relative to the given scale, and at a cap of one panel it is returned
    # as it is, larger than the tolerance
    sol = ellipsoid_solution
    value, err = exterior_volume(sol, flux_to_the_fourth_over_u)
    assert err <= levelset._RAY_TOL * 1.0
    monkeypatch.setattr(levelset, "_MAX_PANELS", 1)
    one_panel, one_err = exterior_volume(sol, flux_to_the_fourth_over_u)
    assert one_err > levelset._RAY_TOL
    assert abs(one_panel - value) <= one_err


def test_ray_volume_stops_at_one_panel_on_the_ball(
        monkeypatch, spy, ball_solution, ball_interior):
    # the ball's identity volume term is roundoff noise far below the scale
    # (its exact value is 0): a stopping rule relative to the integral
    # itself would bisect to the cap; relative to the caller's scale one
    # panel, its 15 node columns in one field call, suffices
    field = spy("field", HarmonicSolution)
    calls = []
    ray_volume = levelset._ray_volume

    def counted(*args):
        # the field calls made inside each _ray_volume call
        before = len(field)
        result = ray_volume(*args)
        calls.append(len(field) - before)
        return result

    monkeypatch.setattr(criteria, "_ray_volume", counted)
    monkeypatch.setattr(identities, "_ray_volume", counted)
    check_C12(fresh(ball_solution))
    assert calls == [1, 1]          # at the order and at order + 8
    for sol, a, b in ((ball_solution, 0.25, 0.75), (ball_interior, 1.5, 3.0)):
        calls.clear()
        res = weighted_identity_check(fresh(sol), WeightSpec.linear(),
                                      math.log(a), math.log(b))
        assert calls == [1]
        assert abs(res.lhs) < 1e-20 * res.scale


def hessian_squared(st):
    return np.einsum("nab,nab->n", st.hess, st.hess), 0.0


@pytest.mark.parametrize("name", ["ball_solution", "ellipsoid_solution",
                                  "star_solution"])
def test_a_batched_panel_equals_one_call_per_node_column(
        monkeypatch, request, name):
    # a panel's 15 node columns in one field call give the integrals of one
    # call per column (a budget below one column) to roundoff: C1.2's
    # integral out to infinity and |D2u|^2 between two level sets
    sol = request.getfixturevalue(name)
    r_b, r_a = (extract_level_set(sol, c).radii for c in (0.75, 0.25))

    def volumes():
        return [exterior_volume(sol, flux_to_the_fourth_over_u),
                levelset._ray_volume(sol, hessian_squared, "hess", r_b, r_a,
                                     sol.order, 1.0)]

    batched = volumes()
    monkeypatch.setattr(levelset, "_PANEL_POINTS", 1)
    for (value, err), (ref, ref_err) in zip(batched, volumes()):
        assert abs(value - ref) <= 1e-15 * abs(ref)
        assert abs(err - ref_err) <= 1e-3 * ref_err


def test_ray_volume_memory_is_bounded_without_mirrors(monkeypatch):
    # the bench star off the origin has no mirror: at order 48 a panel's
    # 15 node columns hold 69,120 points, which _PANEL_POINTS splits into
    # one call per column; one call on all of them peaks at 32.9 MiB for
    # the identity's volume term, one column at a time at 4.3 MiB
    sol = solve_exterior(DomainSpec(kind="star", mean_radius=1.0,
                                    terms=BENCH_STAR.terms,
                                    center=(0.4, 0.2, 0.1)), order=48)
    assert sol.mirrors == () and len(levelset._rays(sol, 48)[0]) == 4608
    peaks = []
    ray_volume = levelset._ray_volume

    def traced(*args):
        tracemalloc.start()
        try:
            return ray_volume(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(identities, "_ray_volume", traced)
    monkeypatch.setattr(levelset, "_ray_volume", traced)
    weighted_identity_check(sol, WeightSpec.linear(), math.log(0.25),
                            math.log(0.75))
    exterior_volume(sol, flux_to_the_fourth_over_u)   # C1.2's at the order
    assert peaks[0] < 8 * 2 ** 20
    assert peaks[1] < 9 * 2 ** 20


def test_gauss_nodes_are_every_second_kronrod_node():
    x, w = leggauss(7)
    gauss = levelset._G7_WEIGHTS != 0
    assert_allclose(levelset._GK15_NODES[gauss], x, rtol=0, atol=1e-15)
    assert_allclose(levelset._G7_WEIGHTS[gauss], w, rtol=0, atol=1e-15)
    assert gauss.sum() == 7 and len(levelset._GK15_NODES) == 15


def test_kronrod_rule_is_exact_to_degree_22():
    x, w = levelset._GK15_NODES, levelset._K15_WEIGHTS
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(w @ x ** k - exact) <= 1e-14, k


def gauss_legendre_coarea(sol, integrand, c_min, c_max, levels=32):
    """int_{c_min < u < c_max} F dmu by the coarea formula, a 32-level
    Gauss-Legendre rule over int_{u=c} F/|Du| dsigma, where ``integrand``
    maps a LevelSet to F at its nodes: the reference the integrals along
    the rays must match."""
    x, w = leggauss(levels)
    half = 0.5 * (c_max - c_min)
    total = 0.0
    for xk, wk in zip(x, w):
        ls = extract_level_set(sol, 0.5 * (c_min + c_max) + half * xk)
        total += wk * float(ls.weights @ (integrand(ls) / ls.u_grad))
    return half * total


def hessian_density_on_level(sol, weight):
    """The identity's volume integrand on a level set of ``sol``, with the
    Hessian from the same field call that extraction makes."""
    density = identities._hessian_density(weight)
    return lambda ls: density(FieldStates(
        points=ls.nodes, u=np.full(len(ls.radii), ls.level), grad=ls.grad,
        hess=sol.field(ls.nodes, want="hess", check_region=False).hess))[0]


@pytest.mark.parametrize("name", ["ball_solution", "ellipsoid_solution",
                                  "star_solution"])
def test_kronrod_coarea_matches_32_gauss_levels(spy, request, name):
    # C1.2's int_0^1 Phi and the weighted identity's volume term along the
    # rays, each against the 32-level coarea rule: they agree to 1e-12
    # relative (up to roundoff of the identity's scale, where the volume
    # term is roundoff itself) and within the returned error
    sol = fresh(request.getfixturevalue(name))
    returned = spy("_ray_volume", criteria)
    report = check_C12(sol)
    phi_integral, err = returned[0].result     # at the order; then order + 8
    assert report.witnesses["phiIntegral"] == phi_integral
    ref = gauss_legendre_coarea(sol, lambda ls: ls.u_grad ** 4 / ls.level,
                                0.0, sol.c)
    assert abs(phi_integral - ref) <= 1e-12 * abs(ref)
    assert err >= abs(phi_integral - ref)

    a, b = math.log(0.25), math.log(0.75)
    res = weighted_identity_check(sol, WeightSpec.linear(), a, b)
    ref = 2.0 * gauss_legendre_coarea(
        sol, hessian_density_on_level(sol, WeightSpec.linear()),
        math.exp(a), math.exp(b))
    assert abs(res.lhs - ref) <= 1e-12 * abs(ref) + 1e-15 * res.scale
    assert res.quadrature_error >= abs(res.lhs - ref)


# ---------------------------------------------------------------------------
# interior level sets
# ---------------------------------------------------------------------------

def test_interior_level_extraction():
    sol = solve_interior(DomainSpec(kind="sphere", radius=1.0), c=1.0, d=1.0)
    ls = extract_level_set(sol, 4.0)   # u = 1/r: radius 0.25
    assert np.abs(ls.radii - 0.25).max() < 1e-10
    cap = surface_integral(ls, ls.u_grad)
    assert abs(cap - 4.0 * math.pi) / (4 * math.pi) < 1e-9

