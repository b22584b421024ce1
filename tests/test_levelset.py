import collections
import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from capsym import (DomainSpec, HarmonicSolution, IrregularLevelSetError,
                    LevelRangeError, NonStarShapedLevelSetError,
                    RadialGeometry, WeightSpec, angular_grid, check_C12,
                    coarea_volume_integral, criteria, extract_level_set,
                    extract_level_sets, identities, levelset,
                    radial_solution, solve_exterior, solve_interior,
                    surface_integral, unit_directions,
                    weighted_identity_check)

BENCH_STAR = DomainSpec(kind="star", mean_radius=1.0,
                        terms=((2, 0, 0.1), (3, 1, 0.05)))


@pytest.fixture(scope="module")
def ball_solution():
    return solve_exterior(DomainSpec(kind="sphere", radius=1.0))


@pytest.fixture(scope="module")
def ellipsoid_solution():
    return solve_exterior(DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)))


@pytest.fixture(scope="module")
def star_solution():
    return solve_exterior(BENCH_STAR)


@pytest.fixture(scope="module")
def interior_ball():
    return solve_interior(DomainSpec(kind="sphere", radius=1.0), c=1.0, d=1.0)


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


def count_field_calls(monkeypatch):
    """Count HarmonicSolution.field calls by ``want`` from now on."""
    calls = collections.Counter()
    field = HarmonicSolution.field

    def counted(self, points, want="hess", check_region=True):
        calls[want] += 1
        return field(self, points, want=want, check_region=check_region)

    monkeypatch.setattr(HarmonicSolution, "field", counted)
    return calls


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
    bottom = 0.5 + 0.25 * levelset._GK15_NODES[0]   # lowest coarea level
    for extract, level in [
            (lambda: extract_level_set(sol, 0.5), 0.5),
            (lambda: extract_level_sets(sol, [0.75, 0.5]), 0.5),
            (lambda: coarea_volume_integral(sol, lambda ls: ls.u_grad,
                                            0.25, 0.75), bottom)]:
        with pytest.raises(IrregularLevelSetError,
                           match="fails the regularity threshold") as info:
            extract()
        assert info.value.level == level
    assert not any(isinstance(v, levelset.LevelSet)
                   for v in sol._levelset_cache.values())
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
        extract_level_sets(ball_solution, [0.25, 0.5, 1.5])


def test_non_star_shaped_level_reported():
    # a charge beyond the boundary makes u rise and fall along the +x ray,
    # so {u = 3} is pierced twice; the extractor must report, not guess
    spec = DomainSpec(kind="sphere", radius=0.5)
    sol = HarmonicSolution(
        problem="exterior", c=6.0, d=None, domain=spec,
        sources=np.array([[0.9, 0.0, 0.0]]),
        charges=np.array([1.0]), singular_coefficient=0.0,
        fit_residual=0.0, boundary_area=math.pi, order=12,
        condition_estimate=1.0)
    with pytest.raises(NonStarShapedLevelSetError):
        extract_level_set(sol, 3.0)
    # the +x ray crosses both levels twice; the shared scan sees it too
    with pytest.raises(NonStarShapedLevelSetError):
        extract_level_sets(sol, [3.0, 4.0])


# ---------------------------------------------------------------------------
# shared scan, safeguarded Newton and the per-solution cache
# ---------------------------------------------------------------------------

AGREEMENT_CASES = [("ball_solution", (1.0, 0.5, 0.002)),
                   ("ellipsoid_solution", (1.0 - 1e-9, 0.8, 0.1)),
                   ("star_solution", (0.9, 0.5, 0.05)),
                   ("interior_ball", (1.0, 1.5, 4.0))]


@pytest.mark.parametrize("name,levels", AGREEMENT_CASES)
def test_agrees_with_reference_extractor(request, name, levels):
    sol = fresh(request.getfixturevalue(name))
    batch = extract_level_sets(sol, levels)
    for c, ls_batch in zip(levels, batch):
        ls = extract_level_set(sol, c)
        ref = reference_radii(sol, c)
        assert np.abs(ls.radii - ref).max() <= 1e-12 * ref.max()
        u = sol.field(ls.nodes, want="u", check_region=False).u
        assert np.abs(u - c).max() <= 1e-12 * c
        # derivatives come from Hessians whose roundoff on the star is
        # ~3e-14, so they get a looser bound than the radii and weights
        for key, tol in (("radii", 1e-13), ("weights", 1e-13),
                         ("u_grad", 1e-12), ("mean_curv", 1e-12)):
            single, shared = getattr(ls, key), getattr(ls_batch, key)
            assert np.abs(single - shared).max() <= tol * np.abs(single).max()


def test_batch_keeps_order_and_duplicates(ball_solution):
    sol = fresh(ball_solution)
    sets = extract_level_sets(sol, [0.5, 0.25, 0.5])
    assert [ls.level for ls in sets] == [0.5, 0.25, 0.5]
    assert np.array_equal(sets[0].radii, sets[2].radii)
    assert extract_level_sets(sol, []) == []


def test_repeat_extraction_is_cached_and_read_only(ball_solution):
    sol = fresh(ball_solution)
    ls = extract_level_set(sol, 0.42)
    assert extract_level_set(sol, np.float64(0.42)) is ls
    assert extract_level_set(sol, 0.42, order=sol.order + 8) is not ls
    with pytest.raises(ValueError):
        ls.radii[0] = 1.0
    for key in ("nodes", "weights", "normals", "u_grad", "mean_curv", "theta",
                "phi", "grad", "hess"):
        assert not getattr(ls, key).flags.writeable
    # batches reuse cached level sets but do not add theirs
    shared = extract_level_sets(sol, [0.42, 0.3])
    assert shared[0] is ls
    assert extract_level_set(sol, 0.3) is not shared[1]


def test_rays_computed_once_per_order(monkeypatch, star_solution):
    sol = fresh(star_solution)
    calls = []
    ray_exit = DomainSpec.ray_exit_radius

    def counted(self, omega):
        calls.append(len(omega))
        return ray_exit(self, omega)

    monkeypatch.setattr(DomainSpec, "ray_exit_radius", counted)
    extract_level_set(sol, 0.5, order=16)
    extract_level_set(sol, 0.7, order=16)
    assert len(calls) == 1


def test_batch_scans_once(monkeypatch, ball_solution, ellipsoid_solution):
    levels = [0.9, 0.6, 0.3, 0.1, 0.05]
    for sol in (ball_solution, ellipsoid_solution):
        calls = count_field_calls(monkeypatch)
        extract_level_sets(fresh(sol), [0.05])
        lowest_alone = calls["u"]
        calls.clear()
        extract_level_sets(fresh(sol), levels)
        assert calls["u"] == lowest_alone
        assert calls["hess"] == len(levels)


@pytest.mark.parametrize("name", ["ball_solution", "ellipsoid_solution",
                                  "star_solution"])
@pytest.mark.parametrize("c", [0.5, 0.002])
def test_newton_gradient_calls_per_level(monkeypatch, request, name, c):
    sol = fresh(request.getfixturevalue(name))
    calls = count_field_calls(monkeypatch)
    extract_level_set(sol, c)
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
    with pytest.raises(IrregularLevelSetError) as info:
        extract_level_set(fresh(ellipsoid_solution), 0.8)
    assert info.value.level == 0.8


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

def test_coarea_of_flux_cubed_over_u(ball_solution):
    # int_0^1 Phi(c) dc = int |Du|^4/u dmu = pi for the unit ball, from
    # integrating the hand-composed 4 pi c^3
    val, err = coarea_volume_integral(
        ball_solution, lambda ls: ls.u_grad ** 4 / ls.level,
        c_min=0.0, c_max=1.0)
    assert abs(val - math.pi) / math.pi < 1e-6
    assert 0 < err < 1e-6 * math.pi


def test_coarea_ratio_is_equality_case(ball_solution):
    # Phi(1) / int_0^1 Phi = 4 = 2(n-1)/(n-2): the radial solution achieves
    # equality in the global coarea condition (see also the closed-form
    # check below for every n)
    ls = extract_level_set(ball_solution, 1.0)
    phi_top = surface_integral(ls, ls.u_grad ** 3 / 1.0)
    integral, _ = coarea_volume_integral(
        ball_solution, lambda ls: ls.u_grad ** 4 / ls.level,
        c_min=0.0, c_max=1.0)
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
    assert coarea_volume_integral(
        ball_solution, lambda ls: np.zeros(len(ls.weights)),
        c_min=0.2, c_max=0.8) == (0.0, 0.0)


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
    """The coarea sum of coarea_volume_integral with a 32-level
    Gauss-Legendre rule instead of G7/K15: the reference it must match."""
    x, w = leggauss(levels)
    half = 0.5 * (c_max - c_min)
    lss = extract_level_sets(sol, 0.5 * (c_min + c_max) + half * x)
    return half * sum(wk * float(ls.weights @ (integrand(ls) / ls.u_grad))
                      for wk, ls in zip(w, lss))


@pytest.mark.parametrize("name", ["ellipsoid_solution", "star_solution"])
def test_kronrod_coarea_matches_32_gauss_levels(monkeypatch, request, name):
    # C1.2's int_0^1 Phi and the weighted identity's volume term, each
    # against the 32-level rule; the returned error bounds the difference
    sol = request.getfixturevalue(name)
    returned = []

    def kept(*args):
        returned.append(coarea_volume_integral(*args))
        return returned[-1]

    monkeypatch.setattr(criteria, "coarea_volume_integral", kept)
    report = check_C12(sol)
    (phi_integral, err), = returned
    assert report.witnesses["phiIntegral"] == phi_integral
    ref = gauss_legendre_coarea(sol, lambda ls: ls.u_grad ** 4 / ls.level,
                                0.0, 1.0)
    assert abs(phi_integral - ref) <= 1e-12 * abs(ref)
    assert err >= abs(phi_integral - ref)

    a, b = math.log(0.25), math.log(0.75)
    res = weighted_identity_check(sol, WeightSpec.linear(), a, b)
    ref = 2.0 * gauss_legendre_coarea(
        sol, identities._hessian_density(WeightSpec.linear()),
        math.exp(a), math.exp(b))
    assert abs(res.lhs - ref) <= 1e-12 * abs(ref)
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


def test_csv_export(tmp_path, ball_solution):
    ls = extract_level_set(ball_solution, 0.5)
    path = tmp_path / "level.csv"
    ls.export_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].split(",")[:3] == ["theta", "phi", "radius"]
    assert len(rows) == len(ls.radii) + 1
    assert float(rows[1].split(",")[2]) == pytest.approx(2.0, abs=1e-9)
