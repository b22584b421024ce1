import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsym import (DomainSpec, HarmonicSolution, IrregularLevelSetError,
                    capacity, check_C12, check_C13, check_C17, check_neumann,
                    check_pointwise, check_T11, check_T16, check_T19,
                    decay_report, extract_level_set, inferred_ball_radius,
                    interior_flux_cubed_limit, levelset, normalization_c1,
                    normalization_c2, p_function_spread, run_battery,
                    solve_exterior, solve_interior, surface_integral,
                    symmetry_certificate)
from capsym import criteria
from capsym.criteria import select_criteria


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def test_capacity_unit_ball(ball_solution):
    cap = capacity(ball_solution)
    assert abs(cap - 4 * math.pi) / (4 * math.pi) < 1e-6


def test_capacity_scales_with_radius():
    sol = solve_exterior(DomainSpec(kind="sphere", radius=2.0))
    cap = capacity(sol)
    assert abs(cap - 8 * math.pi) / (8 * math.pi) < 1e-6


def test_capacity_ellipsoid_bounds_and_closed_form(ellipsoid_solution):
    # monotonicity bounds from the inscribed/circumscribed balls, plus the
    # exact prolate value 4 pi sqrt(a^2-b^2) / log((a+sqrt(a^2-b^2))/b)
    cap = capacity(ellipsoid_solution)
    assert 4 * math.pi < cap < 8 * math.pi
    f = math.sqrt(3.0)
    exact = 4 * math.pi * f / math.log(2.0 + f)
    assert abs(cap - exact) / exact < 1e-8


def test_capacity_fails_when_a_charge_sits_between_boundary_and_level(
        ball_solution):
    # a charge outside the ball but inside {u = 1/2} adds its own flux to
    # that level and none to the boundary's
    sol = dataclasses.replace(
        ball_solution,
        sources=np.vstack([ball_solution.sources, [0.0, 0.0, 1.5]]),
        charges=np.append(ball_solution.charges, 0.01))
    with pytest.raises(IrregularLevelSetError,
                       match="between level set 0.5 and the boundary"):
        capacity(sol)


def test_inferred_radius(ball_solution):
    cap = capacity(ball_solution)
    assert abs(inferred_ball_radius(cap) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# exterior criteria on the ball: the equality suite
# ---------------------------------------------------------------------------

def test_T11_ball_equality(ball_solution):
    for c in (0.3, 0.7, 1.0):
        rep = check_T11(ball_solution, c)
        assert rep.verdict == "satisfied"
        assert rep.witnesses["equality"]
        assert abs(rep.lhs) < 1e-6


@pytest.mark.parametrize("degree", [0, 2])
def test_angular_tail_of_a_resolved_integrand_is_roundoff(ball_solution,
                                                          degree):
    # z^degree on the ball's level set is resolved far below order 16, so
    # its tail is the roundoff of the weights, whose radii are solved to
    # about 1e-14 r
    ls = extract_level_set(ball_solution, 0.5)
    values = (ls.nodes[:, 2] / ls.radii) ** degree
    size = surface_integral(ls, np.abs(values))
    assert criteria._angular_tail(ls, values, 16) <= criteria._PLATEAU * size


@pytest.mark.parametrize("values", [
    lambda x, y, z: np.real((x + 1j * y) ** 13),   # ring mode m = 13
    lambda x, y, z: np.polynomial.legendre.legval(z, [0] * 14 + [1])],
    ids=["fourier-13", "legendre-14"])
def test_angular_tail_near_the_order_is_off_the_plateau(ball_solution,
                                                        values):
    # a degree 12 .. 16 term is in the tail read at order 16, and each part
    # of the tail sees its own kind of term
    ls = extract_level_set(ball_solution, 0.5)
    f = values(*(ls.nodes / ls.radii[:, None]).T)
    size = surface_integral(ls, np.abs(f))
    assert criteria._angular_tail(ls, f, 16) > 1e-3 * size


# domain, solution order and the orders at which T1.1 reads its levels
T11_TAIL_CASES = {
    "ball": (DomainSpec(kind="sphere", radius=1.0), None, (16,)),
    "bench-star": (DomainSpec(kind="star", mean_radius=1.0,
                              terms=((2, 0, 0.1), (3, 1, 0.05))),
                   48, (24, 32, 40)),
    "star-4-2": (DomainSpec(kind="star", mean_radius=1.0,
                            terms=((4, -3, 0.1), (2, 1, -0.08))),
                 48, (32, 40)),
    "ellipsoid": (DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)), None,
                  (24, 32)),
}
# the (level, order) pairs whose angular tail is off its roundoff plateau,
# so that T1.1 extracts the level again at order + 8
T11_REFINED = {
    "ball": [],
    "bench-star": [(0.9, 24), (0.9, 32), (0.9, 40)],
    "star-4-2": [(0.9, 32), (0.9, 40)],
    "ellipsoid": [(0.25, 24), (0.5, 24), (0.5, 32), (0.9, 24), (0.9, 32)],
}


@pytest.mark.parametrize("name", list(T11_TAIL_CASES))
def test_T11_tail_covers_the_angular_error_where_it_skips_order_plus_8(
        spy, name):
    # where T1.1 takes its angular tail as its error, without the order + 8
    # pass, the tail is at least |I(n) - I(64)|
    domain, order, orders = T11_TAIL_CASES[name]
    sol = solve_exterior(domain, order=order)
    refined = []
    tails = spy("_angular_tail", criteria)
    solved = spy("_extract", levelset)
    exact = {}
    for level in (0.25, 0.5, 0.9):
        ref = extract_level_set(sol, level, order=64)
        exact[level] = surface_integral(ref, ref.u_grad ** 2
                                        * criteria._equality_gap(ref))
    for n in orders:
        # the solution read at order n, its levels sharing one scan
        at_n = dataclasses.replace(sol, order=n)
        for level in (0.25, 0.5, 0.9):
            solved.clear()
            rep = check_T11(at_n, level)
            if (level, n + 8) in [call.args[1:] for call in solved]:
                refined.append((level, n))
            else:
                assert tails[-1].result >= abs(rep.lhs - exact[level]), \
                    (level, n)
    assert sorted(refined) == T11_REFINED[name]


def test_C12_ball_is_equality_case(ball_solution):
    # the radial solution achieves the equality value 2(n-1)/(n-2) = 4
    rep = check_C12(ball_solution)
    assert rep.rhs == 4.0
    assert abs(rep.lhs - 4.0) < 1e-4
    assert rep.verdict == "satisfied"
    assert rep.witnesses["equality"]


def test_C12_solves_no_level_set(ball_solution):
    # the volume integral runs along the rays from the boundary, and the top
    # level {u = c} is the boundary, so C1.2 solves no level set at all
    sol = HarmonicSolution.from_json_dict(ball_solution.to_json_dict())
    check_C12(sol)
    assert not [key for key in sol._levelset_cache if isinstance(key, tuple)]


@pytest.mark.parametrize("name", ["ball_solution", "ellipsoid_solution",
                                  "star_solution"])
def test_C12_phi_top_matches_the_boundary_level_set(request, name):
    # Phi(c) from the boundary quadrature against Phi(c) on the solved
    # level set {u = c}
    sol = request.getfixturevalue(name)
    top = extract_level_set(sol, sol.c)
    phi_top = surface_integral(top, top.u_grad ** 3 / sol.c)
    assert_allclose(check_C12(sol).witnesses["phiTop"], phi_top, rtol=1e-12)


def test_C12_near_ball(ball_solution):
    sol = solve_exterior(DomainSpec(kind="ellipsoid", axes=(1.05, 1.0, 1.0)))
    rep = check_C12(sol)
    assert abs(rep.lhs - 4.0) / 4.0 < 0.05


def test_C13_ball_equality(ball_solution):
    rep = check_C13(ball_solution)
    assert_allclose(rep.lhs, 4 * math.pi, rtol=1e-6)
    assert_allclose(rep.rhs, 4 * math.pi, rtol=1e-6)
    assert rep.verdict == "satisfied" and rep.witnesses["equality"]


def test_C13_verdict_scale_invariant(ellipsoid_solution):
    base = check_C13(ellipsoid_solution)
    for lam in (0.5, 2.0):
        sol = solve_exterior(DomainSpec(kind="ellipsoid",
                                        axes=(2 * lam, lam, lam)))
        rep = check_C13(sol)
        assert rep.verdict == base.verdict
        # both sides scale by lambda^(n-2)
        assert_allclose(rep.lhs / base.lhs, lam, rtol=1e-6)
        assert_allclose(rep.rhs / base.rhs, lam, rtol=1e-6)


@pytest.mark.parametrize("spec", [
    DomainSpec(kind="sphere", radius=1.0),
    DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)),
], ids=["ball", "ellipsoid"])
def test_exterior_criteria_independent_of_boundary_value(spec):
    # u = 1 on the boundary in the paper; scaling u must change no verdict,
    # no equality flag, no C1.2 ratio and no capacity
    def run(c):
        sol = solve_exterior(spec, c=c)
        rows = {r.criterion_id: r for r in run_battery(sol)}
        return rows, capacity(sol)

    base, base_cap = run(1.0)
    for c in (0.5, 2.0):
        rows, cap = run(c)
        assert rows.keys() == base.keys()
        for cid, rep in rows.items():
            assert rep.verdict == base[cid].verdict, cid
            assert rep.witnesses["equality"] == base[cid].witnesses["equality"]
        assert_allclose(rows["C1.2-global"].lhs, base["C1.2-global"].lhs,
                        rtol=1e-12)
        assert_allclose(cap, base_cap, rtol=1e-12)
        assert_allclose(inferred_ball_radius(cap),
                        inferred_ball_radius(base_cap), rtol=1e-12)


def test_T11_error_floor_scales_with_u():
    # a 1e-5 perturbation of the ball puts T1.1's lhs (about 2e-12) under
    # the solver error floor; at 4u the lhs is 16 times larger, and the
    # floor must grow with it for the equality flag to stay
    sol = solve_exterior(DomainSpec(kind="star", mean_radius=1.0,
                                    terms=((2, 0, 1e-5),)))
    base = check_T11(sol, 0.5)
    assert base.verdict == "satisfied" and base.witnesses["equality"]
    rep = check_T11(dataclasses.replace(sol, c=4.0, charges=4.0 * sol.charges),
                    2.0)
    assert_allclose(rep.lhs, 16.0 * base.lhs, rtol=1e-12)
    assert rep.verdict == "satisfied" and rep.witnesses["equality"]


def test_C14_ball_equality(ball_solution):
    rep = check_pointwise(ball_solution, 0.5)
    assert rep.verdict == "satisfied" and rep.witnesses["equality"]
    assert abs(rep.lhs) < 1e-8


def test_T15_ball_neumann(ball_solution):
    rep = check_neumann(ball_solution, c=1.0)
    assert rep.verdict == "satisfied"
    assert rep.witnesses["gradientSpread"] < 1e-8
    # |Du| = (n-2) r0^{n-2} r^{1-n} = 1 on the boundary
    assert abs(rep.witnesses["neumannConstant"] - 1.0) < 1e-8
    assert abs(rep.witnesses["marginInfVsMin"]) < 1e-8


def test_T19_ball_equality(ball_solution):
    rep = check_T19(ball_solution, 0.3, 0.7)
    assert rep.verdict == "satisfied" and rep.witnesses["equality"]
    assert abs(rep.witnesses["minGapA"]) < 1e-8
    assert abs(rep.witnesses["maxGapB"]) < 1e-8


def test_T19_ordering_error(ball_solution):
    with pytest.raises(ValueError):
        check_T19(ball_solution, 0.7, 0.3)


# ---------------------------------------------------------------------------
# exterior criteria on the ellipsoid: non-rigidity witnesses
# ---------------------------------------------------------------------------

def test_T11_ellipsoid_recorded(ellipsoid_solution):
    rep = check_T11(ellipsoid_solution, 1.0)
    # a non-ball with a regular boundary level cannot sit at equality;
    # the computed sign is recorded in the report
    assert rep.verdict in ("satisfied", "violated")
    assert not rep.witnesses["equality"]
    far = check_T11(ellipsoid_solution, 0.05)
    assert abs(far.lhs) < abs(rep.lhs)


def test_C14_ellipsoid_violated_at_boundary(ellipsoid_solution):
    rep = check_pointwise(ellipsoid_solution, 1.0)
    assert rep.verdict == "violated"
    assert rep.lhs > 1e-3   # worst-node gap


def test_T15_ellipsoid_hypothesis_fails(ellipsoid_solution):
    rep = check_neumann(ellipsoid_solution, c=1.0)
    assert rep.verdict == "hypothesis-not-met"
    assert rep.witnesses["gradientSpread"] > 1e-3


# ---------------------------------------------------------------------------
# interior criteria
# ---------------------------------------------------------------------------

def test_T16_ball_equality(ball_interior):
    rep = check_T16(ball_interior)
    assert rep.verdict == "satisfied" and rep.witnesses["equality"]
    assert abs(rep.lhs - 1.0) < 1e-8 and abs(rep.rhs - 1.0) < 1e-8
    assert abs(rep.witnesses["c1"] - 1.0) < 1e-8
    assert abs(rep.witnesses["c2"] - 1.0) < 1e-8
    assert abs(rep.witnesses["fluxRatio"] - 1.0) < 1e-6


def test_C17_ball_equality(ball_interior):
    rep = check_C17(ball_interior)
    assert rep.verdict == "satisfied" and rep.witnesses["equality"]
    assert abs(rep.lhs - 1.0) < 1e-8


def test_T18_ball_neumann(ball_interior):
    rep = check_neumann(ball_interior)
    assert rep.verdict == "satisfied"
    assert rep.witnesses["gradientSpread"] < 1e-8
    # sup H/(n-1) = 1 = (|S^2|/|dOmega|)^(1/2)
    assert abs(rep.lhs - 1.0) < 1e-10 and abs(rep.rhs - 1.0) < 1e-8


def test_T18_verdict_scale_invariant(ball_interior):
    base = check_neumann(ball_interior)
    for lam in (0.5, 2.0):
        sol = solve_interior(DomainSpec(kind="sphere", radius=lam),
                             c=1.0 / lam, d=1.0)
        rep = check_neumann(sol)
        assert rep.verdict == base.verdict
        assert_allclose(rep.lhs * lam, base.lhs, rtol=1e-8)


def test_interior_ellipsoid_hypothesis_fails(ellipsoid_interior):
    rep = check_neumann(ellipsoid_interior)
    assert rep.verdict == "hypothesis-not-met"
    assert rep.witnesses["gradientSpread"] > 1e-3


def test_T16_ellipsoid_recorded(ellipsoid_interior):
    rep = check_T16(ellipsoid_interior)
    assert rep.verdict in ("satisfied", "violated")
    assert abs(rep.witnesses["fluxRatio"] - 1.0) < 1e-6


def test_c1_closed_form_matches_moment_form(ellipsoid_interior):
    # (independent route) c1 = 1/(n-2) (|dOmega|/|S^2|)^(1/2)
    #   (avg |Du|^3)^(1/4) / (avg |Du|)^(-1/4)  at n = 3
    from capsym.geometry import build_quadrature, unit_sphere_area
    quad = build_quadrature(ellipsoid_interior.domain, ellipsoid_interior.order)
    gn = ellipsoid_interior.field(quad.nodes, want="grad",
                                  check_region=False).grad_norm
    m1 = surface_integral(quad, gn) / quad.area
    m3 = surface_integral(quad, gn ** 3) / quad.area
    expected = ((quad.area / unit_sphere_area(3)) ** 0.5
                * m3 ** 0.25 * m1 ** 0.25)
    # the two routes differ only through the measured-flux vs exact-d gap
    assert_allclose(normalization_c1(ellipsoid_interior), expected, rtol=1e-7)


def test_c2_ball_radius_two():
    sol = solve_interior(DomainSpec(kind="sphere", radius=2.0), c=2.0, d=1.0)
    # c2 = d r0/(n-2)
    assert abs(normalization_c2(sol) - 2.0) < 1e-9


# ---------------------------------------------------------------------------
# symmetry certificate
# ---------------------------------------------------------------------------

def test_certificate_granted_on_ball(ball_solution):
    cert = symmetry_certificate(ball_solution)
    assert cert.granted
    assert cert.p_function_spread < 1e-5
    assert cert.equality_residual < 1e-6
    assert abs(cert.inferred_radius - 1.0) < 1e-6


def test_certificate_denied_on_ellipsoid(ellipsoid_solution):
    cert = symmetry_certificate(ellipsoid_solution)
    assert not cert.granted
    assert cert.failing_metric == "pFunctionSpread"
    assert cert.p_function_spread > 1e-2


def test_certificate_near_ball_spread_is_small():
    sol = solve_exterior(DomainSpec(kind="ellipsoid", axes=(1.0001, 1.0, 1.0)))
    cert = symmetry_certificate(sol)
    assert not cert.granted
    assert cert.p_function_spread < 5e-3


def test_p_function_spread_values(ball_solution, ellipsoid_solution):
    assert p_function_spread(ball_solution) < 1e-6
    assert p_function_spread(ellipsoid_solution) > 1e-2


# ---------------------------------------------------------------------------
# consistency and the battery
# ---------------------------------------------------------------------------

def test_pointwise_implies_integral(ball_solution):
    # C1.4 holding pointwise makes the T1.1 integrand nonpositive, so the
    # integral condition must hold as well
    c = 0.5
    pw = check_pointwise(ball_solution, c)
    integ = check_T11(ball_solution, c)
    assert pw.verdict == "satisfied"
    assert integ.verdict == "satisfied"
    assert integ.lhs <= pw.lhs * 4 * math.pi * 1.1 + 1e-12


@pytest.fixture(scope="module")
def ball_at_c_2():
    return solve_exterior(DomainSpec(kind="sphere", radius=1.0), c=2.0)


# criterion -> (the scale of its value that the solver floor multiplies,
# its own fixed floor), each read from its report r and boundary value c
ERROR_RULES = {
    "T1.1-integral": (lambda r, c: c ** 2, lambda r: 0.0),
    "C1.2-global": (lambda r, c: 1.0, lambda r: 0.0),
    "C1.3-capacity": (lambda r, c: 4 * abs(r.rhs), lambda r: 1e-9 * abs(r.rhs)),
    "C1.4-pointwise": (lambda r, c: 1.0, lambda r: 1e-10 * (abs(r.lhs) + 1)),
    "T1.5-neumann": (lambda r, c: 1.0, lambda r: 1e-10),
    "T1.6-interior-integral": (lambda r, c: 1.0, lambda r: 1e-9 * abs(r.lhs)),
    "C1.7-interior-pointwise": (lambda r, c: 1.0, lambda r: 1e-9 * abs(r.lhs)),
    "T1.8-interior-neumann": (lambda r, c: 1.0, lambda r: 1e-10),
    "T1.9-two-boundary": (lambda r, c: 1.0, lambda r: 1e-10),
}


@pytest.mark.parametrize("name", ["ball_solution", "ellipsoid_solution",
                                  "ball_interior", "ellipsoid_interior",
                                  "ball_at_c_2"])
def test_error_estimate_covers_the_solver_floor_and_its_own(request, name):
    # a fit of 1e-6 puts every error bar at least at 50 fit times the scale
    # of its value, and no bar below the check's own floor
    sol = request.getfixturevalue(name)
    fit = 1e-6
    reports = run_battery(dataclasses.replace(sol, fit_residual=fit))
    assert len(reports) == len(select_criteria(sol.problem))
    for r in reports:
        scale, own = ERROR_RULES[r.criterion_id]
        assert r.error_estimate >= 50 * fit * scale(r, sol.c), r.criterion_id
        assert r.error_estimate >= own(r), r.criterion_id


@pytest.mark.parametrize("name, check", [
    ("ball_solution", lambda sol: check_pointwise(sol, 0.5)),
    ("ball_interior", check_C17)], ids=["C1.4", "C1.7"])
def test_node_witness_of_a_ball_is_its_first_node(request, name, check):
    # every node of a ball ties up to roundoff, and the witness is the
    # lowest index within the error estimate of the extreme
    report = check(request.getfixturevalue(name))
    assert report.witnesses["worstNode"] == 0


def test_battery_rejects_incompatible_criteria(ball_solution, ball_interior):
    with pytest.raises(ValueError):
        run_battery(ball_solution, criteria=["T1.6-interior-integral"])
    with pytest.raises(ValueError):
        run_battery(ball_interior, criteria=["C1.2-global"])
    with pytest.raises(ValueError):
        run_battery(ball_solution, criteria=["bogus"])


@pytest.mark.parametrize("check, wrong_kind, named", [
    (lambda sol: check_T11(sol, 2.0), "ball_interior",
     "T1.1-integral is incompatible with the interior problem"),
    (check_C12, "ball_interior",
     "C1.2-global is incompatible with the interior problem"),
    (check_C13, "ball_interior",
     "C1.3-capacity is incompatible with the interior problem"),
    (lambda sol: check_pointwise(sol, 2.0), "ball_interior",
     "C1.4-pointwise is incompatible with the interior problem"),
    (check_C17, "ball_solution",
     "C1.7-interior-pointwise is incompatible with the exterior problem"),
    (check_T16, "ball_solution",
     "T1.6-interior-integral is incompatible with the exterior problem"),
    (capacity, "ball_interior", "capacity is defined for the exterior"),
    (lambda sol: decay_report(sol, [4.0, 8.0, 16.0, 32.0]), "ball_interior",
     "decay fits are defined for exterior solutions"),
    (normalization_c1, "ball_solution", "c1 is defined for the interior"),
    (normalization_c2, "ball_solution", "c2 is defined for the interior"),
    (interior_flux_cubed_limit, "ball_solution",
     "the flux-cubed limit applies to interior solutions"),
], ids=["T1.1", "C1.2", "C1.3", "C1.4", "C1.7", "T1.6", "capacity", "decay",
        "c1", "c2", "flux-cubed-limit"])
def test_checks_reject_the_wrong_problem_kind(request, check, wrong_kind,
                                              named):
    with pytest.raises(ValueError, match=named):
        check(request.getfixturevalue(wrong_kind))


def test_battery_embeds_named_errors_and_propagates_bugs(ball_solution,
                                                        monkeypatch):
    import capsym.criteria as crit

    def invalid(sol):
        raise IrregularLevelSetError("level set is not regular")

    monkeypatch.setattr(crit, "check_C13", invalid)
    [row] = run_battery(ball_solution, criteria=["C1.3-capacity"])
    assert row == {"criterionId": "C1.3-capacity",
                   "error": "IrregularLevelSetError: level set is not regular"}

    def broken(sol):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(crit, "check_C13", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_battery(ball_solution, criteria=["C1.3-capacity"])

    # a ValueError is a bug too (a shape mismatch, a failed internal
    # guard), not a finding about the domain
    def misshapen(sol):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(crit, "check_C13", misshapen)
    with pytest.raises(ValueError, match="could not be broadcast"):
        run_battery(ball_solution, criteria=["C1.3-capacity"])


def test_interior_battery_builds_boundary_data_once(ball_interior, spy):
    # the boundary is one read-only LevelSet, from one build_quadrature
    # call and one field call per solution, at one node per mirror orbit
    sol = HarmonicSolution.from_json_dict(ball_interior.to_json_dict())
    builds = spy("build_quadrature", levelset)
    fields = spy("field", HarmonicSolution)

    def boundary_fields():
        nodes = [call.result.nodes for call in builds]
        return [call for call in fields
                if any((call.arg("points")[:, None] == n).all(axis=2)
                       .any(axis=1).all() for n in nodes)]

    run_battery(sol)
    assert (len(builds), len(boundary_fields())) == (1, 1)
    run_battery(sol)
    assert (len(builds), len(boundary_fields())) == (1, 1)
    boundary = levelset._boundary(sol)
    assert isinstance(boundary, levelset.LevelSet)
    assert (boundary.nodes is builds[0].result.nodes
            and boundary.level == sol.c)
    for key in ("nodes", "weights", "normals", "mean_curv", "u_grad", "radii",
                "grad"):
        assert not getattr(boundary, key).flags.writeable


def test_battery_runs_to_completion(ball_interior):
    reports = run_battery(ball_interior)
    ids = {r.criterion_id if hasattr(r, "criterion_id") else r["criterionId"]
           for r in reports}
    assert ids == {"T1.6-interior-integral", "C1.7-interior-pointwise",
                   "T1.8-interior-neumann", "T1.9-two-boundary"}
    for r in reports:
        assert hasattr(r, "verdict")
        assert r.verdict == "satisfied"
