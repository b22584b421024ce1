import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

from capsym import (DomainSpec, InvalidDomainError, build_quadrature,
                    surface_integral, unit_sphere_area)
from numpy.polynomial.legendre import leggauss

from capsym import geometry
from capsym.geometry import (DEFAULT_MAX_DEGREE, angular_grid, gauss_legendre,
                             real_sph_harm, unit_directions)
from radial_oracle import RadialGeometry, radial_solution


def prolate_spheroid_area(a, b):
    # closed form for semi-axes (a, b, b) with a > b
    e = math.sqrt(1.0 - b * b / (a * a))
    return 2.0 * math.pi * b * b * (1.0 + (a / (b * e)) * math.asin(e))


def star_spec():
    return DomainSpec(kind="star", mean_radius=1.0,
                      terms=((2, 2, 0.12), (3, -1, 0.08), (1, 0, 0.05)))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def test_gauss_rule_is_numpys_built_once_and_read_only():
    for n in range(1, 65):
        rule = gauss_legendre(n)
        assert gauss_legendre(n) is rule
        for got, ref in zip(rule, leggauss(n)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), n
            with pytest.raises(ValueError):
                got[0] = 0.0


@pytest.mark.parametrize("spec", [
    DomainSpec(kind="sphere", radius=1.5, center=(0.2, 0.0, 0.1)),
    DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)), star_spec()],
    ids=["sphere", "ellipsoid", "star"])
def test_bounding_radii_are_built_once_per_domain(spec, spy):
    th, ph, _ = angular_grid(32)
    d = np.linalg.norm(np.asarray(spec.center)
                       + spec.rho(th, ph)[:, None] * unit_directions(th, ph),
                       axis=1)
    calls = spy("angular_grid", geometry)
    assert spec.bounding_radii == (float(d.min()), float(d.max()))
    assert spec.bounding_radii is spec.bounding_radii
    assert [call.args for call in calls] == [(32,)]


def test_sphere_area_is_exact():
    quad = build_quadrature(DomainSpec(kind="sphere", radius=1.0), order=16)
    assert abs(quad.area - 4.0 * math.pi) < 1e-10


def test_sphere_mean_curvature_is_two_over_r():
    quad = build_quadrature(DomainSpec(kind="sphere", radius=2.0), order=16)
    assert_allclose(quad.mean_curv, 1.0, rtol=0, atol=1e-13)


def test_normals_are_unit_and_outward():
    for spec in (DomainSpec(kind="ellipsoid", axes=(2, 1, 1)), star_spec()):
        quad = build_quadrature(spec, order=16)
        assert np.abs(np.linalg.norm(quad.normals, axis=1) - 1).max() < 1e-14
        outward = np.einsum("ns,ns->n", quad.normals,
                            quad.nodes - np.asarray(spec.center))
        assert outward.min() > 0


def test_ellipsoid_area_matches_closed_form():
    spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
    quad = build_quadrature(spec, order=32)
    exact = prolate_spheroid_area(2.0, 1.0)
    assert abs(quad.area - exact) / exact < 1e-8


def test_quadrature_error_decays_monotonically():
    spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
    exact = prolate_spheroid_area(2.0, 1.0)
    errs = [abs(build_quadrature(spec, order=o).area - exact)
            for o in (8, 16, 24, 32)]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))


def test_ellipsoid_curvature_matches_implicit_formula():
    # div(DF/|DF|) for F = sum x_i^2/a_i^2 - 1, an independent route to H
    axes = np.array([2.0, 1.0, 1.0])
    quad = build_quadrature(DomainSpec(kind="ellipsoid", axes=tuple(axes)),
                            order=16)
    DF = 2.0 * quad.nodes / axes ** 2
    nDF = np.linalg.norm(DF, axis=1)
    lap = float(np.sum(2.0 / axes ** 2))
    quad_term = np.sum((2.0 / axes ** 2) * DF ** 2, axis=1) / nDF ** 2
    h_implicit = (lap - quad_term) / nDF
    assert_allclose(quad.mean_curv, h_implicit, rtol=1e-12)


def test_star_surface_area_converges():
    spec = star_spec()
    areas = [build_quadrature(spec, order=o).area for o in (12, 16, 24)]
    assert abs(areas[-1] - areas[-2]) < 1e-10
    assert abs(areas[0] - areas[-1]) < 1e-6


def test_spherical_harmonics_are_orthonormal():
    th, ph, w = angular_grid(16)
    pairs = [(0, 0), (1, 0), (2, 1), (3, -2), (4, 4)]
    for i, (l1, m1) in enumerate(pairs):
        y1 = real_sph_harm(l1, m1, th, ph)[0]
        for (l2, m2) in pairs[i:]:
            y2 = real_sph_harm(l2, m2, th, ph)[0]
            expected = 1.0 if (l1, m1) == (l2, m2) else 0.0
            assert abs(float(np.sum(w * y1 * y2)) - expected) < 1e-12


def scipy_real_sph_harm(l, m, theta, phi):
    """Values and the five derivatives of the real basis from scipy."""
    sph_harm_y = pytest.importorskip("scipy.special").sph_harm_y
    y, jac, hess = sph_harm_y(l, abs(m), theta, phi, diff_n=2)
    part = np.real if m >= 0 else np.imag
    scale = 1.0 if m == 0 else math.sqrt(2.0)
    return [scale * part(z) for z in (y, jac[..., 0], jac[..., 1],
                                      hess[..., 0, 0], hess[..., 0, 1],
                                      hess[..., 1, 1])]


def test_real_sph_harm_matches_scipy_with_derivatives():
    rng = np.random.default_rng(3)
    theta = np.concatenate([rng.uniform(0.0, math.pi, 300),
                            [0.0, math.pi, 1e-9, math.pi - 1e-9]])
    phi = rng.uniform(0.0, 2.0 * math.pi, len(theta))
    for l in range(DEFAULT_MAX_DEGREE + 1):
        for m in range(-l, l + 1):
            ours = real_sph_harm(l, m, theta, phi)
            ref = scipy_real_sph_harm(l, m, theta, phi)
            for a, b in zip(ours, ref):
                largest = max(np.abs(b).max(), 1.0)
                assert np.abs(a - b).max() <= 1e-13 * largest, (l, m)


def test_real_sph_harm_sign_convention():
    # Condon-Shortley phase: the real Y_1^1 is -sqrt(3/4pi) sin(t) cos(p)
    theta = np.array([0.0, 0.4, 1.3, 2.9, math.pi])
    phi = np.array([0.1, 2.0, 4.0, 5.5, 0.7])
    st, ct = np.sin(theta), np.cos(theta)
    closed = {
        (1, 1): -math.sqrt(3 / (4 * math.pi)) * st * np.cos(phi),
        (1, -1): -math.sqrt(3 / (4 * math.pi)) * st * np.sin(phi),
        (1, 0): math.sqrt(3 / (4 * math.pi)) * ct,
        (2, 0): math.sqrt(5 / (16 * math.pi)) * (3 * ct ** 2 - 1),
        (2, 2): math.sqrt(15 / (16 * math.pi)) * st ** 2 * np.cos(2 * phi),
        (2, -2): math.sqrt(15 / (16 * math.pi)) * st ** 2 * np.sin(2 * phi),
    }
    for (l, m), expected in closed.items():
        assert_allclose(real_sph_harm(l, m, theta, phi)[0], expected,
                        rtol=0, atol=1e-15)
    # d_theta of Y_1^1 is -sqrt(3/4pi) cos(t) cos(p), exact at the poles
    d_t = real_sph_harm(1, 1, theta, phi)[1]
    assert_allclose(d_t, -math.sqrt(3 / (4 * math.pi)) * ct * np.cos(phi),
                    rtol=0, atol=1e-15)


def test_quadrature_integrates_harmonics_exactly():
    # weights on the unit sphere reproduce orthogonality up to the grid degree
    quad = build_quadrature(DomainSpec(kind="sphere", radius=1.0), order=12)
    theta, phi, _ = angular_grid(12)
    y = real_sph_harm(7, 3, theta, phi)[0]
    assert abs(surface_integral(quad, y)) < 1e-12
    assert abs(surface_integral(quad, y * y) - 1.0) < 1e-12


def test_min_order_enforced():
    with pytest.raises(InvalidDomainError):
        build_quadrature(DomainSpec(kind="sphere", radius=1.0), order=4)


# ---------------------------------------------------------------------------
# domain validation and JSON schema
# ---------------------------------------------------------------------------

def test_invalid_domains_rejected():
    with pytest.raises(InvalidDomainError):
        DomainSpec(kind="sphere", radius=-1.0)
    with pytest.raises(InvalidDomainError):
        DomainSpec(kind="ellipsoid", axes=(1.0, 0.0, 1.0))
    with pytest.raises(InvalidDomainError):
        DomainSpec(kind="banana", radius=1.0)
    # degree guard
    with pytest.raises(InvalidDomainError):
        DomainSpec(kind="star", mean_radius=1.0, terms=((9, 0, 0.01),))
    DomainSpec(kind="star", mean_radius=1.0, terms=((9, 0, 0.01),),
               max_degree=12)
    # radial graph collapse
    with pytest.raises(InvalidDomainError):
        DomainSpec(kind="star", mean_radius=1.0, terms=((2, 0, 3.5),))
    # origin must be interior
    with pytest.raises(InvalidDomainError):
        DomainSpec(kind="sphere", radius=1.0, center=(2.0, 0.0, 0.0))


STAR_TERMS = ((2, 0, 0.1), (3, 1, 0.05))


@pytest.mark.parametrize("fields, inside", [
    ({"kind": "sphere", "radius": 1.0, "center": (1.0, 0.0, 0.0)}, False),
    ({"kind": "sphere", "radius": 1.0, "center": (0.999, 0.0, 0.0)}, True),
    ({"kind": "star", "mean_radius": 1.0, "terms": STAR_TERMS,
      "center": (0.3, -0.2, 0.1)}, True),
    ({"kind": "star", "mean_radius": 1.0, "terms": STAR_TERMS,
      "center": (0.0, 0.0, 1.5)}, False),
    ({"kind": "ellipsoid", "axes": (2.0, 1.0, 1.0),
      "center": (1.5, 0.0, 0.0)}, True),
    ({"kind": "ellipsoid", "axes": (2.0, 1.0, 1.0),
      "center": (0.0, 1.5, 0.0)}, False),
], ids=["sphere-origin-on-boundary", "sphere-origin-near-boundary",
        "star-off-centre", "star-origin-outside", "ellipsoid-off-centre",
        "ellipsoid-origin-outside"])
def test_origin_must_lie_strictly_inside(fields, inside):
    if inside:
        assert DomainSpec(**fields).contains(np.zeros(3))[0]
    else:
        with pytest.raises(InvalidDomainError,
                           match="origin must lie inside the domain"):
            DomainSpec(**fields)


@pytest.mark.parametrize("fields, named", [
    ({"kind": "sphere", "radius": math.inf}, "'radius' in domain"),
    ({"kind": "sphere", "radius": math.nan}, "'radius' in domain"),
    ({"kind": "ellipsoid", "axes": (2.0, math.inf, 1.0)}, "'axes' in domain"),
    ({"kind": "star", "mean_radius": math.inf}, "'mean_radius' in domain"),
    ({"kind": "star", "mean_radius": 1.0, "terms": ((2, 0, math.inf),)},
     "'terms' in domain"),
    ({"kind": "sphere", "radius": 1.0, "center": (math.inf, 0.0, 0.0)},
     "'center' in domain"),
], ids=["radius-inf", "radius-nan", "axis-inf", "mean-radius-inf",
        "coefficient-inf", "center-inf"])
def test_non_finite_domain_numbers_rejected(fields, named):
    with pytest.raises(InvalidDomainError, match=f"{named} must be finite"):
        DomainSpec(**fields)


@pytest.mark.parametrize("fields, named", [
    ({"terms": ((2.7, 0, 0.1),)}, "'terms' in domain"),
    ({"terms": ((2, 0.5, 0.1),)}, "'terms' in domain"),
    ({"terms": ((2, 0, 0.1),), "max_degree": 8.9}, "'max_degree' in domain"),
    ({"terms": ((True, 0, 0.1),)}, "'terms' in domain"),
], ids=["l-fraction", "m-fraction", "max-degree-fraction", "l-bool"])
def test_star_indices_must_be_whole_numbers(fields, named):
    # a fraction is named, not truncated to the integer below it
    with pytest.raises(InvalidDomainError, match=f"{named} has the wrong JSON type"):
        DomainSpec(kind="star", mean_radius=1.0, **fields)


@pytest.mark.parametrize("data, named", [
    ({"kind": "star", "mean_radius": 1.0, "terms": [[2, 0, 0.1]],
      "max_degre": 2}, "unknown key 'max_degre' in domain"),
    ({"kind": "sphere", "radius": 1.0, "centre": [0.1, 0.0, 0.0]},
     "unknown key 'centre' in domain"),
    ({"kind": "sphere", "radius": 1.0, "axes": [2.0, 1.0, 1.0]},
     "unknown key 'axes' in domain"),
    ({"kind": "sphere", "radius": "2.0"},
     "'radius' in domain has the wrong JSON type"),
    ({"kind": "sphere", "radius": True},
     "'radius' in domain has the wrong JSON type"),
    ({"kind": "sphere", "radius": 1.0, "center": "000"},
     "'center' in domain has the wrong JSON type"),
    ({"kind": "ellipsoid", "axes": ["2", 1, 1]},
     "'axes' in domain has the wrong JSON type"),
    ({"kind": "star", "mean_radius": 1.0, "terms": [[2, 0, True]]},
     "'terms' in domain has the wrong JSON type"),
    # a domain built in Python is named in the same wording
    (partial(DomainSpec, kind="sphere", radius="2.0"),
     "'radius' in domain has the wrong JSON type: \"2.0\""),
    (partial(DomainSpec, kind="sphere", radius=np.array([2.0])),
     "'radius' in domain has the wrong JSON type: \"array"),
    # and cannot carry the fields of another kind
    (partial(DomainSpec, kind="sphere", radius=1.0, axes=(3.0, 2.0, 1.0),
             terms=((2, 0, 0.1),)),
     "unknown key 'axes' in domain"),
    (partial(DomainSpec, kind="sphere", radius=1.0, max_degree=12),
     "unknown key 'max_degree' in domain"),
    (partial(DomainSpec, kind="ellipsoid", axes=(2.0, 1.0, 1.0), radius=2.0),
     "unknown key 'radius' in domain"),
], ids=["max-degree-misspelt", "centre", "sphere-axes", "radius-string",
        "radius-bool", "center-string", "axis-string", "coefficient-bool",
        "python-radius-string", "python-radius-array", "python-sphere-axes",
        "python-sphere-max-degree", "python-ellipsoid-radius"])
def test_domain_reader_names_unknown_keys_and_non_numbers(data, named):
    # a misspelt key cannot leave a default in place, and a number must be
    # a JSON number; a callable row builds its domain in Python
    with pytest.raises(InvalidDomainError, match=named):
        data() if callable(data) else DomainSpec.from_json_dict(data)


def test_star_indices_accept_whole_floats():
    star = DomainSpec(kind="star", mean_radius=1.0, terms=((2.0, 0.0, 0.1),),
                      max_degree=8.0)
    assert star.terms == ((2, 0, 0.1),) and star.max_degree == 8
    assert all(type(i) is int for i in (*star.terms[0][:2], star.max_degree))


def test_star_rho_is_the_value_of_rho_derivatives():
    # rho sums the same terms in the same order as rho_derivatives
    star = DomainSpec(kind="star", mean_radius=1.0,
                      terms=((2, 0, 0.1), (3, 1, 0.05)))
    th, ph, _ = angular_grid(48)
    direct = 1.0 + 0.1 * real_sph_harm(2, 0, th, ph)[0] \
        + 0.05 * real_sph_harm(3, 1, th, ph)[0]
    assert np.array_equal(star.rho(th, ph), direct)


def test_domain_json_round_trip():
    specs = [
        DomainSpec(kind="sphere", radius=1.5, center=(0.1, 0.0, 0.0)),
        DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0)),
        star_spec(),
    ]
    for spec in specs:
        again = DomainSpec.from_json_dict(spec.to_json_dict())
        assert again == spec


def test_ray_exit_radius():
    spec = DomainSpec(kind="ellipsoid", axes=(2.0, 1.0, 1.0))
    assert_allclose(spec.ray_exit_radius(np.array([1.0, 0, 0])), 2.0)
    assert_allclose(spec.ray_exit_radius(np.array([0, 1.0, 0])), 1.0)
    off = DomainSpec(kind="sphere", radius=1.0, center=(0.3, 0.0, 0.0))
    assert_allclose(off.ray_exit_radius(np.array([1.0, 0, 0])), 1.3)
    assert_allclose(off.ray_exit_radius(np.array([-1.0, 0, 0])), 0.7)
    star = star_spec()
    om = unit_directions(np.array([1.1]), np.array([0.7]))[0]
    r = star.ray_exit_radius(om)
    th = math.acos(om[2] / 1.0)
    assert abs(r - float(star.rho(np.array([th]), np.array([0.7]))[0])) < 1e-10


def bisection_exit_radius(spec, omega, steps=80):
    """Exit radius by plain bisection on |r omega - c| - rho."""
    c = np.asarray(spec.center)
    lo = np.zeros(len(omega))
    hi = np.full(len(omega), 4.0 * (spec.mean_radius + np.linalg.norm(c)
                                    + sum(abs(t[2]) for t in spec.terms)))
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        p = mid[:, None] * omega - c
        d = np.linalg.norm(p, axis=1)
        th = np.arccos(np.clip(p[:, 2] / d, -1, 1))
        out = d > spec.rho(th, np.arctan2(p[:, 1], p[:, 0]))
        hi = np.where(out, mid, hi)
        lo = np.where(out, lo, mid)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("terms, center, max_calls", [
    (((2, 0, 0.1), (3, 1, 0.05)), (0.0, 0.0, 0.0), 2),      # the bench star
    (star_spec().terms, (0.2, -0.1, 0.15), 8),
    (star_spec().terms, (0.0, 0.0, 0.3), 8)], ids=["bench", "off", "axis"])
def test_star_ray_exit_matches_bisection(monkeypatch, spy, terms, center,
                                         max_calls):
    spec = DomainSpec(kind="star", mean_radius=1.0, terms=terms, center=center)
    rho, derivatives = (spy(name, DomainSpec)
                        for name in ("rho", "rho_derivatives"))
    th, ph, _ = angular_grid(16)
    omega = np.vstack([unit_directions(th, ph),
                       [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]]])
    r = spec.ray_exit_radius(omega)
    # with the center at the origin one Newton step is exact, and a second
    # evaluation confirms it
    assert len(rho + derivatives) <= max_calls
    monkeypatch.undo()
    assert np.abs(r / bisection_exit_radius(spec, omega) - 1).max() <= 1e-14


def test_star_rho_matches_rho_derivatives():
    spec = DomainSpec(kind="star", mean_radius=1.0,
                      terms=((1, 0, 0.05), (2, 2, 0.12), (3, -1, 0.08),
                             (4, 3, -0.03), (5, 0, 0.02)))
    theta, phi, _ = angular_grid(24)
    rho = spec.rho(theta, phi)
    assert rho.shape == theta.shape
    assert np.array_equal(rho, spec.rho_derivatives(theta, phi)[0])


# ---------------------------------------------------------------------------
# radial closed forms
# ---------------------------------------------------------------------------

def test_unit_sphere_area_values():
    assert_allclose(unit_sphere_area(3), 4.0 * math.pi, rtol=1e-15)
    assert_allclose(unit_sphere_area(4), 2.0 * math.pi ** 2, rtol=1e-15)


def test_exterior_radial_values():
    # u = (r0/r)^(n-2); at n=3, r0=1, r=2: u = 1/2 and |Du| = 1/4 by hand
    geom = RadialGeometry(n=3, r0=1.0)
    vals = radial_solution(geom, "exterior", 2.0)
    assert_allclose(vals.u, 0.5, rtol=1e-15)
    assert_allclose(vals.du_magnitude, 0.25, rtol=1e-15)
    # boundary value
    assert_allclose(radial_solution(geom, "exterior", 1.0).u, 1.0, rtol=0)


def test_interior_radial_neumann_value():
    # gradient magnitude at the boundary equals the flux density d
    geom = RadialGeometry(n=3, r0=1.0)
    vals = radial_solution(geom, "interior", 1.0, d=1.0)
    assert_allclose(vals.du_magnitude, 1.0, rtol=1e-14)
    geom5 = RadialGeometry(n=5, r0=2.0)
    vals5 = radial_solution(geom5, "interior", 2.0, d=3.0)
    assert_allclose(vals5.du_magnitude, 3.0, rtol=1e-14)


def test_radial_solution_is_harmonic_by_finite_differences():
    h = 1e-4
    for n in (3, 4, 5):
        geom = RadialGeometry(n=n, r0=1.0)
        for problem, r in (("exterior", 1.7), ("interior", 0.6)):
            u = lambda rr: radial_solution(geom, problem, rr).u
            # radial Laplacian: u'' + (n-1)/r u'
            d2 = (u(r + h) - 2 * u(r) + u(r - h)) / h ** 2
            d1 = (u(r + h) - u(r - h)) / (2 * h)
            # FD truncation grows with the derivative scale for n > 3
            tol = 1e-6 if n == 3 else 1e-6 * max(1.0, abs(d2))
            assert abs(d2 + (n - 1) / r * d1) < tol


def test_radial_out_of_range_errors():
    geom = RadialGeometry(n=3, r0=1.0)
    with pytest.raises(ValueError):
        radial_solution(geom, "exterior", 0.5)
    with pytest.raises(ValueError):
        radial_solution(geom, "interior", 1.5)
    with pytest.raises(ValueError):
        radial_solution(geom, "interior", 0.0)


def test_capacity_closed_form_any_dimension():
    # Cap = (n-2) |S^{n-1}| r0^(n-2), the boundary flux of the exterior potential
    for n in (3, 4, 6):
        geom = RadialGeometry(n=n, r0=1.3)
        flux = (radial_solution(geom, "exterior", 1.3).du_magnitude
                * geom.boundary_area)
        assert_allclose(flux, geom.capacity, rtol=1e-13)
