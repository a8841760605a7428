import math

import numpy as np
import pytest
from scipy import integrate

from polyharm import meshes
from polyharm.errors import (DegenerateSimplex, NotSPD, PointOffComplex)
from polyharm.riemannian import (PiecewiseMetric,
                                 ellipticity_constant, gradient_inner,
                                 intrinsic_distance, point_on, simplex_rule,
                                 simplex_volume, vertex_address)
from polyharm.simplicial import build_complex

RNG = np.random.default_rng(20240811)


def random_spd(m, rng=RNG):
    a = rng.standard_normal((m, m))
    return a @ a.T + 0.3 * np.eye(m)


# -- ellipticity ---------------------------------------------------------

def test_ellipticity_identity():
    assert ellipticity_constant(np.eye(3)) == 1.0


def test_ellipticity_diag_4_quarter():
    assert ellipticity_constant(np.diag([4.0, 0.25])) == 2.0


def test_ellipticity_matches_norm_oracle():
    # oracle: operator norms via SVD, independent of the eigh route
    for _ in range(100):
        g = random_spd(3)
        lam = ellipticity_constant(g)
        oracle = max(math.sqrt(np.linalg.norm(g, 2)),
                     math.sqrt(np.linalg.norm(np.linalg.inv(g), 2)))
        assert abs(lam - oracle) < 1e-12
        # two-sided bound tightness
        ev = np.linalg.eigvalsh(g)
        assert lam ** 2 >= ev[-1] - 1e-12
        assert lam ** -2 <= ev[0] + 1e-12


def test_ellipticity_rejects_non_spd():
    with pytest.raises(NotSPD):
        ellipticity_constant(np.diag([1.0, -2.0]))
    with pytest.raises(NotSPD):
        ellipticity_constant(np.array([[1.0, 5.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_entries_are_refused(bad):
    c, _ = meshes.two_triangles_shared_edge()
    g = np.array([[bad, 0.0], [0.0, 1.0]])
    message = "metric has a non-finite entry"
    with pytest.raises(NotSPD, match=message):
        ellipticity_constant(g)
    with pytest.raises(NotSPD, match=message) as err:
        PiecewiseMetric.from_arrays(c, [np.eye(2), g])
    assert err.value.index == 1
    with pytest.raises(NotSPD, match=message):
        PiecewiseMetric.from_evaluators(c, [lambda xi: np.eye(2),
                                            lambda xi: g])
    # finite at the barycenter, infinite elsewhere
    m = PiecewiseMetric.from_evaluators(
        c, [lambda xi: np.eye(2), lambda xi: g if xi[0] > 0.5 else np.eye(2)])
    with pytest.raises(NotSPD, match=message):
        m.at(1, (0.75, 0.0))


# -- volumes --------------------------------------------------------------

def test_unit_right_triangle_volume():
    c, m = meshes.unit_right_triangle()
    assert simplex_volume(c, m, 0) == pytest.approx(0.5, abs=1e-15)


def test_scaled_metric_volume():
    c, _ = meshes.unit_right_triangle()
    m = PiecewiseMetric.from_arrays(c, [np.diag([4.0, 4.0])])
    assert simplex_volume(c, m, 0) == pytest.approx(2.0, rel=1e-14)


def test_smooth_metric_volume_against_adaptive_quadrature():
    # metric (1 + x^2) I on the unit right triangle; embedding chart is the
    # identity so reference coordinates are (x, y)
    c, _ = meshes.unit_right_triangle()
    m = PiecewiseMetric.from_evaluators(
        c, [lambda xi: (1.0 + xi[0] ** 2) * np.eye(2)], quadrature_order=12)
    got = simplex_volume(c, m, 0)
    oracle, err = integrate.dblquad(
        lambda y, x: 1.0 + x * x, 0.0, 1.0, 0.0, lambda x: 1.0 - x,
        epsabs=1e-12, epsrel=1e-12)
    assert abs(got - oracle) / oracle < 1e-8


def test_volume_scaling_power():
    c, m = meshes.two_triangles_shared_edge()
    c_fac = 2.3
    scaled = m.scaled(c_fac ** 2)
    for i in range(2):
        v0 = simplex_volume(c, m, i)
        v1 = simplex_volume(c, scaled, i)
        assert v1 == pytest.approx(c_fac ** 2 * v0, rel=1e-13)


def test_quadrature_rules_integrate_polynomials():
    # Duffy tensor rule must integrate low-degree monomials exactly
    pts, wts = simplex_rule(2, 6)
    assert wts.sum() == pytest.approx(0.5, rel=1e-14)
    got = np.sum(wts * pts[:, 0] ** 2 * pts[:, 1])
    # integral of x^2 y over the unit triangle = 1/60
    assert got == pytest.approx(1.0 / 60.0, rel=1e-12)
    pts, wts = simplex_rule(2, 2)
    got = np.sum(wts * pts[:, 0] * pts[:, 1])
    assert got == pytest.approx(1.0 / 24.0, rel=1e-13)  # midpoint rule, degree 2


# -- gradient pairings ----------------------------------------------------

def test_gradient_inner_examples():
    c, _ = meshes.unit_right_triangle()
    ident = PiecewiseMetric.euclidean(c)
    assert gradient_inner(ident, 0, (1, 0), (1, 0)) == 1.0
    diag = PiecewiseMetric.from_arrays(c, [np.diag([3.0, 7.0])])
    assert gradient_inner(diag, 0, (1, 0), (0, 1)) == 0.0
    m = PiecewiseMetric.from_arrays(c, [np.diag([4.0, 0.25])])
    assert gradient_inner(m, 0, (1, 1), (1, 1)) == pytest.approx(4.25, rel=1e-14)


def test_gradient_inner_bilinear_symmetric_positive():
    c, _ = meshes.unit_right_triangle()
    g = random_spd(2)
    m = PiecewiseMetric.from_arrays(c, [g])
    du, dv, dw = RNG.standard_normal((3, 2))
    a, b = 1.7, -0.4
    lhs = gradient_inner(m, 0, a * du + b * dv, dw)
    rhs = a * gradient_inner(m, 0, du, dw) + b * gradient_inner(m, 0, dv, dw)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert gradient_inner(m, 0, du, dv) == pytest.approx(
        gradient_inner(m, 0, dv, du), rel=1e-12)
    assert gradient_inner(m, 0, du, du) > 0


# -- metric structure ------------------------------------------------------

def test_ellipticity_bounds_stored_per_simplex():
    c, _ = meshes.two_triangles_shared_edge()
    g0, g1 = random_spd(2), random_spd(2)
    m = PiecewiseMetric.from_arrays(c, [g0, g1])
    assert m.ellipticity[0] == pytest.approx(ellipticity_constant(g0))
    assert m.global_ellipticity == max(m.ellipticity)


def test_face_continuity_flag():
    c, m = meshes.two_triangles_shared_edge()
    assert m.continuity_flag  # induced metric always matches across faces
    broken = PiecewiseMetric.from_arrays(
        c, [m.stack[0], 4.0 * m.stack[1]])
    assert not broken.continuity_flag


def test_torus_metric_continuous_across_wraps():
    _, m = meshes.flat_torus(3)
    assert m.continuity_flag


def test_from_embedding_rejects_degenerate():
    c = build_complex([(0, 0), (1, 0), (2, 0), (0, 1)], [(0, 1, 3), (0, 1, 2)])
    with pytest.raises(DegenerateSimplex):
        PiecewiseMetric.from_embedding(c)


# -- intrinsic distance -----------------------------------------------------

def test_unit_square_diagonal():
    c, m = meshes.two_triangles_shared_edge()
    prev = None
    for level in range(5):
        est = intrinsic_distance(c, m, vertex_address(c, 0),
                                 vertex_address(c, 3), level)
        if prev is not None:
            assert est.upper_bound <= prev + 1e-15
        prev = est.upper_bound
    assert abs(prev - math.sqrt(2.0)) < 2e-2


def test_distance_same_point_exactly_zero():
    c, m = meshes.two_triangles_shared_edge()
    x = point_on(c, 0, (0.2, 0.5, 0.3))
    assert intrinsic_distance(c, m, x, x, 3).upper_bound == 0.0


def test_distance_planar_unfolding_oracle():
    # two planar triangles over a shared edge: the unfolded straight line
    # is the true geodesic when it crosses the shared edge
    c = build_complex([(0, 0), (1, 0), (0, 1), (1.3, 1.2)],
                      [(0, 1, 2), (1, 2, 3)])
    m = PiecewiseMetric.from_embedding(c)
    oracle = math.hypot(1.3, 1.2)
    est = intrinsic_distance(c, m, vertex_address(c, 0),
                             vertex_address(c, 3), 4)
    assert est.upper_bound >= oracle - 1e-12
    assert est.upper_bound - oracle < 2e-2


def test_distance_metric_scaling_exact():
    c, m = meshes.two_triangles_shared_edge()
    factor = 3.7
    base = intrinsic_distance(c, m, vertex_address(c, 0),
                              vertex_address(c, 3), 3)
    scaled = intrinsic_distance(c, m.scaled(factor ** 2),
                                vertex_address(c, 0), vertex_address(c, 3), 3)
    assert abs(scaled.upper_bound - factor * base.upper_bound) \
        <= 1e-12 * factor * base.upper_bound


def test_distance_symmetry_and_triangle_inequality():
    c, m = meshes.unit_square_mesh(2)
    pts = [vertex_address(c, 0), point_on(c, 3, (0.3, 0.3, 0.4)),
           vertex_address(c, 8)]
    d = {}
    for i in range(3):
        for j in range(3):
            if i != j:
                d[i, j] = intrinsic_distance(c, m, pts[i], pts[j], 3).upper_bound
    tol = 5e-3  # refinement tolerance
    for i, j in d:
        assert abs(d[i, j] - d[j, i]) < 1e-12
    assert d[0, 2] <= d[0, 1] + d[1, 2] + tol


def test_point_off_complex_errors():
    c, m = meshes.unit_right_triangle()
    with pytest.raises(PointOffComplex):
        point_on(c, 5, (1, 0, 0))
    with pytest.raises(PointOffComplex):
        point_on(c, 0, (0.5, 0.6, 0.2))
    with pytest.raises(PointOffComplex):
        point_on(c, 0, (-0.1, 0.6, 0.5))
