import numpy as np
import pytest

from polyharm import meshes
from polyharm.energy import dirichlet_energy
from polyharm.errors import (MissingBoundaryValues, NonConvergence,
                             NotAdmissible, PolyharmError, UsageError)
from polyharm.harmonic import (SolveOptions, assemble_stiffness,
                               christoffel_load, discrete_maximum_principle,
                               solve_harmonic_function, solve_harmonic_map,
                               subharmonic_pullback_check,
                               weak_harmonic_residual)
from polyharm.maps import PLMap
from polyharm.riemannian import PiecewiseMetric
from polyharm.simplicial import build_complex
from polyharm.target import flat_target, fubini_study_cp1

RNG = np.random.default_rng(515)


def square_boundary_values(c, fn):
    return {v: fn(c.vertices[v]) for v in c.boundary_vertices()}


# -- assembly ------------------------------------------------------------------

def test_stiffness_matches_hand_fem_oracle():
    # unit right triangle with the euclidean metric: hand-computed local
    # stiffness (cotangent weights of a right isoceles triangle)
    c, m = meshes.unit_right_triangle()
    s = assemble_stiffness(c, m)
    oracle = 0.5 * np.array([[2.0, -1.0, -1.0],
                             [-1.0, 1.0, 0.0],
                             [-1.0, 0.0, 1.0]])
    assert np.abs(s.S.toarray() - oracle).max() < 1e-14


def test_conformal_invariance_in_2d():
    c, m = meshes.unit_square_mesh(2, jitter=0.2, seed=3)
    s0 = assemble_stiffness(c, m).S.toarray()
    s1 = assemble_stiffness(c, m.scaled(4.0)).S.toarray()
    assert np.abs(s0 - s1).max() < 1e-12


def test_row_sums_vanish():
    c, m = meshes.two_triangles_shared_edge()
    s = assemble_stiffness(c, m)
    assert np.abs(np.asarray(s.S.sum(axis=1))).max() < 1e-14


def test_assemble_refuses_non_admissible():
    c = meshes.two_triangles_shared_vertex()
    with pytest.raises(NotAdmissible):
        assemble_stiffness(c, PiecewiseMetric.from_embedding(c))


def test_masses_sum_to_volume():
    c, m = meshes.unit_square_mesh(3, jitter=0.1, seed=1)
    s = assemble_stiffness(c, m)
    from polyharm.riemannian import total_volume
    assert s.masses.sum() == pytest.approx(total_volume(c, m), rel=1e-12)


# -- scalar solves ---------------------------------------------------------------

def test_constant_boundary_data_stays_constant():
    c, m = meshes.unit_square_mesh(4)
    s = assemble_stiffness(c, m)
    sol = solve_harmonic_function(s, square_boundary_values(c, lambda p: 3.25))
    vals = sol.value_array(list(s.vertex_order))
    assert np.abs(vals - 3.25).max() < 1e-12


def test_affine_boundary_data_reproduced_exactly():
    c, m = meshes.distorted_square_mesh(8)
    s = assemble_stiffness(c, m)
    sol = solve_harmonic_function(
        s, square_boundary_values(c, lambda p: p[0] + 2.0 * p[1]))
    exact = np.array([c.vertices[v][0] + 2.0 * c.vertices[v][1]
                      for v in s.vertex_order])
    got = sol.value_array(list(s.vertex_order))[:, 0]
    assert np.abs(got - exact).max() < 1e-12
    res = weak_harmonic_residual(s, None, sol)
    assert res.inf <= 1e-10


def test_quadratic_harmonic_convergence_order():
    # oracle: the exact harmonic function x^2 - y^2; smoothly distorted
    # meshes (structured ones reproduce quadratics exactly)
    errs = []
    for k in (8, 16, 32):
        c, m = meshes.distorted_square_mesh(k)
        s = assemble_stiffness(c, m)
        sol = solve_harmonic_function(
            s, square_boundary_values(c, lambda p: p[0] ** 2 - p[1] ** 2))
        exact = np.array([c.vertices[v][0] ** 2 - c.vertices[v][1] ** 2
                          for v in s.vertex_order])
        errs.append(np.abs(sol.value_array(list(s.vertex_order))[:, 0]
                           - exact).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert min(orders) >= 1.9
    # C measured once and frozen: err <= C h^2 at h = 1/32
    assert errs[2] <= 1.5 * (1.0 / 32.0) ** 2


def test_missing_boundary_values():
    c, m = meshes.unit_square_mesh(2)
    s = assemble_stiffness(c, m)
    with pytest.raises(MissingBoundaryValues):
        solve_harmonic_function(s, {})
    some = square_boundary_values(c, lambda p: 0.0)
    some.pop(next(iter(some)))
    with pytest.raises(MissingBoundaryValues):
        solve_harmonic_function(s, some)


def test_closed_complex_mean_zero_gauge():
    c, m = meshes.flat_torus(3)
    s = assemble_stiffness(c, m)
    sol = solve_harmonic_function(s, {})
    assert np.abs(sol.value_array(list(s.vertex_order))).max() == 0.0


# -- residuals -------------------------------------------------------------------

def test_residual_is_half_energy_gradient():
    # d E / d u_p = 2 (S u)_p for E = integral |grad u|^2: central FD check
    c, m = meshes.unit_square_mesh(3, jitter=0.15, seed=8)
    s = assemble_stiffness(c, m)
    pm = PLMap(c, {v: RNG.standard_normal(2) for v in c.vertices})
    res = weak_harmonic_residual(s, None, pm)
    interior = [v for v in s.vertex_order if v not in s.boundary]
    h = 1e-6
    for v in interior[:6]:
        for comp in range(2):
            delta = np.zeros(2)
            delta[comp] = h
            ep = dirichlet_energy(c, m, pm.perturbed(v, delta)).total
            em = dirichlet_energy(c, m, pm.perturbed(v, -delta)).total
            fd_grad = (ep - em) / (2.0 * h)
            r = res.per_vertex[s.index[v], comp]
            assert abs(r - 0.5 * fd_grad) <= 1e-6 * max(1.0, abs(r))


def test_residual_grows_linearly_in_perturbation():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    sol = solve_harmonic_function(
        s, square_boundary_values(c, lambda p: p[0] ** 2 - p[1] ** 2))
    interior = [v for v in s.vertex_order if v not in s.boundary]
    v = interior[len(interior) // 2]
    norms = []
    for delta in (1e-3, 2e-3):
        pert = sol.perturbed(v, [delta])
        norms.append(weak_harmonic_residual(s, None, pert).inf)
    assert norms[1] / norms[0] == pytest.approx(2.0, rel=1e-6)


def test_energy_optimality_of_solution():
    c, m = meshes.unit_square_mesh(3, jitter=0.1, seed=4)
    s = assemble_stiffness(c, m)
    sol = solve_harmonic_function(
        s, square_boundary_values(c, lambda p: p[0] ** 3 - p[1]))
    base = dirichlet_energy(c, m, sol).total
    interior = [v for v in s.vertex_order if v not in s.boundary]
    rng = np.random.default_rng(12)
    for _ in range(100):
        v = interior[rng.integers(len(interior))]
        pert = sol.perturbed(v, rng.standard_normal(1) * 1e-2)
        assert dirichlet_energy(c, m, pert).total >= base - 1e-13


def test_discrete_maximum_principle_on_nonobtuse_mesh():
    c, m = meshes.unit_square_mesh(4)
    s = assemble_stiffness(c, m)
    ok, worst = discrete_maximum_principle(s)
    assert ok
    bv = square_boundary_values(c, lambda p: np.sin(3 * p[0]) + p[1])
    sol = solve_harmonic_function(s, bv)
    lo = min(v[0] for v in map(np.atleast_1d, bv.values()))
    hi = max(v[0] for v in map(np.atleast_1d, bv.values()))
    vals = sol.value_array(list(s.vertex_order))[:, 0]
    assert vals.min() >= lo - 1e-12 and vals.max() <= hi + 1e-12


def test_one_dimensional_complex_assembles():
    # a path of two edges, lengths 1 and 2: the harmonic function is
    # affine in arc length
    c = build_complex([(0.0,), (1.0,), (3.0,)], [(0, 1), (1, 2)])
    m = PiecewiseMetric.from_embedding(c)
    assert m.continuity_flag
    s = assemble_stiffness(c, m)
    assert np.array_equal(s.S.toarray(), [[1.0, -1.0, 0.0],
                                          [-1.0, 1.5, -0.5],
                                          [0.0, -0.5, 0.5]])
    sol = solve_harmonic_function(s, {0: 0.0, 2: 3.0})
    assert np.allclose(sol.value_array()[:, 0], [0.0, 1.0, 3.0])


def test_discrete_maximum_principle_on_obtuse_mesh():
    # a vertex near the opposite edge makes the angle there obtuse
    c = build_complex([(0, 0), (1, 0), (0.5, 0.1), (0.5, -1.0)],
                      [(0, 1, 2), (0, 1, 3)])
    s = assemble_stiffness(c, PiecewiseMetric.from_embedding(c))
    ok, worst = discrete_maximum_principle(s)
    dense = s.S.toarray()
    brute = max(max(dense[r, k] for k in range(len(dense)) if k != r)
                for r in range(len(dense)))
    assert not ok
    assert brute > 0.0 and worst == brute


def test_subharmonic_pullback_diagnostic():
    c, m = meshes.unit_square_mesh(4)
    s = assemble_stiffness(c, m)
    sol = solve_harmonic_function(
        s, square_boundary_values(
            c, lambda p: np.array([p[0] ** 2 - p[1] ** 2, 2 * p[0] * p[1]])))
    # |w|^2 is convex on the flat chart: pullback should be subharmonic
    frac, _ = subharmonic_pullback_check(
        s, sol, lambda w: -float(w @ w))  # -(convex) is superharmonic-ish
    frac2, _ = subharmonic_pullback_check(s, sol, lambda w: float(w @ w))
    assert frac2 == 1.0
    assert frac < 1.0


# -- harmonic maps into curved charts ---------------------------------------------

def test_flat_target_map_solve_equals_componentwise():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    bv = square_boundary_values(
        c, lambda p: np.array([p[0] - p[1], p[0] * p[1]]))
    via_map = solve_harmonic_map(s, flat_target(1), bv)
    via_fn = solve_harmonic_function(s, bv)
    assert np.abs(via_map.value_array() - via_fn.value_array()).max() < 1e-14


def test_constant_boundary_into_cp1_gives_constant():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    fs = fubini_study_cp1()
    bv = {v: np.array([0.3, -0.2]) for v in c.boundary_vertices()}
    sol = solve_harmonic_map(s, fs, bv)
    assert np.abs(sol.value_array() - np.array([0.3, -0.2])).max() < 1e-12
    assert weak_harmonic_residual(s, fs, sol).inf < 1e-12


def test_small_disk_boundary_into_cp1_converges():
    c, m = meshes.unit_square_mesh(6)
    s = assemble_stiffness(c, m)
    fs = fubini_study_cp1()

    def disk(p):
        t = 2.0 * np.pi * (p[0] + 2.0 * p[1])
        return 0.1 * np.array([np.cos(t), np.sin(t)])

    bv = square_boundary_values(c, disk)
    sol = solve_harmonic_map(s, fs, bv, SolveOptions(max_iter=50, tol=1e-8))
    res = weak_harmonic_residual(s, fs, sol)
    assert res.inf <= 1e-8
    # cross-check against energy descent: the nonlinear solution does not
    # exceed the energy of the flat harmonic extension it starts from
    flat_ext = solve_harmonic_function(s, bv)
    assert dirichlet_energy(c, m, sol, fs).total \
        <= dirichlet_energy(c, m, flat_ext, fs).total + 1e-12


def test_nonconvergence_carries_history():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    fs = fubini_study_cp1()
    bv = square_boundary_values(
        c, lambda p: 0.5 * np.array([np.cos(7 * p[0]), np.sin(5 * p[1])]))
    with pytest.raises(NonConvergence) as err:
        solve_harmonic_map(s, fs, bv, SolveOptions(max_iter=2, tol=1e-14))
    assert len(err.value.history) == 2


@pytest.mark.parametrize("max_iter", [0, -3])
def test_solve_options_refuse_an_empty_iteration_budget(max_iter):
    with pytest.raises(PolyharmError, match="max_iter must be at least 1"):
        SolveOptions(max_iter=max_iter)


@pytest.mark.parametrize("field,value", [
    ("damping", 0.0), ("damping", -0.5), ("damping", float("nan")),
    ("damping", 1.5), ("tol", -1.0), ("tol", 0.0), ("tol", float("nan")),
    ("tol", float("inf"))])
def test_solve_options_refuse_a_tolerance_or_damping_that_cannot_converge(
        field, value):
    # a zero, negative or NaN tol or damping used to run out the budget
    with pytest.raises(UsageError, match=f"{field} must be"):
        SolveOptions(**{field: value})


def test_full_damping_is_a_valid_option():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    bv = square_boundary_values(c, lambda p: 0.3 * np.array(
        [np.cos(2 * p[0]), np.sin(3 * p[1])]))
    sol = solve_harmonic_map(s, fubini_study_cp1(), bv,
                             SolveOptions(damping=1.0))
    assert weak_harmonic_residual(s, fubini_study_cp1(), sol).inf <= 1e-8


def test_christoffel_load_zero_for_flat():
    c, m = meshes.unit_square_mesh(2)
    s = assemble_stiffness(c, m)
    pm = PLMap(c, {v: RNG.standard_normal(2) for v in c.vertices})
    load = christoffel_load(s, flat_target(1), pm)
    assert np.count_nonzero(load) == 0


def test_image_left_chart_detected():
    from polyharm.errors import ImageLeftChart
    from polyharm.target import ChartedTarget
    # unit-disk chart: solutions wandering outside must be refused
    disk = ChartedTarget(
        n=1,
        metric=lambda p: np.eye(2),
        chart_contains=lambda p: float(np.hypot(*p)) < 1.0,
        name="disk")
    c, m = meshes.unit_square_mesh(2)
    s = assemble_stiffness(c, m)
    pm = PLMap(c, {v: np.array([3.0, 0.0]) for v in c.vertices})
    with pytest.raises(ImageLeftChart):
        christoffel_load(s, disk, pm)
    with pytest.raises(ImageLeftChart):
        weak_harmonic_residual(s, disk, pm)


def test_boundary_data_solves_share_the_interior_lu(monkeypatch):
    from polyharm import harmonic
    calls = []
    real_splu = harmonic.splu
    monkeypatch.setattr(harmonic, "splu",
                        lambda a: calls.append(a.shape) or real_splu(a))
    c, m = meshes.unit_square_mesh(4)
    s = assemble_stiffness(c, m)
    fs = fubini_study_cp1()
    bv = square_boundary_values(c, lambda p: 0.2 * np.array([p[0], p[1]]))
    for _ in range(2):
        weak_harmonic_residual(s, fs, solve_harmonic_map(s, fs, bv))
    solve_harmonic_function(s, bv)
    assert calls == [(9, 9)]


def test_pinned_interior_vertex_factors_the_free_block():
    c, m = meshes.unit_square_mesh(4)
    s = assemble_stiffness(c, m)
    inner = min(set(c.vertices) - c.boundary_vertices())
    bv = square_boundary_values(c, lambda p: np.array([p[0] ** 2, p[1]]))
    bv[inner] = np.array([5.0, -1.0])
    sol = solve_harmonic_function(s, bv)
    assert np.array_equal(sol.values[inner], [5.0, -1.0])
    free = np.array([v not in bv for v in s.vertex_order])
    r = s.S @ sol.value_array(s.vertex_order)
    assert np.abs(r[free]).max() < 1e-12
    assert s.__dict__.get("_interior_lu_cache") is None
