import numpy as np
import pytest

from polyharm import meshes
from polyharm.errors import (DimensionMismatch, NotACovering, NotHolomorphic)
from polyharm.examples import build_covering
from polyharm.harmonic import assemble_stiffness, solve_harmonic_function
from polyharm.maps import PLMap
from polyharm.morphism import (GradientSample, commutator_form_residual,
                               component_residual_consistency,
                               factorization_suite, hwc_implies_phwc_suite,
                               hwc_residual, phm_check, phwc_residual,
                               phwc_via_functions,
                               postcompose_preserves_phwc,
                               pullback_harmonicity_suite)
from polyharm.target import (HolomorphicMap, coordinate, flat_target,
                             holomorphic_family, i_product, identity_map,
                             polynomial, product)

RNG = np.random.default_rng(31)
FLAT1 = flat_target(1)
FLAT2 = flat_target(2)


def sample_of_complex_affine(c):
    """Sample of z = x + iy with identity metric; PHWC and HWC."""
    return GradientSample(np.eye(2), np.eye(2), [0j])


def sample_x_plus_2iy():
    return GradientSample(np.array([[1.0, 0.0], [0.0, 2.0]]),
                          np.eye(2), [0j])


# -- phwc ----------------------------------------------------------------------

def test_phwc_identity_zero():
    rep = phwc_residual([sample_of_complex_affine(None)])
    assert rep.inf == 0.0 and rep.verdict


def test_phwc_x_plus_2iy_is_three():
    rep = phwc_residual([sample_x_plus_2iy()])
    assert rep.raw[0] == pytest.approx(3.0)
    assert not rep.verdict


def test_phwc_antiholomorphic_zero():
    s = GradientSample(np.array([[1.0, 0.0], [0.0, -1.0]]), np.eye(2), [0j])
    assert phwc_residual([s]).inf == 0.0


def test_phwc_needs_samples_and_even_rows():
    with pytest.raises(DimensionMismatch):
        phwc_residual([])
    with pytest.raises(DimensionMismatch):
        GradientSample(np.ones((3, 2)), np.eye(2), [0j])


def test_phwc_scale_normalization_keeps_verdicts():
    s = sample_x_plus_2iy()
    big = GradientSample(1e6 * s.rows, s.metric, s.image)
    r1, r2 = phwc_residual([s]), phwc_residual([big])
    assert not r1.verdict and not r2.verdict
    good = sample_of_complex_affine(None)
    big_good = GradientSample(1e6 * good.rows, good.metric, good.image)
    assert phwc_residual([big_good]).verdict


def test_phwc_order_independent():
    # the residual scans all ordered pairs, so relabelling coordinates
    # cannot change it
    rows = RNG.standard_normal((4, 3))
    g = np.eye(3)
    s = GradientSample(rows, g, [0j, 0j])
    swapped = rows[[1, 0, 3, 2]]
    s2 = GradientSample(swapped, g, [0j, 0j])
    assert phwc_residual([s]).raw[0] == pytest.approx(
        phwc_residual([s2]).raw[0], rel=1e-12)


# -- hwc ------------------------------------------------------------------------

def test_hwc_conformal_scaling():
    c = 0.8 - 1.3j
    rows = np.array([[c.real, -c.imag], [c.imag, c.real]])
    rep = hwc_residual([GradientSample(rows, np.eye(2), [0j])], FLAT1)
    assert rep.inf < 1e-14
    assert rep.extras["dilation"][0] == pytest.approx(abs(c) ** 2)


def test_hwc_projection_from_3_complex():
    rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    rep = hwc_residual([GradientSample(rows, np.eye(3), [0j])], FLAT1)
    assert rep.inf < 1e-14
    assert rep.extras["dilation"][0] == pytest.approx(1.0)


def test_hwc_z_zero_into_c2_fails():
    rows = np.zeros((4, 2))
    rows[0] = [1, 0]
    rows[2] = [0, 1]
    rep = hwc_residual([GradientSample(rows, np.eye(2), [0j, 0j])], FLAT2)
    assert rep.extras["dilation"][0] == pytest.approx(0.5)
    assert rep.raw[0] == pytest.approx(0.5)


def test_dilation_nonnegative_on_hwc_samples():
    res = hwc_implies_phwc_suite(200, n=2, seed=7)
    assert res.passed


# -- equivalence suite ------------------------------------------------------------

def test_equivalence_suite_full():
    res = hwc_implies_phwc_suite(1000, n=3, seed=42)
    assert res.hwc_to_phwc_max < 1e-10
    assert res.n1_phwc_to_hwc_max < 1e-10
    assert res.n2_counterexample_hwc_residual > 0.1
    assert res.commutator_agreement
    assert res.passed


def test_commutator_matches_phwc_zero_sets():
    # holomorphic affine: both zero; x + 2iy: both positive, sandwiched
    s_good = sample_of_complex_affine(None)
    s_bad = sample_x_plus_2iy()
    good = commutator_form_residual([s_good], FLAT1)
    bad = commutator_form_residual([s_bad], FLAT1)
    assert good.inf == 0.0
    p = phwc_residual([s_bad]).raw[0]
    assert bad.raw[0] > 0
    assert bad.raw[0] <= p <= 2.0 * bad.raw[0]


def test_commutator_zero_for_n1_hwc_sample():
    rows = np.array([[2.0, 0.0], [0.0, 2.0]])
    rep = commutator_form_residual(
        [GradientSample(rows, np.eye(2), [0j])], FLAT1)
    assert rep.inf < 1e-14


# -- function-family route ---------------------------------------------------------

def planted_pair_violation():
    """phi = (z, conj z): each coordinate PHWC, the pair is not."""
    rows = np.zeros((4, 2))
    rows[0] = [1, 0]
    rows[2] = [0, 1]
    rows[1] = [1, 0]
    rows[3] = [0, -1]
    return GradientSample(rows, np.eye(2), np.array([1 + 0j, 1 + 0j]))


def test_family_zero_for_phwc_samples():
    rows = np.zeros((4, 2))
    rows[0] = [1, 0]
    rows[2] = [0, 1]
    rows[1] = [3, 0]
    rows[3] = [0, 3]
    s = GradientSample(rows, np.eye(2), np.array([0.5 + 0.1j, 0.4 - 0.2j]))
    assert phwc_residual([s]).inf < 1e-14
    rep = phwc_via_functions([s], holomorphic_family(2))
    assert rep.inf < 1e-9


def test_family_reduces_to_direct_residual_for_z():
    s = sample_x_plus_2iy()
    rep = phwc_via_functions([s], [coordinate(1, 0)])
    assert rep.raw[0] == pytest.approx(3.0)


def test_products_catch_what_coordinates_miss():
    s = planted_pair_violation()
    coords = [coordinate(2, 0), coordinate(2, 1)]
    assert phwc_via_functions([s], coords).inf < 1e-12
    assert phwc_residual([s]).raw[0] > 1.0
    full = phwc_via_functions([s], holomorphic_family(2))
    assert full.inf > 1.0


# -- post-composition ----------------------------------------------------------------

def phwc_sample_into_c2():
    rows = np.zeros((4, 2))
    rows[0] = [1, 0]
    rows[2] = [0, 1]
    rows[1] = [2, 0]
    rows[3] = [0, 2]
    return GradientSample(rows, np.eye(2),
                          np.array([0.5 + 0.1j, 1.0 + 0.2j]))


def test_postcompose_preserves_phwc_products():
    psi = HolomorphicMap((product(2, 0, 1),
                          polynomial(2, {(2, 0): 1.0}, name="z1^2")))
    res = postcompose_preserves_phwc([phwc_sample_into_c2()], psi)
    assert res.passed
    assert res.output_residuals.max() < 1e-9


def test_postcompose_identity_unchanged():
    s = sample_x_plus_2iy()
    res = postcompose_preserves_phwc([s], identity_map(1))
    assert np.allclose(res.output_residuals, res.input_residuals)


def test_postcompose_refuses_antiholomorphic():
    from polyharm.target import HolomorphicFunction
    conj = HolomorphicFunction(1, lambda z: np.conj(z[0]), name="conj")
    with pytest.raises(NotHolomorphic):
        postcompose_preserves_phwc([sample_of_complex_affine(None)],
                                   HolomorphicMap((conj,)))


# -- phm_check -------------------------------------------------------------------

def test_phm_check_accepts_harmonic_holomorphic_boundary():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    bv = {v: np.array([c.vertices[v][0] - c.vertices[v][1],
                       c.vertices[v][0] + c.vertices[v][1]])
          for v in c.boundary_vertices()}
    sol = solve_harmonic_function(s, bv)
    rep = phm_check(c, m, sol, FLAT1, holomorphic_family(1), system=s)
    assert rep.verdict_harmonic and rep.verdict_phwc and rep.verdict


def test_phm_check_flags_non_phwc_harmonic_map():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    bv = {v: np.array([c.vertices[v][0], 2.0 * c.vertices[v][1]])
          for v in c.boundary_vertices()}
    sol = solve_harmonic_function(s, bv)
    rep = phm_check(c, m, sol, FLAT1, system=s)
    assert rep.verdict_harmonic
    assert not rep.verdict_phwc
    assert rep.phwc.raw.max() == pytest.approx(3.0, abs=1e-9)
    assert not rep.verdict


def test_phm_check_flags_non_harmonic_phwc_map():
    c, m = meshes.unit_square_mesh(3)
    pm = PLMap.from_complex_function(c, lambda p: p[0] + 1j * p[1])
    interior = sorted(set(c.vertices) - c.boundary_vertices())
    pm = pm.perturbed(interior[0], [0.1, 0.0])
    rep = phm_check(c, m, pm, FLAT1)
    assert not rep.verdict_harmonic
    # the perturbed map is still PL so PHWC fails too on touched simplices,
    # but harmonicity is the flagged clause
    assert not rep.verdict


def test_component_residual_consistency():
    c, m = meshes.unit_square_mesh(3, jitter=0.1, seed=2)
    s = assemble_stiffness(c, m)
    pm = PLMap(c, {v: RNG.standard_normal(4) for v in c.vertices})
    assert component_residual_consistency(s, pm) < 1e-12


# -- pullback suite -----------------------------------------------------------------

def crit7_family():
    return [coordinate(2, 0), coordinate(2, 1),
            product(2, 0, 0), i_product(2, 0, 0),
            product(2, 0, 1), i_product(2, 0, 1),
            product(2, 1, 1), i_product(2, 1, 1)]


def test_pullback_suite_affine_holomorphic_orders():
    c, m = meshes.distorted_square_mesh(8)
    pm = PLMap.from_complex_function(
        c, lambda p: np.array([(1 + 2j) * (p[0] + 1j * p[1]) + 0.3,
                               (0.5 - 1j) * (p[0] + 1j * p[1])]))
    suite = pullback_harmonicity_suite(c, m, pm, crit7_family(),
                                       refinement_levels=3)
    assert suite.passed
    # linear pullbacks are PL-exact at every level
    assert max(suite.residuals["z1"]) < 1e-12
    # quadratic pullbacks decay at empirical order >= 1
    for name in ("z1z1", "z1z2"):
        vals = suite.residuals[name]
        assert vals[0] > 1e-8
        assert all(o >= 1.0 for o in suite.orders[name])


def test_pullback_counterexample_does_not_converge():
    c, m = meshes.distorted_square_mesh(8)
    pm = PLMap.from_complex_function(c, lambda p: p[0] + 2j * p[1])
    fam = [product(1, 0, 0)]  # z^2
    suite = pullback_harmonicity_suite(c, m, pm, fam, refinement_levels=3)
    assert not suite.passed
    assert min(suite.residuals["z1z1"]) > 0.1


# -- factorization -----------------------------------------------------------------

def torus_x_plus_2iy(cov, k=3):
    vals = {}
    for v in cov.base_complex.vertices:
        i, j = divmod(v, k)
        vals[v] = np.array([float(i), 2.0 * j])
    return PLMap(cov.base_complex, vals)


def test_factorization_phm_instance():
    cov = build_covering("torus_cover", k=3)
    pm = PLMap(cov.base_complex,
               {v: np.array([0.7, -0.1]) for v in cov.base_complex.vertices})
    res = factorization_suite(cov, pm, FLAT1, holomorphic_family(1))
    assert res.passed
    assert res.base_report.verdict and res.total_report.verdict
    assert res.max_phwc_difference <= 1e-10
    assert res.max_harmonic_difference <= 1e-10


def test_factorization_non_phm_instance():
    cov = build_covering("torus_cover", k=3)
    res = factorization_suite(cov, torus_x_plus_2iy(cov), FLAT1)
    assert res.passed  # reports agree even though the verdicts are false
    assert not res.base_report.verdict
    assert not res.total_report.verdict
    assert res.verdicts_match
    assert 3.0 in np.round(res.base_report.phwc.raw, 9)


def test_factorization_scaled_sheet_rejected():
    from dataclasses import replace
    cov = build_covering("torus_cover", k=3)
    scaled = replace(cov, total_metric=cov.total_metric.scaled(1.5))
    pm = PLMap(cov.base_complex,
               {v: np.zeros(2) for v in cov.base_complex.vertices})
    with pytest.raises(NotACovering):
        factorization_suite(scaled, pm, FLAT1)


def test_reflection_fold_data_only():
    fold = build_covering("reflection_fold")
    assert not fold.factorization_ready
    assert "fixed" in fold.warning
    pm = PLMap(fold.base_complex,
               {v: np.zeros(2) for v in fold.base_complex.vertices})
    with pytest.raises(NotACovering):
        factorization_suite(fold, pm, FLAT1)


def test_covering_section_is_right_inverse():
    cov = build_covering("torus_cover", k=3)
    for b, t in cov.section.items():
        assert cov.vertex_map[t] == b


@pytest.mark.parametrize("report", [
    lambda: phwc_residual([]),
    lambda: hwc_residual([], FLAT1),
    lambda: commutator_form_residual([], FLAT1),
    lambda: phwc_via_functions([], holomorphic_family(1))])
def test_every_residual_report_needs_samples(report):
    with pytest.raises(DimensionMismatch):
        report()
