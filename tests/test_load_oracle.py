"""The array Christoffel load against the per-simplex loop it replaced.

``oracle_christoffel_load`` is the loop implementation kept verbatim as the
reference; the property tests compare it with ``harmonic.christoffel_load``
over random jittered meshes, maps, metrics and targets.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import harmonic, meshes
from polyharm.errors import ImageLeftChart, NonConvergence
from polyharm.harmonic import (SolveOptions, assemble_stiffness,
                               christoffel_load, solve_harmonic_function,
                               solve_harmonic_map, weak_harmonic_residual)
from polyharm.maps import PLMap
from polyharm.riemannian import PiecewiseMetric, simplex_volume
from polyharm.target import ChartedTarget, fubini_study_cp1


def oracle_christoffel_load(system, target, plmap: PLMap) -> np.ndarray:
    """Per-vertex Christoffel load (num_vertices x 2n).

    load_k(p) = sum over simplices of
    Gamma^k_ab(phi(bary)) <grad phi^a, grad phi^b> * integral of hat_p.
    """
    cx = system.complex
    n = cx.n
    d = plmap.target_dim
    out = np.zeros((len(system.vertex_order), d))
    bary = np.full(n, 1.0 / (n + 1))
    for s_i, top in enumerate(cx.top_simplices):
        image = plmap.value_at(s_i, bary)
        if target.chart_contains is not None and not target.chart_contains(image):
            raise ImageLeftChart(f"image {image} outside chart on simplex {s_i}")
        gamma = target.christoffel(image)
        rows = plmap.differential(s_i)
        g = system.metric.at(s_i)
        q = rows @ np.linalg.solve(g, rows.T)
        coef = np.einsum("kab,ab->k", gamma, q)
        vol = simplex_volume(cx, system.metric, s_i)
        for v in top:
            out[system.index[v]] += coef * vol / (n + 1)
    return out


def fd_target(chart_contains=None):
    """No closed-form symbols: Christoffel symbols by finite differences."""
    return ChartedTarget(n=1, metric=lambda p: np.eye(2) * (1.0 + p[0] ** 2),
                         chart_contains=chart_contains, name="fd")


def smooth_metric(complex_, metric):
    """Smooth-mode metric: the embedding metric times a positive
    non-constant factor of the reference coordinates."""
    def evaluator(g):
        return lambda xi: g * (1.0 + 0.4 * xi[0] + 0.3 * xi[1] ** 2)
    return PiecewiseMetric.from_evaluators(
        complex_, [evaluator(g) for g in metric.stack])


def random_setup(k, mesh_seed, map_seed, scale, mode):
    c, m = meshes.unit_square_mesh(k, jitter=0.2, seed=mesh_seed)
    if mode == "smooth":
        m = smooth_metric(c, m)
    rng = np.random.default_rng(map_seed)
    pm = PLMap(c, {v: scale * rng.standard_normal(2) for v in c.vertices})
    return assemble_stiffness(c, m), pm


def simplex_of(exc):
    return int(re.search(r"on simplex (\d+)", str(exc)).group(1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(2, 6), mesh_seed=st.integers(0, 10 ** 6),
       map_seed=st.integers(0, 10 ** 6), scale=st.floats(0.05, 3.0),
       mode=st.sampled_from(["constant", "smooth"]),
       tgt=st.sampled_from(["cp1", "fd"]))
def test_load_matches_loop_oracle(k, mesh_seed, map_seed, scale, mode, tgt):
    system, pm = random_setup(k, mesh_seed, map_seed, scale, mode)
    target = fubini_study_cp1() if tgt == "cp1" else fd_target()
    got = christoffel_load(system, target, pm)
    want = oracle_christoffel_load(system, target, pm)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(2, 6), mesh_seed=st.integers(0, 10 ** 6),
       map_seed=st.integers(0, 10 ** 6), scale=st.floats(0.2, 1.5),
       mode=st.sampled_from(["constant", "smooth"]))
def test_first_simplex_leaving_chart_matches_oracle(k, mesh_seed, map_seed,
                                                    scale, mode):
    system, pm = random_setup(k, mesh_seed, map_seed, scale, mode)
    disk = fd_target(chart_contains=lambda p: float(np.hypot(*p)) < 1.0)
    try:
        want = oracle_christoffel_load(system, disk, pm)
    except ImageLeftChart as exc:
        with pytest.raises(ImageLeftChart) as got:
            christoffel_load(system, disk, pm)
        assert simplex_of(got.value) == simplex_of(exc)
    else:
        got = christoffel_load(system, disk, pm)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _wavy_boundary(c):
    return {v: 0.5 * np.array([np.cos(7 * c.vertices[v][0]),
                               np.sin(5 * c.vertices[v][1])])
            for v in c.boundary_vertices()}


def test_one_load_per_picard_iteration(monkeypatch):
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    calls = []
    real = harmonic.christoffel_load

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harmonic, "christoffel_load", counting)
    with pytest.raises(NonConvergence) as err:
        solve_harmonic_map(s, fubini_study_cp1(), _wavy_boundary(c),
                           SolveOptions(max_iter=5, tol=1e-14))
    assert len(calls) == 5
    assert len(err.value.history) == 5


def test_stopping_norm_is_the_weak_residual_inf_norm():
    # the first Picard iterate is the flat harmonic extension
    c, m = meshes.unit_square_mesh(4, jitter=0.1, seed=2)
    s = assemble_stiffness(c, m)
    fs = fubini_study_cp1()
    bv = _wavy_boundary(c)
    with pytest.raises(NonConvergence) as err:
        solve_harmonic_map(s, fs, bv, SolveOptions(max_iter=1, tol=1e-14))
    flat_ext = solve_harmonic_function(s, bv)
    assert err.value.history == [weak_harmonic_residual(s, fs, flat_ext).inf]
