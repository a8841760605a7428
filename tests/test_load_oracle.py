"""The array Christoffel load against the per-simplex loop it replaced.

``oracle_christoffel_load`` is the loop implementation kept verbatim as the
reference; the property tests compare it with ``harmonic.christoffel_load``
over random jittered meshes, maps, metrics and targets.

``oracle_solve_harmonic_map`` is the Picard solver that wrapped every
iterate in a PLMap and evaluated the Christoffel symbols image by image
(``oracle_image_by_image_load``), kept verbatim with the per-point cp1
closures (``oracle_cp1``) as the reference for the array iterate and the
stack forms: solutions and residual histories must agree bit for bit.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import harmonic, meshes
from polyharm.errors import (ChartBoundary, ImageLeftChart, NonConvergence,
                             TargetMetricSingular)
from polyharm.harmonic import (SolveOptions, _free_lu, _interior_residual,
                               _split, assemble_stiffness, christoffel_load,
                               solve_harmonic_function, solve_harmonic_map,
                               weak_harmonic_residual)
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


# ---------------------------------------------------------------------------
# the Picard solver with PLMap iterates and per-image Christoffel symbols
# ---------------------------------------------------------------------------

def oracle_cp1() -> ChartedTarget:
    """cp1 with the per-point closures the stack forms replaced."""

    eye = np.eye(2)

    # coordinates as Python floats: the same IEEE arithmetic as numpy
    # scalars, with less overhead per point
    def metric(p):
        x, y = np.asarray(p, dtype=float).tolist()
        return eye / (1.0 + x * x + y * y) ** 2

    def christoffel(p):
        # conformal metric exp(2 rho) I with rho = -log(1 + r^2)
        x, y = np.asarray(p, dtype=float).tolist()
        denom = 1.0 + x * x + y * y
        rx = -2.0 * x / denom
        ry = -2.0 * y / denom
        g = np.empty((2, 2, 2))
        g[0] = [[rx, ry], [ry, -rx]]
        g[1] = [[-ry, rx], [rx, ry]]
        return g

    return ChartedTarget(n=1, metric=metric, christoffel_fn=christoffel,
                         name="cp1")


def oracle_image_by_image_load(system, target, plmap: PLMap) -> np.ndarray:
    """Per-vertex Christoffel load (num_vertices x 2n).

    load_k(p) = sum over simplices of
    Gamma^k_ab(phi(bary)) <grad phi^a, grad phi^b> * integral of hat_p.

    Gamma is evaluated image by image in simplex order, so the first
    simplex whose barycenter image leaves the chart is the one reported.
    """
    cx, metric = system.complex, system.metric
    n = cx.n
    idx = np.arange(len(cx.top_simplices))
    diffs = plmap.differential(idx)                        # (T, d, n)
    images = plmap.value_at(idx, np.full(n, 1.0 / (n + 1)))
    pairing = np.einsum("tai,tij,tbj->tab", diffs, metric.inverse, diffs)
    gammas = np.empty(images.shape + pairing.shape[1:])
    for s_i, image in enumerate(images):
        if target.chart_contains is not None and not target.chart_contains(image):
            raise ImageLeftChart(f"image {image} outside chart on simplex {s_i}")
        gammas[s_i] = target.christoffel(image)
    coef = np.einsum("tkab,tab->tk", gammas, pairing)
    share = coef * metric.volumes[:, None] / (n + 1)
    out = np.zeros((len(system.vertex_order), images.shape[1]))
    np.add.at(out, cx.top_array.ravel(), np.repeat(share, n + 1, axis=0))
    return out


def oracle_solve_harmonic_map(system, target, boundary_values,
                              opts: SolveOptions = SolveOptions()) -> PLMap:
    """Damped fixed-point solve of the weakly-harmonic equation.

    Flat targets reduce to a single linear solve.  Otherwise iterate
    u <- (1-d) u + d S^{-1} load(u) on interior rows until the weak
    residual infinity-norm is below ``opts.tol``; the damping is halved
    adaptively when the residual increases.  Raises NonConvergence with
    the residual history when the budget is exhausted.
    """
    if target is None or target.is_flat:
        return solve_harmonic_function(system, boundary_values)

    pin_mask, vals, d = _split(system, boundary_values)
    free = np.where(~pin_mask)[0]
    pinned = np.where(pin_mask)[0]
    if free.size == 0:
        plmap = PLMap(system.complex,
                      {v: vals[i] for i, v in enumerate(system.vertex_order)})
        return plmap

    s_ib = system.S[np.ix_(free, pinned)]
    lu = _free_lu(system, ~pin_mask)
    pinned_rhs = s_ib @ vals[pinned] if pinned.size else 0.0
    # start from the flat harmonic extension
    u = vals.copy()
    u[free] = lu.solve(-pinned_rhs) if pinned.size else 0.0

    def plmap_of(arr):
        return PLMap(system.complex,
                     {v: arr[i] for i, v in enumerate(system.vertex_order)})

    history = []
    damping = opts.damping
    best = None
    for _ in range(opts.max_iter):
        pm = plmap_of(u)
        load = oracle_image_by_image_load(system, target, pm)
        inf = float(np.abs(_interior_residual(system, u, load)).max())
        history.append(inf)
        if inf <= opts.tol:
            return pm
        if best is not None and inf > best * (1.0 + 1e-12):
            damping = max(damping * 0.5, 1e-3)
        else:
            best = inf if best is None else min(best, inf)
        u_new = u.copy()
        u_new[free] = lu.solve(load[free] - pinned_rhs)
        u = (1.0 - damping) * u + damping * u_new
        u[pinned] = vals[pinned]
    raise NonConvergence(
        f"no convergence after {opts.max_iter} iterations "
        f"(last residual {history[-1]:.3g})", history)


def bits(a):
    """The IEEE bit patterns of a float array: equal bits, not just ==."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_same_solve(system, boundary, opts):
    """The solver and the oracle solver agree bit for bit: the solution
    when both converge, the residual history when both give up."""
    try:
        want = oracle_solve_harmonic_map(system, oracle_cp1(), boundary, opts)
    except NonConvergence as exc:
        with pytest.raises(NonConvergence) as got:
            solve_harmonic_map(system, fubini_study_cp1(), boundary, opts)
        assert got.value.history == exc.history
        assert str(got.value) == str(exc)
        return None
    got = solve_harmonic_map(system, fubini_study_cp1(), boundary, opts)
    order = system.vertex_order
    assert np.array_equal(bits(got.value_array(order)),
                          bits(want.value_array(order)))
    return got


def bench_boundary(system, a, w, phase):
    """a (cos t, sin t) with t = 2 pi (x + w y) + phase, as in cp1_solve."""
    out = {}
    for v in system.boundary:
        x, y = system.complex.vertices[v]
        t = 2.0 * math.pi * (x + w * y) + phase
        out[v] = a * np.array([math.cos(t), math.sin(t)])
    return out


@pytest.fixture(scope="module")
def distorted16():
    return assemble_stiffness(*meshes.distorted_square_mesh(16))


@pytest.mark.parametrize("a", [0.25, 0.55, 0.85])
@pytest.mark.parametrize("w", [1, 2, 3])
def test_solve_matches_oracle_on_bench_data(distorted16, a, w):
    bv = bench_boundary(distorted16, a, w, phase=0.1 * w + a)
    sol = assert_same_solve(distorted16, bv, SolveOptions())
    assert sol is not None
    assert weak_harmonic_residual(distorted16, fubini_study_cp1(),
                                  sol).inf <= 1e-8
    # a short budget: the first iterations' residual histories
    assert_same_solve(distorted16, bv, SolveOptions(max_iter=6, tol=1e-14))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(2, 6), mesh_seed=st.integers(0, 10 ** 6),
       a=st.floats(0.05, 1.2), w=st.integers(1, 3),
       phase=st.floats(0.0, 2.0 * math.pi),
       mode=st.sampled_from(["constant", "smooth"]),
       max_iter=st.sampled_from([3, 200]))
def test_solve_matches_oracle(k, mesh_seed, a, w, phase, mode, max_iter):
    c, m = meshes.unit_square_mesh(k, jitter=0.2, seed=mesh_seed)
    if mode == "smooth":
        m = smooth_metric(c, m)
    system = assemble_stiffness(c, m)
    assert_same_solve(system, bench_boundary(system, a, w, phase),
                      SolveOptions(max_iter=max_iter))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1),
       radii=st.lists(st.floats(0.0, 1e3), max_size=20))
def test_cp1_stacks_match_per_point_closures(seed, radii):
    # log-uniform |z| in [1e-3, 1e3] plus drawn radii and the origin: the
    # pow in the metric rounds differently from a square about once in a
    # thousand points
    rng = np.random.default_rng(seed)
    r = np.concatenate([[0.0], radii, 10.0 ** rng.uniform(-3, 3, 500)])
    t = rng.uniform(0.0, 2.0 * math.pi, len(r))
    points = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    cp1, oracle = fubini_study_cp1(), oracle_cp1()
    want_h = np.stack([oracle.metric(p) for p in points])
    want_g = np.stack([oracle.christoffel_fn(p) for p in points])
    for got_h, got_g in ((cp1.metric_at(points), cp1.christoffel(points)),
                         (np.stack([cp1.metric(p) for p in points]),
                          np.stack([cp1.christoffel_fn(p) for p in points]))):
        assert np.array_equal(bits(got_h), bits(want_h))
        assert np.array_equal(bits(got_g), bits(want_g))


# ---------------------------------------------------------------------------
# non-finite Christoffel symbols
# ---------------------------------------------------------------------------

def nan_symbols_target(nan_where, chart_contains=None):
    """cp1's symbols, replaced by NaN at the points where ``nan_where``."""
    cp1 = fubini_study_cp1()

    def christoffel(p):
        g = cp1.christoffel(p)
        return np.full_like(g, np.nan) if nan_where(p) else g

    return ChartedTarget(n=1, metric=cp1.metric, christoffel_fn=christoffel,
                         chart_contains=chart_contains, name="nan-cp1")


def test_nan_symbols_are_a_typed_error():
    c, m = meshes.unit_square_mesh(3)
    s = assemble_stiffness(c, m)
    bv = _wavy_boundary(c)
    target = nan_symbols_target(lambda p: True)
    with pytest.raises(TargetMetricSingular,
                       match=r"nan-cp1 Christoffel symbols not finite at "
                             r"chart point \[.*\] on simplex 0$"):
        solve_harmonic_map(s, target, bv)
    with pytest.raises(TargetMetricSingular, match="on simplex 0"):
        weak_harmonic_residual(s, target, solve_harmonic_function(s, bv))
    with pytest.raises(TargetMetricSingular,
                       match=r"not finite at chart point \[0\. 0\.\]$"):
        target.christoffel(np.zeros((3, 2)))


def oracle_first_failure(system, target, plmap):
    """(kind, simplex) of the first simplex, in simplex order, whose image
    leaves the chart or meets non-finite symbols; None when none does."""
    bary = np.full(system.complex.n, 1.0 / (system.complex.n + 1))
    for s_i in range(len(system.complex.top_simplices)):
        image = plmap.value_at(s_i, bary)
        if not target.chart_contains(image):
            return ImageLeftChart, s_i
        if not np.isfinite(target.christoffel_fn(image)).all():
            return TargetMetricSingular, s_i
    return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(k=st.integers(2, 6), mesh_seed=st.integers(0, 10 ** 6),
       map_seed=st.integers(0, 10 ** 6), scale=st.floats(0.2, 1.5),
       cut=st.floats(-1.0, 1.0))
def test_first_nonfinite_or_outside_simplex_matches_oracle(
        k, mesh_seed, map_seed, scale, cut):
    system, pm = random_setup(k, mesh_seed, map_seed, scale, "constant")
    target = nan_symbols_target(lambda p: p[0] > cut,
                                lambda p: float(np.hypot(*p)) < 1.0)
    want = oracle_first_failure(system, target, pm)
    if want is None:
        christoffel_load(system, target, pm)
        return
    with pytest.raises(want[0]) as got:
        christoffel_load(system, target, pm)
    assert simplex_of(got.value) == want[1]
    if want[0] is TargetMetricSingular:
        with pytest.raises(TargetMetricSingular):
            target.christoffel(pm.value_at(want[1], [1 / 3, 1 / 3]))
    else:
        with pytest.raises(ChartBoundary):
            target.christoffel(pm.value_at(want[1], [1 / 3, 1 / 3]))
