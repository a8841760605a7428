"""The array checkers and energy against the per-simplex loops they replaced.

The ``oracle_*`` functions below are the loop implementations of
``samples_from_plmap``, the four residual value functions (with the
per-sample report builder they fed) and ``dirichlet_energy``, kept verbatim
as the reference.  The property tests compare them with the array code over
random jittered meshes, PL maps, metrics and targets, and check that both
raise the same error on the same sample or simplex.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import energy, meshes, morphism
from polyharm.errors import (ChartBoundary, DimensionMismatch, NotSPD,
                             PoleAtPoint, TargetMetricSingular)
from polyharm.maps import PLMap
from polyharm.morphism import GradientSample, ResidualReport, _as_map
from polyharm.riemannian import (PiecewiseMetric, _require_spd,
                                 _require_spd_stack, simplex_rule,
                                 simplex_volume)
from polyharm.target import (ChartedTarget, complex_structure, coordinate,
                             flat_target, fubini_study_cp1,
                             holomorphic_family, polynomial, rational,
                             to_complex)


# ---------------------------------------------------------------------------
# the loop oracles
# ---------------------------------------------------------------------------

def oracle_samples_from_plmap(complex_, metric: PiecewiseMetric,
                              plmap: PLMap) -> list:
    """One sample per top simplex, evaluated at the barycenter (exhaustive
    for constant-per-simplex gradients)."""
    if plmap.target_dim % 2 != 0:
        raise DimensionMismatch("chart-valued maps need an even value dimension")
    bary = np.full(complex_.n, 1.0 / (complex_.n + 1))
    out = []
    for idx in range(len(complex_.top_simplices)):
        image = to_complex(plmap.value_at(idx, bary))
        out.append(GradientSample(
            rows=plmap.differential(idx),
            metric=metric.at(idx),
            image=image,
            location=("simplex", idx),
            weight=simplex_volume(complex_, metric, idx),
        ))
    return out


def _phwc_value(q, n):
    """max_{A,B} |Q_xx - Q_yy| + |Q_yx + Q_xy| entrywise."""
    qxx = q[:n, :n]
    qxy = q[:n, n:]
    qyx = q[n:, :n]
    qyy = q[n:, n:]
    return float((np.abs(qxx - qyy) + np.abs(qyx + qxy)).max())


def _oracle_report(kind, samples, tol, value, extra=None) -> ResidualReport:
    """ResidualReport of ``value(s)`` per sample, normalized by ``s.scale``
    and weighted by ``s.weight``.  With ``extra`` set, ``value`` returns
    (residual, extra value) and the extra values are reported per sample
    under that name."""
    if not samples:
        raise DimensionMismatch("need at least one sample")
    vals = [value(s) for s in samples]
    extras = {"weights": np.asarray([s.weight for s in samples])}
    if extra is not None:
        vals, extra_vals = zip(*vals)
        extras[extra] = np.asarray(extra_vals)
    raw = np.asarray(vals)
    return ResidualReport(
        kind=kind,
        locations=tuple(s.location for s in samples),
        raw=raw,
        normalized=raw / np.asarray([s.scale for s in samples]),
        tol=tol,
        extras=extras,
    )


def oracle_phwc_residual(samples, tol=1e-8) -> ResidualReport:
    """Residual of the two PHWC gradient identities at each sample."""
    return _oracle_report("phwc", samples, tol,
                          lambda s: _phwc_value(s.gram, s.n))


def oracle_hwc_residual(samples, target, tol=1e-8) -> ResidualReport:
    def value(s):
        hinv = target.inverse_metric_at(
            np.concatenate([s.image.real, s.image.imag]))
        denom = float(np.trace(hinv))
        if denom <= 0:
            raise TargetMetricSingular("inverse metric trace not positive")
        lam = float(np.trace(s.gram)) / denom
        if lam < -tol:
            lam = max(lam, 0.0)
        return float(np.abs(s.gram - lam * hinv).max()), lam

    return _oracle_report("hwc", samples, tol, value, extra="dilation")


def oracle_commutator_form_residual(samples, target,
                                    tol=1e-8) -> ResidualReport:
    def value(s):
        h = target.metric_at(np.concatenate([s.image.real, s.image.imag]))
        j = complex_structure(s.n)
        m = s.gram @ h
        return float(np.abs(m @ j - j @ m).max())

    return _oracle_report("commutator", samples, tol, value)


def oracle_phwc_via_functions(samples, fn_family, tol=1e-8) -> ResidualReport:
    def value(s):
        worst = 0.0
        for f in fn_family:
            comp = s.composed_with(_as_map(f))
            worst = max(worst, _phwc_value(comp.gram, comp.n))
        return worst

    return _oracle_report("phwc_via_functions", samples, tol, value)


def _density_at(rows, ginv, h=None):
    """Target-weighted gradient pairing sum_ab h_ab <grad a, grad b>."""
    q = rows @ ginv @ rows.T
    if h is None:
        return float(np.trace(q))
    return float(np.sum(h * q))


def oracle_dirichlet_energy(complex_, metric, plmap, target=None,
                            order=None):
    """(densities, contributions, total) in the gradient_squared
    normalization."""
    n = complex_.n
    smooth = metric.mode == "smooth" or (target is not None
                                         and not target.is_flat)
    if order is None:
        order = 2 if smooth else 1
    pts, wts = simplex_rule(n, order)

    densities = []
    contributions = []
    for idx in range(len(complex_.top_simplices)):
        rows = plmap.differential(idx)
        contrib = 0.0
        vol = 0.0
        for xi, w in zip(pts, wts):
            g = metric.at(idx, xi if metric.mode == "smooth" else None)
            ginv = np.linalg.inv(g)
            h = None
            if target is not None:
                h = target.metric_at(plmap.value_at(idx, xi))
            dens = _density_at(rows, ginv, h)
            dv = w * math.sqrt(np.linalg.det(g))
            contrib += dens * dv
            vol += dv
        densities.append(contrib / vol)
        contributions.append(contrib)
    contributions = np.asarray(contributions)
    return np.asarray(densities), contributions, float(np.sum(contributions))


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def fd_target(chart_contains=None):
    """No closed-form symbols: Christoffel symbols by finite differences."""
    return ChartedTarget(n=1, metric=lambda p: np.eye(2) * (1.0 + p[0] ** 2),
                         chart_contains=chart_contains, name="fd")


TARGETS = {"none": lambda: None, "flat": lambda: flat_target(1),
           "cp1": fubini_study_cp1, "fd": fd_target}


def smooth_metric(complex_, metric):
    def evaluator(g):
        return lambda xi: g * (1.0 + 0.4 * xi[0] + 0.3 * xi[1] ** 2)
    return PiecewiseMetric.from_evaluators(
        complex_, [evaluator(g) for g in metric.stack])


def random_setup(k, mesh_seed, map_seed, scale, mode, kind="random"):
    """Jittered unit square, its metric (smooth mode: a non-constant
    multiple) and a PL map: random vertex values, or the holomorphic
    a z + b z^2 sampled at the vertices."""
    c, m = meshes.unit_square_mesh(k, jitter=0.2, seed=mesh_seed)
    if mode == "smooth":
        m = smooth_metric(c, m)
    rng = np.random.default_rng(map_seed)
    if kind == "random":
        vals = {v: scale * rng.standard_normal(2) for v in c.vertices}
    else:
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vals = {}
        for v in c.vertices:
            z = complex(*c.vertices[v])
            w = scale * (a * z + b * z * z * (kind == "quadratic"))
            vals[v] = np.array([w.real, w.imag])
    return c, m, PLMap(c, vals)


def assert_close(got, want, scale=1.0):
    """Agreement to 1e-12 relative, or 1e-14 absolute times the sample
    scale for residuals that are round-off zeros."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    tol = np.maximum(1e-12 * np.abs(want), 1e-14 * np.asarray(scale))
    assert np.all(np.abs(got - want) <= tol)


def assert_reports_match(got, want, samples):
    scale = np.asarray([s.scale for s in samples])
    assert got.kind == want.kind
    assert got.locations == want.locations
    assert_close(got.raw, want.raw, scale)
    assert_close(got.normalized, want.normalized)
    assert set(got.extras) == set(want.extras)
    for key in want.extras:
        assert_close(got.extras[key], want.extras[key])
    assert got.verdict == want.verdict


def same_failure(oracle, array_code):
    """Both raise, with the same error type and message (which names the
    failing point), or both return; returns the two results."""
    try:
        want = oracle()
    except (ChartBoundary, TargetMetricSingular, PoleAtPoint) as exc:
        with pytest.raises(type(exc)) as got:
            array_code()
        assert str(got.value) == str(exc)
        return None
    return array_code(), want


MESHES = dict(k=st.integers(2, 6), mesh_seed=st.integers(0, 10 ** 6),
              map_seed=st.integers(0, 10 ** 6))


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None, derandomize=True)
@given(**MESHES, scale=st.floats(0.05, 3.0),
       mode=st.sampled_from(["constant", "smooth"]),
       kind=st.sampled_from(["random", "affine", "quadratic"]))
def test_samples_match_loop_oracle(k, mesh_seed, map_seed, scale, mode, kind):
    c, m, pm = random_setup(k, mesh_seed, map_seed, scale, mode, kind)
    got = morphism.samples_from_plmap(c, m, pm)
    want = oracle_samples_from_plmap(c, m, pm)
    assert len(got) == len(want)
    for s, o in zip(got, want):
        assert s.location == o.location
        assert_close(s.rows, o.rows)
        assert_close(s.metric, o.metric)
        assert_close(s.image.real, o.image.real)
        assert_close(s.image.imag, o.image.imag)
        assert_close(s.weight, o.weight)
        assert_close(s.gram, o.gram, o.scale)
        assert_close(s.scale, o.scale)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**MESHES, scale=st.floats(0.05, 3.0),
       mode=st.sampled_from(["constant", "smooth"]),
       kind=st.sampled_from(["random", "affine", "quadratic"]),
       tgt=st.sampled_from(["flat", "cp1", "fd"]))
def test_residuals_match_loop_oracle(k, mesh_seed, map_seed, scale, mode,
                                     kind, tgt):
    c, m, pm = random_setup(k, mesh_seed, map_seed, scale, mode, kind)
    target = TARGETS[tgt]()
    samples = oracle_samples_from_plmap(c, m, pm)
    family = holomorphic_family(1)
    assert_reports_match(morphism.phwc_residual(samples),
                         oracle_phwc_residual(samples), samples)
    assert_reports_match(morphism.hwc_residual(samples, target),
                         oracle_hwc_residual(samples, target), samples)
    assert_reports_match(morphism.commutator_form_residual(samples, target),
                         oracle_commutator_form_residual(samples, target),
                         samples)
    assert_reports_match(morphism.phwc_via_functions(samples, family),
                         oracle_phwc_via_functions(samples, family), samples)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**MESHES, scale=st.floats(0.05, 3.0),
       mode=st.sampled_from(["constant", "smooth"]),
       tgt=st.sampled_from(sorted(TARGETS)),
       order=st.sampled_from([None, 1, 2, 3]))
def test_energy_matches_loop_oracle(k, mesh_seed, map_seed, scale, mode, tgt,
                                    order):
    c, m, pm = random_setup(k, mesh_seed, map_seed, scale, mode)
    target = TARGETS[tgt]()
    got = energy.dirichlet_energy(c, m, pm, target, order=order)
    dens, contrib, total = oracle_dirichlet_energy(c, m, pm, target, order)
    assert_close(got.densities, dens)
    assert_close(got.contributions, contrib)
    assert_close(got.total, total)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**MESHES, scale=st.floats(0.05, 3.0),
       mode=st.sampled_from(["constant", "smooth"]))
def test_metric_stack_and_volumes_match_per_simplex(k, mesh_seed, map_seed,
                                                    scale, mode):
    c, m, _ = random_setup(k, mesh_seed, map_seed, scale, mode)
    assert m.stack.shape == (len(c.top_simplices), c.n, c.n)
    for i, g in enumerate(m.stack):
        assert np.array_equal(m.stack[i], g)
        want = math.sqrt(np.linalg.det(g)) / math.factorial(c.n)
        if mode == "smooth":
            pts, wts = simplex_rule(c.n, 2)
            want = 0.0
            for xi, w in zip(pts, wts):
                want += w * math.sqrt(np.linalg.det(m.at(i, xi)))
        assert m.volumes[i] == want
        assert simplex_volume(c, m, i) == want


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**MESHES, scale=st.floats(0.05, 3.0))
def test_differential_index_array_stacks_per_index(k, mesh_seed, map_seed,
                                                   scale):
    c, _, pm = random_setup(k, mesh_seed, map_seed, scale, "constant")
    rng = np.random.default_rng(map_seed)
    idx = rng.integers(0, len(c.top_simplices), size=7)
    per_index = np.stack([pm.differential(int(i)) for i in idx])
    assert np.array_equal(pm.differential(idx), per_index)
    xi = rng.uniform(0.0, 0.5, size=c.n)
    assert np.array_equal(pm.value_at(idx, xi),
                          np.stack([pm.value_at(int(i), xi) for i in idx]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), count=st.integers(1, 12),
       kind=st.sampled_from(["spd", "asym", "indefinite", "nan"]))
def test_batched_spd_check_raises_like_per_array_check(seed, count, kind):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, 3, 3))
    stack = a @ a.swapaxes(1, 2) + 0.1 * np.eye(3)
    bad = int(rng.integers(count))
    if kind == "asym":
        stack[bad, 0, 1] += 1e-6
    elif kind == "indefinite":
        stack[bad] -= 50.0 * np.eye(3)
    elif kind == "nan":
        stack[bad, 1, 1] = np.nan
    want = None
    try:
        for g in stack:
            _require_spd(g)
    except NotSPD as exc:
        want = str(exc)
    if want is None:
        assert np.array_equal(_require_spd_stack(stack),
                              np.linalg.eigvalsh(stack))
    else:
        with pytest.raises(NotSPD) as got:
            _require_spd_stack(stack)
        assert str(got.value) == want


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), count=st.integers(1, 20))
def test_stacked_metric_at_matches_per_point(seed, count):
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(count, 2))
    for target in (fubini_study_cp1(), fd_target(), flat_target(1)):
        got = target.metric_at(pts)
        assert np.array_equal(got, np.stack([target.metric_at(p)
                                             for p in pts]))
        assert np.array_equal(target.inverse_metric_at(pts),
                              np.stack([target.inverse_metric_at(p)
                                        for p in pts]))


# ---------------------------------------------------------------------------
# the first failure
# ---------------------------------------------------------------------------

def disk_target():
    return fd_target(chart_contains=lambda p: float(np.hypot(*p)) < 1.0)


def singular_target():
    """Positive definite inside the unit disk only."""
    return ChartedTarget(n=1, metric=lambda p: np.eye(2) * (1.0 - p @ p),
                         name="disk-metric")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**MESHES, scale=st.floats(0.2, 1.5),
       mode=st.sampled_from(["constant", "smooth"]),
       tgt=st.sampled_from(["chart", "singular"]))
def test_first_failing_point_matches_oracle(k, mesh_seed, map_seed, scale,
                                            mode, tgt):
    c, m, pm = random_setup(k, mesh_seed, map_seed, scale, mode)
    target = disk_target() if tgt == "chart" else singular_target()
    samples = oracle_samples_from_plmap(c, m, pm)
    for oracle, array_code in (
            (lambda: oracle_hwc_residual(samples, target),
             lambda: morphism.hwc_residual(samples, target)),
            (lambda: oracle_commutator_form_residual(samples, target),
             lambda: morphism.commutator_form_residual(samples, target))):
        both = same_failure(oracle, array_code)
        if both is not None:
            assert_reports_match(*both, samples)
    both = same_failure(
        lambda: oracle_dirichlet_energy(c, m, pm, target),
        lambda: energy.dirichlet_energy(c, m, pm, target))
    if both is not None:
        got, (dens, contrib, total) = both
        assert_close(got.contributions, contrib)


def pole_at(w, name):
    """1 / (z - w): raises PoleAtPoint exactly at w."""
    one = polynomial(1, {(0,): 1.0})
    return rational(one, polynomial(1, {(1,): 1.0, (0,): -w}), name=name)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**MESHES, scale=st.floats(0.2, 1.5), data=st.data())
def test_first_pole_in_family_matches_oracle(k, mesh_seed, map_seed, scale,
                                             data):
    c, m, pm = random_setup(k, mesh_seed, map_seed, scale, "constant")
    samples = oracle_samples_from_plmap(c, m, pm)
    late, early = sorted(data.draw(st.lists(
        st.integers(0, len(samples) - 1), min_size=2, max_size=2)),
        reverse=True)
    # the pole of the earlier family member sits at the later sample
    family = [coordinate(1, 0), pole_at(samples[late].image[0], "late"),
              pole_at(samples[early].image[0], "early")]
    with pytest.raises(PoleAtPoint) as want:
        oracle_phwc_via_functions(samples, family)
    with pytest.raises(PoleAtPoint) as got:
        morphism.phwc_via_functions(samples, family)
    assert str(got.value) == str(want.value)
