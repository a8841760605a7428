"""Batched metric construction and array assembly against the per-simplex
loops they replaced.

The ``oracle_*`` functions are the loop implementations of the SPD check,
``ellipticity_constant``, the ``PiecewiseMetric`` constructors, the face
continuity test, the flat-torus Gram arrays and ``assemble_stiffness``,
kept verbatim as the reference (the constructors return their arrays; the
assembly loop skips the admissibility check, which is not under test).
Constant metrics must match them bit for bit, smooth metrics to 1e-12
relative, and single-fault inputs must raise the same error and message.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix

from polyharm import meshes
from polyharm.errors import DegenerateSimplex, NotSPD
from polyharm.harmonic import assemble_stiffness, hat_gradients
from polyharm.riemannian import (FACE_MATCH_TOL, PiecewiseMetric,
                                 ellipticity_constant, simplex_rule,
                                 simplex_volume)
from polyharm.simplicial import build_complex


# ---------------------------------------------------------------------------
# the loop oracles
# ---------------------------------------------------------------------------

def oracle_require_spd(g, what="metric"):
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NotSPD(f"{what} is not square: shape {g.shape}")
    if not np.allclose(g, g.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(g).max())):
        raise NotSPD(f"{what} is not symmetric")
    ev = np.linalg.eigvalsh(g)
    if ev[0] <= 0.0:
        raise NotSPD(f"{what} has non-positive eigenvalue {ev[0]:g}")
    return g


def oracle_ellipticity_constant(g) -> float:
    g = oracle_require_spd(g)
    ev = np.linalg.eigvalsh(g)
    return float(max(math.sqrt(ev[-1]), 1.0 / math.sqrt(ev[0])))


def oracle_from_arrays(complex_, arrays):
    arrs = tuple(oracle_require_spd(np.array(a, dtype=float)) for a in arrays)
    if len(arrs) != len(complex_.top_simplices):
        raise NotSPD(
            f"need {len(complex_.top_simplices)} arrays, got {len(arrs)}")
    for a in arrs:
        if a.shape != (complex_.n, complex_.n):
            raise NotSPD(f"array shape {a.shape} != ({complex_.n}, {complex_.n})")
    return arrs


def oracle_from_embedding(complex_):
    arrays = []
    for t in complex_.top_simplices:
        coords = [complex_.vertices[v] for v in t]
        edges = np.stack([c - coords[0] for c in coords[1:]], axis=1)
        gram = edges.T @ edges
        try:
            arrays.append(oracle_require_spd(gram))
        except NotSPD:
            raise DegenerateSimplex(f"simplex {t} has degenerate embedding")
    return tuple(arrays)


def oracle_from_evaluators(complex_, evaluators):
    evs = tuple(evaluators)
    bary = [np.full(complex_.n, 1.0 / (complex_.n + 1))] * len(evs)
    return tuple(oracle_require_spd(np.asarray(ev(b), dtype=float))
                 for ev, b in zip(evs, bary))


def oracle_at(arrays, evaluators):
    """The old ``PiecewiseMetric.at`` over the oracle arrays."""
    def at(idx, xi=None):
        if evaluators is None or xi is None:
            return arrays[idx]
        return oracle_require_spd(
            np.asarray(evaluators[idx](np.asarray(xi)), float))
    return at


def oracle_faces_agree(cx, at) -> bool:
    for face, cof in cx.cofaces.items():
        if len(cof) < 2:
            continue
        mats = [oracle_face_restriction(cx, at, i, face) for i in cof]
        for m in mats[1:]:
            if np.abs(m - mats[0]).max() > FACE_MATCH_TOL:
                return False
    return True


def oracle_face_restriction(cx, at, idx, face):
    top = cx.top_simplices[idx]
    ref = oracle_vertex_ref_coords(top)
    a = np.stack([ref[w] - ref[face[0]] for w in face[1:]], axis=1)
    xi = np.mean([ref[w] for w in face], axis=0)  # face barycenter
    g = at(idx, xi)
    return a.T @ g @ a


def oracle_vertex_ref_coords(top):
    n = len(top) - 1
    out = {top[0]: np.zeros(n)}
    for i, v in enumerate(top[1:]):
        e = np.zeros(n)
        e[i] = 1.0
        out[v] = e
    return out


def oracle_flat_torus_arrays(k, width=None):
    w = width if width is not None else k
    def vid(i, j):
        return (i % w) * k + (j % k)

    verts = {}
    for i in range(w):
        for j in range(k):
            verts[vid(i, j)] = np.array([float(i), float(j)])
    tris = []
    unfolded = []
    for i in range(w):
        for j in range(k):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i, j + 1), vid(i + 1, j + 1)
            pa, pb = (i, j), (i + 1, j)
            pc, pd = (i, j + 1), (i + 1, j + 1)
            tris.append((a, b, d))
            unfolded.append({a: pa, b: pb, d: pd})
            tris.append((a, d, c))
            unfolded.append({a: pa, d: pd, c: pc})
    complex_ = build_complex(verts, tris)
    lookup = {tuple(sorted(t)): coords for t, coords in zip(tris, unfolded)}
    arrays = []
    for t in complex_.top_simplices:
        pos = lookup[t]
        pts = [np.array(pos[v], dtype=float) for v in t]
        edges = np.stack([p - pts[0] for p in pts[1:]], axis=1)
        arrays.append(edges.T @ edges)
    return arrays


def oracle_assemble_stiffness(complex_, metric):
    n = complex_.n
    order = sorted(complex_.vertices)
    idx = {v: i for i, v in enumerate(order)}
    hats = hat_gradients(n)

    num_tops = len(complex_.top_simplices)
    tops = np.empty((num_tops, n + 1), dtype=np.intp)
    vols = np.empty(num_tops)
    ginv = np.empty((num_tops, n, n))
    rows, cols, vals = [], [], []
    masses = np.zeros(len(order))
    for s_i, top in enumerate(complex_.top_simplices):
        local = [idx[v] for v in top]
        tops[s_i] = local
        if metric.mode == "constant":
            g = metric.at(s_i)
            vol = simplex_volume(complex_, metric, s_i)
            g_hats = np.linalg.solve(g, hats.T)  # columns 1..n are g^-1
            ginv[s_i] = g_hats[:, 1:]
            k_local = hats @ g_hats * vol
            m_local = np.full(n + 1, vol / (n + 1))
        else:
            pts, wts = simplex_rule(n, max(metric.quadrature_order, 2))
            k_local = np.zeros((n + 1, n + 1))
            m_local = np.zeros(n + 1)
            vol = 0.0  # the sum simplex_volume takes, in the same order
            for xi, w in zip(pts, wts):
                g = metric.at(s_i, xi)
                dv = w * math.sqrt(np.linalg.det(g))
                vol += dv
                k_local += hats @ np.linalg.solve(g, hats.T) * dv
                lam = np.concatenate([[1.0 - xi.sum()], xi])
                m_local += lam * dv
            ginv[s_i] = np.linalg.inv(metric.at(s_i))
        vols[s_i] = vol
        for a in range(n + 1):
            masses[local[a]] += m_local[a]
            for b in range(n + 1):
                rows.append(local[a])
                cols.append(local[b])
                vals.append(k_local[a, b])

    S = coo_matrix((vals, (rows, cols)),
                   shape=(len(order), len(order))).tocsr()
    return S, masses, tops, vols, ginv


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def kuhn_cube(k, jitter, seed):
    """The unit cube cut into k^3 cells, each split into the six Kuhn
    tetrahedra along the monotone lattice paths; vertices jittered by
    ``jitter`` cell widths."""
    rng = np.random.default_rng(seed)
    ids = {p: i for i, p in enumerate(itertools.product(range(k + 1),
                                                        repeat=3))}
    verts = {i: (np.asarray(p, float) + jitter * rng.uniform(-1, 1, 3)) / k
             for p, i in ids.items()}
    tets = []
    for cell in itertools.product(range(k), repeat=3):
        for perm in itertools.permutations(range(3)):
            p = list(cell)
            path = [ids[tuple(p)]]
            for axis in perm:
                p[axis] += 1
                path.append(ids[tuple(p)])
            tets.append(tuple(path))
    return build_complex(verts, tets)


def smooth_metric(complex_, stack):
    """Smooth mode: the arrays times a positive non-constant factor of the
    reference coordinates."""
    def evaluator(g):
        return lambda xi: g * (1.0 + 0.4 * xi[0] + 0.3 * xi[1] ** 2)
    return PiecewiseMetric.from_evaluators(
        complex_, [evaluator(g) for g in stack])


@st.composite
def complexes(draw):
    """(complex, constant metric, oracle arrays of that metric)."""
    kind = draw(st.sampled_from(["square", "torus", "refined", "kuhn"]))
    seed = draw(st.integers(0, 10 ** 6))
    if kind == "square":
        c, m = meshes.unit_square_mesh(draw(st.integers(2, 6)), jitter=0.2,
                                       seed=seed)
        return c, m, oracle_from_embedding(c)
    if kind == "torus":
        k = draw(st.integers(3, 5))
        c, m = meshes.flat_torus(k)
        return c, m, oracle_from_arrays(c, oracle_flat_torus_arrays(k))
    if kind == "refined":
        c, m = meshes.unit_square_mesh(draw(st.integers(2, 4)), jitter=0.2,
                                       seed=seed)
        c, m, _ = meshes.refine(c, m)
        return c, m, oracle_from_arrays(c, list(m.stack))
    c = kuhn_cube(draw(st.integers(1, 2)), 0.15, seed)
    return c, PiecewiseMetric.from_embedding(c), oracle_from_embedding(c)


def assert_same_metric(m, arrays, evaluators=None):
    """Bit-identical stack, ellipticity and continuity flag."""
    assert m.stack.dtype == float and not m.stack.flags.writeable
    assert np.array_equal(m.stack, np.stack(arrays))
    want = tuple(oracle_ellipticity_constant(g) for g in arrays)
    assert m.ellipticity == want
    assert m.continuity_flag == oracle_faces_agree(
        m.complex, oracle_at(arrays, evaluators))


def assert_close(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(setup=complexes(), data=st.data())
def test_constant_metrics_match_per_array_constructors(setup, data):
    c, m, arrays = setup
    assert_same_metric(m, arrays)
    assert_same_metric(PiecewiseMetric.from_arrays(c, list(arrays)), arrays)
    # one simplex rescaled: its shared faces no longer match
    bad = data.draw(st.integers(0, len(arrays) - 1))
    broken = list(arrays)
    broken[bad] = 1.5 * broken[bad]
    got = PiecewiseMetric.from_arrays(c, broken)
    assert_same_metric(got, oracle_from_arrays(c, broken))
    assert not got.continuity_flag


@settings(max_examples=25, deadline=None, derandomize=True)
@given(setup=complexes())
def test_smooth_metrics_match_per_array_constructor(setup):
    c, m, _ = setup
    smooth = smooth_metric(c, m.stack)
    arrays = oracle_from_evaluators(c, smooth.evaluators)
    assert_same_metric(smooth, arrays, smooth.evaluators)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(setup=complexes())
def test_constant_assembly_matches_loop_bit_for_bit(setup):
    c, m, _ = setup
    system = assemble_stiffness(c, m)
    S, masses, tops, vols, ginv = oracle_assemble_stiffness(c, m)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(system.S, name), getattr(S, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert np.array_equal(system.masses, masses)
    assert np.array_equal(c.top_array, tops)
    assert np.array_equal(m.volumes, vols)
    assert np.array_equal(m.inverse, ginv)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(setup=complexes())
def test_smooth_assembly_matches_loop(setup):
    c, m, _ = setup
    smooth = smooth_metric(c, m.stack)
    system = assemble_stiffness(c, smooth)
    S, masses, _, vols, ginv = oracle_assemble_stiffness(c, smooth)
    assert np.array_equal(system.S.indptr, S.indptr)
    assert np.array_equal(system.S.indices, S.indices)
    assert_close(system.S.data, S.data)
    assert_close(system.masses, masses)
    assert_close(smooth.volumes, vols)
    assert_close(smooth.inverse, ginv)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 10 ** 6), m=st.integers(1, 4),
       kind=st.sampled_from(["spd", "asym", "indefinite", "nonsquare"]))
def test_ellipticity_constant_matches_per_array_oracle(seed, m, kind):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    g = a @ a.T + 0.1 * np.eye(m)
    if kind == "asym":
        g[0, -1] += 1e-3 * (1.0 + np.abs(g).max()) * (m > 1)
    elif kind == "indefinite":
        g -= 50.0 * np.eye(m)
    elif kind == "nonsquare":
        g = rng.standard_normal((m, m + 1))
    try:
        want = oracle_ellipticity_constant(g)
    except NotSPD as exc:
        with pytest.raises(NotSPD) as got:
            ellipticity_constant(g)
        assert str(got.value) == str(exc)
    else:
        assert ellipticity_constant(g) == want


# ---------------------------------------------------------------------------
# single faults
# ---------------------------------------------------------------------------

FAULTS = ["indefinite", "asym", "short", "long", "square_shape",
          "nonsquare_shape", "all_shapes"]


def with_fault(arrays, n, fault, bad):
    arrays = [np.array(a) for a in arrays]
    if fault == "indefinite":
        arrays[bad] = -arrays[bad]
    elif fault == "asym":
        arrays[bad][0, 1] += 1e-3 * np.abs(arrays[bad]).max()
    elif fault == "short":
        arrays.pop(bad)
    elif fault == "long":
        arrays.insert(bad, np.eye(n))
    elif fault == "square_shape":
        arrays[bad] = np.eye(n + 1)
    elif fault == "nonsquare_shape":
        arrays[bad] = np.ones((n, n + 1))
    else:
        arrays = [np.eye(n + 1)] * len(arrays)
    return arrays


@settings(max_examples=60, deadline=None, derandomize=True)
@given(setup=complexes(), fault=st.sampled_from(FAULTS), data=st.data())
def test_single_fault_raises_like_per_array_constructor(setup, fault, data):
    c, _, arrays = setup
    bad = data.draw(st.integers(0, len(arrays) - 1))
    faulty = with_fault(arrays, c.n, fault, bad)
    with pytest.raises(NotSPD) as want:
        oracle_from_arrays(c, faulty)
    with pytest.raises(NotSPD) as got:
        PiecewiseMetric.from_arrays(c, faulty)
    assert str(got.value) == str(want.value)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(setup=complexes(), data=st.data())
def test_degenerate_embedding_names_the_same_simplex(setup, data):
    c = setup[0]
    top = c.top_simplices[data.draw(st.integers(0, len(c.top_simplices) - 1))]
    # the first two vertices of ``top`` coincide: a zero edge vector
    verts = dict(c.vertices)
    verts[top[0]] = verts[top[1]].copy()
    flat = build_complex(verts, c.top_simplices)
    with pytest.raises(DegenerateSimplex) as want:
        oracle_from_embedding(flat)
    with pytest.raises(DegenerateSimplex) as got:
        PiecewiseMetric.from_embedding(flat)
    assert str(got.value) == str(want.value)
    named = next(t for t in c.top_simplices if str(t) in str(got.value))
    assert {top[0], top[1]} <= set(named)
