"""Mesh constructions used by tests, suites and the CLI examples.

Everything here is desk scale: structured unit-square meshes (optionally
jittered for convergence studies where structured meshes are exactly
superconvergent), small canonical complexes (fan, book, glued triangles)
and flat tori built from unit grid cells with explicitly unfolded
per-simplex metrics.  ``refine`` implements red refinement of 2-complexes
carrying metric and PL data, with the child metrics conjugated exactly
from the parents so abstract complexes (tori) refine without an embedding.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownSpec
from .maps import PLMap
from .riemannian import PiecewiseMetric
from .simplicial import SimplicialComplex, build_complex


# ---------------------------------------------------------------------------
# canonical small complexes
# ---------------------------------------------------------------------------

def unit_right_triangle():
    c = build_complex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)])
    return c, PiecewiseMetric.from_embedding(c)

def two_triangles_shared_edge():
    c = build_complex([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)],
                      [(0, 1, 2), (1, 2, 3)])
    return c, PiecewiseMetric.from_embedding(c)

def two_triangles_shared_vertex():
    return build_complex(
        [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)],
        [(0, 1, 2), (0, 3, 4)])

def triangle_fan(count=5):
    """Closed fan (wheel): apex 0 surrounded by ``count`` triangles."""
    verts = [(0.0, 0.0)]
    for i in range(count):
        a = 2 * np.pi * i / count
        verts.append((np.cos(a), np.sin(a)))
    tris = [(0, 1 + i, 1 + (i + 1) % count) for i in range(count)]
    return build_complex(verts, tris)

def triangle_book(pages=3):
    """``pages`` triangles glued along one common edge."""
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]
    tris = []
    for p in range(pages):
        a = np.pi * p / max(pages, 2)
        verts.append((0.5, np.cos(a), np.sin(a)))
        tris.append((0, 1, 2 + p))
    return build_complex(verts, tris)

def cone_over_polygon(sides=6):
    """Cone: apex joined to a closed polygon (boundary circle)."""
    verts = [(0.0, 0.0, 1.0)]
    for i in range(sides):
        a = 2 * np.pi * i / sides
        verts.append((np.cos(a), np.sin(a), 0.0))
    tris = [(0, 1 + i, 1 + (i + 1) % sides) for i in range(sides)]
    return build_complex(verts, tris)


# ---------------------------------------------------------------------------
# structured planar meshes
# ---------------------------------------------------------------------------

def rectangle_mesh(nx, ny, x0=0.0, x1=1.0, y0=0.0, y1=1.0,
                   jitter=0.0, seed=0):
    """Right-triangle mesh of a rectangle with nx x ny cells.

    ``jitter`` displaces interior vertices by up to jitter*h in each
    coordinate (deterministic for a fixed seed).  Structured meshes are
    exactly superconvergent for quadratic data, so convergence studies
    should pass a nonzero jitter.
    """
    hx = (x1 - x0) / nx
    hy = (y1 - y0) / ny
    rng = np.random.default_rng(seed)
    verts = []
    vid = {}
    for j in range(ny + 1):
        for i in range(nx + 1):
            x = x0 + i * hx
            y = y0 + j * hy
            if jitter and 0 < i < nx and 0 < j < ny:
                x += jitter * hx * rng.uniform(-1.0, 1.0)
                y += jitter * hy * rng.uniform(-1.0, 1.0)
            vid[(i, j)] = len(verts)
            verts.append((x, y))
    tris = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid[(i, j)], vid[(i + 1, j)]
            c, d = vid[(i, j + 1)], vid[(i + 1, j + 1)]
            tris.append((a, b, d))
            tris.append((a, d, c))
    c = build_complex(verts, tris)
    return c, PiecewiseMetric.from_embedding(c)


def unit_square_mesh(k, jitter=0.0, seed=0):
    return rectangle_mesh(k, k, jitter=jitter, seed=seed)


def distorted_square_mesh(k):
    """Unit-square mesh pushed through a fixed smooth boundary-preserving
    distortion.

    Structured meshes reproduce quadratic harmonic data exactly (the
    assembled stencils annihilate harmonic Hessians), which makes
    convergence orders unmeasurable; this deterministic distortion breaks
    the symmetry while keeping a quasi-uniform shape-regular family, so
    second-order convergence is visible at desk scale.
    """
    def distort(x, y):
        b = x * (1.0 - x) * y * (1.0 - y)
        return (x + 1.2 * b, y + 0.9 * b * (1.0 - 2.0 * x))

    hx = 1.0 / k
    verts = []
    vid = {}
    for j in range(k + 1):
        for i in range(k + 1):
            vid[(i, j)] = len(verts)
            verts.append(distort(i * hx, j * hx))
    tris = []
    for j in range(k):
        for i in range(k):
            a, b = vid[(i, j)], vid[(i + 1, j)]
            c, d = vid[(i, j + 1)], vid[(i + 1, j + 1)]
            tris.append((a, b, d))
            tris.append((a, d, c))
    c = build_complex(verts, tris)
    return c, PiecewiseMetric.from_embedding(c)


# ---------------------------------------------------------------------------
# flat torus
# ---------------------------------------------------------------------------

def flat_torus(k=3, width=None):
    """Flat torus from a (width or k) x k grid of unit cells.

    Vertices are the grid points of [0, w) x [0, k) with opposite sides
    identified; every cell is split into two right triangles whose metric
    is the Gram matrix of the unfolded (pre-identification) edge vectors.
    The stored vertex coordinates are the fundamental-domain positions and
    must not be used to induce a metric (wrap simplices would degenerate).
    Needs k >= 3 (and width >= 3) to stay simplicial.
    """
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
    corners = np.array([[lookup[t][v] for v in t]
                        for t in complex_.top_simplices], dtype=float)
    edges = corners[:, 1:] - corners[:, :1]
    return complex_, PiecewiseMetric.from_arrays(
        complex_, edges @ edges.swapaxes(1, 2))


# ---------------------------------------------------------------------------
# red refinement of 2-complexes
# ---------------------------------------------------------------------------

def refine(complex_: SimplicialComplex, metric: PiecewiseMetric = None,
           plmaps=()):
    """One red-refinement step of a 2-complex.

    Each triangle splits into four; edge midpoints become new vertices.
    The child metrics are the parent arrays conjugated by the exact affine
    inclusion, so no embedding is needed and flat geometry stays flat.
    PL maps are carried along by midpoint interpolation (the same map on
    the finer complex).

    Returns (complex, metric, refined_plmaps_tuple).
    """
    if complex_.n != 2:
        raise UnknownSpec("red refinement implemented for 2-complexes only")

    next_id = max(complex_.vertices) + 1
    midpoint = {}
    verts = dict(complex_.vertices)
    for a, b in sorted(complex_.faces[1]):
        midpoint[(a, b)] = next_id
        verts[next_id] = 0.5 * (np.asarray(complex_.vertices[a])
                                + np.asarray(complex_.vertices[b]))
        next_id += 1

    def mid(a, b):
        return midpoint[(a, b) if a < b else (b, a)]

    tris = []
    parents = []  # (parent index, child vertex -> parent ref coords)
    for pidx, (v0, v1, v2) in enumerate(complex_.top_simplices):
        ref = {v0: np.array([0.0, 0.0]), v1: np.array([1.0, 0.0]),
               v2: np.array([0.0, 1.0])}
        m01, m02, m12 = mid(v0, v1), mid(v0, v2), mid(v1, v2)
        ref[m01] = 0.5 * (ref[v0] + ref[v1])
        ref[m02] = 0.5 * (ref[v0] + ref[v2])
        ref[m12] = 0.5 * (ref[v1] + ref[v2])
        for child in ((v0, m01, m02), (v1, m01, m12),
                      (v2, m02, m12), (m01, m02, m12)):
            tris.append(child)
            parents.append((pidx, ref))

    fine = build_complex(verts, tris)

    fine_metric = None
    if metric is not None:
        arrays = [None] * len(fine.top_simplices)
        for raw, (pidx, ref) in zip(tris, parents):
            t = tuple(sorted(raw))
            a = np.stack([ref[v] - ref[t[0]] for v in t[1:]], axis=1)
            g = metric.at(pidx)
            arrays[fine.top_index(t)] = a.T @ g @ a
        fine_metric = PiecewiseMetric.from_arrays(fine, arrays)

    fine_maps = []
    for pm in plmaps:
        vals = {v: pm.values[v].copy() for v in complex_.vertices}
        for (a, b), m in midpoint.items():
            vals[m] = 0.5 * (pm.values[a] + pm.values[b])
        fine_maps.append(PLMap(fine, vals))
    return fine, fine_metric, tuple(fine_maps)
