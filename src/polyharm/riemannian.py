"""Piecewise Riemannian metrics on simplicial complexes.

Every top simplex with sorted vertices (v0, ..., vn) carries reference
coordinates xi in the unit simplex {xi >= 0, sum xi <= 1}: vertex v0 sits at
the origin and vertex vi at e_i.  All per-simplex tensors (metric, map
differentials, hat gradients) are expressed in this frame.  The metric
induced by an embedding is then the Gram matrix of the edge vectors, and the
reference euclidean metric is the identity array.

Baseline mode stores one constant SPD array per top simplex, which makes PL
gradients, volumes and stiffness entries exact.  Smooth mode stores an
evaluator over reference coordinates and integrates by quadrature.

Metrics are immutable after construction; distance queries are independent
and concurrently evaluable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import DegenerateSimplex, NotSPD, PointOffComplex, UnknownSimplex
from .simplicial import SimplicialComplex

FACE_MATCH_TOL = 1e-12  # absolute tolerance for metric agreement across faces


# ---------------------------------------------------------------------------
# quadrature on the reference simplex
# ---------------------------------------------------------------------------

def simplex_rule(n: int, order: int):
    """Quadrature nodes and weights on the unit reference n-simplex.

    Weights sum to the simplex volume 1/n!.  Order 1 is the barycenter
    rule; order 2 on triangles is the edge-midpoint rule (degree 2);
    higher orders use a collapsed (Duffy) tensor Gauss-Legendre grid with
    ``order`` points per axis, exact for polynomials of total degree
    >= 2*order - 1 - n.
    """
    vol = 1.0 / math.factorial(n)
    if order <= 1:
        return np.full((1, n), 1.0 / (n + 1)), np.array([vol])
    if order == 2 and n == 2:
        pts = np.array([[0.5, 0.0], [0.0, 0.5], [0.5, 0.5]])
        return pts, np.full(3, vol / 3.0)
    return _duffy_rule(n, order)


def _duffy_rule(n: int, points_per_axis: int):
    x, w = np.polynomial.legendre.leggauss(points_per_axis)
    x = 0.5 * (x + 1.0)  # [0, 1]
    w = 0.5 * w
    grids = np.meshgrid(*([x] * n), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * n), indexing="ij")
    weights = np.ones(u.shape[0])
    for g in wgrids:
        weights = weights * g.ravel()
    pts = np.empty_like(u)
    rem = np.ones(u.shape[0])
    for k in range(n):
        pts[:, k] = u[:, k] * rem
        weights = weights * rem
        rem = rem * (1.0 - u[:, k])
    return pts, weights


# ---------------------------------------------------------------------------
# SPD helpers
# ---------------------------------------------------------------------------

def _require_spd_stack(stack, what="metric") -> np.ndarray:
    """Ascending eigenvalues (k, m) of a (k, m, m) float stack checked
    symmetric positive definite in one batch: the first array that has a
    non-finite entry, is not symmetric or is not positive definite raises
    NotSPD with its position as ``index``."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise NotSPD(f"{what} is not square: shape {stack.shape[1:]}")
    eye = np.eye(stack.shape[1])
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack = np.where(finite[:, None, None], stack, eye)
    scale = np.fmax(1.0, np.abs(stack).max(axis=(1, 2)))
    sym = np.isclose(stack, stack.swapaxes(1, 2), rtol=0.0,
                     atol=1e-12 * scale[:, None, None]).all(axis=(1, 2))
    ev = np.linalg.eigvalsh(np.where(sym[:, None, None], stack, eye))
    bad = ~finite | ~sym | (ev[:, 0] <= 0.0)
    if bad.any():
        first = int(np.argmax(bad))
        if not finite[first]:
            reason = "has a non-finite entry"
        elif not sym[first]:
            reason = "is not symmetric"
        else:
            reason = f"has non-positive eigenvalue {ev[first, 0]:g}"
        raise NotSPD(f"{what} {reason}", index=first)
    return ev


def _require_spd(g, what="metric") -> np.ndarray:
    """The check of ``_require_spd_stack`` on one array; returns it as a
    float array."""
    g = np.asarray(g, dtype=float)
    _require_spd_stack(g[None], what)
    return g


def _ellipticity(ev) -> np.ndarray:
    """Per row of ascending eigenvalues: see ellipticity_constant."""
    return np.fmax(np.sqrt(ev[:, -1]), 1.0 / np.sqrt(ev[:, 0]))


def ellipticity_constant(g) -> float:
    """Smallest Lambda with Lambda^-2 |xi|^2 <= xi.g.xi <= Lambda^2 |xi|^2.

    Equals max(sqrt(lambda_max), 1/sqrt(lambda_min)) over the eigenvalues
    of g.  Raises NotSPD when g is not symmetric positive definite.
    """
    return float(_ellipticity(
        _require_spd_stack(np.asarray(g, dtype=float)[None]))[0])


def quadrature_sum(values) -> np.ndarray:
    """Sum over axis 1, the quadrature points, in point order from zero:
    the rounding of a loop over the points."""
    total = np.zeros(values.shape[:1] + values.shape[2:])
    for k in range(values.shape[1]):
        total += values[:, k]
    return total


# ---------------------------------------------------------------------------
# the piecewise metric
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PiecewiseMetric:
    """Per-top-simplex SPD metric in reference coordinates.

    mode is "constant" (one array per simplex) or "smooth" (one evaluator
    xi -> array per simplex).  ``stack`` is the read-only (T, n, n) stack
    of barycenter values, so cheap queries never call evaluators.  It is
    checked symmetric positive definite in one batch at construction, and
    the ellipticity constants come from the same eigenvalues.  ``volumes``
    (T,) and ``inverse`` (T, n, n) are built from it on first use and
    cached.
    """

    complex: SimplicialComplex
    mode: str
    stack: np.ndarray  # barycenter value per top simplex
    evaluators: tuple = None  # smooth mode only
    quadrature_order: int = 1
    ellipticity: tuple = field(init=False, repr=False)
    continuity_flag: bool = field(init=False, repr=False)

    def __post_init__(self):
        n, count = self.n, len(self.complex.top_simplices)
        if len(self.stack) != count:
            raise NotSPD(f"need {count} arrays, got {len(self.stack)}")
        try:
            stack = np.array(self.stack, dtype=float)
        except ValueError:  # shapes differ: check the first not n x n
            stack = np.array([a for a in self.stack
                              if np.shape(a) != (n, n)][:1], dtype=float)
        ev = _require_spd_stack(stack)
        if stack.shape[1:] != (n, n):
            raise NotSPD(f"array shape {stack.shape[1:]} != ({n}, {n})")
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "ellipticity",
                           tuple(_ellipticity(ev).tolist()))
        object.__setattr__(self, "continuity_flag", self._faces_agree())

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_arrays(cls, complex_, arrays):
        return cls(complex_, "constant", arrays)

    @classmethod
    def euclidean(cls, complex_):
        """The reference euclidean metric: identity array on every simplex."""
        n = complex_.n
        return cls(complex_, "constant", np.broadcast_to(
            np.eye(n), (len(complex_.top_simplices), n, n)))

    @classmethod
    def from_embedding(cls, complex_):
        """Gram matrices of the embedded edge vectors."""
        coords = np.stack([complex_.vertices[v]
                           for v in sorted(complex_.vertices)])
        corners = coords[complex_.top_array]
        edges = corners[:, 1:] - corners[:, :1]
        try:
            return cls(complex_, "constant", edges @ edges.swapaxes(1, 2))
        except NotSPD as exc:
            raise DegenerateSimplex(
                f"simplex {complex_.top_simplices[exc.index]} has "
                f"degenerate embedding")

    @classmethod
    def from_evaluators(cls, complex_, evaluators, quadrature_order=2):
        """Smooth mode: ``evaluators[i](xi)`` returns the SPD array on
        top simplex i at reference coordinates xi."""
        evs = tuple(evaluators)
        bary = np.full(complex_.n, 1.0 / (complex_.n + 1))
        return cls(complex_, "smooth", [ev(bary) for ev in evs], evs,
                   quadrature_order)

    # -- queries -----------------------------------------------------------

    @property
    def n(self):
        return self.complex.n

    @property
    def global_ellipticity(self) -> float:
        return max(self.ellipticity)

    @property
    def volumes(self) -> np.ndarray:
        """Read-only (T,) simplex volumes: sqrt(det g) / n! in constant
        mode, the default-order quadrature of ``simplex_volume`` in smooth
        mode."""
        cache = self.__dict__.get("_volumes_cache")
        if cache is None:
            if self.mode == "constant":
                cache = (np.sqrt(np.linalg.det(self.stack))
                         / math.factorial(self.n))
            else:
                cache = _quadrature_volumes(
                    self, range(len(self.stack)),
                    max(self.quadrature_order, 2))
            cache.setflags(write=False)
            object.__setattr__(self, "_volumes_cache", cache)
        return cache

    @property
    def inverse(self) -> np.ndarray:
        """Read-only (T, n, n) inverses of the barycenter arrays."""
        cache = self.__dict__.get("_inverse_cache")
        if cache is None:
            cache = np.linalg.inv(self.stack)
            cache.setflags(write=False)
            object.__setattr__(self, "_inverse_cache", cache)
        return cache

    def at(self, idx, xi=None):
        """Metric array on top simplex ``idx`` at reference point xi
        (barycenter when omitted)."""
        if self.mode == "constant" or xi is None:
            return self.stack[idx]
        return _require_spd(self.evaluators[idx](np.asarray(xi)))

    def at_points(self, idx, pts) -> np.ndarray:
        """(len(idx), q, n, n): the arrays on the top simplices ``idx`` at
        the q reference points ``pts``, evaluated point by point in
        simplex order."""
        return np.array([[self.at(i, xi) for xi in pts] for i in idx])

    def scaled(self, factor: float) -> "PiecewiseMetric":
        """Metric multiplied by a positive constant."""
        if factor <= 0:
            raise NotSPD("scale factor must be positive")
        if self.mode == "constant":
            return PiecewiseMetric(self.complex, "constant",
                                   factor * self.stack)
        evs = tuple((lambda e: (lambda xi: factor * np.asarray(e(xi))))(e)
                    for e in self.evaluators)
        return PiecewiseMetric.from_evaluators(self.complex, evs,
                                               self.quadrature_order)

    # -- face compatibility -------------------------------------------------

    def _faces_agree(self) -> bool:
        """Whether each (n-1)-face shared by several top simplices gets
        the same metric, within FACE_MATCH_TOL, from all of them as from
        the lowest-index one.  The face omitting the vertex at position j
        has the same reference frame and barycenter in every simplex."""
        n, tops = self.n, self.complex.top_array
        keep = np.array([[p for p in range(n + 1) if p != j]
                         for j in range(n + 1)], dtype=np.intp)
        ref = np.vstack([np.zeros(n), np.eye(n)])  # vertex reference coords
        frames = (ref[keep[:, 1:]] - ref[keep[:, :1]]).swapaxes(1, 2)
        centers = ref[keep].mean(axis=1)
        _, first, group, counts = np.unique(
            tops[:, keep].reshape(-1, n), axis=0, return_index=True,
            return_inverse=True, return_counts=True)
        group = group.ravel()
        shared = np.flatnonzero(counts[group] >= 2)  # (simplex, j) pairs
        t, j = np.divmod(shared, n + 1)
        if self.mode == "constant":
            g = self.stack[t]
        else:
            g = np.array([self.at(i, centers[k]) for i, k in
                          zip(t.tolist(), j.tolist())]).reshape(-1, n, n)
        restr = frames[j].swapaxes(1, 2) @ g @ frames[j]
        base = restr[np.searchsorted(shared, first[group[shared]])]
        return not (np.abs(restr - base) > FACE_MATCH_TOL).any()


# ---------------------------------------------------------------------------
# volumes and gradient pairings
# ---------------------------------------------------------------------------

def simplex_volume(complex_, metric: PiecewiseMetric, idx, order=None):
    """Riemannian volume of top simplex ``idx``; an integer index array
    gives the volumes of those simplices as an array.

    Constant mode: sqrt(det g) / n!, read from ``metric.volumes``.  Smooth
    mode: quadrature of sqrt(det g(xi)) at the requested order (the
    metric's default, cached in ``metric.volumes``, otherwise).
    """
    if metric.mode == "constant" or not order:
        vol = metric.volumes[idx]
    else:
        vol = _quadrature_volumes(metric, np.reshape(idx, -1),
                                  order).reshape(np.shape(idx))
    return vol if np.ndim(vol) else float(vol)


def _quadrature_volumes(metric, idx, order) -> np.ndarray:
    pts, wts = simplex_rule(metric.n, order)
    return quadrature_sum(
        wts * np.sqrt(np.linalg.det(metric.at_points(idx, pts))))


def total_volume(complex_, metric, order=None) -> float:
    return sum(simplex_volume(complex_, metric,
                              np.arange(len(complex_.top_simplices)),
                              order).tolist())


def gradient_inner(metric: PiecewiseMetric, idx, du, dv, xi=None) -> float:
    """Inner product of the gradients of two PL functions on one simplex.

    du, dv are differentials (covector rows) in reference coordinates;
    the gradient pairing is du . g^-1 . dv.
    """
    g = metric.at(idx, xi)
    du = np.asarray(du, dtype=float)
    dv = np.asarray(dv, dtype=float)
    return float(du @ np.linalg.solve(g, dv))


# ---------------------------------------------------------------------------
# intrinsic distance by subdivision-graph shortest paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointAddress:
    """A point of the complex: top simplex index plus barycentric weights
    (n+1 nonnegative reals summing to one, aligned with the sorted vertex
    order of the simplex)."""

    top_index: int
    bary: tuple

    def ref_coords(self):
        return np.asarray(self.bary[1:], dtype=float)


def point_on(complex_, top_index, bary) -> PointAddress:
    bary = tuple(float(b) for b in bary)
    if not 0 <= top_index < len(complex_.top_simplices):
        raise PointOffComplex(f"no top simplex with index {top_index}")
    if len(bary) != complex_.n + 1:
        raise PointOffComplex("barycentric address has wrong length")
    if min(bary) < -1e-12 or abs(sum(bary) - 1.0) > 1e-9:
        raise PointOffComplex(f"invalid barycentric weights {bary}")
    return PointAddress(top_index, bary)


def vertex_address(complex_, v) -> PointAddress:
    """Address of a vertex (carried by the first top simplex containing it)."""
    try:
        i = complex_.star_top((v,))[0]
    except UnknownSimplex:
        raise PointOffComplex(f"vertex {v!r} not on any top simplex")
    bary = [0.0] * (complex_.n + 1)
    bary[complex_.top_simplices[i].index(v)] = 1.0
    return PointAddress(i, tuple(bary))


@dataclass(frozen=True)
class DistanceEstimate:
    upper_bound: float
    graph_nodes: int
    graph_edges: int


def intrinsic_distance(complex_, metric, x, y, refinement_level=3) -> DistanceEstimate:
    """Upper bound for the intrinsic distance between two points.

    Nodes are the points of the 2^level-fold edge subdivision (plus x and
    y); within every top simplex all node pairs are joined by an edge
    weighted with the within-simplex metric length of the straight
    reference segment.  The estimate is monotone non-increasing in the
    level (dyadic lattices are nested) and converges to the intrinsic
    distance from above for constant-per-simplex metrics.
    """
    if not isinstance(x, PointAddress):
        x = point_on(complex_, *x)
    if not isinstance(y, PointAddress):
        y = point_on(complex_, *y)
    if refinement_level < 0:
        raise PointOffComplex("refinement_level must be >= 0")
    if x.top_index == y.top_index and np.allclose(x.bary, y.bary, rtol=0, atol=0):
        return DistanceEstimate(0.0, 0, 0)

    n = complex_.n
    level = int(refinement_level)
    lat = 2 ** level

    node_ids: dict = {}
    node_ref: dict = {}  # (simplex idx) -> list of (node id, xi)

    def node_key_for(top, beta):
        support = tuple((v, Fraction(b, lat)) for v, b in zip(top, beta) if b)
        return support

    for idx, top in enumerate(complex_.top_simplices):
        pts = []
        for beta in _compositions(lat, n + 1):
            key = node_key_for(top, beta)
            nid = node_ids.setdefault(key, len(node_ids))
            xi = np.array(beta[1:], dtype=float) / lat
            pts.append((nid, xi))
        node_ref[idx] = pts

    edges: dict = {}  # (id a, id b) -> min length over carrying simplices

    def connect(idx, pts):
        g = metric.at(idx)
        arr = np.stack([xi for _, xi in pts])
        ids = [nid for nid, _ in pts]
        diffs = arr[:, None, :] - arr[None, :, :]
        if metric.mode == "smooth":
            # midpoint evaluation, adequate for the upper-bound contract
            lens = np.empty(diffs.shape[:2])
            for a in range(len(pts)):
                for b in range(a + 1, len(pts)):
                    gm = metric.at(idx, 0.5 * (arr[a] + arr[b]))
                    lens[a, b] = math.sqrt(diffs[a, b] @ gm @ diffs[a, b])
        else:
            lens = np.sqrt(np.einsum("abi,ij,abj->ab", diffs, g, diffs))
        iu, ju = np.triu_indices(len(pts), k=1)
        for a, b in zip(iu, ju):
            key = (ids[a], ids[b]) if ids[a] < ids[b] else (ids[b], ids[a])
            w = lens[a, b]
            if key not in edges or w < edges[key]:
                edges[key] = w

    # attach the query points: a query point on a shared face is connected
    # inside every top simplex containing that face
    extra = []
    for label, addr in (("x", x), ("y", y)):
        top = complex_.top_simplices[addr.top_index]
        support = tuple(v for v, b in zip(top, addr.bary) if b > 1e-12)
        nid = len(node_ids) + len(extra)
        bmap = dict(zip(top, addr.bary))
        carriers = [(idx2, np.array([bmap.get(v, 0.0)
                                     for v in complex_.top_simplices[idx2][1:]]))
                    for idx2 in complex_.star_top(support)]
        extra.append((label, nid, carriers))

    for idx, pts in node_ref.items():
        all_pts = list(pts)
        for _, nid, carriers in extra:
            for cidx, xi2 in carriers:
                if cidx == idx:
                    all_pts.append((nid, xi2))
        connect(idx, all_pts)

    total_nodes = len(node_ids) + len(extra)
    rows = np.fromiter((k[0] for k in edges), dtype=int, count=len(edges))
    cols = np.fromiter((k[1] for k in edges), dtype=int, count=len(edges))
    vals = np.fromiter(edges.values(), dtype=float, count=len(edges))
    graph = coo_matrix((vals, (rows, cols)), shape=(total_nodes, total_nodes))
    src = extra[0][1]
    dst = extra[1][1]
    dist = dijkstra(graph, directed=False, indices=[src])[0]
    d = float(dist[dst])
    if not np.isfinite(d):
        raise PointOffComplex("no path between the points (disconnected graph?)")
    return DistanceEstimate(d, total_nodes, len(edges))


def _compositions(total, parts):
    """All nonnegative integer tuples of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest
