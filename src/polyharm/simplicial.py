"""Combinatorial structure of dimensionally homogeneous simplicial complexes.

A complex is described by its vertices (ids with embedding coordinates) and
its top simplices; everything else (face lattice, codimension-1 adjacency,
boundary flags, stars, links, admissibility) is derived.  Topology is purely
combinatorial: the embedding coordinates are carried along but only consumed
by the metric layer.

Instances are immutable after construction; all queries are read-only and
safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (
    DanglingVertexRef,
    Disconnected,
    DuplicateSimplex,
    MixedDimension,
    UnknownSimplex,
    UnknownVertex,
)

Simplex = tuple  # sorted tuple of vertex ids


@dataclass(frozen=True)
class SimplicialComplex:
    """Dimensionally homogeneous finite simplicial complex.

    Attributes
    ----------
    n : int
        Dimension (all top simplices have n+1 vertices).
    vertices : dict
        Vertex id -> embedding coordinates (1d float array, arbitrary
        ambient dimension; may be empty for abstract complexes).
    top_simplices : tuple
        Sorted (n+1)-tuples of vertex ids, lexicographically ordered.
    faces : dict
        Dimension -> frozenset of all sub-simplices of that dimension.
    cofaces : dict
        (n-1)-simplex -> tuple of indices into ``top_simplices``.
    boundary_faces : frozenset
        (n-1)-simplices adjacent to exactly one top simplex.
    """

    n: int
    vertices: dict
    top_simplices: tuple
    faces: dict = field(repr=False)
    cofaces: dict = field(repr=False)
    boundary_faces: frozenset = field(repr=False)

    # -- queries ----------------------------------------------------------

    def all_faces(self):
        """All simplices of the face lattice, every dimension."""
        for dim in sorted(self.faces):
            yield from sorted(self.faces[dim])

    def has_face(self, simplex) -> bool:
        s = tuple(sorted(simplex))
        return s in self.faces.get(len(s) - 1, frozenset())

    def top_index(self, simplex) -> int:
        s = tuple(sorted(simplex))
        try:
            return self._top_lookup[s]
        except KeyError:
            raise UnknownSimplex(f"{s} is not a top simplex")

    @property
    def _top_lookup(self):
        # built lazily; complex is frozen so caching on the instance dict
        # via object.__setattr__ keeps it immutable from the outside
        cache = self.__dict__.get("_top_lookup_cache")
        if cache is None:
            cache = {s: i for i, s in enumerate(self.top_simplices)}
            object.__setattr__(self, "_top_lookup_cache", cache)
        return cache

    @property
    def top_array(self) -> np.ndarray:
        """Read-only (T, n+1) array: row i holds the positions, in the
        sorted vertex order, of the sorted vertices of top simplex i."""
        cache = self.__dict__.get("_top_array_cache")
        if cache is None:
            pos = {v: i for i, v in enumerate(sorted(self.vertices))}
            cache = np.array([[pos[v] for v in t] for t in self.top_simplices],
                             dtype=np.intp)
            cache.setflags(write=False)
            object.__setattr__(self, "_top_array_cache", cache)
        return cache

    @property
    def _vertex_tops(self):
        """Vertex id -> set of indices of the top simplices containing it."""
        cache = self.__dict__.get("_vertex_tops_cache")
        if cache is None:
            cache = {}
            for i, t in enumerate(self.top_simplices):
                for v in t:
                    cache.setdefault(v, set()).add(i)
            object.__setattr__(self, "_vertex_tops_cache", cache)
        return cache

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def is_closed(self) -> bool:
        """True when there are no boundary (n-1)-simplices."""
        return not self.boundary_faces

    def boundary_vertices(self) -> frozenset:
        """Vertices lying on some boundary (n-1)-simplex."""
        out = set()
        for f in self.boundary_faces:
            out.update(f)
        return frozenset(out)

    def vertex_coords(self, v):
        try:
            return self.vertices[v]
        except KeyError:
            raise UnknownVertex(f"vertex {v!r} does not exist")

    def star(self, simplex):
        """Open star: all simplices whose closure contains ``simplex``.

        Returns the list of faces tau with tau >= simplex (as vertex sets),
        sorted by dimension then lexicographically.  The given simplex is
        a member of its own star.
        """
        key = set(simplex)
        out = {f for i in self.star_top(simplex)
               for k in range(len(key), self.n + 2)
               for f in combinations(self.top_simplices[i], k)
               if key.issubset(f)}
        return sorted(out, key=lambda f: (len(f), f))

    def star_top(self, simplex):
        """Indices, ascending, of the top simplices in the star of
        ``simplex``: the tops that contain it."""
        s = tuple(sorted(simplex))
        if not self.has_face(s):
            raise UnknownSimplex(f"{s} is not a simplex of the complex")
        first, *rest = (self._vertex_tops[v] for v in s)
        return sorted(first.intersection(*rest))

    def link(self, vertex) -> "SimplicialComplex":
        """Combinatorial link of a vertex, as a complex of dimension n-1.

        The link consists of the faces opposite ``vertex`` in every simplex
        containing it.  No metric is attached (link geometry is out of
        scope); embedding coordinates are inherited.  The result may be
        disconnected for non-admissible complexes, so no connectivity
        check is applied.
        """
        if vertex not in self.vertices:
            raise UnknownVertex(f"vertex {vertex!r} does not exist")
        tops = [tuple(w for w in self.top_simplices[i] if w != vertex)
                for i in self.star_top((vertex,))]
        verts = {v: self.vertices[v] for t in tops for v in t}
        return _derive(self.n - 1, verts, tuple(sorted(set(tops))))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the admissibility test.

    ``homogeneous`` is true by construction: every face of the lattice is
    derived from a top simplex of one dimension.  ``witnesses`` names the
    simplices whose stars fail local chainability.
    """

    homogeneous: bool
    chainable: bool
    witnesses: tuple

    @property
    def admissible(self) -> bool:
        return self.homogeneous and self.chainable


def _derive(n, vertices, tops) -> SimplicialComplex:
    """Build the derived structure without input validation."""
    faces: dict = {}
    for t in tops:
        for k in range(1, len(t) + 1):
            faces.setdefault(k - 1, set()).update(combinations(t, k))
    faces = {d: frozenset(fs) for d, fs in faces.items()}

    cofaces: dict = {}
    if n >= 1:
        for i, t in enumerate(tops):
            for f in combinations(t, n):
                cofaces.setdefault(f, []).append(i)
    cofaces = {f: tuple(ix) for f, ix in cofaces.items()}
    boundary = frozenset(f for f, ix in cofaces.items() if len(ix) == 1)

    return SimplicialComplex(
        n=n,
        vertices=dict(vertices),
        top_simplices=tuple(tops),
        faces=faces,
        cofaces=cofaces,
        boundary_faces=boundary,
    )


def build_complex(vertices, top_simplices) -> SimplicialComplex:
    """Construct and validate a simplicial complex.

    Parameters
    ----------
    vertices : sequence of coordinate tuples, or dict id -> coordinates
        When a sequence is given, vertex ids are 0..len-1.
    top_simplices : sequence of vertex-id tuples
        All of equal length n+1; the dimension n is inferred.

    Raises
    ------
    MixedDimension, DuplicateSimplex, DanglingVertexRef, Disconnected
    """
    if isinstance(vertices, dict):
        vmap = {v: np.asarray(c, dtype=float) for v, c in vertices.items()}
    else:
        vmap = {i: np.asarray(c, dtype=float) for i, c in enumerate(vertices)}
    if not vmap or not top_simplices:
        raise MixedDimension("empty vertex or simplex list")

    sizes = {len(t) for t in top_simplices}
    if len(sizes) != 1:
        raise MixedDimension(f"top simplices of unequal size: {sorted(sizes)}")
    n = sizes.pop() - 1

    tops = []
    seen = set()
    for t in top_simplices:
        if len(set(t)) != len(t):
            raise MixedDimension(f"repeated vertex in top simplex {t}")
        s = tuple(sorted(t))
        if s in seen:
            raise DuplicateSimplex(f"top simplex {s} listed twice")
        seen.add(s)
        for v in s:
            if v not in vmap:
                raise DanglingVertexRef(f"simplex {s} references unknown vertex {v!r}")
        tops.append(s)
    tops = tuple(sorted(tops))

    complex_ = _derive(n, vmap, tops)

    used = {v for t in tops for v in t}
    if used != set(vmap):
        raise Disconnected(f"vertices {sorted(set(vmap) - used)!r} belong to no top simplex")
    _check_connected(complex_)
    return complex_


def _check_connected(complex_: SimplicialComplex):
    """Path-connectivity of the 1-skeleton (BFS over edges)."""
    verts = list(complex_.vertices)
    if len(verts) <= 1:
        return
    adj = {v: set() for v in verts}
    edge_dim = 1 if complex_.n >= 1 else None
    if edge_dim is None or edge_dim not in complex_.faces:
        raise Disconnected("complex has more than one vertex but no edges")
    for a, b in complex_.faces[1]:
        adj[a].add(b)
        adj[b].add(a)
    seen = _reachable(verts[0], adj.__getitem__)
    if len(seen) != len(verts):
        raise Disconnected(
            f"1-skeleton splits; e.g. vertex {next(iter(set(verts) - seen))!r} unreachable"
        )


def _reachable(start, neighbours) -> set:
    """Nodes reachable from ``start`` (depth-first); ``neighbours(node)``
    iterates the nodes adjacent to ``node``."""
    seen = {start}
    stack = [start]
    while stack:
        for w in neighbours(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check_admissible(complex_: SimplicialComplex) -> AdmissibilityReport:
    """Test local (n-1)-chainability; dimensional homogeneity holds by
    construction (see AdmissibilityReport).

    Chainability is checked star by star: for every simplex sigma, the top
    simplices of st(sigma) must form a connected graph where two tops are
    adjacent when they share an (n-1)-face containing sigma.  This local
    test is the decidable equivalent of requiring that removing the
    codimension-2 skeleton leaves every connected open set connected.
    """
    witnesses = []
    for dim in sorted(complex_.faces):
        if dim >= complex_.n:
            continue
        for sigma in sorted(complex_.faces[dim]):
            tops = complex_.star_top(sigma)
            if len(tops) <= 1:
                continue
            if not _star_chainable(complex_, sigma, tops):
                witnesses.append(sigma)
    return AdmissibilityReport(
        homogeneous=True,
        chainable=not witnesses,
        witnesses=tuple(witnesses),
    )


def _star_chainable(complex_, sigma, tops) -> bool:
    """Connectivity of star tops through shared (n-1)-faces containing sigma.

    The (n-1)-faces of top t through sigma are t minus one vertex w not in
    sigma; the tops sharing such a face are its ``cofaces``.
    """
    key = set(sigma)

    def neighbours(i):
        t = complex_.top_simplices[i]
        for w in t:
            if w not in key:
                yield from complex_.cofaces[tuple(v for v in t if v != w)]

    return len(_reachable(tops[0], neighbours)) == len(tops)
