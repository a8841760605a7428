"""The incidence queries against the top-simplex scans they replaced.

The ``oracle_*`` functions below are the scanning implementations of
``check_admissible``, ``_star_chainable``, ``_check_connected``,
``vertex_address`` and the ``star``, ``star_top`` and ``link`` methods of
``SimplicialComplex``, kept verbatim as the reference (methods as functions
of the complex, and ``check_admissible`` calling the oracle ``star_top``).
The property tests compare them with the library over random glued
complexes: bowties, books, cones, fans, square meshes with random
diagonals glued at a corner or along edges, subsets of a Kuhn-subdivided
cube, tetrahedra sharing only a vertex or an edge, a book beside a cone
with nothing shared, and triangle soups that may fall apart.
"""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyharm import meshes
from polyharm.errors import (Disconnected, PointOffComplex, UnknownSimplex,
                             UnknownVertex)
from polyharm.riemannian import PointAddress, vertex_address
from polyharm.simplicial import (AdmissibilityReport, SimplicialComplex,
                                 _check_connected, _derive, build_complex,
                                 check_admissible)


# ---------------------------------------------------------------------------
# the scanning oracles
# ---------------------------------------------------------------------------

def oracle_star(self, simplex):
    """Open star: all simplices whose closure contains ``simplex``.

    Returns the list of faces tau with tau >= simplex (as vertex sets),
    sorted by dimension then lexicographically.  The given simplex is
    a member of its own star.
    """
    s = tuple(sorted(simplex))
    if not self.has_face(s):
        raise UnknownSimplex(f"{s} is not a simplex of the complex")
    key = set(s)
    out = []
    for dim in sorted(self.faces):
        if dim < len(s) - 1:
            continue
        out.extend(t for t in sorted(self.faces[dim]) if key.issubset(t))
    return out


def oracle_star_top(self, simplex):
    """Indices of the top simplices in the star of ``simplex``."""
    s = tuple(sorted(simplex))
    if not self.has_face(s):
        raise UnknownSimplex(f"{s} is not a simplex of the complex")
    key = set(s)
    return [i for i, t in enumerate(self.top_simplices) if key.issubset(t)]


def oracle_link(self, vertex) -> "SimplicialComplex":
    """Combinatorial link of a vertex, as a complex of dimension n-1."""
    if vertex not in self.vertices:
        raise UnknownVertex(f"vertex {vertex!r} does not exist")
    tops = [tuple(w for w in t if w != vertex)
            for t in self.top_simplices if vertex in t]
    verts = {v: self.vertices[v] for t in tops for v in t}
    return _derive(self.n - 1, verts, tuple(sorted(set(tops))))


def oracle_check_connected(complex_: SimplicialComplex):
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
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(verts):
        raise Disconnected(
            f"1-skeleton splits; e.g. vertex {next(iter(set(verts) - seen))!r} unreachable"
        )


def oracle_check_admissible(complex_: SimplicialComplex) -> AdmissibilityReport:
    """Test local (n-1)-chainability star by star."""
    witnesses = []
    for dim in sorted(complex_.faces):
        if dim >= complex_.n:
            continue
        for sigma in sorted(complex_.faces[dim]):
            tops = oracle_star_top(complex_, sigma)
            if len(tops) <= 1:
                continue
            if not oracle_star_chainable(complex_, sigma, tops):
                witnesses.append(sigma)
    return AdmissibilityReport(
        homogeneous=True,
        chainable=not witnesses,
        witnesses=tuple(witnesses),
    )


def oracle_star_chainable(complex_, sigma, tops) -> bool:
    """Connectivity of star tops through shared (n-1)-faces containing sigma."""
    key = set(sigma)
    n = complex_.n
    adj = {i: set() for i in tops}
    for i_pos, i in enumerate(tops):
        for j in tops[i_pos + 1:]:
            shared = set(complex_.top_simplices[i]) & set(complex_.top_simplices[j])
            if len(shared) >= n and key.issubset(shared):
                # shared vertex set contains an (n-1)-face through sigma
                adj[i].add(j)
                adj[j].add(i)
    seen = {tops[0]}
    stack = [tops[0]]
    while stack:
        t = stack.pop()
        for u in adj[t]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(tops)


def oracle_vertex_address(complex_, v) -> PointAddress:
    """Address of a vertex (carried by the first top simplex containing it)."""
    for i, t in enumerate(complex_.top_simplices):
        if v in t:
            bary = [0.0] * (complex_.n + 1)
            bary[t.index(v)] = 1.0
            return PointAddress(i, tuple(bary))
    raise PointOffComplex(f"vertex {v!r} not on any top simplex")


# ---------------------------------------------------------------------------
# random glued complexes, as lists of top simplices
# ---------------------------------------------------------------------------

def bowtie(count):
    """``count`` triangles sharing only the vertex 0."""
    return [(0, 2 * i + 1, 2 * i + 2) for i in range(count)]


def book(pages):
    return [(0, 1, 2 + p) for p in range(pages)]


def cone(sides):
    return [(0, 1 + i, 1 + (i + 1) % sides) for i in range(sides)]


def fan(count, closed):
    """Triangles around the apex 0; ``closed`` joins the last to the first."""
    rim = count if closed else count + 1
    return [(0, 1 + i, 1 + (i + 1) % rim) for i in range(count)]


def glued_squares(k, rng, shared):
    """Two k x k square meshes (random diagonals), the second one's first
    ``shared`` bottom-row vertices identified with the first one's, from a
    random offset along the bottom row."""
    def square(base):
        tops = []
        for j in range(k):
            for i in range(k):
                a, b = base + j * (k + 1) + i, base + j * (k + 1) + i + 1
                c, d = a + k + 1, b + k + 1
                tops += ([(a, b, d), (a, d, c)] if rng.random() < 0.5
                         else [(a, b, c), (b, d, c)])
        return tops

    nv = (k + 1) ** 2
    start = int(rng.integers(0, k + 2 - shared))
    ident = {nv + i: start + i for i in range(shared)}
    second = [tuple(ident.get(v, v) for v in t) for t in square(nv)]
    return square(0) + second


KUHN = [tuple(sorted([0] + [sum(1 << p for p in perm[:m]) for m in (1, 2)]
                     + [7])) for perm in permutations(range(3))]


def kuhn_subset(mask):
    """The Kuhn tetrahedra of the unit cube picked by the bits of ``mask``."""
    return [t for b, t in enumerate(KUHN) if mask >> b & 1]


def two_tetrahedra(shared):
    """Two tetrahedra sharing their first ``shared`` vertices."""
    return [(0, 1, 2, 3), tuple(range(shared)) + tuple(range(4, 8 - shared))]


def soup(rng, count):
    """Random distinct triangles on eight vertices; may be disconnected."""
    pool = list(combinations(range(8), 3))
    pick = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(pick)]


@st.composite
def glued_complexes(draw):
    kind = draw(st.sampled_from(["bowtie", "book", "cone", "fan", "squares",
                                 "kuhn", "tetrahedra", "apart", "soup"]))
    rng = np.random.default_rng(draw(st.integers(0, 10 ** 6)))
    if kind == "bowtie":
        tops = bowtie(draw(st.integers(1, 4)))
    elif kind == "book":
        tops = book(draw(st.integers(1, 5)))
    elif kind == "cone":
        tops = cone(draw(st.integers(3, 8)))
    elif kind == "fan":
        tops = fan(draw(st.integers(1, 7)), draw(st.booleans()))
        if len(tops) < 3:   # a closed fan needs three triangles
            tops = fan(len(tops), False)
    elif kind == "squares":
        k = draw(st.integers(1, 4))
        tops = glued_squares(k, rng, draw(st.integers(1, k + 1)))
    elif kind == "kuhn":
        tops = kuhn_subset(draw(st.integers(1, 63)))
    elif kind == "tetrahedra":
        tops = two_tetrahedra(draw(st.integers(1, 3)))
    elif kind == "apart":
        tops = book(draw(st.integers(1, 3))) + [
            tuple(v + 10 for v in t) for t in cone(draw(st.integers(3, 5)))]
    else:
        tops = soup(rng, draw(st.integers(1, 6)))
    # relabel the vertices at random so the id order is not the build order
    ids = sorted({v for t in tops for v in t})
    new = dict(zip(ids, rng.permutation(len(ids)).tolist()))
    tops = tuple(sorted(tuple(sorted(new[v] for v in t)) for t in tops))
    verts = {v: rng.uniform(-1.0, 1.0, 3) for v in sorted(new.values())}
    return _derive(len(tops[0]) - 1, verts, tops)


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def same_outcome(oracle, library, error):
    """Both raise ``error`` with the same message, or both return; returns
    the two results."""
    try:
        want = oracle()
    except error as exc:
        with pytest.raises(type(exc)) as got:
            library()
        assert str(got.value) == str(exc)
        return None, None
    return library(), want


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=glued_complexes())
def test_admissibility_matches_scan_oracle(c):
    assert check_admissible(c) == oracle_check_admissible(c)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(c=glued_complexes())
def test_connectivity_matches_scan_oracle(c):
    same_outcome(lambda: oracle_check_connected(c),
                 lambda: _check_connected(c), Disconnected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=glued_complexes())
def test_stars_match_scan_oracle(c):
    for sigma in c.all_faces():
        assert c.star_top(sigma) == oracle_star_top(c, sigma)
        assert c.star(sigma) == oracle_star(c, sigma)
        # an unsorted spelling of the same face
        assert c.star(sigma[::-1]) == oracle_star(c, sigma)
    absent = (max(c.vertices) + 1,)
    for query in (c.star, c.star_top):
        with pytest.raises(UnknownSimplex):
            query(absent)
    # a vertex set spanning no face
    spread = tuple(sorted(c.vertices))[:c.n + 2]
    if not c.has_face(spread):
        with pytest.raises(UnknownSimplex):
            c.star_top(spread)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(c=glued_complexes())
def test_links_and_addresses_match_scan_oracle(c):
    for v in list(c.vertices) + [max(c.vertices) + 1]:
        got, want = same_outcome(lambda: oracle_link(c, v),
                                 lambda: c.link(v), UnknownVertex)
        if want is not None:
            assert (got.n, got.top_simplices) == (want.n, want.top_simplices)
            assert sorted(got.vertices) == sorted(want.vertices)
            assert got.cofaces == want.cofaces
        got, want = same_outcome(lambda: oracle_vertex_address(c, v),
                                 lambda: vertex_address(c, v), PointOffComplex)
        assert got == want


@pytest.mark.parametrize("complex_", [
    meshes.two_triangles_shared_vertex(),
    meshes.triangle_book(3),
    meshes.cone_over_polygon(6),
    meshes.triangle_fan(5),
    meshes.flat_torus(4)[0],
    meshes.distorted_square_mesh(8)[0],
    build_complex([(0.0, 0.0, 0.0)] * 6, [(0, 1, 2, 3), (0, 1, 4, 5)]),
], ids=["bowtie", "book", "cone", "fan", "torus", "squares", "tetrahedra"])
def test_fixed_complexes_match_scan_oracle(complex_):
    assert check_admissible(complex_) == oracle_check_admissible(complex_)
    for sigma in complex_.all_faces():
        assert complex_.star_top(sigma) == oracle_star_top(complex_, sigma)
        assert complex_.star(sigma) == oracle_star(complex_, sigma)
    for v in complex_.vertices:
        assert (complex_.link(v).top_simplices
                == oracle_link(complex_, v).top_simplices)
        assert vertex_address(complex_, v) == oracle_vertex_address(complex_, v)
