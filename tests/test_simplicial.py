import pytest

from polyharm import meshes
from polyharm.errors import (DanglingVertexRef, Disconnected,
                             DuplicateSimplex, MixedDimension,
                             UnknownSimplex, UnknownVertex)
from polyharm.simplicial import build_complex, check_admissible

TRI = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def test_single_triangle_counts():
    c = build_complex(TRI, [(0, 1, 2)])
    assert c.n == 2
    assert len(c.faces[0]) == 3
    assert len(c.faces[1]) == 3
    assert len(c.boundary_faces) == 3
    assert not c.is_closed


def test_two_triangles_shared_edge_boundary_counts():
    c, _ = meshes.two_triangles_shared_edge()
    interior = [f for f in c.cofaces if len(c.cofaces[f]) == 2]
    assert interior == [(1, 2)]
    assert len(c.boundary_faces) == 4


def test_mixed_dimension_rejected():
    with pytest.raises(MixedDimension):
        build_complex([(0, 0), (1, 0), (0, 1), (1, 1), (2, 2)],
                      [(0, 1, 2), (3, 4)])


def test_duplicate_simplex_rejected():
    with pytest.raises(DuplicateSimplex):
        build_complex(TRI, [(0, 1, 2), (2, 1, 0)])


def test_dangling_vertex_rejected():
    with pytest.raises(DanglingVertexRef):
        build_complex(TRI, [(0, 1, 7)])


def test_disconnected_rejected():
    verts = TRI + [(5.0, 5.0), (6.0, 5.0), (5.0, 6.0)]
    with pytest.raises(Disconnected):
        build_complex(verts, [(0, 1, 2), (3, 4, 5)])


def test_unused_vertex_rejected():
    with pytest.raises(Disconnected):
        build_complex(TRI + [(9.0, 9.0)], [(0, 1, 2)])


# -- stars -------------------------------------------------------------

def test_star_of_top_simplex_is_itself():
    c = build_complex(TRI, [(0, 1, 2)])
    assert c.star((0, 1, 2)) == [(0, 1, 2)]


def test_star_of_interior_edge():
    c, _ = meshes.two_triangles_shared_edge()
    assert c.star((1, 2)) == [(1, 2), (0, 1, 2), (1, 2, 3)]


def test_star_of_fan_apex():
    # closed 5-triangle fan: star of the apex = vertex + 5 spokes + 5 triangles
    c = meshes.triangle_fan(5)
    got = c.star((0,))
    # oracle: brute-force cofaces over the whole lattice
    oracle = [f for f in c.all_faces() if 0 in f]
    assert got == oracle
    assert len([f for f in got if len(f) == 1]) == 1
    assert len([f for f in got if len(f) == 2]) == 5
    assert len([f for f in got if len(f) == 3]) == 5


def test_star_unknown_simplex():
    c = build_complex(TRI, [(0, 1, 2)])
    with pytest.raises(UnknownSimplex):
        c.star((0, 7))


def test_star_monotone_under_face_inclusion():
    c = meshes.triangle_fan(4)
    faces = list(c.all_faces())
    for sigma in faces:
        st_sigma = set(c.star(sigma))
        for tau in faces:
            if set(sigma) <= set(tau):
                assert set(c.star(tau)) <= st_sigma


# -- links --------------------------------------------------------------

def test_link_of_interior_vertex_is_cycle():
    c = meshes.triangle_fan(5)
    lk = c.link(0)
    assert lk.n == 1
    assert len(lk.vertices) == 5
    assert len(lk.top_simplices) == 5
    degree = {v: 0 for v in lk.vertices}
    for a, b in lk.top_simplices:
        degree[a] += 1
        degree[b] += 1
    assert all(d == 2 for d in degree.values())


def test_link_of_boundary_vertex_single_edge():
    c = build_complex(TRI, [(0, 1, 2)])
    lk = c.link(0)
    assert lk.top_simplices == ((1, 2),)


def test_link_of_cone_apex_is_hexagon():
    c = meshes.cone_over_polygon(6)
    lk = c.link(0)
    # oracle: enumerate faces opposite the apex in each incident triangle
    oracle = sorted(tuple(v for v in t if v != 0)
                    for t in c.top_simplices if 0 in t)
    assert sorted(lk.top_simplices) == oracle
    assert len(lk.vertices) == 6 and len(lk.top_simplices) == 6


def test_link_unknown_vertex():
    c = build_complex(TRI, [(0, 1, 2)])
    with pytest.raises(UnknownVertex):
        c.link(99)


def test_link_interior_vertex_connected_in_admissible_complex():
    c, _ = meshes.unit_square_mesh(3)
    assert check_admissible(c).admissible
    interior = set(c.vertices) - c.boundary_vertices()
    for v in interior:
        lk = c.link(v)
        seen = {next(iter(lk.vertices))}
        stack = list(seen)
        adj = {u: set() for u in lk.vertices}
        for a, b in lk.top_simplices:
            adj[a].add(b)
            adj[b].add(a)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == set(lk.vertices)


# -- admissibility -------------------------------------------------------

def test_shared_vertex_pair_not_chainable():
    c = meshes.two_triangles_shared_vertex()
    rep = check_admissible(c)
    assert rep.homogeneous
    assert not rep.chainable
    assert rep.witnesses == ((0,),)
    assert not rep.admissible


def test_book_of_three_pages_admissible():
    rep = check_admissible(meshes.triangle_book(3))
    assert rep.admissible


def test_flat_torus_admissible_and_boundaryless():
    c, _ = meshes.flat_torus(3)
    rep = check_admissible(c)
    assert rep.admissible
    assert c.is_closed
    # oracle: brute-force star connectivity over every simplex
    for sigma in c.all_faces():
        tops = c.star_top(sigma)
        assert _tops_chain_connected(c, sigma, tops)


def _tops_chain_connected(c, sigma, tops):
    if len(tops) <= 1:
        return True
    key = set(sigma)
    seen = {tops[0]}
    frontier = [tops[0]]
    while frontier:
        i = frontier.pop()
        for j in tops:
            if j in seen:
                continue
            shared = set(c.top_simplices[i]) & set(c.top_simplices[j])
            if len(shared) >= c.n and key <= shared:
                seen.add(j)
                frontier.append(j)
    return len(seen) == len(tops)


@pytest.mark.parametrize("builder", [
    lambda: meshes.unit_square_mesh(2)[0],
    lambda: meshes.triangle_fan(6),
    lambda: meshes.distorted_square_mesh(3)[0],
])
def test_plain_surface_triangulations_admissible(builder):
    assert check_admissible(builder()).admissible
