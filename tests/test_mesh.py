import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ultrasem.element import PdeCoefficients
from ultrasem.errors import GeometryError, MeshError, MeshFormatError
from ultrasem.mesh import (
    _bandwidth_of,
    _circumradius,
    _exact_min_bandwidth,
    build_mesh,
    grid_mesh,
    interface_bandwidth,
    mesh_from_string,
    mesh_to_string,
    order_interfaces,
    quality,
    read_mesh,
    split_triangle,
    write_mesh,
)
from ultrasem.schur import assemble_schur

from conftest import (eval_on_grid, jiggled_grid, mixed_mesh, random_convex_quad,
                      skinny_pair_mesh)

UNIT_SQUARE = ([( -1, -1), (1, -1), (1, 1), (-1, 1)], [(0, 1, 2, 3)])


class TestBuildMesh:
    def test_single_quad(self):
        mesh = build_mesh(*UNIT_SQUARE)
        assert mesh.n_edges == 4
        assert mesh.n_interior_edges == 0
        assert np.all(mesh.boundary_edge)
        assert np.all(mesh.boundary_vertex)

    def test_two_quads_skinny_configuration(self):
        # square plus a sliver of skinniness ~eps on its right edge
        mesh = skinny_pair_mesh(1e-6)
        assert mesh.n_quads == 2
        assert mesh.n_edges == 7
        assert mesh.n_interior_edges == 1
        assert int(mesh.boundary_edge.sum()) == 6
        assert int(mesh.boundary_vertex.sum()) == 6

    def test_2x2_grid(self):
        mesh = grid_mesh(2, 2)
        assert mesh.n_vertices == 9
        assert mesh.n_edges == 12
        assert mesh.n_quads == 4
        assert mesh.n_interior_edges == 4
        interior_vertices = np.nonzero(~mesh.boundary_vertex)[0]
        assert len(interior_vertices) == 1
        v = interior_vertices[0]
        e = mesh.vertex_edge[v]
        assert e >= 0 and not mesh.boundary_edge[e]
        assert v in mesh.edges[e]
        # the marked edge is the incident interior edge whose other endpoint
        # has the smallest (y, x), ties to the lower edge number.  With the
        # quads reversed the smallest-numbered incident edge is another one,
        # and the mark still goes down to (0.5, 0).
        reordered = build_mesh(mesh.vertices, mesh.quads[::-1])
        for m in (mesh, reordered):
            incident = [k for k in m.interior_edges if v in m.edges[k]]
            other = {k: m.edges[k][m.edges[k] != v][0] for k in incident}
            marked = min(incident, key=lambda k: (m.vertices[other[k], 1],
                                                  m.vertices[other[k], 0], k))
            assert m.vertex_edge[v] == marked
            assert np.array_equal(m.vertices[other[marked]], [0.5, 0.0])
        assert reordered.vertex_edge[v] == 9 and min(incident) == 0

    def test_euler_formula(self):
        for mesh in (grid_mesh(1, 1), grid_mesh(3, 2), grid_mesh(4, 4),
                     skinny_pair_mesh(0.1)):
            assert mesh.n_vertices - mesh.n_edges + mesh.n_quads == 1

    def test_local_global_round_trip(self):
        mesh = grid_mesh(3, 3)
        for f in range(mesh.n_quads):
            for l in range(4):
                e = mesh.quad_edge[f, l]
                assert (f, l) in zip(*np.nonzero(mesh.quad_edge == e))
        for e in range(mesh.n_edges):
            for f, l in zip(*np.nonzero(mesh.quad_edge == e)):
                assert mesh.quad_edge[f, l] == e

    @pytest.mark.parametrize("case", range(6))
    def test_topology_matches_loop(self, case, rng):
        base = [grid_mesh(4, 3, skip=[(1, 1)]), grid_mesh(5, 5, skip=[(0, 0), (2, 3), (3, 1)]),
                mixed_mesh(), skinny_pair_mesh(0.1), jiggled_grid(4, 4, rng),
                grid_mesh(3, 3, skip=[(1, 0)])][case]
        meshes = [(base.vertices, base.quads)]
        for _ in range(8):
            # renumber the vertices and the quads, start each quad at a
            # random vertex, and move every vertex a little
            pv = rng.permutation(base.n_vertices)
            q = np.argsort(pv)[base.quads][rng.permutation(base.n_quads)]
            q = np.array([np.roll(row, -k) for row, k in zip(q, rng.integers(0, 4, len(q)))])
            h = np.ptp(base.vertices, axis=0).min() / 50
            meshes.append((base.vertices[pv] + rng.uniform(-h, h, (base.n_vertices, 2)), q))
        for vertices, quads in meshes:
            mesh = build_mesh(vertices, quads)
            for name, want in _loop_topology(vertices, quads).items():
                got = getattr(mesh, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("vertices, quads, message", [
        ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 2)], "quad 0 repeats a vertex"),
        ([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1)], [(0, 1, 2, 3), (1, 2, 5, 4)],
         "quad 1 is clockwise or degenerate"),
        ([(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (0.5, -1), (0.5, 1.5)],
         [(0, 1, 2, 3), (1, 4, 5, 2), (6, 1, 2, 7)],
         "edge (1, 2) is shared by more than two quads (nonconforming)"),
        ([(-1, -1), (1, -1), (1, 1), (-1, 1), (0.4, 0.2), (-0.8, 0.1)],
         [(0, 1, 2, 3), (2, 4, 5, 1)],
         "edge (1, 2) is traversed twice in the same direction "
         "(orientation conflict between quads 0 and 1)"),
        ([(0, 0), (1, 0), (1, 1), (0, 1), (5, 5)], [(0, 1, 2, 3)],
         "vertex 4 is not used by any quad"),
    ])
    def test_invalid_topology_messages(self, vertices, quads, message):
        for build in (build_mesh, _loop_topology):
            with pytest.raises(MeshError) as err:
                build(vertices, quads)
            assert str(err.value) == message

    def test_vertex_list_completeness(self):
        mesh = grid_mesh(4, 3)
        for v in range(mesh.n_vertices):
            if mesh.boundary_vertex[v]:
                assert mesh.vertex_edge[v] == -1
            else:
                e = mesh.vertex_edge[v]
                assert e >= 0 and not mesh.boundary_edge[e]
                assert v in mesh.edges[e]

    def test_clockwise_rejected(self):
        with pytest.raises(MeshError, match="quad 0"):
            build_mesh(UNIT_SQUARE[0], [(3, 2, 1, 0)])

    def test_nonconforming_rejected(self):
        # three counterclockwise quads around one edge
        verts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (2, 1), (0.5, -1), (0.5, 1.5)]
        quads = [(0, 1, 2, 3), (1, 4, 5, 2), (6, 1, 2, 7)]
        with pytest.raises(MeshError, match="nonconforming"):
            build_mesh(verts, quads)

    def test_orientation_conflict_rejected(self):
        # second quad overlaps the first, traversing the shared edge the
        # same way; impossible to orient consistently
        verts = [(-1, -1), (1, -1), (1, 1), (-1, 1), (0.4, 0.2), (-0.8, 0.1)]
        quads = [(0, 1, 2, 3), (2, 4, 5, 1)]
        with pytest.raises(MeshError, match="orientation"):
            build_mesh(verts, quads)

    def test_unused_vertex_rejected(self):
        verts = UNIT_SQUARE[0] + [(5.0, 5.0)]
        with pytest.raises(MeshError, match="vertex 4"):
            build_mesh(verts, UNIT_SQUARE[1])


class TestSplitTriangle:
    def test_reference_triangle(self):
        quads = split_triangle((0, 0), (1, 0), (0, 1))
        want = np.array([(0, 0), (0.5, 0), (1 / 3, 1 / 3), (0, 0.5)])
        assert np.max(np.abs(quads[0].vertices - want)) < 1e-15

    def test_equilateral_symmetry(self):
        v = [(np.cos(a), np.sin(a)) for a in
             (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)]
        quads = split_triangle(*v)
        # congruent under 120-degree rotation: same sorted edge lengths
        def lengths(q):
            d = np.roll(q.vertices, -1, axis=0) - q.vertices
            return np.sort(np.hypot(d[:, 0], d[:, 1]))
        l0 = lengths(quads[0])
        for q in quads[1:]:
            assert np.max(np.abs(lengths(q) - l0)) < 1e-13

    def test_area_partition(self, rng):
        for _ in range(50):
            tri = rng.uniform(-3, 3, size=(3, 2))
            d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
            a2 = d1[0] * d2[1] - d1[1] * d2[0]
            if a2 < 0:
                tri = tri[::-1]
                a2 = -a2
            if a2 < 0.1:
                continue
            quads = split_triangle(*tri)
            assert abs(sum(q.area for q in quads) - a2 / 2) < 1e-14 * max(1, a2)

    def test_always_convex(self, rng):
        count = 0
        while count < 1000:
            tri = rng.uniform(-1, 1, size=(3, 2))
            d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
            a2 = d1[0] * d2[1] - d1[1] * d2[0]
            if abs(a2) < 1e-3:
                continue
            if a2 < 0:
                tri = tri[::-1]
            split_triangle(*tri)  # Quad constructor enforces strict convexity
            count += 1

    def test_collinear_rejected(self):
        with pytest.raises(GeometryError):
            split_triangle((0, 0), (1, 1), (2, 2))


def _loop_topology(vertices, quads):
    """The edge tables of a mesh, built side by side in plain loops."""
    vertices, quads = np.asarray(vertices, dtype=float), np.asarray(quads, dtype=int)
    for f, q in enumerate(quads):
        if len(set(q.tolist())) != 4:
            raise MeshError(f"quad {f} repeats a vertex")
        x, y = vertices[q, 0], vertices[q, 1]
        if np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y) <= 0.0:
            raise MeshError(f"quad {f} is clockwise or degenerate")
    number, edges, sides = {}, [], []  # sides: per edge, (quad, aligned) pairs
    quad_edge = np.empty(quads.shape, dtype=int)
    quad_edge_aligned = np.empty(quads.shape, dtype=bool)
    for f, q in enumerate(quads):
        for l in range(4):
            a, b = int(q[l]), int(q[(l + 1) % 4])
            key = (min(a, b), max(a, b))
            if key not in number:
                number[key] = len(edges)
                edges.append(key)
                sides.append([])
            e = number[key]
            if len(sides[e]) == 2:
                raise MeshError(f"edge {key} is shared by more than two quads (nonconforming)")
            if sides[e] and sides[e][0][1] == (a == key[0]):
                raise MeshError(f"edge {key} is traversed twice in the same direction "
                                f"(orientation conflict between quads {sides[e][0][0]} and {f})")
            sides[e].append((f, a == key[0]))
            quad_edge[f, l], quad_edge_aligned[f, l] = e, a == key[0]
    for v in range(len(vertices)):
        if v not in quads:
            raise MeshError(f"vertex {v} is not used by any quad")
    boundary_edge = np.array([len(s) == 1 for s in sides])
    boundary_vertex = np.zeros(len(vertices), dtype=bool)
    for e, (a, b) in enumerate(edges):
        if boundary_edge[e]:
            boundary_vertex[a] = boundary_vertex[b] = True
    vertex_edge = np.full(len(vertices), -1)
    best = {}
    for e, (a, b) in enumerate(edges):
        for v, w in ((a, b), (b, a)):
            key = (vertices[w, 1], vertices[w, 0], e)
            if not boundary_edge[e] and not boundary_vertex[v] and key < best.get(v, (np.inf,)):
                best[v] = key
                vertex_edge[v] = e
    return {"edges": np.array(edges), "quad_edge": quad_edge,
            "quad_edge_aligned": quad_edge_aligned, "boundary_edge": boundary_edge,
            "boundary_vertex": boundary_vertex,
            "interior_edges": np.nonzero(~boundary_edge)[0], "vertex_edge": vertex_edge}


def brute_force_min_bandwidth(mesh):
    pos0 = order_interfaces(mesh)
    m = len(pos0)
    best = interface_bandwidth(mesh, pos0)
    for perm in itertools.permutations(range(m)):
        best = min(best, interface_bandwidth(mesh, np.array(perm)))
    return best


class TestOrderInterfaces:
    def test_strip_is_path(self):
        mesh = grid_mesh(6, 1)
        pos = order_interfaces(mesh)
        assert interface_bandwidth(mesh, pos) == 1

    def test_2x2_brute_force(self):
        mesh = grid_mesh(2, 2)
        pos = order_interfaces(mesh)
        assert interface_bandwidth(mesh, pos) == brute_force_min_bandwidth(mesh)
        assert interface_bandwidth(mesh, pos) <= 3

    def test_small_grids_optimal(self):
        # exhaustive optimum is feasible for up to 2x3 (7 interior edges)
        for nx, ny in ((2, 2), (3, 1), (2, 3)):
            mesh = grid_mesh(nx, ny)
            pos = order_interfaces(mesh)
            assert interface_bandwidth(mesh, pos) == brute_force_min_bandwidth(mesh)

    def test_3x3_matches_backtracking_optimum(self):
        # 12 interior edges: library search must return a ordering no worse
        # than a slow independent branch-and-bound certificate
        mesh = grid_mesh(3, 3)
        pos = order_interfaces(mesh)
        got = interface_bandwidth(mesh, pos)
        cert = _certified_min_bandwidth(mesh, upper=got + 1)
        assert got == cert

    def test_exact_search_matches_brute_force(self):
        # the search itself, against every ordering of small graphs: an
        # ordering of the optimal bandwidth whenever upper is above it, and
        # None otherwise
        rng = np.random.default_rng(5)
        # a six-cycle with two chords, of optimum 3
        graphs = [(6, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [0, 5],
                                [0, 3], [1, 4]]))]
        for _ in range(30):
            m = int(rng.integers(3, 9))
            a, b = np.triu_indices(m, 1)
            keep = rng.random(len(a)) < rng.uniform(0.2, 0.6)
            graphs.append((m, np.column_stack([a[keep], b[keep]])))
        for m, pairs in graphs:
            every = np.array(list(itertools.permutations(range(m))))
            opt = np.abs(every[:, pairs[:, 0]] - every[:, pairs[:, 1]]).max(axis=1, initial=0).min()
            for upper in range(1, m):
                got = _exact_min_bandwidth(m, pairs, upper)
                if upper <= opt:
                    assert got is None
                else:
                    assert sorted(got) == list(range(m))
                    assert _bandwidth_of(pairs, got) == opt

    def test_exact_search_improves_on_rcm(self):
        # reverse Cuthill-McKee alone orders this mesh with bandwidth 4
        mesh = grid_mesh(3, 3, skip=[(1, 0)])
        got = interface_bandwidth(mesh)
        assert got == 3
        assert _certified_min_bandwidth(mesh, upper=got + 1) == got

    def test_orderings_pinned(self):
        # the orderings of the search without the deadline prune
        from ultrasem.navierstokes import tunnel_mesh

        assert order_interfaces(grid_mesh(3, 3)).tolist() == [
            11, 10, 9, 8, 5, 6, 7, 4, 3, 1, 2, 0]
        assert order_interfaces(grid_mesh(3, 2)).tolist() == [5, 6, 3, 2, 0, 4, 1]
        assert order_interfaces(tunnel_mesh()).tolist() == [
            12, 11, 10, 8, 7, 5, 9, 4, 3, 1, 6, 2, 0]

    def test_interface_pairs_match_loop(self):
        mixed = mesh_from_string("quadmesh 1\nv 0 0\nv 1 0\nv 2 0\nv 0 1\nv 1 1\nv 2 1\n"
                                 "q 1 2 5 4\nt 2 3 6\nt 2 6 5\n")
        for mesh in (grid_mesh(3, 3), grid_mesh(4, 3, skip=[(1, 1)]), mixed,
                     skinny_pair_mesh(0.1)):
            pos = {int(e): k for k, e in enumerate(mesh.interior_edges)}
            want = {(min(pos[a], pos[b]), max(pos[a], pos[b]))
                    for q in mesh.quad_edge.tolist() for a in q for b in q
                    if a != b and a in pos and b in pos}
            assert mesh._interface_pairs.tolist() == sorted(map(list, want))

    def test_large_grid_scaling(self):
        mesh = grid_mesh(10, 10)
        pos = order_interfaces(mesh)
        assert sorted(pos) == list(range(mesh.n_interior_edges))
        assert interface_bandwidth(mesh, pos) <= 4 * 10

    def test_deterministic(self):
        m1 = grid_mesh(4, 4)
        m2 = grid_mesh(4, 4)
        assert np.array_equal(order_interfaces(m1), order_interfaces(m2))


def _certified_min_bandwidth(mesh, upper):
    """Independent exhaustive feasibility check: try every k < upper with a
    straightforward depth-first placement (no pruning heuristics shared
    with the library)."""
    m, pairs = mesh.n_interior_edges, mesh._interface_pairs
    adj = [set() for _ in range(m)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)

    def feasible(k):
        placed = {}

        def rec(p):
            if p == m:
                return True
            for v in range(m):
                if v in placed:
                    continue
                if any(w in placed and p - placed[w] > k for w in adj[v]):
                    continue
                if any(pos <= p - k and any(w not in placed and w != v
                                            for w in adj[u])
                       for u, pos in placed.items()):
                    continue
                placed[v] = p
                if rec(p + 1):
                    return True
                del placed[v]
            return False

        return rec(0)

    for k in range(upper):
        if feasible(k):
            return k
    return upper


class TestQuality:
    def test_unit_square(self):
        q = quality(build_mesh(*UNIT_SQUARE))
        assert abs(q.r_in[0] - 1.0) < 1e-9
        assert abs(q.r_out[0] - np.sqrt(2)) < 1e-12
        assert abs(q.skinniness[0] - 1 / np.sqrt(2)) < 1e-9

    def test_thin_rectangle(self):
        eps = 1e-3
        mesh = build_mesh([(0, 0), (2, 0), (2, 2 * eps), (0, 2 * eps)],
                          [(0, 1, 2, 3)])
        q = quality(mesh)
        assert abs(q.r_in[0] - eps) < 1e-9
        assert q.skinniness[0] < 2 * eps

    @pytest.mark.parametrize("w", [2e-3, 0.3, 0.7, 1e-12])
    def test_rectangle_inradius_is_half_width(self, w):
        mesh = build_mesh([(0, 0), (2, 0), (2, w), (0, w)], [(0, 1, 2, 3)])
        assert quality(mesh).r_in[0] == w / 2

    def test_skinny_inradius_scales_with_eps(self):
        # the inradius of the skinny family is about 0.2652 eps, down to
        # the paper's extreme eps = 1e-12
        from ultrasem.cli import skinny_quad

        ratio = [quality(build_mesh(skinny_quad(eps).vertices, [(0, 1, 2, 3)])).r_in[0] / eps
                 for eps in (1e-9, 1e-12)]
        assert abs(ratio[1] - ratio[0]) <= 1e-3

    def test_skinny_family(self):
        from ultrasem.cli import skinny_quad

        quad = skinny_quad(1e-6)
        mesh = build_mesh(quad.vertices, [(0, 1, 2, 3)])
        assert quality(mesh).skinniness[0] < 1e-5

    def test_circumradius_small_quads_away_from_origin(self, rng):
        # Jung's bound diam/2 <= r_out <= diam/sqrt(3) holds for every
        # quad, and r_out does not move with the quad (w - t is exact when
        # the quad is small against its offset, and rounds relative to its
        # size otherwise)
        quads, offsets = [], []
        for _ in range(300):
            t = rng.uniform(-5, 5, 2)
            quads.append(random_convex_quad(rng, scale=10 ** rng.uniform(-6, 3)) + t)
            offsets.append(t)
        trapezoid = np.array([(0, 0), (1, 0), (0.7, 0.5), (0.3, 0.5)]) * 1e-3
        quads.append(trapezoid + 1.0)
        offsets.append(np.ones(2))
        w = np.array(quads)
        r = np.array([_circumradius(q) for q in w])
        assert np.isfinite(r).all()
        diam = np.hypot(*(w[:, :, None] - w[:, None]).T).max(axis=(0, 1))
        assert np.all(diam / 2 <= r * (1 + 1e-12))
        assert np.all(r <= diam / np.sqrt(3) * (1 + 1e-12))
        moved = np.array([_circumradius(q) for q in w - np.array(offsets)[:, None]])
        assert np.all(np.abs(moved - r) <= 1e-12 * r)
        # one call takes the whole stack
        assert np.array_equal(_circumradius(w), r)

    def test_nonconvex_quality_error(self):
        mesh = build_mesh([(0, 0), (2, 0), (0.5, 0.5), (0, 2)], [(0, 1, 2, 3)])
        with pytest.raises(GeometryError):
            quality(mesh)


MESH_TEXT = """\
quadmesh 1
# a unit square and its mirror
v 0 0
v 1 0
v 1 1
v 0 1
v 2 0
v 2 1
q 1 2 3 4
q 2 5 6 3
"""

CONFORMING_MIXED_MESH = """\
quadmesh 1
v 0 0
v 1 0
v 2 0
v 3 0
v 0 1
v 1 1
v 2 1
v 3 1
v 0 0.5
v 1 0.5
v 2 0.5
v 3 0.5
q 1 2 10 9
q 9 10 6 5
t 2 3 7
t 2 7 6
q 3 4 12 11
q 11 12 8 7
"""


class TestMeshIO:
    def test_read_basic(self):
        mesh = mesh_from_string(MESH_TEXT)
        assert mesh.n_quads == 2
        assert mesh.n_interior_edges == 1

    def test_round_trip_canonical(self):
        mesh = mesh_from_string(MESH_TEXT)
        text = mesh_to_string(mesh)
        again = mesh_from_string(text)
        assert np.array_equal(mesh.vertices, again.vertices)
        assert np.array_equal(mesh.quads, again.quads)
        assert mesh_to_string(again) == text

    def test_file_round_trip(self, tmp_path):
        mesh = mesh_from_string(MESH_TEXT)
        path = tmp_path / "mesh.txt"
        write_mesh(mesh, path)
        again = read_mesh(path)
        assert np.array_equal(mesh.quads, again.quads)

    def test_triangle_records_split_and_share_midpoints(self):
        text = """quadmesh 1
v 0 0
v 1 0
v 1 1
v 0 1
t 1 2 3
t 1 3 4
"""
        mesh = mesh_from_string(text)
        assert mesh.n_quads == 6
        # shared edge (v1, v3) midpoint must dedupe to a single vertex:
        # 4 originals + 5 distinct midpoints + 2 centroids
        assert mesh.n_vertices == 11
        # 3 interior spokes per triangle plus the 2 halves of the diagonal
        assert mesh.n_interior_edges == 8

    def test_triangle_split_vertices_pinned(self):
        # new vertices of each triangle in the order m12, m23, m31, centroid;
        # the second triangle's m12 is the first one's m31
        mesh = mesh_from_string("quadmesh 1\nv 0 0\nv 1 0\nv 1 1\nv 0 1\n"
                                "t 1 2 3\nt 1 3 4\n")
        assert np.array_equal(mesh.vertices, [
            (0, 0), (1, 0), (1, 1), (0, 1),
            (0.5, 0), (1, 0.5), (0.5, 0.5), (2 / 3, 1 / 3),
            (0.5, 1), (0, 0.5), (1 / 3, 2 / 3)])
        assert np.array_equal(mesh.quads, [
            (0, 4, 7, 6), (1, 5, 7, 4), (2, 6, 7, 5),
            (0, 6, 10, 9), (2, 8, 10, 6), (3, 9, 10, 8)])

    def test_split_midpoints_merge_with_declared_vertices(self):
        # a median-split triangle pair between two squares, each split at
        # y = 1/2: the split points (1, 1/2) and (2, 1/2) are declared
        # vertices, so the mesh is conforming
        mesh = mesh_from_string(CONFORMING_MIXED_MESH)
        assert (mesh.n_quads, mesh.n_vertices) == (10, 17)
        assert (int(mesh.boundary_edge.sum()), mesh.n_edges) == (12, 26)
        uex = lambda x, y: np.sin(2 * x + y) + x * y * y
        fex = lambda x, y: -5 * np.sin(2 * x + y) + 2 * x
        system = assemble_schur(mesh, PdeCoefficients.poisson(), 16)
        assert eval_on_grid(system, system.solve(f=fex, dirichlet=uex), uex) <= 1e-10

    @pytest.mark.parametrize("x, merged", [("0.15", True), ("0.15000000000000002", True),
                                           ("0.15000000000015", False)])
    def test_split_midpoint_merges_within_rounding(self, x, merged):
        # the split of the triangle's base at x = (0.1 + 0.2) / 2 rounds to
        # 0.15000000000000002: it is the declared vertex x = 0.15 below it,
        # but not one 1e-12 (relative) away
        mesh = mesh_from_string(f"""quadmesh 1
v 0.1 -0.05
v {x} -0.05
v 0.2 -0.05
v 0.1 0
v {x} 0
v 0.2 0
v 0.15 0.1
q 1 2 5 4
q 2 3 6 5
t 4 6 7
""")
        want = (10, 8) if merged else (11, 12)
        assert (mesh.n_vertices, int(mesh.boundary_edge.sum())) == want

    def test_error_reports_line_number(self):
        bad = "quadmesh 1\nv 0 0\nv 1 0\nq 1 2 3\n"
        with pytest.raises(MeshFormatError) as err:
            mesh_from_string(bad)
        assert err.value.line == 4

    def test_missing_header(self):
        with pytest.raises(MeshFormatError):
            mesh_from_string("v 0 0\n")

    def test_unknown_record(self):
        with pytest.raises(MeshFormatError) as err:
            mesh_from_string("quadmesh 1\nz 1 2\n")
        assert err.value.line == 2

    def test_undefined_vertex(self):
        with pytest.raises(MeshFormatError):
            mesh_from_string("quadmesh 1\nv 0 0\nv 1 0\nv 1 1\nv 0 1\nq 1 2 3 9\n")


def _run_fresh(code):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_solving_does_not_import_scipy_optimize():
    # a fresh process that builds and solves must not load scipy.optimize
    _run_fresh("import sys\n"
               "from ultrasem import PdeCoefficients, assemble_schur, grid_mesh\n"
               "system = assemble_schur(grid_mesh(2, 2), PdeCoefficients.poisson(), 6)\n"
               "system.solve(f=lambda x, y: 1.0 + 0 * x, dirichlet=0.0)\n"
               "assert 'scipy.optimize' not in sys.modules\n")


def test_solving_and_stepping_do_not_import_scipy_fft():
    # the Chebyshev transforms are matrix products, so a fresh process that
    # builds, solves and takes a time step never loads scipy.fft
    _run_fresh("import sys\n"
               "from ultrasem import PdeCoefficients, assemble_schur, grid_mesh\n"
               "from ultrasem.navierstokes import (FlowState, NsConfig, TunnelSolver,\n"
               "                                   classify_tunnel_boundary, tunnel_mesh)\n"
               "system = assemble_schur(grid_mesh(2, 2), PdeCoefficients.poisson(), 6)\n"
               "system.solve(f=lambda x, y: 1.0 + 0 * x, dirichlet=0.0)\n"
               "mesh = tunnel_mesh(3, 2, width=0.003, height=0.001, hole=(1, 0))\n"
               "solver = TunnelSolver(mesh, 6, NsConfig(dt=1.667e-5),\n"
               "                      classify_tunnel_boundary(mesh, (0.6, 0.0)))\n"
               "solver.time_step(FlowState.rest(mesh, 6))\n"
               "assert not [m for m in sys.modules if m.startswith('scipy.fft')]\n")
