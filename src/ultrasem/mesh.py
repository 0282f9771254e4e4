"""Quadrilateral mesh bookkeeping.

Meshes are conforming collections of counterclockwise quadrilaterals.
Every quad, vertex and edge carries a global number; edges also have
local addresses (quad number, local edge 0..3, where local edge ``l``
runs from the quad's vertex ``l`` to vertex ``l+1``).  Each interior
vertex is assigned one incident interior edge: the one whose other
endpoint has the smallest ``(y, x)``, ties going to the lower edge
number.  That assignment decides which interface keeps a
derivative-matching condition at the vertex instead of a value-continuity
condition, which keeps the coupled system nonsingular where several
elements meet.  It depends on coordinates alone, so renumbering the
quads (and with them the edges) leaves the discrete equations unchanged.

The text format is line oriented::

    quadmesh 1
    # comment
    v x y
    q i1 i2 i3 i4      (1-based vertex numbers, counterclockwise)
    t i1 i2 i3         (triangle; split into 3 quads on read)
"""

import functools
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import GeometryError, MeshError, MeshFormatError
from .quadmap import Quad, _twice_area, inradius, quad_defect


class QuadMesh:
    """Immutable mesh with full local/global edge bookkeeping."""

    def __init__(self, vertices, quads):
        self.vertices = np.asarray(vertices, dtype=float)
        self.quads = np.asarray(quads, dtype=int)
        self._build()

    # -- construction -------------------------------------------------

    def _build(self):
        V, F = len(self.vertices), len(self.quads)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (V, 2) array")
        if self.quads.ndim != 2 or self.quads.shape[1] != 4:
            raise MeshError("quads must be an (F, 4) array of vertex numbers")
        if F == 0:
            raise MeshError("mesh has no elements")
        if self.quads.min(initial=0) < 0 or self.quads.max(initial=-1) >= V:
            raise MeshError("quad vertex number out of range")

        q = self.quads
        repeats = (np.diff(np.sort(q, axis=1), axis=1) == 0).any(axis=1)
        with np.errstate(invalid="ignore", over="ignore"):
            # a non-finite vertex passes here and fails in element_vertices
            flat = _twice_area(self.vertices[q]) <= 0.0
        if (repeats | flat).any():
            f = int(np.argmax(repeats | flat))
            raise MeshError(f"quad {f} repeats a vertex" if repeats[f]
                            else f"quad {f} is clockwise or degenerate")

        # one row per side (quad f, local edge l), in that order; an edge is
        # numbered by the first side that uses it
        a, b = q.ravel(), np.roll(q, -1, axis=1).ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        _, first, inverse = np.unique(lo * V + hi, return_index=True, return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        side_edge, first = rank[inverse], np.sort(first)
        aligned = a == lo
        count = np.bincount(side_edge)
        # use[i]: the number of earlier sides on side i's edge
        by_edge = np.argsort(side_edge, kind="stable")
        use = np.empty_like(side_edge)
        use[by_edge] = np.arange(4 * F) - (np.cumsum(count) - count)[side_edge[by_edge]]
        third = use >= 2
        conflict = (use == 1) & (aligned == aligned[first[side_edge]])
        if (third | conflict).any():
            i = int(np.argmax(third | conflict))
            key = (int(lo[i]), int(hi[i]))
            if third[i]:
                raise MeshError(
                    f"edge {key} is shared by more than two quads (nonconforming)")
            raise MeshError(
                f"edge {key} is traversed twice in the same direction "
                f"(orientation conflict between quads "
                f"{first[side_edge[i]] // 4} and {i // 4})")
        self.quad_edge = side_edge.reshape(F, 4)
        self.quad_edge_aligned = aligned.reshape(F, 4)
        self.edges = np.column_stack([lo, hi])[first]
        self.boundary_edge = count == 1

        used = np.zeros(V, dtype=bool)
        used[q.ravel()] = True
        if not used.all():
            raise MeshError(f"vertex {int(np.argmin(used))} is not used by any quad")
        self.boundary_vertex = np.zeros(V, dtype=bool)
        self.boundary_vertex[self.edges[self.boundary_edge]] = True

        self.interior_edges = np.nonzero(~self.boundary_edge)[0]
        # vertex list: each interior vertex gets the incident interior edge
        # whose other endpoint has the smallest (y, x), ties to the lower
        # edge number; only coordinates decide, not the element numbering
        self.vertex_edge = np.full(V, -1, dtype=int)
        ends = self.edges[self.interior_edges]
        v, w = ends.ravel(), ends[:, ::-1].ravel()
        e = np.repeat(self.interior_edges, 2)
        v, w, e = (z[~self.boundary_vertex[v]] for z in (v, w, e))
        order = np.lexsort((e, self.vertices[w, 0], self.vertices[w, 1], v))
        _, head = np.unique(v[order], return_index=True)
        self.vertex_edge[v[order[head]]] = e[order[head]]

    # -- queries -------------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_quads(self):
        return len(self.quads)

    @property
    def n_interior_edges(self):
        return len(self.interior_edges)

    @functools.cached_property
    def _interface_pairs(self):
        # interior edges sharing a quad, as (a, b) rows of their indices in
        # interior_edges with a < b, sorted and without repeats
        pos = np.full(self.n_edges, -1)
        pos[self.interior_edges] = np.arange(self.n_interior_edges)
        local = pos[self.quad_edge]
        i, j = np.triu_indices(4, 1)
        a, b = local[:, i].ravel(), local[:, j].ravel()
        keep = (a >= 0) & (b >= 0)
        pairs = np.sort(np.column_stack([a[keep], b[keep]]), axis=1)
        return np.unique(pairs, axis=0).reshape(-1, 2)

    @functools.cached_property
    def _interface_order(self):
        # computed once per mesh: hand out copies through order_interfaces
        return _compute_interface_order(self)

    def element_quad(self, f):
        """Geometry of element ``f`` as a :class:`Quad`."""
        return Quad(self.vertices[self.quads[f]])

    def element_vertices(self):
        """The (F, 4, 2) vertex stack of all elements.  Raises
        :class:`GeometryError` naming the first element that is not a
        finite, strictly convex counterclockwise quadrilateral."""
        v = self.vertices[self.quads]
        bad = quad_defect(v)
        if bad is not None:
            raise GeometryError(f"element {bad[0]}: {bad[1]}")
        return v

    def __repr__(self):
        return (f"QuadMesh(V={self.n_vertices}, E={self.n_edges}, "
                f"F={self.n_quads}, interior_edges={self.n_interior_edges})")


def build_mesh(vertices, quads):
    """Validate and index a mesh from vertex coordinates and quad lists."""
    return QuadMesh(vertices, quads)


# ----------------------------------------------------------------------
# triangle splitting


def split_triangle(v1, v2, v3):
    """Split a counterclockwise triangle into 3 quadrilaterals along the
    segments joining the edge midpoints to the centroid.  Quad ``k``
    contains triangle vertex ``k`` and is counterclockwise."""
    p = np.array([v1, v2, v3], dtype=float)
    area2 = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - \
            (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1])
    if area2 <= 0.0:
        raise GeometryError("triangle vertices are collinear or clockwise")
    centroid = (p[0] + p[1] + p[2]) / 3.0
    mids = (p + np.roll(p, -1, axis=0)) / 2.0  # mids[k] halves edge k -> k+1
    return [Quad([p[k], mids[k], centroid, mids[k - 1]]) for k in range(3)]


# ----------------------------------------------------------------------
# interface ordering


def _bandwidth_of(pairs, order_pos):
    return int(np.abs(order_pos[pairs[:, 0]] - order_pos[pairs[:, 1]]).max(initial=0))


def _deadlines_met(adj, placed, chosen, k, p):
    # Hall's condition on the deadlines, with the last node of chosen just
    # placed at p: the unplaced neighbors of the first i nodes placed must
    # fit in the free positions p+1 .. placed[chosen[i]] + k, of which
    # there are none once that deadline has passed
    unplaced = set()
    for u in chosen:
        unplaced.update(w for w in adj[u] if placed[w] < 0)
        if len(unplaced) > max(0, placed[u] + k - p):
            return False
    return True


def _place_from(p, k, adj, placed, chosen):
    """Extend a placement of positions 0..p-1 (``chosen``, in order) to
    every node with bandwidth at most k, depth first; False if none."""
    if p == len(adj):
        return True
    for v in range(len(adj)):
        if placed[v] >= 0 or any(placed[w] >= 0 and p - placed[w] > k for w in adj[v]):
            continue
        placed[v] = p
        chosen.append(v)
        if _deadlines_met(adj, placed, chosen, k, p) and _place_from(p + 1, k, adj, placed, chosen):
            return True
        chosen.pop()
        placed[v] = -1
    return False


def _exact_min_bandwidth(m, pairs, upper):
    """Smallest achievable bandwidth ordering by backtracking; feasible for
    small interface counts only.  Returns a position array or None."""
    adj = [set() for _ in range(m)]
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    lo = max((len(a) + 1) // 2 for a in adj) if len(pairs) else 0
    for k in range(lo, upper):
        placed = np.full(m, -1, dtype=int)
        if _place_from(0, k, adj, placed, []):
            return placed
    return None


# meshes with at most this many interior edges get the exact ordering
_EXACT_LIMIT = 13


def order_interfaces(mesh):
    """Deterministic renumbering of interior edges that keeps interfaces
    sharing a quad close together, bounding the interface-complement
    bandwidth by ``(max |a - b| + 1) n``.

    Reverse Cuthill-McKee on the interface adjacency graph (interfaces are
    adjacent when a quad contains both); for meshes with at most
    ``_EXACT_LIMIT`` interior edges the ordering is refined to the exact
    minimum by backtracking search.  It is computed once per mesh.

    Returns a new array ``pos`` with the block position of each interior
    edge (indexed like ``mesh.interior_edges``).
    """
    return mesh._interface_order.copy()


def _compute_interface_order(mesh):
    m, pairs = mesh.n_interior_edges, mesh._interface_pairs
    if m == 0:
        return np.zeros(0, dtype=int)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    g = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m))
    order = reverse_cuthill_mckee(g, symmetric_mode=True)
    pos = np.empty(m, dtype=int)
    pos[order] = np.arange(m)
    bw = _bandwidth_of(pairs, pos)
    if m <= _EXACT_LIMIT and bw > 0:
        better = _exact_min_bandwidth(m, pairs, bw)
        if better is not None:
            pos = better
    return pos


def interface_bandwidth(mesh, pos=None):
    """``max |a - b|`` over interface pairs sharing a quad for a given
    ordering (defaults to :func:`order_interfaces`)."""
    if pos is None:
        pos = order_interfaces(mesh)
    return _bandwidth_of(mesh._interface_pairs, np.asarray(pos))


# ----------------------------------------------------------------------
# quality metrics


_PAIRS = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
_TRIPLES = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])


def _circumradius(points):
    """Radius of the smallest circle containing each quad: (...) for
    (..., 4, 2) vertex arrays."""
    # The smallest enclosing circle of four points has two of them as a
    # diameter or passes through three; it is the smallest candidate that
    # covers all four.  Working relative to the mean keeps the rounding
    # relative to the element's size, wherever the element lies.
    p = np.asarray(points, dtype=float)
    p = p - p.mean(axis=-2, keepdims=True)
    a, b = p[..., _PAIRS[:, 0], :], p[..., _PAIRS[:, 1], :]
    centers, radii = [0.5 * (a + b)], [0.5 * _norm(b - a)]
    # the circle through a, b and c is centered at a + u
    a, b, c = (p[..., _TRIPLES[:, k], :] for k in range(3))
    b, c = b - a, c - a
    d = 2.0 * (b[..., 0] * c[..., 1] - b[..., 1] * c[..., 0])
    bb, cc = np.sum(b * b, axis=-1), np.sum(c * c, axis=-1)
    u = (np.stack([c[..., 1] * bb - b[..., 1] * cc, b[..., 0] * cc - c[..., 0] * bb], axis=-1)
         / np.where(d == 0.0, 1.0, d)[..., None])
    centers.append(a + u)
    radii.append(np.where(d == 0.0, np.inf, _norm(u)))  # collinear: no circle
    center, r = np.concatenate(centers, axis=-2), np.concatenate(radii, axis=-1)
    covers = np.all(_norm(p[..., None, :, :] - center[..., :, None, :])
                    <= r[..., None] * (1 + 1e-12), axis=-1)
    r_out = np.where(covers, r, np.inf).min(axis=-1)
    if not np.isfinite(r_out).all():
        raise GeometryError("could not enclose the element in a circle")
    return r_out


def _norm(z):
    return np.hypot(z[..., 0], z[..., 1])


@dataclass
class MeshQuality:
    """Per-element inradius, min-containment radius and skinniness."""

    r_in: np.ndarray
    r_out: np.ndarray

    @property
    def skinniness(self):
        return self.r_in / self.r_out


def quality(mesh):
    """Inradius, min-containment radius and skinniness of every element."""
    v = mesh.element_vertices()
    return MeshQuality(r_in=inradius(v), r_out=_circumradius(v))


# ----------------------------------------------------------------------
# text format


# how far, in ulps of a triangle's largest coordinate, a point of its split
# may lie from a declared vertex and still be that vertex
_SPLIT_ULPS = 4


def mesh_from_string(text, name="<string>"):
    vertices = []
    elements = []  # ("q"|"t", indices, line_no)
    header_seen = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if not header_seen:
            if parts != ["quadmesh", "1"]:
                raise MeshFormatError(f"expected header 'quadmesh 1' in {name}", ln)
            header_seen = True
            continue
        tag = parts[0]
        if tag == "v":
            if len(parts) != 3:
                raise MeshFormatError("vertex line needs 'v x y'", ln)
            try:
                xy = (float(parts[1]), float(parts[2]))
            except ValueError:
                raise MeshFormatError("vertex coordinates must be numbers", ln)
            if not all(map(math.isfinite, xy)):
                raise MeshFormatError("vertex coordinates must be finite", ln)
            vertices.append(xy)
        elif tag in ("q", "t"):
            want = 5 if tag == "q" else 4
            if len(parts) != want:
                raise MeshFormatError(
                    f"'{tag}' line needs {want - 1} vertex numbers", ln)
            try:
                idx = [int(p) - 1 for p in parts[1:]]
            except ValueError:
                raise MeshFormatError("vertex numbers must be integers", ln)
            if any(i < 0 for i in idx):
                raise MeshFormatError("vertex numbers are 1-based", ln)
            elements.append((tag, idx, ln))
        else:
            raise MeshFormatError(f"unknown record '{tag}'", ln)
    if not header_seen:
        raise MeshFormatError(f"empty mesh file {name}", 1)

    # exact coordinates -> vertex number, the first declared one for a
    # point; declared vertices are never merged with each other
    vertex_at = {}
    for i, xy in enumerate(vertices):
        vertex_at.setdefault(xy, i)
    declared = np.array(vertices, dtype=float).reshape(-1, 2)
    vertices = list(declared)
    n_declared = len(vertices)
    quads = []

    def add_vertex(p, tol):
        """The number of split point ``p``: a declared vertex within
        ``tol`` of it (the first), else a point created before at exactly
        ``p``, else a new vertex."""
        key = (float(p[0]), float(p[1]))
        if key not in vertex_at:
            near = np.flatnonzero(np.abs(declared - p).max(axis=1) <= tol)
            if not near.size:
                vertices.append(np.asarray(p, dtype=float))
            vertex_at[key] = near[0] if near.size else len(vertices) - 1
        return vertex_at[key]

    for tag, idx, ln in elements:
        if max(idx) >= n_declared:
            raise MeshFormatError(f"vertex number {max(idx) + 1} undefined", ln)
        if tag == "q":
            quads.append(idx)
        else:
            try:
                split = split_triangle(*(vertices[i] for i in idx))
            except GeometryError as exc:
                raise MeshFormatError(str(exc), ln)
            # new vertices m12, m23, m31, then the centroid; a midpoint
            # shared with a neighbor dedupes exactly, as fl(a+b) = fl(b+a),
            # and one on a declared vertex becomes that vertex: the split
            # arithmetic and the decimal coordinates each round by an ulp
            # or two of the triangle's largest coordinate
            tol = _SPLIT_ULPS * np.spacing(np.abs(declared[idx]).max())
            mids = [add_vertex(q.vertices[1], tol) for q in split]
            g = add_vertex(split[0].vertices[2], tol)
            quads += [[i, mids[k], g, mids[k - 1]] for k, i in enumerate(idx)]

    try:
        return build_mesh(np.array(vertices), np.array(quads, dtype=int))
    except MeshError as exc:
        raise MeshFormatError(str(exc), None) from exc


def read_mesh(path):
    """Read a mesh file (see the module docstring for the format)."""
    with open(path, "r", encoding="utf-8") as fh:
        return mesh_from_string(fh.read(), name=str(path))


def mesh_to_string(mesh):
    """Canonical text form: header, vertices in order, then quads."""
    out = io.StringIO()
    out.write("quadmesh 1\n")
    for x, y in mesh.vertices:
        out.write(f"v {x:.17g} {y:.17g}\n")
    for q in mesh.quads:
        out.write("q " + " ".join(str(int(i) + 1) for i in q) + "\n")
    return out.getvalue()


def write_mesh(mesh, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(mesh_to_string(mesh))


# ----------------------------------------------------------------------
# structured helpers used by demos and tests


def grid_mesh(nx, ny, x0=0.0, y0=0.0, width=1.0, height=1.0, skip=()):
    """Mesh of ``nx * ny`` axis-aligned rectangles; ``skip`` removes cells
    by ``(col, row)`` index (leaving a hole)."""
    xs = x0 + width * np.arange(nx + 1) / nx
    ys = y0 + height * np.arange(ny + 1) / ny
    vid = {}
    vertices = []

    def v(i, j):
        if (i, j) not in vid:
            vid[(i, j)] = len(vertices)
            vertices.append((xs[i], ys[j]))
        return vid[(i, j)]

    quads = []
    for j in range(ny):
        for i in range(nx):
            if (i, j) in skip:
                continue
            quads.append([v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)])
    return build_mesh(np.array(vertices), np.array(quads, dtype=int))
