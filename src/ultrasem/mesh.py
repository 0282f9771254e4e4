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
from .quadmap import Quad, inradius, quad_defect


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

        for f, q in enumerate(self.quads):
            if len(set(q.tolist())) != 4:
                raise MeshError(f"quad {f} repeats a vertex")
            x, y = self.vertices[q, 0], self.vertices[q, 1]
            area2 = np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
            if area2 <= 0.0:
                raise MeshError(f"quad {f} is clockwise or degenerate")

        edge_ids = {}
        edges = []
        edge_quads = []  # per edge: list of (quad, local_edge, aligned)
        self.quad_edge = np.empty((F, 4), dtype=int)
        self.quad_edge_aligned = np.empty((F, 4), dtype=bool)
        for f, q in enumerate(self.quads):
            seen = set()
            for l in range(4):
                a, b = int(q[l]), int(q[(l + 1) % 4])
                key = (min(a, b), max(a, b))
                if key in seen:
                    raise MeshError(f"quad {f} uses edge {key} twice")
                seen.add(key)
                e = edge_ids.get(key)
                if e is None:
                    e = len(edges)
                    edge_ids[key] = e
                    edges.append(key)
                    edge_quads.append([])
                if len(edge_quads[e]) == 2:
                    raise MeshError(
                        f"edge {key} is shared by more than two quads (nonconforming)")
                aligned = a == key[0]
                if edge_quads[e] and edge_quads[e][0][2] == aligned:
                    raise MeshError(
                        f"edge {key} is traversed twice in the same direction "
                        f"(orientation conflict between quads "
                        f"{edge_quads[e][0][0]} and {f})")
                edge_quads[e].append((f, l, aligned))
                self.quad_edge[f, l] = e
                self.quad_edge_aligned[f, l] = aligned

        self.edges = np.array(edges, dtype=int)
        self.edge_quads = edge_quads
        self.boundary_edge = np.array([len(eq) == 1 for eq in edge_quads])
        used = np.zeros(V, dtype=bool)
        used[self.quads.ravel()] = True
        if not used.all():
            raise MeshError(f"vertex {int(np.argmin(used))} is not used by any quad")

        self.boundary_vertex = np.zeros(V, dtype=bool)
        for e in np.nonzero(self.boundary_edge)[0]:
            self.boundary_vertex[self.edges[e]] = True

        self.interior_edges = np.nonzero(~self.boundary_edge)[0]
        # vertex list: each interior vertex gets the incident interior edge
        # whose other endpoint has the smallest (y, x), ties to the lower
        # edge number; only coordinates decide, not the element numbering
        self.vertex_edge = np.full(V, -1, dtype=int)
        best = {}
        for e in self.interior_edges:
            for v, w in (self.edges[e], self.edges[e][::-1]):
                key = (self.vertices[w, 1], self.vertices[w, 0], e)
                if not self.boundary_vertex[v] and key < best.get(v, (np.inf,)):
                    best[v] = key
                    self.vertex_edge[v] = e

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

    def local_edge(self, f, l):
        """Global edge number of local edge ``l`` of quad ``f``."""
        return int(self.quad_edge[f, l])

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


def _circumradius(points):
    # min enclosing circle of <= 4 points: try pair diameters, then
    # circumcircles of triples; pick the smallest covering circle
    pts = np.asarray(points, dtype=float)
    best = None
    m = len(pts)
    eps = 1e-12

    def covers(c, r):
        return np.all(np.hypot(*(pts - c).T) <= r * (1 + 1e-12) + 1e-300)

    for i in range(m):
        for j in range(i + 1, m):
            c = 0.5 * (pts[i] + pts[j])
            r = 0.5 * np.hypot(*(pts[i] - pts[j]))
            if covers(c, r) and (best is None or r < best[1]):
                best = (c, r)
    if best is not None:
        return float(best[1])
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                ax, ay = pts[i]
                bx, by = pts[j]
                cx, cy = pts[k]
                d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
                if abs(d) < eps * max(1.0, abs(ax), abs(bx), abs(cx)):
                    continue
                ux = ((ax ** 2 + ay ** 2) * (by - cy) + (bx ** 2 + by ** 2) * (cy - ay)
                      + (cx ** 2 + cy ** 2) * (ay - by)) / d
                uy = ((ax ** 2 + ay ** 2) * (cx - bx) + (bx ** 2 + by ** 2) * (ax - cx)
                      + (cx ** 2 + cy ** 2) * (bx - ax)) / d
                c = np.array([ux, uy])
                r = np.hypot(*(pts[i] - c))
                if covers(c, r) and (best is None or r < best[1]):
                    best = (c, r)
    if best is None:
        raise GeometryError("could not enclose the element in a circle")
    return float(best[1])


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
    return MeshQuality(r_in=inradius(v), r_out=np.array([_circumradius(q) for q in v]))


# ----------------------------------------------------------------------
# text format


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

    vertices = [np.asarray(v, dtype=float) for v in vertices]
    n_declared = len(vertices)
    quads = []
    extra = {}  # exact-coordinate key -> new vertex index

    def add_vertex(p):
        key = (float(p[0]), float(p[1]))
        if key in extra:
            return extra[key]
        vertices.append(np.asarray(p, dtype=float))
        extra[key] = len(vertices) - 1
        return extra[key]

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
            # shared with a neighbor dedupes exactly, as fl(a+b) = fl(b+a)
            mids = [add_vertex(q.vertices[1]) for q in split]
            g = add_vertex(split[0].vertices[2])
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
