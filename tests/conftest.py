import numpy as np
import pytest
from hypothesis import settings

from ultrasem.mesh import QuadMesh, grid_mesh, mesh_from_string

# mesh property tests (``@settings(PROPERTIES)``): few examples, drawn
# the same way every run, so that their cost stays small and fixed
settings.register_profile("mesh-properties", max_examples=10, deadline=None,
                          derandomize=True)
PROPERTIES = settings.get_profile("mesh-properties")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_convex_quad(rng, scale=1.0, center=(0.0, 0.0)):
    """Four points in convex position, counterclockwise, via rejection."""
    while True:
        pts = rng.uniform(-1.0, 1.0, size=(4, 2))
        hull = _hull(pts)
        if len(hull) == 4:
            v = pts[hull] * scale + np.asarray(center)
            # require some thickness so tests stay well scaled
            area = _area(v)
            if area > 0.05 * scale * scale:
                return v


def _area(v):
    x, y = v[:, 0], v[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _hull(pts):
    """Indices of the convex hull in counterclockwise order (gift wrap)."""
    idx = sorted(range(len(pts)), key=lambda k: (pts[k][0], pts[k][1]))
    start = idx[0]
    hull = [start]
    while True:
        cur = hull[-1]
        cand = None
        for k in range(len(pts)):
            if k == cur:
                continue
            if cand is None:
                cand = k
                continue
            a = pts[cand] - pts[cur]
            b = pts[k] - pts[cur]
            cr = a[0] * b[1] - a[1] * b[0]
            if cr < 0 or (cr == 0 and np.linalg.norm(pts[k] - pts[cur]) >
                          np.linalg.norm(pts[cand] - pts[cur])):
                cand = k
        if cand == start:
            break
        hull.append(cand)
        if len(hull) > len(pts):
            break
    return hull


def jiggled_grid(nx, ny, rng):
    """``grid_mesh(nx, ny)`` with every interior vertex moved at random."""
    mesh = grid_mesh(nx, ny)
    v = mesh.vertices.copy()
    for k in range(len(v)):
        if not mesh.boundary_vertex[k]:
            v[k] += rng.uniform(-0.08, 0.08, size=2) / max(nx, ny)
    return QuadMesh(v, mesh.quads)


def skinny_pair_mesh(eps):
    """Square [-1,1]^2 with a convex sliver of skinniness ~eps attached to
    its right edge (the overlapping figure configuration made planar)."""
    verts = [(-1, -1), (1, -1), (1, 1), (-1, 1),
             (1 + 2 * eps, -0.9), (1 + eps, 0.9)]
    quads = [(0, 1, 2, 3), (2, 1, 4, 5)]
    return QuadMesh(verts, quads)


def mixed_mesh():
    """Eight elements: a quad, a median-split pair of triangles, a quad."""
    text = """quadmesh 1
v 0 0
v 1 0
v 2 0
v 3 0
v 0 1
v 1 1
v 2 1
v 3 1
q 1 2 6 5
t 2 3 7
t 2 7 6
q 3 4 8 7
"""
    return mesh_from_string(text)


# the variable-coefficient PDE of the benchmark's mixed-mesh workload
VARCOEF = "general:a11=1+0.5*x^2;a22=2+y;b1=x;c=-1"


_CORNERS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def edge_point(l, aligned, t):
    """Reference coordinates ``(r, s)`` of the points with edge parameter
    ``t`` in [-1, 1], measured from the edge's lower-numbered vertex, on
    local edge ``l`` of a quad; ``aligned`` says the local edge runs from
    that vertex.  Corner ``k`` of the reference square maps to vertex k."""
    tau = np.asarray(t, dtype=float)[..., None] * (1.0 if aligned else -1.0)
    p = 0.5 * (1 - tau) * _CORNERS[l] + 0.5 * (1 + tau) * _CORNERS[(l + 1) % 4]
    return p[..., 0], p[..., 1]


def eval_on_grid(system, sols, fn, m=25):
    """Max abs difference between a mesh solution and fn on sampled grids."""
    t = np.linspace(-1, 1, m)
    R, S = np.meshgrid(t, t)
    err = 0.0
    for k, s in enumerate(sols):
        X, Y = system.maps[k](R, S)
        err = max(err, np.max(np.abs(s.eval(R, S) - fn(X, Y))))
    return err


# the arrays a SchurSystem holds for its coupling to the interface values
COUPLING_ARRAYS = ("_point_col", "_pair_rows", "_pair_elems", "_match_at", "_match_coef",
                   "_w", "_w_cols", "_w_from")


def coupling_nbytes(system):
    """Bytes of the held coupling arrays of a SchurSystem."""
    return sum(getattr(system, name).nbytes for name in COUPLING_ARRAYS)
