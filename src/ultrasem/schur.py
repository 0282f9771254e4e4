"""Coupling of element operators into one global mesh solve.

The global unknowns are the stacked per-element coefficient vectors plus
an interface vector holding solution values at the Chebyshev points of
every interior edge (n values per edge, blocks ordered by
:func:`ultrasem.mesh.order_interfaces`).  Element boundary rows tie each
element's trace to the interface values at the edge points the element
owns (all but the counterclockwise corner of each edge); interface rows
match normal derivatives across each edge, with the two endpoint rows
replaced by value continuity except where the mesh vertex list marks the
edge, which keeps the coupled system square and nonsingular.

Eliminating the element blocks yields the interface complement

    Sigma = - sum_j  A_gamma_j  inv(A_jj)  A_j_gamma

(the interface/interface block is zero), a banded matrix once interfaces
are ordered well.  Solving it gives the interface values; every element
solve then decouples and reuses its cached factorization.

Elements whose inputs are bitwise equal (translation-free map
coefficients, PDE tables pulled back to the element, and boundary row
kinds with their outward normals) share one operator, factorization,
right-hand-side operator, W block per coupled-slot set and unscaled
interface rows.  Sharing never rounds, so results are bit-identical to
building every element alone.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import ultra
from ._linalg import BandedLU
from .element import (
    CoeffVector2D,
    assemble_element_operator,
    boundary_rows,
    boundary_slots,
    element_rhs_operator,
    grid_points,
    point_derivative_rows,
    point_value_row,
    outward_normal,
    project_rhs,
    pulled_pde,
    sample_on_grid,
    traversal_points,
)
from .errors import BookkeepingError, SingularOperatorError
from .mesh import interface_bandwidth, order_interfaces
from .quadmap import bilinear_coeffs, reference_corner


@dataclass
class InterfaceEdgeGeometry:
    """Geometry of one interior edge: endpoints ordered lower vertex
    number first, direction cosines of the edge, and the n interface
    Chebyshev points along it."""

    edge: int
    lo: np.ndarray
    hi: np.ndarray
    alpha: float
    beta: float
    params: np.ndarray
    points: np.ndarray

    @classmethod
    def build(cls, mesh, e, n):
        vlo, vhi = mesh.edges[e]
        p_lo, p_hi = mesh.vertices[vlo], mesh.vertices[vhi]
        d = p_hi - p_lo
        length = float(np.hypot(d[0], d[1]))
        t = ultra.cheb_points(n)
        pts = 0.5 * (p_lo + p_hi) + 0.5 * np.outer(t, d)
        return cls(edge=int(e), lo=p_lo, hi=p_hi,
                   alpha=float(d[0] / length), beta=float(d[1] / length),
                   params=t, points=pts)


def _edge_reference_point(local_edge, aligned, t):
    """Reference coordinates ``(r, s)`` of the interface points with edge
    parameter ``t`` (scalar or array, measured from the lower-numbered
    endpoint) on a quad's local edge."""
    ca = reference_corner(local_edge)
    cb = reference_corner((local_edge + 1) % 4)
    tau = t if aligned else -t
    a, b = 0.5 * (1 - tau), 0.5 * (1 + tau)
    return a * ca[0] + b * cb[0], a * ca[1] + b * cb[1]


def _normal_derivative_row(bm, n, r, s, alpha, beta):
    ux, uy = point_derivative_rows(bm, n, r, s)
    return beta * ux - alpha * uy


def _element_rows(quad, n, neumann):
    """The 4n-4 boundary rows of an element in traversal order: an outward
    normal-derivative row where the mask ``neumann`` is set, a value row
    elsewhere."""
    points = traversal_points(n).T
    rows = np.empty((4 * n - 4, n * n))
    for kind, pick in (("value", ~neumann), ("normal-derivative", neumann)):
        if pick.any():
            rows[pick] = boundary_rows(quad, n, kind, points[pick])
    return rows


def _edge_rows(bm, n, local_edge, aligned, params):
    """Rows of one element side of an interface edge: the physical
    derivative rows ``(u_x, u_y)`` at every interface point, each of shape
    (n, n^2), and the value rows at the two endpoints."""
    r, s = _edge_reference_point(local_edge, aligned, params)
    ux, uy = point_derivative_rows(bm, n, r, s)
    ends = point_value_row(n, r[[0, -1]], s[[0, -1]])
    return ux, uy, ends


class SchurSystem:
    """Factored global solver for one mesh, operator and resolution.

    ``ops``, ``rhs_ops`` and ``W`` are per-element lists whose entries
    are shared between elements with equal inputs; ``n_distinct`` counts
    the distinct element operators.  ``maps`` holds each element's own
    bilinear map, and ``grid_x``, ``grid_y`` the physical coordinates of
    every element's tensor grid as (F, n, n) arrays.  The 4n-4 boundary
    points of every element are held as (F, 4n-4) arrays in traversal
    order: ``point_kind`` ("coupled", "dirichlet", "neumann" or "pin"),
    ``point_edge`` (global edge) and ``point_x``, ``point_y``.
    """

    def __init__(self, mesh, pde, n, bc=None, pin_value_point=False):
        self.mesh = mesh
        self.pde = pde
        self.n = int(n)
        n_int = mesh.n_interior_edges
        self.block_pos = order_interfaces(mesh)
        self.n_gamma = self.n * n_int
        self._iedge_index = {int(e): k for k, e in enumerate(mesh.interior_edges)}
        self.geometry = [InterfaceEdgeGeometry.build(mesh, e, self.n)
                         for e in mesh.interior_edges]

        bc = dict(bc or {})
        for e, kind in bc.items():
            if kind not in ("dirichlet", "neumann"):
                raise BookkeepingError(f"edge {e}: unknown boundary condition {kind!r}")
            if e not in range(mesh.n_edges):
                raise BookkeepingError(f"edge {e} ({kind}) is not an edge of the mesh")
            if not mesh.boundary_edge[e]:
                raise BookkeepingError(f"edge {e} ({kind}) is interior, not a boundary edge")
        for e in range(mesh.n_edges):
            if mesh.boundary_edge[e]:
                bc.setdefault(e, "dirichlet")
        self.bc = bc
        self._pin = pin_value_point and "dirichlet" not in bc.values()

        self._build_elements()
        self._build_gamma_rows()
        self._check_counts()
        self._build_sigma()

    # -- element operators and coupling --------------------------------

    def gamma_col(self, e, m):
        """Interface unknown index of point ``m`` on interior edge ``e``."""
        return self.n * int(self.block_pos[self._iedge_index[int(e)]]) + int(m)

    def _build_elements(self):
        mesh, n = self.mesh, self.n
        self.maps = [bilinear_coeffs(mesh.element_quad(f)) for f in range(mesh.n_quads)]
        grid = np.array([grid_points(bm, n) for bm in self.maps])
        self.grid_x, self.grid_y = grid[:, 0], grid[:, 1]
        r, s = traversal_points(n)
        points = np.array([bm(r, s) for bm in self.maps])
        self.point_x, self.point_y = points[:, 0], points[:, 1]

        # per traversal point: its edge, and its interface unknown if coupled
        self.point_edge = np.repeat(mesh.quad_edge, n - 1, axis=1)
        a = np.tile(np.arange(n - 1), 4)
        along = np.where(np.repeat(mesh.quad_edge_aligned, n - 1, axis=1), a, n - 1 - a)
        first_col = np.zeros(mesh.n_edges, dtype=int)
        first_col[mesh.interior_edges] = n * self.block_pos
        cols = first_col[self.point_edge] + along
        edge_kind = np.array([self.bc.get(e, "coupled") for e in range(mesh.n_edges)])
        self.point_kind = edge_kind[self.point_edge]
        if self._pin:
            # the first Neumann point in element order takes a value row
            self.point_kind.flat[np.argmax(self.point_kind == "neumann")] = "pin"

        self.ops, self.rhs_ops = [], []
        self.coupling = []   # per element: (slots, gamma cols) arrays
        self._op_index = []  # per element: index of its distinct operator
        index = {}  # element key -> index into distinct
        distinct = []  # (operator, right-hand-side operator) per key
        slots_all = boundary_slots(n)
        coupling_count = np.zeros(self.n_gamma, dtype=int)

        for f in range(mesh.n_quads):
            quad = mesh.element_quad(f)
            bm = self.maps[f]
            rows_neumann = self.point_kind[f] == "neumann"
            normals = tuple(outward_normal(quad, l).tobytes() for l in range(4)
                            if rows_neumann.reshape(4, n - 1)[l].any())
            # Exact bytes of everything the operator, its boundary rows and
            # its right-hand-side operator are computed from (n is fixed
            # per system); equal keys give bitwise equal results.
            key = (np.array([bm.b1, bm.c1, bm.d1, bm.b2, bm.c2, bm.d2]).tobytes(),
                   tuple((t.shape, t.tobytes()) for t in pulled_pde(self.pde, bm).values()),
                   rows_neumann.tobytes(), normals)
            i = index.setdefault(key, len(index))
            if i == len(distinct):
                rows = _element_rows(quad, n, rows_neumann)
                distinct.append((assemble_element_operator(self.pde, quad, n, rows=rows),
                                 element_rhs_operator(quad, n)))
            op, rhs_op = distinct[i]
            self._op_index.append(i)
            self.ops.append(op)
            self.rhs_ops.append(rhs_op)
            coupled = self.point_kind[f] == "coupled"
            c_cols = cols[f, coupled]
            coupling_count[c_cols] += 1
            self.coupling.append((slots_all[coupled], c_cols))
        self.n_distinct = len(distinct)

        if self.n_gamma:
            interior_pts = np.ones(self.n_gamma, dtype=bool)
            ends = []
            for k in range(len(self.mesh.interior_edges)):
                base = self.n * self.block_pos[k]
                ends += [base, base + self.n - 1]
            interior_pts[ends] = False
            if not (np.all(coupling_count[interior_pts] == 2)
                    and np.all(coupling_count[~interior_pts] == 1)):
                raise BookkeepingError(
                    "corner-exclusion rule failed to cover the interface points")

    def element_interface_columns(self, f, e=None):
        """Coupling of element ``f`` into the interface vector: arrays
        ``(slots, gamma_cols, values)``; restricted to interior edge ``e``
        when given."""
        slots, cols = self.coupling[f]
        vals = -self.ops[f].scale[slots] if slots.size else np.zeros(0)
        if e is not None:
            base = self.gamma_col(e, 0)
            mask = (cols >= base) & (cols < base + self.n)
            return slots[mask], cols[mask], vals[mask]
        return slots, cols, vals

    # -- interface matching rows ----------------------------------------

    def _build_gamma_rows(self):
        mesh, n = self.mesh, self.n
        # per element: list of (first gamma row, dense (n, n^2) block)
        self.gamma_blocks = [[] for _ in range(mesh.n_quads)]
        shared = {}  # (distinct operator, local edge, orientation) -> _edge_rows
        for k, e in enumerate(mesh.interior_edges):
            geom = self.geometry[k]
            base = n * self.block_pos[k]
            sides = mesh.edge_quads[e]  # two (quad, local edge, aligned), quad ascending
            blocks = []
            for f, l, aligned in sides:
                key = (self._op_index[f], int(l), bool(aligned))
                if key not in shared:
                    shared[key] = _edge_rows(self.maps[f], n, l, aligned, geom.params)
                ux, uy, ends = shared[key]
                rows = geom.beta * ux - geom.alpha * uy
                # an endpoint matches derivatives only at an interior vertex
                # that marks this edge; elsewhere it matches values
                for m, v, end in ((0, mesh.edges[e][0], ends[0]),
                                  (n - 1, mesh.edges[e][1], ends[1])):
                    if mesh.boundary_vertex[v] or mesh.vertex_edge[v] != e:
                        rows[m] = end
                blocks.append(rows)
            blocks[1] = -blocks[1]
            # one shared scale per matching row keeps it one equation
            sup = np.maximum(np.abs(blocks[0]).max(axis=1),
                             np.abs(blocks[1]).max(axis=1))[:, None]
            for (f, _, _), rows in zip(sides, blocks):
                self.gamma_blocks[f].append((base, rows / sup))

    def interface_matching_rows(self, e):
        """The two dense row blocks (for the lower- and higher-numbered
        incident element) matching derivatives/values across edge ``e``."""
        k = self._iedge_index[int(e)]
        base = self.n * self.block_pos[k]
        out = []
        for f, blocks in enumerate(self.gamma_blocks):
            for b, rows in blocks:
                if b == base:
                    out.append((f, rows))
        return out

    # -- bookkeeping assertions ------------------------------------------

    def _check_counts(self):
        # every element contributes n^2 rows, every interior edge n rows;
        # matching blocks must come in pairs covering each edge once
        n_blocks = sum(len(blocks) for blocks in self.gamma_blocks)
        if n_blocks * self.n != 2 * self.n_gamma:
            raise BookkeepingError("interface matching rows do not pair up")

    # -- Schur complement --------------------------------------------------

    def _build_sigma(self):
        n = self.n
        self.W = []
        if self.n_gamma == 0:
            self._sigma = None
            self._sigma_solve = None
            self.sigma_bandwidth = 0
            return
        r, c, v = [], [], []
        shared = {}  # (distinct operator, coupled slots) -> W
        for f, op in enumerate(self.ops):
            slots, cols = self.coupling[f]
            if slots.size == 0 and not self.gamma_blocks[f]:
                self.W.append(None)
                continue
            key = (self._op_index[f], slots.tobytes())
            if key not in shared:
                rhs = np.zeros((n * n, slots.size))
                rhs[slots, np.arange(slots.size)] = -op.scale[slots]
                shared[key] = op.solve_raw(rhs) if slots.size else np.zeros((n * n, 0))
            W = shared[key]
            self.W.append(W)
            for base, rows in self.gamma_blocks[f]:
                r.append(np.repeat(np.arange(base, base + n), cols.size))
                c.append(np.tile(cols, n))
                v.append(-(rows @ W).ravel())
        # Sigma = -sum A_gamma_j inv(A_jj) A_j_gamma; signs folded above.
        # An entry gets at most two contributions, so summing the
        # duplicates is exact in any order.
        sigma = sp.csr_matrix((np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
                              shape=(self.n_gamma, self.n_gamma))
        sigma.eliminate_zeros()
        self._sigma = sigma
        coo = sigma.tocoo()
        self.sigma_bandwidth = int(np.abs(coo.row - coo.col).max()) if coo.nnz else 0
        bound = (interface_bandwidth(self.mesh, self.block_pos) + 1) * n
        if self.sigma_bandwidth >= bound:
            raise BookkeepingError(
                f"interface complement bandwidth {self.sigma_bandwidth} "
                f"exceeds the ordering bound {bound}")
        try:
            banded = BandedLU(sigma, name="interface complement")
            rcond = banded.rcond(abs(sigma).sum(axis=0).max())
        except SingularOperatorError:
            rcond = 0.0
        if rcond < np.finfo(float).eps:
            raise SingularOperatorError(
                "interface complement is singular; likely redundant interface "
                "constraints or an all-Neumann problem without a pinned value")
        # a bound method of the factorization holds no reference to self
        self._sigma_solve = banded.solve

    @property
    def sigma(self):
        """Dense view of the interface complement (None without interfaces)."""
        return None if self._sigma is None else self._sigma.toarray()

    # -- right-hand sides and solving --------------------------------------

    def _rhs_vectors(self, f, dirichlet, neumann):
        """Right-hand sides of every element, stacked (F, n^2): the forcing
        sampled on all element grids at once, and the boundary data at
        every Dirichlet and Neumann traversal point."""
        n = self.n
        rhs_full = np.zeros((self.mesh.n_quads, n * n))
        if f is not None:
            G = sample_on_grid(self.grid_x, self.grid_y, f)
            bad = ~np.isfinite(G).all(axis=(1, 2))
            if bad.any():
                raise ValueError(f"forcing is not finite on element {np.argmax(bad)}")
            C = ultra.vals_to_coeffs_2d(G)
            for k, rhs_op in enumerate(self.rhs_ops):
                rhs_full[k] = rhs_op @ C[k].ravel(order="F")
        values = np.zeros(self.point_kind.shape)
        for kind, src in (("dirichlet", dirichlet), ("neumann", neumann)):
            on_kind = self.point_kind == kind
            per_edge = src.items() if isinstance(src, dict) else [(None, src)]
            for e, s in per_edge:
                pick = on_kind if e is None else on_kind & (self.point_edge == e)
                if pick.any():
                    x, y = self.point_x[pick], self.point_y[pick]
                    values[pick] = s(x, y) if callable(s) else s
        bad = ~np.isfinite(values)
        if bad.any():
            k = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"boundary data is not finite on element {k[0]}, "
                             f"edge {self.point_edge[k]} at "
                             f"({self.point_x[k]:g}, {self.point_y[k]:g})")
        return project_rhs(rhs_full, values, n)

    def solve(self, f=None, dirichlet=0.0, neumann=0.0, return_info=False):
        """Solve the PDE on the whole mesh.

        ``f`` is a callable of physical coordinates, evaluated once on the
        stacked (F, n, n) element grids, an (F, n, n) array of grid values
        (a list of n-by-n grids converts), or None (zero).
        ``dirichlet``/``neumann`` supply boundary data as a constant, a
        callable ``(x, y)`` evaluated once on arrays of boundary points, or
        a dict mapping global boundary edge numbers to either.
        Returns a list of per-element :class:`CoeffVector2D`.
        """
        n = self.n
        B = self._rhs_vectors(f, dirichlet, neumann)
        x0 = []
        rhs_gamma = np.zeros(self.n_gamma)
        for fidx, op in enumerate(self.ops):
            xf = op.solve(B[fidx])
            x0.append(xf)
            for base, rows in self.gamma_blocks[fidx]:
                rhs_gamma[base:base + n] -= rows @ xf
        if self.n_gamma:
            u_gamma = self._sigma_solve(rhs_gamma)
        else:
            u_gamma = np.zeros(0)
        sols = []
        for fidx, op in enumerate(self.ops):
            slots, cols = self.coupling[fidx]
            x = x0[fidx]
            if slots.size:
                x = x - self.W[fidx] @ u_gamma[cols]
            sols.append(CoeffVector2D(n, x))
        if not return_info:
            return sols
        info = SolveInfo(u_gamma=u_gamma,
                         residual=self._residual(sols, u_gamma, B))
        return sols, info

    def _residual(self, sols, u_gamma, bvecs):
        n = self.n
        top = 0.0
        scale_ref = 1.0
        for fidx, op in enumerate(self.ops):
            slots, cols = self.coupling[fidx]
            r = op.matvec(sols[fidx].data) - op.scale * bvecs[fidx]
            if slots.size:
                r[slots] -= op.scale[slots] * u_gamma[cols]
            top = max(top, np.abs(r).max())
            scale_ref = max(scale_ref, np.abs(op.scale * bvecs[fidx]).max())
        gam = np.zeros(self.n_gamma)
        for fidx in range(self.mesh.n_quads):
            for base, rows in self.gamma_blocks[fidx]:
                gam[base:base + n] += rows @ sols[fidx].data
        if self.n_gamma:
            top = max(top, np.abs(gam).max())
        return top / scale_ref

    # -- dense oracle -------------------------------------------------------

    def to_dense_global(self):
        """Dense monolithic matrix of the full coupled system, ordered as
        element blocks then interface unknowns.  Built from the same rows
        but solved without the Schur elimination; used as an oracle."""
        n, mesh = self.n, self.mesh
        N = mesh.n_quads * n * n + self.n_gamma
        G = np.zeros((N, N))
        for f, op in enumerate(self.ops):
            o = f * n * n
            G[o:o + n * n, o:o + n * n] = op.to_dense()
            slots, cols = self.coupling[f]
            if slots.size:
                G[o + slots, mesh.n_quads * n * n + cols] = -op.scale[slots]
            for base, rows in self.gamma_blocks[f]:
                G[mesh.n_quads * n * n + base: mesh.n_quads * n * n + base + n,
                  o:o + n * n] = rows
        return G

    def solve_dense(self, f=None, dirichlet=0.0, neumann=0.0):
        """Solve through the dense monolithic matrix (oracle path)."""
        n, mesh = self.n, self.mesh
        B = self._rhs_vectors(f, dirichlet, neumann)
        G = self.to_dense_global()
        rhs = np.zeros(G.shape[0])
        for fidx, op in enumerate(self.ops):
            rhs[fidx * n * n:(fidx + 1) * n * n] = op.scale * B[fidx]
        x = np.linalg.solve(G, rhs)
        return [CoeffVector2D(n, x[fidx * n * n:(fidx + 1) * n * n])
                for fidx in range(mesh.n_quads)]


@dataclass
class SolveInfo:
    u_gamma: np.ndarray
    residual: float


def assemble_schur(mesh, pde, n, bc=None, pin_value_point=False):
    """Assemble and factor the coupled mesh solver (element operators,
    coupling blocks and the banded interface complement)."""
    return SchurSystem(mesh, pde, n, bc=bc, pin_value_point=pin_value_point)
