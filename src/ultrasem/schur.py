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

With the element unknowns stacked as one vector of length F n^2, the
coupling is three sparse matrices: ``A_gamma`` (the scaled interface
matching rows), ``C_gamma`` (each element's boundary rows acting on the
interface values) and ``W_gamma`` (each element's solves against its
``C_gamma`` columns).  Eliminating the element blocks yields the
interface complement

    Sigma = - sum_j  A_gamma_j  inv(A_jj)  A_j_gamma

(the interface/interface block is zero), a banded matrix once interfaces
are ordered well.  Solving it gives the interface values; every element
solve then decouples and reuses its cached factorization.

Elements whose inputs are bitwise equal (translation-free map
coefficients, PDE tables pulled back to the element, and boundary row
kinds with their outward normals) form one group sharing an operator,
factorization, right-hand-side operator, W block per coupled-slot set and
unscaled interface rows.  Sharing never rounds, so operators and W blocks
are bit-identical to building every element alone; a solve runs one
multi-column solve per group.
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
from .mesh import build_mesh, interface_bandwidth, order_interfaces
from .quadmap import Quad, bilinear_coeffs, reference_corner


def _edge_reference_point(local_edge, aligned, t):
    """Reference coordinates ``(r, s)`` of the interface points with edge
    parameter ``t`` (scalar or array, measured from the lower-numbered
    endpoint) on a quad's local edge."""
    ca = reference_corner(local_edge)
    cb = reference_corner((local_edge + 1) % 4)
    tau = t if aligned else -t
    a, b = 0.5 * (1 - tau), 0.5 * (1 + tau)
    return a * ca[0] + b * cb[0], a * ca[1] + b * cb[1]


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

    ``groups`` holds one ``(elements, op, rhs_op)`` triple per distinct
    element operator (``n_distinct`` of them); ``ops`` is a per-element
    list whose entries are shared between elements with equal inputs.
    The coupling of the stacked element unknowns (length F n^2) to the
    interface vector is held as the sparse matrices ``A_gamma``,
    ``C_gamma`` and ``W_gamma`` (see the module docstring).
    ``edge_direction`` holds the unit direction of every interior edge,
    lower vertex number to higher, as an (n_interior_edges, 2) array in
    ``mesh.interior_edges`` order.  ``sigma_rcond`` is the reciprocal
    1-norm condition estimate of Sigma (None without interfaces).  ``maps``
    holds each element's own bilinear map, and ``grid_x``, ``grid_y`` the
    physical coordinates of every element's tensor grid as (F, n, n)
    arrays.  The 4n-4 boundary points of every element are held as
    (F, 4n-4) arrays in traversal order: ``point_kind`` ("coupled",
    "dirichlet", "neumann" or "pin"), ``point_edge`` (global edge) and
    ``point_x``, ``point_y``.
    """

    def __init__(self, mesh, pde, n, bc=None, pin_value_point=False):
        self.mesh = mesh
        self.pde = pde
        self.n = int(n)
        self.block_pos = order_interfaces(mesh)
        self.n_gamma = self.n * mesh.n_interior_edges
        d = np.diff(mesh.vertices[mesh.edges[mesh.interior_edges]], axis=1)[:, 0]
        self.edge_direction = d / np.hypot(d[:, 0], d[:, 1])[:, None]

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
        # the coupling's build temporaries are freed before Sigma is factored
        self._factor_sigma(self._build_coupling())

    # -- element operators ----------------------------------------------

    def _build_elements(self):
        mesh, n = self.mesh, self.n
        nn, F = n * n, mesh.n_quads
        self.maps = [bilinear_coeffs(mesh.element_quad(f)) for f in range(F)]
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
        self._point_col = first_col[self.point_edge] + along
        edge_kind = np.array([self.bc.get(e, "coupled") for e in range(mesh.n_edges)])
        self.point_kind = edge_kind[self.point_edge]
        if self._pin:
            # the first Neumann point in element order takes a value row
            self.point_kind.flat[np.argmax(self.point_kind == "neumann")] = "pin"

        self._group = np.empty(F, dtype=int)  # per element: its group
        index = {}  # element key -> group
        distinct = []  # (operator, right-hand-side operator) per group
        for f in range(F):
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
            self._group[f] = i
        self.n_distinct = len(distinct)
        self.ops = [distinct[i][0] for i in self._group]
        self.groups = [(np.flatnonzero(self._group == i), op, rhs_op)
                       for i, (op, rhs_op) in enumerate(distinct)]
        self._scale = np.empty((F, nn))  # row scales of every element
        for elems, op, _ in self.groups:
            self._scale[elems] = op.scale

    # -- coupling and the Schur complement -------------------------------

    def _build_coupling(self):
        """``C_gamma``, the W blocks and ``W_gamma``, then ``A_gamma`` and
        Sigma in one pass over the interior edges.  Returns Sigma (None
        without interfaces)."""
        mesh, n = self.mesh, self.n
        nn, F = n * n, mesh.n_quads
        if self.n_gamma == 0:
            self.A_gamma = sp.csr_matrix((0, F * nn))
            self.C_gamma = self.W_gamma = sp.csr_matrix((F * nn, 0))
            return None

        # C_gamma: one -scale entry in the row of every coupled slot
        coupled = self.point_kind == "coupled"
        slots = boundary_slots(n)
        counts = np.zeros((F, nn), dtype=int)
        counts[:, slots] = coupled
        self.C_gamma = sp.csr_matrix(
            (-self._scale[:, slots][coupled], self._point_col[coupled],
             np.concatenate([[0], np.cumsum(counts)])),
            shape=(F * nn, self.n_gamma))
        # every interface point is coupled from both sides, except the two
        # endpoints of each edge, which one side owns
        end = np.isin(np.arange(self.n_gamma) % n, (0, n - 1))
        cover = np.bincount(self.C_gamma.indices, minlength=self.n_gamma)
        if not (np.all(cover[~end] == 2) and np.all(cover[end] == 1)):
            raise BookkeepingError(
                "corner-exclusion rule failed to cover the interface points")

        # the other CSR arrays are filled in place with int32 indices (F n^2
        # and n_gamma stay far below 2^31): build temporaries would stay in
        # the process heap after they are freed
        cols = [self._point_col[f, coupled[f]] for f in range(F)]
        w_ptr = np.concatenate([[0], np.cumsum(np.repeat(coupled.sum(axis=1), nn))])
        w_data = np.empty(w_ptr[-1])
        w_cols = np.empty(w_ptr[-1], dtype=np.int32)
        W = [None] * F  # per element; shared between equal inputs
        shared = {}  # (group, coupled slots) -> W
        for f in np.flatnonzero(coupled.any(axis=1)):
            key = (self._group[f], coupled[f].tobytes())
            if key not in shared:
                op, s = self.ops[f], slots[coupled[f]]
                rhs = np.zeros((nn, s.size))
                rhs[s, np.arange(s.size)] = -op.scale[s]
                shared[key] = op.solve_raw(rhs)
            W[f] = shared[key]
            block = slice(w_ptr[f * nn], w_ptr[(f + 1) * nn])
            w_data[block] = W[f].ravel()
            w_cols[block] = np.tile(cols[f], nn)
        self.W_gamma = sp.csr_matrix((w_data, w_cols, w_ptr), shape=(F * nn, self.n_gamma))

        # every matching row holds one dense n^2 block per side, lower
        # element first
        a_data = np.empty((self.n_gamma, 2, nn))
        a_cols = np.empty((self.n_gamma, 2, nn), dtype=np.int32)
        # Sigma triplets: n per coupled column of every side of every edge
        n_sides = (~mesh.boundary_edge[mesh.quad_edge]).sum(axis=1)
        r, c = np.empty((2, n * n_sides @ coupled.sum(axis=1)), dtype=np.int32)
        v = np.empty(r.size)
        o = 0
        params = ultra.cheb_points(n)
        shared = {}  # (group, local edge, orientation) -> _edge_rows
        for k, e in enumerate(mesh.interior_edges):
            alpha, beta = self.edge_direction[k]
            base = n * self.block_pos[k]
            sides = mesh.edge_quads[e]  # two (quad, local edge, aligned), quad ascending
            blocks = []
            for f, l, aligned in sides:
                key = (self._group[f], int(l), bool(aligned))
                if key not in shared:
                    shared[key] = _edge_rows(self.maps[f], n, l, aligned, params)
                ux, uy, ends = shared[key]
                rows = beta * ux - alpha * uy
                # an endpoint matches derivatives only at an interior vertex
                # that marks this edge; elsewhere it matches values
                for m, vx, end in ((0, mesh.edges[e][0], ends[0]),
                                   (n - 1, mesh.edges[e][1], ends[1])):
                    if mesh.boundary_vertex[vx] or mesh.vertex_edge[vx] != e:
                        rows[m] = end
                blocks.append(rows)
            blocks[1] = -blocks[1]
            # one shared scale per matching row keeps it one equation
            sup = np.maximum(np.abs(blocks[0]).max(axis=1),
                             np.abs(blocks[1]).max(axis=1))[:, None]
            for side, ((f, _, _), rows) in enumerate(zip(sides, blocks)):
                rows = rows / sup
                a_data[base:base + n, side] = rows
                a_cols[base:base + n, side] = f * nn + np.arange(nn)
                block = slice(o, o + n * cols[f].size)
                r[block] = np.repeat(np.arange(base, base + n), cols[f].size)
                c[block] = np.tile(cols[f], n)
                v[block] = -(rows @ W[f]).ravel()
                o = block.stop
        self.A_gamma = sp.csr_matrix(
            (a_data.ravel(), a_cols.ravel(), np.arange(self.n_gamma + 1) * 2 * nn),
            shape=(self.n_gamma, F * nn))
        # Sigma = -sum A_gamma_j inv(A_jj) A_j_gamma; signs folded above.
        # An entry gets at most two contributions, so summing the
        # duplicates is exact in any order.
        sigma = sp.csr_matrix((v, (r, c)), shape=(self.n_gamma, self.n_gamma))
        sigma.eliminate_zeros()
        return sigma

    def _factor_sigma(self, sigma):
        """Check Sigma's bandwidth against the ordering bound, factor it
        and keep its condition estimate."""
        self._sigma = sigma
        if sigma is None:
            self._sigma_solve = self.sigma_rcond = None
            self.sigma_bandwidth = 0
            return
        n = self.n
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
        self.sigma_rcond = rcond
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
            # each element's coefficients stacked column by column
            C = ultra.vals_to_coeffs_2d(G).transpose(0, 2, 1).reshape(len(G), n * n)
            for elems, _, rhs_op in self.groups:
                rhs_full[elems] = (rhs_op @ C[elems].T).T
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

    def _element_solves(self, B):
        """Stacked (F, n^2) element solves with zero interface values: one
        multi-column solve per group."""
        X = np.empty_like(B)
        for elems, op, _ in self.groups:
            X[elems] = op.solve(B[elems].T).T
        return X

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
        B = self._rhs_vectors(f, dirichlet, neumann)
        X = self._element_solves(B)
        u_gamma = np.zeros(self.n_gamma)
        if self.n_gamma:
            u_gamma = self._sigma_solve(-(self.A_gamma @ X.ravel()))
            X -= (self.W_gamma @ u_gamma).reshape(X.shape)
        sols = [CoeffVector2D(self.n, x) for x in X]
        if not return_info:
            return sols
        return sols, SolveInfo(u_gamma=u_gamma, residual=self._residual(X, u_gamma, B))

    def _residual(self, X, u_gamma, B):
        """Largest residual of the coupled system, relative to the largest
        scaled right-hand side entry (at least 1)."""
        R = np.empty_like(X)
        for elems, op, _ in self.groups:
            R[elems] = op.matvec(X[elems].T).T
        SB = self._scale * B
        R -= SB
        top = 0.0
        if self.n_gamma:
            R += (self.C_gamma @ u_gamma).reshape(R.shape)
            top = np.abs(self.A_gamma @ X.ravel()).max()
        return max(top, np.abs(R).max()) / max(1.0, np.abs(SB).max())

    # -- dense oracle -------------------------------------------------------

    def to_dense_global(self):
        """Dense monolithic matrix of the full coupled system, ordered as
        element blocks then interface unknowns.  Built from the same rows
        but solved without the Schur elimination; used as an oracle."""
        nn = self.n * self.n
        FN = self.mesh.n_quads * nn
        G = np.zeros((FN + self.n_gamma, FN + self.n_gamma))
        for elems, op, _ in self.groups:
            idx = elems[:, None] * nn + np.arange(nn)
            G[idx[:, :, None], idx[:, None, :]] = op.to_dense()
        G[:FN, FN:] = self.C_gamma.toarray()
        G[FN:, :FN] = self.A_gamma.toarray()
        return G

    def solve_dense(self, f=None, dirichlet=0.0, neumann=0.0):
        """Solve through the dense monolithic matrix (oracle path)."""
        B = self._rhs_vectors(f, dirichlet, neumann)
        rhs = np.concatenate([(self._scale * B).ravel(), np.zeros(self.n_gamma)])
        x = np.linalg.solve(self.to_dense_global(), rhs)
        return [CoeffVector2D(self.n, xf) for xf in x[:B.size].reshape(B.shape)]


@dataclass
class SolveInfo:
    u_gamma: np.ndarray
    residual: float


def assemble_schur(mesh, pde, n, bc=None, pin_value_point=False):
    """Assemble and factor the coupled mesh solver (element operators,
    coupling matrices and the banded interface complement)."""
    return SchurSystem(mesh, pde, n, bc=bc, pin_value_point=pin_value_point)


def solve_element_dirichlet(pde, quad, n, f, g):
    """Solve ``L u = f`` on one element with Dirichlet data ``g`` imposed
    at the 4n-4 boundary grid points, as a one-element mesh.  ``f`` and
    ``g`` are callables of physical coordinates (``f`` may also be an
    n-by-n value grid).  Returns a :class:`CoeffVector2D`."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    if not callable(f):
        f = np.asarray(f, dtype=float)[None]
    mesh = build_mesh(quad.vertices, [(0, 1, 2, 3)])
    return SchurSystem(mesh, pde, n).solve(f=f, dirichlet=g)[0]
