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

Every boundary and interface row is evaluated at the element's own
boundary grid points (:func:`ultrasem.element.edge_points`), and every
normal-derivative row, Neumann or matching, comes from
:func:`_normal_rows` with the element's outward normal.  A matching row is
therefore a jump across the edge: the two sides' outward normal
derivatives add, and an endpoint value row is the side whose local edge
runs from the lower vertex number to the higher (the aligned side) minus
the other side.

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

Elements whose map coefficients agree (translation-free to
``_SHARE_TOL`` times the inradius of the first, the translation too when
a PDE table varies) form a geometry class sharing one right-hand-side
operator, built from that first element.  A class splits into groups
that agree so with their first element, in boundary row kinds exactly
and in Neumann edge normals to ``_SHARE_TOL``.  The class's first group
builds its operator from the first element and its rows; every other
group is a :meth:`~ultrasem.element.AlmostBandedMatrix.bordered` copy of
it with its own rows, sharing the banded part and its factorization.
The elements of a group share its operator and a W block per
coupled-slot set.  Congruent elements whose coordinates round
differently therefore share; elements with bitwise equal inputs get
bit-identical operators and W blocks to building every element alone.
Setup is array operations over all elements and interior edges at once,
with Python loops only over classes, groups and W blocks.  A solve
multiplies by each class's right-hand-side operator once, places
boundary data at points listed at setup, and makes one multi-column
``solve_raw`` per group.
"""

from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp

from . import ultra
from ._linalg import BandedLU
from .element import (
    CoeffVector2D,
    assemble_element_operator,
    boundary_slots,
    edge_points,
    element_rhs_operator,
    grid_points,
    point_derivative_rows,
    point_value_row,
    project_rhs,
    sample_on_grid,
    traversal_points,
)
from .errors import BookkeepingError, SingularOperatorError
from .mesh import build_mesh, interface_bandwidth, order_interfaces
from .quadmap import Quad, bilinear_coeffs, inradius, outward_normals


def _normal_rows(bm, normals, n, r, s):
    """Dense rows evaluating the normal derivative ``n_x u_x + n_y u_y`` at
    reference points, with the unit normal ``normals[..., :]`` of each
    point; the map's fields and ``normals[..., 0]`` broadcast against the
    points.  Formed in place: for stacked interface rows every freed
    temporary of their size fragments the heap that later setup uses."""
    rows, uy = point_derivative_rows(bm, n, r, s)
    rows *= normals[..., :1]
    uy *= normals[..., 1:]
    rows += uy
    return rows


# Elements share an operator when their map coefficients agree to this
# fraction of the representative's inradius (and their Neumann normals to
# this much absolute).  The inradius shrinks with the thinnest direction,
# so slivers whose thickness differs by more than rounding stay apart;
# the largest coefficient would not, and would cost them their accuracy.
_SHARE_TOL = 1e-13


def _share_classes(coeffs, normals, neumann, r_in):
    """Classes of elements that share one operator: the lowest unassigned
    element becomes a class representative and takes every unassigned
    element whose rows of ``coeffs`` lie within ``_SHARE_TOL`` times its
    inradius ``r_in``, whose ``normals`` lie within ``_SHARE_TOL`` and
    whose ``neumann`` mask is equal.  Returns the representatives, in
    order, and each element's class number."""
    group = np.full(len(coeffs), -1)
    leaders = []
    free = np.arange(len(coeffs))
    while free.size:
        rep = free[0]
        near = ((np.abs(coeffs[free] - coeffs[rep]).max(axis=1) <= _SHARE_TOL * r_in[rep])
                & (np.abs(normals[free] - normals[rep]).max(axis=1) <= _SHARE_TOL)
                & (neumann[free] == neumann[rep]).all(axis=1))
        near[0] = True  # the representative, whatever its inradius
        group[free[near]] = len(leaders)
        leaders.append(rep)
        free = free[~near]
    return np.array(leaders), group


def _row_groups(key):
    """Group the rows of a 2-D array by their exact bytes: the first row of
    every group, groups in order of first appearance, and each row's
    group number."""
    rows = np.ascontiguousarray(key)
    rows = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse]


class SchurSystem:
    """Factored global solver for one mesh, operator and resolution.

    ``groups`` holds one ``(elements, op, rhs_op)`` triple per distinct
    element operator (``n_distinct`` of them; the groups of one geometry
    class hold the same ``rhs_op``); ``ops`` is a per-element list whose
    entries are shared between elements whose inputs agree.
    The coupling of the stacked element unknowns (length F n^2) to the
    interface vector is held as the sparse matrices ``A_gamma``,
    ``C_gamma`` and ``W_gamma`` (see the module docstring); a row of
    ``A_gamma`` is a jump across its edge, the two sides' outward normal
    derivatives added, or at an endpoint the aligned side's value minus
    the other side's.  ``sigma_rcond`` is the reciprocal 1-norm condition
    estimate of Sigma (None without interfaces).  ``maps`` is one stacked
    bilinear map with (F,) fields (``maps[f]`` is element f's own map),
    and ``grid_x``, ``grid_y`` hold the physical coordinates of every
    element's tensor grid as (F, n, n) arrays.  The 4n-4 boundary points
    of every element are held as (F, 4n-4) arrays in traversal order:
    ``point_kind`` ("coupled", "dirichlet", "neumann" or "pin"),
    ``point_edge`` (global edge) and ``point_x``, ``point_y``.
    """

    def __init__(self, mesh, pde, n, bc=None, pin_value_point=False):
        self.mesh = mesh
        self.pde = pde
        self.n = int(n)
        self.block_pos = order_interfaces(mesh)
        self.n_gamma = self.n * mesh.n_interior_edges

        # per edge: its boundary condition, or "coupled" for an interior edge
        self._edge_kind = np.where(mesh.boundary_edge, "dirichlet", "coupled")
        for e, kind in (bc or {}).items():
            if kind not in ("dirichlet", "neumann"):
                raise BookkeepingError(f"edge {e}: unknown boundary condition {kind!r}")
            if e not in range(mesh.n_edges):
                raise BookkeepingError(f"edge {e} ({kind}) is not an edge of the mesh")
            if not mesh.boundary_edge[e]:
                raise BookkeepingError(f"edge {e} ({kind}) is interior, not a boundary edge")
            self._edge_kind[int(e)] = kind
        self._pin = pin_value_point and "dirichlet" not in self._edge_kind

        self._build_elements()
        # the coupling's build temporaries are freed before Sigma is factored
        self._factor_sigma(self._build_coupling())

    # -- element operators ----------------------------------------------

    def _build_elements(self):
        mesh, n = self.mesh, self.n
        F = mesh.n_quads
        vertices = mesh.element_vertices()  # raises GeometryError for a bad element
        self.maps = bilinear_coeffs(vertices)
        self.grid_x, self.grid_y = grid_points(self.maps[:, None, None], n)
        r, s = traversal_points(n)
        self.point_x, self.point_y = self.maps[:, None](r, s)

        # per traversal point: its edge, and its interface unknown if coupled
        self.point_edge = np.repeat(mesh.quad_edge, n - 1, axis=1)
        a = np.tile(np.arange(n - 1), 4)
        along = np.where(np.repeat(mesh.quad_edge_aligned, n - 1, axis=1), a, n - 1 - a)
        first_col = np.zeros(mesh.n_edges, dtype=int)
        first_col[mesh.interior_edges] = n * self.block_pos
        self._point_col = first_col[self.point_edge] + along
        self.point_kind = self._edge_kind[self.point_edge]
        if self._pin:
            # the first Neumann point in element order takes a value row
            self.point_kind.flat[np.argmax(self.point_kind == "neumann")] = "pin"
        # where boundary data goes: the flat traversal points of each kind,
        # and of each boundary edge those of its kind (a pin takes no data)
        kind, edge = self.point_kind.ravel(), self.point_edge.ravel()
        order = np.argsort(edge, kind="stable")
        ends = np.searchsorted(edge[order], np.arange(mesh.n_edges + 1))
        self._data_points = {k: (np.flatnonzero(kind == k), {}) for k in ("dirichlet", "neumann")}
        for e in np.flatnonzero(mesh.boundary_edge):
            at, k = order[ends[e]:ends[e + 1]], self._edge_kind[e]
            self._data_points[k][1][int(e)] = at[kind[at] == k]

        # Geometry classes by the map coefficients alone, then groups within
        # each (see the module docstring).  The translation (a1, a2) enters
        # the key only when a PDE table varies, the only case in which the
        # tables pulled back to the element depend on it.
        bm, neumann = self.maps, self.point_kind == "neumann"
        coeffs = [bm.b1, bm.c1, bm.d1, bm.b2, bm.c2, bm.d2]
        if any(getattr(self.pde, t.name).ravel()[1:].any() for t in fields(self.pde)):
            coeffs += [bm.a1, bm.a2]
        coeffs, r_in, none = np.column_stack(coeffs), inradius(vertices), np.zeros((F, 1))
        reps, cls = _share_classes(coeffs, none, none, r_in)
        self._normals = outward_normals(vertices)
        on_edge = neumann.reshape(F, 4, n - 1).any(axis=2)[..., None]
        normals = np.where(on_edge, self._normals, 0.0).reshape(F, 8)
        leaders, self._group = _share_classes(coeffs, normals,
                                              np.column_stack([cls, neumann]), r_in)
        # each leader's boundary rows: value rows, with an outward
        # normal-derivative row at every Neumann point (point k lies on
        # local edge k // (n-1)), formed for all leaders in one call
        g, k = np.nonzero(neumann[leaders])
        normal_rows = _normal_rows(bm[leaders[g]], self._normals[leaders[g], k // (n - 1)],
                                   n, r[k], s[k])
        value_rows = point_value_row(n, r, s)
        self._classes, self.groups = [], [None] * len(leaders)
        for c, quad in enumerate(map(mesh.element_quad, reps)):
            rhs_op = element_rhs_operator(quad, n)
            first = None
            for i in np.flatnonzero(cls[leaders] == c):
                rows = value_rows.copy()
                rows[neumann[leaders[i]]] = normal_rows[g == i]
                op = (assemble_element_operator(self.pde, quad, n, rows=rows)
                      if first is None else first.bordered(rows))
                first = first or op
                self.groups[i] = (np.flatnonzero(self._group == i), op, rhs_op)
            self._classes.append((np.flatnonzero(cls == c), rhs_op))
        self.n_distinct = len(self.groups)
        ops = np.array([op for _, op, _ in self.groups], dtype=object)
        self.ops = list(ops[self._group])
        self._scale = np.array([op.scale for op in ops])[self._group]

    # -- coupling and the Schur complement -------------------------------

    def _build_coupling(self):
        """``C_gamma`` and ``A_gamma``, then ``W_gamma`` and Sigma one W
        block at a time.  Returns Sigma (None without interfaces)."""
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

        # The two sides (element f, local edge l) of every interior edge,
        # lower element first, with the edges in block order: A_gamma's
        # matching row n p + m, for point m of the edge at block position
        # p, holds one dense n^2 block per side at rows[p, m, side].
        pos = np.full(mesh.n_edges, -1)
        pos[mesh.interior_edges] = self.block_pos
        side_pos = pos[mesh.quad_edge]
        f, l = np.nonzero(side_pos >= 0)
        by_pos = np.argsort(side_pos[f, l], kind="stable")
        f, l = f[by_pos].reshape(-1, 2), l[by_pos].reshape(-1, 2)
        k = np.argsort(self.block_pos)  # interior edge at each block position
        # a side takes edge point m (counted from the edge's lower vertex)
        # from its own edge points, backwards unless its local edge is
        # aligned, and its own outward normal: the derivative rows add
        aligned = mesh.quad_edge_aligned[f, l][:, None]
        a = np.arange(n)[:, None]
        r, s = edge_points(n)[:, l[:, None], np.where(aligned, a, n - 1 - a)]
        rows = _normal_rows(self.maps[f[:, None]], self._normals[f, l][:, None], n, r, s)
        # an endpoint matches derivatives only at an interior vertex that
        # marks this edge; elsewhere it matches values
        edge = mesh.interior_edges[k]
        ends = mesh.edges[edge]
        p, m = np.nonzero(mesh.boundary_vertex[ends] | (mesh.vertex_edge[ends] != edge[:, None]))
        m *= n - 1
        # the aligned side's value minus the other side's
        sign = np.where(aligned[p, 0], 1.0, -1.0)[..., None]
        rows[p, m] = sign * point_value_row(n, r[p, m], s[p, m])
        # one shared scale per matching row keeps it one equation
        rows /= np.abs(rows).max(axis=(2, 3))[:, :, None, None]
        # the CSR arrays are filled in place with int32 indices (F n^2 and
        # n_gamma stay far below 2^31): build temporaries would stay in the
        # process heap after they are freed
        a_cols = np.empty(rows.shape, dtype=np.int32)
        a_cols[...] = (f * nn)[:, None, :, None] + np.arange(nn)
        self.A_gamma = sp.csr_matrix(
            (rows.ravel(), a_cols.ravel(), np.arange(self.n_gamma + 1) * 2 * nn),
            shape=(self.n_gamma, F * nn))

        # One W block per element group and coupled-slot set: the element
        # solves against its C_gamma columns, read from the group's held
        # inverse or Woodbury factors.  It fills the W_gamma rows of its
        # elements, and Sigma = -sum A_gamma_j inv(A_jj) A_j_gamma takes one
        # stacked product of their matching rows with it as triplets.
        w_ptr = np.concatenate([[0], np.cumsum(np.repeat(coupled.sum(axis=1), nn))])
        w_data = np.empty(w_ptr[-1])
        w_cols = np.empty(w_ptr[-1], dtype=np.int32)
        leaders, block = _row_groups(np.column_stack([self._group, coupled]))
        side_block = block[f]
        triplets = []
        for b, leader in enumerate(leaders):
            on = coupled[leader]
            if not on.any():
                continue
            op = self.ops[leader]
            W = op.boundary_columns(on) * -op.scale[slots[on]]
            elems = np.flatnonzero(block == b)
            at = w_ptr[elems * nn][:, None] + np.arange(W.size)
            w_data[at] = W.ravel()
            w_cols[at] = np.tile(self._point_col[elems][:, on], nn)
            p, side = np.nonzero(side_block == b)
            v = -(rows[p, :, side] @ W)
            i = (n * p)[:, None, None] + np.arange(n)[:, None]
            j = self._point_col[f[p, side]][:, None, on]
            triplets.append([v] + [np.broadcast_to(a, v.shape).astype(np.int32)
                                   for a in (i, j)])
        self.W_gamma = sp.csr_matrix((w_data, w_cols, w_ptr), shape=(F * nn, self.n_gamma))
        # An entry of Sigma gets at most two contributions, so summing the
        # duplicates is exact in any order.
        v, i, j = (np.concatenate([a.ravel() for a in t]) for t in zip(*triplets))
        del triplets
        sigma = sp.csr_matrix((v, (i, j)), shape=(self.n_gamma, self.n_gamma))
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
        coo = sigma.tocoo()
        off = coo.row - coo.col
        kl, ku = int(np.max(off, initial=0)), int(np.max(-off, initial=0))
        self.sigma_bandwidth = max(kl, ku)
        bound = (interface_bandwidth(self.mesh, self.block_pos) + 1) * self.n
        if self.sigma_bandwidth >= bound:
            raise BookkeepingError(
                f"interface complement bandwidth {self.sigma_bandwidth} "
                f"exceeds the ordering bound {bound}")
        # LAPACK band storage with kl rows of headroom, factored in place
        ab = np.zeros((2 * kl + ku + 1, self.n_gamma), order="F")
        ab[kl + ku + off, coo.col] = coo.data
        try:
            banded = BandedLU(ab, kl, ku, name="interface complement")
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
            for elems, rhs_op in self._classes:
                rhs_full[elems] = (rhs_op @ C[elems].T).T
        values = np.zeros(self.point_kind.shape)
        for kind, src in (("dirichlet", dirichlet), ("neumann", neumann)):
            every, per_edge = self._data_points[kind]
            for e, s in src.items() if isinstance(src, dict) else [(None, src)]:
                pick = every if e is None else per_edge.get(e)
                if pick is None:
                    raise BookkeepingError(
                        f"{kind} data names edge {e}, which is not a {kind} boundary edge")
                if pick.size:
                    x, y = self.point_x.flat[pick], self.point_y.flat[pick]
                    values.flat[pick] = s(x, y) if callable(s) else s
        bad = ~np.isfinite(values)
        if bad.any():
            k = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"boundary data is not finite on element {k[0]}, "
                             f"edge {self.point_edge[k]} at "
                             f"({self.point_x[k]:g}, {self.point_y[k]:g})")
        return project_rhs(rhs_full, values, n)

    def _element_solves(self, B):
        """Stacked (F, n^2) element solves with zero interface values of
        the scaled right-hand sides, one multi-column solve per group."""
        Y = self._scale * B
        for elems, op, _ in self.groups:
            Y[elems] = op.solve_raw(Y[elems].T).T
        return Y

    def solve(self, f=None, dirichlet=0.0, neumann=0.0, return_info=False):
        """Solve the PDE on the whole mesh.

        ``f`` is a callable of physical coordinates, evaluated once on the
        stacked (F, n, n) element grids, an (F, n, n) array of grid values
        (a list of n-by-n grids converts), or None (zero).
        ``dirichlet``/``neumann`` supply boundary data as a constant, a
        callable ``(x, y)`` evaluated once on arrays of boundary points, or
        a dict mapping global boundary edge numbers to either.
        Returns one stacked :class:`CoeffVector2D` of the F elements.
        """
        B = self._rhs_vectors(f, dirichlet, neumann)
        X = self._element_solves(B)
        u_gamma = np.zeros(self.n_gamma)
        if self.n_gamma:
            u_gamma = self._sigma_solve(-(self.A_gamma @ X.ravel()))
            X -= (self.W_gamma @ u_gamma).reshape(X.shape)
        sols = CoeffVector2D(self.n, X)
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
        return CoeffVector2D(self.n, x[:B.size].reshape(B.shape))


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
