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
:func:`_normal_rows` with an outward normal.  A matching row is therefore
a jump across the edge: the two sides' outward normal derivatives add,
and an endpoint value row is the side whose local edge runs from the
lower vertex number to the higher (the aligned side) minus the other
side.

The coupling is held once per distinct block.  Each (class, local edge)
pair that occurs holds n^2 x (n+2) columns, shared by its sides as the
class shares its operator: the normal derivative of the class's
representative (see below) at the edge's n points, then its value at the
two ends.  A matching row takes one column of each side's pair, signed and
divided by the row's shared scale.  A coupled boundary row of element j
ties its slot to the interface value at its point with coefficient -scale,
so the element's coefficients are its solve with zero interface values
plus W_j times its interface values, W_j being inv(A_jj) applied to the
scaled unit columns of its 4n-4 boundary slots, held once per group.
Eliminating the element blocks (the interface/interface block is zero)
leaves the interface complement

    Sigma = sum_j  A_gamma_j  W_j

over the sides j of every interior edge, with A_gamma_j the side's
matching rows, formed from one product per pair and group: a banded
matrix once interfaces are ordered well.  Solving it gives the interface
values; every element solve then decouples and reuses its factorization.

Elements whose map coefficients agree (translation-free to
``_SHARE_TOL`` times the inradius of the first, the translation too when
a PDE table varies) form a geometry class sharing one right-hand-side
operator, built from that first element and held as its Kronecker
factors (:func:`~ultrasem.element.element_rhs_operator`).  A class
splits into groups that agree so with their first element, in boundary
row kinds exactly and in Neumann edge normals to ``_SHARE_TOL``.  The
class's first group builds its operator from the first element and its
rows; every other group is a
:meth:`~ultrasem.element.AlmostBandedMatrix.bordered` copy of it with its
own rows, sharing the banded part, its factorization and its banded
solves.
The elements of a group share its operator and its W block.  Congruent
elements whose coordinates round differently therefore share; elements
with bitwise equal inputs get bit-identical operators and W blocks to
building every element alone.  Setup is array operations over all
elements and interior edges at once, with Python loops only over classes,
groups and their pairs.

Under a size rule, each group's zero-interface element solve is held as
one block too: ``_k``, (G, n^2 + 4n-4, n^2), holds ``(B_g^{-1} diag(s_g)
[R_c | P])^T`` with R_c the class's right-hand-side operator (its factors
applied to the identity) and P placing boundary values at their slots, W
being its last 4n-4 rows.  A solve is then one batched product of every
element's forcing coefficients and boundary values with ``_k``.  Any
other system applies each class's right-hand-side factors to its
elements' forcing coefficients as one batched product, places the
boundary data at their slots and makes one multi-column ``solve_raw`` per
group.  Either way it applies the pairs' rows and the groups' W as one
batched product each.
"""

import numbers
from dataclasses import dataclass, fields

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgesv

from . import ultra
from ._linalg import BandedLU, gemm
from .element import (
    CoeffVector2D,
    apply_rhs_operator,
    assemble_element_operator,
    boundary_slots,
    check_n,
    edge_points,
    element_rhs_operator,
    grid_points,
    point_derivative_rows,
    point_value_row,
    sample_on_grid,
    traversal_points,
)
from .errors import BookkeepingError, SingularOperatorError
from .mesh import QuadMesh, interface_bandwidth, order_interfaces
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


def _pad(label, items, fill):
    """``items`` in the rows of their ``label`` of a (labels, most items of
    a label, ...) array, in order, and ``fill`` elsewhere; and the flat
    position of each item in its first two axes."""
    count = np.bincount(label)
    rank = np.argsort(np.argsort(label, kind="stable"), kind="stable")
    at = label * count.max() + rank - (np.cumsum(count) - count)[label]
    out = np.full((count.size * count.max(),) + items.shape[1:], fill)
    out[at] = items
    return out.reshape(count.size, count.max(), *items.shape[1:]), at


class SchurSystem:
    """Factored global solver for one mesh, operator and resolution.

    ``classes`` holds one ``(elements, (P, Q))`` pair per geometry class,
    ``(P, Q)`` the Kronecker factors of its right-hand-side operator
    (:func:`~ultrasem.element.element_rhs_operator`), and ``groups`` one
    ``(elements, op)`` pair per distinct element operator (``n_distinct``
    of them); ``ops`` is a per-element list whose entries are shared
    between elements whose inputs agree.
    The coupling is held once per distinct block (see the module
    docstring): ``_pair_rows`` (Q, n^2, n+2) for the Q (class, local
    edge) pairs that occur, ``_w`` (G, 4n-4, n^2) for the G groups, and
    the indices that gather their products to the matching rows and to
    the elements.  ``_k`` (G, n^2 + 4n-4, n^2) holds every group's
    zero-interface element solve under the size rule, with ``_w`` a view
    of its last rows, and is None otherwise.  ``_point_col`` is the interface
    value each boundary point reads (n_gamma where it is not coupled).
    ``sigma_rcond`` is the reciprocal 1-norm condition estimate of Sigma
    (None without interfaces).  ``maps`` is one stacked bilinear map with
    (F,) fields (``maps[f]`` is element f's own map), and ``grid_x``,
    ``grid_y`` hold the physical coordinates of every element's tensor
    grid as (F, n, n) arrays.  The 4n-4 boundary points of every element
    are held as (F, 4n-4) arrays in traversal order:
    ``point_kind`` ("coupled", "dirichlet", "neumann" or "pin"),
    ``point_edge`` (global edge) and ``point_x``, ``point_y``.
    """

    def __init__(self, mesh, pde, n, bc=None, pin_value_point=False):
        self.mesh = mesh
        self.pde = pde
        self.n = check_n(n)
        self.block_pos = order_interfaces(mesh)
        self.n_gamma = self.n * mesh.n_interior_edges

        # per edge: its boundary condition, or "coupled" for an interior edge
        self._edge_kind = np.where(mesh.boundary_edge, "dirichlet", "coupled")
        for e, kind in (bc or {}).items():
            e = mesh.edge_number(e, BookkeepingError, f"bc {kind!r}")
            if kind not in ("dirichlet", "neumann"):
                raise BookkeepingError(f"edge {e}: unknown boundary condition {kind!r}")
            if not mesh.boundary_edge[e]:
                raise BookkeepingError(f"edge {e} ({kind}) is interior, not a boundary edge")
            self._edge_kind[e] = kind
        self._pin = pin_value_point and "dirichlet" not in self._edge_kind

        self._build_elements()
        self._k = self._hold_element_solves()
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

        self.point_edge = np.repeat(mesh.quad_edge, n - 1, axis=1)
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
        self._reps, self._cls = reps, cls = _share_classes(coeffs, none, none, r_in)
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
        self.classes, self.groups = [], [None] * len(leaders)
        for c, quad in enumerate(map(mesh.element_quad, reps)):
            rhs_op = element_rhs_operator(quad, n)
            first = None
            for i in np.flatnonzero(cls[leaders] == c):
                rows = value_rows.copy()
                rows[neumann[leaders[i]]] = normal_rows[g == i]
                op = (assemble_element_operator(self.pde, quad, n, rows=rows)
                      if first is None else first.bordered(rows))
                first = first or op
                self.groups[i] = (np.flatnonzero(self._group == i), op)
            self.classes.append((np.flatnonzero(cls == c), rhs_op))
        self.n_distinct = len(self.groups)
        ops = np.array([op for _, op in self.groups], dtype=object)
        self.ops = list(ops[self._group])
        self._scale = np.array([op.scale for op in ops])[self._group]

    def _hold_element_solves(self):
        """``_k`` (see the module docstring) when every group's n^2 columns
        are no more than what its Woodbury solve reads, n^2 <= (2 kl + ku +
        1) + 2 (4n-4) (the LU's band rows, ``Z`` and ``V``), else None.
        Each class makes one banded solve of its scaled ``R_c``, its
        factors applied to the identity, which each group corrects into its
        block; :meth:`_hold_w` fills the W rows."""
        nn, k = self.n * self.n, 4 * self.n - 4
        ops = [op for _, op in self.groups]
        if any(nn > 2 * kl + ku + 1 + 2 * k for kl, ku in (op.bandwidths() for op in ops)):
            return None
        held = np.empty((self.n_distinct, nn + k, nn))
        for elems, rhs_op in self.classes:
            g = np.unique(self._group[elems])
            # groups of a class differ in scale only at the slots, where R_c's rows are zero
            R = apply_rhs_operator(rhs_op, np.eye(nn)).T
            y = ops[g[0]].banded_solve(ops[g[0]].scale[:, None] * R)
            for i in g:
                # correct overwrites the block's Fortran-contiguous view
                held[i, :nn] = y.T
                ops[i].correct(held[i, :nn].T)
        return held

    # -- coupling and the Schur complement -------------------------------

    def _build_coupling(self):
        """Each boundary point's interface column, the rows of each (class,
        local edge) pair that occurs, the W of each group, and Sigma from
        their products (None without interfaces)."""
        mesh, n, ng = self.mesh, self.n, self.n_gamma
        # per traversal point: the interface value it reads, or n_gamma (a
        # zero appended to u_gamma) where it is not coupled
        coupled = self.point_kind == "coupled"
        a = np.tile(np.arange(n - 1), 4)
        along = np.where(np.repeat(mesh.quad_edge_aligned, n - 1, axis=1), a, n - 1 - a)
        first_col = np.zeros(mesh.n_edges, dtype=int)
        first_col[mesh.interior_edges] = n * self.block_pos
        self._point_col = np.where(coupled, first_col[self.point_edge] + along, ng)
        # every interface point is coupled from both sides, except the two
        # endpoints of each edge, which one side owns
        cover = np.bincount(self._point_col.ravel(), minlength=ng + 1)[:ng]
        if not np.array_equal(cover, 2 - np.isin(np.arange(ng) % n, (0, n - 1))):
            raise BookkeepingError("corner-exclusion rule failed to cover the interface points")
        # the elements of each group, padded, read their interface values
        # and their held solves' data through one row index
        self._w_cols, self._w_from = _pad(self._group, self._point_col, ng)
        if ng == 0:
            if self._k is not None:  # the held blocks still read W
                self._hold_w()
            return None

        # The two sides (element f, local edge l) of every interior edge,
        # as (2, P) arrays with the edges in block order, lower element
        # first, and the rows of each (class, local edge) pair that occurs:
        # its outward normal derivative at the edge's n points from the
        # starting corner, then its value at the two ends, as columns.
        f, l = np.nonzero(~mesh.boundary_edge[mesh.quad_edge])
        by_pos = np.argsort(first_col[mesh.quad_edge[f, l]], kind="stable")
        f, l = f[by_pos].reshape(-1, 2).T, l[by_pos].reshape(-1, 2).T
        pair, q = np.unique((self._cls[f] * 4 + l).ravel(), return_inverse=True)
        q, Q = q.reshape(f.shape), pair.size
        rep, rep_l = self._reps[pair // 4], pair % 4
        r, s = edge_points(n)[:, rep_l]
        rows = (_normal_rows(self.maps[rep[:, None]], self._normals[rep, rep_l][:, None], n, r, s),
                point_value_row(n, r[:, [0, -1]], s[:, [0, -1]]))
        top = np.concatenate([np.maximum(a.max(axis=2), -a.min(axis=2)) for a in rows], axis=1)
        self._pair_rows = rows = np.concatenate([a.transpose(0, 2, 1) for a in rows], axis=2,
                                                out=np.empty((Q, n * n, n + 2)))
        # Matching row n p + m, for point m from the lower vertex of the edge
        # at block position p, reads column col of each side's pair: its
        # point m, backwards unless its local edge is aligned.  An endpoint
        # matches derivatives only at an interior vertex that marks this
        # edge, elsewhere values: the aligned side's minus the other's.
        aligned = mesh.quad_edge_aligned[f, l][..., None]
        col = np.where(aligned, np.arange(n), np.arange(n)[::-1])
        edge = mesh.interior_edges[np.argsort(self.block_pos)]
        ends = mesh.edges[edge]
        value = np.zeros((edge.size, n), dtype=bool)
        value[:, [0, -1]] = mesh.boundary_vertex[ends] | (mesh.vertex_edge[ends] != edge[:, None])
        sign = np.where(value & ~aligned, -1.0, 1.0)
        col = np.where(value, n + col // (n - 1), col)
        # one shared scale per matching row keeps it one equation
        scale = top[q[..., None], col].max(axis=0)
        self._match_coef = sign / scale
        # the sides of each pair, padded (a pad reads element 0), so that one
        # batched product applies every side's pair to its element
        self._pair_elems, at = _pad(q.ravel(), f.ravel(), 0)
        self._match_at = at.reshape(q.shape)[..., None] * (n + 2) + col

        self._hold_w()

        # Sigma takes one (4n-4, n+2) product of each group's W with each
        # pair in which it has a side, gathered to the sides, scaled as
        # their matching rows and kept at their coupled slots, as triplets.
        combo, which = np.unique((self._group[f] * Q + q).ravel(), return_inverse=True)
        prod = np.array([gemm(1.0, self._w[c // Q], self._pair_rows[c % Q]) for c in combo])
        v = self._match_coef[..., None] * prod[which.reshape(q.shape)[..., None], :, col]
        i = np.broadcast_to(np.arange(ng).reshape(-1, n, 1), v.shape)
        j = np.broadcast_to(self._point_col[f][:, :, None], v.shape)
        on = j < ng
        # An entry of Sigma gets at most two contributions, so summing the
        # duplicates is exact in any order.
        sigma = sp.csr_matrix((v[on], (i[on], j[on])), shape=(ng, ng))
        sigma.eliminate_zeros()
        return sigma

    def _hold_w(self):
        """One W per group, (G, 4n-4, n^2), in the last rows of ``_k`` when held."""
        nn, slots = self.n * self.n, boundary_slots(self.n)
        self._w = (np.empty((self.n_distinct, slots.size, nn)) if self._k is None
                   else self._k[:, nn:])
        for g, (_, op) in enumerate(self.groups):
            self._w[g] = (op.boundary_columns() * op.scale[slots]).T

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

    def _rhs_data(self, f, dirichlet, neumann):
        """The forcing's Chebyshev coefficients on every element, stacked
        (F, n^2) (None without forcing), and the boundary data of every
        traversal point, (F, 4n-4): a constant is written as it is, a
        callable evaluated on the points of its edges, zero elsewhere."""
        C = None
        if f is not None:
            G = sample_on_grid(self.grid_x, self.grid_y, f)
            bad = ~np.isfinite(G).all(axis=(1, 2))
            if bad.any():
                raise ValueError(f"forcing is not finite on element {np.argmax(bad)}")
            C = CoeffVector2D.from_matrix(ultra.vals_to_coeffs_2d(G)).data
        values = np.zeros(self.point_kind.shape)
        for kind, src in (("dirichlet", dirichlet), ("neumann", neumann)):
            every, per_edge = self._data_points[kind]
            keyed = isinstance(src, dict)
            for e, s in src.items() if keyed else [(None, src)]:
                pick = (per_edge.get(self.mesh.edge_number(e, BookkeepingError, f"{kind} data"))
                        if keyed else every)
                if pick is None:
                    raise BookkeepingError(
                        f"{kind} data names edge {e}, which is not a {kind} boundary edge")
                where = f"{kind} data on " + (f"edge {e}" if keyed else f"every {kind} edge")
                if isinstance(s, numbers.Real):
                    values.flat[pick] = s
                elif not callable(s):
                    raise ValueError(
                        f"{where} is {s!r}, not a real constant or a callable (x, y)")
                elif pick.size:
                    x, y = self.point_x.flat[pick], self.point_y.flat[pick]
                    got = s(x, y)
                    try:
                        values.flat[pick] = np.broadcast_to(np.asarray(got, dtype=float), x.shape)
                    except ValueError:
                        raise ValueError(f"{where} gave shape {np.shape(got)}, not real values "
                                         f"broadcasting to its {x.size} points") from None
        bad = ~np.isfinite(values)
        if bad.any():
            k = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"boundary data is not finite on element {k[0]}, "
                             f"edge {self.point_edge[k]} at "
                             f"({self.point_x[k]:g}, {self.point_y[k]:g})")
        return C, values

    def _rhs_vectors(self, C, values):
        """Right-hand sides of every element, stacked (F, n^2), from
        :meth:`_rhs_data`: each class's right-hand-side factors applied to
        its forcing coefficients put the equations at their slots, and the
        boundary values fill the boundary slots."""
        B = np.zeros((self.mesh.n_quads, self.n * self.n))
        if C is not None:
            for elems, rhs_op in self.classes:
                B[elems] = apply_rhs_operator(rhs_op, C[elems])
        B[:, boundary_slots(self.n)] = values
        return B

    def _element_solves(self, C, values):
        """Stacked (F, n^2) element solves with zero interface values of
        the data from :meth:`_rhs_data`: with held solves ``_k``, one
        batched product of every element's [forcing coefficients | boundary
        values], padded by group; else the scaled right-hand sides and one
        multi-column solve per group."""
        if self._k is None:
            Y = self._scale * self._rhs_vectors(C, values)
            for elems, op in self.groups:
                Y[elems] = op.solve_raw(Y[elems].T).T
            return Y
        nn, (G, most) = self.n * self.n, self._w_cols.shape[:2]
        D = np.zeros((G * most, self._k.shape[1]))
        if C is not None:
            D[self._w_from, :nn] = C
        D[self._w_from, nn:] = values
        return np.matmul(D.reshape(G, most, -1), self._k).reshape(-1, nn)[self._w_from]

    def solve(self, f=None, dirichlet=0.0, neumann=0.0, return_info=False):
        """Solve the PDE on the whole mesh.

        ``f`` is a callable of physical coordinates, evaluated once on the
        stacked (F, n, n) element grids, an (F, n, n) array of grid values
        (a list of n-by-n grids converts), or None (zero).
        ``dirichlet``/``neumann`` supply boundary data as a real constant,
        a callable ``(x, y)`` evaluated once on arrays of boundary points
        (its result must broadcast to their shape), or a dict mapping
        global boundary edge numbers to either.
        Returns one stacked :class:`CoeffVector2D` of the F elements.
        """
        C, values = self._rhs_data(f, dirichlet, neumann)
        X = self._element_solves(C, values)
        u_gamma = np.zeros(self.n_gamma)
        if self.n_gamma:
            u_gamma = self._sigma_solve(-self._match(X))
            U = np.append(u_gamma, 0.0)[self._w_cols]
            X += np.matmul(U, self._w).reshape(-1, X.shape[1])[self._w_from]
        sols = CoeffVector2D(self.n, X)
        if not return_info:
            return sols
        B = self._rhs_vectors(C, values)
        return sols, SolveInfo(u_gamma=u_gamma, residual=self._residual(X, u_gamma, B))

    def _residual(self, X, u_gamma, B):
        """Largest residual of the coupled system, relative to the largest
        scaled right-hand side entry (at least 1)."""
        R = np.empty_like(X)
        for elems, op in self.groups:
            R[elems] = op.matvec(X[elems].T).T
        SB = self._scale * B
        R -= SB
        at = boundary_slots(self.n)
        R[:, at] -= self._scale[:, at] * np.append(u_gamma, 0.0)[self._point_col]
        top = np.abs(self._match(X)).max() if self.n_gamma else 0.0
        return max(top, np.abs(R).max()) / max(1.0, np.abs(SB).max())

    def _match(self, X):
        """The matching rows applied to stacked element coefficients X, in
        interface order: one batched product over the pairs, gathered."""
        V = np.matmul(X[self._pair_elems], self._pair_rows)
        return (self._match_coef * V.ravel()[self._match_at]).sum(axis=0).ravel()

    # -- dense oracle -------------------------------------------------------

    def to_dense_global(self):
        """Dense monolithic matrix of the full coupled system, ordered as
        element blocks then interface unknowns.  Built from the same rows
        but solved without the Schur elimination; used as an oracle."""
        nn = self.n * self.n
        FN = self.mesh.n_quads * nn
        G = np.zeros((FN + self.n_gamma, FN + self.n_gamma))
        for elems, op in self.groups:
            idx = elems[:, None] * nn + np.arange(nn)
            G[idx[:, :, None], idx[:, None, :]] = op.to_dense()
        if self.n_gamma:
            # a coupled slot's row: -scale at its interface value
            f, k = np.nonzero(self._point_col < self.n_gamma)
            at = f * nn + boundary_slots(self.n)[k]
            G[at, FN + self._point_col[f, k]] = -self._scale.flat[at]
            # matching row n p + m: each side's scaled pair column
            slot, col = np.divmod(self._match_at, self.n + 2)
            rows = self._pair_rows[slot // self._pair_elems.shape[1], :, col]
            cols = (nn * self._pair_elems.flat[slot])[..., None] + np.arange(nn)
            G[FN + np.arange(self.n_gamma).reshape(-1, self.n, 1), cols] = \
                self._match_coef[..., None] * rows
        return G

    def solve_dense(self, f=None, dirichlet=0.0, neumann=0.0):
        """Solve through the dense monolithic matrix (oracle path)."""
        B = self._rhs_vectors(*self._rhs_data(f, dirichlet, neumann))
        rhs = np.concatenate([(self._scale * B).ravel(), np.zeros(self.n_gamma)])
        *_, x, info = dgesv(self.to_dense_global(), rhs)
        if info != 0:
            raise SingularOperatorError("dense global matrix singular")
        return CoeffVector2D(self.n, x[:B.size].reshape(B.shape))


@dataclass
class SolveInfo:
    u_gamma: np.ndarray
    residual: float


def assemble_schur(mesh, pde, n, bc=None, pin_value_point=False):
    """Assemble and factor the coupled mesh solver (element operators,
    coupling blocks and the banded interface complement)."""
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
    mesh = QuadMesh(quad.vertices, [(0, 1, 2, 3)])
    return SchurSystem(mesh, pde, n).solve(f=f, dirichlet=g)[0]
