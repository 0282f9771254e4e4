"""Sparse discretized operator for one quadrilateral element.

A scalar field on an element is a tensor Chebyshev series; stacking the
coefficient matrix column by column gives the unknown vector
``u[i + n*j] = a_ij`` multiplying ``T_i(s) T_j(r)``.  The second-order
operator, pulled back through the bilinear map and multiplied by
``det(r,s)^3``, maps those Chebyshev coefficients to ultraspherical
parameter-2 coefficients of ``det^3 L(u)`` through sums of Kronecker
products of banded 1-D factors.  Rows whose right-hand-side degree is
``n-2`` or ``n-1`` in either variable (4n-4 of them) are replaced by
dense boundary-condition rows, and the bordered system is solved with a
banded LU plus a low-rank Woodbury correction.
"""

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lu_solve
from scipy.linalg.lapack import dgetrf

from ._linalg import BandedLU
from .errors import SingularOperatorError
from .quadmap import (
    Quad,
    BilinearMap,
    bilinear_coeffs,
    det_polynomial,
    poly2d,
    poly2d_add,
    poly2d_eval,
    poly2d_mul,
    poly2d_trim,
    transformed_derivative_coeffs,
)
from . import ultra


# ----------------------------------------------------------------------
# PDE coefficients


def _coerce_table(v):
    if np.isscalar(v):
        return np.array([[float(v)]])
    t = poly2d(v)
    if t.shape[0] > 3 or t.shape[1] > 3:
        raise ValueError("PDE coefficient tables are limited to degree 2 per variable")
    return t


@dataclass(frozen=True)
class PdeCoefficients:
    """Polynomial coefficients of a second-order linear operator
    ``a11 u_xx + a12 u_xy + a22 u_yy + b1 u_x + b2 u_y + c u`` in physical
    coordinates.  Each field is a monomial table ``P[i, j]`` of
    ``x^i y^j`` (scalars are promoted to constants)."""

    a11: np.ndarray = field(default_factory=lambda: np.array([[1.0]]))
    a12: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)))
    a22: np.ndarray = field(default_factory=lambda: np.array([[1.0]]))
    b1: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)))
    b2: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)))
    c: np.ndarray = field(default_factory=lambda: np.zeros((1, 1)))

    def __post_init__(self):
        for name in ("a11", "a12", "a22", "b1", "b2", "c"):
            object.__setattr__(self, name, _coerce_table(getattr(self, name)))

    @classmethod
    def poisson(cls):
        return cls()

    @classmethod
    def screened(cls, k2):
        """Laplacian minus ``k2`` times the identity (k2 >= 0)."""
        if k2 < 0:
            raise ValueError("screening constant must be nonnegative")
        return cls(c=-float(k2))

    def ellipticity_margin(self, quad, m=8):
        """Sampled uniform-ellipticity diagnostic: the minimum over an
        m-by-m grid of ``min(a11, a11*a22 - a12^2)``.  Positive means the
        operator looks uniformly elliptic on the element."""
        X, Y = grid_points(bilinear_coeffs(quad), m)
        a11 = poly2d_eval(self.a11, X, Y)
        a12 = poly2d_eval(self.a12, X, Y)
        a22 = poly2d_eval(self.a22, X, Y)
        return float(min(a11.min(), (a11 * a22 - a12 ** 2).min()))


# ----------------------------------------------------------------------
# coefficient vectors


class CoeffVector2D:
    """Stacked tensor Chebyshev coefficients of one element's scalar field."""

    def __init__(self, n, data=None):
        self.n = int(n)
        if data is None:
            data = np.zeros(self.n * self.n)
        self.data = np.asarray(data, dtype=float).ravel()
        if self.data.size != self.n * self.n:
            raise ValueError("coefficient vector must have length n^2")

    @classmethod
    def from_matrix(cls, A):
        A = np.asarray(A, dtype=float)
        return cls(A.shape[0], A.ravel(order="F"))

    @property
    def matrix(self):
        """Coefficient matrix ``A[i, j]`` of ``T_i(s) T_j(r)``."""
        return self.data.reshape((self.n, self.n), order="F")

    def grid_values(self):
        """Values on the n-by-n ascending tensor grid."""
        return ultra.coeffs_to_vals_2d(self.matrix)

    def eval(self, r, s):
        """Evaluate at reference coordinates (scalar or broadcastable)."""
        return np.polynomial.chebyshev.chebval2d(s, r, self.matrix)

    def __repr__(self):
        return f"CoeffVector2D(n={self.n})"


# ----------------------------------------------------------------------
# index bookkeeping

# Boundary rows replace the rows whose right-hand side degree is n-2 or
# n-1 in either variable.  Interior equation (i, j) (both <= n-3) is
# stored at stacked slot (i+2) + n*(j+2), so the freed slots are exactly
# the lowest-order coefficient positions (index 0 or 1 in either
# variable), and the banded part keeps unit diagonal entries there.


def interior_equation_rows(n):
    """(n-2)^2 rows of the full stacked operator holding the interior
    equations: entry ``i + (n-2)*j`` is row ``i + n*j`` of equation
    ``(i, j)``."""
    k = np.arange(n - 2)
    return (k[:, None] + n * k[None, :]).ravel(order="F")


def interior_slot_map(n):
    """(n-2)^2 stacked slot indices: entry ``i + (n-2)*j`` is the slot of
    interior equation ``(i, j)``."""
    return interior_equation_rows(n) + 2 * (n + 1)


def boundary_slots(n):
    """Sorted stacked slots with either index below 2 (4n-4 of them)."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = (i < 2) | (j < 2)
    return np.sort((i + n * j)[mask].ravel())


def boundary_point_traversal(n):
    """The 4n-4 tensor-grid boundary points, edge by edge counterclockwise
    from vertex 1, each corner owned by the edge that starts at it.

    Returns a list of ``(local_edge, a, r, s)`` where ``a`` is the point's
    index along its edge (0 at the starting corner) and the edge-local
    parameter of the point is ``cheb_points(n)[a]``.
    """
    t = ultra.cheb_points(n)
    out = []
    for a in range(n - 1):
        out.append((0, a, t[n - 1 - a], 1.0))  # vertex 1 -> 2, s = 1
    for a in range(n - 1):
        out.append((1, a, -1.0, t[n - 1 - a]))  # vertex 2 -> 3, r = -1
    for a in range(n - 1):
        out.append((2, a, t[a], -1.0))  # vertex 3 -> 4, s = -1
    for a in range(n - 1):
        out.append((3, a, 1.0, t[a]))  # vertex 4 -> 1, r = 1
    return out


def traversal_points(n):
    """Reference coordinates ``(r, s)`` of the traversal points, as two
    arrays in traversal order."""
    return np.array([p[2:] for p in boundary_point_traversal(n)]).T


# ----------------------------------------------------------------------
# dense boundary-condition rows


def _tensor_rows(a, b):
    """``np.kron`` of matching rows of ``a`` and ``b``, batched over their
    leading axes."""
    rows = a[..., :, None] * b[..., None, :]
    return rows.reshape(rows.shape[:-2] + (rows.shape[-2] * rows.shape[-1],))


def point_value_row(n, r, s):
    """Dense rows of length n^2 evaluating a coefficient vector at the
    points (r, s): one row per point of broadcast arrays, a 1-D row for
    scalars."""
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    return _tensor_rows(ultra.eval_row(r, n), ultra.eval_row(s, n))


def point_derivative_rows(bm, n, r, s):
    """Dense rows evaluating the physical derivatives (u_x, u_y) at
    reference points (shaped as in :func:`point_value_row`), using the
    pointwise inverse-map factors (including 1/det at each point)."""
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    er, es = ultra.eval_row(r, n), ultra.eval_row(s, n)
    dr, ds = ultra.deriv_eval_row(r, n), ultra.deriv_eval_row(s, n)
    row_ur = _tensor_rows(dr, es)
    row_us = _tensor_rows(er, ds)
    det = det_polynomial(bm)(r, s)[..., None]
    r, s = r[..., None], s[..., None]
    ux = ((bm.c2 + bm.d2 * r) * row_ur - (bm.b2 + bm.d2 * s) * row_us) / det
    uy = (-(bm.c1 + bm.d1 * r) * row_ur + (bm.b1 + bm.d1 * s) * row_us) / det
    return ux, uy


_EDGE_CORNERS = ((0, 1), (1, 2), (2, 3), (3, 0))  # local edge -> (start, end)


def _edge_of_point(r, s):
    """Local edge of each reference boundary point (arrays): corner points
    belong to the edge that starts at them (counterclockwise ownership)."""
    return np.select([(s == 1.0) & (r > -1.0), (r == -1.0) & (s > -1.0),
                      (s == -1.0) & (r < 1.0)], [0, 1, 2], 3)


def outward_normal(quad, local_edge):
    """Unit outward normal of a physical edge of a counterclockwise quad."""
    a, b = _EDGE_CORNERS[local_edge]
    t = quad.vertices[b] - quad.vertices[a]
    nrm = np.hypot(t[0], t[1])
    return np.array([t[1], -t[0]]) / nrm


def boundary_rows(quad, n, kind, points):
    """Boundary-condition rows at reference boundary points.

    ``kind`` is ``"value"`` (Dirichlet) or ``"normal-derivative"``
    (outward normal, Neumann).  Points must lie on the boundary of the
    reference square.
    """
    if kind not in ("value", "normal-derivative"):
        raise ValueError("kind must be 'value' or 'normal-derivative'")
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    r, s = np.asarray(points, dtype=float).reshape(-1, 2).T
    off = np.maximum(np.abs(r), np.abs(s)) != 1.0
    if np.any(off):
        k = int(np.argmax(off))
        raise ValueError(f"point ({r[k]}, {s[k]}) is not on the reference boundary")
    if kind == "value":
        return point_value_row(n, r, s)
    normals = np.array([outward_normal(quad, l) for l in range(4)])[_edge_of_point(r, s)]
    ux, uy = point_derivative_rows(bilinear_coeffs(quad), n, r, s)
    return normals[:, :1] * ux + normals[:, 1:] * uy


# ----------------------------------------------------------------------
# interior operator assembly


def _pullback(table_xy, bm):
    """Compose a physical-coordinate monomial table with the bilinear map,
    yielding a monomial table in (r, s)."""
    T = poly2d(table_xy)
    X, Y = bm.x_table, bm.y_table
    xp = [np.array([[1.0]])]
    for _ in range(T.shape[0] - 1):
        xp.append(poly2d_mul(xp[-1], X))
    yp = [np.array([[1.0]])]
    for _ in range(T.shape[1] - 1):
        yp.append(poly2d_mul(yp[-1], Y))
    out = np.zeros((1, 1))
    for i in range(T.shape[0]):
        for j in range(T.shape[1]):
            if T[i, j] != 0.0:
                out = poly2d_add(out, T[i, j] * poly2d_mul(xp[i], yp[j]))
    return out


def _mono_to_cheb_table(P):
    """Chebyshev tensor coefficients ``C[i_s, j_r]`` of a monomial table."""
    P = poly2d(P)
    mr, ms = max(P.shape[0], 2), max(P.shape[1], 2)
    r = ultra.cheb_points(mr)
    s = ultra.cheb_points(ms)
    R, S = np.meshgrid(r, s)
    V = poly2d_eval(P, R, S)  # V[i, j] = P(r_j, s_i)
    return ultra.vals_to_coeffs_2d(V)


def _chop(C, rel=1e-14):
    C = np.asarray(C, dtype=float).copy()
    m = np.max(np.abs(C))
    if m == 0.0:
        return None
    C[np.abs(C) < rel * m] = 0.0
    nz = np.nonzero(C)
    if nz[0].size == 0:
        return None
    return C[: nz[0].max() + 1, : nz[1].max() + 1]


def mult2d(cheb_table, lam, n):
    """Sparse n^2 operator multiplying a stacked parameter-``lam``
    coefficient vector by the bivariate polynomial with Chebyshev tensor
    coefficients ``C[i_s, j_r]``."""
    C = np.atleast_2d(np.asarray(cheb_table, dtype=float))
    out = None
    for j in range(C.shape[1]):
        col = C[:, j]
        if not np.any(col):
            continue
        ej = np.zeros(j + 1)
        ej[j] = 1.0
        term = sp.kron(ultra.mult_operator(ej, lam, n),
                       ultra.mult_operator(col, lam, n), format="csr")
        out = term if out is None else out + term
    if out is None:
        return sp.csr_matrix((n * n, n * n))
    return out


_PDE_FIELDS = ("a11", "a12", "a22", "b1", "b2", "c")


def pulled_pde(pde, bm):
    """The PDE coefficient tables composed with the bilinear map: a dict of
    monomial tables in (r, s), one per :class:`PdeCoefficients` field."""
    return {name: _pullback(getattr(pde, name), bm) for name in _PDE_FIELDS}


@functools.lru_cache(maxsize=8)
def _kron_factors(n):
    """Geometry-independent Kronecker factors of the interior operator,
    one per reference derivative.  Shared by every caller: read only."""
    S0 = ultra.conversion_operator(0, n)
    S1 = ultra.conversion_operator(1, n)
    D1 = ultra.diff_operator(1, n)
    D2 = ultra.diff_operator(2, n)
    SS = (S1 @ S0).tocsr()
    S1D1 = (S1 @ D1).tocsr()
    return {
        "rr": sp.kron(D2, SS, format="csr"),
        "rs": sp.kron(S1D1, S1D1, format="csr"),
        "ss": sp.kron(SS, D2, format="csr"),
        "r": sp.kron(S1D1, SS, format="csr"),
        "s": sp.kron(SS, S1D1, format="csr"),
        "id": sp.kron(SS, SS, format="csr"),
    }


def element_interior_operator(pde, quad, n):
    """Full n^2-by-n^2 operator taking stacked Chebyshev coefficients of u
    to stacked parameter-2 ultraspherical coefficients of
    ``det(r,s)^3 * L(u)`` on the element (no rows removed)."""
    if n < 4:
        raise ValueError("need n >= 4")
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    bm = bilinear_coeffs(quad)
    tc = transformed_derivative_coeffs(bm)
    pulled = pulled_pde(pde, bm)

    paths = {}
    for ref in ("rr", "rs", "ss"):
        paths[ref] = poly2d_add(
            poly2d_add(poly2d_mul(pulled["a11"], tc.xx[ref]),
                       poly2d_mul(pulled["a12"], tc.xy[ref])),
            poly2d_mul(pulled["a22"], tc.yy[ref]))
    for ref in ("r", "s"):
        second = poly2d_add(
            poly2d_add(poly2d_mul(pulled["a11"], tc.xx[ref]),
                       poly2d_mul(pulled["a12"], tc.xy[ref])),
            poly2d_mul(pulled["a22"], tc.yy[ref]))
        first = poly2d_add(poly2d_mul(pulled["b1"], tc.x[ref]),
                           poly2d_mul(pulled["b2"], tc.y[ref]))
        paths[ref] = poly2d_add(second, first)
    paths["id"] = poly2d_mul(pulled["c"], tc.det3)

    kron_factors = _kron_factors(n)
    L = sp.csr_matrix((n * n, n * n))
    for ref, table in paths.items():
        C = _chop(_mono_to_cheb_table(poly2d_trim(table, rel=1e-15)))
        if C is None:
            continue
        L = L + mult2d(C, 2, n) @ kron_factors[ref]
    L.eliminate_zeros()
    return L


# ----------------------------------------------------------------------
# bordered almost-banded operator


class AlmostBandedMatrix:
    """Banded matrix plus a low-rank dense-row correction.

    Represents ``B = A + U V`` where ``A`` is banded with unit rows at the
    4n-4 boundary slots, ``U`` is a sparse selector with one unit entry
    per column picking a boundary slot, and row ``t`` of ``V`` is the
    (row-scaled) dense boundary row minus the unit row it replaces.  The
    factorization is a banded LU of ``A`` plus a dense capacitance solve;
    both are cached for repeated right-hand sides.
    """

    def __init__(self, banded, slots, dense_rows, scale):
        self.banded = banded.tocsr()
        self.slots = np.asarray(slots, dtype=int)
        self.V = np.asarray(dense_rows, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.nn = banded.shape[0]
        self._lu = None
        self._Z = None
        self._cap = None
        self._Zt = None

    @property
    def k(self):
        return self.slots.size

    def bandwidths(self):
        coo = self.banded.tocoo()
        off = coo.row - coo.col
        return int(max(0, off.max())), int(max(0, -off.min()))

    def to_dense(self):
        """Dense reconstruction of the (row-scaled) bordered operator."""
        B = self.banded.toarray()
        if self.k:
            B[self.slots] += self.V
        return B

    def matvec(self, x):
        y = self.banded @ x
        if self.k:
            y[self.slots] += self.V @ x
        return y

    def rmatvec(self, x):
        y = self.banded.T @ x
        if self.k:
            y += self.V.T @ x[self.slots]
        return y

    def _factor(self):
        if self._lu is not None:
            return
        self._lu = BandedLU(self.banded, name="element banded part")
        if self.k:
            E = np.zeros((self.nn, self.k))
            E[self.slots, np.arange(self.k)] = 1.0
            Z = self._lu.solve(E)
            cap = np.eye(self.k) + self.V @ Z
            lu, piv, info = dgetrf(cap)
            # info > 0 is an exact zero pivot; non-finite factors come
            # from non-finite entries
            if info != 0 or not np.all(np.isfinite(lu)):
                raise SingularOperatorError("capacitance matrix singular")
            self._cap = (lu, piv)
            self._Z = Z

    def solve_raw(self, rhs):
        """Solve ``B x = rhs`` where ``B`` is the (already row-scaled)
        bordered operator, for one or many right-hand sides."""
        self._factor()
        b = np.asarray(rhs, dtype=float)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        y = self._lu.solve(b)
        if self.k:
            y = y - self._Z @ lu_solve(self._cap, self.V @ y)
        return y[:, 0] if squeeze else y

    def solve(self, rhs):
        """Solve the bordered system for a physical right-hand side: the
        recorded row scaling is applied to ``rhs`` first."""
        b = np.asarray(rhs, dtype=float)
        b = self.scale[:, None] * b if b.ndim > 1 else self.scale * b
        return self.solve_raw(b)

    def solve_transpose(self, rhs):
        """Solve ``B^T x = rhs`` (used by condition-number estimation)."""
        self._factor()
        b = np.asarray(rhs, dtype=float)
        squeeze = b.ndim == 1
        if squeeze:
            b = b[:, None]
        if self._Zt is None and self.k:
            self._Zt = self._lu.solve(self.V.T, transpose=True)
        y = self._lu.solve(b, transpose=True)
        if self.k:
            y = y - self._Zt @ lu_solve(self._cap, y[self.slots], trans=1)
        return y[:, 0] if squeeze else y


def row_scale(matrix):
    """Scale every row of a dense or sparse matrix to unit supremum norm.

    Returns ``(scaled, scale)`` with ``scaled = diag(scale) @ matrix``.
    A zero row raises :class:`SingularOperatorError`.
    """
    if sp.issparse(matrix):
        m = matrix.tocsr()
        mx = abs(m).max(axis=1).toarray().ravel()
        if np.any(mx == 0.0):
            raise SingularOperatorError(
                f"row {int(np.argmin(mx))} is identically zero")
        scale = 1.0 / mx
        return sp.diags(scale) @ m, scale
    m = np.asarray(matrix, dtype=float)
    mx = np.max(np.abs(m), axis=1)
    if np.any(mx == 0.0):
        raise SingularOperatorError(f"row {int(np.argmin(mx))} is identically zero")
    scale = 1.0 / mx
    return m * scale[:, None], scale


def assemble_element_operator(pde, quad, n, rows=None):
    """Bordered, row-scaled element operator.

    ``rows`` supplies the 4n-4 dense boundary rows in the counterclockwise
    traversal order of :func:`boundary_point_traversal`; by default they
    are Dirichlet value rows at those points.  Row scaling normalizes
    every row of the bordered matrix to unit sup norm and is recorded so
    that solves can scale right-hand sides consistently.
    """
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    L = element_interior_operator(pde, quad, n)
    nn = n * n
    slots = boundary_slots(n)
    if rows is None:
        rows = point_value_row(n, *traversal_points(n))
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (4 * n - 4, nn):
        raise ValueError("expected the 4n-4 boundary rows of the traversal")

    # place interior equation (i, j) at slot (i+2, j+2); the boundary slot
    # rows of P @ L stay empty and get exact unit diagonal entries
    keep = interior_slot_map(n)
    P = sp.csr_matrix((np.ones(keep.size), (keep, interior_equation_rows(n))),
                      shape=(nn, nn))
    PL = P @ L

    row_max = np.abs(PL).max(axis=1).toarray().ravel()
    row_max[slots] = np.max(np.abs(rows), axis=1)
    if np.any(row_max == 0.0):
        raise SingularOperatorError(
            f"row {int(np.argmin(row_max))} of the bordered operator is zero")
    s = 1.0 / row_max
    unit = sp.csr_matrix((np.ones(slots.size), (slots, slots)), shape=(nn, nn))
    A = (sp.diags(s) @ PL + unit).tocsr()
    V = s[slots][:, None] * rows
    V[np.arange(slots.size), slots] -= 1.0
    return AlmostBandedMatrix(A, slots, V, s)


# ----------------------------------------------------------------------
# right-hand sides and the single-element Dirichlet solve


def element_rhs_operator(quad, n):
    """Sparse operator taking the Chebyshev coefficients of a sampled
    forcing to the parameter-2 coefficients of ``det^3 * f``: the det^3
    multiplication in Chebyshev space followed by basis conversion."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    bm = bilinear_coeffs(quad)
    det3 = _mono_to_cheb_table(transformed_derivative_coeffs(bm).det3)
    return (_kron_factors(n)["id"] @ mult2d(det3, 0, n)).tocsr()


def grid_points(bm, n):
    """Physical coordinates ``(X, Y)`` of the n-by-n tensor grid,
    ``X[..., i, j]`` at ``(r_j, s_i)``."""
    t = ultra.cheb_points(n)
    return bm(*np.meshgrid(t, t))


def sample_on_grid(X, Y, f):
    """Forcing values on grid coordinates ``(X, Y)``: a callable of
    physical coordinates is evaluated once on the whole arrays, an array
    of values must have their shape."""
    if callable(f):
        return np.asarray(f(X, Y), dtype=float) + np.zeros_like(X)
    F = np.asarray(f, dtype=float)
    if F.shape != X.shape:
        raise ValueError(f"grid values must have shape {X.shape}, not {F.shape}")
    return F


def element_rhs(quad, n, f):
    """Parameter-2 coefficients of ``det^3 * f`` on the element, for ``f``
    a callable of physical coordinates or an n-by-n value grid."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    F = sample_on_grid(*grid_points(bilinear_coeffs(quad), n), f)
    return element_rhs_operator(quad, n) @ ultra.vals_to_coeffs_2d(F).ravel(order="F")


def project_rhs(rhs_full, boundary_values, n):
    """Assemble full stacked right-hand sides over any leading axes:
    interior equations go to their shifted slots, boundary rows carry
    ``boundary_values`` in traversal order."""
    rhs_full = np.asarray(rhs_full, dtype=float)
    b = np.zeros(rhs_full.shape[:-1] + (n * n,))
    b[..., interior_slot_map(n)] = rhs_full[..., interior_equation_rows(n)]
    b[..., boundary_slots(n)] = boundary_values
    return b


def solve_element_dirichlet(pde, quad, n, f, g):
    """Solve ``L u = f`` on one element with Dirichlet data ``g`` imposed
    at the 4n-4 boundary grid points.  ``f`` and ``g`` are callables of
    physical coordinates (``f`` may also be an n-by-n value grid)."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    bm = bilinear_coeffs(quad)
    op = assemble_element_operator(pde, quad, n)
    rhs_full = element_rhs(quad, n, f)
    x, y = bm(*traversal_points(n))
    gv = np.asarray(g(x, y), dtype=float) + np.zeros_like(x)
    b = project_rhs(rhs_full, gv, n)
    return CoeffVector2D(n, op.solve(b))


# ----------------------------------------------------------------------
# condition numbers


_DENSE_CONDITION_LIMIT = 256  # unknowns up to which condition numbers are exact


def operator_condition(abm):
    """Condition numbers ``(kappa_1, kappa_inf)`` of the row-scaled
    bordered operator; exact through dense inverses up to
    ``_DENSE_CONDITION_LIMIT`` unknowns, 1-norm estimation on the cached
    factorization beyond that."""
    nn = abm.nn
    if nn <= _DENSE_CONDITION_LIMIT:
        B = abm.to_dense()
        Binv = np.linalg.inv(B)
        k1 = np.abs(B).sum(axis=0).max() * np.abs(Binv).sum(axis=0).max()
        kinf = np.abs(B).sum(axis=1).max() * np.abs(Binv).sum(axis=1).max()
        return float(k1), float(kinf)
    from scipy.sparse.linalg import LinearOperator, onenormest

    abm._factor()
    # exact norms of B = A + UV: slot rows of B are V plus the unit rows
    W = abm.V.copy()
    if abm.k:
        W[np.arange(abm.k), abm.slots] += 1.0
    colsum = np.asarray(abs(abm.banded).sum(axis=0)).ravel()
    rowsum = np.asarray(abs(abm.banded).sum(axis=1)).ravel()
    if abm.k:
        unit = np.zeros(nn)
        unit[abm.slots] = 1.0
        colsum = colsum - unit + np.abs(W).sum(axis=0)
        rowsum[abm.slots] = np.abs(W).sum(axis=1)
    norm1, norminf = float(colsum.max()), float(rowsum.max())
    inv_op = LinearOperator((nn, nn), matvec=abm.solve_raw,
                            rmatvec=abm.solve_transpose)
    invT = LinearOperator((nn, nn), matvec=abm.solve_transpose,
                          rmatvec=abm.solve_raw)
    k1 = norm1 * float(onenormest(inv_op))
    kinf = norminf * float(onenormest(invT))
    return float(k1), float(kinf)
