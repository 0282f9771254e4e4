"""Banded discretized operator for one quadrilateral element.

A scalar field on an element is a tensor Chebyshev series; stacking the
coefficient matrix column by column gives the unknown vector
``u[i + n*j] = a_ij`` multiplying ``T_i(s) T_j(r)``.  The second-order
operator, pulled back through the bilinear map and multiplied by
``det(r,s)^3``, maps those Chebyshev coefficients to ultraspherical
parameter-2 coefficients of ``det^3 L(u)`` through sums of Kronecker
products of banded 1-D factors.  Those sums are formed directly as
column-indexed diagonals (a DIA matrix), which are rows of LAPACK band
storage.  Rows whose right-hand-side degree is ``n-2`` or ``n-1`` in
either variable (4n-4 of them) are replaced by dense boundary-condition
rows, and the bordered system is solved with a banded LU plus a low-rank
Woodbury correction.
"""

import functools
import threading
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgetrf, dgetrs

from ._linalg import BandedLU
from .errors import SingularOperatorError
from .quadmap import (
    Quad,
    BilinearMap,
    bilinear_coeffs,
    det_cubed_table,
    det_polynomial,
    poly2d,
    poly2d_add,
    poly2d_eval,
    poly2d_mul,
    poly2d_trim,
    TransformedCoeffs,
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
        for f in fields(self):
            object.__setattr__(self, f.name, _coerce_table(getattr(self, f.name)))

    @classmethod
    def poisson(cls):
        return cls()

    @classmethod
    def screened(cls, k2):
        """Laplacian minus ``k2`` times the identity (finite k2 >= 0)."""
        if not 0 <= k2 < np.inf:
            raise ValueError(
                f"screening constant must be finite and nonnegative, not {k2}")
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


def edge_points(n):
    """Reference coordinates ``[r, s]`` of the n Chebyshev points of each
    local edge, as a (2, 4, n) array counted from the edge's starting
    corner: local edge ``l`` runs from vertex ``l`` to vertex ``l+1``, and
    its point ``a`` has the edge-local parameter ``cheb_points(n)[a]``."""
    t = ultra.cheb_points(n)
    rev, one = t[::-1], np.ones(n)
    # vertex 1 -> 2 (s = 1), 2 -> 3 (r = -1), 3 -> 4 (s = -1), 4 -> 1 (r = 1)
    return np.array([[rev, -one, t, one], [one, rev, -one, t]])


def traversal_points(n):
    """Reference coordinates ``(r, s)`` of the 4n-4 tensor-grid boundary
    points, as two arrays in traversal order: edge by edge
    counterclockwise from vertex 1, each corner owned by the edge that
    starts at it, so point ``k`` lies on local edge ``k // (n-1)``."""
    return edge_points(n)[:, :, :-1].reshape(2, -1)


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
    pointwise inverse-map factors (including 1/det at each point).  The
    fields of a stacked map must broadcast to the shape of the points."""
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(s, dtype=float))
    er, es = ultra.eval_row(r, n), ultra.eval_row(s, n)
    dr, ds = ultra.deriv_eval_row(r, n), ultra.deriv_eval_row(s, n)
    row_ur = _tensor_rows(dr, es)
    row_us = _tensor_rows(er, ds)
    # the map's fields broadcast against the points; a new last axis then
    # runs along the rows
    det, Ys, Yr, Xs, Xr = (a[..., None] for a in (
        det_polynomial(bm)(r, s), bm.c2 + bm.d2 * r, bm.b2 + bm.d2 * s,
        bm.c1 + bm.d1 * r, bm.b1 + bm.d1 * s))
    # ux = (Ys row_ur - Yr row_us) / det and uy = (-Xs row_ur + Xr row_us)
    # / det, formed in place: for stacked interface rows every freed
    # temporary of their size fragments the heap that later setup uses
    ux, uy = Ys * row_ur, -Xs * row_ur
    ux -= np.multiply(Yr, row_us, out=row_ur)
    uy += np.multiply(Xr, row_us, out=row_ur)
    ux /= det
    uy /= det
    return ux, uy


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
    R, S = np.meshgrid(ultra.cheb_points(max(P.shape[0], 2)),
                       ultra.cheb_points(max(P.shape[1], 2)))
    return ultra.vals_to_coeffs_2d(poly2d_eval(P, R, S))  # from P(r_j, s_i)


def _multipliers(C, lam, n):
    """Stacks ``T_j(X_lam)`` and ``M_lam(C[:, j])`` over the nonzero columns
    ``j`` of a Chebyshev tensor table ``C[i_s, j_r]``: multiplying a
    stacked parameter-``lam`` coefficient vector by that polynomial is
    ``sum_j kron(T_j(X_lam), M_lam(C[:, j]))``."""
    if max(C.shape) > n:
        raise ValueError(f"multiplier degree {max(C.shape) - 1} too large for size {n}")
    T = ultra.chebyshev_powers(lam, n)
    j = np.flatnonzero(C.any(axis=0))
    return T[j], np.tensordot(C[:, j].T, T[: C.shape[0]], axes=1)


def _diagonals(M):
    """Column-indexed diagonals ``D[t, a, c] = M[t, c - off[a], c]`` of a
    stack of n-by-n arrays, over the offsets ``off`` spanned by its
    nonzeros."""
    n = M.shape[-1]
    r, c = np.nonzero(M.any(axis=0))
    off = np.arange((c - r).min(), (c - r).max() + 1) if r.size else np.arange(0)
    rows = np.arange(n) - off[:, None]
    return np.where((rows >= 0) & (rows < n), M[:, rows.clip(0, n - 1), np.arange(n)], 0.0), off


def _dia(offsets, data):
    """Square DIA matrix from column-indexed diagonals: rows of ``data`` at
    equal offsets are summed and all-zero diagonals dropped, so the
    outermost stored diagonals are the bandwidths."""
    keep = data.any(axis=1)
    order = np.argsort(offsets[keep], kind="stable")
    off, start = np.unique(offsets[keep][order], return_index=True)
    out = np.add.reduceat(data[keep][order], start, axis=0)
    return sp.dia_matrix((out, off), shape=(data.shape[1],) * 2)


def _kron_sum(P, Q):
    """``sum_t kron(P[t], Q[t])`` for stacks of n-by-n arrays, as an
    n^2-by-n^2 DIA matrix.  Diagonal (dj, di) of ``kron(P, Q)`` sits at
    offset ``n dj + di`` and holds the outer product of P's diagonal dj
    and Q's diagonal di over the columns, so one contraction over ``t``
    forms every diagonal."""
    n = P.shape[-1]
    (Pd, p_off), (Qd, q_off) = _diagonals(P), _diagonals(Q)
    E = np.einsum("tac,tbd->abcd", Pd, Qd, optimize=True)
    return _dia((n * p_off[:, None] + q_off).ravel(), E.reshape(-1, n * n))


@functools.lru_cache(maxsize=8)
def _kron_factors(n):
    """Geometry-independent 1-D factor pairs ``(A, B)`` of the interior
    operator, dense, one per reference derivative: that derivative maps
    stacked Chebyshev coefficients to parameter-2 ones as ``kron(A, B)``.
    Shared by every caller: read only."""
    SS = ultra.cheb_to_ultra(2, n).toarray()
    S1D1 = (ultra.conversion_operator(1, n) @ ultra.diff_operator(1, n)).toarray()
    D2 = ultra.diff_operator(2, n).toarray()
    return {"rr": (D2, SS), "rs": (S1D1, S1D1), "ss": (SS, D2),
            "r": (S1D1, SS), "s": (SS, S1D1), "id": (SS, SS)}


def _reference_tables(pde, bm):
    """Chebyshev tensor tables ``C[i_s, j_r]`` of the polynomial multiplying
    each reference derivative in ``det^3 L(u)``."""
    tc = TransformedCoeffs(bm)
    pulled = {f.name: _pullback(getattr(pde, f.name), bm) for f in fields(pde)}
    paths = {}
    for ref in ("rr", "rs", "ss", "r", "s"):
        paths[ref] = poly2d_add(
            poly2d_add(poly2d_mul(pulled["a11"], tc.xx[ref]),
                       poly2d_mul(pulled["a12"], tc.xy[ref])),
            poly2d_mul(pulled["a22"], tc.yy[ref]))
        if ref in ("r", "s"):
            paths[ref] = poly2d_add(paths[ref], poly2d_add(
                poly2d_mul(pulled["b1"], tc.x[ref]), poly2d_mul(pulled["b2"], tc.y[ref])))
    paths["id"] = poly2d_mul(pulled["c"], tc.det3)
    return {ref: poly2d_trim(_mono_to_cheb_table(poly2d_trim(t, rel=1e-15)), rel=1e-14)
            for ref, t in paths.items()}


def element_interior_operator(pde, quad, n):
    """Full n^2-by-n^2 operator taking stacked Chebyshev coefficients of u
    to stacked parameter-2 ultraspherical coefficients of
    ``det(r,s)^3 * L(u)`` on the element (no rows removed), as a DIA
    matrix: ``sum_ref sum_j kron(T_j(X_2) A_ref, M_2(C_ref[:, j]) B_ref)``
    over the 1-D factors ``(A_ref, B_ref)`` of each reference
    derivative."""
    if n < 4:
        raise ValueError("need n >= 4")
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    P, Q = [], []
    for ref, C in _reference_tables(pde, bilinear_coeffs(quad)).items():
        (T, M), (A, B) = _multipliers(C, 2, n), _kron_factors(n)[ref]
        P.append(T @ A)
        Q.append(M @ B)
    return _kron_sum(np.concatenate(P), np.concatenate(Q))


# ----------------------------------------------------------------------
# bordered almost-banded operator


# OpenBLAS (seen with 0.3.31) runs getrs with several right-hand sides on
# its thread pool and corrupts the heap when two callers enter it at once
_GETRS_LOCK = threading.Lock()


class AlmostBandedMatrix:
    """Banded matrix plus a low-rank dense-row correction.

    Represents ``B = A + U V`` where ``A`` is banded with unit rows at the
    4n-4 boundary slots, ``U`` is a sparse selector with one unit entry
    per column picking a boundary slot, and row ``t`` of ``V`` is the
    (row-scaled) dense boundary row minus the unit row it replaces.  The
    factorization is a banded LU of ``A`` plus a dense capacitance solve;
    both are cached for repeated right-hand sides, and solves with ``B``
    and with ``B^T`` both reuse them.
    """

    def __init__(self, banded, slots, dense_rows, scale):
        self.banded = sp.dia_matrix(banded)
        self.slots = np.asarray(slots, dtype=int)
        self.V = np.asarray(dense_rows, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.nn = banded.shape[0]
        self._lu = None
        self._Z = None
        self._cap = None

    @property
    def k(self):
        return self.slots.size

    def bandwidths(self):
        """``(kl, ku)`` from the outermost stored diagonals of ``A``."""
        off = self.banded.offsets
        return int(max(0, -off.min())), int(max(0, off.max()))

    def to_dense(self):
        """Dense reconstruction of the (row-scaled) bordered operator."""
        B = self.banded.toarray()
        B[self.slots] += self.V
        return B

    def matvec(self, x):
        y = self.banded @ x
        y[self.slots] += self.V @ x
        return y

    def _factor(self):
        if self._lu is not None:
            return
        # a DIA diagonal is a column-indexed row of LAPACK band storage
        kl, ku = self.bandwidths()
        ab = np.zeros((2 * kl + ku + 1, self.nn), order="F")
        ab[kl + ku - self.banded.offsets] = self.banded.data
        self._lu = BandedLU(ab, kl, ku, name="element banded part")
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

    def _cap_solve(self, b, trans=0):
        """Solve with the factored capacitance matrix (``trans=1``: its
        transpose)."""
        with _GETRS_LOCK:
            x, info = dgetrs(*self._cap, b, trans=trans)
        if info != 0:
            raise SingularOperatorError(f"capacitance solve failed (info {info})")
        return x

    def solve_raw(self, rhs):
        """Solve ``B x = rhs`` where ``B`` is the (already row-scaled)
        bordered operator, for one or many right-hand sides."""
        self._factor()
        y = self._lu.solve(rhs)
        if self.k:
            y = y - self._Z @ self._cap_solve(self.V @ y)
        return y

    def solve(self, rhs):
        """Solve the bordered system for a physical right-hand side: the
        recorded row scaling is applied to ``rhs`` first."""
        b = np.asarray(rhs, dtype=float)
        b = self.scale[:, None] * b if b.ndim > 1 else self.scale * b
        return self.solve_raw(b)

    def solve_transpose(self, rhs):
        """Solve ``B^T x = rhs`` for one or many right-hand sides (used by
        condition-number estimation).  ``B^T = A^T + V^T U^T`` has the
        transposed capacitance, so ``x = y - A^{-T} V^T cap^{-T} y[slots]``
        with ``y = A^{-T} rhs``: two banded solves as wide as ``rhs``."""
        self._factor()
        y = self._lu.solve(rhs, transpose=True)
        if self.k:
            w = self._cap_solve(y[self.slots], trans=1)
            y = y - self._lu.solve(self.V.T @ w, transpose=True)
        return y


def assemble_element_operator(pde, quad, n, rows=None):
    """Bordered, row-scaled element operator.

    ``rows`` supplies the 4n-4 dense boundary rows in the counterclockwise
    traversal order of :func:`traversal_points`; by default they
    are Dirichlet value rows at those points.  Row scaling normalizes
    every row of the bordered matrix to unit sup norm and is recorded so
    that solves can scale right-hand sides consistently.
    """
    L = element_interior_operator(pde, quad, n)
    nn = n * n
    slots = boundary_slots(n)
    if rows is None:
        rows = point_value_row(n, *traversal_points(n))
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (4 * n - 4, nn):
        raise ValueError("expected the 4n-4 boundary rows of the traversal")

    # Interior equation (i, j) moves from row i + n j to slot (i+2) +
    # n (j+2): every diagonal's offset drops by 2n+2, and the entries in
    # the rows of the other equations go.  The boundary slot rows are
    # left empty and get exact unit diagonal entries.
    src = np.arange(nn) - L.offsets[:, None]  # row of each entry (zero outside)
    D = np.where((src % n < n - 2) & (src // n < n - 2), L.data, 0.0)
    off = L.offsets - (2 * n + 2)
    col = np.arange(nn) + off[:, None]  # column of row m on each diagonal
    at = np.take_along_axis(D, col.clip(0, nn - 1), axis=1)
    row_max = np.abs(np.where((col >= 0) & (col < nn), at, 0.0)).max(axis=0, initial=0.0)
    row_max[slots] = np.max(np.abs(rows), axis=1)
    if np.any(row_max == 0.0):
        raise SingularOperatorError(
            f"row {int(np.argmin(row_max))} of the bordered operator is zero")
    s = 1.0 / row_max
    D *= s[(src + 2 * n + 2).clip(0, nn - 1)]
    A = _dia(np.append(off, 0), np.vstack([D, np.isin(np.arange(nn), slots)]))
    V = s[slots][:, None] * rows
    V[np.arange(slots.size), slots] -= 1.0
    return AlmostBandedMatrix(A, slots, V, s)


# ----------------------------------------------------------------------
# right-hand sides


def element_rhs_operator(quad, n):
    """Sparse operator taking the Chebyshev coefficients of a sampled
    forcing to the parameter-2 coefficients of ``det^3 * f``: the det^3
    multiplication in Chebyshev space followed by basis conversion,
    ``sum_j kron(S T_j(X_0), S M_0(C[:, j]))`` with ``S = S_1 S_0``.  It
    is CSR, because every solve multiplies with it and the DIA diagonals
    hold zeros that CSR skips."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    det3 = _mono_to_cheb_table(det_cubed_table(bilinear_coeffs(quad)))
    T, M = _multipliers(det3, 0, n)
    S = _kron_factors(n)["id"][0]
    return _kron_sum(S @ T, S @ M).tocsr()


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


def project_rhs(rhs_full, boundary_values, n):
    """Assemble full stacked right-hand sides over any leading axes:
    interior equations go to their shifted slots, boundary rows carry
    ``boundary_values`` in traversal order."""
    rhs_full = np.asarray(rhs_full, dtype=float)
    b = np.zeros(rhs_full.shape[:-1] + (n * n,))
    b[..., interior_slot_map(n)] = rhs_full[..., interior_equation_rows(n)]
    b[..., boundary_slots(n)] = boundary_values
    return b


# ----------------------------------------------------------------------
# condition numbers


_DENSE_CONDITION_LIMIT = 256  # unknowns up to which condition numbers are exact
_NORMEST_BLOCK = 4  # estimator block width
_NORMEST_ITMAX = 5  # estimator iterations after the starting block


def _onenorm_lower_bound(apply, apply_t, nn):
    """Lower bound on ``||M||_1`` for ``M`` given by products ``apply(X) =
    M X`` and ``apply_t(S) = M^T S``: the block 1-norm estimator of Higham
    and Tisseur (SIAM J. Matrix Anal. Appl. 21, 2000, Alg. 2.4) with block
    width ``_NORMEST_BLOCK``.

    It is deterministic.  The starting block is the ones column and then
    fixed +-1 columns: the top bit of a SplitMix64 hash of each entry's
    index.  Regular patterns such as ``(-1)^i`` are point-value rows of
    the bordered operator, which its inverse maps to a unit vector, so
    their products would carry only rounding noise.  Where the algorithm
    resamples sign vectors parallel to earlier ones, this drops them."""
    t = min(_NORMEST_BLOCK, nn)
    z = np.arange(nn * (t - 1), dtype=np.uint64).reshape(nn, t - 1)
    z = z * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    X = np.hstack([np.ones((nn, 1)), np.where(z >> np.uint64(63), -1.0, 1.0)])
    cols = None  # unit-vector indices of X after the first step
    used = np.zeros(nn, dtype=bool)
    S_old = np.zeros((nn, 0))
    est_old = 0.0
    for it in range(_NORMEST_ITMAX + 1):
        Y = apply(X)
        norms = np.abs(Y).sum(axis=0) / np.abs(X).sum(axis=0)
        est = float(norms.max())
        if it and est <= est_old:
            break
        est_old = est
        if it == _NORMEST_ITMAX:
            break
        S = np.where(Y >= 0.0, 1.0, -1.0)
        # +-1 columns are parallel exactly when |s_i . s_j| = nn
        par_old = (np.abs(S.T @ S_old) == nn).any(axis=1)
        if S_old.shape[1] and par_old.all():
            break
        par_new = np.triu(np.abs(S.T @ S) == nn, 1).any(axis=0)
        S = S[:, ~(par_old | par_new)]
        h = np.abs(apply_t(S)).max(axis=1)
        if it and h.max() == h[cols[np.argmax(norms)]]:
            break
        order = np.argsort(-h, kind="stable")
        if used[order[:t]].all():
            break
        cols = order[~used[order]][:t]
        used[cols] = True
        X = np.zeros((nn, cols.size))
        X[cols, np.arange(cols.size)] = 1.0
        S_old = S
    return est_old


def operator_condition(abm):
    """Condition numbers ``(kappa_1, kappa_inf)`` of the row-scaled
    bordered operator ``B``.

    Up to ``_DENSE_CONDITION_LIMIT`` unknowns they are exact, through the
    dense inverse.  Beyond that ``||B||_1`` and ``||B||_inf`` are exact and
    the norms of ``B^{-1}`` come from a deterministic block 1-norm
    estimator over ``solve_raw`` and ``solve_transpose`` on the held
    factorization, so both numbers are lower bounds that do not depend on
    any random state."""
    nn = abm.nn
    if nn <= _DENSE_CONDITION_LIMIT:
        B = abm.to_dense()
        Binv = np.linalg.inv(B)
        k1 = np.abs(B).sum(axis=0).max() * np.abs(Binv).sum(axis=0).max()
        kinf = np.abs(B).sum(axis=1).max() * np.abs(Binv).sum(axis=1).max()
        return float(k1), float(kinf)
    abm._factor()
    # exact norms of B = A + UV: slot rows of B are V plus the unit rows
    W = abm.V.copy()
    W[np.arange(abm.k), abm.slots] += 1.0
    colsum = np.asarray(abs(abm.banded).sum(axis=0)).ravel()
    colsum[abm.slots] -= 1.0
    colsum += np.abs(W).sum(axis=0)
    rowsum = np.asarray(abs(abm.banded).sum(axis=1)).ravel()
    rowsum[abm.slots] = np.abs(W).sum(axis=1)
    norm1, norminf = float(colsum.max()), float(rowsum.max())
    # ||B^{-1}||_inf = ||B^{-T}||_1
    k1 = norm1 * _onenorm_lower_bound(abm.solve_raw, abm.solve_transpose, nn)
    kinf = norminf * _onenorm_lower_bound(abm.solve_transpose, abm.solve_raw, nn)
    return float(k1), float(kinf)
