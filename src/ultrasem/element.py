"""Banded discretized operator for one quadrilateral element.

A scalar field on an element is a tensor Chebyshev series; stacking the
coefficient matrix column by column gives the unknown vector
``u[i + n*j] = a_ij`` multiplying ``T_i(s) T_j(r)``.  The second-order
operator, pulled back through the bilinear map and multiplied by
``det(r,s)^3``, maps those Chebyshev coefficients to ultraspherical
parameter-2 coefficients of ``det^3 L(u)`` through sums of Kronecker
products of banded 1-D factors.  Rows whose right-hand-side degree is
``n-2`` or ``n-1`` in either variable (4n-4 of them) are dropped and the
rest moved to their slots by one shift of the 1-D factors' rows
(:func:`_slotted`); two more Kronecker terms give the freed slots unit
rows, and the sum is written once, as its column-indexed diagonals in
offset order (a DIA matrix), which are rows of LAPACK band storage.
Dense boundary-condition rows border it, and the bordered system is
solved with a banded LU plus a low-rank Woodbury correction: a banded
solve, then the border correction, products with held arrays.  The
right-hand-side operator stays as its shifted Kronecker factors
(:func:`apply_rhs_operator`).  Every operator is factored when it is
built, so solves only read it.  Elements that differ only in their
boundary rows are copies of one operator
(:meth:`AlmostBandedMatrix.bordered`), sharing its banded part, LU and
banded solves and each with its own border.
"""

import copy
import functools
from dataclasses import dataclass, field, fields

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dgecon, dgetrf, dgetri, dlaswp

from ._linalg import BandedLU, gemm
from .errors import SingularOperatorError
from .quadmap import (
    Quad,
    bilinear_coeffs,
    det_polynomial,
    poly2d,
    poly2d_eval,
    poly2d_trim,
)
from . import ultra


# ----------------------------------------------------------------------
# PDE coefficients


def _coerce_table(name, v):
    t = poly2d(v)
    if t.shape[0] > 3 or t.shape[1] > 3:
        raise ValueError("PDE coefficient tables are limited to degree 2 per variable")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"PDE coefficient {name} is not finite")
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
            object.__setattr__(self, f.name, _coerce_table(f.name, getattr(self, f.name)))

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


# ----------------------------------------------------------------------
# coefficient vectors


def check_n(n, least=4):
    """``n`` as an int if it is a Python or numpy integer, not a bool, of at
    least ``least``; anything else raises ``ValueError`` naming it."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"need an integer n >= {least}, not {n!r}")
    return int(n)


class CoeffVector2D:
    """Tensor Chebyshev coefficients of one element's scalar field, or of a
    stack of them: ``data`` has shape ``(..., n^2)``, each element's
    coefficients stacked column by column.  ``len``, indexing and iteration
    over a stack give views, not copies."""

    def __init__(self, n, data):
        self.n = check_n(n, least=0)
        self.data = np.asarray(data, dtype=float)
        if self.data.shape[-1:] != (self.n * self.n,):
            raise ValueError("coefficient vectors must have length n^2")

    @classmethod
    def from_matrix(cls, A):
        A = np.asarray(A, dtype=float)
        return cls(A.shape[-1], A.swapaxes(-1, -2).reshape(A.shape[:-2] + (-1,)))

    @property
    def matrix(self):
        """Coefficient matrices ``A[..., i, j]`` of ``T_i(s) T_j(r)`` (a view)."""
        return self.data.reshape(self.data.shape[:-1] + (self.n, self.n)).swapaxes(-1, -2)

    def __len__(self):
        return len(self.data[..., 0])

    def __getitem__(self, k):
        return CoeffVector2D(self.n, self.data[k])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def grid_values(self):
        """Values on the n-by-n ascending tensor grid of every element."""
        return ultra.coeffs_to_vals_2d(self.matrix)

    def eval(self, r, s):
        """Evaluate every element at the reference coordinates ``(r, s)``,
        arrays of one shape: a stack of F elements gives shape ``(F,) +
        r.shape``."""
        return np.polynomial.chebyshev.chebval2d(s, r, np.moveaxis(self.matrix, (-2, -1), (0, 1)))

    def __repr__(self):
        return f"CoeffVector2D(n={self.n}, shape={self.data.shape[:-1]})"


# ----------------------------------------------------------------------
# index bookkeeping

# Boundary rows replace the rows whose right-hand side degree is n-2 or
# n-1 in either variable.  Interior equation (i, j) (both <= n-3) is
# stored at stacked slot (i+2) + n*(j+2), by one shift of the 1-D
# factors' rows (:func:`_slotted`), so the freed slots are exactly the
# lowest-order coefficient positions (index 0 or 1 in either variable),
# and two more Kronecker terms give the banded part unit rows there.  The
# slot list is cached per n and shared by every caller: read only.


@functools.lru_cache(maxsize=16)
def boundary_slots(n):
    """Sorted stacked slots with either index below 2 (4n-4 of them)."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    slots = np.sort((i + n * j)[(i < 2) | (j < 2)])
    slots.setflags(write=False)
    return slots


def _by_entry_row(v, off):
    """``v[c - off[a]]`` for the entry in column c of the column-indexed
    diagonal at offset ``off[a]``: the value of each entry's row, zero
    where that row lies outside the matrix."""
    nn = v.size
    # a window of the padded v starting at nn - off reads rows c - off
    pad = np.zeros(3 * nn, dtype=v.dtype)
    pad[nn:2 * nn] = v
    return sliding_window_view(pad, nn)[nn - off]


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
    det, rx, ry, sx, sy = (a[..., None] for a in (det_polynomial(bm)(r, s),
                                                  *bm.adjugate(r, s)))
    # ux = (rx row_ur + sx row_us) / det and uy = (ry row_ur + sy row_us)
    # / det with det-scaled factors, formed in place: for stacked interface
    # rows every freed temporary of their size fragments the heap that
    # later setup uses
    ux, uy = rx * row_ur, ry * row_ur
    ux += np.multiply(sx, row_us, out=row_ur)
    uy += np.multiply(sy, row_us, out=row_ur)
    ux /= det
    uy /= det
    return ux, uy


# ----------------------------------------------------------------------
# interior operator assembly


def _multipliers(C, n):
    """Stacks ``T_j(X_2)`` and ``M_2(C[:, j])`` over the nonzero columns
    ``j`` of a Chebyshev tensor table ``C[i_s, j_r]``: multiplying a
    stacked parameter-2 coefficient vector by that polynomial is
    ``sum_j kron(T_j(X_2), M_2(C[:, j]))``."""
    if max(C.shape) > n:
        raise ValueError(f"multiplier degree {max(C.shape) - 1} too large for size {n}")
    T = ultra.chebyshev_powers(2, n)
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


def _kron_sum(P, Q):
    """``sum_t kron(P[t], Q[t])`` for stacks of n-by-n arrays, as an
    n^2-by-n^2 DIA matrix holding its nonzero diagonals in offset order,
    so the outermost stored diagonals are the bandwidths.  Diagonal (dj,
    di) of ``kron(P, Q)`` sits at offset ``n dj + di`` and holds the outer
    product of P's diagonal dj and Q's diagonal di over the columns, so
    one contraction over ``t`` forms every diagonal.  Those offsets come
    in order, each once, unless Q's diagonals span more than n offsets;
    then the diagonals that share one are summed."""
    n = P.shape[-1]
    (Pd, p_off), (Qd, q_off) = _diagonals(P), _diagonals(Q)
    # E[(a, c), (b, d)] = sum_t Pd[t, a, c] Qd[t, b, d], formed as its
    # Fortran-ordered transpose so that E is C-ordered
    t, a, b = len(Pd), p_off.size, q_off.size
    E = gemm(1.0, Qd.reshape(t, b * n).T, Pd.reshape(t, a * n)).T.reshape(a, n, b, n)
    keep = E.any(axis=(1, 3))
    off = (n * p_off[:, None] + q_off)[keep]
    data = E.transpose(0, 2, 1, 3)[keep].reshape(-1, n * n)
    if b > n:
        order = np.argsort(off, kind="stable")
        off, start = np.unique(off[order], return_index=True)
        data = np.add.reduceat(data[order], start, axis=0)
    return sp.dia_matrix((data, off), shape=(n * n,) * 2)


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


def _degree(P):
    """Total degree of a monomial table, -inf for the zero table."""
    i, j = np.nonzero(P)
    return max(i + j, default=-np.inf)


def _table_grid(degree):
    """Reference coordinates ``(r, s)`` of the Chebyshev grid on which the
    tables of a PDE whose largest coefficient degree is ``degree`` are
    sampled: at least 4 + degree points, rounded up to 2^k + 1 so that few
    cached transform sizes serve every PDE."""
    t = ultra.cheb_points(1 + 2 ** int(2 + max(0, degree)).bit_length())
    return np.meshgrid(t, t)


def _reference_tables(pde, bm):
    """Chebyshev tensor tables ``C[i_s, j_r]`` of the polynomial multiplying
    each reference derivative in ``det^3 L(u)``.

    Each is a polynomial of known degree in (r, s), so it is sampled on one
    Chebyshev grid, transformed, and cropped to that degree: what lies
    beyond it is rounding noise."""
    deg = {f.name: _degree(getattr(pde, f.name)) for f in fields(pde)}
    # the crop below and poly2d_trim drop the transform's rounding noise
    r, s = _table_grid(max(deg.values()))
    x, y = bm(r, s)
    a11, a12, a22, b1, b2, c = (poly2d_eval(getattr(pde, f.name), x, y) for f in fields(pde))
    det = det_polynomial(bm)
    # det from its linear form: Xr Ys - Xs Yr cancels on slivers
    D, dr, ds = det(r, s), det.dr, det.ds
    # det times the gradients of r, (p1, p2), and of s, (q1, q2)
    p1, p2, q1, q2 = bm.adjugate(r, s)

    def grad_cleared(P, Pr, Ps):
        # det^3 grad(P/det) for P linear in r (or s) with derivatives Pr, Ps
        gr, gs = Pr * D - P * dr, Ps * D - P * ds
        return gr * p1 + gs * q1, gr * p2 + gs * q2

    (rxx, rxy), (_, ryy) = grad_cleared(p1, bm.d2, 0.0), grad_cleared(p2, -bm.d1, 0.0)
    (sxx, sxy), (_, syy) = grad_cleared(q1, 0.0, -bm.d2), grad_cleared(q2, 0.0, bm.d1)
    vals = {
        "rr": D * (a11 * p1 * p1 + a12 * p1 * p2 + a22 * p2 * p2),
        "rs": D * (2.0 * a11 * p1 * q1 + a12 * (p1 * q2 + p2 * q1) + 2.0 * a22 * p2 * q2),
        "ss": D * (a11 * q1 * q1 + a12 * q1 * q2 + a22 * q2 * q2),
        "r": a11 * rxx + a12 * rxy + a22 * ryy + D * D * (b1 * p1 + b2 * p2),
        "s": a11 * sxx + a12 * sxy + a22 * syy + D * D * (b1 * q1 + b2 * q2),
        "id": c * (D * D * D),
    }
    # degrees (in s, in r) of each term before its PDE factor, whose degree
    # adds to both; zero PDE fields drop out
    a, b = ("a11", "a12", "a22"), ("b1", "b2")
    terms = {"rr": [(1, 3, a)], "rs": [(2, 2, a)], "ss": [(3, 1, a)],
             "r": [(1, 1, a), (2, 3, b)], "s": [(1, 1, a), (3, 2, b)], "id": [(3, 3, ("c",))]}
    tables = {}
    for ref, C in zip(vals, ultra.vals_to_coeffs_2d(np.stack(list(vals.values())))):
        ks, kr = np.max([(i + deg[f], j + deg[f]) for i, j, names in terms[ref] for f in names],
                        axis=0, initial=0).astype(int)
        tables[ref] = poly2d_trim(C[: ks + 1, : kr + 1])
    return tables


def _factors(tables, n):
    """The stacks ``P[t] = T_j(X_2) A_ref`` and ``Q[t] = M_2(C_ref[:, j])
    B_ref`` of ``sum_t kron(P[t], Q[t])``: each reference derivative, with
    1-D factors ``(A_ref, B_ref)``, times its table in ``{ref: C_ref}``."""
    n = check_n(n)
    P, Q = [], []
    for ref, C in tables.items():
        (T, M), (A, B) = _multipliers(C, n), _kron_factors(n)[ref]
        P.append(T @ A)
        Q.append(M @ B)
    return np.concatenate(P), np.concatenate(Q)


def _slotted(M):
    """Rows 0..n-3 of every array of a factor stack moved down two rows: the
    Kronecker sum of P and Q both moved holds interior equation (i, j) at
    slot (i+2) + n (j+2) and leaves the boundary slot rows zero."""
    out = np.zeros_like(M)
    out[:, 2:] = M[:, :-2]
    return out


def element_interior_operator(pde, quad, n):
    """Full n^2-by-n^2 operator taking stacked Chebyshev coefficients of u
    to stacked parameter-2 ultraspherical coefficients of
    ``det(r,s)^3 * L(u)`` on the element (no rows removed), as a DIA
    matrix: the Kronecker sum of :func:`_factors`."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    return _kron_sum(*_factors(_reference_tables(pde, bilinear_coeffs(quad)), n))


# ----------------------------------------------------------------------
# bordered almost-banded operator


class AlmostBandedMatrix:
    """Banded matrix plus a low-rank dense-row correction.

    Represents ``B = A + U V`` where ``A`` is banded with unit rows at the
    4n-4 boundary slots, ``U`` is a sparse selector with one unit entry
    per column picking a boundary slot, and row ``t`` of ``V`` is the
    (row-scaled) dense boundary row minus the unit row it replaces.  The
    constructor factors it: a banded LU of ``A``, ``Z = A^{-1} U`` and
    the inverse of the k-by-k capacitance ``I + V Z``.  A solve with
    ``B`` is a banded solve with ``A`` (:meth:`banded_solve`) followed by
    the Woodbury border correction (:meth:`correct`), products only;
    solves with ``B`` and ``B^T`` change nothing, so one operator serves
    concurrent solves.  Copies made by :meth:`bordered` share ``A``, its
    LU and ``Z``.  ``cap_rcond`` is the 1-norm reciprocal condition
    estimate of the capacitance (LAPACK ``gecon``); one below machine
    epsilon raises :class:`SingularOperatorError`.
    """

    def __init__(self, banded, slots, dense_rows, scale):
        self.banded = sp.dia_matrix(banded)
        self.slots = np.asarray(slots, dtype=int)
        self.V = np.asarray(dense_rows, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.nn = banded.shape[0]
        self._factor()

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
        y[self.slots] += gemm(1.0, self.V, np.asarray(x, dtype=float))
        return y

    def _factor(self):
        """The banded LU of ``A``, ``Z`` from the unit border columns, then
        the border's factors."""
        # a DIA diagonal is a column-indexed row of LAPACK band storage
        kl, ku = self.bandwidths()
        ab = np.zeros((2 * kl + ku + 1, self.nn), order="F")
        ab[kl + ku - self.banded.offsets] = self.banded.data
        self._lu = BandedLU(ab, kl, ku, name="element banded part")
        E = np.zeros((self.nn, self.k))
        E[self.slots, np.arange(self.k)] = 1.0
        self._Z = self._lu.solve(E)
        self._factor_border()

    def _factor_border(self):
        """The capacitance ``I + V Z``: ``cap_rcond`` and, from its LU ``P
        cap = L U``, its inverse ``U^{-1} L^{-1} P``."""
        cap = gemm(1.0, self.V, self._Z, 1.0, np.eye(self.k, order="F"))
        lu, piv, info = dgetrf(cap)
        # info > 0 is an exact zero pivot; non-finite factors come from
        # non-finite entries
        if info != 0 or not np.all(np.isfinite(lu)):
            raise SingularOperatorError("capacitance matrix singular")
        rcond, info = dgecon(lu, np.abs(cap).sum(axis=0).max())
        if info != 0 or not rcond >= np.finfo(float).eps:
            raise SingularOperatorError(
                f"capacitance matrix singular to working precision "
                f"(reciprocal condition estimate {rcond:.2e})")
        self.cap_rcond = float(rcond)
        self._cap_inv = dtrsm(1.0, lu, dtrsm(1.0, lu, dlaswp(np.eye(self.k), piv), lower=1, diag=1))

    def bordered(self, rows):
        """This operator with other unscaled boundary ``rows``: equal to what
        :func:`assemble_element_operator` builds from them, with its own
        ``V``, scale and capacitance inverse, and sharing ``A``, its LU
        and ``Z``, so that its banded solves are this operator's."""
        op = copy.copy(self)
        op.V, op.scale = _border(self.scale, self.slots, rows)
        op._factor_border()
        return op

    def banded_solve(self, rhs):
        """``A^{-1} rhs`` for one or many right-hand sides, the same for
        every :meth:`bordered` copy."""
        return self._lu.solve(rhs)

    def correct(self, y):
        """``B^{-1} b`` from the float array ``y = A^{-1} b``, which it
        overwrites when contiguous and returns: ``y - Z cap^{-1} V y``."""
        return gemm(-1.0, self._Z, gemm(1.0, self._cap_inv, gemm(1.0, self.V, y)), 1.0, y)

    def solve_raw(self, rhs):
        """Solve ``B x = rhs`` where ``B`` is the (already row-scaled)
        bordered operator, for one or many right-hand sides."""
        return self.correct(self.banded_solve(rhs))

    def boundary_columns(self):
        """Columns ``slots`` of ``B^{-1}`` from the held Woodbury factors
        (``Z = A^{-1} U`` has ``Z[slots] = I``, so ``B^{-1} U = Z
        cap^{-1}``), with no banded solve."""
        return gemm(1.0, self._Z, self._cap_inv)

    def solve(self, rhs):
        """Solve the bordered system for a physical right-hand side: the
        recorded row scaling is applied to ``rhs`` first."""
        b = np.asarray(rhs, dtype=float)
        b = self.scale[:, None] * b if b.ndim > 1 else self.scale * b
        return self.solve_raw(b)

    def solve_transpose(self, rhs):
        """Solve ``B^T x = rhs`` for one or many right-hand sides (used by
        condition-number estimation).  Transposing ``B^{-1} = (I - Z
        cap^{-1} V) A^{-1}`` gives ``x = A^{-T} (rhs - V^T cap^{-T} Z^T
        rhs)``: one banded solve as wide as ``rhs``."""
        c = gemm(1.0, self._cap_inv.T, gemm(1.0, self._Z.T, rhs))
        rhs = gemm(-1.0, self.V.T, c, 1.0, np.array(rhs, dtype=float))
        return self._lu.solve(rhs, transpose=True)


def _border(scale, slots, rows):
    """``V`` and the row scale of a bordered operator from its unscaled
    boundary rows and the ``scale`` of its interior rows: each boundary
    row is scaled to unit sup norm, less the unit row it replaces."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (slots.size, scale.size):
        raise ValueError("expected the 4n-4 boundary rows of the traversal")
    row_max = np.max(np.abs(rows), axis=1)
    if np.any(row_max == 0.0):
        raise SingularOperatorError(
            f"row {slots[np.argmin(row_max)]} of the bordered operator is zero")
    s = scale.copy()
    s[slots] = 1.0 / row_max
    V = s[slots][:, None] * rows
    V[np.arange(slots.size), slots] -= 1.0
    return V, s


def assemble_element_operator(pde, quad, n, rows=None):
    """Bordered, row-scaled element operator: the L of
    :func:`element_interior_operator` with its interior equations moved to
    their slots (:func:`_slotted`), bordered by dense boundary rows.  With
    ``F = diag(1, 1, 0, ..., 0)`` the boundary slots' unit rows are the
    Kronecker terms ``kron(F, I)`` (j < 2) and ``kron(I - F, F)`` (j >= 2,
    i < 2), summed last, as exact zeros in the equations' rows.

    ``rows`` supplies the 4n-4 unscaled boundary rows in the
    counterclockwise traversal order of :func:`traversal_points`; by
    default they are Dirichlet value rows at those points.  Row scaling
    normalizes every row of the bordered matrix to unit sup norm and is
    recorded so that solves can scale right-hand sides consistently.
    Elements that share L are copies of one operator through
    :meth:`AlmostBandedMatrix.bordered`.
    """
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    P, Q = map(_slotted, _factors(_reference_tables(pde, bilinear_coeffs(quad)), n))
    F, I = np.diag((np.arange(n) < 2).astype(float)), np.eye(n)
    L = _kron_sum(np.concatenate([P, [F, I - F]]), np.concatenate([Q, [I, F]]))
    D, off = L.data, L.offsets
    nn = n * n
    slots = boundary_slots(n)
    if rows is None:
        rows = point_value_row(n, *traversal_points(n))

    # every row scaled in place, the unit slot rows by 1 until _border
    # scales them.  Row m of the diagonal at offset off is its entry m +
    # off, so in |D| padded by the widest offset on each side every
    # diagonal's rows are one window.
    pad = int(np.abs(off).max(initial=0))
    wide = np.zeros((off.size, nn + 2 * pad))
    np.abs(D, out=wide[:, pad:pad + nn])
    rows_of = sliding_window_view(wide, nn, axis=1)[np.arange(off.size), pad + off]
    row_max = rows_of.max(axis=0, initial=0.0)
    if np.any(row_max == 0.0):
        raise SingularOperatorError(
            f"row {int(np.argmin(row_max))} of the bordered operator is zero")
    s = 1.0 / row_max
    D *= _by_entry_row(s, off)
    V, s = _border(s, slots, rows)
    del P, Q, wide, rows_of, rows  # freed before the constructor factors A
    return AlmostBandedMatrix(L, slots, V, s)


# ----------------------------------------------------------------------
# right-hand sides


def element_rhs_operator(quad, n):
    """Kronecker factors ``(P, Q)`` of the operator taking the Chebyshev
    coefficients of a sampled forcing to the parameter-2 coefficients of
    ``det^3 * f``: basis conversion followed by the det^3 multiplication
    in parameter 2, the zeroth-order term of
    :func:`element_interior_operator` with the det^3 table, with its rows
    moved to their slots as in :func:`assemble_element_operator`
    (:func:`_slotted`).  :func:`apply_rhs_operator` applies them."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    # det^3, a polynomial of degree 3 in each variable, sampled on the
    # grid of a constant PDE's tables, as its identity table would be
    r, s = _table_grid(0)
    D = det_polynomial(bilinear_coeffs(quad))(r, s)
    det3 = poly2d_trim(ultra.vals_to_coeffs_2d(D * D * D)[:4, :4])
    return tuple(map(_slotted, _factors({"id": det3}, n)))


def apply_rhs_operator(factors, X):
    """Right-hand sides, (..., n^2), of stacked coefficient vectors ``X``
    under the factors ``(P, Q)`` of :func:`element_rhs_operator`: each
    coefficient matrix ``A`` maps to ``sum_t Q[t] A P[t]^T``, its interior
    equations at their slots and the boundary slots zero."""
    P, Q = factors
    n = P.shape[-1]
    X = np.asarray(X, dtype=float)
    # a stacked vector reshaped is A^T, and so is the result
    At = X.reshape(X.shape[:-1] + (1, n, n))
    return np.matmul(np.matmul(P, At), Q.swapaxes(-1, -2)).sum(axis=-3).reshape(X.shape)


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
        lu, piv, info = dgetrf(B)
        if info == 0:
            Binv, info = dgetri(lu, piv)
        if info != 0:
            raise SingularOperatorError("bordered operator singular")
        k1 = np.abs(B).sum(axis=0).max() * np.abs(Binv).sum(axis=0).max()
        kinf = np.abs(B).sum(axis=1).max() * np.abs(Binv).sum(axis=1).max()
        return float(k1), float(kinf)
    # exact norms of B = A + UV: slot rows of B are V plus the unit rows,
    # so |B| there is |V| but at each slot's own column
    t = np.arange(abm.k)
    W = np.abs(abm.V)
    W[t, abm.slots] = np.abs(abm.V[t, abm.slots] + 1.0)
    A = abs(abm.banded)
    colsum = np.asarray(A.sum(axis=0)).ravel()
    colsum[abm.slots] -= 1.0
    colsum += W.sum(axis=0)
    rowsum = np.asarray(A.sum(axis=1)).ravel()
    rowsum[abm.slots] = W.sum(axis=1)
    norm1, norminf = float(colsum.max()), float(rowsum.max())
    # ||B^{-1}||_inf = ||B^{-T}||_1
    k1 = norm1 * _onenorm_lower_bound(abm.solve_raw, abm.solve_transpose, nn)
    kinf = norminf * _onenorm_lower_bound(abm.solve_transpose, abm.solve_raw, nn)
    return float(k1), float(kinf)
