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
Woodbury correction, or through its held dense inverse when that is no
larger than what the Woodbury solve reads.  Elements that differ only in
their boundary rows are copies of one factored operator
(:meth:`AlmostBandedMatrix.bordered`), sharing its banded part and LU.
"""

import copy
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


class CoeffVector2D:
    """Tensor Chebyshev coefficients of one element's scalar field, or of a
    stack of them: ``data`` has shape ``(..., n^2)``, each element's
    coefficients stacked column by column.  ``len``, indexing and iteration
    over a stack give views, not copies."""

    def __init__(self, n, data=None):
        self.n = int(n)
        self.data = np.asarray(np.zeros(self.n * self.n) if data is None else data, dtype=float)
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
        """Evaluate one element at reference coordinates (scalar or
        broadcastable)."""
        return np.polynomial.chebyshev.chebval2d(s, r, self.matrix)

    def __repr__(self):
        return f"CoeffVector2D(n={self.n}, shape={self.data.shape[:-1]})"


# ----------------------------------------------------------------------
# index bookkeeping

# Boundary rows replace the rows whose right-hand side degree is n-2 or
# n-1 in either variable.  Interior equation (i, j) (both <= n-3) is
# stored at stacked slot (i+2) + n*(j+2), so the freed slots are exactly
# the lowest-order coefficient positions (index 0 or 1 in either
# variable), and the banded part keeps unit diagonal entries there.  The
# slot maps are cached per n and shared by every caller: read only.


@functools.lru_cache(maxsize=16)
def interior_equation_rows(n):
    """(n-2)^2 rows of the full stacked operator holding the interior
    equations: entry ``i + (n-2)*j`` is row ``i + n*j`` of equation
    ``(i, j)``."""
    k = np.arange(n - 2)
    rows = (k[:, None] + n * k[None, :]).ravel(order="F")
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=16)
def interior_slot_map(n):
    """(n-2)^2 stacked slot indices: entry ``i + (n-2)*j`` is the slot of
    interior equation ``(i, j)``."""
    slots = interior_equation_rows(n) + 2 * (n + 1)
    slots.setflags(write=False)
    return slots


@functools.lru_cache(maxsize=16)
def boundary_slots(n):
    """Sorted stacked slots with either index below 2 (4n-4 of them)."""
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    slots = np.sort((i + n * j)[(i < 2) | (j < 2)])
    slots.setflags(write=False)
    return slots


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


def _degree(P):
    """Total degree of a monomial table, -inf for the zero table."""
    i, j = np.nonzero(P)
    return max(i + j, default=-np.inf)


def _reference_tables(pde, bm):
    """Chebyshev tensor tables ``C[i_s, j_r]`` of the polynomial multiplying
    each reference derivative in ``det^3 L(u)``.

    Each is a polynomial of known degree in (r, s), so it is sampled on one
    Chebyshev grid, transformed, and cropped to that degree: what lies
    beyond it is rounding noise."""
    deg = {f.name: _degree(getattr(pde, f.name)) for f in fields(pde)}
    # at least 4 + the largest PDE degree points, rounded up to 2^k + 1 so
    # that few cached transform sizes serve every PDE; the crop below and
    # poly2d_trim drop the transform's rounding noise
    t = ultra.cheb_points(1 + 2 ** int(2 + max(0, *deg.values())).bit_length())
    r, s = np.meshgrid(t, t)
    x, y = bm(r, s)
    a11, a12, a22, b1, b2, c = (poly2d_eval(getattr(pde, f.name), x, y) for f in fields(pde))
    det = det_polynomial(bm)
    # det from its linear form: Xr Ys - Xs Yr cancels on slivers
    D, dr, ds = det(r, s), det.dr, det.ds
    # det times the gradients of r and s: r_x = Ys/det, r_y = -Xs/det,
    # s_x = -Yr/det, s_y = Xr/det
    p1, p2 = bm.c2 + bm.d2 * r, -(bm.c1 + bm.d1 * r)
    q1, q2 = -(bm.b2 + bm.d2 * s), bm.b1 + bm.d1 * s

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
        tables[ref] = poly2d_trim(C[: ks + 1, : kr + 1], rel=1e-14)
    return tables


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
    factorization, formed on first use, is a banded LU of ``A`` plus a
    dense capacitance solve; solves with ``B`` and with ``B^T`` both reuse
    it.  When the dense inverse is no larger than what a Woodbury solve
    reads, ``nn <= (2 kl + ku + 1) + 2 k`` (the LU's band rows plus ``Z``
    and ``V``), the factorization forms ``A^{-1}`` with one banded solve,
    takes ``Z`` as its slot columns and holds ``B^{-1}``, and solves are
    products with it.  Copies made by :meth:`bordered` share ``A`` and its
    factors.
    """

    def __init__(self, banded, slots, dense_rows, scale):
        self.banded = sp.dia_matrix(banded)
        self.slots = np.asarray(slots, dtype=int)
        self.V = np.asarray(dense_rows, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.nn = banded.shape[0]
        self._lu = self._Z = self._cap = self._Ainv = self._inv = None

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
        if self._lu is None:
            # a DIA diagonal is a column-indexed row of LAPACK band storage
            kl, ku = self.bandwidths()
            ab = np.zeros((2 * kl + ku + 1, self.nn), order="F")
            ab[kl + ku - self.banded.offsets] = self.banded.data
            self._lu = BandedLU(ab, kl, ku, name="element banded part")
            if self.nn <= (2 * kl + ku + 1) + 2 * self.k:
                # the size rule: Z is the slot columns of A^{-1}
                self._Ainv = self._lu.solve(np.eye(self.nn))
                self._Z = self._Ainv[:, self.slots]
            elif self.k:
                E = np.zeros((self.nn, self.k))
                E[self.slots, np.arange(self.k)] = 1.0
                self._Z = self._lu.solve(E)
        if self.k and self._cap is None:
            lu, piv, info = dgetrf(np.eye(self.k) + self.V @ self._Z)
            # info > 0 is an exact zero pivot; non-finite factors come
            # from non-finite entries
            if info != 0 or not np.all(np.isfinite(lu)):
                raise SingularOperatorError("capacitance matrix singular")
            self._cap = (lu, piv)
            if self._Ainv is not None:
                self._inv = self.woodbury(self._Ainv)

    def bordered(self, rows):
        """This operator with other unscaled boundary ``rows``: equal to what
        :func:`assemble_element_operator` builds from them, with its own
        ``V``, scale and capacitance, and sharing ``A``, its LU, ``Z`` and
        ``A^{-1}`` (this operator is factored first)."""
        self._factor()
        op = copy.copy(self)
        op.V, op.scale = _border(self.scale, self.slots, rows)
        op._cap = op._inv = None
        return op

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
        bordered operator, for one or many right-hand sides: a product with
        the held ``B^{-1}``, else a banded solve and the Woodbury
        correction."""
        self._factor()
        if self._inv is not None:
            return self._inv @ rhs
        return self.woodbury(self._lu.solve(rhs))

    def woodbury(self, y):
        """``B^{-1} b`` from ``y = A^{-1} b``: the low-rank correction
        ``y - Z cap^{-1} V y`` with the held factors."""
        self._factor()
        return y - self._Z @ self._cap_solve(self.V @ y) if self.k else y

    def boundary_columns(self, t):
        """Columns ``slots[t]`` of ``B^{-1}``: of the held inverse under the
        size rule, else from the held Woodbury factors (``Z = A^{-1} U``
        has ``Z[slots] = I``, so ``B^{-1} U = Z cap^{-1}``).  Neither
        needs a banded solve."""
        self._factor()
        if self._inv is not None:
            return self._inv[:, self.slots[t]]
        return self._Z @ self._cap_solve(np.eye(self.k)[:, t])

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
        self._factor()
        if self.k:
            rhs = rhs - self.V.T @ self._cap_solve(self._Z.T @ rhs, trans=1)
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
    their slots, bordered by dense boundary rows.

    ``rows`` supplies the 4n-4 unscaled boundary rows in the
    counterclockwise traversal order of :func:`traversal_points`; by
    default they are Dirichlet value rows at those points.  Row scaling
    normalizes every row of the bordered matrix to unit sup norm and is
    recorded so that solves can scale right-hand sides consistently.
    Elements that share L are copies of one operator through
    :meth:`AlmostBandedMatrix.bordered`.
    """
    L = element_interior_operator(pde, quad, n)
    nn = n * n
    slots = boundary_slots(n)
    if rows is None:
        rows = point_value_row(n, *traversal_points(n))

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
    row_max[slots] = 1.0  # scaled by _border
    if np.any(row_max == 0.0):
        raise SingularOperatorError(
            f"row {int(np.argmin(row_max))} of the bordered operator is zero")
    s = 1.0 / row_max
    D *= s[(src + 2 * n + 2).clip(0, nn - 1)]
    A = _dia(np.append(off, 0), np.vstack([D, np.isin(np.arange(nn), slots)]))
    return AlmostBandedMatrix(A, slots, *_border(s, slots, rows))


# ----------------------------------------------------------------------
# right-hand sides


# the operator whose identity table is det^3 alone
_DET_CUBED = PdeCoefficients(a11=0.0, a22=0.0, c=1.0)


def element_rhs_operator(quad, n):
    """Sparse operator taking the Chebyshev coefficients of a sampled
    forcing to the parameter-2 coefficients of ``det^3 * f``: the det^3
    multiplication in Chebyshev space followed by basis conversion,
    ``sum_j kron(S T_j(X_0), S M_0(C[:, j]))`` with ``S = S_1 S_0``.  It
    is CSR, because every solve multiplies with it and the DIA diagonals
    hold zeros that CSR skips."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    det3 = _reference_tables(_DET_CUBED, bilinear_coeffs(quad))["id"]
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
