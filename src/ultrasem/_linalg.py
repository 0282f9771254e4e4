"""LAPACK banded LU with a cached factorization, and dense products
through the same BLAS.

Solves with a vector, a narrow block or the transposed matrix go to
LAPACK ``gbtrs``.  ``gbtrs`` back-substitutes one right-hand side at a
time, reading the whole band for each column, so a block at least
``_BLOCK`` columns wide (the Woodbury ``Z`` and the held element solves)
is solved panel by panel instead: for each panel of ``_BLOCK`` unknowns,
``L`` and then ``U`` are one triangular solve and one matrix product over
every right-hand side (Du Croz, Mayes and Radicati 1990, "Factorizations
of band matrices using Level 3 BLAS", LAPACK Working Note 21).  Every
BLAS call of that path goes to scipy's BLAS, as ``gbtrs`` does: numpy may
link a second OpenBLAS, and calls alternating between two threaded
libraries each wait for the other's spinning threads.

:func:`gemm` is that BLAS's matrix product for the rest of the package.
The element Woodbury correction, capacitance, boundary columns and
transposed solve (products with the capacitance inverse, formed with
this BLAS's ``dtrsm``), the Sigma contributions and the Kronecker-sum
contraction of element assembly go through it, and the dense condition
numbers and the dense oracle call scipy's LAPACK, so numpy's thread pool
does no threaded work on those paths and default threads run at pinned
speed.  The products left on numpy (the stacked transforms and gradients,
a solve's batched element solve with the held blocks and its batched
coupling products) measure the same under default and pinned threads.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.linalg.blas import dgemm, dgemv, dtrsm
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs

from .errors import SingularOperatorError

# panel width of the blocked solve, and the fewest right-hand sides that
# take it; with one BLAS thread the blocked solve overtakes gbtrs from
# about 48 columns at 100 to 144 unknowns and from 16 to 32 columns at
# 576 to 4096, so this width is past the crossover at every size.  A
# matrix of one panel has no band to stream repeatedly, and stays on gbtrs
_BLOCK = 64


def _operand(a):
    """``(m, trans)`` with ``op(m) = a`` and ``m`` Fortran-ordered: ``a``
    itself or its transposed view, a copy only when ``a`` is contiguous
    in neither order."""
    if a.flags.f_contiguous:
        return a, 0
    if a.flags.c_contiguous:
        return a.T, 1
    return np.asfortranarray(a), 0


def gemm(alpha, a, b, beta=0.0, c=None):
    """``alpha a @ b + beta c`` by scipy's BLAS, for a 2-D float ``a`` and
    a 1-D (``gemv``) or 2-D (``gemm``) float ``b``.  ``c`` is overwritten
    with the result when it is contiguous; the result is otherwise
    Fortran-ordered.  Operands contiguous in either order are passed as
    they are or as transposed views, so f2py copies none of them."""
    if b.ndim == 1:
        m, trans = _operand(a)
        return dgemv(alpha, m, b, beta, c, trans=trans, overwrite_y=1)
    if c is not None and not c.flags.f_contiguous and c.flags.c_contiguous:
        # the transposed product writes the Fortran-ordered view c^T
        return gemm(alpha, b.T, a.T, beta, c.T).T
    (ma, ta), (mb, tb) = _operand(a), _operand(b)
    return dgemm(alpha, ma, mb, beta, c, trans_a=ta, trans_b=tb, overwrite_c=1)


class BandedLU:
    """LU factorization of a banded matrix in LAPACK band storage.

    ``ab`` holds ``A[i, j]`` at ``ab[kl + ku + i - j, j]`` below ``kl`` rows
    of headroom for the fill-in of pivoting, so its shape is
    ``(2 kl + ku + 1, n)``.  It is factored once with partial pivoting
    (``gbtrf``), in place when it is Fortran-ordered.  Solves with one or
    many right-hand sides, and with the transposed matrix, reuse the
    factorization.  A non-transposed block of at least ``_BLOCK`` columns
    on more than ``_BLOCK`` unknowns is solved by panels of ``_BLOCK``
    unknowns with level-3 BLAS, reading the factors in place; everything
    else, including any matrix that is a single panel, goes to ``gbtrs``.
    """

    def __init__(self, ab, kl, ku, name="banded operator"):
        self.kl, self.ku = int(kl), int(ku)
        self.name = name
        self._lu, self._piv, info = dgbtrf(ab, self.kl, self.ku, overwrite_ab=1)
        if info < 0:
            raise SingularOperatorError(f"{name}: illegal LAPACK argument {-info}")
        if info > 0:
            raise SingularOperatorError(
                f"{name}: singular to working precision (zero pivot at {info})")

    def solve(self, b, transpose=False):
        b = np.asarray(b, dtype=float)
        if not transpose and b.ndim == 2 and b.shape[1] >= _BLOCK < b.shape[0]:
            return self._solve_blocked(b)
        x, info = dgbtrs(self._lu, self.kl, self.ku, b, self._piv,
                         trans=1 if transpose else 0)
        if info != 0:
            raise SingularOperatorError(f"{self.name}: back-substitution failed")
        return x

    def _factors(self):
        """Read-only n-by-n view of the factors: ``U`` on and above the
        diagonal within ``kl + ku``, the multipliers of ``L`` within ``kl``
        below it, other entries of the band elsewhere."""
        kv, (ldab, n) = self.kl + self.ku, self._lu.shape
        # entry (r, c) sits at flat offset kv + r + c (ldab - 1)
        flat = self._lu.reshape(-1, order="F")[kv:]
        step = flat.itemsize
        return as_strided(flat, shape=(n, n), strides=(step, step * (ldab - 1)),
                          writeable=False)

    def _solve_blocked(self, b):
        """``A^{-1} b`` panel by panel.  The right-hand sides are copied
        row-major, so the rows of a panel are one contiguous block, and
        each panel is one ``dtrsm`` and one matrix product for ``L`` and
        for ``U``.  The panel's row interchanges are folded into its
        multipliers (the ``getrf`` form) and applied to the rows as one
        permutation."""
        kl, kv, nb = self.kl, self.kl + self.ku, _BLOCK
        D, piv, n = self._factors(), self._piv, self._lu.shape[1]
        # in-band masks of a panel's slab of L (rows j0 to j0 + nb + kl)
        # and row block of U (columns j0 to j0 + nb + kv); only the last
        # panel is narrower, and its masks are the leading parts of these
        off = np.arange(nb + max(kl, kv)) - np.arange(nb)[:, None]
        in_l = ((off >= 1) & (off <= kl)).T[: nb + kl]
        in_u = (off >= 0) & (off <= kv)
        x = np.array(b, order="C")
        for j0 in range(0, n, nb):
            j1, e = min(j0 + nb, n), min(j0 + nb + kl, n)
            w = j1 - j0
            L = np.where(in_l[: e - j0, :w], D[j0:e, j0:j1], 0.0)
            swaps = np.flatnonzero(piv[j0:j1] != np.arange(j0, j1))
            perm = list(range(j0, e))
            for c in swaps.tolist():
                # interchange c moves the earlier multipliers of rows c, p
                p = int(piv[j0 + c]) - j0
                perm[c], perm[p] = perm[p], perm[c]
                row = L[c, :c].copy()
                L[c, :c] = L[p, :c]
                L[p, :c] = row
            if swaps.size:
                x[j0:e] = x[perm]
            # x[j0:j1] <- L11^{-1} x[j0:j1] and x[j1:e] -= L21 x[j0:j1], as
            # products with the transposes, in place
            dtrsm(1.0, L[:w].T, x[j0:j1].T, side=1, diag=1, overwrite_b=1)
            if e > j1:
                dgemm(-1.0, x[j0:j1].T, L[w:].T, 1.0, x[j1:e].T, overwrite_c=1)
        for j0 in reversed(range(0, n, nb)):
            j1, e = min(j0 + nb, n), min(j0 + nb + kv, n)
            w = j1 - j0
            if e > j1:
                U12 = np.where(in_u[:w, w : e - j0], D[j0:j1, j1:e], 0.0)
                dgemm(-1.0, x[j1:e].T, U12.T, 1.0, x[j0:j1].T, overwrite_c=1)
            U11 = np.where(in_u[:w, :w], D[j0:j1, j0:j1], 0.0)
            dtrsm(1.0, U11.T, x[j0:j1].T, side=1, lower=1, overwrite_b=1)
        return x

    def rcond(self, anorm):
        """Reciprocal 1-norm condition estimate (``gbcon``) from the held
        factors, given the 1-norm ``anorm`` of the factored matrix."""
        rc, info = dgbcon(self.kl, self.ku, self._lu, self._piv, anorm)
        if info != 0:
            raise SingularOperatorError(f"{self.name}: illegal LAPACK argument {-info}")
        return float(rc)
