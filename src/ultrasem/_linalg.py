"""LAPACK banded LU with a cached factorization."""

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs

from .errors import SingularOperatorError


class BandedLU:
    """LU factorization of a banded matrix given as a scipy sparse matrix.

    The bandwidths are measured from the sparsity pattern, the matrix is
    packed into LAPACK band storage and factored once with partial
    pivoting (``gbtrf``).  Solves with one or many right-hand sides, and
    with the transposed matrix, reuse the factorization.
    """

    def __init__(self, A, name="banded operator"):
        A = sp.coo_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        self.n = A.shape[0]
        self.name = name
        if A.nnz == 0:
            raise SingularOperatorError(f"{name}: matrix is all zero")
        off = A.row - A.col
        self.kl = int(max(0, off.max()))
        self.ku = int(max(0, -off.min()))
        ab = np.zeros((2 * self.kl + self.ku + 1, self.n))
        # LAPACK band storage with extra kl rows of headroom for pivoting
        ab[self.kl + self.ku + A.row - A.col, A.col] = A.data
        lu, piv, info = dgbtrf(ab, self.kl, self.ku)
        if info < 0:
            raise SingularOperatorError(f"{name}: illegal LAPACK argument {-info}")
        if info > 0:
            raise SingularOperatorError(
                f"{name}: singular to working precision (zero pivot at {info})"
            )
        self._lu = lu
        self._piv = piv

    def solve(self, b, transpose=False):
        b = np.asarray(b, dtype=float)
        x, info = dgbtrs(self._lu, self.kl, self.ku, b, self._piv,
                         trans=1 if transpose else 0)
        if info != 0:
            raise SingularOperatorError(f"{self.name}: back-substitution failed")
        return x

    def rcond(self, anorm):
        """Reciprocal 1-norm condition estimate (``gbcon``) from the held
        factors, given the 1-norm ``anorm`` of the factored matrix."""
        rc, info = dgbcon(self.kl, self.ku, self._lu, self._piv, anorm)
        if info != 0:
            raise SingularOperatorError(f"{self.name}: illegal LAPACK argument {-info}")
        return float(rc)
