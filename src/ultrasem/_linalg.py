"""LAPACK banded LU with a cached factorization."""

import numpy as np
from scipy.linalg.lapack import dgbcon, dgbtrf, dgbtrs

from .errors import SingularOperatorError


class BandedLU:
    """LU factorization of a banded matrix in LAPACK band storage.

    ``ab`` holds ``A[i, j]`` at ``ab[kl + ku + i - j, j]`` below ``kl`` rows
    of headroom for the fill-in of pivoting, so its shape is
    ``(2 kl + ku + 1, n)``.  It is factored once with partial pivoting
    (``gbtrf``), in place when it is Fortran-ordered.  Solves with one or
    many right-hand sides, and with the transposed matrix, reuse the
    factorization.
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
