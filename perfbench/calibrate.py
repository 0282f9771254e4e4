"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent over seconds to minutes.  The kernel does not use ultrasem: it runs
the same kinds of work the solver does (interpreted Python around many
small numpy arrays, sparse-format conversions, small DCTs, a banded and a
small dense LU) on fixed inputs.  Timing it next to each measured unit gives a
host-speed factor; a unit's time divided by that factor is its time on a
host of the reference speed, so a change to the program moves it in full
while the host's drift largely cancels.
"""

import numpy as np
import scipy.sparse as sp
from scipy.fft import dct
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgbtrf, dgbtrs

# seconds one kernel call takes at the reference speed (the median of this
# kernel on an Intel Xeon, 2 vCPUs, one BLAS thread, in a quiet spell)
REFERENCE_S = 0.007

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal((9, 9))
_DENSE = _rng.standard_normal((60, 60)) + 60 * np.eye(60)
_N, _KL, _KU = 400, 12, 12
_off = np.arange(-_KL, _KU + 1)
_BANDED = sp.diags([_rng.standard_normal(_N - abs(k)) + (30.0 if k == 0 else 0.0)
                    for k in _off], _off, format="coo")


def kernel():
    """One pass over fixed inputs; returns a checksum."""
    s = 0.0
    for i in range(1500):  # many small arrays, as in per-element loops
        s += float((np.empty(50) + i)[0])
    for _ in range(10):  # sparse format conversions, as in assembly
        s += float(sp.coo_matrix(_BANDED).tocsr().data[0])
    for _ in range(60):  # small 2-D DCTs, as in the value-coefficient transforms
        s += float(dct(dct(_SMALL, type=1, axis=0), type=1, axis=1)[0, 0])
    A = _BANDED  # a banded LU with solves, and a small dense LU
    ab = np.zeros((2 * _KL + _KU + 1, _N))
    ab[_KL + _KU + A.row - A.col, A.col] = A.data
    lu, piv, _ = dgbtrf(ab, _KL, _KU)
    for _ in range(40):
        x, _ = dgbtrs(lu, _KL, _KU, np.ones(_N), piv)
        s += float(x[0])
    return s + float(lu_factor(_DENSE)[0][-1, -1])
