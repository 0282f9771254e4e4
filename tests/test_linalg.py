"""Banded LU solves: the panel-blocked path for wide right-hand sides
against LAPACK ``gbtrs`` and a dense solve."""

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrs

from ultrasem import _linalg
from ultrasem._linalg import _BLOCK, BandedLU
from ultrasem.cli import skinny_quad
from ultrasem.element import PdeCoefficients, assemble_element_operator


def banded_case(rng, n, kl, ku):
    """A well-conditioned n-by-n matrix with bandwidths ``kl`` and ``ku``,
    dense and in band storage: a unit diagonal and a small random band,
    plus, when ``kl > 0``, an entry 2 below every third diagonal entry, so
    that partial pivoting interchanges rows there."""
    i, j = np.indices((n, n))
    band = (i - j <= kl) & (j - i <= ku)
    A = np.where(band, 0.1 * rng.standard_normal((n, n)), 0.0) + np.eye(n)
    if kl:
        c = np.arange(0, n - 1, 3)
        A[c + 1, c] = 2.0
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl + ku + i[band] - j[band], j[band]] = A[band]
    return A, ab


@pytest.fixture
def gbtrs_calls(monkeypatch):
    """Right-hand-side shapes passed to LAPACK ``gbtrs``."""
    calls = []

    def counted(lu, kl, ku, b, piv, **kw):
        calls.append(np.shape(b))
        return dgbtrs(lu, kl, ku, b, piv, **kw)

    monkeypatch.setattr(_linalg, "dgbtrs", counted)
    return calls


# neither n is a multiple of the panel width, and the last panel of
# _BLOCK + 1 is one unknown wide; kl = 70 and kl + ku = 150 reach past the
# next panel
@pytest.mark.parametrize("n", [_BLOCK + 1, 2 * _BLOCK + 37])
@pytest.mark.parametrize("kl, ku", [(5, 9), (9, 2), (0, 7), (7, 0), (70, 80)])
@pytest.mark.parametrize("m", [_BLOCK - 1, _BLOCK, 2 * _BLOCK + 5])
def test_wide_solve_matches_gbtrs_and_dense(rng, gbtrs_calls, n, kl, ku, m):
    A, ab = banded_case(rng, n, kl, ku)
    lu = BandedLU(ab, kl, ku)
    if kl:
        assert np.any(lu._piv != np.arange(n))
    factors, piv = lu._lu.copy(), lu._piv.copy()
    b = rng.standard_normal((n, m))
    b_in = b.copy()
    x = lu.solve(b)
    # the rule: gbtrs below _BLOCK columns, the blocked path from there on
    assert gbtrs_calls == ([(n, m)] if m < _BLOCK else [])
    ref, info = dgbtrs(factors, kl, ku, b_in, piv)
    assert info == 0
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
    dense = np.linalg.solve(A, b_in)
    assert np.abs(x - dense).max() <= 1e-12 * np.abs(dense).max()
    assert np.array_equal(lu._lu, factors)
    assert np.array_equal(lu._piv, piv)
    assert np.array_equal(b, b_in)


def test_narrow_and_transposed_solves_stay_on_gbtrs(rng, gbtrs_calls):
    n, kl, ku = 2 * _BLOCK + 37, 6, 4
    _, ab = banded_case(rng, n, kl, ku)
    lu = BandedLU(ab, kl, ku)
    wide, vec = rng.standard_normal((n, 2 * _BLOCK)), rng.standard_normal(n)
    for b, trans in ((vec, 0), (wide[:, :4], 0), (wide, 1)):
        want, _ = dgbtrs(lu._lu, kl, ku, b, lu._piv, trans=trans)
        assert np.array_equal(lu.solve(b, transpose=bool(trans)), want)
    # a matrix of one panel has nothing to block
    _, small = banded_case(rng, _BLOCK, kl, ku)
    BandedLU(small, kl, ku).solve(np.eye(_BLOCK))
    assert gbtrs_calls == [(n,), (n, 4), (n, 2 * _BLOCK), (_BLOCK, _BLOCK)]


def test_sliver_woodbury_z_matches_gbtrs():
    # at n = 48 Z is 188 columns of the unit border, solved by panels
    op = assemble_element_operator(PdeCoefficients.poisson(), skinny_quad(1e-12), 48)
    assert op._Z.shape == (op.nn, op.k)
    lu = op._lu
    E = np.zeros((op.nn, op.k))
    E[op.slots, np.arange(op.k)] = 1.0
    Z, info = dgbtrs(lu._lu, lu.kl, lu.ku, E, lu._piv)
    assert info == 0
    assert np.abs(op._Z - Z).max() <= 1e-12 * np.abs(Z).max()


def _layout(a, kind):
    """``a`` Fortran- or C-ordered, or a strided view contiguous in
    neither order."""
    if kind == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]) if a.ndim == 2 else 2 * a.shape[0])
        view = wide[..., ::2]
        view[...] = a
        return view
    return np.asarray(a, order=kind)


@pytest.mark.parametrize("la", ["F", "C", "strided"])
@pytest.mark.parametrize("lb", ["F", "C", "strided", "vector"])
@pytest.mark.parametrize("lc", [None, "F", "C"])
def test_gemm_on_every_layout(rng, la, lb, lc):
    # alpha a @ b + beta c for any operand order; a contiguous c holds the
    # result, and a and b are left as they were
    a0 = rng.standard_normal((7, 5))
    b0 = rng.standard_normal(5) if lb == "vector" else rng.standard_normal((5, 3))
    c0 = rng.standard_normal((7,) + b0.shape[1:])
    a, b = _layout(a0, la), _layout(b0, "C" if lb == "vector" else lb)
    if lc is None:
        got, want = _linalg.gemm(2.0, a, b), 2.0 * a0 @ b0
    else:
        want, c = 2.0 * a0 @ b0 + 0.5 * c0, _layout(c0.copy(), lc)
        got = _linalg.gemm(2.0, a, b, 0.5, c)
        assert np.shares_memory(got, c)
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
