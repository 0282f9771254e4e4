"""One-dimensional spectral building blocks.

Functions are represented by Chebyshev coefficients; differentiation maps
them into ultraspherical (Gegenbauer) coefficient spaces of increasing
parameter, where the derivative and basis-conversion operators are sparse
and banded.  Grids are Chebyshev extrema grids, stored ascending in
``[-1, 1]``.
"""

import functools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded


def diff_operator(lam, n):
    """Banded differentiation matrix of order ``lam``.

    Maps Chebyshev coefficients of ``p`` to the ultraspherical
    coefficients (parameter ``lam``) of the ``lam``-th derivative of
    ``p``.  The matrix is n-by-n and has a single nonzero diagonal at
    offset ``+lam`` with entries ``2^(lam-1) (lam-1)! (lam, lam+1, ...)``.

    Parameters
    ----------
    lam : int
        Derivative order, at least 1.
    n : int
        Matrix size, at least ``lam + 1``.

    Returns
    -------
    scipy.sparse.csr_matrix
    """
    if lam < 1:
        raise ValueError("derivative order must be a positive integer")
    if n < lam + 1:
        raise ValueError(f"need n >= {lam + 1} for derivative order {lam}")
    scale = 2.0 ** (lam - 1) * math.factorial(lam - 1)
    entries = scale * np.arange(lam, n, dtype=float)
    return sp.diags([entries], [lam], shape=(n, n), format="csr")


def conversion_operator(lam, n):
    """Banded basis-conversion matrix ``S_lam``.

    ``S_0`` converts Chebyshev coefficients to ultraspherical parameter-1
    coefficients; for ``lam > 0``, ``S_lam`` converts parameter ``lam`` to
    parameter ``lam + 1``.  Upper triangular with nonzero diagonals at
    offsets 0 and +2 only.
    """
    if lam < 0:
        raise ValueError("conversion parameter must be nonnegative")
    if n < 3:
        raise ValueError("need n >= 3")
    if lam == 0:
        main = np.full(n, 0.5)
        main[0] = 1.0
        upper2 = np.full(n - 2, -0.5)
    else:
        k = np.arange(n, dtype=float)
        main = lam / (lam + k)
        upper2 = -lam / (lam + k[:-2] + 2.0)
    return sp.diags([main, upper2], [0, 2], shape=(n, n), format="csr")


def cheb_to_ultra(lam, n):
    """Product ``S_{lam-1} ... S_1 S_0`` converting Chebyshev coefficients
    to ultraspherical parameter-``lam`` coefficients (identity for lam=0)."""
    M = sp.identity(n, format="csr")
    for k in range(lam):
        M = conversion_operator(k, n) @ M
    return M


@functools.lru_cache(maxsize=8)
def chebyshev_powers(lam, n):
    """Read-only (n, n, n) stack whose entry ``k`` multiplies
    parameter-``lam`` coefficient vectors (Chebyshev for lam=0) by ``T_k``.

    Built by ``T_{k+1}(X) = 2 X T_k(X) - T_{k-1}(X)`` from the tridiagonal
    multiplication-by-x matrix ``X`` at size 2n, and cropped, so
    truncation never corrupts the kept block.  Cached per ``(lam, n)`` and
    shared by every caller.
    """
    # X[a, a+1] and X[a+1, a]
    a = np.arange(2 * n - 1.0)
    if lam == 0:
        up, down = np.full(a.size, 0.5), np.where(a == 0, 1.0, 0.5)
    else:
        up, down = (a + 2 * lam) / (2 * (a + 1 + lam)), (a + 1) / (2 * (a + lam))
    T = np.empty((n, n, n))
    prev, cur = None, np.eye(2 * n)
    for k in range(n):
        T[k] = cur[:n, :n]
        xc = np.zeros_like(cur)
        xc[:-1] += up[:, None] * cur[1:]
        xc[1:] += down[:, None] * cur[:-1]
        prev, cur = cur, xc if prev is None else 2.0 * xc - prev
    T.flags.writeable = False
    return T


def mult_operator(f_coeffs, lam, n):
    """Banded matrix multiplying parameter-``lam`` coefficient vectors by
    the polynomial with Chebyshev coefficients ``f_coeffs``.

    The bandwidth equals the degree of ``f``.  Entries are exact for any
    operand polynomial of degree at most ``n - 1 - deg(f)``: the matrix is
    the sum of the :func:`chebyshev_powers` stack weighted by ``f``.
    """
    if lam not in (0, 1, 2):
        raise ValueError("multiplication supported for parameters 0, 1, 2")
    f = np.atleast_1d(np.asarray(f_coeffs, dtype=float)).ravel()
    nz = np.nonzero(f)[0]
    d = int(nz[-1]) if nz.size else 0
    if d >= n:
        raise ValueError(f"multiplier degree {d} too large for size {n}")
    out = np.tensordot(f[: d + 1], chebyshev_powers(lam, n)[: d + 1], axes=1)
    out[np.abs(out) < 1e-300] = 0.0
    return sp.csr_matrix(out)


def cheb_points(n):
    """Ascending Chebyshev extrema grid with ``n`` points on [-1, 1].

    Computed in sine form so the grid is exactly symmetric about zero and
    hits the endpoints exactly.
    """
    if n < 2:
        raise ValueError("need at least 2 points")
    j = np.arange(n)
    return np.sin(np.pi * (2 * j - (n - 1)) / (2 * (n - 1)))


@functools.lru_cache(maxsize=16)
def _transform_matrices(n):
    """Read-only ``(P, Q)`` for an n-point axis: ``Q[j, k] = T_k(x_j)`` on
    the grid of :func:`cheb_points` and its inverse ``P``, the type-I cosine
    transform.  The angle ``pi k (n-1-j) / (n-1)`` is reduced in integers
    and taken in the sine form of :func:`cheb_points`, so ``T_1`` is the
    grid and the symmetries of every ``T_k`` hold exactly."""
    d = max(n - 1, 1)  # a length-1 axis holds only its constant
    j, k = np.arange(n)[:, None], np.arange(n)
    m = (k * (n - 1 - j)) % (2 * d)
    Q = np.sin(np.pi * (d - 2 * np.minimum(m, 2 * d - m)) / (2 * d))
    w = np.where(k % d == 0, 0.5, 1.0)
    P = (2.0 / d) * w[:, None] * Q.T * w if n > 1 else Q.copy()
    P.flags.writeable = Q.flags.writeable = False
    return P, Q


def vals_to_coeffs_2d(values):
    """Tensor Chebyshev coefficients ``A[..., i, j]`` (of ``T_i(s) T_j(r)``)
    from grid values ``V[..., i, j] = u(r_j, s_i)`` on the ascending tensor
    grid; leading axes index a stack of grids."""
    v = np.asarray(values, dtype=float)
    if v.ndim < 2:
        raise ValueError("expected an array of 2-D value grids")
    return _transform_matrices(v.shape[-2])[0] @ v @ _transform_matrices(v.shape[-1])[0].T


def coeffs_to_vals_2d(coeffs):
    """Grid values from tensor Chebyshev coefficients over the last two
    axes; inverse of :func:`vals_to_coeffs_2d`."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim < 2:
        raise ValueError("expected an array of 2-D coefficient grids")
    return _transform_matrices(c.shape[-2])[1] @ c @ _transform_matrices(c.shape[-1])[1].T


def eval_row(x, n):
    """Rows ``[T_0(x), ..., T_{n-1}(x)]`` so that ``row @ coeffs``
    evaluates a Chebyshev series at ``x in [-1, 1]``: one row per point of
    an array ``x`` (shape ``x.shape + (n,)``), a 1-D row for a scalar."""
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("evaluation point must lie in [-1, 1]")
    return np.cos(np.arange(n) * np.arccos(x)[..., None])


def deriv_eval_row(x, n):
    """Rows evaluating the derivative of a Chebyshev series at the points
    ``x`` (shaped as in :func:`eval_row`).

    Computed as ``eval_row(x) @ inv(S_0) @ D_1`` with one banded triangular
    solve against ``S_0`` for all points; no inverse is ever formed.
    """
    e = eval_row(x, n)
    # solve y S0 = e, i.e. S0^T y = e; S0^T is lower banded with (l, u) = (2, 0)
    ab = np.zeros((3, n))
    ab[0, :] = 0.5
    ab[0, 0] = 1.0
    ab[2, : n - 2] = -0.5
    y = solve_banded((2, 0), ab, e.reshape(-1, n).T).T.reshape(e.shape)
    row = np.zeros_like(e)
    row[..., 1:] = y[..., :-1] * np.arange(1, n)
    return row
