"""Bilinear geometry for convex quadrilateral elements.

The reference square ``[-1, 1]^2`` with coordinates ``(r, s)`` is mapped
to a physical quadrilateral by a bilinear map.  All inverse-map
derivatives are rational with the (linear) Jacobian determinant in the
denominator; multiplying through by ``det^3`` turns every coefficient
appearing in a transformed second-order operator into a low-degree
bivariate polynomial.  Those cleared polynomial tables are produced here.

Polynomial tables are monomial-basis coefficient arrays ``P[i, j]``
multiplying ``r^i s^j``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError


# ----------------------------------------------------------------------
# small dense bivariate polynomial helpers


def poly2d(table):
    """Coerce to a float monomial table ``P[i, j]`` of ``r^i s^j``."""
    return np.atleast_2d(np.asarray(table, dtype=float))


def poly2d_add(P, Q):
    P, Q = poly2d(P), poly2d(Q)
    nr = max(P.shape[0], Q.shape[0])
    ns = max(P.shape[1], Q.shape[1])
    out = np.zeros((nr, ns))
    out[: P.shape[0], : P.shape[1]] += P
    out[: Q.shape[0], : Q.shape[1]] += Q
    return out


def poly2d_mul(P, Q):
    P, Q = poly2d(P), poly2d(Q)
    out = np.zeros((P.shape[0] + Q.shape[0] - 1, P.shape[1] + Q.shape[1] - 1))
    for i in range(P.shape[0]):
        for j in range(P.shape[1]):
            if P[i, j] != 0.0:
                out[i : i + Q.shape[0], j : j + Q.shape[1]] += P[i, j] * Q
    return out


def poly2d_diff_r(P):
    P = poly2d(P)
    if P.shape[0] == 1:
        return np.zeros((1, P.shape[1]))
    return P[1:, :] * np.arange(1, P.shape[0])[:, None]


def poly2d_diff_s(P):
    P = poly2d(P)
    if P.shape[1] == 1:
        return np.zeros((P.shape[0], 1))
    return P[:, 1:] * np.arange(1, P.shape[1])[None, :]


def poly2d_eval(P, r, s):
    """Evaluate a monomial table at scalar or array ``(r, s)``."""
    return np.polynomial.polynomial.polyval2d(r, s, poly2d(P))


def poly2d_trim(P, rel=0.0):
    """Drop trailing zero rows/columns; entries below ``rel * max`` are
    zeroed first."""
    P = poly2d(P).copy()
    m = np.max(np.abs(P))
    if m == 0.0:
        return np.zeros((1, 1))
    if rel > 0.0:
        P[np.abs(P) < rel * m] = 0.0
    nz = np.nonzero(P)
    if nz[0].size == 0:
        return np.zeros((1, 1))
    return P[: nz[0].max() + 1, : nz[1].max() + 1]


# ----------------------------------------------------------------------


class Quad:
    """A strictly convex quadrilateral with counterclockwise vertices."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.shape != (4, 2):
            raise GeometryError("a quadrilateral needs exactly 4 (x, y) vertices")
        if not np.all(np.isfinite(v)):
            raise GeometryError("vertices must be finite")
        area2 = 0.0
        for k in range(4):
            xa, ya = v[k]
            xb, yb = v[(k + 1) % 4]
            area2 += xa * yb - xb * ya
        if area2 <= 0.0:
            raise GeometryError(
                "vertices are clockwise or degenerate (nonpositive area)"
            )
        for k in range(4):
            e1 = v[(k + 1) % 4] - v[k]
            e2 = v[(k + 2) % 4] - v[(k + 1) % 4]
            if e1[0] * e2[1] - e1[1] * e2[0] <= 0.0:
                raise GeometryError(f"quadrilateral is not strictly convex at vertex {(k + 1) % 4}")
        self.vertices = v
        self.area = 0.5 * area2

    def __repr__(self):
        return f"Quad({self.vertices.tolist()})"


@dataclass(frozen=True)
class BilinearMap:
    """Coefficients of ``x = a1 + b1 r + c1 s + d1 r s`` and the analogous
    ``y`` expression, mapping the square onto a quadrilateral.

    The square corners ``(1,1), (-1,1), (-1,-1), (1,-1)`` map to vertices
    1..4 in counterclockwise order.
    """

    a1: float
    b1: float
    c1: float
    d1: float
    a2: float
    b2: float
    c2: float
    d2: float

    def __call__(self, r, s):
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        x = self.a1 + self.b1 * r + self.c1 * s + self.d1 * r * s
        y = self.a2 + self.b2 * r + self.c2 * s + self.d2 * r * s
        return x, y

    @property
    def x_table(self):
        return np.array([[self.a1, self.c1], [self.b1, self.d1]])

    @property
    def y_table(self):
        return np.array([[self.a2, self.c2], [self.b2, self.d2]])


@dataclass(frozen=True)
class DetPolynomial:
    """Jacobian determinant ``det(r, s) = const + dr * r + ds * s``."""

    const: float
    dr: float
    ds: float

    @property
    def table(self):
        return np.array([[self.const, self.ds], [self.dr, 0.0]])

    def __call__(self, r, s):
        return self.const + self.dr * np.asarray(r, dtype=float) + self.ds * np.asarray(s, dtype=float)


_CORNERS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def reference_corner(k):
    """Reference-square corner ``(r, s)`` that maps to vertex ``k`` (0-based)."""
    return _CORNERS[k]


def bilinear_coeffs(quad):
    """Bilinear map coefficients for a :class:`Quad` (vertex averages and
    differences, a quarter each)."""
    if not isinstance(quad, Quad):
        quad = Quad(quad)
    x1, x2, x3, x4 = quad.vertices[:, 0]
    y1, y2, y3, y4 = quad.vertices[:, 1]
    return BilinearMap(
        a1=0.25 * (x1 + x2 + x3 + x4),
        b1=0.25 * (x1 - x2 - x3 + x4),
        c1=0.25 * (x1 + x2 - x3 - x4),
        d1=0.25 * (x1 - x2 + x3 - x4),
        a2=0.25 * (y1 + y2 + y3 + y4),
        b2=0.25 * (y1 - y2 - y3 + y4),
        c2=0.25 * (y1 + y2 - y3 - y4),
        d2=0.25 * (y1 - y2 + y3 - y4),
    )


def det_polynomial(bm):
    """Jacobian determinant of the map as a linear polynomial in (r, s)."""
    return DetPolynomial(
        const=bm.b1 * bm.c2 - bm.b2 * bm.c1,
        dr=bm.b1 * bm.d2 - bm.b2 * bm.d1,
        ds=bm.c2 * bm.d1 - bm.c1 * bm.d2,
    )


class TransformedCoeffs:
    """det^3-cleared polynomial coefficients of the pulled-back derivatives.

    For each physical derivative path (``x``, ``y``, ``xx``, ``xy``,
    ``yy``) holds a dict mapping reference-derivative names (``r``, ``s``,
    ``rr``, ``rs``, ``ss``) to monomial tables ``P`` such that, e.g.::

        det(r,s)^3 * u_xx = P_rr * u_rr + P_rs * u_rs + P_ss * u_ss
                            + P_r * u_r + P_s * u_s

    holds identically.  ``det3`` is the table of ``det(r, s)^3`` (the
    clearing factor itself, multiplying undifferentiated terms).  Every
    table has degree at most 3 in each variable.
    """

    def __init__(self, bm):
        D = det_polynomial(bm).table
        Dr, Ds = poly2d_diff_r(D), poly2d_diff_s(D)
        Xr = np.array([[bm.b1, bm.d1]])  # b1 + d1 s  (s-power along axis 1)
        Xs = np.array([[bm.c1], [bm.d1]])  # c1 + d1 r
        Yr = np.array([[bm.b2, bm.d2]])
        Ys = np.array([[bm.c2], [bm.d2]])

        def ddx_cleared(P):
            # det^3 * d/dx (P / det), for polynomial P
            Pr, Ps = poly2d_diff_r(P), poly2d_diff_s(P)
            t1 = poly2d_add(poly2d_mul(Pr, D), -poly2d_mul(P, Dr))
            t2 = poly2d_add(poly2d_mul(Ps, D), -poly2d_mul(P, Ds))
            return poly2d_add(poly2d_mul(t1, Ys), -poly2d_mul(t2, Yr))

        def ddy_cleared(P):
            Pr, Ps = poly2d_diff_r(P), poly2d_diff_s(P)
            t1 = poly2d_add(poly2d_mul(Pr, D), -poly2d_mul(P, Dr))
            t2 = poly2d_add(poly2d_mul(Ps, D), -poly2d_mul(P, Ds))
            return poly2d_add(-poly2d_mul(t1, Xs), poly2d_mul(t2, Xr))

        det2 = poly2d_mul(D, D)
        trim = lambda P: poly2d_trim(P, rel=1e-15)
        # first derivatives: det^3 u_x = (Ys det^2) u_r - (Yr det^2) u_s, etc.
        self.x = {"r": trim(poly2d_mul(Ys, det2)), "s": trim(-poly2d_mul(Yr, det2))}
        self.y = {"r": trim(-poly2d_mul(Xs, det2)), "s": trim(poly2d_mul(Xr, det2))}
        # second derivatives via the chain rule; r_x = Ys/det, s_x = -Yr/det,
        # r_y = -Xs/det, s_y = Xr/det
        self.xx = {
            "rr": trim(poly2d_mul(poly2d_mul(Ys, Ys), D)),
            "rs": trim(-2.0 * poly2d_mul(poly2d_mul(Ys, Yr), D)),
            "ss": trim(poly2d_mul(poly2d_mul(Yr, Yr), D)),
            "r": trim(ddx_cleared(Ys)),
            "s": trim(ddx_cleared(-Yr)),
        }
        self.xy = {
            "rr": trim(-poly2d_mul(poly2d_mul(Ys, Xs), D)),
            "rs": trim(poly2d_add(poly2d_mul(poly2d_mul(Ys, Xr), D),
                                  poly2d_mul(poly2d_mul(Yr, Xs), D))),
            "ss": trim(-poly2d_mul(poly2d_mul(Yr, Xr), D)),
            "r": trim(ddy_cleared(Ys)),
            "s": trim(ddy_cleared(-Yr)),
        }
        self.yy = {
            "rr": trim(poly2d_mul(poly2d_mul(Xs, Xs), D)),
            "rs": trim(-2.0 * poly2d_mul(poly2d_mul(Xs, Xr), D)),
            "ss": trim(poly2d_mul(poly2d_mul(Xr, Xr), D)),
            "r": trim(ddy_cleared(-Xs)),
            "s": trim(ddy_cleared(Xr)),
        }
        self.det3 = trim(poly2d_mul(det2, D))


def transformed_derivative_coeffs(bm):
    """All det^3-cleared derivative coefficient tables for a bilinear map."""
    return TransformedCoeffs(bm)
