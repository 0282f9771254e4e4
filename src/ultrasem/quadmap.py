"""Bilinear geometry for convex quadrilateral elements.

The reference square ``[-1, 1]^2`` with coordinates ``(r, s)`` is mapped
to a physical quadrilateral by a bilinear map.  All inverse-map
derivatives are rational with the (linear) Jacobian determinant
:func:`det_polynomial` in the denominator; multiplying through by
``det^3`` turns every coefficient appearing in a transformed second-order
operator into a low-degree bivariate polynomial, which
:mod:`ultrasem.element` samples.

:func:`bilinear_coeffs` also maps a stack of quadrilaterals at once, into
one :class:`BilinearMap` with an array entry per quad in every field;
indexing it (``maps[f]``, ``maps[:, None, None]``) indexes every field.

PDE coefficient tables are monomial-basis arrays ``P[i, j]`` multiplying
``x^i y^j`` (the ``poly2d`` helpers).
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import GeometryError


# ----------------------------------------------------------------------
# small dense bivariate polynomial helpers


def poly2d(table):
    """Coerce to a float monomial table ``P[i, j]`` of ``r^i s^j``."""
    return np.atleast_2d(np.asarray(table, dtype=float))


def poly2d_eval(P, r, s):
    """Evaluate a monomial table at scalar or array ``(r, s)``."""
    return np.polynomial.polynomial.polyval2d(r, s, poly2d(P))


def poly2d_trim(P):
    """Zero the entries below ``1e-14`` times the largest (transform
    rounding noise), then drop trailing zero rows/columns."""
    P = poly2d(P).copy()
    m = np.max(np.abs(P))
    if m == 0.0:
        return np.zeros((1, 1))
    P[np.abs(P) < 1e-14 * m] = 0.0
    nz = np.nonzero(P)
    return P[: nz[0].max() + 1, : nz[1].max() + 1]


# ----------------------------------------------------------------------


class Quad:
    """A strictly convex quadrilateral with counterclockwise vertices."""

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.shape != (4, 2):
            raise GeometryError("a quadrilateral needs exactly 4 (x, y) vertices")
        bad = quad_defect(v[None])
        if bad is not None:
            raise GeometryError(bad[1])
        self.vertices = v
        self.area = 0.5 * float(_twice_area(v))

    def __repr__(self):
        return f"Quad({self.vertices.tolist()})"


def _twice_area(v):
    # shoelace sum over the last two axes of (..., 4, 2) vertex arrays
    x, y = v[..., 0], v[..., 1]
    return np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def quad_defect(vertices):
    """The first quad of an (F, 4, 2) vertex stack that is not finite,
    counterclockwise with positive area and strictly convex, as
    ``(number, reason)``; None when every quad is valid."""
    v = np.asarray(vertices, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        area2 = _twice_area(v)
        e = np.roll(v, -1, axis=1) - v  # edge k runs from vertex k to k+1
        # the turn at vertex k+1, from edge k to edge k+1
        turn = (e[..., 0] * np.roll(e[..., 1], -1, axis=1)
                - e[..., 1] * np.roll(e[..., 0], -1, axis=1))
    finite = np.isfinite(v).all(axis=(1, 2))
    bad = ~finite | ~(area2 > 0.0) | ~(turn > 0.0).all(axis=1)
    if not bad.any():
        return None
    f = int(np.argmax(bad))
    if not finite[f]:
        return f, "vertices must be finite"
    if not area2[f] > 0.0:
        return f, "vertices are clockwise or degenerate (nonpositive area)"
    k = int(np.argmax(~(turn[f] > 0.0)))
    return f, f"quadrilateral is not strictly convex at vertex {(k + 1) % 4}"


def outward_normals(vertices):
    """Unit outward normals of the four edges of counterclockwise quads:
    (..., 4, 2) for (..., 4, 2) vertex arrays, local edge ``l`` running
    from vertex ``l`` to vertex ``l+1``."""
    t = np.roll(vertices, -1, axis=-2) - vertices
    nrm = np.hypot(t[..., 0], t[..., 1])[..., None]
    return np.stack([t[..., 1], -t[..., 0]], axis=-1) / nrm


_THREE = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def inradius(vertices):
    """Radius of the largest circle inside each convex quad: (...) for
    (..., 4, 2) counterclockwise vertex arrays."""
    # The largest inscribed circle of a convex quad is tangent to three of
    # its four edge lines.  Solve for the circle tangent to each three
    # (n_k . c - r = n_k . p_k with inward unit normals n_k) and shrink it
    # to its center's distance from the nearest line, which keeps it inside
    # the fourth; the largest of the four is the inradius.  Nearly parallel
    # sides of a sliver can make a triple's system singular in floating
    # point: that triple gets no circle.
    inward = -outward_normals(vertices)
    b = np.sum(inward * vertices, axis=-1)
    A = np.concatenate([inward, -np.ones(inward.shape[:-1] + (1,))], axis=-1)[..., _THREE, :]
    usable = np.linalg.det(A) != 0.0
    if not usable.any(axis=-1).all():
        f = int(np.argmin(usable.any(axis=-1).ravel()))
        raise GeometryError(f"element {f}: no three sides bound an inscribed circle")
    A = np.where(usable[..., None, None], A, np.eye(3))
    center = np.linalg.solve(A, b[..., _THREE, None])[..., :2, 0]
    # distance of each center (axis -2) from each line (axis -1)
    dist = center @ np.swapaxes(inward, -1, -2) - b[..., None, :]
    return np.where(usable, dist.min(axis=-1), -np.inf).max(axis=-1)


@dataclass(frozen=True)
class BilinearMap:
    """Coefficients of ``x = a1 + b1 r + c1 s + d1 r s`` and the analogous
    ``y`` expression, mapping the square onto a quadrilateral.

    The square corners ``(1,1), (-1,1), (-1,-1), (1,-1)`` map to vertices
    1..4 in counterclockwise order.  The fields may be arrays (a stack of
    maps); they broadcast against the points, and indexing the map
    indexes every field.
    """

    a1: float
    b1: float
    c1: float
    d1: float
    a2: float
    b2: float
    c2: float
    d2: float

    def __getitem__(self, index):
        return BilinearMap(*(np.asarray(getattr(self, f.name))[index] for f in fields(self)))

    def __iter__(self):
        return (self[f] for f in range(len(self.a1)))

    def __call__(self, r, s):
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        x = self.a1 + self.b1 * r + self.c1 * s + self.d1 * r * s
        y = self.a2 + self.b2 * r + self.c2 * s + self.d2 * r * s
        return x, y

    def adjugate(self, r, s):
        """det times the inverse-map derivatives ``(r_x, r_y, s_x, s_y)``
        at ``(r, s)``: the entries ``(y_s, -x_s, -y_r, x_r)`` of the
        Jacobian's adjugate."""
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        return (self.c2 + self.d2 * r, -(self.c1 + self.d1 * r),
                -(self.b2 + self.d2 * s), self.b1 + self.d1 * s)


@dataclass(frozen=True)
class DetPolynomial:
    """Jacobian determinant ``det(r, s) = const + dr * r + ds * s``."""

    const: float
    dr: float
    ds: float

    def __call__(self, r, s):
        return self.const + self.dr * np.asarray(r, dtype=float) + self.ds * np.asarray(s, dtype=float)


def bilinear_coeffs(quad):
    """Bilinear map coefficients for a :class:`Quad` (vertex averages and
    differences, a quarter each).  An (F, 4, 2) stack of vertex arrays
    gives one map whose fields are (F,) arrays; the caller validates
    those quads."""
    if not isinstance(quad, Quad) and np.ndim(quad) == 2:
        quad = Quad(quad)
    v = quad.vertices if isinstance(quad, Quad) else np.asarray(quad, dtype=float)
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = np.moveaxis(v, (-2, -1), (0, 1))
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
