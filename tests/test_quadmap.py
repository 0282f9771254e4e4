import numpy as np
import pytest

from numpy.polynomial.chebyshev import chebval2d

from ultrasem.element import PdeCoefficients, _reference_tables
from ultrasem.errors import GeometryError
from ultrasem.quadmap import (
    BilinearMap,
    Quad,
    bilinear_coeffs,
    det_polynomial,
    inradius,
    quad_defect,
)

from conftest import random_convex_quad

REF_SQUARE = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
MEDIAN_QUAD = [(0, 0), (0.5, 0), (1 / 3, 1 / 3), (0, 0.5)]


class TestQuad:
    def test_clockwise_rejected(self):
        with pytest.raises(GeometryError):
            Quad(list(reversed(REF_SQUARE)))

    def test_nonconvex_rejected(self):
        with pytest.raises(GeometryError):
            Quad([(0, 0), (2, 0), (0.1, 0.1), (0, 2)])

    def test_degenerate_rejected(self):
        with pytest.raises(GeometryError):
            Quad([(0, 0), (1, 0), (2, 0), (1, 1)])

    def test_random_quads_accepted(self, rng):
        for _ in range(50):
            Quad(random_convex_quad(rng))

    def test_stacked_defect_matches_loop(self, rng):
        # the first bad quad of a stack and its reason, against the checks
        # written out one quad and one vertex at a time
        def reason(v):
            if not np.all(np.isfinite(v)):
                return "vertices must be finite"
            area2 = sum(v[k, 0] * v[(k + 1) % 4, 1] - v[(k + 1) % 4, 0] * v[k, 1]
                        for k in range(4))
            if area2 <= 0.0:
                return "vertices are clockwise or degenerate (nonpositive area)"
            for k in range(4):
                e1 = v[(k + 1) % 4] - v[k]
                e2 = v[(k + 2) % 4] - v[(k + 1) % 4]
                if e1[0] * e2[1] - e1[1] * e2[0] <= 0.0:
                    return f"quadrilateral is not strictly convex at vertex {(k + 1) % 4}"
            return None

        bad = [list(reversed(REF_SQUARE)), [(0, 0), (2, 0), (0.1, 0.1), (0, 2)],
               [(0, 0), (1, 0), (2, 0), (1, 1)], [(0, 0), (1, 0), (np.nan, 1), (0, 1)],
               [(0, 0), (1, 0), (1, 1), (0.9, 0.1)]]
        for v in bad:
            for at in (0, 3):
                stack = np.array([random_convex_quad(rng) for _ in range(5)])
                stack[at] = v
                assert quad_defect(stack) == (at, reason(np.array(v, dtype=float)))
        assert quad_defect(np.array([random_convex_quad(rng) for _ in range(20)])) is None


class TestInradius:
    def test_known_values(self):
        eps = 1e-12
        v = np.array([REF_SQUARE, [(0, 0), (1, 0), (1, eps), (0, eps)],
                      [(0, 0), (4, 0), (2, 1), (0, 1)]], dtype=float)
        # the trapezoid's circle touches its bottom, top and left sides
        assert np.allclose(inradius(v), [1.0, eps / 2, 0.5], rtol=1e-13, atol=0)

    def test_stack_matches_one_at_a_time(self, rng):
        v = np.array([random_convex_quad(rng) for _ in range(24)])
        one = np.array([inradius(q) for q in v])
        assert np.array_equal(inradius(v), one)
        assert np.array_equal(inradius(v.reshape(4, 6, 4, 2)), one.reshape(4, 6))

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_sliver_with_a_singular_triple(self, eps):
        # the sliver of skinny_pair_mesh: sides 1, 2 and 3 have inward
        # normals equal in floating point, so the tangent-circle system of
        # those three is exactly singular and that triple gets no circle
        v = np.array([(1, 1), (1, -1), (1 + 2 * eps, -0.9), (1 + eps, 0.9)])
        assert abs(inradius(v) / eps - 1.0) < 1e-3
        assert np.array_equal(inradius(np.array([REF_SQUARE, v])), [1.0, inradius(v)])

    def test_no_usable_triple_names_the_element(self):
        # collinear vertices: three of the four sides are one line
        v = np.array([REF_SQUARE, [(0, 0), (1, 0), (2, 0), (3, 0)]], dtype=float)
        with pytest.raises(GeometryError, match="element 1: no three sides"):
            inradius(v)


class TestBilinearCoeffs:
    def test_reference_square_is_identity(self):
        bm = bilinear_coeffs(Quad(REF_SQUARE))
        assert (bm.a1, bm.b1, bm.c1, bm.d1) == (0.0, 1.0, 0.0, 0.0)
        assert (bm.a2, bm.b2, bm.c2, bm.d2) == (0.0, 0.0, 1.0, 0.0)

    def test_translation_changes_constants_only(self):
        v = np.array(REF_SQUARE, dtype=float)
        bm0 = bilinear_coeffs(Quad(v))
        bm1 = bilinear_coeffs(Quad(v + np.array([2.0, 3.0])))
        assert (bm1.a1, bm1.a2) == (2.0, 3.0)
        assert (bm1.b1, bm1.c1, bm1.d1) == (bm0.b1, bm0.c1, bm0.d1)
        assert (bm1.b2, bm1.c2, bm1.d2) == (bm0.b2, bm0.c2, bm0.d2)

    def test_stacked_maps_equal_single_maps(self, rng):
        # a stack of quads maps to the same bits as each quad alone, and
        # indexing or iterating the stack gives the per-quad maps
        vertices = np.array([random_convex_quad(rng) for _ in range(5)])
        stack = bilinear_coeffs(vertices)
        t = np.linspace(-1.0, 1.0, 4)
        R, S = np.meshgrid(t, t)
        X, Y = stack[:, None, None](R, S)
        for f, bm in enumerate(stack):
            assert bm == stack[f] == bilinear_coeffs(Quad(vertices[f]))
            assert np.array_equal(np.array([X[f], Y[f]]), np.array(bm(R, S)))
        with pytest.raises(TypeError):
            iter(stack[0])  # a single map is not a sequence

    def test_median_split_quad_coefficients(self):
        # quad of the median split of triangle (0,0), (1,0), (0,1):
        # x = [(14*0 + 5*1 + 5*0) + (4*0 - 5*1 + 0) r + (0 + 1 - 0) s
        #      + (0 - 1 - 0) rs] / 24
        bm = bilinear_coeffs(Quad(MEDIAN_QUAD))
        assert abs(bm.a1 - 5 / 24) < 1e-16
        assert abs(bm.b1 + 5 / 24) < 1e-16
        assert abs(bm.c1 - 1 / 24) < 1e-16
        assert abs(bm.d1 + 1 / 24) < 1e-16
        assert abs(bm.a2 - 5 / 24) < 1e-16
        assert abs(bm.b2 - 1 / 24) < 1e-16
        assert abs(bm.c2 + 5 / 24) < 1e-16
        assert abs(bm.d2 + 1 / 24) < 1e-16

    def test_corners_map_to_vertices(self, rng):
        corners = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        for _ in range(20):
            v = random_convex_quad(rng)
            bm = bilinear_coeffs(Quad(v))
            for k, (r, s) in enumerate(corners):
                x, y = bm(r, s)
                assert abs(x - v[k, 0]) < 1e-14
                assert abs(y - v[k, 1]) < 1e-14


class TestMapPoint:
    def test_identity(self):
        bm = bilinear_coeffs(Quad(REF_SQUARE))
        assert bm(0.3, -0.7) == (0.3, -0.7)

    def test_median_quad_corner(self):
        bm = bilinear_coeffs(Quad(MEDIAN_QUAD))
        x, y = bm(-1.0, -1.0)
        assert abs(x - 1 / 3) < 1e-15 and abs(y - 1 / 3) < 1e-15
        x, y = bm(1.0, 1.0)
        assert abs(x) < 1e-15 and abs(y) < 1e-15


def shoelace(v):
    x, y = np.asarray(v, dtype=float).T
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


class TestDetPolynomial:
    def test_identity_map(self):
        d = det_polynomial(bilinear_coeffs(Quad(REF_SQUARE)))
        assert (d.const, d.dr, d.ds) == (1.0, 0.0, 0.0)

    def test_median_quad(self):
        d = det_polynomial(bilinear_coeffs(Quad(MEDIAN_QUAD)))
        assert abs(d.const - 4 / 96) < 1e-16
        assert abs(d.dr - 1 / 96) < 1e-16
        assert abs(d.ds - 1 / 96) < 1e-16

    def test_affine_map_constant(self):
        quad = Quad([(3, 1), (-1, 2), (-3, -1), (1, -2)])  # parallelogram
        bm = bilinear_coeffs(quad)
        assert bm.d1 == 0.0 and bm.d2 == 0.0
        d = det_polynomial(bm)
        assert d.dr == 0.0 and d.ds == 0.0
        assert abs(d.const - (bm.b1 * bm.c2 - bm.b2 * bm.c1)) == 0.0

    def test_median_split_identity_random_triangles(self, rng):
        from ultrasem.mesh import split_triangle

        for _ in range(100):
            tri = rng.uniform(-2, 2, size=(3, 2))
            if shoelace(tri) < 0:
                tri = tri[::-1]
            if abs(shoelace(tri)) < 0.05:
                continue
            A = shoelace(tri)
            for quad in split_triangle(*tri):
                d = det_polynomial(bilinear_coeffs(quad))
                assert abs(d.const - 4 * A / 48) < 1e-13 * abs(A)
                assert abs(d.dr - A / 48) < 1e-13 * abs(A)
                assert abs(d.ds - A / 48) < 1e-13 * abs(A)

    def test_positivity_on_random_quads(self, rng):
        t = np.linspace(-1, 1, 20)
        R, S = np.meshgrid(t, t)
        for _ in range(1000):
            v = random_convex_quad(rng)
            d = det_polynomial(bilinear_coeffs(Quad(v)))
            assert d(R, S).min() > 0.0

    def test_reversed_order_flips_sign(self):
        # raw coefficient formula on clockwise input: constant term < 0
        v = np.array(REF_SQUARE, dtype=float)[::-1]
        x1, x2, x3, x4 = v[:, 0]
        y1, y2, y3, y4 = v[:, 1]
        bm = BilinearMap(
            a1=0.25 * (x1 + x2 + x3 + x4), b1=0.25 * (x1 - x2 - x3 + x4),
            c1=0.25 * (x1 + x2 - x3 - x4), d1=0.25 * (x1 - x2 + x3 - x4),
            a2=0.25 * (y1 + y2 + y3 + y4), b2=0.25 * (y1 - y2 - y3 + y4),
            c2=0.25 * (y1 + y2 - y3 - y4), d2=0.25 * (y1 - y2 + y3 - y4))
        assert det_polynomial(bm).const < 0.0


def newton_inverse(bm, x, y, r0=0.0, s0=0.0):
    r, s = r0, s0
    for _ in range(60):
        fx, fy = bm(r, s)
        fx -= x
        fy -= y
        J = np.array([[bm.b1 + bm.d1 * s, bm.c1 + bm.d1 * r],
                      [bm.b2 + bm.d2 * s, bm.c2 + bm.d2 * r]])
        dr, ds = np.linalg.solve(J, [fx, fy])
        r, s = r - dr, s - ds
        if abs(dr) + abs(ds) < 1e-15:
            break
    return r, s


def inverse_first_derivs(bm, x, y):
    r, s = newton_inverse(bm, x, y)
    J = np.array([[bm.b1 + bm.d1 * s, bm.c1 + bm.d1 * r],
                  [bm.b2 + bm.d2 * s, bm.c2 + bm.d2 * r]])
    Jinv = np.linalg.inv(J)
    return {"rx": Jinv[0, 0], "ry": Jinv[0, 1], "sx": Jinv[1, 0], "sy": Jinv[1, 1]}


# one-field operators, each isolating one physical derivative, so that the
# det^3-cleared reference tables of the operator are those of the derivative
PATHS = {"xx": PdeCoefficients(a22=0.0), "xy": PdeCoefficients(a11=0.0, a12=1.0, a22=0.0),
         "yy": PdeCoefficients(a11=0.0), "x": PdeCoefficients(a11=0.0, a22=0.0, b1=1.0),
         "y": PdeCoefficients(a11=0.0, a22=0.0, b2=1.0),
         "id": PdeCoefficients(a11=0.0, a22=0.0, c=1.0)}


def cleared(path, bm, r, s):
    """Values at reference points of the det^3-cleared coefficient of each
    reference derivative in one physical derivative."""
    return {ref: chebval2d(s, r, C) for ref, C in _reference_tables(PATHS[path], bm).items()}


class TestTransformedCoeffs:
    """The det^3-cleared coefficients of the pulled-back operator, as the
    element assembly samples them."""

    def test_identity_map(self):
        bm = bilinear_coeffs(Quad(REF_SQUARE))
        for path, ref in (("xx", "rr"), ("xy", "rs"), ("yy", "ss"), ("x", "r"),
                          ("y", "s"), ("id", "id")):
            for key, C in _reference_tables(PATHS[path], bm).items():
                assert C.shape == (1, 1)
                if key == ref:
                    assert abs(C[0, 0] - 1.0) <= 1e-15
                else:
                    assert C[0, 0] == 0.0

    def test_diagonal_scaling(self):
        # x = 2r, y = s: det = 2, det^3 u_xx has u_rr coefficient 2
        bm = bilinear_coeffs(Quad([(2, 1), (-2, 1), (-2, -1), (2, -1)]))
        assert abs(cleared("xx", bm, 0.0, 0.0)["rr"] - 2.0) < 1e-15

    def test_against_newton_fd_oracle(self, rng):
        for _ in range(5):
            v = random_convex_quad(rng)
            bm = bilinear_coeffs(Quad(v))
            det = det_polynomial(bm)
            for _ in range(5):
                r, s = rng.uniform(-0.8, 0.8, size=2)
                x, y = bm(r, s)
                d3 = det(r, s) ** 3
                h = 1e-6
                fd = {}
                dxp = inverse_first_derivs(bm, x + h, y)
                dxm = inverse_first_derivs(bm, x - h, y)
                dyp = inverse_first_derivs(bm, x, y + h)
                dym = inverse_first_derivs(bm, x, y - h)
                fd["r_xx"] = (dxp["rx"] - dxm["rx"]) / (2 * h)
                fd["s_xx"] = (dxp["sx"] - dxm["sx"]) / (2 * h)
                fd["r_xy"] = (dyp["rx"] - dym["rx"]) / (2 * h)
                fd["s_xy"] = (dyp["sx"] - dym["sx"]) / (2 * h)
                fd["r_yy"] = (dyp["ry"] - dym["ry"]) / (2 * h)
                fd["s_yy"] = (dyp["sy"] - dym["sy"]) / (2 * h)
                xx, xy, yy = (cleared(path, bm, r, s) for path in ("xx", "xy", "yy"))
                pairs = [(xx["r"], fd["r_xx"]), (xx["s"], fd["s_xx"]),
                         (xy["r"], fd["r_xy"]), (xy["s"], fd["s_xy"]),
                         (yy["r"], fd["r_yy"]), (yy["s"], fd["s_yy"])]
                scale = max(abs(val) for _, val in pairs) + 1.0
                for value, want in pairs:
                    assert abs(value / d3 - want) < 1e-8 * scale

    def test_chain_rule_exact_for_quadratics(self, rng):
        # det^3-cleared identities hold exactly for u = x^2, y^2, x*y, ...
        t = np.linspace(-1, 1, 7)
        R, S = np.meshgrid(t, t)
        polys = [
            # u, u_x, u_y, u_xx, u_xy, u_yy as coefficient lambdas
            (lambda x, y: x * x, lambda x, y: 2 * x, lambda x, y: 0 * x,
             2.0, 0.0, 0.0),
            (lambda x, y: x * y, lambda x, y: y, lambda x, y: x, 0.0, 1.0, 0.0),
            (lambda x, y: y * y, lambda x, y: 0 * x, lambda x, y: 2 * y,
             0.0, 0.0, 2.0),
        ]
        for _ in range(10):
            v = random_convex_quad(rng)
            bm = bilinear_coeffs(Quad(v))
            tables = {path: cleared(path, bm, R, S) for path in PATHS}
            X, Y = bm(R, S)
            det3 = det_polynomial(bm)(R, S) ** 3
            for u, ux, uy, uxx, uxy, uyy in polys:
                # analytic chain rule on the bilinear map as reference
                xr = bm.b1 + bm.d1 * S
                xs = bm.c1 + bm.d1 * R
                yr = bm.b2 + bm.d2 * S
                ys = bm.c2 + bm.d2 * R
                ur = ux(X, Y) * xr + uy(X, Y) * yr
                us = ux(X, Y) * xs + uy(X, Y) * ys
                urr = uxx * xr * xr + 2 * uxy * xr * yr + uyy * yr * yr
                uss = uxx * xs * xs + 2 * uxy * xs * ys + uyy * ys * ys
                urs = (uxx * xr * xs + uxy * (xr * ys + xs * yr)
                       + uyy * yr * ys + ux(X, Y) * bm.d1 + uy(X, Y) * bm.d2)
                ref = {"rr": urr, "rs": urs, "ss": uss, "r": ur, "s": us, "id": u(X, Y)}
                for path, want in (("xx", det3 * uxx), ("xy", det3 * uxy),
                                   ("yy", det3 * uyy), ("x", det3 * ux(X, Y)),
                                   ("y", det3 * uy(X, Y)), ("id", det3 * u(X, Y))):
                    got = sum(tables[path][key] * ref[key] for key in ref)
                    scale = np.abs(want).max() + np.abs(det3).max()
                    assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_tables_degree_bounded(self, rng):
        # shapes (in s, in r) on a generic quad: each term's degree plus
        # the degree of its PDE coefficient, here y^2 for the last operator
        bm = bilinear_coeffs(Quad(random_convex_quad(rng)))
        want = {"xx": {"rr": (2, 4), "rs": (3, 3), "ss": (4, 2), "r": (2, 2), "s": (2, 2)},
                "x": {"r": (3, 4), "s": (4, 3)},
                "id": {"id": (4, 4)}}
        for path, shapes in want.items():
            tables = _reference_tables(PATHS[path], bm)
            assert {ref: C.shape for ref, C in tables.items() if C.any()} == shapes
        tables = _reference_tables(PdeCoefficients(a11=[[0.0, 0.0, 1.0]], a22=0.0), bm)
        assert {ref: C.shape for ref, C in tables.items() if C.any()} == {
            "rr": (4, 6), "rs": (5, 5), "ss": (6, 4), "r": (4, 4), "s": (4, 4)}
