import numpy as np
import pytest

from ultrasem.errors import GeometryError
from ultrasem.quadmap import (
    BilinearMap,
    Quad,
    bilinear_coeffs,
    det_polynomial,
    poly2d_eval,
    transformed_derivative_coeffs,
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


class TestTransformedCoeffs:
    def test_identity_map(self):
        tc = transformed_derivative_coeffs(bilinear_coeffs(Quad(REF_SQUARE)))
        assert poly2d_eval(tc.xx["rr"], 0.2, -0.3) == 1.0
        for key in ("rs", "ss", "r", "s"):
            assert np.all(tc.xx[key] == 0.0)
        for key in ("rr", "rs", "r", "s"):
            assert np.all(tc.yy[key] == 0.0)
        assert poly2d_eval(tc.yy["ss"], 0.0, 0.0) == 1.0
        assert poly2d_eval(tc.x["r"], 0.5, 0.5) == 1.0
        assert np.all(tc.x["s"] == 0.0)
        assert poly2d_eval(tc.det3, -0.1, 0.9) == 1.0

    def test_diagonal_scaling(self):
        # x = 2r, y = s: det = 2, det^3 u_xx has u_rr coefficient 2
        quad = Quad([(2, 1), (-2, 1), (-2, -1), (2, -1)])
        tc = transformed_derivative_coeffs(bilinear_coeffs(quad))
        assert abs(poly2d_eval(tc.xx["rr"], 0.0, 0.0) - 2.0) < 1e-15

    def test_against_newton_fd_oracle(self, rng):
        for _ in range(5):
            v = random_convex_quad(rng)
            bm = bilinear_coeffs(Quad(v))
            det = det_polynomial(bm)
            tc = transformed_derivative_coeffs(bm)
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
                pairs = [(tc.xx["r"], fd["r_xx"]), (tc.xx["s"], fd["s_xx"]),
                         (tc.xy["r"], fd["r_xy"]), (tc.xy["s"], fd["s_xy"]),
                         (tc.yy["r"], fd["r_yy"]), (tc.yy["s"], fd["s_yy"])]
                scale = max(abs(val) for _, val in pairs) + 1.0
                for table, want in pairs:
                    got = poly2d_eval(table, r, s) / d3
                    assert abs(got - want) < 1e-8 * scale

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
            tc = transformed_derivative_coeffs(bm)
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
                for tabs, want in ((tc.xx, det3 * uxx), (tc.xy, det3 * uxy),
                                   (tc.yy, det3 * uyy)):
                    got = (poly2d_eval(tabs["rr"], R, S) * urr
                           + poly2d_eval(tabs["rs"], R, S) * urs
                           + poly2d_eval(tabs["ss"], R, S) * uss
                           + poly2d_eval(tabs["r"], R, S) * ur
                           + poly2d_eval(tabs["s"], R, S) * us)
                    scale = np.abs(want).max() + np.abs(det3).max()
                    assert np.max(np.abs(got - want)) < 1e-12 * scale
                for tabs, want in ((tc.x, det3 * ux(X, Y)), (tc.y, det3 * uy(X, Y))):
                    got = (poly2d_eval(tabs["r"], R, S) * ur
                           + poly2d_eval(tabs["s"], R, S) * us)
                    scale = np.abs(want).max() + np.abs(det3).max()
                    assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_tables_degree_bounded(self, rng):
        v = random_convex_quad(rng)
        tc = transformed_derivative_coeffs(bilinear_coeffs(Quad(v)))
        for group in (tc.x, tc.y, tc.xx, tc.xy, tc.yy):
            for table in group.values():
                assert table.shape[0] <= 4 and table.shape[1] <= 4
        assert tc.det3.shape == (4, 4)
