import threading
import time
from concurrent.futures import ThreadPoolExecutor
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
import scipy.sparse as sp

from ultrasem import navierstokes as nsm
from ultrasem import ultra
from ultrasem._linalg import BandedLU
from ultrasem.cli import _general_pde
from ultrasem.element import (
    AlmostBandedMatrix,
    PdeCoefficients,
    _reference_tables,
    apply_rhs_operator,
    assemble_element_operator,
    boundary_slots,
    edge_points,
    element_interior_operator,
    element_rhs_operator,
    grid_points,
    operator_condition,
    point_derivative_rows,
    point_value_row,
    traversal_points,
)
from ultrasem.errors import GeometryError, SingularOperatorError
from ultrasem.mesh import QuadMesh, grid_mesh
from ultrasem.quadmap import Quad, bilinear_coeffs, det_polynomial
from ultrasem.schur import _normal_rows, assemble_schur, solve_element_dirichlet

from conftest import VARCOEF, jiggled_grid, mixed_mesh, random_convex_quad

SQUARE = Quad([(1, 1), (-1, 1), (-1, -1), (1, -1)])
POISSON = PdeCoefficients.poisson()


def skinny_quad(eps):
    return Quad([(0.0, 0.0), (1.0, 1.0 - 0.5 * eps),
                 (1.0, 1.0), (0.5, 0.5 + 0.5 * eps)])


def equation_rows(n):
    """Rows ``i + n j`` of the full operator holding the interior
    equations (i, j <= n-3), in column-stacked order; equation (i, j)
    sits at slot ``(i+2) + n (j+2)``, 2n+2 further on."""
    k = np.arange(n - 2)
    return (k[:, None] + n * k[None, :]).ravel(order="F")


def coeffs_of(fn, n, quad=SQUARE):
    bm = bilinear_coeffs(quad)
    t = ultra.cheb_points(n)
    R, S = np.meshgrid(t, t)
    X, Y = bm(R, S)
    return ultra.vals_to_coeffs_2d(fn(X, Y) + 0 * X).ravel(order="F")


def sample_error(sol, quad, exact, m=30):
    bm = bilinear_coeffs(quad)
    t = np.linspace(-1, 1, m)
    R, S = np.meshgrid(t, t)
    X, Y = bm(R, S)
    return np.max(np.abs(sol.eval(R, S) - exact(X, Y)))


class TestInteriorOperator:
    def test_laplacian_of_quadratic(self):
        n = 8
        L = element_interior_operator(POISSON, SQUARE, n)
        u = coeffs_of(lambda x, y: x * x + y * y, n)
        out = L @ u
        want = np.zeros(n * n)
        want[0] = 4.0
        assert np.max(np.abs(out - want)) < 1e-13

    def test_zero_vector(self):
        L = element_interior_operator(POISSON, SQUARE, 6)
        assert np.array_equal(L @ np.zeros(36), np.zeros(36))

    def test_general_operator_against_sampling_route(self, rng):
        # apply L = a.laplacian + b.grad + c with polynomial coefficients to
        # a polynomial u; the operator composition must match the
        # independent sample-multiply-convert route exactly
        n = 10
        pde = PdeCoefficients(a11=[[1.0], [0.5]], a12=0.25, a22=[[2.0, -0.5]],
                              b1=[[0.0, 1.0]], b2=-0.5, c=[[1.0], [2.0]])
        for _ in range(5):
            quad = Quad(random_convex_quad(rng))
            u = lambda x, y: x ** 3 - 2 * x * y + 0.5 * y ** 2 + x
            ux = lambda x, y: 3 * x ** 2 - 2 * y + 1
            uy = lambda x, y: -2 * x + y
            uxx = lambda x, y: 6 * x
            uxy = lambda x, y: -2 + 0 * x
            uyy = lambda x, y: 0.5 * 2 + 0 * x
            Lu = lambda x, y: ((1.0 + 0.5 * x) * uxx(x, y)
                               + 0.25 * uxy(x, y)
                               + (2.0 - 0.5 * y) * uyy(x, y)
                               + y * ux(x, y) - 0.5 * uy(x, y)
                               + (1.0 + 2.0 * x) * u(x, y))
            L = element_interior_operator(pde, quad, n)
            rows = equation_rows(n)
            got = (L @ coeffs_of(u, n, quad))[rows]
            # the rhs operator holds equation (i, j) at its slot
            want = apply_rhs_operator(element_rhs_operator(quad, n),
                                      coeffs_of(Lu, n, quad))[rows + 2 * n + 2]
            scale = np.abs(want).max()
            assert np.max(np.abs(got - want)) < 1e-12 * scale

    def test_bandedness(self):
        counts = {}
        for n in (8, 16, 32):
            L = element_interior_operator(POISSON, SQUARE, n)
            counts[n] = L.nnz
        # nnz growth like n^2 (bounded density), never n^3 or n^4
        for n, nnz in counts.items():
            assert nnz <= 8 * n * n
        assert counts[32] <= 6 * counts[16]
        coo = element_interior_operator(POISSON, SQUARE, 16).tocoo()
        band = np.max(np.abs(coo.row - coo.col))
        assert band <= 8 * 16  # O(n) stacked bandwidth


def _dense_kron_sum(C, lam, n, left, right):
    """``sum_j np.kron(L T_j A, L M(C[:, j]) B)`` for 1-D factors
    ``right = (A, B)`` and a left factor ``L`` on both sides, from dense
    :func:`ultra.mult_operator` matrices: by kron(A, B) kron(C, D) =
    kron(AC, BD) this is the multiplication by the polynomial with
    Chebyshev table C composed with kron(L, L) and kron(A, B)."""
    out = np.zeros((n * n, n * n))
    for j in range(C.shape[1]):
        e = np.zeros(j + 1)
        e[j] = 1.0
        T = ultra.mult_operator(e, lam, n).toarray()
        M = ultra.mult_operator(C[:, j], lam, n).toarray()
        out += np.kron(left @ T @ right[0], left @ M @ right[1])
    return out


def _one_d_factors(n):
    """The 1-D Kronecker factors of each reference derivative, dense."""
    S = (ultra.conversion_operator(1, n) @ ultra.conversion_operator(0, n)).toarray()
    SD = (ultra.conversion_operator(1, n) @ ultra.diff_operator(1, n)).toarray()
    D2 = ultra.diff_operator(2, n).toarray()
    return S, {"rr": (D2, S), "rs": (SD, SD), "ss": (S, D2),
               "r": (SD, S), "s": (S, SD), "id": (S, S)}


def _band_cases():
    mesh = mixed_mesh()
    tunnel = nsm.tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
    screened = PdeCoefficients.screened(nsm.NsConfig(dt=1.667e-5).k2)
    # at n = 8 the mixed mesh's wide 1-D factors put two Kronecker
    # diagonals on one stacked offset
    return ([(_general_pde(VARCOEF, mesh), mesh.element_quad(f), m)
             for f in range(mesh.n_quads) for m in (8, 24)]
            + [(screened, tunnel.element_quad(f), 8) for f in range(tunnel.n_quads)]
            + [(POISSON, skinny_quad(1e-12), 16)])


class TestBandAssembly:
    """The operators built as diagonals against dense np.kron sums."""

    def test_interior_operator_against_dense_kron(self):
        for pde, quad, n in _band_cases():
            _, factors = _one_d_factors(n)
            want = sum(_dense_kron_sum(C, 2, n, np.eye(n), factors[ref])
                       for ref, C in _reference_tables(pde, bilinear_coeffs(quad)).items())
            got = element_interior_operator(pde, quad, n).toarray()
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_rhs_operator_against_dense_kron(self, rng):
        for _, quad, n in _band_cases():
            S, _ = _one_d_factors(n)
            t = ultra.cheb_points(4)
            C = ultra.vals_to_coeffs_2d(det_polynomial(bilinear_coeffs(quad))(*np.meshgrid(t, t)) ** 3)
            want = _dense_kron_sum(C, 2, n, np.eye(n), (S, S))
            factors = element_rhs_operator(quad, n)
            # the factors applied to the identity give the operator's
            # transpose: the equation rows at their slots, the boundary
            # slot rows zero
            got = apply_rhs_operator(factors, np.eye(n * n)).T
            rows = equation_rows(n)
            err = got[rows + 2 * n + 2] - want[rows]
            assert np.abs(err).max() <= 1e-15 * np.abs(want).max()
            assert not got[boundary_slots(n)].any()
            # and their batched products with a stack of coefficient
            # vectors are the dense operator's products on those rows
            X = rng.standard_normal((3, n * n))
            got = apply_rhs_operator(factors, X)
            err = got[:, rows + 2 * n + 2] - X @ want[rows].T
            assert np.abs(err).max() <= 1e-14 * (np.abs(X) @ np.abs(want).T).max()
            assert not got[:, boundary_slots(n)].any()

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("quad", [Quad([(0, 0), (1.1, 0.2), (1.3, 1.4), (-0.2, 0.9)]),
                                      skinny_quad(1e-6)], ids=["kite", "sliver"])
    def test_rhs_operator_exact_on_interior_rows(self, quad, n):
        # det^3 f has degree n + 2 per variable; its parameter-2 modes up
        # to n - 3 need its Chebyshev modes up to n + 1, which a product
        # truncated to n modes before conversion cuts
        A = np.random.default_rng(n).standard_normal((n, n))
        t = ultra.cheb_points(n + 3)
        R, S = np.meshgrid(t, t)
        det = det_polynomial(bilinear_coeffs(quad))(R, S)
        P = ultra.vals_to_coeffs_2d(det ** 3 * np.polynomial.chebyshev.chebval2d(S, R, A))
        S2 = ultra.cheb_to_ultra(2, n + 3).toarray()
        want = (S2 @ P @ S2.T)[: n - 2, : n - 2].ravel(order="F")
        got = apply_rhs_operator(element_rhs_operator(quad, n),
                                 A.ravel(order="F"))[equation_rows(n) + 2 * n + 2]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_bordered_bandwidths_pinned(self):
        # the outermost stored diagonals are the band: rounding residue
        # never widens it
        mixed = assemble_schur(mixed_mesh(), _general_pde(VARCOEF, mixed_mesh()), 24)
        assert [op.bandwidths() for op in mixed.ops] == [(50, 50)] + [(124, 124)] * 6 + [(50, 50)]
        grid = assemble_schur(grid_mesh(12, 12), POISSON, 8)
        assert {op.bandwidths() for op in grid.ops} == {(16, 16)}
        # rounding noise in the sampled coefficient tables of nearly affine
        # elements stays out of the band
        for seed in range(4):
            jiggled = assemble_schur(jiggled_grid(3, 3, np.random.default_rng(seed)), POISSON, 8)
            assert {op.bandwidths() for op in jiggled.ops} == {(26, 26)}
        tunnel = nsm.tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
        solver = nsm.TunnelSolver(tunnel, 8, nsm.NsConfig(dt=1.667e-5, dealias=False),
                                  nsm.classify_tunnel_boundary(tunnel, (0.6, 0.0)))
        for system, band in ((solver.helm_u, 18), (solver.helm_v, 18), (solver.pois_p, 16)):
            assert {op.bandwidths() for op in system.ops} == {(band, band)}
        op = assemble_element_operator(POISSON, skinny_quad(1e-9), 48)
        assert op.bandwidths() == (146, 146)

    @pytest.mark.parametrize("case, n", [(case, n) for case in ("sliver", "kite", "varcoef")
                                         for n in (8, 13, 24, 48)]
                             + [(case, n) for case in ("sliver", "kite") for n in (4, 5)]
                             + [("uxy", 8), ("kite-lower-order", 4), ("kite-lower-order", 7)])
    def test_assembled_operator_against_dense_slots(self, case, n):
        # the banded part written in place equals the interior operator's
        # equation rows moved to their slots, each row scaled to unit sup
        # norm, with unit entries at the boundary slots, bordered by the
        # scaled Dirichlet rows; at n = 8 the varcoef element puts two
        # Kronecker diagonals on one offset, u_xy alone on the square
        # leaves the equations no main diagonal, and at n = 4 and 5 the
        # slot shift keeps only 2 or 3 rows of each 1-D factor
        mesh = mixed_mesh()
        kite = Quad([(0, 0), (1.1, 0.2), (1.3, 1.4), (-0.2, 0.9)])
        pde, quad = {"sliver": (POISSON, skinny_quad(1e-6)),
                     "kite": (POISSON, kite),
                     "varcoef": (_general_pde(VARCOEF, mesh), mesh.element_quad(1)),
                     "uxy": (PdeCoefficients(a11=0.0, a12=1.0, a22=0.0), SQUARE),
                     "kite-lower-order": (PdeCoefficients(b1=1.0, c=-3.0), kite)}[case]
        nn, slots, rows = n * n, boundary_slots(n), equation_rows(n)
        B = np.zeros((nn, nn))
        B[rows + 2 * n + 2] = element_interior_operator(pde, quad, n).toarray()[rows]
        row_max = np.abs(B).max(axis=1)
        row_max[slots] = 1.0
        scale = 1.0 / row_max
        B *= scale[:, None]
        B[slots, slots] = 1.0
        r, c = np.nonzero(B)
        band = int((r - c).max()), int((c - r).max())
        value_rows = point_value_row(n, *traversal_points(n))
        scale[slots] = 1.0 / np.abs(value_rows).max(axis=1)
        V = scale[slots, None] * value_rows
        V[np.arange(slots.size), slots] -= 1.0
        B[slots] += V
        op = assemble_element_operator(pde, quad, n)
        assert np.array_equal(op.to_dense(), B)
        assert np.array_equal(op.scale, scale)
        assert op.bandwidths() == band

    def test_every_bordered_row_has_unit_sup_norm(self):
        for pde, quad, n in _band_cases():
            B = assemble_element_operator(pde, quad, n).to_dense()
            assert np.abs(np.abs(B).max(axis=1) - 1.0).max() <= 2 * np.finfo(float).eps

    def test_band_storage_factored_in_place(self):
        # kl = ku = 2: two rows of headroom, then offsets +2 down to -2
        ab = np.zeros((7, 10), order="F")
        ab[3], ab[4], ab[5] = 1.0, 4.0, -1.0  # super-, main and subdiagonal
        lu = BandedLU(ab, 2, 2)
        assert np.shares_memory(lu._lu, ab)
        b = np.arange(10.0)
        A = np.diag(np.full(10, 4.0)) + np.diag(np.ones(9), 1) - np.diag(np.ones(9), -1)
        assert np.allclose(lu.solve(b), np.linalg.solve(A, b), rtol=1e-14, atol=0)


class TestBoundaryRows:
    def test_value_row_at_corner_all_ones(self):
        assert np.array_equal(point_value_row(6, 1.0, 1.0), np.ones(36))

    def test_edge_points_run_corner_to_corner(self):
        n = 7
        t = ultra.cheb_points(n)
        E = edge_points(n)
        corners = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
        for l in range(4):
            assert np.array_equal(E[:, l, 0], corners[l])
            assert np.array_equal(E[:, l, -1], corners[(l + 1) % 4])
        # the Chebyshev points between, counted from the starting corner
        assert np.array_equal(E[0, 0], t[::-1]) and np.array_equal(E[1, 1], t[::-1])
        assert np.array_equal(E[0, 2], t) and np.array_equal(E[1, 3], t)
        # the traversal drops each edge's end corner, which the next owns
        assert np.array_equal(traversal_points(n), E[:, :, :-1].reshape(2, -1))

    def test_value_row_reproduces_tensor_basis(self):
        n, a, b = 7, 0.37, -0.81
        row = point_value_row(n, a, b)
        coeffs = np.zeros((n, n))
        coeffs[3, 2] = 1.0  # T_3(s) T_2(r)
        got = row @ coeffs.ravel(order="F")
        import math
        want = math.cos(2 * math.acos(a)) * math.cos(3 * math.acos(b))
        assert abs(got - want) < 1e-14

    def test_x_derivative_row_on_product(self):
        # d(xy)/dx = y = 0 at origin of the identity-mapped square
        n = 6
        bm = bilinear_coeffs(SQUARE)
        ux, _ = point_derivative_rows(bm, n, 0.0, 0.0)
        got = ux @ coeffs_of(lambda x, y: x * y, n)
        assert abs(got) < 1e-14

    def test_derivative_rows_against_gradient(self, rng):
        n = 9
        for _ in range(5):
            quad = Quad(random_convex_quad(rng))
            bm = bilinear_coeffs(quad)
            u = lambda x, y: x ** 2 * y - 3 * y ** 2 + x
            gx = lambda x, y: 2 * x * y + 1
            gy = lambda x, y: x ** 2 - 6 * y
            c = coeffs_of(u, n, quad)
            r, s = rng.uniform(-1, 1, size=2)
            ux, uy = point_derivative_rows(bm, n, r, s)
            x, y = bm(r, s)
            assert abs(ux @ c - gx(x, y)) < 1e-11
            assert abs(uy @ c - gy(x, y)) < 1e-11

    def test_normal_rows_on_square(self):
        n = 6
        row = _normal_rows(bilinear_coeffs(SQUARE), np.array([1.0, 0.0]), n, 1.0, 0.0)
        c = coeffs_of(lambda x, y: x * x, n)
        # outward normal at r=1 edge is +x, d(x^2)/dx = 2
        assert abs(row @ c - 2.0) < 1e-12

    def test_normal_rows_at_corners_use_edge_starting_there(self):
        # counterclockwise ownership, as in traversal_points: each corner
        # takes the outward normal of the edge that starts at it.  On the
        # all-Neumann square the pinned value takes corner (1, 1), the
        # first traversal point; the other three keep Neumann rows.
        n = 6
        mesh = QuadMesh(SQUARE.vertices, [(0, 1, 2, 3)])
        sys = assemble_schur(mesh, POISSON, n, bc={e: "neumann" for e in range(4)},
                             pin_value_point=True)
        assert sys.point_kind[0, 0] == "pin"
        op = sys.ops[0]
        slots = boundary_slots(n)[np.arange(4) * (n - 1)]
        rows = op.to_dense()[slots] / op.scale[slots, None]
        c = coeffs_of(lambda x, y: x + 2 * y, n)
        assert np.allclose(rows @ c, [3.0, -1.0, -2.0, 1.0], rtol=0, atol=1e-12)

    def test_point_arrays_match_chebvander(self, rng):
        n = 7
        quad = Quad(random_convex_quad(rng))
        bm = bilinear_coeffs(quad)
        r, s = rng.uniform(-1, 1, (2, 5))
        vr = np.polynomial.chebyshev.chebvander(r, n - 1)
        vs = np.polynomial.chebyshev.chebvander(s, n - 1)
        rows = point_value_row(n, r, s)
        assert rows.shape == (5, n * n)
        for k in range(5):
            assert np.max(np.abs(rows[k] - np.kron(vr[k], vs[k]))) < 1e-14
        # derivative rows against chebder of a random coefficient matrix
        A = rng.standard_normal((n, n))  # A[i, j] multiplies T_i(s) T_j(r)
        cheb = np.polynomial.chebyshev
        ur = cheb.chebval2d(s, r, cheb.chebder(A, axis=1))
        us = cheb.chebval2d(s, r, cheb.chebder(A, axis=0))
        det = (bm.b1 + bm.d1 * s) * (bm.c2 + bm.d2 * r) \
            - (bm.b2 + bm.d2 * s) * (bm.c1 + bm.d1 * r)
        want_x = ((bm.c2 + bm.d2 * r) * ur - (bm.b2 + bm.d2 * s) * us) / det
        want_y = (-(bm.c1 + bm.d1 * r) * ur + (bm.b1 + bm.d1 * s) * us) / det
        ux, uy = point_derivative_rows(bm, n, r, s)
        a = A.ravel(order="F")
        scale = np.abs(A).sum()
        assert np.max(np.abs(ux @ a - want_x)) < 1e-12 * scale
        assert np.max(np.abs(uy @ a - want_y)) < 1e-12 * scale
        # broadcasting a scalar coordinate against an array
        edge = point_value_row(n, 1.0, s)
        assert np.array_equal(edge, point_value_row(n, np.ones(5), s))
        assert point_value_row(n, [], []).shape == (0, n * n)
        assert _normal_rows(bm, np.zeros((0, 2)), n, [], []).shape == (0, n * n)


class TestPdeCoefficients:
    @pytest.mark.parametrize("field, value", [
        ("a11", np.nan), ("c", [[0.0, np.inf]]), ("b2", [[1.0], [-np.inf]])])
    def test_nonfinite_coefficient_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"coefficient {field} is not finite"):
            PdeCoefficients(**{field: value})

    @pytest.mark.parametrize("k2", [True, np.True_])
    def test_screening_constant_rejects_a_bool(self, k2):
        # a bool would give c = -1
        with pytest.raises(ValueError, match="not True"):
            PdeCoefficients.screened(k2)


class TestRowScaling:
    def test_zero_row_raises(self):
        # the zero operator: every interior row is zero and cannot be scaled
        with pytest.raises(SingularOperatorError):
            assemble_element_operator(PdeCoefficients(a11=0, a22=0), SQUARE, 6)

    def test_wrong_number_of_boundary_rows_raises(self):
        n = 6
        rows = point_value_row(n, *traversal_points(n))[:-1]  # 4n - 5 rows
        with pytest.raises(ValueError, match="^expected the 4n-4 boundary rows of the traversal$"):
            assemble_element_operator(POISSON, SQUARE, n, rows=rows)

    def test_zero_boundary_row_raises_naming_its_row(self):
        n = 6
        rows = point_value_row(n, *traversal_points(n))
        rows[7] = 0.0
        msg = f"row {boundary_slots(n)[7]} of the bordered operator is zero"
        with pytest.raises(SingularOperatorError, match=f"^{msg}$"):
            assemble_element_operator(POISSON, SQUARE, n, rows=rows)


class TestAlmostBanded:
    def test_dense_reconstruction(self):
        n = 6
        op = assemble_element_operator(POISSON, SQUARE, n)
        B = op.to_dense()
        # boundary slots hold the scaled boundary rows
        slots = boundary_slots(n)
        rows = np.array([point_value_row(n, r, s) for (r, s) in traversal_points(n).T])
        for t, m in enumerate(slots):
            want = op.scale[m] * rows[t]
            assert np.max(np.abs(B[m] - want)) < 1e-14
        # interior rows are the scaled operator rows at shifted slots
        L = element_interior_operator(POISSON, SQUARE, n)
        src, k = equation_rows(n), np.arange(n - 2)
        keep = (k[:, None] + 2 + n * (k[None, :] + 2)).ravel(order="F")
        Ld = L.toarray()
        for row, m in zip(src, keep):
            assert np.max(np.abs(B[m] - op.scale[m] * Ld[row])) < 1e-14

    @pytest.mark.parametrize("slot_map", [boundary_slots])
    def test_slot_maps_are_shared_read_only(self, slot_map):
        assert slot_map(7) is slot_map(7)
        with pytest.raises(ValueError, match="read-only"):
            slot_map(7)[0] = 1

    def test_unit_selector_invariant(self):
        op = assemble_element_operator(POISSON, SQUARE, 8)
        A = op.banded.toarray()
        for m in op.slots:
            row = np.zeros(64)
            row[m] = 1.0
            assert np.array_equal(A[m], row)

    def test_matvec_matches_dense(self, rng):
        op = assemble_element_operator(POISSON, SQUARE, 7)
        x = rng.standard_normal(49)
        assert np.max(np.abs(op.matvec(x) - op.to_dense() @ x)) < 1e-12

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_exactly_singular_capacitance_raises(self):
        # the dense row cancels the unit row it replaces: the capacitance
        # matrix is exactly zero, while its LU factors are finite
        with pytest.raises(SingularOperatorError, match="capacitance matrix singular"):
            AlmostBandedMatrix(sp.eye(3), [0], [[-1.0, 0.0, 0.0]], np.ones(3))

    def test_capacitance_rcond_plateau(self):
        # the capacitance's reciprocal condition estimate is flat across
        # the sliver family, as the operator's condition number is
        n = 24
        rconds = []
        for eps in (1e-3, 1e-6, 1e-9, 1e-12):
            rconds.append(assemble_element_operator(POISSON, skinny_quad(eps), n).cap_rcond)
        assert 1e-4 < min(rconds) and max(rconds) <= 1.05 * min(rconds)

    def test_nearly_singular_capacitance_raises(self):
        # no exactly zero pivot: the first dense row cancels the unit row
        # it replaces but for 2^-53, so the capacitance is diag(2^-53, 2)
        # and its reciprocal condition number 2^-54 is below machine epsilon
        with pytest.raises(SingularOperatorError, match="working precision"):
            AlmostBandedMatrix(sp.eye(3), [0, 1], [[-1.0 + 2.0 ** -53, 0.0, 0.0],
                                                   [0.0, 1.0, 0.0]], np.ones(3))

    @pytest.mark.parametrize("n", [8, 24])
    def test_built_and_bordered_operators_are_factored(self, rng, n):
        # the constructor and bordered factor the border, on either side of
        # the size rule: the capacitance estimate is there before any solve
        quad = skinny_quad(1e-3)
        op = assemble_element_operator(POISSON, quad, n)
        rows = point_value_row(n, *traversal_points(n))
        rows += 1e-3 * rng.standard_normal(rows.shape)
        assert op.cap_rcond > 0.0
        want = assemble_element_operator(POISSON, quad, n, rows=rows).cap_rcond
        assert op.bordered(rows).cap_rcond == want != op.cap_rcond


class TestWoodbury:
    def test_bordered_poisson_vs_dense(self, rng):
        n = 12
        op = assemble_element_operator(POISSON, SQUARE, n)
        b = rng.standard_normal(n * n)
        got = op.solve_raw(b)
        want = np.linalg.solve(op.to_dense(), b)
        assert np.max(np.abs(got - want)) < 1e-10 * np.abs(want).max()

    def test_residual_identity(self, rng):
        n = 10
        op = assemble_element_operator(POISSON, SQUARE, n)
        b = rng.standard_normal(n * n)
        x = op.solve_raw(b)
        r = op.matvec(x) - b
        assert np.abs(r).max() <= 1e-11 * np.abs(b).max()

    def test_repeated_rhs_much_faster_than_refactor(self, rng):
        n = 20
        reps = 40
        rhs = rng.standard_normal((n * n, reps))
        t0 = time.perf_counter()
        ops = [assemble_element_operator(POISSON, SQUARE, n) for _ in range(3)]
        for op in ops:
            op.solve_raw(rhs[:, 0])
        t_factor = (time.perf_counter() - t0) / 3
        op = ops[0]
        t0 = time.perf_counter()
        for k in range(reps):
            op.solve_raw(rhs[:, k])
        t_solve = (time.perf_counter() - t0) / reps
        assert t_solve * 10 < t_factor

    @pytest.mark.parametrize("n", [13, 14])
    def test_held_inverse_under_the_size_rule(self, n):
        # an affine Poisson element (kl = ku = 2n) meets the size rule of
        # SchurSystem's held solves while n^2 <= (6n + 1) + 2 (4n - 4),
        # that is up to n = 13; its boundary columns match the dense
        # inverse on either side of it
        op = assemble_element_operator(POISSON, SQUARE, n)
        assert op.bandwidths() == (2 * n, 2 * n)
        want = np.linalg.inv(op.to_dense())[:, op.slots]
        got = op.boundary_columns()
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [13, 14])  # either side of the size rule
    def test_physical_solve_is_raw_solve_of_scaled_rhs(self, rng, n):
        op = assemble_element_operator(POISSON, SQUARE, n)
        for b in (rng.standard_normal(n * n), rng.standard_normal((n * n, 3))):
            want = op.solve_raw(op.scale.reshape((-1,) + (1,) * (b.ndim - 1)) * b)
            assert np.array_equal(op.solve(b), want)

    def test_transpose_solve(self, rng):
        n = 9
        op = assemble_element_operator(POISSON, SQUARE, n)
        b = rng.standard_normal(n * n)
        x = op.solve_transpose(b)
        want = np.linalg.solve(op.to_dense().T, b)
        assert x.shape == b.shape
        assert np.max(np.abs(x - want)) < 1e-10 * np.abs(want).max()

    def test_transpose_solve_skinny_block(self, rng):
        n = 9
        op = assemble_element_operator(POISSON, skinny_quad(1e-6), n)
        b = rng.standard_normal((n * n, 3))
        x = op.solve_transpose(b)
        want = np.linalg.solve(op.to_dense().T, b)
        assert x.shape == b.shape
        assert np.max(np.abs(x - want)) < 1e-10 * np.abs(want).max()


def _right_hand_side(rng, nn, kind):
    """A right-hand side of the given layout: a vector, C- or F-ordered
    blocks of 3 columns or of 70 (the blocked banded solve), or every
    other column of a C-ordered block (contiguous in neither order)."""
    if kind == "vector":
        return rng.standard_normal(nn)
    if kind == "slice":
        return rng.standard_normal((nn, 10))[:, ::2]
    order, width = kind.split("-")
    return np.asarray(rng.standard_normal((nn, int(width))), order=order)


class TestRoutedProducts:
    """The BLAS products of the element solves on every operand layout,
    on a sliver at n = 8 and n = 24, and no input array modified by the
    in-place products."""

    KINDS = ["vector", "C-3", "F-3", "C-70", "F-70", "slice"]

    @staticmethod
    def _check(got, want, tol=1e-11):
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("n", [8, 24])
    @pytest.mark.parametrize("kind", KINDS)
    def test_solves_against_dense(self, rng, n, kind):
        op = assemble_element_operator(POISSON, skinny_quad(1e-3), n)
        B = op.to_dense()
        b = _right_hand_side(rng, n * n, kind)
        keep = b.copy()
        self._check(op.solve_raw(b), np.linalg.solve(B, b))
        self._check(op.solve_transpose(b), np.linalg.solve(B.T, b))
        assert np.array_equal(b, keep)

    @pytest.mark.parametrize("n", [8, 24])
    def test_boundary_columns_against_dense(self, n):
        op = assemble_element_operator(POISSON, skinny_quad(1e-3), n)
        Binv = np.linalg.inv(op.to_dense())
        self._check(op.boundary_columns(), Binv[:, op.slots])

    @pytest.mark.parametrize("n", [8, 24])
    def test_held_factors_unchanged_by_solves(self, rng, n):
        # the products write only into fresh arrays: Z, V and the
        # capacitance inverse stay as factored
        op = assemble_element_operator(POISSON, skinny_quad(1e-3), n)

        def factors():
            return [op._Z, op.V, op._cap_inv]

        held = [a.copy() for a in factors()]
        for kind in self.KINDS:
            b = _right_hand_side(rng, n * n, kind)
            for solve in (op.solve_raw, op.solve_transpose):
                solve(b)
        assert all(np.array_equal(a, c) for a, c in zip(held, factors(), strict=True))

    def test_concurrent_builds_match_serial(self, rng):
        # the capacitance inverse is formed at build time with no lock: 4
        # threads building one operator and a bordered copy at once, then
        # solving with 64 columns, each get the serial arrays bit for bit
        n = 24
        quad = skinny_quad(1e-3)
        rows = point_value_row(n, *traversal_points(n))
        rows += 1e-3 * rng.standard_normal(rows.shape)
        b = rng.standard_normal((n * n, 64))

        def build_and_solve():
            op = assemble_element_operator(POISSON, quad, n)
            return [a for o in (op, op.bordered(rows))
                    for a in (o._Z, o.V, o._cap_inv, o.solve_raw(b), o.solve_transpose(b))]

        want = build_and_solve()
        barrier = threading.Barrier(4, timeout=60)

        def together():
            barrier.wait()
            return build_and_solve()

        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(together) for _ in range(4)]
                for fut in futures:
                    got = fut.result(timeout=60)
                    assert all(np.array_equal(a, c) for a, c in zip(got, want, strict=True))
        finally:
            setswitchinterval(interval)


class TestElementSolve:
    def test_harmonic_constant(self):
        sol = solve_element_dirichlet(POISSON, SQUARE, 8,
                                      lambda x, y: 0 * x, lambda x, y: 1.0)
        want = np.zeros((8, 8))
        want[0, 0] = 1.0
        assert np.max(np.abs(sol.matrix - want)) < 1e-13

    def test_manufactured_sine(self):
        uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        f = lambda x, y: -2 * np.pi ** 2 * uex(x, y)
        sol = solve_element_dirichlet(POISSON, SQUARE, 24, f, uex)
        assert sample_error(sol, SQUARE, uex) < 1e-10

    def test_polynomial_reproduction(self, rng):
        n = 9
        for _ in range(5):
            quad = Quad(random_convex_quad(rng))
            uex = lambda x, y: x ** 3 - x * y + 2 * y ** 2 - 4
            f = lambda x, y: 6 * x + 4 + 0 * y
            sol = solve_element_dirichlet(POISSON, quad, n, f, uex)
            want = coeffs_of(uex, n, quad)
            assert np.max(np.abs(sol.data - want)) < 1e-11 * max(1, np.abs(want).max())

    def test_extreme_aspect_ratio_quad(self):
        # element 1e100 times longer than wide; harmonic bilinear solution
        L = 1e100
        quad = Quad([(0, 0), (L, 0), (L, 2), (0, 1)])
        uex = lambda x, y: (x / L) + y + (x / L) * y
        f = lambda x, y: 0 * x
        sol = solve_element_dirichlet(POISSON, quad, 10, f, uex)
        assert sample_error(sol, quad, uex) < 1e-11

    def test_screened_identity_check(self):
        # (lap - k^2) of exp(x) sin(y) with k^2 = 0 reduces to poisson
        uex = lambda x, y: np.exp(x) * np.sin(y)
        f = lambda x, y: 0 * x
        s1 = solve_element_dirichlet(POISSON, SQUARE, 16, f, uex)
        s2 = solve_element_dirichlet(PdeCoefficients.screened(0.0), SQUARE, 16, f, uex)
        assert np.max(np.abs(s1.data - s2.data)) < 1e-12

    def test_grid_forcing_matches_callable(self):
        # an n-by-n grid of forcing values on the ascending tensor grid
        n, quad = 10, skinny_quad(1e-3)
        f = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
        g = lambda x, y: x * y - y
        X, Y = grid_points(bilinear_coeffs(quad), n)
        by_grid = solve_element_dirichlet(POISSON, quad, n, f(X, Y), g)
        by_call = solve_element_dirichlet(POISSON, quad, n, f, g)
        assert np.array_equal(by_grid.data, by_call.data)

    def test_nonconvex_rejected(self):
        with pytest.raises(GeometryError):
            solve_element_dirichlet(POISSON, [(0, 0), (2, 0), (0.1, 0.1), (0, 2)],
                                    8, lambda x, y: 0 * x, lambda x, y: 0.0)


class TestConditioning:
    def test_plateau(self):
        kappas = {}
        for eps in (1e-6, 1e-9, 1e-12):
            op = assemble_element_operator(POISSON, skinny_quad(eps), 8)
            kappas[eps] = operator_condition(op)[1]
        assert abs(kappas[1e-9] - kappas[1e-12]) / kappas[1e-12] <= 1e-2
        assert abs(kappas[1e-6] - kappas[1e-12]) / kappas[1e-12] <= 2e-2

    def test_bounded_above_across_sweep(self):
        sweep = [10.0 ** -k for k in range(0, 13, 2)]
        ks = []
        for eps in sweep:
            op = assemble_element_operator(POISSON, skinny_quad(eps), 8)
            ks.append(operator_condition(op)[1])
        assert max(ks) <= 1.02 * ks[-1]

    def test_estimated_matches_dense(self, monkeypatch):
        op = assemble_element_operator(POISSON, skinny_quad(1e-3), 8)
        k1d, kid = operator_condition(op)
        monkeypatch.setattr("ultrasem.element._DENSE_CONDITION_LIMIT", 1)
        k1e, kie = operator_condition(op)
        assert abs(k1e - k1d) <= 0.5 * k1d
        assert abs(kie - kid) <= 0.5 * kid

    @pytest.mark.parametrize("n", [24, 32])
    def test_estimates_against_dense_over_cli_sweep(self, monkeypatch, n):
        # the estimates are lower bounds; kappa_inf carries the plateau
        # claim and is held to 2%, kappa_1 near eps = 0.1 can be
        # understated by about 1.25x, so it is held only to the 0.5 floor
        for eps in (1, 1e-1, 1e-2, 1e-3, 1e-6, 1e-9, 1e-12):
            op = assemble_element_operator(POISSON, skinny_quad(eps), n)
            monkeypatch.setattr("ultrasem.element._DENSE_CONDITION_LIMIT", n * n)
            exact = np.array(operator_condition(op))
            monkeypatch.setattr("ultrasem.element._DENSE_CONDITION_LIMIT", 1)
            ratio = np.array(operator_condition(op)) / exact
            assert np.all(ratio <= 1 + 1e-8), (eps, ratio)
            assert np.all(ratio >= 0.5), (eps, ratio)
            assert ratio[1] >= 0.98, (eps, ratio)

    def test_estimated_plateau_at_n48(self):
        # the benchmark's order, through the estimator: with a block of
        # two columns it stops at a row of |B^-1| holding 0.6 of the
        # largest sum for about one eps in six
        ks = []
        for eps in 10.0 ** -np.arange(9.0, 12.01, 0.5):
            op = assemble_element_operator(POISSON, skinny_quad(eps), 48)
            ks.append(operator_condition(op)[1])
        assert max(ks) <= 1.01 * min(ks)

    def test_estimate_ignores_global_rng(self, monkeypatch):
        op = assemble_element_operator(POISSON, skinny_quad(1e-6), 24)
        monkeypatch.setattr("ultrasem.element._DENSE_CONDITION_LIMIT", 1)
        got = []
        for seed in (0, 5):
            np.random.seed(seed)
            got.append(operator_condition(op))
        assert got[0] == got[1]

    def test_estimate_solves_few_columns(self, monkeypatch):
        # the estimate on a factored operator solves a few blocks of
        # right-hand sides, never one as wide as the border
        from ultrasem.element import _NORMEST_BLOCK

        n = 24
        op = assemble_element_operator(POISSON, skinny_quad(1e-6), n)
        op.solve_raw(np.zeros(op.nn))
        widths = []
        solve = BandedLU.solve

        def counted(self, b, transpose=False):
            widths.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
            return solve(self, b, transpose)

        monkeypatch.setattr(BandedLU, "solve", counted)
        monkeypatch.setattr("ultrasem.element._DENSE_CONDITION_LIMIT", 1)
        operator_condition(op)
        assert widths
        assert max(widths) <= _NORMEST_BLOCK
        assert sum(widths) < 4 * n - 4


def _min_containment_radius(quad):
    from ultrasem.mesh import _circumradius

    return _circumradius(quad.vertices)


class TestPerturbationBounds:
    def test_dirichlet_perturbation_bound(self, rng):
        # screened solves: interior change bounded by boundary change
        n = 14
        pde = PdeCoefficients.screened(1.0)
        for trial in range(20):
            quad = Quad(random_convex_quad(rng, scale=1 + trial % 3))
            g = lambda x, y: np.cos(1.3 * x + 0.4 * y)
            f = lambda x, y: np.sin(0.7 * x) + 0 * y
            amp = 10.0 ** -(trial % 3 + 1)
            epsfn = lambda x, y: amp * np.cos(3 * x + y)
            u = solve_element_dirichlet(pde, quad, n, f, g)
            v = solve_element_dirichlet(pde, quad, n, f,
                                        lambda x, y: g(x, y) + epsfn(x, y))
            t = np.linspace(-1, 1, 32)[1:-1]  # interior sample points
            R, S = np.meshgrid(t, t)
            diff = np.max(np.abs(v.eval(R, S) - u.eval(R, S)))
            # sup of the perturbation over the element boundary
            bm = bilinear_coeffs(quad)
            tt = np.linspace(-1, 1, 2001)
            sup = 0.0
            for (rr, ss) in [(tt, np.ones_like(tt)), (tt, -np.ones_like(tt)),
                             (np.ones_like(tt), tt), (-np.ones_like(tt), tt)]:
                X, Y = bm(rr, ss)
                sup = max(sup, np.abs(epsfn(X, Y)).max())
            assert diff <= sup * (1 + 1e-8)

    def test_rhs_perturbation_bound(self, rng):
        n = 14
        pde = PdeCoefficients.screened(2.0)
        for trial in range(20):
            scale = 0.5 + (trial % 4)
            quad = Quad(random_convex_quad(rng, scale=scale))
            r_out = _min_containment_radius(quad)
            g = lambda x, y: 0.1 * x + 0 * y
            f = lambda x, y: np.cos(x) * np.sin(y)
            amp = 1.0
            epsfn = lambda x, y: amp * np.cos(2 * x - y)
            u = solve_element_dirichlet(pde, quad, n, f, g)
            s = solve_element_dirichlet(pde, quad, n,
                                        lambda x, y: f(x, y) + epsfn(x, y), g)
            t = np.linspace(-1, 1, 30)
            R, S = np.meshgrid(t, t)
            diff = np.max(np.abs(s.eval(R, S) - u.eval(R, S)))
            assert diff <= amp * r_out ** 2 / 4 * (1 + 1e-6)
