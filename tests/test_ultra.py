import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy.special import eval_gegenbauer, roots_gegenbauer

from ultrasem import ultra


def exact_diff_entry(lam, k):
    return float(Fraction(2) ** (lam - 1) * math.factorial(lam - 1) * (lam + k))


class TestDiffOperator:
    def test_entries_match_formula_exactly(self):
        for lam in (1, 2, 3):
            for n in range(lam + 1, 9):
                D = ultra.diff_operator(lam, n).toarray()
                for i in range(n):
                    for j in range(n):
                        want = exact_diff_entry(lam, i) if j == i + lam else 0.0
                        assert D[i, j] == want

    def test_first_order_example(self):
        D = ultra.diff_operator(1, 4).toarray()
        assert np.array_equal(np.diag(D, 1), [1.0, 2.0, 3.0])

    def test_second_order_example(self):
        D = ultra.diff_operator(2, 5).toarray()
        assert np.array_equal(np.diag(D, 2), [4.0, 6.0, 8.0])

    def test_constant_maps_to_zero(self):
        e0 = np.zeros(6)
        e0[0] = 1.0
        assert np.array_equal(ultra.diff_operator(1, 6) @ e0, np.zeros(6))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ultra.diff_operator(0, 5)
        with pytest.raises(ValueError):
            ultra.diff_operator(3, 3)

    def test_single_diagonal_sparsity(self):
        for lam in (1, 2):
            D = ultra.diff_operator(lam, 12)
            assert D.nnz <= 12
            coo = D.tocoo()
            assert np.all(coo.col - coo.row == lam)


class TestConversionOperator:
    def test_chebyshev_to_first_parameter(self):
        S = ultra.conversion_operator(0, 4).toarray()
        assert np.array_equal(np.diag(S), [1.0, 0.5, 0.5, 0.5])
        assert np.array_equal(np.diag(S, 2), [-0.5, -0.5])

    def test_parameter_one_example(self):
        S = ultra.conversion_operator(1, 5).toarray()
        want_main = [float(Fraction(1, 1 + k)) for k in range(5)]
        want_up = [float(Fraction(-1, 3 + k)) for k in range(3)]
        assert np.array_equal(np.diag(S), want_main)
        assert np.array_equal(np.diag(S, 2), want_up)

    def test_constant_unchanged(self):
        e0 = np.zeros(5)
        e0[0] = 1.0
        assert np.array_equal(ultra.conversion_operator(0, 5) @ e0, e0)

    def test_two_diagonals_only(self):
        for lam in (0, 1, 2):
            S = ultra.conversion_operator(lam, 15)
            assert S.nnz <= 2 * 15
            coo = S.tocoo()
            assert set(np.unique(coo.col - coo.row)) <= {0, 2}


def sympy_ultra_coeffs(poly, lam, n):
    """Exact parameter-lam coefficients of a sympy polynomial, via a
    rational solve against sympy's Gegenbauer polynomials."""
    x = sympy.Symbol("x")
    basis = [sympy.chebyshevt(k, x) if lam == 0 else sympy.gegenbauer(k, lam, x)
             for k in range(n)]
    A = sympy.zeros(n, n)
    for j, b in enumerate(basis):
        p = sympy.Poly(b, x)
        for mono, coeff in zip(p.monoms(), p.coeffs()):
            A[mono[0], j] = coeff
    rhs = sympy.zeros(n, 1)
    p = sympy.Poly(poly, x)
    for mono, coeff in zip(p.monoms(), p.coeffs()):
        rhs[mono[0]] = coeff
    sol = A.solve(rhs)
    return np.array([float(v) for v in sol]).ravel()


class TestDerivativeExactness:
    def test_symbolic_low_degree(self):
        x = sympy.Symbol("x")
        n = 8
        for lam in (1, 2):
            for deg in range(lam, 7):
                p = sum((i + 1) * sympy.chebyshevt(i, x) for i in range(deg + 1))
                cheb = np.zeros(n)
                cheb[: deg + 1] = np.arange(1, deg + 2)
                got = ultra.diff_operator(lam, n) @ cheb
                want = sympy_ultra_coeffs(sympy.diff(p, x, lam), lam, n)
                assert np.max(np.abs(got - want)) < 5e-13

    def test_numeric_high_degree(self):
        rng = np.random.default_rng(5)
        n = 32
        c = rng.standard_normal(n)
        for lam in (1, 2):
            # oracle: differentiate in Chebyshev space, then convert bases
            dc = c.copy()
            for _ in range(lam):
                dc = np.append(np.polynomial.chebyshev.chebder(dc), 0.0)
            want = ultra.cheb_to_ultra(lam, n) @ dc
            got = ultra.diff_operator(lam, n) @ c
            assert np.max(np.abs(got - want)) < 1e-13 * max(1, np.abs(want).max())

    def test_conversion_against_direct_evaluation(self):
        rng = np.random.default_rng(6)
        n = 20
        c = rng.standard_normal(n)
        xs = np.linspace(-1, 1, 31)
        direct = np.polynomial.chebyshev.chebval(xs, c)
        for lam in (1, 2):
            cu = ultra.cheb_to_ultra(lam, n) @ c
            vals = sum(cu[k] * eval_gegenbauer(k, lam, xs) for k in range(n))
            assert np.max(np.abs(vals - direct)) < 1e-13 * np.abs(direct).max()


class TestChebPoints:
    def test_small_cases(self):
        assert np.array_equal(ultra.cheb_points(2), [-1.0, 1.0])
        assert np.array_equal(ultra.cheb_points(3), [-1.0, 0.0, 1.0])
        got = ultra.cheb_points(5)
        want = [-1.0, -math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2, 1.0]
        assert np.max(np.abs(got - want)) < 1e-15

    def test_invariants(self):
        for n in (2, 5, 8, 33):
            p = ultra.cheb_points(n)
            assert p[0] == -1.0 and p[-1] == 1.0
            assert np.array_equal(p, -p[::-1])
            assert np.all(np.diff(p) > 0)
            j = np.arange(n)
            assert np.max(np.abs(p - np.cos(np.pi * (n - 1 - j) / (n - 1)))) < 1e-15

    def test_too_small(self):
        with pytest.raises(ValueError):
            ultra.cheb_points(1)


class TestTransforms:
    def test_constant(self):
        c = ultra.vals_to_coeffs_2d(np.full((7, 5), 3.25))
        want = np.zeros((7, 5))
        want[0, 0] = 3.25
        assert np.max(np.abs(c - want)) < 1e-15

    def test_basis_reproduction(self):
        # T_2(s) T_1(r) and T_0(s) T_2(r)
        for n in (3, 6, 11):
            t = ultra.cheb_points(n)
            R, S = np.meshgrid(t, t)
            for i, j in ((2, 1), (0, 2)):
                want = np.zeros((n, n))
                want[i, j] = 1.0
                c = ultra.vals_to_coeffs_2d(np.polynomial.chebyshev.chebval2d(S, R, want))
                assert np.max(np.abs(c - want)) < 1e-14

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=9),
           st.integers())
    def test_round_trip(self, n, m, seed):
        v = np.random.default_rng(abs(seed) % 2 ** 32).standard_normal((m, n))
        back = ultra.coeffs_to_vals_2d(ultra.vals_to_coeffs_2d(v))
        assert np.max(np.abs(back - v)) < 1e-13 * max(1.0, np.abs(v).max())

    def test_round_trip_n33(self):
        v = np.random.default_rng(7).standard_normal((2, 33, 33))
        back = ultra.coeffs_to_vals_2d(ultra.vals_to_coeffs_2d(v))
        assert np.max(np.abs(back - v)) < 1e-13 * np.abs(v).max()

    def test_2d_round_trip_and_values(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((9, 9))
        V = ultra.coeffs_to_vals_2d(A)
        t = ultra.cheb_points(9)
        R, S = np.meshgrid(t, t)
        direct = np.polynomial.chebyshev.chebval2d(S, R, A)
        assert np.max(np.abs(V - direct)) < 1e-13
        assert np.max(np.abs(ultra.vals_to_coeffs_2d(V) - A)) < 1e-13

    @pytest.mark.parametrize("n", [2, 65, 129])
    def test_round_trip_and_constant_at_extreme_sizes(self, n):
        v = np.random.default_rng(n).standard_normal((2, n, n))
        back = ultra.coeffs_to_vals_2d(ultra.vals_to_coeffs_2d(v))
        assert np.max(np.abs(back - v)) < 1e-13 * np.abs(v).max()
        want = np.zeros((n, n))
        want[0, 0] = 3.25
        c = ultra.vals_to_coeffs_2d(np.full((n, n), 3.25))
        assert np.max(np.abs(c - want)) < 1e-15

    @pytest.mark.parametrize("shape", [(4, 7, 3), (2, 3, 1, 9), (5, 1, 2)])
    def test_non_square_stacks(self, shape):
        # each grid of a stack transforms alone, a length-1 axis holds its
        # constant, and the round trip restores the values
        v = np.random.default_rng(len(shape)).standard_normal(shape)
        c = ultra.vals_to_coeffs_2d(v)
        assert c.shape == v.shape
        t_s, t_r = (ultra.cheb_points(m) if m > 1 else np.zeros(1) for m in shape[-2:])
        R, S = np.meshgrid(t_r, t_s)
        for idx in np.ndindex(shape[:-2]):
            direct = np.polynomial.chebyshev.chebval2d(S, R, c[idx])
            assert np.max(np.abs(direct - v[idx])) < 1e-13
        assert np.max(np.abs(ultra.coeffs_to_vals_2d(c) - v)) < 1e-13

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            ultra.vals_to_coeffs_2d(np.zeros(5))
        with pytest.raises(ValueError):
            ultra.coeffs_to_vals_2d(np.zeros(5))


class TestEvalRows:
    def test_right_endpoint_all_ones(self):
        assert np.array_equal(ultra.eval_row(1.0, 5), np.ones(5))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=2, max_value=30), st.integers())
    def test_endpoint_sums(self, n, seed):
        c = np.random.default_rng(abs(seed) % 2 ** 32).standard_normal(n)
        signs = (-1.0) ** np.arange(n)
        assert abs(ultra.eval_row(1.0, n) @ c - c.sum()) < 1e-12 * max(1, np.abs(c).max() * n)
        assert abs(ultra.eval_row(-1.0, n) @ c - signs @ c) < 1e-12 * max(1, np.abs(c).max() * n)

    def test_derivative_of_cubic_at_zero(self):
        # T3 = 4x^3 - 3x, derivative at 0 is -3
        c = np.zeros(6)
        c[3] = 1.0
        assert abs(ultra.deriv_eval_row(0.0, 6) @ c + 3.0) < 1e-14

    def test_derivative_of_constant(self):
        c = np.zeros(5)
        c[0] = 4.0
        assert ultra.deriv_eval_row(0.3, 5) @ c == 0.0

    def test_derivative_row_matches_chebder(self):
        rng = np.random.default_rng(9)
        c = rng.standard_normal(12)
        dc = np.polynomial.chebyshev.chebder(c)
        for x in (-1.0, -0.42, 0.0, 0.9, 1.0):
            want = np.polynomial.chebyshev.chebval(x, dc)
            assert abs(ultra.deriv_eval_row(x, 12) @ c - want) < 1e-11

    def test_domain_check(self):
        with pytest.raises(ValueError):
            ultra.eval_row(1.5, 4)
        with pytest.raises(ValueError):
            ultra.deriv_eval_row(-2.0, 4)

    def test_point_arrays_match_chebvander(self):
        x = np.array([-1.0, -0.7, 0.0, 0.31, 1.0])
        n = 9
        assert ultra.eval_row(x, n).shape == (5, n)
        assert np.max(np.abs(ultra.eval_row(x, n)
                             - np.polynomial.chebyshev.chebvander(x, n - 1))) < 1e-14
        # derivative rows: vander of the derivative times chebder's matrix
        D = np.polynomial.chebyshev.chebder(np.eye(n))
        want = np.polynomial.chebyshev.chebvander(x, n - 2) @ D
        assert np.max(np.abs(ultra.deriv_eval_row(x, n) - want)) < 1e-12
        grid = x.reshape(1, 5) * np.ones((2, 1))
        assert ultra.deriv_eval_row(grid, n).shape == (2, 5, n)
        assert np.array_equal(ultra.deriv_eval_row(grid, n)[1], ultra.deriv_eval_row(x, n))

    def test_domain_check_on_every_point(self):
        for bad in ([0.0, 0.5, 1.0 + 1e-12], [-1.5, 0.0]):
            with pytest.raises(ValueError):
                ultra.eval_row(np.array(bad), 4)
            with pytest.raises(ValueError):
                ultra.deriv_eval_row(np.array(bad), 4)

    def test_stacked_2d_transforms(self):
        rng = np.random.default_rng(4)
        V = rng.standard_normal((3, 2, 6, 6))
        C = ultra.vals_to_coeffs_2d(V)
        assert C.shape == V.shape
        for idx in np.ndindex(3, 2):
            assert np.max(np.abs(C[idx] - ultra.vals_to_coeffs_2d(V[idx]))) < 1e-14
        assert np.max(np.abs(ultra.coeffs_to_vals_2d(C) - V)) < 1e-13


class TestMultOperator:
    def test_identity(self):
        for lam in (0, 1, 2):
            M = ultra.mult_operator([1.0], lam, 6).toarray()
            assert np.array_equal(M, np.eye(6))

    def test_multiply_by_x_chebyshev(self):
        M = ultra.mult_operator([0.0, 1.0], 0, 4).toarray()
        e1 = np.zeros(4)
        e1[1] = 1.0
        want = np.zeros(4)
        want[0] = want[2] = 0.5
        assert np.max(np.abs(M @ e1 - want)) < 1e-15
        # full sanity via sympy re-projection of x * T1
        x = sympy.Symbol("x")
        coeffs = sympy_ultra_coeffs(sympy.expand(x * sympy.chebyshevt(1, x)), 0, 4)
        assert np.max(np.abs(M @ e1 - coeffs)) < 1e-15

    def test_quadrature_projection_oracle(self):
        # f = x^2 acting on parameter-2 coefficients, column by column
        n, lam = 9, 2
        fcheb = np.array([0.5, 0.0, 0.5])  # x^2 = (T0 + T2)/2
        M = ultra.mult_operator(fcheb, lam, n).toarray()
        xs, ws = roots_gegenbauer(40, lam)
        fx = xs ** 2
        norms = np.array([np.sum(ws * eval_gegenbauer(j, lam, xs) ** 2)
                          for j in range(n)])
        for k in range(n - 2):
            col = np.array([np.sum(ws * fx * eval_gegenbauer(k, lam, xs)
                                   * eval_gegenbauer(j, lam, xs)) / norms[j]
                            for j in range(n)])
            assert np.max(np.abs(M[:, k] - col)) < 1e-13

    def test_bandwidth_bound(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal(4)  # degree 3
        for lam in (0, 1, 2):
            M = ultra.mult_operator(f, lam, 12).tocoo()
            assert np.max(np.abs(M.row - M.col)) <= 3

    def test_exact_on_low_degree_operands(self):
        # multiply a random degree-7 polynomial by x^2 - x/2 in Chebyshev space
        rng = np.random.default_rng(11)
        n = 12
        u = np.zeros(n)
        u[:8] = rng.standard_normal(8)
        f = np.array([0.5, -0.5, 0.5])
        M = ultra.mult_operator(f, 0, n)
        got = M @ u
        prod = np.polynomial.chebyshev.chebmul(f, u)
        want = np.zeros(n)
        want[: prod.size] = prod[:n]
        assert np.max(np.abs(got - want)) < 1e-13

    def test_degree_too_large(self):
        with pytest.raises(ValueError):
            ultra.mult_operator(np.ones(8), 0, 6)
        with pytest.raises(ValueError):
            ultra.mult_operator([1.0], 3, 6)
