"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured quantities (run with ``pytest -s`` to see them all)."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ultrasem import ultra
from ultrasem.cli import cond_bench, skinny_quad
from ultrasem.element import (
    PdeCoefficients,
    assemble_element_operator,
    operator_condition,
)
from ultrasem.mesh import (
    QuadMesh,
    grid_mesh,
    interface_bandwidth,
    order_interfaces,
    quality,
    split_triangle,
)
from ultrasem.navierstokes import (
    FlowState,
    NsConfig,
    TunnelSolver,
    classify_tunnel_boundary,
    tunnel_mesh,
)
from ultrasem.quadmap import Quad, bilinear_coeffs, det_polynomial
from ultrasem.schur import assemble_schur, solve_element_dirichlet

from conftest import edge_point, eval_on_grid, random_convex_quad, skinny_pair_mesh

POISSON = PdeCoefficients.poisson()
# the skinny family's degeneracy parameters in the perturbation bounds
SLIVER_EPS = (1e-3, 1e-6, 1e-9, 1e-12)


def report(num, text):
    print(f"\nACCEPTANCE {num:2d} PASS: {text}")


class TestAcceptance:
    def test_01_operator_exactness(self):
        t0 = time.perf_counter()
        for lam in (1, 2, 3):
            scale = Fraction(2) ** (lam - 1) * math.factorial(lam - 1)
            for n in range(max(3, lam + 1), 9):
                D = ultra.diff_operator(lam, n).toarray()
                for i in range(n):
                    for j in range(n):
                        want = float(scale * (lam + i)) if j == i + lam else 0.0
                        assert D[i, j] == want
        for lam in (0, 1, 2, 3):
            for n in range(3, 9):
                S = ultra.conversion_operator(lam, n).toarray()
                for i in range(n):
                    for j in range(n):
                        if j == i:
                            want = (1.0 if i == 0 else 0.5) if lam == 0 \
                                else float(Fraction(lam, lam + i))
                        elif j == i + 2:
                            want = -0.5 if lam == 0 \
                                else float(Fraction(-lam, lam + i + 2))
                        else:
                            want = 0.0
                        assert S[i, j] == want
        dt = time.perf_counter() - t0
        assert dt < 1.0
        report(1, f"differentiation/conversion entries exact, {dt:.2f}s")

    def test_02_median_split_determinant_identity(self, rng):
        t0 = time.perf_counter()
        checked = 0
        while checked < 100:
            tri = rng.uniform(-2, 2, size=(3, 2))
            d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
            area2 = d1[0] * d2[1] - d1[1] * d2[0]
            if area2 < 0:
                tri = tri[::-1]
                area2 = -area2
            if area2 < 0.05:
                continue
            A = 0.5 * area2
            for quad in split_triangle(*tri):
                d = det_polynomial(bilinear_coeffs(quad))
                assert abs(d.const - 4 * A / 48) <= 1e-13 * abs(A)
                assert abs(d.dr - A / 48) <= 1e-13 * abs(A)
                assert abs(d.ds - A / 48) <= 1e-13 * abs(A)
            checked += 1
        dt = time.perf_counter() - t0
        assert dt < 1.0
        report(2, f"det(r,s) = A(4+r+s)/48 on 300 median-split quads, {dt:.2f}s")

    def test_03_conditioning_plateau(self):
        t0 = time.perf_counter()
        sweep = [1.0, 1e-1, 1e-2, 1e-3, 1e-6, 1e-9, 1e-12]
        lines = []
        for n in (8, 16, 48):
            kappas = {}
            for eps in sweep:
                op = assemble_element_operator(POISSON, skinny_quad(eps), n)
                kappas[eps] = operator_condition(op)[1]
            drift = abs(kappas[1e-9] - kappas[1e-12]) / kappas[1e-12]
            assert drift <= 0.01
            assert max(kappas.values()) <= 1.02 * kappas[1e-12]
            lines.append(f"n={n}: kappa_inf plateau {kappas[1e-12]:.4e} "
                         f"(drift {drift:.1e})")
        dt = time.perf_counter() - t0
        assert dt < 30.0
        report(3, "; ".join(lines) + f", {dt:.1f}s")

    def test_04_single_element_extreme_aspect(self):
        t0 = time.perf_counter()
        quad = skinny_quad(1e-6)  # aspect ratio ~ 1e6
        q = quality(QuadMesh(quad.vertices, [(0, 1, 2, 3)]))
        assert q.skinniness[0] < 1e-5
        uex = lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y) + x * y
        fex = lambda x, y: -2 * np.pi ** 2 * np.sin(np.pi * x) * np.cos(np.pi * y)
        sol = solve_element_dirichlet(POISSON, quad, 24, fex, uex)
        t = np.linspace(-1, 1, 40)
        R, S = np.meshgrid(t, t)
        bm = bilinear_coeffs(quad)
        X, Y = bm(R, S)
        err = np.max(np.abs(sol.eval(R, S) - uex(X, Y)))
        assert err <= 1e-9
        dt = time.perf_counter() - t0
        assert dt < 5.0
        report(4, f"aspect-1e6 element, n=24, max error {err:.2e}, {dt:.1f}s")

    def test_05_two_element_skinny_mesh(self):
        t0 = time.perf_counter()
        mesh = skinny_pair_mesh(1e-6)
        uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        fex = lambda x, y: -2 * np.pi ** 2 * uex(x, y)
        sys = assemble_schur(mesh, POISSON, 20)
        sols = sys.solve(f=fex, dirichlet=uex)
        err = eval_on_grid(sys, sols, uex, m=40)
        assert err <= 1e-9
        # interface jump at 50 points along the shared edge
        e = mesh.interior_edges[0]
        traces = []
        for f, l in zip(*np.nonzero(mesh.quad_edge == e)):
            traces.append(sols[f].eval(*edge_point(l, mesh.quad_edge_aligned[f, l],
                                                   np.linspace(-1, 1, 50))))
        jump = np.max(np.abs(traces[0] - traces[1]))
        assert jump <= 1e-10
        dt = time.perf_counter() - t0
        assert dt < 10.0
        report(5, f"square+sliver eps=1e-6, n=20: error {err:.2e}, "
                  f"interface jump {jump:.2e}, {dt:.1f}s")

    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_05_two_element_skinny_mesh_extreme_eps(self, eps):
        # three sides of these slivers are parallel in floating point, so
        # one tangent-circle system of the inradius is exactly singular
        t0 = time.perf_counter()
        mesh = skinny_pair_mesh(eps)
        uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        fex = lambda x, y: -2 * np.pi ** 2 * uex(x, y)
        sys = assemble_schur(mesh, POISSON, 20)
        sols = sys.solve(f=fex, dirichlet=uex)
        err = eval_on_grid(sys, sols, uex, m=40)
        assert err <= 1e-9
        e = mesh.interior_edges[0]
        traces = [sols[f].eval(*edge_point(l, mesh.quad_edge_aligned[f, l],
                                           np.linspace(-1, 1, 50)))
                  for f, l in zip(*np.nonzero(mesh.quad_edge == e))]
        jump = np.max(np.abs(traces[0] - traces[1]))
        assert jump <= 1e-10
        dt = time.perf_counter() - t0
        assert dt < 10.0
        report(5, f"square+sliver eps={eps:g}, n=20: error {err:.2e}, "
                  f"interface jump {jump:.2e}, {dt:.1f}s")

    def test_06_schur_vs_dense_oracle(self):
        t0 = time.perf_counter()
        uex = lambda x, y: np.cos(x) * np.exp(0.2 * y) + x
        fex = lambda x, y: (0.04 - 1.0) * np.cos(x) * np.exp(0.2 * y)
        worst = 0.0
        meshes = [QuadMesh([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)],
                             [(0, 1, 4, 3), (1, 2, 5, 4)]),
                  grid_mesh(2, 2), grid_mesh(4, 1), grid_mesh(3, 1)]
        for mesh in meshes:
            for n in (8, 10):
                sys = assemble_schur(mesh, POISSON, n)
                a = sys.solve(f=fex, dirichlet=uex)
                b = sys.solve_dense(f=fex, dirichlet=uex)
                scale = max(np.abs(x.data).max() for x in a)
                diff = max(np.max(np.abs(x.data - y.data))
                           for x, y in zip(a, b))
                worst = max(worst, diff / scale)
        assert worst <= 1e-9
        dt = time.perf_counter() - t0
        assert dt < 10.0
        report(6, f"Schur vs dense monolithic on 4 meshes: rel diff "
                  f"{worst:.2e}, {dt:.1f}s")

    def test_07_woodbury_vs_dense_and_speed(self, rng):
        t0 = time.perf_counter()
        worst = 0.0
        for n in (8, 10, 12):
            op = assemble_element_operator(POISSON, skinny_quad(1e-3), n)
            b = rng.standard_normal(n * n)
            x = op.solve_raw(b)
            want = np.linalg.solve(op.to_dense(), b)
            worst = max(worst, np.max(np.abs(x - want)) / np.abs(want).max())
        assert worst <= 1e-10
        # repeated right-hand sides reuse the factorization
        n, reps = 16, 50
        rhs = rng.standard_normal((n * n, reps))
        t1 = time.perf_counter()
        ops = [assemble_element_operator(POISSON, skinny_quad(1e-3), n)
               for _ in range(3)]
        for op in ops:
            op.solve_raw(rhs[:, 0])
        t_factor = (time.perf_counter() - t1) / 3
        op = ops[0]
        t1 = time.perf_counter()
        for k in range(reps):
            op.solve_raw(rhs[:, k])
        t_per_solve = (time.perf_counter() - t1) / reps
        assert t_per_solve * 10 < t_factor
        dt = time.perf_counter() - t0
        assert dt < 10.0
        report(7, f"Woodbury vs dense rel {worst:.2e}; back-substitution "
                  f"{t_factor / t_per_solve:.0f}x faster than factorization, "
                  f"{dt:.1f}s")

    def test_08_dirichlet_perturbation_bound(self, rng):
        pde = PdeCoefficients.screened(1.0)
        n = 14
        ratios = []
        # 20 random quads, then the skinny family down to eps = 1e-12
        quads = ([Quad(random_convex_quad(rng, scale=0.5 + (trial % 4))) for trial in range(20)]
                 + [skinny_quad(eps) for eps in SLIVER_EPS])
        for trial, quad in enumerate(quads):
            g = lambda x, y: np.cos(1.1 * x - 0.3 * y)
            f = lambda x, y: np.sin(0.5 * x + 0.2 * y)
            amp = 10.0 ** -(trial % 4)
            epsfn = lambda x, y: amp * np.cos(2.5 * x + 1.5 * y)
            u = solve_element_dirichlet(pde, quad, n, f, g)
            v = solve_element_dirichlet(pde, quad, n, f,
                                        lambda x, y: g(x, y) + epsfn(x, y))
            t = np.linspace(-1, 1, 30)[1:-1]
            R, S = np.meshgrid(t, t)
            diff = np.max(np.abs(v.eval(R, S) - u.eval(R, S)))
            bm = bilinear_coeffs(quad)
            tt = np.linspace(-1, 1, 2001)
            sup = 0.0
            for rr, ss in [(tt, np.ones_like(tt)), (tt, -np.ones_like(tt)),
                           (np.ones_like(tt), tt), (-np.ones_like(tt), tt)]:
                X, Y = bm(rr, ss)
                sup = max(sup, np.abs(epsfn(X, Y)).max())
            assert diff <= sup * (1 + 1e-8)
            ratios.append(diff / sup)
        report(8, f"boundary perturbations never amplified: worst "
                  f"max|v-u|/max|eps| = {max(ratios):.7f} over 20 problems and "
                  f"{len(SLIVER_EPS)} slivers (eps {SLIVER_EPS[0]:g} to {SLIVER_EPS[-1]:g}: "
                  + ", ".join(f"{x:.7f}" for x in ratios[20:]) + ")")

    def test_09_rhs_perturbation_bound(self, rng):
        from ultrasem.mesh import _circumradius

        pde = PdeCoefficients.screened(2.0)
        n = 14
        ratios = []
        # 20 random quads, then the skinny family down to eps = 1e-12
        quads = ([Quad(random_convex_quad(rng, scale=0.4 + 0.7 * (trial % 5)))
                  for trial in range(20)]
                 + [skinny_quad(eps) for eps in SLIVER_EPS])
        for quad in quads:
            r_out = _circumradius(quad.vertices)
            g = lambda x, y: 0.2 * x - 0.1 * y
            f = lambda x, y: np.cos(x) * np.sin(y)
            epsfn = lambda x, y: np.cos(1.7 * x - 0.6 * y)
            u = solve_element_dirichlet(pde, quad, n, f, g)
            s = solve_element_dirichlet(
                pde, quad, n, lambda x, y: f(x, y) + epsfn(x, y), g)
            t = np.linspace(-1, 1, 30)
            R, S = np.meshgrid(t, t)
            diff = np.max(np.abs(s.eval(R, S) - u.eval(R, S)))
            bound = r_out ** 2 / 4  # max|eps| = 1
            assert diff <= bound * (1 + 1e-6)
            ratios.append(diff / bound)
        # a sliver's width w bounds the forcing's effect by about w^2, which
        # at eps <= 1e-9 lies below the rounding of u: the solutions are equal
        report(9, f"forcing perturbations bounded by r^2/4: worst "
                  f"ratio {max(ratios):.4f} over 20 elements and "
                  f"{len(SLIVER_EPS)} slivers (eps {SLIVER_EPS[0]:g} to {SLIVER_EPS[-1]:g}: "
                  + ", ".join(f"{x:.2g}" for x in ratios[20:]) + ")")

    def test_10_navier_stokes_properties(self):
        t0 = time.perf_counter()
        dt_step = 1.667e-5
        # (a) obstacle tunnel: 200 steps, finite fields, no-slip residual
        mesh = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=(1, 1))
        cfg = NsConfig(dt=dt_step)
        solver = TunnelSolver(mesh, 8, cfg,
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        st = FlowState.rest(mesh, 8)
        worst_noslip = 0.0
        for _ in range(200):
            st = solver.time_step(st)
            worst_noslip = max(worst_noslip, solver.last_no_slip)
        assert st.finite()
        assert worst_noslip <= 1e-8
        # (b) projection identity where discretization is clean: straight
        # channel, uniform inflow
        mesh2 = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=None)
        solver2 = TunnelSolver(mesh2, 8, cfg,
                               classify_tunnel_boundary(mesh2, (0.6, 0.0)))
        st2 = FlowState.rest(mesh2, 8)
        for _ in range(200):
            st2 = solver2.time_step(st2)
        div = solver2.divergence_values(st2.u, st2.v)
        div_rel = max(np.abs(d[1:-1, 1:-1]).max() for d in div) / st2.max_speed()
        assert div_rel <= 1e-6
        # (c) zero-input fixed point stays exactly at rest
        solver0 = TunnelSolver(mesh, 8, cfg,
                               classify_tunnel_boundary(mesh, (0.0, 0.0)))
        st0 = FlowState.rest(mesh, 8)
        for _ in range(100):
            st0 = solver0.time_step(st0)
        rest_norm = max(st0.max_speed(),
                        max(np.abs(p.data).max() for p in st0.p))
        assert rest_norm <= 1e-12
        dt = time.perf_counter() - t0
        assert dt < 120.0
        report(10, f"200-step runs at dt=1.667e-5: finite fields, no-slip "
                   f"{worst_noslip:.1e}, divergence {div_rel:.1e} rel, "
                   f"rest state {rest_norm:.1e}, {dt:.0f}s")

    def test_11_interface_ordering_bandwidth(self):
        # exhaustive optimum for 2x2; certified optimum for 3x3
        mesh = grid_mesh(2, 2)
        pos = order_interfaces(mesh)
        got = interface_bandwidth(mesh, pos)
        best = min(interface_bandwidth(mesh, np.array(p))
                   for p in itertools.permutations(range(4)))
        assert got == best
        mesh3 = grid_mesh(3, 3)
        pos3 = order_interfaces(mesh3)
        got3 = interface_bandwidth(mesh3, pos3)
        from test_mesh import _certified_min_bandwidth

        assert got3 == _certified_min_bandwidth(mesh3, upper=got3 + 1)
        mesh10 = grid_mesh(10, 10)
        bw = interface_bandwidth(mesh10, order_interfaces(mesh10))
        assert bw <= 4 * 10
        report(11, f"interface ordering optimal at 2x2 (={got}) and 3x3 "
                   f"(={got3}); 10x10 bandwidth {bw} <= 40")
