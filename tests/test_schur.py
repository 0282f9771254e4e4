import gc
import re
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ultrasem.cli import _general_pde
from ultrasem._linalg import BandedLU
from ultrasem.element import (
    PdeCoefficients,
    assemble_element_operator,
    boundary_slots,
    element_rhs_operator,
    point_derivative_rows,
    point_value_row,
    traversal_points,
)
from ultrasem import element, schur
from ultrasem.errors import BookkeepingError, GeometryError, SingularOperatorError
from ultrasem.mesh import build_mesh, grid_mesh
from ultrasem.navierstokes import (
    FlowState,
    NsConfig,
    TunnelSolver,
    classify_tunnel_boundary,
    tunnel_mesh,
)
from ultrasem.quadmap import bilinear_coeffs, outward_normals
from ultrasem.schur import _row_groups, assemble_schur
from ultrasem.ultra import cheb_points, vals_to_coeffs_2d

from conftest import (
    PROPERTIES,
    VARCOEF,
    edge_point,
    eval_on_grid,
    jiggled_grid,
    mixed_mesh,
    skinny_pair_mesh,
)

POISSON = PdeCoefficients.poisson()


def two_squares():
    verts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    return build_mesh(verts, [(0, 1, 4, 3), (1, 2, 5, 4)])


class TestCoupling:
    @pytest.mark.parametrize("case", ["grid", "jiggled", "tunnel"])
    def test_matching_rows_vanish_on_a_global_polynomial(self, case):
        # every matching row is a jump across its edge (outward normal
        # derivatives added, or values subtracted), so one smooth global
        # polynomial, exact on every element, leaves nothing
        mesh = {"grid": lambda: grid_mesh(3, 2),
                "jiggled": lambda: jiggled_grid(3, 3, np.random.default_rng(7)),
                "tunnel": tunnel_mesh}[case]()
        n = 8
        sys = assemble_schur(mesh, POISSON, n)
        lo, size = mesh.vertices.min(axis=0), np.ptp(mesh.vertices, axis=0)
        x, y = ((g - c) / h for g, c, h in zip((sys.grid_x, sys.grid_y), lo, size))
        u = 1 + x - 2 * y + x * y + 0.5 * x ** 3 * y ** 2 - y ** 5 + x ** 4 * y ** 3
        X = vals_to_coeffs_2d(u).transpose(0, 2, 1).reshape(mesh.n_quads, n * n)
        assert np.abs(sys.A_gamma @ X.ravel()).max() < 1e-14

    def test_two_element_point_counts(self):
        n = 8
        sys = assemble_schur(two_squares(), POISSON, n)
        # the one interior edge holds every interface column
        rows = [sys.C_gamma[f * n * n:(f + 1) * n * n] for f in (0, 1)]
        c0, c1 = (r.indices for r in rows)
        v0, v1 = (r.data for r in rows)
        assert len(c0) == n - 1 and len(c1) == n - 1
        union = set(c0.tolist()) | set(c1.tolist())
        inter = set(c0.tolist()) & set(c1.tolist())
        assert len(union) == n
        assert len(inter) == n - 2
        assert np.all(v0 == -1.0) and np.all(v1 == -1.0)

    def test_single_element_no_coupling(self):
        mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)])
        sys = assemble_schur(mesh, POISSON, 6)
        assert sys.C_gamma.nnz == 0 and sys.A_gamma.nnz == 0 and sys.n_gamma == 0

    def test_2x2_interior_vertex_coverage(self):
        # assembly itself asserts each interface endpoint is covered exactly
        # once and interior interface points exactly twice
        sys = assemble_schur(grid_mesh(2, 2), POISSON, 6)
        assert sys.n_gamma == 4 * 6
        center = np.nonzero(~sys.mesh.boundary_vertex)[0][0]
        marked = sys.mesh.vertex_edge[center]
        incident = [e for e in sys.mesh.interior_edges
                    if center in sys.mesh.edges[e]]
        assert marked in incident

    def test_uncovered_interface_point_raises(self):
        sys = assemble_schur(two_squares(), POISSON, 6)
        sys.point_kind[0, np.argmax(sys.point_kind[0] == "coupled")] = "dirichlet"
        with pytest.raises(BookkeepingError, match="corner-exclusion"):
            sys._build_coupling()

    def test_matching_rows_pair_up(self):
        sys = assemble_schur(two_squares(), POISSON, 7)
        # the one interior edge holds every matching row: one dense block
        # per incident element
        assert sys.A_gamma.shape == (7, 2 * 49)
        rows = sys.A_gamma.toarray().reshape(7, 2, 49)
        blocks = [rows[:, f] for f in range(2) if np.any(rows[:, f])]
        assert len(blocks) == 2
        assert blocks[0].shape == (7, 49)

    @pytest.mark.parametrize("case", ["mixed-varcoef", "sliver"])
    def test_w_blocks_match_dense_solves(self, case):
        # every element's W_gamma rows are its solves against its C_gamma
        # columns, read from the held factors instead of banded solves
        if case == "mixed-varcoef":
            mesh = mixed_mesh()
            sys = assemble_schur(mesh, _general_pde(VARCOEF, mesh), 12)
        else:
            sys = assemble_schur(skinny_pair_mesh(1e-6), POISSON, 16)
        nn = sys.n ** 2
        C, W = sys.C_gamma.toarray(), sys.W_gamma.toarray()
        for f, op in enumerate(sys.ops):
            rows = slice(f * nn, (f + 1) * nn)
            want = np.linalg.solve(op.to_dense(), C[rows])
            assert np.abs(W[rows] - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("case", ["grid-varcoef", "neumann-side", "neumann-side-n24"])
    def test_build_banded_solves_only_to_factor(self, case, monkeypatch):
        # every element is coupled, so every geometry class is factored
        # during the build with one banded solve, none for W blocks: at n = 8
        # the solve forms A^{-1} (width n^2), whose slot columns are the Z
        # its groups share; at n = 24 the size rule fails and it forms Z
        # alone (width 4n-4)
        widths, solve = [], BandedLU.solve
        monkeypatch.setattr(BandedLU, "solve",
                            lambda lu, b, *a: widths.append(np.shape(b)[1]) or solve(lu, b, *a))
        n = 24 if case == "neumann-side-n24" else 8
        if case == "grid-varcoef":
            mesh = grid_mesh(3, 3)
            sys = assemble_schur(mesh, _general_pde(VARCOEF, mesh), n)
        else:
            mesh, bottom = _grid_with_neumann_bottom()
            sys = assemble_schur(mesh, POISSON, n, bc={e: "neumann" for e in bottom})
        classes = 9 if case == "grid-varcoef" else 1
        assert sys.n_distinct > 1 and len(sys._classes) == classes
        assert widths == [{8: n * n, 24: 4 * n - 4}[n]] * classes


class TestSigmaStructure:
    def test_single_interface_block(self):
        n = 8
        sys = assemble_schur(two_squares(), POISSON, n)
        assert sys.sigma.shape == (n, n)
        assert np.linalg.matrix_rank(sys.sigma) == n

    def test_strip_block_tridiagonal(self):
        n = 5
        sys = assemble_schur(grid_mesh(4, 1), POISSON, n)
        assert sys.sigma.shape == (3 * n, 3 * n)
        pos = sys.block_pos
        # blocks at ordering distance 2 never touch
        far = np.abs(pos[:, None] - pos[None, :]) >= 2
        for a in range(3):
            for b in range(3):
                if far[a, b]:
                    blk = sys.sigma[n * pos[a]:n * pos[a] + n,
                                    n * pos[b]:n * pos[b] + n]
                    assert np.all(blk == 0.0)
        assert sys.sigma_bandwidth <= 2 * n - 1

    def test_sigma_matches_dense_elimination(self):
        n = 8
        sys = assemble_schur(two_squares(), POISSON, n)
        G = sys.to_dense_global()
        nn = 2 * n * n
        B = G[:nn, :nn]
        C = G[:nn, nn:]
        R = G[nn:, :nn]
        sigma_dense = -R @ np.linalg.solve(B, C)
        scale = np.abs(sigma_dense).max()
        assert np.max(np.abs(sys.sigma - sigma_dense)) < 1e-10 * scale

    @pytest.mark.parametrize("mesh", [lambda: grid_mesh(3, 3), two_squares],
                             ids=["grid-3x3", "two-squares"])
    def test_sigma_rcond_matches_dense(self, mesh):
        sys = assemble_schur(mesh(), POISSON, 6)
        S = sys.sigma
        want = 1.0 / (np.abs(S).sum(axis=0).max()
                      * np.abs(np.linalg.inv(S)).sum(axis=0).max())
        assert want / 3 <= sys.sigma_rcond <= 3 * want

    def test_sigma_rcond_plateau_on_slivers(self):
        # the mesh-level form of the conditioning plateau: Sigma's condition
        # does not grow as the sliver thins
        rcond = [assemble_schur(skinny_pair_mesh(eps), POISSON, 20).sigma_rcond
                 for eps in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert max(rcond) <= 1.05 * min(rcond)

    def test_sigma_rcond_none_without_interfaces(self):
        assert assemble_schur(grid_mesh(1, 1), POISSON, 6).sigma_rcond is None


class TestSolves:
    def test_constant_solution(self):
        sys = assemble_schur(mixed_mesh(), POISSON, 8)
        sols = sys.solve(f=None, dirichlet=1.0)
        for s in sols:
            want = np.zeros((8, 8))
            want[0, 0] = 1.0
            assert np.max(np.abs(s.matrix - want)) < 1e-12

    def test_linear_solution_exact_across_interface(self):
        sys = assemble_schur(two_squares(), POISSON, 8)
        sols = sys.solve(f=None, dirichlet=lambda x, y: x)
        assert eval_on_grid(sys, sols, lambda x, y: x) < 1e-12

    def test_manufactured_two_squares(self):
        uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        fex = lambda x, y: -2 * np.pi ** 2 * uex(x, y)
        sys = assemble_schur(two_squares(), POISSON, 18)
        sols = sys.solve(f=fex, dirichlet=uex)
        assert eval_on_grid(sys, sols, uex) < 1e-10
        # interface jump at 50 sample points
        tt = np.linspace(-1, 1, 50)
        left = sols[0].eval(np.ones_like(tt), tt)
        right = sols[1].eval(-np.ones_like(tt), tt)
        assert np.max(np.abs(left - right)) < 1e-11

    def test_skinny_pair(self):
        uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
        fex = lambda x, y: -2 * np.pi ** 2 * uex(x, y)
        sys = assemble_schur(skinny_pair_mesh(1e-6), POISSON, 20)
        sols = sys.solve(f=fex, dirichlet=uex)
        assert eval_on_grid(sys, sols, uex) < 1e-9

    def test_mixed_mesh_manufactured(self):
        uex = lambda x, y: np.exp(0.3 * x) * np.sin(y) + x * y
        fex = lambda x, y: 0.09 * np.exp(0.3 * x) * np.sin(y) \
            - np.exp(0.3 * x) * np.sin(y)
        sys = assemble_schur(mixed_mesh(), POISSON, 16)
        sols = sys.solve(f=fex, dirichlet=uex)
        assert eval_on_grid(sys, sols, uex) < 1e-9

    def test_neumann_exterior(self):
        # u = x^2 + y on [0,1]^2 pair, normal derivative on the right edge
        mesh = two_squares()
        uex = lambda x, y: x * x + y
        fex = lambda x, y: 2.0 + 0 * x
        right_edge = None
        for e in range(mesh.n_edges):
            if mesh.boundary_edge[e]:
                p, q = mesh.vertices[mesh.edges[e]]
                if p[0] == 2.0 and q[0] == 2.0:
                    right_edge = e
        bc = {right_edge: "neumann"}
        sys = assemble_schur(mesh, POISSON, 10, bc=bc)
        sols = sys.solve(f=fex, dirichlet=uex,
                         neumann=lambda x, y: 2 * x)  # outward normal +x
        assert eval_on_grid(sys, sols, uex) < 1e-10

    def test_all_neumann_pinned(self):
        # pure Neumann data determines u up to a constant; the pinned value
        # row anchors it
        mesh = build_mesh([(-1, -1), (1, -1), (1, 1), (-1, 1)], [(0, 1, 2, 3)])
        uex = lambda x, y: x * x - y * y  # harmonic
        grad = lambda x, y: (2 * x, -2 * y)
        normals = {}
        for e in range(mesh.n_edges):
            p, q = mesh.vertices[mesh.edges[e]]
            if p[0] == q[0]:
                normals[e] = (np.sign(p[0]), 0.0)
            else:
                normals[e] = (0.0, np.sign(p[1]))

        neumann = {e: (lambda x, y, nv=nv: nv[0] * grad(x, y)[0]
                       + nv[1] * grad(x, y)[1])
                   for e, nv in normals.items()}
        bc = {e: "neumann" for e in range(mesh.n_edges)}
        sys = assemble_schur(mesh, POISSON, 12, bc=bc, pin_value_point=True)
        sols = sys.solve(f=None, neumann=neumann)
        t = np.linspace(-1, 1, 21)
        R, S = np.meshgrid(t, t)
        got = sols[0].eval(R, S)
        want = uex(R, S)
        shift = got[0, 0] - want[0, 0]
        assert np.max(np.abs(got - want - shift)) < 1e-10

    def test_pin_at_first_neumann_point(self):
        # the pinned value row replaces the first Neumann row in element
        # order, and the solution vanishes at that point
        mesh, n = grid_mesh(2, 1), 8
        bc = {e: "neumann" for e in range(mesh.n_edges) if mesh.boundary_edge[e]}
        sys = assemble_schur(mesh, POISSON, n, bc=bc, pin_value_point=True)
        f, k = np.argwhere(sys.point_kind != "coupled")[0]
        assert sys.point_kind[f, k] == "pin"
        assert np.count_nonzero(sys.point_kind == "pin") == 1
        sols = sys.solve(f=lambda x, y: np.cos(x) + y)
        r, s = traversal_points(n)[:, k]
        assert abs(sols[f].eval(r, s)) <= 1e-12 * max(np.abs(c.data).max() for c in sols)

    def test_residual_reported_small(self):
        sys = assemble_schur(two_squares(), POISSON, 10)
        sols, info = sys.solve(f=lambda x, y: np.sin(x + y),
                               dirichlet=0.0, return_info=True)
        assert info.residual < 1e-11

    def test_dense_oracle_small_meshes(self):
        uex = lambda x, y: np.cos(x) * np.exp(0.2 * y)
        fex = lambda x, y: -np.cos(x) * np.exp(0.2 * y) \
            + 0.04 * np.cos(x) * np.exp(0.2 * y)
        for mesh in (two_squares(), grid_mesh(2, 2), grid_mesh(4, 1),
                     grid_mesh(4, 4), grid_mesh(3, 3)):
            sys = assemble_schur(mesh, POISSON, 9)
            a = sys.solve(f=fex, dirichlet=uex)
            b = sys.solve_dense(f=fex, dirichlet=uex)
            worst = max(np.max(np.abs(x.data - y.data)) for x, y in zip(a, b))
            scale = max(np.abs(x.data).max() for x in a)
            assert worst < 1e-9 * max(1.0, scale)

    def test_repeated_solves_reuse_factorization(self, rng, monkeypatch):
        # the fastest of three timings on each side, so that one slow round
        # under host noise does not decide the ratio
        mesh, t_build, t_each = grid_mesh(2, 2), [], []
        for _ in range(3):
            t0 = time.perf_counter()
            sys = assemble_schur(mesh, POISSON, 12)
            sys.solve(f=None, dirichlet=0.0)
            t_build.append(time.perf_counter() - t0)
        grids = [[rng.standard_normal((12, 12)) for _ in range(4)]
                 for _ in range(100)]
        factorizations = []
        init = BandedLU.__init__
        monkeypatch.setattr(BandedLU, "__init__",
                            lambda lu, *a, **k: factorizations.append(1) or init(lu, *a, **k))
        for _ in range(3):
            t0 = time.perf_counter()
            for g in grids:
                sys.solve(f=g, dirichlet=0.0)
            t_each.append((time.perf_counter() - t0) / 100)
        assert not factorizations
        assert min(t_each) * 10 < min(t_build)

    def test_dropped_system_freed_without_collection(self):
        # no reference cycle: the last reference going frees the system and
        # its factorizations at once, not at the next full gc collection
        sys = assemble_schur(grid_mesh(2, 2), POISSON, 6)
        sys.solve(f=None, dirichlet=0.0)
        ref = weakref.ref(sys)
        gc.disable()
        try:
            del sys
            assert ref() is None
        finally:
            gc.enable()

    def test_threaded_back_substitution_bitwise_identical(self):
        # factored element operators are immutable; concurrent solves with
        # distinct right-hand sides match the sequential results exactly
        from concurrent.futures import ThreadPoolExecutor

        sys = assemble_schur(grid_mesh(3, 2), POISSON, 10)
        forcings = [lambda x, y, k=k: np.cos(2 * x + k) * y for k in range(4)]
        sequential = [sys.solve(f=f, dirichlet=0.0) for f in forcings]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda f: sys.solve(f=f, dirichlet=0.0), forcings))
        for want, got in zip(sequential, threaded):
            for a, b in zip(want, got):
                assert np.array_equal(a.data, b.data)

    def test_back_substitution_order_independent(self, rng):
        # back-substitution touches disjoint rows per element; recomputing
        # any element in any order from the grouped element solves
        # reproduces the exact same coefficients
        sys = assemble_schur(grid_mesh(2, 2), POISSON, 8)
        nn = sys.n ** 2
        f = lambda x, y: np.sin(3 * x) + y
        sols, info = sys.solve(f=f, dirichlet=0.0, return_info=True)
        X0 = sys._element_solves(sys._rhs_vectors(f, 0.0, 0.0))
        for fidx in rng.permutation(sys.mesh.n_quads):
            x = X0[fidx] - sys.W_gamma[fidx * nn:(fidx + 1) * nn] @ info.u_gamma
            assert np.array_equal(x, sols[fidx].data)

    def test_forcing_forms_agree(self):
        # a callable, its sampled (F, n, n) stack and a list of n-by-n grids
        mesh, n = mixed_mesh(), 8
        top = next(e for e in range(mesh.n_edges) if mesh.boundary_edge[e]
                   and np.all(mesh.vertices[mesh.edges[e], 1] == 1.0))
        sys = assemble_schur(mesh, POISSON, n, bc={top: "neumann"})
        f = lambda x, y: np.exp(x) * np.sin(2 * y)
        t = cheb_points(n)
        stack = np.array([f(*bm(*np.meshgrid(t, t))) for bm in sys.maps])
        data = dict(dirichlet=lambda x, y: x * y, neumann=0.25)
        want = sys.solve(f=f, **data)
        for forcing in (stack, list(stack)):
            got = sys.solve(f=forcing, **data)
            assert all(np.array_equal(a.data, b.data) for a, b in zip(want, got))
        for bad in (np.concatenate([stack, stack[:1]]), np.zeros((mesh.n_quads, n, n + 1))):
            with pytest.raises(ValueError, match="grid values must have shape"):
                sys.solve(f=bad)

    def test_element_renumbering_invariance(self, rng):
        # Renumbering the quads renumbers edges, interface blocks and
        # element slots; the vertex list marks edges by coordinates alone,
        # so the solution must follow its element under any permutation.
        mesh, n = mixed_mesh(), 8

        def solve(m):
            edge = {tuple(m.edges[e]): e for e in range(m.n_edges)}
            left, right, top = edge[(0, 4)], edge[(3, 7)], edge[(6, 7)]
            sys = assemble_schur(m, POISSON, n, bc={top: "neumann"})
            return sys.solve(f=lambda x, y: np.sin(x) * y,
                             dirichlet={left: 0.5, right: lambda x, y: x * y},
                             neumann={top: lambda x, y: np.cos(3 * x)})

        want = solve(mesh)
        scale = max(np.abs(s.data).max() for s in want)
        for _ in range(6):
            perm = rng.permutation(mesh.n_quads)
            got = solve(build_mesh(mesh.vertices, mesh.quads[perm]))
            for k, f in enumerate(perm):
                assert np.abs(got[k].data - want[f].data).max() <= 1e-10 * scale


class TestHeldInverse:
    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_slivers_solve_through_held_inverses(self, eps):
        # at n = 8 the square and the sliver both meet the size rule, and
        # the products with their held inverses stay accurate on the sliver
        sys = assemble_schur(skinny_pair_mesh(eps), POISSON, 8)
        u = lambda x, y: x ** 5 - 3 * x ** 3 * y ** 2 + x * y ** 4 - 2 * y ** 3 + x * y + 1
        f = lambda x, y: 14 * x ** 3 - 6 * x * y ** 2 - 12 * y
        sols = sys.solve(f=f, dirichlet=u)
        assert all(op._inv is not None for _, op, _ in sys.groups)
        assert eval_on_grid(sys, sols, u) <= 1e-12
        got = np.array([s.data for s in sols])
        want = np.array([s.data for s in sys.solve_dense(f=f, dirichlet=u)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_wide_bands_keep_the_banded_path(self):
        # variable coefficients at n = 24: the bands are too wide for the
        # size rule, so every group, factored by a solve, keeps its banded
        # solve
        mesh = mixed_mesh()
        sys = assemble_schur(mesh, _general_pde(VARCOEF, mesh), 24)
        sys.solve(f=lambda x, y: 1.0 + 0 * x)
        assert len(sys.groups) == len(sys._classes) == mesh.n_quads
        assert all(op._lu is not None and op._inv is None for _, op, _ in sys.groups)


class TestGlobalContinuity:
    def test_random_meshes_polynomial_solutions(self, rng):
        # jiggled grids, random polynomial manufactured solutions
        for trial in range(4):
            nx, ny = [(3, 2), (4, 3), (2, 2), (3, 3)][trial]
            mesh = jiggled_grid(nx, ny, rng)
            cx = rng.uniform(-1, 1, size=(3, 3))
            uex = lambda x, y: sum(cx[i, j] * x ** i * y ** j
                                   for i in range(3) for j in range(3))
            def fex(x, y):
                out = 0 * x
                for i in range(3):
                    for j in range(3):
                        if i >= 2:
                            out = out + cx[i, j] * i * (i - 1) * x ** (i - 2) * y ** j
                        if j >= 2:
                            out = out + cx[i, j] * j * (j - 1) * x ** i * y ** (j - 2)
                return out
            n = 10
            sys = assemble_schur(mesh, POISSON, n)
            sols = sys.solve(f=fex, dirichlet=uex)
            assert eval_on_grid(sys, sols, uex) < 1e-9
            _check_jumps(sys, sols, value_tol=1e-10, deriv_tol=1e-8)


def _check_jumps(sys, sols, value_tol, deriv_tol):
    """At the midpoint of every interior edge the two sides' values agree
    and their outward normal derivatives sum to about zero."""
    mesh, n = sys.mesh, sys.n
    normals = outward_normals(mesh.element_vertices())
    for e in mesh.interior_edges:
        vals, ders = [], []
        for f, l in zip(*np.nonzero(mesh.quad_edge == e)):
            r, s = edge_point(l, mesh.quad_edge_aligned[f, l], 0.0)
            vals.append(sols[f].eval(r, s))
            ux, uy = point_derivative_rows(sys.maps[f], n, r, s)
            ders.append((normals[f, l, 0] * ux + normals[f, l, 1] * uy) @ sols[f].data)
        scale = max(1.0, max(abs(v) for v in vals))
        assert abs(vals[0] - vals[1]) <= value_tol * scale
        dscale = max(1.0, max(abs(d) for d in ders))
        assert abs(ders[0] + ders[1]) <= deriv_tol * dscale


class TestErrors:
    @pytest.mark.parametrize("case", ["interior-edge", "unknown-kind",
                                      "missing-edge", "negative-edge"])
    def test_bad_bc_entry_rejected(self, case):
        mesh = two_squares()
        edge, kind = {
            "interior-edge": (int(mesh.interior_edges[0]), "dirichlet"),
            "unknown-kind": (int(np.nonzero(mesh.boundary_edge)[0][0]), "nuemann"),
            "missing-edge": (mesh.n_edges + 92, "neumann"),
            "negative-edge": (-1, "neumann"),
        }[case]
        with pytest.raises(BookkeepingError, match=rf"edge {edge}\b.*{kind}"):
            assemble_schur(mesh, POISSON, 6, bc={edge: kind})

    @pytest.mark.parametrize("data", [
        {"dirichlet": {0: 5.0}},  # edge 0 is a Neumann edge
        {"neumann": {999: 3.0}},  # no such edge
        {"neumann": {1: 2.0}},  # edge 1 is interior
    ])
    def test_boundary_data_for_wrong_edge_rejected(self, data):
        mesh = grid_mesh(2, 1)
        assert mesh.boundary_edge[0] and not mesh.boundary_edge[1]
        sys = assemble_schur(mesh, POISSON, 6, bc={0: "neumann"})
        (kind, entries), = data.items()
        (edge, _), = entries.items()
        with pytest.raises(BookkeepingError, match=rf"edge {edge}\b.*{kind}"):
            sys.solve(f=lambda x, y: 1.0 + 0 * x, **data)

    @pytest.mark.parametrize("kind, edge", [("dirichlet", 1), ("neumann", 1),
                                            ("dirichlet", 0), ("neumann", 2)])
    def test_boundary_data_edge_message(self, kind, edge):
        # edge 1 is interior; edge 0 is the Neumann edge, edge 2 a Dirichlet one
        mesh = grid_mesh(2, 1)
        assert mesh.boundary_edge[[0, 2]].all() and not mesh.boundary_edge[1]
        sys = assemble_schur(mesh, POISSON, 6, bc={0: "neumann"})
        msg = f"{kind} data names edge {edge}, which is not a {kind} boundary edge"
        with pytest.raises(BookkeepingError, match=f"^{re.escape(msg)}$"):
            sys.solve(f=None, **{kind: {edge: 1.0}})

    def test_per_edge_data_sees_only_its_edge(self):
        # u = x y on the unit square: zero constants on the edges at x = 0
        # and y = 0, callables elsewhere that check every point they get
        mesh, n = grid_mesh(2, 2), 7
        seen = []

        def on_edge(e):
            (px, py), (qx, qy) = mesh.vertices[mesh.edges[e]]

            def g(x, y):
                dx, dy = qx - px, qy - py
                t = ((x - px) * dx + (y - py) * dy) / (dx * dx + dy * dy)
                assert x.shape == (n - 1,) and np.all((t >= 0) & (t <= 1))
                assert np.allclose(px + t * dx, x) and np.allclose(py + t * dy, y)
                seen.append(e)
                return x * y
            return g

        data = {}
        for e in np.flatnonzero(mesh.boundary_edge):
            ends = mesh.vertices[mesh.edges[e]]
            data[int(e)] = 0.0 if (ends == 0.0).all(axis=0).any() else on_edge(e)
        sys = assemble_schur(mesh, POISSON, n)
        sols = sys.solve(f=None, dirichlet=data)
        assert len(seen) == 4
        assert sorted(seen) == sorted(e for e, g in data.items() if callable(g))
        assert eval_on_grid(sys, sols, lambda x, y: x * y) <= 1e-13

    def test_nonconvex_element_named(self):
        # the second quad has a reflex angle at vertex 2 (its area is
        # positive, so the mesh itself builds)
        verts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0), (1.2, 0.5)]
        mesh = build_mesh(verts, [(0, 1, 2, 3), (1, 4, 5, 2)])
        with pytest.raises(GeometryError,
                           match="element 1: quadrilateral is not strictly convex at vertex 2"):
            assemble_schur(mesh, POISSON, 6)

    def test_all_neumann_unpinned_raises(self):
        # without a pinned value Sigma is singular only to rounding
        # (rcond about 1.6e-16); its LU succeeds, so the condition
        # estimate is what catches it
        mesh = grid_mesh(2, 1)
        bc = {e: "neumann" for e in range(mesh.n_edges) if mesh.boundary_edge[e]}
        with pytest.raises(SingularOperatorError,
                           match="all-Neumann problem without a pinned value"):
            assemble_schur(mesh, POISSON, 8, bc=bc)
        sys = assemble_schur(mesh, POISSON, 8, bc=bc, pin_value_point=True)
        assert np.all(np.isfinite(sys.solve(f=lambda x, y: 1.0 + 0 * x)[0].data))


def _fresh_element(sys, f):
    """Element ``f``'s operator built on its own, one boundary row at a
    time (a value row, or at Neumann point k the derivative along the
    outward normal of local edge k // (n-1)), and its W from its own
    Woodbury factors."""
    n, quad = sys.n, sys.mesh.element_quad(f)
    bm, normals = bilinear_coeffs(quad), outward_normals(quad.vertices)
    rows = []
    for k, (r, s) in enumerate(traversal_points(n).T):
        if sys.point_kind[f, k] == "neumann":
            ux, uy = point_derivative_rows(bm, n, r, s)
            nx, ny = normals[k // (n - 1)]
            rows.append(nx * ux + ny * uy)
        else:
            rows.append(point_value_row(n, r, s))
    rows = np.array(rows)
    op = assemble_element_operator(sys.pde, quad, n, rows=rows)
    coupled = sys.point_kind[f] == "coupled"
    return op, op.boundary_columns(coupled) * -op.scale[boundary_slots(n)[coupled]]


def _grid_with_neumann_bottom(size=4):
    mesh = grid_mesh(size, size)
    bottom = {int(e) for e in range(mesh.n_edges) if mesh.boundary_edge[e]
              and np.all(mesh.vertices[mesh.edges[e], 1] == 0.0)}
    return mesh, bottom


def _exact_key_solution(mesh, n, bc, monkeypatch):
    """The system whose elements share only when every key entry is
    bitwise equal, and a solve of it for fixed smooth data."""
    def exact_key(coeffs, normals, neumann, r_in):
        return _row_groups(np.column_stack([coeffs, neumann, normals]))

    with monkeypatch.context() as m:
        m.setattr(schur, "_share_classes", exact_key)
        want = assemble_schur(mesh, POISSON, n, bc=bc)

    def solve(sys):
        sols = sys.solve(f=lambda x, y: np.sin(3 * x) * np.cos(2 * y),
                         dirichlet=lambda x, y: x * x - y, neumann=lambda x, y: 1 + x)
        return np.array([s.data for s in sols])

    return want, solve


class TestSharedElements:
    def test_distinct_count_grid_with_neumann_side(self):
        mesh, bottom = _grid_with_neumann_bottom()
        sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann" for e in bottom})
        # dyadic spacing: every element has the same shape, so elements
        # differ only in which local edges carry Neumann rows
        classes = {(mesh.vertices[q] - mesh.vertices[q[0]]).tobytes()
                   + bytes([mesh.quad_edge[f, l] in bottom for l in range(4)])
                   for f, q in enumerate(mesh.quads)}
        assert len(classes) == 2
        assert sys.n_distinct == len(classes)
        assert len({id(op) for op in sys.ops}) == sys.n_distinct

    def test_distinct_count_variable_coefficients(self):
        mesh = mixed_mesh()
        pde = _general_pde(VARCOEF, mesh)
        sys = assemble_schur(mesh, pde, 6)
        # position-dependent coefficients: an element is its own class
        classes = {mesh.vertices[q].tobytes() for q in mesh.quads}
        assert sys.n_distinct == len(classes) == mesh.n_quads

    def test_tunnel_builds_one_interior_operator_per_class(self, monkeypatch):
        # the perfbench tunnel: one geometry class, 13 groups over three
        # systems; the other groups of a class are copies of its first
        calls = {"element_interior_operator": 0, "element_rhs_operator": 0}
        for module, name in ((element, "element_interior_operator"),
                             (schur, "element_rhs_operator")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        mesh = tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1.667e-5, dealias=False),
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        systems = (solver.helm_u, solver.helm_v, solver.pois_p)
        assert tuple(sys.n_distinct for sys in systems) == (6, 2, 5)
        assert calls == {"element_interior_operator": 3, "element_rhs_operator": 3}
        for sys in systems:
            assert len({id(rhs_op) for _, _, rhs_op in sys.groups}) == 1

    def test_tunnel_factors_and_solves_once_per_class(self, monkeypatch):
        # the perfbench tunnel: each system's groups border one banded part,
        # so three systems factor 3 element operators and 3 Sigmas; at n = 8
        # every group holds its inverse, so a step makes no element banded
        # solve, only the 3 Sigma solves
        factored, solved = [], []
        init, solve = BandedLU.__init__, BandedLU.solve
        monkeypatch.setattr(BandedLU, "__init__", lambda lu, *a, **k:
                            factored.append(k.get("name")) or init(lu, *a, **k))
        monkeypatch.setattr(BandedLU, "solve",
                            lambda lu, *a, **k: solved.append(lu.name) or solve(lu, *a, **k))
        mesh = tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1.667e-5, dealias=False),
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        systems = (solver.helm_u, solver.helm_v, solver.pois_p)
        assert [len(sys._classes) for sys in systems] == [1, 1, 1]
        assert sorted(factored) == ["element banded part"] * 3 + ["interface complement"] * 3
        assert sorted(solved) == ["element banded part"] * 3
        del solved[:]
        solver.time_step(FlowState.rest(mesh, 8))
        assert solved == ["interface complement"] * 3

    def test_groups_of_one_class_share_rhs_op_and_equal_their_own_builds(self):
        # two groups, one class: each borders the class's interior operator
        # with its own rows, which is the operator its leader builds alone
        mesh, bottom = _grid_with_neumann_bottom()
        sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann" for e in bottom})
        assert sys.n_distinct == 2
        (_, _, rhs1), (_, _, rhs2) = sys.groups
        assert rhs1 is rhs2
        for elems, op, rhs_op in sys.groups:
            alone, _ = _fresh_element(sys, elems[0])
            assert np.array_equal(op.to_dense(), alone.to_dense())
            assert np.array_equal(op.scale, alone.scale)
            want = element_rhs_operator(mesh.element_quad(elems[0]), sys.n)
            assert (rhs_op != want).nnz == 0

    @pytest.mark.parametrize("n", [6, 16])
    def test_groups_are_bordered_copies_of_the_class_operator(self, n, rng):
        # the second group is the first's operator bordered with its own
        # rows: equal to a build from those rows, and holding the first's
        # factors (at n = 6 with A^{-1}, at n = 16 without)
        mesh, bottom = _grid_with_neumann_bottom()
        sys = assemble_schur(mesh, POISSON, n, bc={e: "neumann" for e in bottom})
        (_, first, _), (elems, op, _) = sys.groups
        alone, _ = _fresh_element(sys, elems[0])
        rows = rng.standard_normal((4 * n - 4, n * n))
        pairs = [(op, alone), (first.bordered(rows), assemble_element_operator(
            POISSON, mesh.element_quad(0), n, rows=rows))]
        for got, want in pairs:
            assert np.array_equal(got.to_dense(), want.to_dense())
            assert np.array_equal(got.scale, want.scale)
            assert got._lu is first._lu and got._Z is first._Z
            assert (got._Ainv is first._Ainv is None) == (n == 16)
            b = rng.standard_normal(n * n)
            x = np.linalg.solve(want.to_dense(), b)
            assert np.abs(got.solve_raw(b) - x).max() <= 1e-12 * np.abs(x).max()

    def test_congruent_grid_shares_one_operator(self):
        sys = assemble_schur(grid_mesh(8, 8), POISSON, 6)
        assert sys.n_distinct == 1

    @pytest.mark.parametrize("mesh", [grid_mesh(24, 24),
                                      grid_mesh(12, 12, x0=0.1, y0=-0.35)],
                             ids=["24x24", "12x12-translated"])
    def test_non_dyadic_grid_shares_one_operator(self, mesh):
        # spacings like 1/12 round differently from element to element,
        # by far less than the sharing tolerance
        assert assemble_schur(mesh, POISSON, 4).n_distinct == 1

    def test_slivers_of_different_thickness_do_not_share(self):
        # [0,1] x [0,1e-12] below [0,1] x [1e-12, 2.05e-12]: the
        # thicknesses differ by 5%, yet the coefficients agree to 5e-14 of
        # the largest one, so only an inradius scale keeps them apart
        verts = [(0, 0), (1, 0), (1, 1e-12), (0, 1e-12), (1, 2.05e-12), (0, 2.05e-12)]
        mesh = build_mesh(verts, [(0, 1, 2, 3), (3, 2, 4, 5)])
        assert assemble_schur(mesh, POISSON, 6).n_distinct == 2

    def test_zero_tolerance_is_the_exact_key(self, monkeypatch):
        mesh, bottom = _grid_with_neumann_bottom(12)
        bc = {e: "neumann" for e in bottom}
        want, solve = _exact_key_solution(mesh, 6, bc, monkeypatch)
        monkeypatch.setattr(schur, "_SHARE_TOL", 0.0)
        sys = assemble_schur(mesh, POISSON, 6, bc=bc)
        assert sys.n_distinct == want.n_distinct > 2
        assert np.array_equal(sys._group, want._group)
        for (e1, op1, rhs1), (e2, op2, rhs2) in zip(sys.groups, want.groups):
            assert np.array_equal(e1, e2)
            assert np.array_equal(op1.to_dense(), op2.to_dense())
            assert np.array_equal(op1.scale, op2.scale)
            assert (rhs1 != rhs2).nnz == 0
        for M in ("A_gamma", "C_gamma", "W_gamma"):
            assert (getattr(sys, M) != getattr(want, M)).nnz == 0
        assert np.array_equal(solve(sys), solve(want))

    def test_shared_solution_near_exact_key(self, monkeypatch):
        mesh = grid_mesh(12, 12)
        want, solve = _exact_key_solution(mesh, 8, None, monkeypatch)
        sys = assemble_schur(mesh, POISSON, 8)
        assert (sys.n_distinct, want.n_distinct) == (1, 50)
        got, ref = solve(sys), solve(want)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ["neumann-side", "varcoef", "pinned"])
    def test_shared_values_equal_unshared(self, case):
        if case == "neumann-side":
            mesh, bottom = _grid_with_neumann_bottom()
            sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann" for e in bottom})
        elif case == "varcoef":
            mesh = mixed_mesh()
            pde = _general_pde(VARCOEF, mesh)
            sys = assemble_schur(mesh, pde, 6)
        else:
            mesh = grid_mesh(2, 2)
            bc = {e: "neumann" for e in range(mesh.n_edges) if mesh.boundary_edge[e]}
            sys = assemble_schur(mesh, POISSON, 6, bc=bc, pin_value_point=True)
        for f in range(mesh.n_quads):
            op, W = _fresh_element(sys, f)
            assert np.array_equal(sys.ops[f].to_dense(), op.to_dense())
            assert np.array_equal(sys.ops[f].scale, op.scale)
            nn, coupled = sys.n ** 2, sys.point_kind[f] == "coupled"
            if not coupled.any():  # an element with no interior edge
                assert W.size == 0 and sys.A_gamma[:, f * nn:(f + 1) * nn].nnz == 0
            else:
                # the element's rows of W_gamma at its coupled columns
                block = sys.W_gamma[f * nn:(f + 1) * nn][:, sys._point_col[f][coupled]]
                assert np.array_equal(block.toarray(), W)


@settings(PROPERTIES)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(4, 7),
       st.integers(0, 2 ** 32 - 1))
def test_random_jiggled_grid_properties(nx, ny, n, seed):
    # the Schur solve matches the dense oracle, and renumbering the quads
    # moves the solution with its elements
    rng = np.random.default_rng(seed)
    mesh = jiggled_grid(nx, ny, rng)
    a, b = rng.uniform(-2, 2, 2)
    f = lambda x, y: np.sin(a * x + b * y) + x * y
    g = lambda x, y: np.cos(b * x - a * y)
    sys = assemble_schur(mesh, POISSON, n)
    want = np.array([s.data for s in sys.solve(f=f, dirichlet=g)])
    dense = np.array([s.data for s in sys.solve_dense(f=f, dirichlet=g)])
    assert np.abs(want - dense).max() <= 1e-10 * np.abs(dense).max()
    perm = rng.permutation(mesh.n_quads)
    got = assemble_schur(build_mesh(mesh.vertices, mesh.quads[perm]),
                         POISSON, n).solve(f=f, dirichlet=g)
    for k, q in enumerate(perm):
        assert np.abs(got[k].data - want[q]).max() <= 1e-10 * np.abs(want).max()


def _sliver_pair_mesh(eps, alpha, slope, y1, y2, theta):
    """The square [-1, 1]^2 with a sliver on its right side, whose far
    side lies on the line x = 1 + eps alpha (1 + slope y) between heights
    y1 < 0 < y2 (convex for |slope| < 1), rotated by theta."""
    x = lambda y: 1 + eps * alpha * (1 + slope * y)
    v = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1), (x(y1), y1), (x(y2), y2)])
    c, s = np.cos(theta), np.sin(theta)
    return build_mesh(v @ np.array([[c, s], [-s, c]]), [(0, 1, 2, 3), (2, 1, 4, 5)])


@settings(PROPERTIES)
@given(st.floats(-12, -3), st.floats(0.5, 2), st.floats(-0.5, 0.5),
       st.floats(-0.95, -0.2), st.floats(0.2, 0.95), st.floats(0, 2 * np.pi))
def test_random_sliver_pair_properties(log_eps, alpha, slope, y1, y2, theta):
    # acceptance test 05's bounds on random square-plus-sliver meshes, and
    # the conditioning plateau: over 1,000 random draws sigma_rcond stayed
    # within a factor 1.075 of its value for the same shape at eps = 1e-3
    shape = (alpha, slope, y1, y2, theta)
    mesh = _sliver_pair_mesh(10.0 ** log_eps, *shape)
    uex = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    sys = assemble_schur(mesh, POISSON, 20)
    sols = sys.solve(f=lambda x, y: -2 * np.pi ** 2 * uex(x, y), dirichlet=uex)
    assert eval_on_grid(sys, sols, uex, m=40) <= 1e-9
    f, l = np.nonzero(mesh.quad_edge == mesh.interior_edges[0])
    traces = [sols[g].eval(*edge_point(k, mesh.quad_edge_aligned[g, k], np.linspace(-1, 1, 50)))
              for g, k in zip(f, l)]
    assert np.max(np.abs(traces[0] - traces[1])) <= 1e-10
    ref = assemble_schur(_sliver_pair_mesh(1e-3, *shape), POISSON, 20).sigma_rcond
    assert 1 / 1.1 <= sys.sigma_rcond / ref <= 1.1
