import ast
import gc
import re
import threading
import time
import weakref
from pathlib import Path
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from ultrasem.cli import _general_pde
from ultrasem._linalg import BandedLU
from ultrasem.element import (
    PdeCoefficients,
    apply_rhs_operator,
    assemble_element_operator,
    boundary_slots,
    edge_points,
    element_rhs_operator,
    point_derivative_rows,
    point_value_row,
    traversal_points,
)
from ultrasem import element, schur
from ultrasem.errors import BookkeepingError, GeometryError, SingularOperatorError
from ultrasem.mesh import QuadMesh, grid_mesh
from ultrasem.navierstokes import (
    FlowState,
    NsConfig,
    TunnelSolver,
    classify_tunnel_boundary,
    tunnel_mesh,
)
from ultrasem.quadmap import bilinear_coeffs, outward_normals
from ultrasem.schur import _normal_rows, assemble_schur
from ultrasem.ultra import cheb_points, vals_to_coeffs_2d

from conftest import (
    COUPLING_ARRAYS,
    PROPERTIES,
    VARCOEF,
    coupling_nbytes,
    edge_point,
    eval_on_grid,
    jiggled_grid,
    mixed_mesh,
    skinny_pair_mesh,
)

POISSON = PdeCoefficients.poisson()


def two_squares():
    verts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    return QuadMesh(verts, [(0, 1, 4, 3), (1, 2, 5, 4)])


def _coupling_blocks(sys):
    """The off-diagonal blocks of the dense global matrix: the matching
    rows (n_gamma, F n^2) and the interface columns of the element
    boundary rows (F n^2, n_gamma)."""
    FN = sys.mesh.n_quads * sys.n ** 2
    G = sys.to_dense_global()
    return G[FN:, :FN], G[:FN, FN:]


def _held_matching_rows(sys):
    """The matching rows gathered from the held pair columns, (P, n, 2,
    n^2) by edge point and side, and the element of each side, (P, 2)."""
    slot, col = np.divmod(sys._match_at, sys.n + 2)  # (2, P, n)
    rows = sys._pair_rows[slot // sys._pair_elems.shape[1], :, col]
    rows = sys._match_coef[..., None] * rows
    return rows.transpose(1, 2, 0, 3), sys._pair_elems.flat[slot[:, :, 0]].T


def _held_w(sys, f):
    """Element f's W, (n^2, 4n-4), from its group's held block, and its
    row in its group's padded product."""
    g, i = np.divmod(sys._w_from[f], sys._w_cols.shape[1])
    return sys._w[g].T, (g, i)


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
        A, _ = _coupling_blocks(sys)
        assert np.abs(A @ X.ravel()).max() < 1e-14

    def test_two_element_point_counts(self):
        n = 8
        sys = assemble_schur(two_squares(), POISSON, n)
        # the one interior edge holds every interface column
        _, C = _coupling_blocks(sys)
        rows = [C[f * n * n:(f + 1) * n * n] for f in (0, 1)]
        c0, c1 = (np.nonzero(r)[1] for r in rows)
        v0, v1 = (r[r != 0] for r in rows)
        assert len(c0) == n - 1 and len(c1) == n - 1
        union = set(c0.tolist()) | set(c1.tolist())
        inter = set(c0.tolist()) & set(c1.tolist())
        assert len(union) == n
        assert len(inter) == n - 2
        assert np.all(v0 == -1.0) and np.all(v1 == -1.0)

    def test_single_element_no_coupling(self):
        mesh = QuadMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)])
        sys = assemble_schur(mesh, POISSON, 6)
        assert sys.n_gamma == 0
        assert np.array_equal(sys.to_dense_global(), sys.ops[0].to_dense())

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
        # per incident element, gathered from the n + 2 columns held for
        # each side's (class, local edge) pair
        A, _ = _coupling_blocks(sys)
        assert A.shape == (7, 2 * 49)
        rows = A.reshape(7, 2, 49)
        blocks = [rows[:, f] for f in range(2) if np.any(rows[:, f])]
        assert len(blocks) == 2
        assert blocks[0].shape == (7, 49)
        assert sys._pair_rows.shape == (2, 49, 9)
        held, sides = _held_matching_rows(sys)
        assert sides.tolist() == [[0, 1]]
        assert np.array_equal(held, rows[None])

    def test_coupling_is_held_once_per_distinct_block(self):
        # grid_mesh(8, 8) at n = 24 is one class and one group: 4 pairs'
        # columns and one W, where one block per edge side and one W per
        # element took 49.5 MiB
        sys = assemble_schur(grid_mesh(8, 8), POISSON, 24)
        assert sys._pair_rows.shape == (4, 576, 26) and sys._w.shape == (1, 92, 576)
        assert coupling_nbytes(sys) <= 2 * 2 ** 20
        big = [k for k, v in vars(sys).items() if isinstance(v, np.ndarray) and v.nbytes > 2 ** 20]
        assert not big

    @pytest.mark.parametrize("case", ["mixed-varcoef", "sliver"])
    def test_w_blocks_match_dense_solves(self, case):
        # every element's W block is its solves against its scaled
        # boundary slots, read from the held factors instead of banded
        # solves; the dense matrix's interface columns are those slots
        # with the opposite sign at the coupled points
        if case == "mixed-varcoef":
            mesh = mixed_mesh()
            sys = assemble_schur(mesh, _general_pde(VARCOEF, mesh), 12)
        else:
            sys = assemble_schur(skinny_pair_mesh(1e-6), POISSON, 16)
        nn, slots = sys.n ** 2, boundary_slots(sys.n)
        _, C = _coupling_blocks(sys)
        for f, op in enumerate(sys.ops):
            coupled = sys.point_kind[f] == "coupled"
            E = np.zeros((nn, slots.size))
            E[slots, np.arange(slots.size)] = op.scale[slots]
            want = np.linalg.solve(op.to_dense(), E)
            W, _ = _held_w(sys, f)
            assert np.abs(W - want).max() <= 1e-13 * np.abs(want).max()
            if not coupled.any():  # an element with no interior edge
                assert not C[f * nn:(f + 1) * nn].any()
                continue
            cols = C[f * nn:(f + 1) * nn][:, sys._point_col[f][coupled]]
            assert np.array_equal(cols, -E[:, coupled])

    @pytest.mark.parametrize("case", ["grid-varcoef", "neumann-side", "neumann-side-n24"])
    def test_build_banded_solves_only_to_factor(self, case, monkeypatch):
        # every element is coupled, so every geometry class is factored
        # during the build with one banded solve, Z (width 4n-4), which its
        # groups share, and none for W blocks; at n = 8, under the size
        # rule, each class then makes one more solve (width n^2) for its
        # groups' held blocks, and at n = 24 none
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
        assert sys.n_distinct > 1 and len(sys.classes) == classes
        assert widths == [4 * n - 4] * classes + {8: [n * n] * classes, 24: []}[n]


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

    def test_stacked_eval_is_every_element_view(self, rng):
        # a stack evaluates each element at the same points
        sys = assemble_schur(mixed_mesh(), POISSON, 8)
        sols = sys.solve(f=lambda x, y: np.exp(x) * y, dirichlet=lambda x, y: x * y)
        r, s = rng.uniform(-1, 1, (2, 3, 5))
        for pts in ((r, s), (r[0, 0], s[0, 0])):
            want = np.array([sols[f].eval(*pts) for f in range(len(sols))])
            assert want.shape == (len(sols),) + np.shape(pts[0])
            assert np.array_equal(sols.eval(*pts), want)

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
        mesh = QuadMesh([(-1, -1), (1, -1), (1, 1), (-1, 1)], [(0, 1, 2, 3)])
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

    @pytest.mark.parametrize("case", ["mixed-neumann", "pinned-all-neumann"])
    def test_residual_is_the_dense_systems(self, case, rng):
        # for any (X, u_gamma), a solution or not, the reported residual is
        # the dense global matrix's.  X and B are small beside u_gamma, so
        # the largest entry is at a coupled boundary row, and a coupling
        # term of the wrong sign changes it.
        if case == "mixed-neumann":
            mesh = mixed_mesh()
            top = next(e for e in range(mesh.n_edges) if mesh.boundary_edge[e]
                       and np.all(mesh.vertices[mesh.edges[e], 1] == 1.0))
            sys = assemble_schur(mesh, POISSON, 8, bc={top: "neumann"})
        else:
            mesh = grid_mesh(2, 2)
            bc = {e: "neumann" for e in range(mesh.n_edges) if mesh.boundary_edge[e]}
            sys = assemble_schur(mesh, POISSON, 8, bc=bc, pin_value_point=True)
        X, B = 1e-3 * rng.standard_normal((2, mesh.n_quads, sys.n ** 2))
        u = rng.standard_normal(sys.n_gamma)
        SB = sys._scale * B
        r = (sys.to_dense_global() @ np.concatenate([X.ravel(), u])
             - np.concatenate([SB.ravel(), np.zeros(sys.n_gamma)]))
        want = np.abs(r).max() / max(1.0, np.abs(SB).max())
        assert abs(sys._residual(X, u, B) - want) <= 1e-12 * want

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

    @pytest.mark.parametrize("mesh", [
        lambda: QuadMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)]), mixed_mesh],
        ids=["one-element", "mixed"])
    def test_threaded_first_solves_bitwise_identical(self, mesh):
        # a system is factored when it is built: 4 threads making the first
        # solves of a fresh system each get the sequential result, whether
        # they start together or up to 2.7 ms apart (an element
        # factorization here takes about 1 ms)
        from concurrent.futures import ThreadPoolExecutor

        mesh, n = mesh(), 24
        f = lambda x, y: np.cos(2 * x) * y
        want = assemble_schur(mesh, POISSON, n).solve(f=f, dirichlet=1.0).data
        barrier = threading.Barrier(4, timeout=60)

        def first_solve(system, delay):
            barrier.wait()
            time.sleep(delay)
            return system.solve(f=f, dirichlet=1.0).data

        interval = getswitchinterval()
        setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                for t in range(10):
                    system = assemble_schur(mesh, POISSON, n)
                    futures = [pool.submit(first_solve, system, 1e-4 * t * k) for k in range(4)]
                    for fut in futures:
                        assert np.array_equal(fut.result(timeout=60), want)
        finally:
            setswitchinterval(interval)

    def test_back_substitution_order_independent(self, rng):
        # back-substitution touches disjoint rows per element; recomputing
        # any element in any order from the grouped element solves and its
        # row of its group's W product (a one-row product may round
        # differently) reproduces the exact same coefficients
        sys = assemble_schur(grid_mesh(2, 2), POISSON, 8)
        f = lambda x, y: np.sin(3 * x) + y
        sols, info = sys.solve(f=f, dirichlet=0.0, return_info=True)
        X0 = sys._element_solves(*sys._rhs_data(f, 0.0, 0.0))
        U = np.append(info.u_gamma, 0.0)[sys._w_cols]
        for fidx in rng.permutation(sys.mesh.n_quads):
            _, (g, i) = _held_w(sys, fidx)
            x = X0[fidx] + np.matmul(U[g], sys._w[g])[i]
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
            got = solve(QuadMesh(mesh.vertices, mesh.quads[perm]))
            for k, f in enumerate(perm):
                assert np.abs(got[k].data - want[f].data).max() <= 1e-10 * scale


class TestHeldInverse:
    @pytest.mark.parametrize("eps", [1e-6, 1e-12])
    def test_slivers_solve_through_held_inverses(self, eps):
        # at n = 8 the square and the sliver both meet the size rule, and
        # the products with their held solve blocks stay accurate on the
        # sliver
        sys = assemble_schur(skinny_pair_mesh(eps), POISSON, 8)
        u = lambda x, y: x ** 5 - 3 * x ** 3 * y ** 2 + x * y ** 4 - 2 * y ** 3 + x * y + 1
        f = lambda x, y: 14 * x ** 3 - 6 * x * y ** 2 - 12 * y
        sols = sys.solve(f=f, dirichlet=u)
        assert sys._k is not None
        assert eval_on_grid(sys, sols, u) <= 1e-12
        got = np.array([s.data for s in sols])
        want = np.array([s.data for s in sys.solve_dense(f=f, dirichlet=u)])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_wide_bands_keep_the_banded_path(self):
        # variable coefficients at n = 24: the bands are too wide for the
        # size rule, so every group keeps its banded solve
        mesh = mixed_mesh()
        sys = assemble_schur(mesh, _general_pde(VARCOEF, mesh), 24)
        assert len(sys.groups) == len(sys.classes) == mesh.n_quads
        assert sys._k is None


    @pytest.mark.parametrize("case, solves", [
        ("grid-n13", 0), ("grid-n14", 1), ("mixed-n14", 7)])
    def test_held_solves_only_when_every_group_holds(self, case, solves, monkeypatch):
        # one batched product with the held blocks when every group meets
        # the size rule (Poisson up to n = 13), else each class's
        # right-hand-side product and one solve_raw per group
        mesh = mixed_mesh() if case == "mixed-n14" else grid_mesh(3, 3)
        sys = assemble_schur(mesh, POISSON, 13 if case == "grid-n13" else 14)
        assert len(sys.groups) == {"mixed-n14": 7}.get(case, 1)
        assert (sys._k is not None) == (solves == 0)
        calls, solve_raw = [], element.AlmostBandedMatrix.solve_raw
        monkeypatch.setattr(element.AlmostBandedMatrix, "solve_raw",
                            lambda op, b: calls.append("solve_raw") or solve_raw(op, b))
        monkeypatch.setattr(schur, "apply_rhs_operator", lambda factors, X, _fn=schur.apply_rhs_operator:
                            calls.append("rhs") or _fn(factors, X))
        f = lambda x, y: np.exp(x) * np.sin(2 * y)
        got = sys.solve(f=f, dirichlet=lambda x, y: x * y).data
        products = len(sys.classes) if solves else 0
        assert sorted(calls) == ["rhs"] * products + ["solve_raw"] * solves
        want = sys.solve_dense(f=f, dirichlet=lambda x, y: x * y).data
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_held_solves_hold_w(self):
        # W is the last 4n-4 rows of each group's held solve block
        sys = assemble_schur(grid_mesh(12, 12), POISSON, 8)
        assert sys._k.shape == (1, 92, 64) and sys._w.shape == (1, 28, 64)
        assert np.shares_memory(sys._w, sys._k)

    @pytest.mark.parametrize("case", ["neumann-side", "tunnel"])
    def test_held_blocks_of_every_group_match_dense_solves(self, case):
        # the groups of one class correct its one banded solve into their
        # own blocks: each block is (B_g^{-1} diag(s_g) [R_c | P])^T
        if case == "tunnel":
            mesh = tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
            sys = TunnelSolver(mesh, 8, NsConfig(dt=1.667e-5, dealias=False),
                               classify_tunnel_boundary(mesh, (0.6, 0.0))).helm_u
        else:
            mesh, bottom = _grid_with_neumann_bottom()
            sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann" for e in bottom})
        [(_, rhs_op)] = sys.classes
        assert sys.n_distinct == {"tunnel": 6, "neumann-side": 2}[case]
        nn, slots = sys.n ** 2, boundary_slots(sys.n)
        P = np.zeros((nn, slots.size))
        P[slots, np.arange(slots.size)] = 1.0
        for g, (_, op) in enumerate(sys.groups):
            R = apply_rhs_operator(rhs_op, np.eye(nn)).T
            rhs = op.scale[:, None] * np.hstack([R, P])
            want = np.linalg.solve(op.to_dense(), rhs).T
            assert np.abs(sys._k[g] - want).max() <= 1e-12 * np.abs(want).max()


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

    @pytest.mark.parametrize("key", [0.0, True, np.True_], ids=["float", "bool", "np-bool"])
    def test_non_integer_bc_key_rejected(self, key):
        # a whole-number float or a bool is no edge number (they raised a raw
        # IndexError, or a ValueError from indexing by a bool)
        msg = f"edge key {key!r} (bc 'neumann') is not an integer edge number"
        with pytest.raises(BookkeepingError, match=f"^{re.escape(msg)}$"):
            assemble_schur(two_squares(), POISSON, 6, bc={key: "neumann"})

    @pytest.mark.parametrize("value", [8.5, "8", True], ids=["float", "str", "bool"])
    @pytest.mark.parametrize("target", ["schur", "tunnel", "coeffs"])
    def test_n_other_than_an_integer_rejected(self, target, value):
        # one check for every entry point: n is never rounded, parsed or
        # read from a bool, and the error names the value
        least = 0 if target == "coeffs" else 4
        msg = f"need an integer n >= {least}, not {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            if target == "schur":
                schur.SchurSystem(grid_mesh(2, 2), POISSON, value)
            elif target == "tunnel":
                mesh = tunnel_mesh(3, 2, width=0.003, height=0.001, hole=None)
                TunnelSolver(mesh, value, NsConfig(dt=1.667e-5),
                             classify_tunnel_boundary(mesh, (0.6, 0.0)))
            else:
                element.CoeffVector2D(value, np.zeros(64))

    def test_numpy_integer_n_accepted(self):
        sys = schur.SchurSystem(grid_mesh(2, 2), POISSON, np.int64(6))
        assert type(sys.n) is int and sys.n == 6

    def test_numpy_integer_bc_key_accepted(self):
        mesh = two_squares()
        e = np.flatnonzero(mesh.boundary_edge)[0]
        sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann"})
        assert set(sys.point_kind[sys.point_edge == e]) == {"neumann"}

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

    @pytest.mark.parametrize("kind, key", [("dirichlet", False), ("dirichlet", 0.0),
                                           ("neumann", True), ("neumann", np.True_)],
                             ids=["dirichlet-bool", "dirichlet-float", "neumann-bool",
                                  "neumann-np-bool"])
    def test_non_integer_boundary_data_key_rejected(self, kind, key):
        # one rule for edge keys, as for bc: these keys looked up edges 0
        # and 1 (0 == False == 0.0), so the data went on those edges
        mesh = QuadMesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)])
        sys = assemble_schur(mesh, POISSON, 6, bc={1: "neumann"})
        msg = f"edge key {key!r} ({kind} data) is not an integer edge number"
        with pytest.raises(BookkeepingError, match=f"^{re.escape(msg)}$"):
            sys.solve(f=None, **{kind: {key: 1.0}})

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

    @pytest.mark.parametrize("data", [
        {"dirichlet": {2: lambda x, y: np.ones(3)}},  # 3 values for 5 points
        {"dirichlet": [1.0, 2.0]},
        {"dirichlet": np.ones(5)},
        {"neumann": "1"},
    ], ids=["short-callable", "list", "array", "string"])
    def test_malformed_boundary_data_rejected(self, data):
        # each was written with values.flat[...] = ..., which tiles a short
        # array and reads "1" as 1.0
        sys = assemble_schur(grid_mesh(2, 1), POISSON, 6, bc={0: "neumann"})
        (kind, _), = data.items()
        with pytest.raises(ValueError, match=f"^{kind} data on (edge 2|every {kind} edge) "):
            sys.solve(f=None, **data)

    def test_scalar_callable_data_broadcasts(self):
        sys = assemble_schur(grid_mesh(2, 1), POISSON, 6, bc={0: "neumann"})
        want = sys.solve(f=None, dirichlet={2: 0.5}, neumann=0.25)
        got = sys.solve(f=None, dirichlet={2: lambda x, y: 0.5}, neumann=lambda x, y: 0.25)
        assert np.array_equal(got.data, want.data)

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
        mesh = QuadMesh(verts, [(0, 1, 2, 3), (1, 4, 5, 2)])
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
    return op, op.boundary_columns() * op.scale[boundary_slots(n)]


def _grid_with_neumann_bottom(size=4):
    mesh = grid_mesh(size, size)
    bottom = {int(e) for e in range(mesh.n_edges) if mesh.boundary_edge[e]
              and np.all(mesh.vertices[mesh.edges[e], 1] == 0.0)}
    return mesh, bottom


def _exact_key_solution(mesh, n, bc, monkeypatch):
    """The system whose elements share only when every key entry is
    bitwise equal, and a solve of it for fixed smooth data."""
    def exact_key(coeffs, normals, neumann, r_in):
        # group the key rows by their exact bytes: the first row of every
        # group, groups in order of first appearance, and each row's group
        key = np.ascontiguousarray(np.column_stack([coeffs, neumann, normals]))
        key = key.view(np.dtype((np.void, key[0].nbytes))).ravel()
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        return first[order], np.argsort(order)[inverse]

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
        # systems; the other groups of a class are copies of its first, and
        # only a class's operator build writes a Kronecker sum
        calls = {"_kron_sum": 0, "element_rhs_operator": 0}
        for module, name in ((element, "_kron_sum"), (schur, "element_rhs_operator")):
            def counted(*args, _fn=getattr(module, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counted)
        mesh = tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1.667e-5, dealias=False),
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        systems = (solver.helm_u, solver.helm_v, solver.pois_p)
        assert tuple(sys.n_distinct for sys in systems) == (6, 2, 5)
        assert calls == {"_kron_sum": 3, "element_rhs_operator": 3}
        for sys in systems:
            assert len(sys.classes) == 1

    def test_element_build_makes_no_sparse_format_conversions(self, monkeypatch):
        # the element operators' diagonals are written once and the
        # right-hand-side operators held as Kronecker factors, so building
        # the eight classes of the mixed varcoef mesh converts no sparse
        # matrix from one format to another (a first build fills the
        # per-n caches of the 1-D factors, which ultra builds as CSR)
        mesh = mixed_mesh()
        pde = _general_pde(VARCOEF, mesh)
        assemble_schur(mesh, pde, 24)
        calls, inside = [], []
        for fmt in ("bsr", "coo", "csc", "csr", "dia", "dok", "lil"):
            for cls in (getattr(sp, f"{fmt}_matrix"), getattr(sp, f"{fmt}_array")):
                for name in ("tocsr", "tocoo", "todia"):
                    monkeypatch.setattr(cls, name, lambda m, *a, _fn=getattr(cls, name), **k:
                                        calls.append(_fn.__name__) or _fn(m, *a, **k))

        def build(system, _fn=schur.SchurSystem._build_elements):
            start = len(calls)
            _fn(system)
            inside.append(calls[start:])

        monkeypatch.setattr(schur.SchurSystem, "_build_elements", build)
        sys = assemble_schur(mesh, pde, 24)
        assert len(sys.classes) == 8
        assert inside == [[]]

    def test_tunnel_factors_and_solves_once_per_class(self, monkeypatch):
        # the perfbench tunnel: each system's groups border one banded part,
        # so three systems factor 3 element operators and 3 Sigmas, and each
        # class solves once for Z and once for its held blocks; at n = 8
        # every group meets the size rule, so a step makes no element
        # banded solve, only the 3 Sigma solves
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
        assert [len(sys.classes) for sys in systems] == [1, 1, 1]
        assert sorted(factored) == ["element banded part"] * 3 + ["interface complement"] * 3
        assert sorted(solved) == ["element banded part"] * 6
        del solved[:]
        solver.time_step(FlowState.rest(mesh, 8))
        assert solved == ["interface complement"] * 3

    def test_groups_of_one_class_share_rhs_op_and_equal_their_own_builds(self):
        # two groups, one class: each borders the class's interior operator
        # with its own rows, which is the operator its leader builds alone
        mesh, bottom = _grid_with_neumann_bottom()
        sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann" for e in bottom})
        assert sys.n_distinct == 2
        [(elements, rhs_op)] = sys.classes
        assert np.array_equal(elements, np.arange(mesh.n_quads))
        for elems, op in sys.groups:
            alone, _ = _fresh_element(sys, elems[0])
            assert np.array_equal(op.to_dense(), alone.to_dense())
            assert np.array_equal(op.scale, alone.scale)
            want = element_rhs_operator(mesh.element_quad(elems[0]), sys.n)
            assert all(map(np.array_equal, rhs_op, want))

    @pytest.mark.parametrize("n", [6, 16])
    def test_groups_are_bordered_copies_of_the_class_operator(self, n, rng):
        # the second group is the first's operator bordered with its own
        # rows: equal to a build from those rows, and holding the first's
        # factors (at n = 6 under the size rule, at n = 16 beyond it)
        mesh, bottom = _grid_with_neumann_bottom()
        sys = assemble_schur(mesh, POISSON, n, bc={e: "neumann" for e in bottom})
        (_, first), (elems, op) = sys.groups
        alone, _ = _fresh_element(sys, elems[0])
        rows = rng.standard_normal((4 * n - 4, n * n))
        pairs = [(op, alone), (first.bordered(rows), assemble_element_operator(
            POISSON, mesh.element_quad(0), n, rows=rows))]
        for got, want in pairs:
            assert np.array_equal(got.to_dense(), want.to_dense())
            assert np.array_equal(got.scale, want.scale)
            assert got._lu is first._lu and got._Z is first._Z
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
        mesh = QuadMesh(verts, [(0, 1, 2, 3), (3, 2, 4, 5)])
        assert assemble_schur(mesh, POISSON, 6).n_distinct == 2

    def test_zero_tolerance_is_the_exact_key(self, monkeypatch):
        mesh, bottom = _grid_with_neumann_bottom(12)
        bc = {e: "neumann" for e in bottom}
        want, solve = _exact_key_solution(mesh, 6, bc, monkeypatch)
        monkeypatch.setattr(schur, "_SHARE_TOL", 0.0)
        sys = assemble_schur(mesh, POISSON, 6, bc=bc)
        assert sys.n_distinct == want.n_distinct > 2
        assert np.array_equal(sys._group, want._group)
        for (e1, op1), (e2, op2) in zip(sys.groups, want.groups, strict=True):
            assert np.array_equal(e1, e2)
            assert np.array_equal(op1.to_dense(), op2.to_dense())
            assert np.array_equal(op1.scale, op2.scale)
        for (e1, rhs1), (e2, rhs2) in zip(sys.classes, want.classes, strict=True):
            assert np.array_equal(e1, e2)
            assert all(map(np.array_equal, rhs1, rhs2))
        for M in COUPLING_ARRAYS:
            assert np.array_equal(getattr(sys, M), getattr(want, M))
        assert np.array_equal(solve(sys), solve(want))

    def test_shared_solution_near_exact_key(self, monkeypatch):
        mesh = grid_mesh(12, 12)
        want, solve = _exact_key_solution(mesh, 8, None, monkeypatch)
        sys = assemble_schur(mesh, POISSON, 8)
        assert (sys.n_distinct, want.n_distinct) == (1, 50)
        got, ref = solve(sys), solve(want)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_interface_rows_match_a_per_element_build(self):
        # the matching rows come from each class representative's map; the
        # derivative rows of every side, built on its own map and outward
        # normal and scaled as one equation with the other side, agree
        mesh, n = grid_mesh(12, 12, x0=0.1, y0=-0.35), 8
        sys = assemble_schur(mesh, POISSON, n)
        assert len(sys.classes) == 1
        held, sides = _held_matching_rows(sys)
        for e, p in zip(mesh.interior_edges, sys.block_pos):
            f, l = np.nonzero(mesh.quad_edge == e)
            assert sorted(sides[p]) == sorted(f)
            own = []
            for g, k in zip(f, l):
                m = np.arange(n) if mesh.quad_edge_aligned[g, k] else np.arange(n)[::-1]
                r, s = edge_points(n)[:, k, m]
                own.append(_normal_rows(sys.maps[g], sys._normals[g, k], n, r, s))
            scale = np.maximum(*(np.abs(o).max(axis=1) for o in own))[:, None]
            # the endpoint rows are value rows unless the vertex marks the edge
            ends = mesh.edges[e]
            deriv = np.ones(n, dtype=bool)
            deriv[[0, -1]] = ~mesh.boundary_vertex[ends] & (mesh.vertex_edge[ends] == e)
            for g, o in zip(f, own):
                got = held[p, :, np.flatnonzero(sides[p] == g)[0]]
                assert np.abs(got[deriv] - (o / scale)[deriv]).max() <= 1e-13

    def test_interface_rows_formed_once_per_class_and_local_edge(self, monkeypatch):
        # grid_mesh(12, 12) is one geometry class: at most 4 local edges of
        # n rows each, not n rows on each of the 2 x 264 sides
        counted = []

        def rows(*args):
            out = _normal_rows(*args)
            counted.append(out.size // out.shape[-1])
            return out

        monkeypatch.setattr(schur, "_normal_rows", rows)
        n = 8
        assemble_schur(grid_mesh(12, 12), POISSON, n)
        assert 0 < sum(counted) <= 4 * n

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
            assert np.array_equal(_held_w(sys, f)[0], W)


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
    got = assemble_schur(QuadMesh(mesh.vertices, mesh.quads[perm]),
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
    return QuadMesh(v @ np.array([[c, s], [-s, c]]), [(0, 1, 2, 3), (2, 1, 4, 5)])


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


def test_schur_reads_no_private_attribute_of_another_object():
    # element operators are used through their public methods only, so
    # what an operator holds and how it solves stays with element.py
    path = Path(schur.__file__)
    private = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Attribute) and node.attr.startswith("_")
               and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert not private
