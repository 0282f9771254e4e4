import gc
import time
import weakref

import numpy as np
import pytest

from ultrasem.cli import _general_pde
from ultrasem.element import (
    PdeCoefficients,
    assemble_element_operator,
    boundary_point_traversal,
    boundary_rows,
    boundary_slots,
    traversal_points,
)
from ultrasem.errors import BookkeepingError, SingularOperatorError
from ultrasem.mesh import build_mesh, grid_mesh, mesh_from_string
from ultrasem.schur import assemble_schur
from ultrasem.ultra import cheb_points

from conftest import eval_on_grid, skinny_pair_mesh

POISSON = PdeCoefficients.poisson()


def two_squares():
    verts = [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
    return build_mesh(verts, [(0, 1, 4, 3), (1, 2, 5, 4)])


def mixed_mesh():
    """Eight elements: a quad, a median-split pair of triangles, a quad."""
    text = """quadmesh 1
v 0 0
v 1 0
v 2 0
v 3 0
v 0 1
v 1 1
v 2 1
v 3 1
q 1 2 6 5
t 2 3 7
t 2 7 6
q 3 4 8 7
"""
    return mesh_from_string(text)


class TestCoupling:
    def test_interface_geometry_direction_cosines(self):
        sys = assemble_schur(skinny_pair_mesh(0.25), POISSON, 6)
        for geom in sys.geometry:
            assert abs(geom.alpha ** 2 + geom.beta ** 2 - 1.0) < 1e-14
            assert geom.params[0] == -1.0 and geom.params[-1] == 1.0
            assert np.allclose(geom.points[0], geom.lo)
            assert np.allclose(geom.points[-1], geom.hi)

    def test_two_element_point_counts(self):
        n = 8
        sys = assemble_schur(two_squares(), POISSON, n)
        e = sys.mesh.interior_edges[0]
        s0, c0, v0 = sys.element_interface_columns(0, e)
        s1, c1, v1 = sys.element_interface_columns(1, e)
        assert len(c0) == n - 1 and len(c1) == n - 1
        union = set(c0.tolist()) | set(c1.tolist())
        inter = set(c0.tolist()) & set(c1.tolist())
        assert len(union) == n
        assert len(inter) == n - 2
        assert np.all(v0 == -1.0) and np.all(v1 == -1.0)

    def test_single_element_no_coupling(self):
        mesh = build_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2, 3)])
        sys = assemble_schur(mesh, POISSON, 6)
        slots, cols, vals = sys.element_interface_columns(0)
        assert slots.size == 0 and sys.n_gamma == 0

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

    def test_matching_rows_pair_up(self):
        sys = assemble_schur(two_squares(), POISSON, 7)
        e = sys.mesh.interior_edges[0]
        rows = sys.interface_matching_rows(e)
        assert len(rows) == 2
        assert rows[0][1].shape == (7, 49)


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
        for mesh in (two_squares(), grid_mesh(2, 2), grid_mesh(4, 1)):
            sys = assemble_schur(mesh, POISSON, 9)
            a = sys.solve(f=fex, dirichlet=uex)
            b = sys.solve_dense(f=fex, dirichlet=uex)
            worst = max(np.max(np.abs(x.data - y.data)) for x, y in zip(a, b))
            scale = max(np.abs(x.data).max() for x in a)
            assert worst < 1e-9 * max(1.0, scale)

    def test_repeated_solves_reuse_factorization(self, rng):
        mesh = grid_mesh(2, 2)
        t0 = time.perf_counter()
        sys = assemble_schur(mesh, POISSON, 12)
        sys.solve(f=None, dirichlet=0.0)
        t_build = time.perf_counter() - t0
        grids = [[rng.standard_normal((12, 12)) for _ in range(4)]
                 for _ in range(100)]
        t0 = time.perf_counter()
        for g in grids:
            sys.solve(f=g, dirichlet=0.0)
        t_each = (time.perf_counter() - t0) / 100
        assert t_each * 10 < t_build

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
        f = lambda x, y: np.cos(2 * x) * y
        sols, info = sys.solve(f=f, dirichlet=0.0, return_info=True)

        def redo(fidx):
            b = sys._rhs_vectors(f, 0.0, 0.0)[fidx]
            x = sys.ops[fidx].solve(b)
            slots, cols = sys.coupling[fidx]
            return x - sys.W[fidx] @ info.u_gamma[cols]

        with ThreadPoolExecutor(max_workers=4) as pool:
            redone = list(pool.map(redo, range(sys.mesh.n_quads)))
        for a, b in zip(sols, redone):
            assert np.array_equal(a.data, b)

    def test_back_substitution_order_independent(self, rng):
        # phase 2 touches disjoint per-element state; recomputing any
        # element in any order reproduces the exact same coefficients
        sys = assemble_schur(grid_mesh(2, 2), POISSON, 8)
        f = lambda x, y: np.sin(3 * x) + y
        sols, info = sys.solve(f=f, dirichlet=0.0, return_info=True)
        order = rng.permutation(sys.mesh.n_quads)
        for fidx in order:
            b = sys._rhs_vectors(f, 0.0, 0.0)[fidx]
            x = sys.ops[fidx].solve(b)
            slots, cols = sys.coupling[fidx]
            x = x - sys.W[fidx] @ info.u_gamma[cols]
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

    def test_element_renumbering_invariance(self):
        # Renumbering the quads renumbers edges, interface blocks and
        # element slots; the solution must follow its element.  The vertex
        # list marks each interior vertex with its smallest-numbered
        # interior edge, and that choice changes the discrete equations, so
        # the permutation is one that keeps it.
        mesh, n = mixed_mesh(), 8
        perm = [1, 0, 3, 4, 6, 7, 5, 2]
        renum = build_mesh(mesh.vertices, mesh.quads[perm])

        def marking(m):
            return {v: tuple(m.edges[e]) for v, e in enumerate(m.vertex_edge) if e >= 0}

        assert marking(renum) == marking(mesh)

        def solve(m):
            edge = {tuple(m.edges[e]): e for e in range(m.n_edges)}
            left, right, top = edge[(0, 4)], edge[(3, 7)], edge[(6, 7)]
            sys = assemble_schur(m, POISSON, n, bc={top: "neumann"})
            return sys.solve(f=lambda x, y: np.sin(x) * y,
                             dirichlet={left: 0.5, right: lambda x, y: x * y},
                             neumann={top: lambda x, y: np.cos(3 * x)})

        want, got = solve(mesh), solve(renum)
        scale = max(np.abs(s.data).max() for s in want)
        for k, f in enumerate(perm):
            assert np.abs(got[k].data - want[f].data).max() <= 1e-10 * scale


class TestGlobalContinuity:
    def test_random_meshes_polynomial_solutions(self, rng):
        # jiggled grids, random polynomial manufactured solutions
        for trial in range(4):
            nx, ny = [(3, 2), (4, 3), (2, 2), (3, 3)][trial]
            mesh = _jiggled_grid(nx, ny, rng)
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


def _jiggled_grid(nx, ny, rng):
    mesh = grid_mesh(nx, ny)
    v = mesh.vertices.copy()
    for k in range(len(v)):
        if not mesh.boundary_vertex[k]:
            v[k] += rng.uniform(-0.08, 0.08, size=2) / max(nx, ny)
    return build_mesh(v, mesh.quads)


def _check_jumps(sys, sols, value_tol, deriv_tol):
    from ultrasem.schur import _edge_reference_point, _normal_derivative_row

    mesh, n = sys.mesh, sys.n
    for k, e in enumerate(mesh.interior_edges):
        geom = sys.geometry[k]
        sides = mesh.edge_quads[e]
        vals, ders = [], []
        for (f, l, aligned) in sides:
            r, s = _edge_reference_point(l, aligned, 0.0)  # edge midpoint
            vals.append(sols[f].eval(r, s))
            row = _normal_derivative_row(sys.maps[f], n, r, s,
                                         geom.alpha, geom.beta)
            ders.append(row @ sols[f].data)
        scale = max(1.0, max(abs(v) for v in vals))
        assert abs(vals[0] - vals[1]) <= value_tol * scale
        dscale = max(1.0, max(abs(d) for d in ders))
        assert abs(ders[0] - ders[1]) <= deriv_tol * dscale


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
    """Element ``f``'s operator built on its own from :func:`boundary_rows`,
    and its W from its own solve."""
    n, quad = sys.n, sys.mesh.element_quad(f)
    neumann = set(boundary_slots(n)[sys.point_kind[f] == "neumann"])
    rows = np.array([
        boundary_rows(quad, n, "normal-derivative" if slot in neumann else "value",
                      [(r, s)])[0]
        for slot, (_, _, r, s) in zip(boundary_slots(n), boundary_point_traversal(n))])
    op = assemble_element_operator(sys.pde, quad, n, rows=rows)
    slots, _ = sys.coupling[f]
    rhs = np.zeros((n * n, slots.size))
    rhs[slots, np.arange(slots.size)] = -op.scale[slots]
    return op, op.solve_raw(rhs)


def _grid_with_neumann_bottom():
    mesh = grid_mesh(4, 4)
    bottom = {int(e) for e in range(mesh.n_edges) if mesh.boundary_edge[e]
              and np.all(mesh.vertices[mesh.edges[e], 1] == 0.0)}
    return mesh, bottom


class TestSharedElements:
    def test_distinct_count_grid_with_neumann_side(self):
        mesh, bottom = _grid_with_neumann_bottom()
        sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann" for e in bottom})
        # dyadic spacing: every element has the same shape, so elements
        # differ only in which local edges carry Neumann rows
        classes = {(mesh.vertices[q] - mesh.vertices[q[0]]).tobytes()
                   + bytes([mesh.local_edge(f, l) in bottom for l in range(4)])
                   for f, q in enumerate(mesh.quads)}
        assert len(classes) == 2
        assert sys.n_distinct == len(classes)
        assert len({id(op) for op in sys.ops}) == sys.n_distinct

    def test_distinct_count_variable_coefficients(self):
        mesh = mixed_mesh()
        pde = _general_pde("general:a11=1+0.5*x^2;a22=2+y;b1=x;c=-1", mesh)
        sys = assemble_schur(mesh, pde, 6)
        # position-dependent coefficients: an element is its own class
        classes = {mesh.vertices[q].tobytes() for q in mesh.quads}
        assert sys.n_distinct == len(classes) == mesh.n_quads

    def test_congruent_grid_shares_one_operator(self):
        sys = assemble_schur(grid_mesh(8, 8), POISSON, 6)
        assert sys.n_distinct == 1

    @pytest.mark.parametrize("case", ["neumann-side", "varcoef", "pinned"])
    def test_shared_values_equal_unshared(self, case):
        if case == "neumann-side":
            mesh, bottom = _grid_with_neumann_bottom()
            sys = assemble_schur(mesh, POISSON, 6, bc={e: "neumann" for e in bottom})
        elif case == "varcoef":
            mesh = mixed_mesh()
            pde = _general_pde("general:a11=1+0.5*x^2;a22=2+y;b1=x;c=-1", mesh)
            sys = assemble_schur(mesh, pde, 6)
        else:
            mesh = grid_mesh(2, 2)
            bc = {e: "neumann" for e in range(mesh.n_edges) if mesh.boundary_edge[e]}
            sys = assemble_schur(mesh, POISSON, 6, bc=bc, pin_value_point=True)
        for f in range(mesh.n_quads):
            op, W = _fresh_element(sys, f)
            assert np.array_equal(sys.ops[f].to_dense(), op.to_dense())
            assert np.array_equal(sys.ops[f].scale, op.scale)
            if sys.W[f] is None:  # an element with no interior edge
                assert W.size == 0 and not sys.gamma_blocks[f]
            else:
                assert np.array_equal(sys.W[f], W)
