import re

import numpy as np
import pytest

from ultrasem import navierstokes, ultra
from ultrasem.element import CoeffVector2D
from ultrasem.errors import GeometryError, InstabilityError, MeshError
from ultrasem.mesh import QuadMesh, grid_mesh
from ultrasem.navierstokes import (
    FlowState,
    NsConfig,
    TunnelBoundary,
    TunnelSolver,
    classify_tunnel_boundary,
    tunnel_mesh,
)

from conftest import eval_on_grid


def single_square_solver(n=8, dt=1e-3, dealias=False, inlet=(0.0, 0.0)):
    mesh = QuadMesh([(-1, -1), (1, -1), (1, 1), (-1, 1)], [(0, 1, 2, 3)])
    cfg = NsConfig(dt=dt, dealias=dealias)
    bnd = classify_tunnel_boundary(mesh, inlet_velocity=inlet)
    return TunnelSolver(mesh, n, cfg, bnd)


def field_from(fn, solver):
    """One stacked field sampled on every element grid."""
    X, Y = solver.helm_u.grid_x, solver.helm_u.grid_y
    return CoeffVector2D.from_matrix(ultra.vals_to_coeffs_2d(fn(X, Y) + 0 * X))


class TestBoundaryClassification:
    def test_tunnel_labels(self):
        mesh = tunnel_mesh(nx=4, ny=3, hole=(1, 1))
        bnd = classify_tunnel_boundary(mesh)
        counts = {k: len(bnd.edges(k)) for k in TunnelBoundary.KINDS}
        assert counts == {"inlet": 3, "outlet": 3, "wall": 8, "object": 4}

    def test_every_boundary_edge_labeled(self):
        mesh = tunnel_mesh()
        bnd = classify_tunnel_boundary(mesh)
        for e in range(mesh.n_edges):
            assert (e in bnd.labels) == bool(mesh.boundary_edge[e])

    def test_interior_label_rejected(self):
        mesh = tunnel_mesh()
        bnd = classify_tunnel_boundary(mesh)
        labels = dict(bnd.labels)
        labels[int(mesh.interior_edges[0])] = "wall"
        with pytest.raises(MeshError):
            TunnelBoundary(mesh, labels)

    def test_missing_label_rejected(self):
        mesh = tunnel_mesh()
        bnd = classify_tunnel_boundary(mesh)
        labels = dict(bnd.labels)
        labels.pop(next(iter(labels)))
        with pytest.raises(MeshError):
            TunnelBoundary(mesh, labels)

    @pytest.mark.parametrize("edge", [999, 17, -1, 2.5])
    def test_label_of_a_missing_edge_rejected(self, edge):
        mesh = tunnel_mesh(3, 2, width=0.003, height=0.001, hole=None)  # 17 edges
        labels = {**classify_tunnel_boundary(mesh).labels, edge: "wall"}
        msg = (f"edge {edge} (labeled 'wall') is not an edge of the mesh"
               if isinstance(edge, int)
               else f"edge key {edge!r} (labeled 'wall') is not an integer edge number")
        with pytest.raises(MeshError, match=f"^{re.escape(msg)}$"):
            TunnelBoundary(mesh, labels)

    @pytest.mark.parametrize("key", [3.0, False, np.float64(3.0)],
                             ids=["float", "bool", "np-float"])
    def test_non_integer_label_key_rejected(self, key):
        # a whole-number float or a bool is no edge number, as for bc keys
        mesh = tunnel_mesh(3, 2, width=0.003, height=0.001, hole=None)
        labels = classify_tunnel_boundary(mesh).labels
        kind = labels.pop(int(key))
        msg = f"edge key {key!r} (labeled {kind!r}) is not an integer edge number"
        with pytest.raises(MeshError, match=f"^{re.escape(msg)}$"):
            TunnelBoundary(mesh, {key: kind, **labels})

    def test_numpy_integer_label_keys_accepted(self):
        mesh = tunnel_mesh(3, 2, width=0.003, height=0.001, hole=None)
        labels = classify_tunnel_boundary(mesh).labels
        bnd = TunnelBoundary(mesh, {np.int64(e): k for e, k in labels.items()})
        assert bnd.labels == labels and {type(e) for e in bnd.labels} == {int}

    def test_constant_inlet_velocity_is_kept(self):
        mesh = tunnel_mesh(3, 2, width=0.003, height=0.001, hole=None)
        bnd = classify_tunnel_boundary(mesh, (0.6, 0.0))
        assert (bnd.inlet_u, bnd.inlet_v) == (0.6, 0.0)

    @pytest.mark.parametrize("inlet", [0.6, (0.6,), (0.6, 0.0, 0.0), "uv", {0.6: 0.0},
                                       np.array(0.6), np.zeros((2, 2)), (0.6, None)],
                             ids=["scalar", "one", "three", "str", "dict", "0-d", "2x2", "none"])
    def test_inlet_velocity_other_than_a_pair_rejected(self, inlet):
        # a scalar was taken as u with v = 0
        mesh = tunnel_mesh(3, 2, width=0.003, height=0.001, hole=None)
        msg = f"inlet velocity {inlet!r} is not a pair (u, v) of constants or callables"
        with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
            classify_tunnel_boundary(mesh, inlet)

    @pytest.mark.parametrize("inlet", [[0.6, 0.0], np.array([0.6, 0.0])], ids=["list", "array"])
    def test_listed_inlet_velocity_is_a_pair(self, inlet):
        # a list or array was taken whole as u, broadcast along the inlet:
        # the flow reached a max speed of 0.891 instead of 0.6
        mesh = tunnel_mesh(4, 2, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5)
        solvers = [TunnelSolver(mesh, 8, cfg, classify_tunnel_boundary(mesh, iv))
                   for iv in (inlet, (0.6, 0.0))]
        st = [FlowState.rest(mesh, 8)] * 2
        for _ in range(60):
            st = [solver.time_step(s) for solver, s in zip(solvers, st)]
            for field in ("u", "v", "p"):
                assert np.array_equal(getattr(st[0], field).data, getattr(st[1], field).data)
        assert abs(st[0].max_speed() - 0.6) < 1e-7

    def test_labels_match_the_edge_loop(self):
        # the per-edge rule, inlet before outlet before wall, on an offset
        # grid with two holes
        mesh = grid_mesh(5, 4, x0=2.5, y0=-7.25, width=1.3, height=0.7, skip=[(2, 1), (3, 2)])
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        eps = 1e-9 * (hi - lo).max()
        want = {}
        for e in np.flatnonzero(mesh.boundary_edge):
            p, q = mesh.vertices[mesh.edges[e]]
            on = lambda c, side: abs(p[c] - side[c]) < eps and abs(q[c] - side[c]) < eps
            want[int(e)] = ("inlet" if on(0, lo) else "outlet" if on(0, hi)
                            else "wall" if on(1, lo) or on(1, hi) else "object")
        assert classify_tunnel_boundary(mesh).labels == want
        assert list(want.values()).count("object") == 8

    def test_slanted_wall_rejected(self):
        verts = [(0, 0), (1, 0.2), (1, 1), (0, 1)]
        mesh = QuadMesh(verts, [(0, 1, 2, 3)])
        bnd = classify_tunnel_boundary(mesh)  # bottom edge becomes "object"
        labels = dict(bnd.labels)
        for e, k in labels.items():
            if k == "object":
                labels[e] = "wall"
        cfg = NsConfig(dt=1e-3)
        with pytest.raises(GeometryError):
            TunnelSolver(mesh, 6, cfg, TunnelBoundary(mesh, labels))


class TestAdvection:
    def test_uniform_flow_zero(self):
        solver = single_square_solver()
        st = FlowState(u=field_from(lambda x, y: 1.0 + 0 * x, solver),
                       v=field_from(lambda x, y: 0 * x, solver),
                       p=field_from(lambda x, y: 0 * x, solver))
        ax, ay = solver.advection_term(st)
        assert np.abs(ax[0]).max() < 1e-13
        assert np.abs(ay[0]).max() < 1e-13

    def test_rigid_shear_zero(self):
        solver = single_square_solver()
        st = FlowState(u=field_from(lambda x, y: y, solver),
                       v=field_from(lambda x, y: 0 * x, solver),
                       p=field_from(lambda x, y: 0 * x, solver))
        ax, ay = solver.advection_term(st)
        assert np.abs(ax[0]).max() < 1e-13
        assert np.abs(ay[0]).max() < 1e-13

    def test_linear_strain_field(self):
        # u = (x, -y): (u.grad)u = (x, y)
        for dealias in (False, True):
            solver = single_square_solver(dealias=dealias)
            st = FlowState(u=field_from(lambda x, y: x, solver),
                           v=field_from(lambda x, y: -y, solver),
                           p=field_from(lambda x, y: 0 * x, solver))
            ax, ay = solver.advection_term(st)
            t = ultra.cheb_points(solver.n)
            R, S = np.meshgrid(t, t)
            X, Y = solver.helm_u.maps[0](R, S)
            assert np.max(np.abs(ax[0] - X)) < 1e-12
            assert np.max(np.abs(ay[0] - Y)) < 1e-12


class TestVorticity:
    def test_rigid_rotation(self):
        solver = single_square_solver()
        st = FlowState(u=field_from(lambda x, y: -y, solver),
                       v=field_from(lambda x, y: x, solver),
                       p=field_from(lambda x, y: 0 * x, solver))
        w = solver.vorticity(st)
        assert np.max(np.abs(w[0] - 2.0)) < 1e-12

    def test_uniform_flow(self):
        solver = single_square_solver()
        st = FlowState(u=field_from(lambda x, y: 1.0 + 0 * x, solver),
                       v=field_from(lambda x, y: 0 * x, solver),
                       p=field_from(lambda x, y: 0 * x, solver))
        assert np.max(np.abs(solver.vorticity(st)[0])) < 1e-13

    def test_shear(self):
        solver = single_square_solver()
        st = FlowState(u=field_from(lambda x, y: y, solver),
                       v=field_from(lambda x, y: 0 * x, solver),
                       p=field_from(lambda x, y: 0 * x, solver))
        assert np.max(np.abs(solver.vorticity(st)[0] + 1.0)) < 1e-12


class TestStackedElements:
    # two different non-affine quads: each element needs its own
    # inverse-map factors; u = x^2 + xy - y, v = y^2 - 2xy + x
    U = staticmethod(lambda x, y: x * x + x * y - y)
    V = staticmethod(lambda x, y: y * y - 2 * x * y + x)

    def solver_and_state(self, dealias):
        verts = [(0, 0), (1, 0.1), (2.2, 0), (0.1, 1.1), (1.2, 0.9), (2, 1.3)]
        mesh = QuadMesh(verts, [(0, 1, 4, 3), (1, 2, 5, 4)])
        cfg = NsConfig(dt=1e-3, dealias=dealias)
        solver = TunnelSolver(mesh, 8, cfg, classify_tunnel_boundary(mesh))
        st = FlowState(u=field_from(self.U, solver), v=field_from(self.V, solver),
                       p=field_from(lambda x, y: 0 * x, solver))
        t = ultra.cheb_points(8)
        R, S = np.meshgrid(t, t)
        XY = [solver.helm_u.maps[f](R, S) for f in range(2)]
        return solver, st, XY

    def test_divergence_and_vorticity(self):
        solver, st, XY = self.solver_and_state(False)
        div = solver.divergence_values(st.u, st.v)
        w = solver.vorticity(st)
        for f, (X, Y) in enumerate(XY):
            assert np.max(np.abs(div[f] - 3 * Y)) < 1e-11
            assert np.max(np.abs(w[f] - (2 - 2 * Y - X))) < 1e-11

    def test_dealiased_advection(self):
        for dealias in (False, True):
            solver, st, XY = self.solver_and_state(dealias)
            ax, ay = solver.advection_term(st)
            for f, (X, Y) in enumerate(XY):
                u, v = self.U(X, Y), self.V(X, Y)
                assert np.max(np.abs(ax[f] - (u * (2 * X + Y) + v * (X - 1)))) < 1e-11
                assert np.max(np.abs(ay[f] - (u * (1 - 2 * Y) + v * (2 * Y - 2 * X)))) < 1e-11

    def test_interface_order_computed_once(self, monkeypatch):
        import ultrasem.mesh

        calls = []
        search = ultrasem.mesh._exact_min_bandwidth
        monkeypatch.setattr(ultrasem.mesh, "_exact_min_bandwidth",
                            lambda *a: calls.append(1) or search(*a))
        mesh = tunnel_mesh(nx=4, ny=3, hole=(1, 1))
        solver = TunnelSolver(mesh, 6, NsConfig(dt=1e-3),
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        assert len(calls) == 1
        # callers get copies: changing one leaves the mesh's order alone
        pos = ultrasem.mesh.order_interfaces(mesh)
        pos[:] = 0
        assert np.array_equal(ultrasem.mesh.order_interfaces(mesh), solver.helm_u.block_pos)


class TestTimeStepping:
    def test_zero_input_fixed_point(self):
        mesh = tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5)
        solver = TunnelSolver(mesh, 6, cfg,
                              classify_tunnel_boundary(mesh, (0.0, 0.0)))
        st = FlowState.rest(mesh, 6)
        for _ in range(100):
            st = solver.time_step(st)
        assert st.max_speed() <= 1e-12
        assert max(np.abs(p.data).max() for p in st.p) <= 1e-12

    def test_channel_converges_to_uniform_flow(self):
        mesh = tunnel_mesh(nx=4, ny=2, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5)
        solver = TunnelSolver(mesh, 8, cfg,
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        st = FlowState.rest(mesh, 8)
        deltas = []
        for _ in range(60):
            new = solver.time_step(st)
            deltas.append(max(np.abs(a.data - b.data).max()
                              for a, b in zip(new.u, st.u)))
            st = new
        # contraction toward the uniform steady state after the transient,
        # where the step-to-step change settles at round-off of the speed
        assert deltas[20] < deltas[2]
        assert max(deltas[40:]) <= 1e-12 * 0.6
        t = ultra.cheb_points(8)
        R, S = np.meshgrid(t, t)
        for f in range(mesh.n_quads):
            assert np.max(np.abs(st.u[f].eval(R, S) - 0.6)) < 1e-7
            assert np.max(np.abs(st.v[f].eval(R, S))) < 1e-7

    def test_vertical_channel_with_free_slip_side_walls(self):
        # the channel above turned upright: inlet at the bottom, outlet at
        # the top, so the free-slip walls are the vertical sides
        mesh = grid_mesh(2, 4, width=0.001, height=0.003)
        edges = np.flatnonzero(mesh.boundary_edge)
        y = mesh.vertices[mesh.edges[edges], 1]  # (B, 2 ends)
        kind = np.select([(y == 0.0).all(axis=1), (y == 0.003).all(axis=1)],
                         ["inlet", "outlet"], "wall")
        bnd = TunnelBoundary(mesh, dict(zip(edges.tolist(), kind.tolist())), (0.0, 0.6))
        assert len(bnd.edges("wall")) == 8
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1.667e-5), bnd)
        wall = np.isin(solver.helm_u.point_edge, bnd.edges("wall"))
        assert (solver.helm_u.point_kind[wall] == "dirichlet").all()
        assert (solver.helm_v.point_kind[wall] == "neumann").all()
        st = FlowState.rest(mesh, 8)
        deltas = []
        for _ in range(60):
            new = solver.time_step(st)
            deltas.append(max(np.abs(a.data - b.data).max()
                              for a, b in zip(new.v, st.v)))
            st = new
        assert deltas[20] < deltas[2]
        assert max(deltas[40:]) <= 1e-12 * 0.6
        t = ultra.cheb_points(8)
        R, S = np.meshgrid(t, t)
        assert np.max(np.abs(st.v.eval(R, S) - 0.6)) < 1e-7
        assert np.max(np.abs(st.u.eval(R, S))) < 1e-7

    def test_left_out_edges_get_zero_data(self, rng):
        # the stepper passes only the inlet's velocity data: listing every
        # other Dirichlet edge, wall or object, with 0.0 changes no bit
        mesh = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=(1, 1))
        bnd = classify_tunnel_boundary(mesh, (0.6, 0.0))
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1.667e-5), bnd)
        assert set(solver._dir_u) == set(solver._dir_v) == set(bnd.edges("inlet"))
        f = rng.standard_normal((mesh.n_quads, 8, 8))
        for system, data in ((solver.helm_u, solver._dir_u), (solver.helm_v, solver._dir_v)):
            dirichlet = set(system.point_edge[system.point_kind == "dirichlet"].tolist())
            zero = dirichlet - set(data)
            assert zero and zero <= set(bnd.edges("wall") + bnd.edges("object"))
            want = system.solve(f=f, dirichlet={**dict.fromkeys(zero, 0.0), **data})
            assert np.array_equal(system.solve(f=f, dirichlet=data).data, want.data)

    def test_post_projection_divergence(self):
        mesh = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5)
        solver = TunnelSolver(mesh, 8, cfg,
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        st = FlowState.rest(mesh, 8)
        for _ in range(60):
            st = solver.time_step(st)
        div = solver.divergence_values(st.u, st.v)
        worst = max(np.abs(d[1:-1, 1:-1]).max() for d in div)
        assert worst <= 1e-6 * st.max_speed()

    def test_obstacle_run_no_slip_and_finite(self):
        mesh = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=(1, 1))
        cfg = NsConfig(dt=1.667e-5)
        solver = TunnelSolver(mesh, 8, cfg,
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        st = FlowState.rest(mesh, 8)
        for _ in range(30):
            st = solver.time_step(st)
            assert solver.last_no_slip <= 1e-8
        assert st.finite()
        w = solver.vorticity(st)
        assert all(np.all(np.isfinite(x)) for x in w)

    @pytest.mark.parametrize("field", ["u", "v", "p", "all"])
    def test_state_of_another_mesh_rejected(self, field):
        # a one-element state used to broadcast onto the 11-element tunnel
        mesh = tunnel_mesh(4, 3, width=0.003, height=0.001)
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1e-5), classify_tunnel_boundary(mesh))
        st = FlowState.rest(mesh, 8)
        if field == "all":
            st = FlowState.rest(grid_mesh(1, 1), 8)
        else:
            setattr(st, field, CoeffVector2D(8, np.zeros((1, 64))))
        name = "u" if field == "all" else field
        with pytest.raises(ValueError, match=re.escape(
                f"state field {name} has shape (1, 64), not (11, 64)")):
            solver.time_step(st)

    def test_state_of_another_n_rejected(self):
        solver = single_square_solver(n=8)
        with pytest.raises(ValueError, match=re.escape("has shape (1, 36), not (1, 64)")):
            solver.time_step(FlowState.rest(solver.mesh, 6))

    def test_nan_state_raises_instability(self):
        solver = single_square_solver(dt=1e-3)
        st = FlowState.rest(solver.mesh, solver.n)
        st.u[0].data[0] = np.nan
        with pytest.raises(InstabilityError) as err:
            solver.time_step(st)
        assert err.value.step == 1

    def test_cfl_estimate_by_hand(self):
        # 4 x 3 cells of 0.00075 x 0.001/3: the shortest element side is
        # 0.001/3, and the finest grid spacing at n = 8 is h pi / (2 * 7^2)
        mesh = tunnel_mesh(4, 3, width=0.003, height=0.001)
        dt = 1e-3
        solver = TunnelSolver(mesh, 8, NsConfig(dt=dt),
                              classify_tunnel_boundary(mesh, (1e3, 0.0)))
        u = field_from(lambda x, y: 1e3 * (1 + x / 0.003), solver)
        v = field_from(lambda x, y: -500.0 * y / 0.001, solver)
        st = FlowState(u=u, v=v, p=FlowState.rest(mesh, 8).p)
        speed = st.max_speed()
        assert abs(speed - 2e3) < 1e-9
        want = speed * dt / ((0.001 / 3) * np.pi / (2 * 49))
        assert abs(solver.cfl_estimate(st) - want) <= 1e-12 * want
        # the per-element loop the stacked expression replaced: equal bits
        hmin = min(np.hypot(*(np.roll(v, -1, axis=0) - v).T).min() * np.pi / (2.0 * 7 ** 2)
                   for v in mesh.vertices[mesh.quads])
        assert solver.cfl_estimate(st) == speed * dt / hmin

    def test_cfl_guard_raises_before_the_step(self):
        # from rest the first step is taken; it sets the inflow of 1e3, and
        # the guard stops the second step, which would run at a CFL
        # estimate of 2.5e5
        mesh = tunnel_mesh(4, 3, width=0.003, height=0.001)
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1e-3),
                              classify_tunnel_boundary(mesh, (1e3, 0.0)))
        st = solver.time_step(FlowState.rest(mesh, 8))
        with pytest.raises(InstabilityError, match="CFL estimate") as err:
            solver.time_step(st)
        assert err.value.step == 2
        assert err.value.cfl == solver.cfl_estimate(st) > navierstokes._MAX_CFL

    def test_non_finite_step_reports_the_guard_cfl(self, monkeypatch):
        # a pressure solve gone non-finite: the error carries the estimate
        # the guard took of the state entering the step, not a new transform
        solver = single_square_solver(dt=1e-3)
        st = FlowState(u=field_from(lambda x, y: 0.5 + 0.25 * x * y, solver),
                       v=field_from(lambda x, y: -0.5 * y, solver),
                       p=FlowState.rest(solver.mesh, solver.n).p)
        want = solver.cfl_estimate(st)
        nan = CoeffVector2D(solver.n, np.full((1, solver.n ** 2), np.nan))
        monkeypatch.setattr(solver.pois_p, "solve", lambda **kw: nan)
        monkeypatch.setattr(solver, "cfl_estimate", lambda state: pytest.fail("recomputed"))
        with pytest.raises(InstabilityError, match="after step 1") as err:
            solver.time_step(st)
        assert err.value.step == 1
        assert err.value.cfl == want > 0.0
        assert f"CFL estimate {want:.3g}" in str(err.value)

    def test_cfl_guard_leaves_a_stable_run_unchanged(self, monkeypatch):
        # the benchmark tunnel, whose estimate stays near 2.5
        mesh = tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
        solver = TunnelSolver(mesh, 8, NsConfig(dt=1.667e-5),
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        runs = []
        for bound in (navierstokes._MAX_CFL, np.inf):
            monkeypatch.setattr(navierstokes, "_MAX_CFL", bound)
            st = FlowState.rest(mesh, 8)
            for _ in range(200):
                st = solver.time_step(st)
            runs.append(st)
        guarded, free = runs
        assert 1.0 < solver.cfl_estimate(guarded) < 10.0
        for a, b in ((guarded.u, free.u), (guarded.v, free.v), (guarded.p, free.p)):
            assert np.array_equal(a.data, b.data)


class TestPressureConditions:
    # ROADMAP item 1: the free-slip wall branch of TunnelSolver sets no
    # pressure condition, so walls get the default p = 0 instead of
    # dp/dn = 0; the fix removes this marker
    @pytest.mark.xfail(raises=AssertionError,
                       reason="free-slip walls give the pressure a Dirichlet condition")
    @pytest.mark.parametrize("n", [8, 16])
    def test_pressure_on_the_straight_channel(self, n):
        # p = cos(pi x / 6) on [0, 3] x [0, 1] has dp/dn = 0 at the inlet
        # and on the walls and p = 0 at the outlet, the conditions the
        # module docstring states
        mesh = tunnel_mesh(4, 3, width=3, height=1, hole=None)
        solver = TunnelSolver(mesh, n, NsConfig(dt=1e-3),
                              classify_tunnel_boundary(mesh, (1.0, 0.0)))
        k = np.pi / 6
        p = solver.pois_p.solve(f=lambda x, y: -k * k * np.cos(k * x),
                                dirichlet=0.0, neumann=0.0)
        assert eval_on_grid(solver.pois_p, p, lambda x, y: np.cos(k * x)) <= 1e-8
