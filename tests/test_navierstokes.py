import numpy as np
import pytest

from ultrasem import ultra
from ultrasem.element import CoeffVector2D
from ultrasem.errors import GeometryError, InstabilityError, MeshError
from ultrasem.mesh import build_mesh
from ultrasem.navierstokes import (
    FlowState,
    NsConfig,
    TunnelBoundary,
    TunnelSolver,
    classify_tunnel_boundary,
    tunnel_mesh,
)


def single_square_solver(n=8, dt=1e-3, dealias=False, inlet=(0.0, 0.0)):
    mesh = build_mesh([(-1, -1), (1, -1), (1, 1), (-1, 1)], [(0, 1, 2, 3)])
    cfg = NsConfig(dt=dt, steps=1, dealias=dealias)
    bnd = classify_tunnel_boundary(mesh, inlet_velocity=inlet)
    return TunnelSolver(mesh, n, cfg, bnd)


def field_from(fn, solver):
    n = solver.n
    t = ultra.cheb_points(n)
    R, S = np.meshgrid(t, t)
    out = []
    for f in range(solver.mesh.n_quads):
        X, Y = solver.helm_u.maps[f](R, S)
        out.append(CoeffVector2D.from_matrix(
            ultra.vals_to_coeffs_2d(fn(X, Y) + 0 * X)))
    return out


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

    def test_slanted_wall_rejected(self):
        verts = [(0, 0), (1, 0.2), (1, 1), (0, 1)]
        mesh = build_mesh(verts, [(0, 1, 2, 3)])
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


class TestTimeStepping:
    def test_zero_input_fixed_point(self):
        mesh = tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5, steps=100)
        solver = TunnelSolver(mesh, 6, cfg,
                              classify_tunnel_boundary(mesh, (0.0, 0.0)))
        st = FlowState.rest(mesh, 6)
        for _ in range(100):
            st = solver.time_step(st)
        assert st.max_speed() <= 1e-12
        assert max(np.abs(p.data).max() for p in st.p) <= 1e-12

    def test_channel_converges_to_uniform_flow(self):
        mesh = tunnel_mesh(nx=4, ny=2, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5, steps=60)
        solver = TunnelSolver(mesh, 8, cfg,
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        st = FlowState.rest(mesh, 8)
        deltas = []
        for _ in range(60):
            new = solver.time_step(st)
            deltas.append(max(np.abs(a.data - b.data).max()
                              for a, b in zip(new.u, st.u)))
            st = new
        # contraction toward the uniform steady state after the transient
        assert deltas[20] < deltas[2]
        assert deltas[-1] <= deltas[20]
        t = ultra.cheb_points(8)
        R, S = np.meshgrid(t, t)
        for f in range(mesh.n_quads):
            assert np.max(np.abs(st.u[f].eval(R, S) - 0.6)) < 1e-7
            assert np.max(np.abs(st.v[f].eval(R, S))) < 1e-7

    def test_post_projection_divergence(self):
        mesh = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5, steps=60)
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
        cfg = NsConfig(dt=1.667e-5, steps=30)
        solver = TunnelSolver(mesh, 8, cfg,
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        st = FlowState.rest(mesh, 8)
        for _ in range(30):
            st = solver.time_step(st)
            assert solver.last_no_slip <= 1e-8
        assert st.finite()
        w = solver.vorticity(st)
        assert all(np.all(np.isfinite(x)) for x in w)

    def test_nan_state_raises_instability(self):
        solver = single_square_solver(dt=1e-3)
        st = FlowState.rest(solver.mesh, solver.n)
        st.u[0].data[0] = np.nan
        with pytest.raises(InstabilityError) as err:
            solver.time_step(st)
        assert err.value.step == 1

    def test_run_frames_and_diagnostics(self):
        mesh = tunnel_mesh(nx=3, ny=2, width=0.003, height=0.001, hole=None)
        cfg = NsConfig(dt=1.667e-5, steps=200, cadence=50)
        solver = TunnelSolver(mesh, 6, cfg,
                              classify_tunnel_boundary(mesh, (0.6, 0.0)))
        frames, diags = [], []
        st = solver.run(FlowState.rest(mesh, 6),
                        on_frame=lambda s: frames.append(s.step),
                        diagnostics=lambda s, d: diags.append((s.step, d)))
        assert frames == [0, 50, 100, 150, 200]
        assert [s for s, _ in diags] == [100, 200]
        assert st.step == 200
