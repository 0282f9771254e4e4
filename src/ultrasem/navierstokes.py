"""First-order projection time stepper for incompressible flow.

Velocity and pressure live as Chebyshev coefficients stacked over the
elements of a quadrilateral mesh (density and viscosity are 1).  Each
step performs the classic splitting: an implicit screened-Poisson
(Helmholtz) solve for a tentative velocity, a pressure Poisson solve
driven by its divergence, and an explicit divergence-removing correction

    lap(u*) - u*/dt = (u.grad)u - u/dt        velocity conditions
    lap(p)         = div(u*)/dt               dp/dn = 0, p fixed at outlet
    u_next         = u* - dt grad(p)

Wind-tunnel boundaries are labeled per exterior edge: inlet (fixed
velocity), outlet (fixed pressure, zero velocity gradient), free-slip
walls (axis aligned) and no-slip test objects.
"""

from dataclasses import dataclass

import numpy as np

from . import ultra
from .element import CoeffVector2D, PdeCoefficients
from .errors import GeometryError, InstabilityError, MeshError
from .mesh import grid_mesh
from .quadmap import det_polynomial
from .schur import assemble_schur


@dataclass
class NsConfig:
    """Time stepping parameters; the screening constant of the implicit
    velocity solve is ``1/dt``."""

    dt: float
    steps: int = 100
    cadence: int = 0  # snapshot every this many steps; 0 disables
    dealias: bool = False

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"time step must be finite and positive, not {self.dt}")
        for name in ("steps", "cadence"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, not {getattr(self, name)}")

    @property
    def k2(self):
        return 1.0 / self.dt


class TunnelBoundary:
    """Per-edge labels for a wind tunnel: ``inlet``, ``outlet``, ``wall``
    (free slip) or ``object`` (no slip), plus the inlet velocity."""

    KINDS = ("inlet", "outlet", "wall", "object")

    def __init__(self, mesh, labels, inlet_velocity=(0.0, 0.0)):
        self.labels = dict(labels)
        ux, uy = inlet_velocity if isinstance(inlet_velocity, tuple) \
            else (inlet_velocity, 0.0)
        self.inlet_u = ux if callable(ux) else (lambda x, y, c=float(ux): c)
        self.inlet_v = uy if callable(uy) else (lambda x, y, c=float(uy): c)
        for e in range(mesh.n_edges):
            if mesh.boundary_edge[e]:
                if self.labels.get(e) not in self.KINDS:
                    raise MeshError(f"boundary edge {e} is unlabeled")
            elif e in self.labels:
                raise MeshError(f"edge {e} is interior and cannot be labeled")

    def edges(self, kind):
        return [e for e, k in self.labels.items() if k == kind]


def classify_tunnel_boundary(mesh, inlet_velocity=(0.0, 0.0), tol=1e-9):
    """Label boundary edges by bounding-box position: left side inlet,
    right side outlet, top/bottom walls, anything else (interior holes)
    is a no-slip object."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    eps = tol * max(hi[0] - lo[0], hi[1] - lo[1])
    labels = {}
    for e in range(mesh.n_edges):
        if not mesh.boundary_edge[e]:
            continue
        p, q = mesh.vertices[mesh.edges[e]]
        if abs(p[0] - lo[0]) < eps and abs(q[0] - lo[0]) < eps:
            labels[e] = "inlet"
        elif abs(p[0] - hi[0]) < eps and abs(q[0] - hi[0]) < eps:
            labels[e] = "outlet"
        elif (abs(p[1] - lo[1]) < eps and abs(q[1] - lo[1]) < eps) or \
             (abs(p[1] - hi[1]) < eps and abs(q[1] - hi[1]) < eps):
            labels[e] = "wall"
        else:
            labels[e] = "object"
    return TunnelBoundary(mesh, labels, inlet_velocity)


@dataclass
class FlowState:
    """Velocity components and pressure, each one stacked
    :class:`CoeffVector2D` over the elements, and the time of one mesh."""

    u: CoeffVector2D
    v: CoeffVector2D
    p: CoeffVector2D
    t: float = 0.0
    step: int = 0

    @classmethod
    def rest(cls, mesh, n):
        z = lambda: CoeffVector2D(n, np.zeros((mesh.n_quads, n * n)))
        return cls(u=z(), v=z(), p=z())

    def max_speed(self):
        uv = np.stack([self.u.matrix, self.v.matrix])
        return float(np.abs(ultra.coeffs_to_vals_2d(uv)).max())

    def finite(self):
        return bool(np.isfinite(np.stack([self.u.data, self.v.data, self.p.data])).all())


class TunnelSolver:
    """Cached factorizations and geometry for a wind-tunnel simulation."""

    def __init__(self, mesh, n, config, boundary):
        self.mesh = mesh
        self.n = int(n)
        self.config = config
        self.boundary = boundary
        helm = PdeCoefficients.screened(config.k2)
        pois = PdeCoefficients.poisson()

        bc_u, bc_v, bc_p = {}, {}, {}
        self._dir_u, self._dir_v = {}, {}
        for e, kind in boundary.labels.items():
            if kind == "inlet":
                bc_u[e] = bc_v[e] = "dirichlet"
                bc_p[e] = "neumann"
                self._dir_u[e] = boundary.inlet_u
                self._dir_v[e] = boundary.inlet_v
            elif kind == "outlet":
                bc_u[e] = bc_v[e] = "neumann"
                bc_p[e] = "dirichlet"
            elif kind == "object":
                bc_u[e] = bc_v[e] = "dirichlet"
                bc_p[e] = "neumann"
                self._dir_u[e] = 0.0
                self._dir_v[e] = 0.0
            else:  # free-slip wall: zero normal velocity, zero tangential shear
                p, q = mesh.vertices[mesh.edges[e]]
                d = q - p
                if abs(d[0]) <= 1e-12 * max(1.0, abs(d[1])):
                    bc_u[e], bc_v[e] = "dirichlet", "neumann"  # vertical wall
                    self._dir_u[e] = 0.0
                elif abs(d[1]) <= 1e-12 * max(1.0, abs(d[0])):
                    bc_u[e], bc_v[e] = "neumann", "dirichlet"  # horizontal wall
                    self._dir_v[e] = 0.0
                else:
                    raise GeometryError(
                        "free-slip walls must be axis aligned for the "
                        "componentwise velocity solves")

        self.helm_u = assemble_schur(mesh, helm, n, bc=bc_u)
        self.helm_v = assemble_schur(mesh, helm, n, bc=bc_v)
        self.pois_p = assemble_schur(mesh, pois, n, bc=bc_p, pin_value_point=True)

        # per grid size m (n, and 2n when dealiasing): value and derivative
        # rows of the n Chebyshev modes at the m grid points, and the
        # inverse-map factors r_x, s_x, r_y, s_y stacked over the elements
        bm = self.helm_u.maps[:, None, None]
        self._grids = {}
        for m in {n, 2 * n if config.dealias else n}:
            t = ultra.cheb_points(m)
            R, S = np.meshgrid(t, t)
            det = det_polynomial(bm)(R, S)
            self._grids[m] = (ultra.eval_row(t, n), ultra.deriv_eval_row(t, n),
                              (bm.c2 + bm.d2 * R) / det, -(bm.b2 + bm.d2 * S) / det,
                              -(bm.c1 + bm.d1 * R) / det, (bm.b1 + bm.d1 * S) / det)
        # grid points on no-slip object edges: row s = 1, column r = -1,
        # row s = -1 and column r = 1 for local edges 0..3
        self._on_object = np.zeros((mesh.n_quads, n, n), dtype=bool)
        sides = ((-1, slice(None)), (slice(None), 0), (0, slice(None)), (slice(None), -1))
        on = np.isin(mesh.quad_edge, boundary.edges("object"))
        for l, side in enumerate(sides):
            self._on_object[(on[:, l],) + side] = True

    # -- spectral derivative helpers ------------------------------------

    def _gradient(self, A, m=None):
        """Physical-gradient values (u_x, u_y) on the m-by-m grids of
        stacked coefficients ``A`` (defaults to the field resolution)."""
        T, dT, rx, sx, ry, sy = self._grids[m or self.n]
        ur = T @ A @ dT.T
        us = dT @ A @ T.T
        return ur * rx + us * sx, ur * ry + us * sy

    def divergence_values(self, ufields, vfields):
        """Grid values of ``du/dx + dv/dy``, stacked (F, n, n)."""
        ux, _ = self._gradient(ufields.matrix)
        _, vy = self._gradient(vfields.matrix)
        return ux + vy

    def advection_term(self, state):
        """Grid values of ``(u . grad) u``, stacked (F, n, n), for each
        component.  With dealiasing enabled the pointwise products are
        formed on a 2n grid and truncated back to n."""
        n = self.n
        m = 2 * n if self.config.dealias else n
        U, V = state.u.matrix, state.v.matrix
        ux, uy = self._gradient(U, m)
        vx, vy = self._gradient(V, m)
        T = self._grids[m][0]
        u, v = T @ U @ T.T, T @ V @ T.T
        terms = np.stack([u * ux + v * uy, u * vx + v * vy])
        if m != n:
            terms = ultra.coeffs_to_vals_2d(ultra.vals_to_coeffs_2d(terms)[..., :n, :n])
        return terms[0], terms[1]

    def vorticity(self, state):
        """Grid values of ``dv/dx - du/dy``, stacked (F, n, n)."""
        _, uy = self._gradient(state.u.matrix)
        vx, _ = self._gradient(state.v.matrix)
        return vx - uy

    def _no_slip_max(self, uv):
        """Largest velocity magnitude at object-boundary grid points of
        stacked (2, F, n, n) grid values."""
        return float(np.abs(uv[:, self._on_object]).max(initial=0.0))

    # -- stepping -----------------------------------------------------------

    def time_step(self, state):
        """One projection step; returns the new state.  The tentative
        velocity of sub-step 1 and its no-slip residual are kept on the
        solver (``last_star``, ``last_no_slip``) for diagnostics."""
        n, dt = self.n, self.config.dt
        if not state.finite():
            raise InstabilityError(
                f"non-finite values entering step {state.step + 1}",
                step=state.step + 1, cfl=None)
        ax, ay = self.advection_term(state)
        u, v = ultra.coeffs_to_vals_2d(np.stack([state.u.matrix, state.v.matrix]))
        u_star = self.helm_u.solve(f=ax - u / dt, dirichlet=self._dir_u, neumann=0.0)
        v_star = self.helm_v.solve(f=ay - v / dt, dirichlet=self._dir_v, neumann=0.0)
        self.last_star = (u_star, v_star)
        # the values of (u*, v*), transformed once for the no-slip residual
        # and the projection
        uv = ultra.coeffs_to_vals_2d(np.stack([u_star.matrix, v_star.matrix]))
        self.last_no_slip = self._no_slip_max(uv)

        div = self.divergence_values(u_star, v_star)
        p = self.pois_p.solve(f=div / dt, dirichlet=0.0, neumann=0.0)

        # the projection, and one transform back
        uv -= dt * np.stack(self._gradient(p.matrix))
        unew, vnew = CoeffVector2D.from_matrix(ultra.vals_to_coeffs_2d(uv))
        new = FlowState(u=unew, v=vnew, p=p, t=state.t + dt, step=state.step + 1)
        if not new.finite():
            raise InstabilityError(
                f"non-finite values after step {new.step}"
                f" (advective CFL estimate {self.cfl_estimate(state):.3g})",
                step=new.step, cfl=self.cfl_estimate(state))
        return new

    def cfl_estimate(self, state):
        """Advective CFL number against the finest grid spacing."""
        v = self.mesh.vertices[self.mesh.quads]  # (F, 4, 2) element corners
        d = np.roll(v, -1, axis=1) - v
        hmin = np.hypot(d[..., 0], d[..., 1]).min() * np.pi / (2.0 * (self.n - 1) ** 2)
        return state.max_speed() * self.config.dt / hmin

    def run(self, state, steps=None, on_frame=None, diagnostics=None):
        """Advance ``steps`` steps (default from the config).  ``on_frame``
        is called with the state at step 0 and then every ``cadence``
        steps; ``diagnostics`` is called every 100 steps with the state
        and its post-projection divergence."""
        steps = self.config.steps if steps is None else steps
        if on_frame is not None and self.config.cadence:
            on_frame(state)
        for _ in range(steps):
            state = self.time_step(state)
            if on_frame is not None and self.config.cadence and \
                    state.step % self.config.cadence == 0:
                on_frame(state)
            if diagnostics is not None and state.step % 100 == 0:
                div = self.divergence_values(state.u, state.v)
                diagnostics(state, float(np.abs(div).max()))
        return state


def tunnel_mesh(nx=4, ny=3, width=0.03, height=0.01, hole=(1, 1)):
    """Rectangular wind-tunnel mesh with one cell removed as the test
    object (flow runs left to right)."""
    return grid_mesh(nx, ny, x0=0.0, y0=0.0, width=width, height=height,
                     skip={tuple(hole)} if hole is not None else set())
