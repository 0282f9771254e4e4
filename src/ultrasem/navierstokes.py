"""First-order projection time stepper for incompressible flow.

Velocity and pressure live as per-element Chebyshev coefficients on a
quadrilateral mesh (density and viscosity are 1).  Each step performs the
classic splitting: an implicit screened-Poisson (Helmholtz) solve for a
tentative velocity, a pressure Poisson solve driven by its divergence,
and an explicit divergence-removing correction

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
        if self.dt <= 0:
            raise ValueError("time step must be positive")

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
    """Velocity components, pressure and time for one mesh."""

    u: list
    v: list
    p: list
    t: float = 0.0
    step: int = 0

    @classmethod
    def rest(cls, mesh, n):
        z = lambda: [CoeffVector2D(n) for _ in range(mesh.n_quads)]
        return cls(u=z(), v=z(), p=z())

    def max_speed(self):
        m = 0.0
        for cu, cv in zip(self.u, self.v):
            m = max(m, np.abs(cu.grid_values()).max(),
                    np.abs(cv.grid_values()).max())
        return m

    def finite(self):
        return all(np.all(np.isfinite(c.data))
                   for comp in (self.u, self.v, self.p) for c in comp)


class _ElementGeometry:
    """Pointwise inverse-map factors on the element's tensor grids."""

    def __init__(self, bm, n, fine=None):
        self.bm = bm
        self.grids = {}
        for m in {n} | ({fine} if fine else set()):
            t = ultra.cheb_points(m)
            R, S = np.meshgrid(t, t)
            det = det_polynomial(bm)(R, S)
            self.grids[m] = {
                "rx": (bm.c2 + bm.d2 * R) / det,
                "sx": -(bm.b2 + bm.d2 * S) / det,
                "ry": -(bm.c1 + bm.d1 * R) / det,
                "sy": (bm.b1 + bm.d1 * S) / det,
            }


def _pad(coeffs, m):
    n = coeffs.shape[0]
    if m == n:
        return coeffs
    out = np.zeros((m, m))
    out[:n, :n] = coeffs
    return out


def _grid_gradient(cv, geom, m=None):
    """Physical-gradient values (u_x, u_y) of a coefficient field on the
    element's m-by-m grid (defaults to the field's own resolution)."""
    A = cv.matrix
    m = m or cv.n
    g = geom.grids[m]
    ur = ultra.coeffs_to_vals_2d(_pad(ultra.cheb_diff(A, axis=1), m))
    us = ultra.coeffs_to_vals_2d(_pad(ultra.cheb_diff(A, axis=0), m))
    return ur * g["rx"] + us * g["sx"], ur * g["ry"] + us * g["sy"]


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

        fine = 2 * n if config.dealias else None
        self.geometry = [_ElementGeometry(self.helm_u.maps[f], n, fine)
                         for f in range(mesh.n_quads)]
        self._object_edges = set(boundary.edges("object"))

    # -- spectral derivative helpers ------------------------------------

    def gradient_values(self, fields, m=None):
        """Per-element (d/dx, d/dy) grid values of a coefficient field."""
        return [_grid_gradient(cv, self.geometry[f], m)
                for f, cv in enumerate(fields)]

    def divergence_values(self, ufields, vfields):
        out = []
        for f, (cu, cv) in enumerate(zip(ufields, vfields)):
            ux, _ = _grid_gradient(cu, self.geometry[f])
            _, vy = _grid_gradient(cv, self.geometry[f])
            out.append(ux + vy)
        return out

    def advection_term(self, state):
        """Grid values of ``(u . grad) u`` per element, for each component.
        With dealiasing enabled the pointwise products are formed on a 2n
        grid and truncated back to n."""
        n = self.n
        m = 2 * n if self.config.dealias else n
        ax, ay = [], []
        for f, (cu, cv) in enumerate(zip(state.u, state.v)):
            ux, uy = _grid_gradient(cu, self.geometry[f], m)
            vx, vy = _grid_gradient(cv, self.geometry[f], m)
            uvals = ultra.coeffs_to_vals_2d(_pad(cu.matrix, m))
            vvals = ultra.coeffs_to_vals_2d(_pad(cv.matrix, m))
            tx = uvals * ux + vvals * uy
            ty = uvals * vx + vvals * vy
            if m != n:
                tx = ultra.coeffs_to_vals_2d(ultra.vals_to_coeffs_2d(tx)[:n, :n])
                ty = ultra.coeffs_to_vals_2d(ultra.vals_to_coeffs_2d(ty)[:n, :n])
            ax.append(tx)
            ay.append(ty)
        return ax, ay

    def vorticity(self, state):
        """Grid values of ``dv/dx - du/dy`` per element."""
        out = []
        for f, (cu, cv) in enumerate(zip(state.u, state.v)):
            _, uy = _grid_gradient(cu, self.geometry[f])
            vx, _ = _grid_gradient(cv, self.geometry[f])
            out.append(vx - uy)
        return out

    def no_slip_residual(self, ufields, vfields):
        """Largest velocity magnitude at object-boundary grid points."""
        n, worst = self.n, 0.0
        for f in range(self.mesh.n_quads):
            locs = [l for l in range(4)
                    if self.mesh.local_edge(f, l) in self._object_edges]
            if not locs:
                continue
            uu = ufields[f].grid_values()
            vv = vfields[f].grid_values()
            sel = {0: (slice(n - 1, n), slice(None)), 1: (slice(None), slice(0, 1)),
                   2: (slice(0, 1), slice(None)), 3: (slice(None), slice(n - 1, n))}
            for l in locs:
                worst = max(worst, np.abs(uu[sel[l]]).max(), np.abs(vv[sel[l]]).max())
        return worst

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
        rhs_u = [ax[f] - state.u[f].grid_values() / dt
                 for f in range(self.mesh.n_quads)]
        rhs_v = [ay[f] - state.v[f].grid_values() / dt
                 for f in range(self.mesh.n_quads)]
        u_star = self.helm_u.solve(f=rhs_u, dirichlet=self._dir_u, neumann=0.0)
        v_star = self.helm_v.solve(f=rhs_v, dirichlet=self._dir_v, neumann=0.0)
        self.last_star = (u_star, v_star)
        self.last_no_slip = self.no_slip_residual(u_star, v_star)

        div = self.divergence_values(u_star, v_star)
        p = self.pois_p.solve(f=[d / dt for d in div], dirichlet=0.0, neumann=0.0)

        unew, vnew = [], []
        for f in range(self.mesh.n_quads):
            px, py = _grid_gradient(p[f], self.geometry[f])
            uvals = u_star[f].grid_values() - dt * px
            vvals = v_star[f].grid_values() - dt * py
            unew.append(CoeffVector2D.from_matrix(ultra.vals_to_coeffs_2d(uvals)))
            vnew.append(CoeffVector2D.from_matrix(ultra.vals_to_coeffs_2d(vvals)))
        new = FlowState(u=unew, v=vnew, p=p, t=state.t + dt, step=state.step + 1)
        if not new.finite():
            raise InstabilityError(
                f"non-finite values after step {new.step}"
                f" (advective CFL estimate {self.cfl_estimate(state):.3g})",
                step=new.step, cfl=self.cfl_estimate(state))
        return new

    def cfl_estimate(self, state):
        """Advective CFL number against the finest grid spacing."""
        hmin = np.inf
        for f in range(self.mesh.n_quads):
            v = self.mesh.vertices[self.mesh.quads[f]]
            lengths = np.hypot(*(np.roll(v, -1, axis=0) - v).T)
            hmin = min(hmin, lengths.min() * np.pi / (2.0 * (self.n - 1) ** 2))
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
                diagnostics(state, max(np.abs(d).max() for d in div))
        return state


def tunnel_mesh(nx=4, ny=3, width=0.03, height=0.01, hole=(1, 1)):
    """Rectangular wind-tunnel mesh with one cell removed as the test
    object (flow runs left to right)."""
    return grid_mesh(nx, ny, x0=0.0, y0=0.0, width=width, height=height,
                     skip={tuple(hole)} if hole is not None else set())
