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

import numbers
from dataclasses import dataclass

import numpy as np

from . import ultra
from .element import CoeffVector2D, PdeCoefficients, check_n
from .errors import GeometryError, InstabilityError, MeshError
from .mesh import grid_mesh
from .quadmap import det_polynomial
from .schur import assemble_schur


# A step whose advective CFL estimate exceeds this is not taken.  The
# estimate reads 2.5 to 9.9 on stable tunnel runs (the viscous term is
# implicit) and reaches 2.6e5 on a runaway one.
_MAX_CFL = 1e3

# An edge lies on a side of the mesh's bounding box when both its ends lie
# within this fraction of the box's larger extent of that side.
_SIDE_TOL = 1e-9


@dataclass
class NsConfig:
    """Time stepping parameters; the screening constant of the implicit
    velocity solve is ``1/dt``."""

    dt: float
    dealias: bool = False

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"time step must be finite and positive, not {self.dt}")

    @property
    def k2(self):
        return 1.0 / self.dt


class TunnelBoundary:
    """Per-edge labels ``inlet``, ``outlet``, ``wall`` (free slip) or ``object`` (no slip)
    of a wind tunnel, keyed by integer edge numbers, and the inlet velocity: a pair
    ``(u, v)`` whose components are each a constant or a callable ``(x, y)``."""

    KINDS = ("inlet", "outlet", "wall", "object")

    def __init__(self, mesh, labels, inlet_velocity=(0.0, 0.0)):
        uv = inlet_velocity
        listed = isinstance(uv, (tuple, list)) or isinstance(uv, np.ndarray) and uv.ndim == 1
        if not (listed and len(uv) == 2
                and all(callable(c) or isinstance(c, numbers.Real) for c in uv)):
            raise ValueError(f"inlet velocity {uv!r} is not a pair (u, v) of constants or callables")
        self.inlet_u, self.inlet_v = uv
        self.labels = {mesh.edge_number(e, MeshError, f"labeled {kind!r}"): kind
                       for e, kind in dict(labels).items()}
        edges = np.fromiter(self.labels, dtype=int, count=len(self.labels))
        valid = np.zeros(mesh.n_edges, dtype=bool)  # labeled with one of KINDS
        valid[edges] = np.isin(list(self.labels.values()), self.KINDS)
        bad = np.where(mesh.boundary_edge, ~valid, np.isin(np.arange(mesh.n_edges), edges))
        if bad.any():
            e = np.argmax(bad)
            raise MeshError(f"boundary edge {e} is unlabeled" if mesh.boundary_edge[e]
                            else f"edge {e} is interior and cannot be labeled")

    def edges(self, kind):
        return [e for e, k in self.labels.items() if k == kind]


def classify_tunnel_boundary(mesh, inlet_velocity=(0.0, 0.0)):
    """Label boundary edges by bounding-box position: left side inlet,
    right side outlet, top/bottom walls, anything else (interior holes)
    is a no-slip object."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    eps = _SIDE_TOL * (hi - lo).max()
    b = np.flatnonzero(mesh.boundary_edge)
    ends = mesh.vertices[mesh.edges[b]]  # (B, 2 ends, 2 coordinates)
    on_lo = (np.abs(ends - lo) < eps).all(axis=1)  # (B, 2): both ends on x = lo[0]; on y = lo[1]
    on_hi = (np.abs(ends - hi) < eps).all(axis=1)
    kind = np.select([on_lo[:, 0], on_hi[:, 0], on_lo[:, 1] | on_hi[:, 1]],
                     ["inlet", "outlet", "wall"], "object")
    return TunnelBoundary(mesh, dict(zip(b.tolist(), kind.tolist())), inlet_velocity)


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
        self.n = n = check_n(n)
        self.config = config
        self.boundary = boundary
        helm = PdeCoefficients.screened(config.k2)
        pois = PdeCoefficients.poisson()

        bc_u, bc_v, bc_p = {}, {}, {}
        for e, kind in boundary.labels.items():
            if kind in ("inlet", "object"):
                bc_u[e] = bc_v[e] = "dirichlet"
                bc_p[e] = "neumann"
            elif kind == "outlet":
                bc_u[e] = bc_v[e] = "neumann"
                bc_p[e] = "dirichlet"
            else:  # free-slip wall: zero normal velocity, zero tangential shear
                p, q = mesh.vertices[mesh.edges[e]]
                d = q - p
                if abs(d[0]) <= 1e-12 * max(1.0, abs(d[1])):
                    bc_u[e], bc_v[e] = "dirichlet", "neumann"  # vertical wall
                elif abs(d[1]) <= 1e-12 * max(1.0, abs(d[0])):
                    bc_u[e], bc_v[e] = "neumann", "dirichlet"  # horizontal wall
                else:
                    raise GeometryError(
                        "free-slip walls must be axis aligned for the "
                        "componentwise velocity solves")
        # velocity data on the inlet alone: the Dirichlet edges of walls and
        # objects, which the dicts leave out, get zero data
        inlet = boundary.edges("inlet")
        self._dir_u = dict.fromkeys(inlet, boundary.inlet_u)
        self._dir_v = dict.fromkeys(inlet, boundary.inlet_v)

        self.helm_u = assemble_schur(mesh, helm, n, bc=bc_u)
        self.helm_v = assemble_schur(mesh, helm, n, bc=bc_v)
        self.pois_p = assemble_schur(mesh, pois, n, bc=bc_p, pin_value_point=True)

        # the finest Chebyshev grid spacing, for the CFL estimate
        c = mesh.vertices[mesh.quads]  # (F, 4, 2) element corners
        d = np.roll(c, -1, axis=1) - c
        self._hmin = np.hypot(d[..., 0], d[..., 1]).min() * np.pi / (2.0 * (self.n - 1) ** 2)

        # per grid size m (n, and 2n when dealiasing): value and derivative
        # rows of the n Chebyshev modes at the m grid points, and the
        # inverse-map factors r_x, s_x, r_y, s_y stacked over the elements
        bm = self.helm_u.maps[:, None, None]
        self._grids = {}
        for m in {n, 2 * n if config.dealias else n}:
            t = ultra.cheb_points(m)
            R, S = np.meshgrid(t, t)
            det = det_polynomial(bm)(R, S)
            rx, ry, sx, sy = bm.adjugate(R, S)
            self._grids[m] = (ultra.eval_row(t, n), ultra.deriv_eval_row(t, n),
                              rx / det, sx / det, ry / det, sy / det)
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
        (ux, _), (_, vy) = self._gradient(np.array([ufields.matrix, vfields.matrix]))
        return ux + vy

    def advection_term(self, state):
        """Grid values of ``(u . grad) u``, stacked (F, n, n), for each
        component.  With dealiasing enabled the pointwise products are
        formed on a 2n grid and truncated back to n."""
        n = self.n
        m = 2 * n if self.config.dealias else n
        # np.array stacks these small fields in half the time np.stack takes
        UV = np.array([state.u.matrix, state.v.matrix])
        (ux, vx), (uy, vy) = self._gradient(UV, m)
        T = self._grids[m][0]
        u, v = T @ UV @ T.T
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
        """One projection step; returns the new state.  The no-slip
        residual of the tentative velocity of sub-step 1 is kept on the
        solver (``last_no_slip``) for diagnostics.  Raises ``ValueError``
        on fields not (F, n^2) for the solver's mesh and n, and
        :class:`InstabilityError` on a non-finite state, and before a step
        whose CFL estimate exceeds ``_MAX_CFL``."""
        n, dt = self.n, self.config.dt
        for name, field in (("u", state.u), ("v", state.v), ("p", state.p)):
            if field.data.shape != (self.mesh.n_quads, n * n):
                raise ValueError(f"state field {name} has shape {field.data.shape}, "
                                 f"not {(self.mesh.n_quads, n * n)} for this solver")
        if not state.finite():
            raise InstabilityError(
                f"non-finite values entering step {state.step + 1}",
                step=state.step + 1, cfl=None)
        # the values of (u, v), read by the guard and the velocity solves
        u, v = vals = ultra.coeffs_to_vals_2d(np.stack([state.u.matrix, state.v.matrix]))
        cfl = float(np.abs(vals).max()) * dt / self._hmin
        if cfl > _MAX_CFL:
            raise InstabilityError(
                f"advective CFL estimate {cfl:.3g} exceeds {_MAX_CFL:g}"
                f" before step {state.step + 1}", step=state.step + 1, cfl=cfl)
        ax, ay = self.advection_term(state)
        u_star = self.helm_u.solve(f=ax - u / dt, dirichlet=self._dir_u, neumann=0.0)
        v_star = self.helm_v.solve(f=ay - v / dt, dirichlet=self._dir_v, neumann=0.0)
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
                f" (advective CFL estimate {cfl:.3g})", step=new.step, cfl=cfl)
        return new

    def cfl_estimate(self, state):
        """Advective CFL number against the finest grid spacing."""
        return state.max_speed() * self.config.dt / self._hmin


def tunnel_mesh(nx=4, ny=3, width=0.03, height=0.01, hole=(1, 1)):
    """Rectangular wind-tunnel mesh with one cell removed as the test
    object (flow runs left to right)."""
    return grid_mesh(nx, ny, x0=0.0, y0=0.0, width=width, height=height,
                     skip={tuple(hole)} if hole is not None else set())
