"""Command-line front end: solving, benchmarking and mesh inspection.

Subcommands: ``solve``, ``cond-bench``, ``ns-run``, ``mesh-info``.  Each
option has one form: the screening constant is part of the PDE spec
(``--pde screened:K``) and ``--dealias``/``--no-dealias`` are a flag pair.
Exit codes distinguish failure categories: 2 format/parse errors, 3 solver
errors, 4 time-integration instability, 5 I/O errors.

Output files are deterministic: fixed ordering and floats printed with 17
significant digits.  A ``cond-bench`` report has three header lines, so
``numpy.loadtxt(path, skiprows=3)`` reads its ``eps kappa1 kappainf`` rows.
"""

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import ultra
from .element import (PdeCoefficients, assemble_element_operator, check_n,
                      operator_condition)
from .errors import (ExpressionError, InstabilityError, MeshFormatError,
                     UltrasemError)
from .expressions import compile_expression
from .mesh import interface_bandwidth, order_interfaces, quality, read_mesh
from .navierstokes import (FlowState, NsConfig, TunnelSolver,
                           classify_tunnel_boundary)
from .quadmap import Quad, poly2d_eval
from .schur import assemble_schur

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_SOLVER = 3
EXIT_INSTABILITY = 4
EXIT_IO = 5


def _fmt(x):
    return f"{float(x):.17g}"


# ----------------------------------------------------------------------
# conditioning benchmark


def skinny_quad(eps):
    """The skinny benchmark quadrilateral family (counterclockwise)."""
    if isinstance(eps, (bool, np.bool_)) or not 0 < eps < np.inf:
        raise ValueError(f"eps must be finite and positive, not {eps}")
    return Quad([(0.0, 0.0), (1.0, 1.0 - 0.5 * eps),
                 (1.0, 1.0), (0.5, 0.5 + 0.5 * eps)])


def _check_sweep(eps):
    if any(isinstance(x, (bool, np.bool_)) for x in np.asarray(eps, dtype=object).ravel()):
        raise ValueError(f"eps values must be numbers, not {eps!r}")
    e = np.asarray(eps, dtype=float)
    if not e.size:
        raise ValueError("eps sweep is empty")
    if np.any(e <= 0) or np.any(np.diff(e) >= 0):
        raise ValueError("eps values must be positive and descending")


@dataclass
class BenchReport:
    """Condition numbers of the row-scaled skinny-quad operator over a
    descending sweep of the degeneracy parameter."""

    n: int
    eps: list
    kappa1: list
    kappainf: list

    def __post_init__(self):
        _check_sweep(self.eps)

    def to_text(self):
        lines = ["ultrasem-condbench 1", f"n {self.n}", "eps kappa1 kappainf"]
        for e, k1, ki in zip(self.eps, self.kappa1, self.kappainf):
            lines.append(f"{_fmt(e)} {_fmt(k1)} {_fmt(ki)}")
        return "\n".join(lines) + "\n"

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())


def cond_bench(epsilons, n):
    """Row-scaled Poisson operator condition numbers on the skinny family.
    The sweep and every eps are checked before any operator is built."""
    _check_sweep(epsilons)
    quads = [skinny_quad(eps) for eps in epsilons]
    pde = PdeCoefficients.poisson()
    k1s, kis = [], []
    for quad in quads:
        op = assemble_element_operator(pde, quad, n)
        k1, ki = operator_condition(op)
        k1s.append(k1)
        kis.append(ki)
    return BenchReport(n=n, eps=list(epsilons), kappa1=k1s, kappainf=kis)


# ----------------------------------------------------------------------
# sampled-field files


def write_fields_file(path, mesh_path, n, fields, time=None):
    """Write n-by-n sampled grids per element.  ``fields`` maps names to
    stacked (F, n, n) arrays and holds the grid coordinates ``x`` and
    ``y``, which lead every row."""
    names = ["x", "y"] + [name for name in fields if name not in ("x", "y")]
    rows = np.stack([fields[name] for name in names], axis=-1).reshape(-1, n * n, len(names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("ultrasem-fields 1\n")
        fh.write(f"mesh {mesh_path}\n")
        fh.write(f"n {n}\n")
        if time is not None:
            fh.write(f"time {_fmt(time)}\n")
        fh.write("fields " + " ".join(names) + "\n")
        for k, element in enumerate(rows):
            fh.write(f"element {k}\n")
            for row in element:
                fh.write(" ".join(_fmt(v) for v in row) + "\n")


# ----------------------------------------------------------------------
# PDE selection


def _pde_from_args(args, mesh):
    name, _, body = args.pde.partition(":")
    if args.pde == "poisson":
        return PdeCoefficients.poisson()
    if name == "screened":
        try:
            k2 = float(body)
        except ValueError:
            raise ExpressionError("screened pde needs its screening constant, "
                                  f"'screened:K', not '{args.pde}'") from None
        return PdeCoefficients.screened(k2)
    if name == "general":
        return _general_pde(args.pde, mesh)
    raise ExpressionError(f"unknown pde '{args.pde}'")


def _general_pde(spec, mesh):
    """Parse 'general:a11=EXPR;a12=EXPR;...'; coefficients must be
    polynomials of degree <= 2 per variable, fitted exactly over the mesh
    bounding box."""
    _, _, body = spec.partition(":")
    if not body:
        raise ExpressionError(
            "general pde needs coefficient assignments, e.g. "
            "'general:a11=1;a22=1+x;c=-1'")
    tables = {}
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    cx = 0.5 * (lo[0] + hi[0]), 0.5 * max(hi[0] - lo[0], 1e-30)
    cy = 0.5 * (lo[1] + hi[1]), 0.5 * max(hi[1] - lo[1], 1e-30)
    tx = cx[0] + cx[1] * ultra.cheb_points(3)
    ty = cy[0] + cy[1] * ultra.cheb_points(3)
    Vx = np.vander(tx, 3, increasing=True)
    Vy = np.vander(ty, 3, increasing=True)
    X, Y = np.meshgrid(tx, ty, indexing="ij")
    # probe points that verify each fit
    PX, PY = np.meshgrid(np.linspace(lo[0], hi[0], 7), np.linspace(lo[1], hi[1], 7),
                         indexing="ij")
    for item in body.split(";"):
        name, _, ex = item.partition("=")
        name = name.strip()
        if name not in ("a11", "a12", "a22", "b1", "b2", "c"):
            raise ExpressionError(f"unknown pde coefficient '{name}'")
        if name in tables:
            raise ExpressionError(f"pde coefficient '{name}' is assigned twice")
        fn = compile_expression(ex)
        # verify the fit: the coefficient really is such a polynomial; a
        # non-finite value fails the check instead of warning
        with np.errstate(all="ignore"):
            table = np.linalg.solve(Vx, np.linalg.solve(Vy, fn(X, Y).T).T)
            ref = fn(PX, PY)
            err = np.abs(poly2d_eval(table, PX, PY) - ref).max()
        if not err <= 1e-8 * max(1.0, np.abs(ref).max()):
            raise ExpressionError(
                f"coefficient '{name}' is not a finite polynomial of degree <= 2")
        tables[name] = table
    return PdeCoefficients(**tables)


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(args):
    mesh = read_mesh(args.mesh)
    pde = _pde_from_args(args, mesh)
    rhs = compile_expression(args.rhs) if args.rhs else None
    bc = compile_expression(args.bc) if args.bc else 0.0
    system = assemble_schur(mesh, pde, args.n)
    if args.exact:
        exact = compile_expression(args.exact)(system.grid_x, system.grid_y)
        bad = ~np.isfinite(exact).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"exact solution is not finite on element {np.argmax(bad)}")
    sols, info = system.solve(f=rhs, dirichlet=bc, return_info=True)
    print(f"max-residual {info.residual:.3e}")
    values = {"x": system.grid_x, "y": system.grid_y, "u": sols.grid_values()}
    if args.exact:
        values["err"] = np.abs(values["u"] - exact)
        print(f"max-error {values['err'].max():.3e}")
    if args.out:
        write_fields_file(args.out, args.mesh, args.n, values)
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cond_bench(args):
    tokens = [tok.strip() for tok in args.eps.split(",")]
    if any(tokens) and not all(tokens):
        raise ValueError(f"eps item {tokens.index('') + 1} of {len(tokens)} is empty")
    eps = [float(tok) for tok in tokens if tok]
    report = cond_bench(eps, args.n)
    print(f"n {report.n}")
    print("eps kappa1 kappainf")
    for e, k1, ki in zip(report.eps, report.kappa1, report.kappainf):
        print(f"{e:10.3e} {k1:14.6e} {ki:14.6e}")
    if args.out:
        report.write(args.out)
        print(f"wrote {args.out}")
    return EXIT_OK


def _write_frame(outdir, args, solver, state):
    fields = {"x": solver.helm_u.grid_x, "y": solver.helm_u.grid_y, "u": state.u.grid_values(),
              "v": state.v.grid_values(), "p": state.p.grid_values(),
              "omega": solver.vorticity(state)}
    write_fields_file(os.path.join(outdir, f"frame_{state.step:06d}.txt"), args.mesh,
                      args.n, fields, time=state.t)


def cmd_ns_run(args):
    """Step from rest: a frame every ``--cadence`` steps from step 0 (else at the last
    step), a divergence line every 100 steps and, on instability, a frame of the state
    after the last step that succeeded."""
    for name in ("steps", "cadence"):
        if getattr(args, name) < 0:
            raise ValueError(f"{name} must be nonnegative, not {getattr(args, name)}")
    mesh = read_mesh(args.mesh)
    inlet = compile_expression(args.bc) if args.bc else 0.0
    boundary = classify_tunnel_boundary(mesh, inlet_velocity=(inlet, 0.0))
    solver = TunnelSolver(mesh, args.n, NsConfig(dt=args.dt, dealias=args.dealias), boundary)
    state = FlowState.rest(mesh, args.n)
    outdir = args.out or "frames"
    os.makedirs(outdir, exist_ok=True)
    try:
        for step in range(args.steps + 1):
            if step:
                state = solver.time_step(state)
            if (step % args.cadence == 0) if args.cadence else (step == args.steps):
                _write_frame(outdir, args, solver, state)
            if step and step % 100 == 0:
                div = float(np.abs(solver.divergence_values(state.u, state.v)).max())
                rel = div / max(state.max_speed(), 1e-30)
                print(f"step {step} t {_fmt(state.t)} divergence {div:.3e} ({rel:.3e} rel)")
    except InstabilityError:
        # a step that fails assigns nothing, so state is the last good one
        _write_frame(outdir, args, solver, state)
        print(f"instability; last good frame saved at step {state.step}", file=sys.stderr)
        raise
    print(f"finished {state.step} steps, t {_fmt(state.t)}")
    return EXIT_OK


def cmd_mesh_info(args):
    mesh = read_mesh(args.mesh)
    q = quality(mesh)
    s = np.sort(q.skinniness)
    pos = order_interfaces(mesh)
    bw = interface_bandwidth(mesh, pos)
    print(f"vertices {mesh.n_vertices}")
    print(f"edges {mesh.n_edges}")
    print(f"quads {mesh.n_quads}")
    print(f"boundary-edges {int(mesh.boundary_edge.sum())}")
    print(f"interior-edges {mesh.n_interior_edges}")
    print(f"skinniness-min {_fmt(s[0])}")
    print(f"skinniness-median {_fmt(np.median(s))}")
    print(f"interface-ordering-max-diff {bw}")
    print(f"sigma-bandwidth-bound {(bw + 1) * args.n}")
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(prog="ultrasem",
                                description="Spectral element solver for "
                                            "quadrilateral meshes")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--mesh", required=True, help="mesh file path")
        sp.add_argument("--n", type=int, default=8,
                        help="per-direction coefficients per element")

    sp = sub.add_parser("solve", help="solve an elliptic problem on a mesh")
    common(sp)
    sp.add_argument("--pde", default="poisson",
                    help="poisson | screened:K | general:a11=..;..")
    sp.add_argument("--rhs", default=None, help="forcing expression f(x, y)")
    sp.add_argument("--bc", default=None, help="Dirichlet data expression")
    sp.add_argument("--exact", default=None,
                    help="exact solution expression for error reporting")
    sp.add_argument("--out", default=None, help="solution file path")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("cond-bench",
                        help="condition numbers on the skinny quad family")
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--eps", default="1,1e-1,1e-2,1e-3,1e-6,1e-9,1e-12",
                    help="comma separated descending eps sweep")
    sp.add_argument("--out", default=None, help="report file path")
    sp.set_defaults(fn=cmd_cond_bench)

    sp = sub.add_parser("ns-run", help="wind-tunnel flow simulation")
    common(sp)
    sp.add_argument("--dt", type=float, default=1.667e-5, help="time step (s)")
    sp.add_argument("--steps", type=int, default=200)
    sp.add_argument("--cadence", type=int, default=0,
                    help="write a frame every this many steps")
    sp.add_argument("--dealias", action=argparse.BooleanOptionalAction, default=False,
                    help="form nonlinear products on a doubled grid")
    sp.add_argument("--bc", default=None,
                    help="inlet x-velocity expression (default 0)")
    sp.add_argument("--out", default=None, help="frame directory")
    sp.set_defaults(fn=cmd_ns_run)

    sp = sub.add_parser("mesh-info", help="mesh statistics and quality")
    common(sp)
    sp.set_defaults(fn=cmd_mesh_info)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        check_n(args.n)
        return args.fn(args)
    except (MeshFormatError, ExpressionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except InstabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INSTABILITY
    except UltrasemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
