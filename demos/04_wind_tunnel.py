"""Incompressible flow through a small wind tunnel.

Marches the first-order projection scheme on a tunnel with a square test
object for 400 steps, looping over ``TunnelSolver.time_step`` and
printing divergence diagnostics every 100 steps, then writes a final
snapshot (u, v, p, vorticity sampled per element) in the same text format
the CLI emits.  The library has no loop of its own: a caller steps, and
reads what it wants from each state and from the solver in between.

The raw divergence diagnostic is dominated by the genuine corner
singularities a sharp-cornered obstacle induces in the exact solution; on
an obstacle-free channel the same diagnostic sits at roundoff level (see
the stepping tests).

Equivalent CLI, which runs the same loop and also writes a frame every
100 steps:
  ultrasem ns-run --mesh tunnel.txt --n 8 --steps 400 --cadence 100 \
      --bc 0.6 --out frames
"""

import numpy as np

from ultrasem import FlowState, NsConfig, TunnelSolver, classify_tunnel_boundary
from ultrasem.navierstokes import tunnel_mesh
from ultrasem.cli import write_fields_file

mesh = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=(1, 1))
print(mesh)

config = NsConfig(dt=1.667e-5)
boundary = classify_tunnel_boundary(mesh, inlet_velocity=(0.6, 0.0))
solver = TunnelSolver(mesh, 8, config, boundary)

state = FlowState.rest(mesh, 8)
for _ in range(400):
    state = solver.time_step(state)
    if state.step % 100 == 0:
        div = np.abs(solver.divergence_values(state.u, state.v)).max()
        print(f"  step {state.step:4d}  t = {state.t:.5f} s  max speed "
              f"{state.max_speed():.3f} m/s  divergence {div:.2e}  "
              f"no-slip residual {solver.last_no_slip:.1e}")

w = solver.vorticity(state)
print(f"final vorticity range: [{w.min():.1f}, {w.max():.1f}] 1/s")

# every field is one stack over the elements: one transform each
fields = {"x": solver.helm_u.grid_x, "y": solver.helm_u.grid_y, "u": state.u.grid_values(),
          "v": state.v.grid_values(), "p": state.p.grid_values(), "omega": w}
write_fields_file("tunnel_final.txt", "<builtin tunnel>", 8, fields, time=state.t)
print("wrote tunnel_final.txt")
