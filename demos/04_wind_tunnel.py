"""Incompressible flow through a small wind tunnel.

Marches the first-order projection scheme on a tunnel with a square test
object, printing per-100-step divergence diagnostics, then writes a final
snapshot (u, v, p, vorticity sampled per element) in the same text format
the CLI emits.

The raw divergence diagnostic is dominated by the genuine corner
singularities a sharp-cornered obstacle induces in the exact solution; on
an obstacle-free channel the same diagnostic sits at roundoff level (see
the stepping tests).

Equivalent CLI:
  ultrasem ns-run --mesh tunnel.txt --n 8 --steps 400 --cadence 100 \
      --bc 0.6 --out frames
"""

from ultrasem import FlowState, NsConfig, TunnelSolver, classify_tunnel_boundary
from ultrasem.navierstokes import tunnel_mesh
from ultrasem.cli import write_fields_file

mesh = tunnel_mesh(nx=4, ny=3, width=0.003, height=0.001, hole=(1, 1))
print(mesh)

config = NsConfig(dt=1.667e-5, steps=400, cadence=0)
boundary = classify_tunnel_boundary(mesh, inlet_velocity=(0.6, 0.0))
solver = TunnelSolver(mesh, 8, config, boundary)

state = FlowState.rest(mesh, 8)


def diagnostics(st, div):
    print(f"  step {st.step:4d}  t = {st.t:.5f} s  max speed "
          f"{st.max_speed():.3f} m/s  divergence {div:.2e}  "
          f"no-slip residual {solver.last_no_slip:.1e}")


state = solver.run(state, diagnostics=diagnostics)

w = solver.vorticity(state)
print(f"final vorticity range: [{w.min():.1f}, {w.max():.1f}] 1/s")

# every field is one stack over the elements: one transform each
fields = {"x": solver.helm_u.grid_x, "y": solver.helm_u.grid_y, "u": state.u.grid_values(),
          "v": state.v.grid_values(), "p": state.p.grid_values(), "omega": w}
write_fields_file("tunnel_final.txt", "<builtin tunnel>", 8, fields, time=state.t)
print("wrote tunnel_final.txt")
