"""Write tunnel_reference.json: the values that the tunnel-ns workload
compares each step of an episode against (see ``Tunnel.fingerprint``).

    python3 perfbench/make_reference.py

Regenerate it only with a change that is meant to alter the stepper's
results; a refactor of the stepper should reproduce the stored values.
"""

import json

from run import import_program


def main():
    import_program()
    import ultrasem.navierstokes
    from workloads import EPISODE, REFERENCE, Tunnel

    work = Tunnel()
    solver = work.build()
    state = ultrasem.navierstokes.FlowState.rest(work.mesh, work.n)
    steps = []
    for _ in range(EPISODE):
        state = solver.time_step(state)
        steps.append(work.fingerprint(solver, state))
    about = ("per step from rest: max speed, max interior |div u| * h_min / "
             "max speed, weighted coefficient sums of u, v and p")
    REFERENCE.write_text(f'{{"about": {json.dumps(about)},\n"steps": [\n'
                         + ",\n".join(json.dumps(s) for s in steps) + "\n]}\n")


if __name__ == "__main__":
    main()
