"""The benchmark's workloads still run and pass their own checks against
the package: a change to what a solve or a time step returns fails here,
in tier-1, instead of in a benchmark run."""

import json
import sys
from pathlib import Path

import numpy as np

from ultrasem.cli import _general_pde
from ultrasem.element import PdeCoefficients
from ultrasem.mesh import grid_mesh, mesh_from_string

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EPISODE, MIXED_MESH, REFERENCE, VARCOEF, Elliptic, Recorder, Tunnel, run_sliver)


def untimed():
    return Recorder(Tracer(), False, scaled=False)


def test_tunnel_steps_match_the_reference_trajectory():
    work = Tunnel(json.loads(REFERENCE.read_text())["steps"])
    solver = work.build()
    assert work.structure(solver)["schur.n_gamma"] == solver.helm_u.n_gamma
    rec = untimed()
    # the whole episode, so that rounding drift from a numerics change
    # fails here before the benchmark sees it
    assert all([work.operation(rec, solver) for _ in range(EPISODE)])
    assert work.state.step == EPISODE


def test_elliptic_solve_passes_its_check():
    work = Elliptic(grid_mesh(3, 3), PdeCoefficients.poisson(), 8, np.random.default_rng(7))
    system = work.build()
    assert work.structure(system)["schur.n_gamma"] == system.n_gamma
    rec = untimed()
    assert work.operation(rec, system)
    assert len(rec.units["op"]) == 1


def test_mixed_varcoef_solve_passes_its_check():
    # the mixed-varcoef workload's mesh and operator at its n = 24
    mesh = mesh_from_string(MIXED_MESH)
    work = Elliptic(mesh, _general_pde(VARCOEF, mesh), 24, np.random.default_rng(7))
    system = work.build()
    rec = untimed()
    assert work.operation(rec, system)
    assert len(rec.units["op"]) == 1


def test_sliver_sweep_passes_its_plateau_checks():
    # sliver-cond's own checks, on whole sweeps of 10 eps at n = 16
    rec = untimed()
    run_sliver(np.random.default_rng(7), rec, 0.05, n=16)
    assert rec.attempted and rec.attempted % 10 == 0
    assert rec.failed == 0, rec.errors
