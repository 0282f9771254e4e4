"""The four benchmark workloads and the harness loop that times them.

Every workload is a closed loop in one process: a single caller, and the
next operation starts only after the previous one returns.  A *setup*
builds the factored solver; an *operation* is one solve, one time step or
one condition estimate.  Both are timed from outside with
``time.perf_counter``, between calls of the host-speed kernel in
``calibrate``; correctness checks run after each operation, outside the
timed region.
"""

import bisect
import json
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np
from numpy.polynomial import Polynomial

import ultrasem.cli
import ultrasem.element
import ultrasem.mesh
import ultrasem.navierstokes
import ultrasem.schur
import calibrate
from spans import install, summarize

# Layer boundaries: (span name, module, attribute path, wrapper options).
# Each function is replaced in the namespace its caller looks it up in.
TARGETS = [
    ("schur.setup", "ultrasem.schur", "assemble_schur", {}),
    ("schur.setup", "ultrasem.navierstokes", "assemble_schur", {}),
    ("schur.sigma_factor", "ultrasem.schur", "lu_factor", {}),
    ("schur.sigma_factor", "ultrasem.schur", "BandedLU", {}),
    ("schur.solve", "ultrasem.schur", "SchurSystem.solve", {}),
    ("mesh.order", "ultrasem.schur", "order_interfaces", {}),
    ("mesh.order", "ultrasem.mesh", "interface_bandwidth", {}),
    ("element.assemble", "ultrasem.schur", "assemble_element_operator", {}),
    ("element.assemble", "ultrasem.cli", "assemble_element_operator", {}),
    ("element.rows", "ultrasem.schur", "point_value_row", {}),
    ("element.rows", "ultrasem.schur", "point_derivative_rows", {}),
    ("element.rows", "ultrasem.element", "point_value_row", {}),
    ("element.rows", "ultrasem.element", "point_derivative_rows", {}),
    # factorization is lazy: only a call that finds no factors does work
    ("element.factor", "ultrasem.element", "AlmostBandedMatrix._factor",
     {"when": lambda op: getattr(op, "_lu", None) is None}),
    ("element.solve", "ultrasem.element", "AlmostBandedMatrix.solve", {}),
    ("element.solve", "ultrasem.element", "AlmostBandedMatrix.solve_raw", {}),
    # the estimator's inner solves depend on the data, so they are its own time
    ("element.cond", "ultrasem.cli", "operator_condition", {"opaque": True}),
    ("linalg.banded_factor", "ultrasem._linalg", "BandedLU.__init__", {}),
    ("linalg.banded_solve", "ultrasem._linalg", "BandedLU.solve", {}),
    ("ultra.transform", "ultrasem.ultra", "vals_to_coeffs_2d", {}),
    ("ultra.transform", "ultrasem.ultra", "coeffs_to_vals_2d", {}),
    ("ultra.mult", "ultrasem.ultra", "mult_operator", {}),
    ("ns.step", "ultrasem.navierstokes", "TunnelSolver.time_step", {}),
    ("ns.advection", "ultrasem.navierstokes", "TunnelSolver.advection_term", {}),
    ("ns.divergence", "ultrasem.navierstokes", "TunnelSolver.divergence_values", {}),
]

# per-layer metric -> (span name, what is summed): "calls", "self" time or
# "total" (inclusive) time, per setup plus per operation
LAYER_METRICS = {
    "element.assemble.calls": ("element.assemble", "calls"),
    "element.assemble.busy_s": ("element.assemble", "self"),
    "element.rows.calls": ("element.rows", "calls"),
    "element.rows.busy_s": ("element.rows", "self"),
    "element.factor.calls": ("element.factor", "calls"),
    "element.factor.busy_s": ("element.factor", "self"),
    "element.solve.calls": ("element.solve", "calls"),
    "element.solve.busy_s": ("element.solve", "self"),
    "element.cond.busy_s": ("element.cond", "self"),
    "linalg.banded_factor.calls": ("linalg.banded_factor", "calls"),
    "linalg.banded_factor.busy_s": ("linalg.banded_factor", "self"),
    "linalg.banded_solve.calls": ("linalg.banded_solve", "calls"),
    "linalg.banded_solve.busy_s": ("linalg.banded_solve", "self"),
    "schur.setup_self_s": ("schur.setup", "self"),
    "schur.sigma_factor_s": ("schur.sigma_factor", "total"),
    "schur.solve.calls": ("schur.solve", "calls"),
    "schur.solve_self_s": ("schur.solve", "self"),
    "mesh.order.busy_s": ("mesh.order", "self"),
    "ultra.transform.calls": ("ultra.transform", "calls"),
    "ultra.transform.busy_s": ("ultra.transform", "self"),
    "ultra.mult.calls": ("ultra.mult", "calls"),
    "ultra.mult.busy_s": ("ultra.mult", "self"),
    "ns.advection_s": ("ns.advection", "total"),
    "ns.helmholtz_s": ("ns.helmholtz", "total"),
    "ns.pressure_s": ("ns.pressure", "total"),
    "ns.divergence_s": ("ns.divergence", "total"),
    "ns.step_self_s": ("ns.step", "self"),
}

# structural counts each workload reports after setup
STRUCTURE = ("element.kl_max", "element.ku_max", "schur.n_gamma",
             "schur.sigma_bandwidth", "schur.sigma_bound",
             "mesh.interface_bandwidth", "mesh.distinct_share")

MIXED_MESH = """quadmesh 1
v 0 0
v 1 0
v 2 0
v 3 0
v 0 1
v 1 1
v 2 1
v 3 1
q 1 2 6 5
t 2 3 7
t 2 7 6
q 3 4 8 7
"""
VARCOEF = "general:a11=1+0.5*x^2;a22=2+y;b1=x;c=-1"

ELLIPTIC_TOL = 1e-8      # max sampled error relative to max |u|
NO_SLIP_TOL = 1e-8       # acceptance test 10, obstacle tunnel
EPISODE = 200            # steps from rest, as in acceptance test 10
# Test 10 bounds the divergence only on the obstacle-free channel; here the
# obstacle's corners keep it at O(U/h) and a projection changes it little.
# So each step is compared with a stored trajectory of this stepper instead.
REFERENCE = Path(__file__).resolve().parent / "tunnel_reference.json"
REFERENCE_TOL = 1e-8
PLATEAU_EPS = 1e-9       # kappa plateau checked over eps <= this
PLATEAU_TOL = 0.01       # acceptance test 03
PLATEAU_RISE = 1.02      # acceptance test 03: no eps exceeds the plateau by more
CALIBRATION_REPS = {"setup": 5, "op": 1}   # kernel calls on each side of a unit
CALIBRATION_WINDOW = 0.5  # s: kernel calls this close to a unit give its slowdown


class Recorder:
    """Times setups and operations; in a traced run it traces every other
    one of each, so the untraced ones give the tracing overhead.

    Each unit's wall time is divided by the host's slowdown around it: the
    median time of the calibration-kernel calls made within
    ``CALIBRATION_WINDOW`` of the unit, over the kernel's reference time.
    The kernel runs ``CALIBRATION_REPS[phase]`` times just before and just
    after every unit, so each unit has calls of its own.  Single calls are
    noisy and the host's speed drifts over seconds, so the median over the
    window is steadier than the calls next to the unit alone.  With
    ``scaled`` false the kernel does not run and times are wall times."""

    def __init__(self, tracer, trace, scaled=True):
        self.tracer = tracer
        self.trace = trace
        self.scaled = scaled
        self.units = {"setup": [], "op": []}  # (traced, start, end)
        self.kernel_at, self.kernel_s = [], []  # midpoint and time of each call
        self.layers = {"setup": [], "op": []}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.structure = {}

    def time_kernel(self, reps):
        for _ in range(reps if self.scaled else 0):
            t0 = time.perf_counter()
            calibrate.kernel()
            t1 = time.perf_counter()
            self.kernel_at.append((t0 + t1) / 2)
            self.kernel_s.append(t1 - t0)

    def unit(self, phase, fn, *args):
        traced = self.trace and len(self.units[phase]) % 2 == 0
        tr = self.tracer
        self.time_kernel(CALIBRATION_REPS[phase])
        if traced:
            tr.enabled = True
            root = tr.open(phase)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            if traced:
                tr.close(root)
                tr.enabled = False
                self.layers[phase].append(summarize(tr.take()))
            self.units[phase].append((traced, t0, t1))
            self.time_kernel(CALIBRATION_REPS[phase])

    def check(self, ok):
        self.attempted += 1
        self.failed += not ok

    def error(self, exc):
        """Keep the first few exceptions raised by operations for the report."""
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def note_structure(self, counts):
        for k, v in counts.items():
            self.structure[k] = max(self.structure.get(k, 0), v.item()
                                    if isinstance(v, np.generic) else v)

    def slowdown(self, start, end):
        if not self.scaled:
            return 1.0
        lo = bisect.bisect_left(self.kernel_at, start - CALIBRATION_WINDOW)
        hi = bisect.bisect_right(self.kernel_at, end + CALIBRATION_WINDOW)
        return statistics.median(self.kernel_s[lo:hi]) / calibrate.REFERENCE_S

    def durations(self, phase, traced=None):
        """Scaled times of a phase's units, all or only (un)traced ones."""
        return [(b - a) / self.slowdown(a, b) for t, a, b in self.units[phase]
                if traced is None or t == traced]

    def wall(self, phase):
        return [b - a for _, a, b in self.units[phase]]


# ----------------------------------------------------------------------
# structure counts


def distinct_share(mesh, digits=9):
    """Distinct element shapes (vertex differences from each element's
    first vertex, relative to the mesh diameter) over elements."""
    v = mesh.vertices
    scale = float(np.max(v.max(axis=0) - v.min(axis=0)))
    keys = {tuple(np.round((v[q] - v[q[0]]).ravel() / scale, digits) + 0.0)
            for q in mesh.quads}
    return len(keys) / len(mesh.quads)


def system_structure(systems, mesh, n):
    ops = [op for s in systems for op in s.ops]
    bands = [op.bandwidths() for op in ops]
    ibw = ultrasem.mesh.interface_bandwidth(mesh, systems[0].block_pos)
    return {
        "element.kl_max": max(b[0] for b in bands),
        "element.ku_max": max(b[1] for b in bands),
        "schur.n_gamma": max(s.n_gamma for s in systems),
        "schur.sigma_bandwidth": max(s.sigma_bandwidth for s in systems),
        "schur.sigma_bound": (ibw + 1) * n,
        "mesh.interface_bandwidth": ibw,
        "mesh.distinct_share": distinct_share(mesh),
    }


def peak_traced_mb(fn):
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# manufactured solutions


def _horner(coef, x):
    # Python float coefficients, so a scalar stays a Python float: boundary
    # data is evaluated one point at a time inside the timed solve
    r = coef[-1]
    for a in coef[-2::-1]:
        r = r * x + a
    return r


# derivative orders (in x, in y) that each PDE coefficient multiplies
ORDERS = {"a11": (2, 0), "a12": (1, 1), "a22": (0, 2),
          "b1": (1, 0), "b2": (0, 1), "c": (0, 0)}


class Manufactured:
    """Seeded ``u = P(x) Q(y) + R(x) + S(y)`` with quartic factors that are
    O(1) on the mesh bounding box, and its forcing ``f = L u``."""

    def __init__(self, rng, pde, lo, hi):
        def quartic(a, b):
            p = Polynomial(rng.uniform(-1, 1, 5), domain=[a, b],
                           window=[-1, 1]).convert()
            return [p.deriv(k).coef.tolist() for k in range(3)]

        self.P, self.R = quartic(lo[0], hi[0]), quartic(lo[0], hi[0])
        self.Q, self.S = quartic(lo[1], hi[1]), quartic(lo[1], hi[1])
        self.terms = []
        for name, order in ORDERS.items():
            table = getattr(pde, name)
            if np.any(table):
                coef = float(table[0, 0]) if table.size == 1 else table
                self.terms.append((coef, order))

    def derivative(self, i, j, x, y):
        """``d^i/dx^i d^j/dy^j u`` at (x, y)."""
        d = _horner(self.P[i], x) * _horner(self.Q[j], y)
        if j == 0:
            d = d + _horner(self.R[i], x)
        if i == 0:
            d = d + _horner(self.S[j], y)
        return d

    def u(self, x, y):
        return self.derivative(0, 0, x, y)

    def f(self, x, y):
        out = 0.0
        for coef, (i, j) in self.terms:
            if not isinstance(coef, float):
                coef = np.polynomial.polynomial.polyval2d(x, y, coef)
            out = out + coef * self.derivative(i, j, x, y)
        return out


# ----------------------------------------------------------------------
# workloads


class Elliptic:
    """Build the Schur solver, then solve seeded manufactured problems."""

    setups = 5

    def __init__(self, mesh, pde, n, rng):
        self.mesh, self.pde, self.n, self.rng = mesh, pde, n, rng
        self.lo, self.hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        # fixed sample points, in reference coordinates, for the error check
        self.R, self.S = rng.uniform(-1, 1, (2, 6))

    def build(self):
        return ultrasem.schur.assemble_schur(self.mesh, self.pde, self.n)

    def structure(self, system):
        return system_structure([system], self.mesh, self.n)

    def operation(self, rec, system):
        m = Manufactured(self.rng, self.pde, self.lo, self.hi)
        sols = rec.unit("op", lambda: system.solve(f=m.f, dirichlet=m.u))
        err = scale = 0.0
        for k, s in enumerate(sols):
            exact = m.u(*system.maps[k](self.R, self.S))
            err = max(err, float(np.max(np.abs(s.eval(self.R, self.S) - exact))))
            scale = max(scale, float(np.max(np.abs(exact))))
        return err <= ELLIPTIC_TOL * max(1.0, scale)

    def trace_hooks(self, tracer, system):
        pass


class Tunnel:
    """Build the three Schur systems of the tunnel, then step from rest in
    episodes of ``EPISODE`` steps."""

    setups = 5
    n = 8

    def __init__(self, reference=None):
        nsm = ultrasem.navierstokes
        self.mesh = nsm.tunnel_mesh(4, 3, width=0.003, height=0.001, hole=(1, 1))
        self.config = nsm.NsConfig(dt=1.667e-5, dealias=False)
        self.boundary = nsm.classify_tunnel_boundary(self.mesh, (0.6, 0.0))
        v = self.mesh.vertices[self.mesh.quads]
        self.hmin = float(np.min(np.hypot(*(np.roll(v, -1, axis=1) - v).T)))
        self.state = None
        self.reference = reference

    def build(self):
        return ultrasem.navierstokes.TunnelSolver(self.mesh, self.n, self.config,
                                                  self.boundary)

    def structure(self, solver):
        return system_structure([solver.helm_u, solver.helm_v, solver.pois_p],
                                self.mesh, self.n)

    def fingerprint(self, solver, st):
        """Values of a step compared with the reference trajectory: max
        speed, max interior |div u| * h_min / max speed, and a fixed
        weighted sum of each field's coefficients over their 1-norm."""
        speed = st.max_speed()
        div = solver.divergence_values(st.u, st.v)
        interior = max(float(np.abs(d[1:-1, 1:-1]).max()) for d in div)
        out = [speed, interior * self.hmin / speed]
        for field in (st.u, st.v, st.p):
            c = np.concatenate([x.data for x in field])
            w = np.cos(0.7 * np.arange(c.size) + 0.3)
            out.append(float(c @ w) / max(float(np.abs(c).sum()), 1e-300))
        return out

    def operation(self, rec, solver):
        if self.state is None or self.state.step >= EPISODE:
            self.state = ultrasem.navierstokes.FlowState.rest(self.mesh, self.n)
        self.state = rec.unit("op", solver.time_step, self.state)
        st = self.state
        if not st.finite() or solver.last_no_slip > NO_SLIP_TOL:
            return False
        got = np.array(self.fingerprint(solver, st))
        ref = np.array(self.reference[st.step - 1])
        return bool(np.all(np.abs(got - ref) <= REFERENCE_TOL * np.maximum(1.0, np.abs(ref))))

    def trace_hooks(self, tracer, solver):
        for name, system in (("ns.helmholtz", solver.helm_u),
                             ("ns.helmholtz", solver.helm_v),
                             ("ns.pressure", solver.pois_p)):
            system.solve = tracer.wrap(name, system.solve)


def run_built(work, rec, tracer, seconds, trace):
    """Setups, then operations until ``seconds`` have passed."""
    for _ in range(work.setups):
        system = None  # free the previous solver before building the next
        system = rec.unit("setup", work.build)
        rec.note_structure(work.structure(system))
    peak = peak_traced_mb(work.build) if trace else None
    if trace:
        work.trace_hooks(tracer, system)
    work.operation(Recorder(tracer, False), system)  # warm-up, not counted
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        try:
            ok = work.operation(rec, system)
        except Exception as exc:  # an operation that raises counts as failed
            rec.error(exc)
            ok = False
        rec.check(ok)
    return {"schur.setup_peak_mb": peak} if trace else {}


def sliver_sweep(rng):
    """eps from 1e-3 down to 1e-12: one seeded point in each decade, then
    1e-12 itself."""
    return [10.0 ** -(3 + k + rng.uniform(0.0, 1.0)) for k in range(9)] + [1e-12]


def run_sliver(rng, rec, seconds, n=48):
    """``cli.cond_bench`` sweeps; the setup of each point is its assembly
    plus factorization, its operation the condition estimate."""
    cli = ultrasem.cli
    assemble, condition = cli.assemble_element_operator, cli.operator_condition

    def build(*args):
        op = assemble(*args)
        op.solve_raw(np.zeros(op.nn))  # factor here, so the estimate is timed alone
        return op

    def timed_assemble(*args):
        op = rec.unit("setup", build, *args)
        kl, ku = op.bandwidths()
        rec.note_structure({"element.kl_max": kl, "element.ku_max": ku})
        return op

    def timed_condition(op):
        np.random.seed(0)  # the estimator draws its restarts from numpy's global RNG
        return rec.unit("op", condition, op)

    cli.assemble_element_operator = timed_assemble
    cli.operator_condition = timed_condition
    try:
        import scipy.sparse.linalg  # noqa: F401  (imported lazily by the estimator)

        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            eps = sliver_sweep(rng)
            try:
                report = cli.cond_bench(eps, n)
            except Exception as exc:  # the whole sweep counts as failed
                rec.error(exc)
                for _ in eps:
                    rec.check(False)
                continue
            kinf = np.asarray(report.kappainf)
            plateau = kinf[np.asarray(eps) <= PLATEAU_EPS]
            flat = bool(np.all(np.isfinite(kinf))) and \
                plateau.max() <= (1 + PLATEAU_TOL) * plateau.min()
            for e, k in zip(eps, kinf):
                ok = bool(np.isfinite(k)) and k >= 1.0 and \
                    k <= PLATEAU_RISE * kinf[-1] and (e > PLATEAU_EPS or flat)
                rec.check(ok)
    finally:
        cli.assemble_element_operator = assemble
        cli.operator_condition = condition
    rec.note_structure({"mesh.distinct_share": 1.0})
    return {}


def run_workload(name, seed, seconds, tracer, trace):
    """Run one workload; returns the recorder and extra per-layer values."""
    rng = np.random.default_rng(seed)
    calibrate.kernel()  # warm-up, not counted
    rec = Recorder(tracer, trace, scaled=name in SCALED)
    missing = install(tracer, TARGETS)[1] if trace else []
    if name == "grid-poisson":
        mesh = ultrasem.mesh.grid_mesh(12, 12)
        work = Elliptic(mesh, ultrasem.element.PdeCoefficients.poisson(), 8, rng)
        extra = run_built(work, rec, tracer, seconds, trace)
    elif name == "mixed-varcoef":
        mesh = ultrasem.mesh.mesh_from_string(MIXED_MESH)
        work = Elliptic(mesh, ultrasem.cli._general_pde(VARCOEF, mesh), 24, rng)
        extra = run_built(work, rec, tracer, seconds, trace)
    elif name == "tunnel-ns":
        reference = json.loads(REFERENCE.read_text())["steps"]
        extra = run_built(Tunnel(reference), rec, tracer, seconds, trace)
    elif name == "sliver-cond":
        extra = run_sliver(rng, rec, seconds)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return rec, extra, missing


WORKLOADS = ("grid-poisson", "mixed-varcoef", "tunnel-ns", "sliver-cond")
# Workloads whose times are scaled by the host's slowdown.  sliver-cond
# spends its time in LAPACK on one large operator: its wall times hardly
# drift (spread 0.04 over ten runs), and the calibration kernel's drift
# does not track them, so scaling would only add noise (spread 0.095).
SCALED = ("grid-poisson", "mixed-varcoef", "tunnel-ns")


# ----------------------------------------------------------------------
# reduction to metrics


def tail(samples):
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest sample (the largest when there are fewer than 11)."""
    s = sorted(samples)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * k / len(s), len(s)


def layer_values(rec):
    """Per-layer metrics from the traced units: each is the median per
    setup plus the median per operation, with times scaled by each unit's
    host slowdown like the end-to-end times.  Call counts must repeat
    exactly within a phase; also returns the ones that do not."""
    values, unequal = {}, []
    slowdowns = {phase: [rec.slowdown(a, b) for traced, a, b in units if traced]
                 for phase, units in rec.units.items()}
    for metric, (span, field) in LAYER_METRICS.items():
        total = 0 if field == "calls" else 0.0
        for phase, units in rec.layers.items():
            if not units:
                continue
            per_unit = [u.get(span, {}).get(field, 0) for u in units]
            if field == "calls":
                if len(set(per_unit)) > 1:
                    unequal.append(f"{metric} ({phase}): {sorted(set(per_unit))}")
                total += per_unit[0]
            else:
                total += statistics.median(
                    [v / k for v, k in zip(per_unit, slowdowns[phase], strict=True)])
        values[metric] = total
    return values, unequal
