"""Layered benchmark for ultrasem.

    python3 perfbench/run.py --workload grid-poisson --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a checkout, against the package
sources in ``src/``.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced run.  The line before it is a JSON
record of the environment, sample counts and exact work counts.  See
README.md in this directory.
"""

import os

# pinned before numpy is imported: one BLAS thread, so runs on a shared
# 2-core machine do not oversubscribe it
PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_program():
    """Import ultrasem from this checkout's sources, and only from there."""
    if not (SRC / "ultrasem" / "__init__.py").is_file():
        sys.exit(f"error: no ultrasem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ultrasem

    if SRC not in Path(ultrasem.__file__).resolve().parents:
        sys.exit(f"error: ultrasem was imported from {ultrasem.__file__}")


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy prints its config instead
        blas = None
    return {
        "thread_pins": {v: os.environ.get(v) for v in PINS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": git_sha(),
        "seed": seed,
    }


def code_version():
    """Hash of the package sources and of this benchmark."""
    h = hashlib.sha256()
    for path in sorted(SRC.glob("ultrasem/**/*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_counts(version, workload, trace, counts):
    """Exact counts must repeat in every run of one code version: the first
    run records them, later runs compare.  Returns the mismatches."""
    store = HERE / ".counts" / f"{version}-{workload}-trace{trace}.json"
    if store.is_file():
        ref = json.loads(store.read_text())
        return [f"{k}: {counts.get(k)} != {ref.get(k)}"
                for k in sorted(set(ref) | set(counts)) if counts.get(k) != ref.get(k)]
    store.parent.mkdir(exist_ok=True)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, store)
    return []


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import calibrate
    from spans import Tracer
    from workloads import STRUCTURE, WORKLOADS, layer_values, run_workload, tail

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    trace = bool(args.trace)
    rec, extra, missing = run_workload(args.workload, args.seed, args.seconds,
                                       Tracer(), trace)

    setups, ops = rec.durations("setup"), rec.durations("op")
    op_tail, tail_pct, n_ops = tail(ops)
    structure = {k: rec.structure.get(k, 0) for k in STRUCTURE}
    exact = dict(structure)
    detail = {
        "workload": args.workload, "trace": args.trace,
        "env": environment(args.seed), "code_version": code_version(),
        "samples": {"setup": len(setups), "op": n_ops},
        "op_tail_percentile": tail_pct,
        # wall-clock medians before scaling, and the host's median slowdown
        "wall_s": {"setup": statistics.median(rec.wall("setup")),
                   "op": statistics.median(rec.wall("op"))},
        "host_slowdown": statistics.median(rec.kernel_s) / calibrate.REFERENCE_S
        if rec.scaled else None,
        "missing_targets": missing,
        "errors": rec.errors,
    }
    if trace:
        layers, unequal = layer_values(rec)
        exact.update({k: v for k, v in layers.items() if k.endswith(".calls")})
        overhead = {}
        for phase, metric in (("setup", "setup_s"), ("op", "op_s")):
            on, off = rec.durations(phase, True), rec.durations(phase, False)
            overhead[metric] = {
                "traced": statistics.median(on) if on else None,
                "untraced": statistics.median(off) if off else None,
                "ratio": statistics.median(on) / statistics.median(off)
                if on and off else None,
            }
        detail["tracing_overhead"] = overhead
        metrics = {k: (v, "count" if k.endswith(".calls") else "s")
                   for k, v in layers.items()}
        metrics.update({k: (v, "ratio" if k == "mesh.distinct_share" else "count")
                        for k, v in structure.items()})
        metrics["schur.setup_peak_mb"] = (extra.get("schur.setup_peak_mb") or 0.0, "MB")
        metrics["trace.setup_overhead"] = (overhead["setup_s"]["ratio"] or 0.0, "ratio")
        metrics["trace.op_overhead"] = (overhead["op_s"]["ratio"] or 0.0, "ratio")
    else:
        unequal = []
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s": (statistics.median(ops), "s"),
            "op_tail_s": (op_tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    mismatch = compare_counts(detail["code_version"], args.workload, args.trace, exact)
    detail.update(exact_counts=exact, unequal_within_run=unequal,
                  mismatch_across_runs=mismatch)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": rec.failed == 0 and not unequal and not mismatch,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
