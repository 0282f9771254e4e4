"""Every function the benchmark traces still exists under the name it
traces, so that no per-layer metric silently drops to zero after code
moves between modules."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from spans import Tracer, install  # noqa: E402
from workloads import TARGETS  # noqa: E402

# a target the benchmark still lists though ultrasem no longer has it
STALE = {"ultrasem.schur.lu_factor"}


def test_benchmark_span_targets_resolve():
    undo, missing = install(Tracer(), TARGETS)
    try:
        assert set(missing) <= STALE
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
