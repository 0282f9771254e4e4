"""Span and self-time arithmetic of the benchmark, on synthetic span trees.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

from spans import Tracer, covered, install, self_times, summarize  # noqa: E402


def tree():
    # root [0, 10]
    #   a [1, 4]        child a1 [2, 3]
    #   b [5, 9]        children b1 [5, 6] and b2 [8, 9.5], clipped to [8, 9]
    return [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 4.0],
        ["a1", 1, 2.0, 3.0],
        ["b", 0, 5.0, 9.0],
        ["b1", 3, 5.0, 6.0],
        ["b2", 3, 8.0, 9.5],
    ]


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(7, 8), (1, 3), (2, 5)]) == pytest.approx(5.0)
    assert covered([(0, 4), (1, 2), (3, 4)]) == pytest.approx(4.0)


def test_self_time_is_duration_minus_children():
    assert self_times(tree()) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_self_times_partition_the_root():
    spans = tree()
    spans[-1][3] = 9.0  # children inside their parents
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_summarize_groups_by_name():
    spans = tree() + [["a", 0, 9.5, 10.0]]
    s = summarize(spans)
    assert s["a"]["calls"] == 2
    assert s["a"]["total"] == pytest.approx(3.5)
    assert s["a"]["self"] == pytest.approx(2.5)
    assert s["root"]["self"] == pytest.approx(2.5)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrapped_calls_nest_and_join_same_name():
    tr = Tracer(clock=FakeClock())

    def leaf():
        return 1

    inner = tr.wrap("solve", lambda: leaf_t() + 1)
    outer = tr.wrap("solve", lambda: inner())  # same name: joins the outer span
    leaf_t = tr.wrap("leaf", leaf)
    tr.enabled = True
    root = tr.open("op")
    assert outer() == 2
    tr.close(root)
    spans = tr.take()
    assert [s[0] for s in spans] == ["op", "solve", "leaf"]
    assert [s[1] for s in spans] == [-1, 0, 1]
    assert tr.spans == []


def test_disabled_opaque_and_vetoed_spans():
    tr = Tracer(clock=FakeClock())
    leaf = tr.wrap("leaf", lambda: None)
    opaque = tr.wrap("cond", lambda: leaf(), opaque=True)
    vetoed = tr.wrap("factor", lambda done: leaf(), when=lambda done: not done)
    leaf()  # tracing off: no span
    tr.enabled = True
    opaque()
    vetoed(True)
    vetoed(False)
    names = [s[0] for s in tr.take()]
    assert names == ["cond", "leaf", "factor", "leaf"]


def test_open_spans_cannot_be_taken():
    tr = Tracer(clock=FakeClock())
    tr.open("op")
    with pytest.raises(RuntimeError):
        tr.take()


def test_install_replaces_and_restores():
    import ultrasem.ultra

    original = ultrasem.ultra.mult_operator
    tr = Tracer()
    undo, missing = install(tr, [
        ("ultra.mult", "ultrasem.ultra", "mult_operator", {}),
        ("x", "ultrasem.ultra", "no_such_function", {}),
    ])
    try:
        assert ultrasem.ultra.mult_operator is not original
        assert missing == ["ultrasem.ultra.no_such_function"]
    finally:
        for owner, attr, saved in undo:
            setattr(owner, attr, saved)
    assert ultrasem.ultra.mult_operator is original


def test_layer_values_sum_phase_medians_and_flag_unequal_calls():
    from workloads import Recorder, layer_values

    rec = Recorder(Tracer(), True)
    mult = lambda calls, self_s: {"ultra.mult": {"calls": calls, "total": self_s,
                                                 "self": self_s}}
    rec.layers["setup"] = [mult(4, 1.0), mult(4, 3.0), mult(4, 2.0)]
    rec.layers["op"] = [mult(1, 0.5), mult(2, 0.25)]
    rec.slowdown = lambda start, end: 2.0 if start == 9 else 1.0
    rec.units["setup"] = [(True, 0, 1), (False, 2, 3), (True, 4, 5), (True, 6, 7)]
    rec.units["op"] = [(True, 8, 8.5), (True, 9, 9.5)]
    values, unequal = layer_values(rec)
    # setups 1, 3, 2 s; operations 0.5 s and, at half the host's speed, 0.125 s
    assert values["ultra.mult.busy_s"] == pytest.approx(2.0 + 0.3125)
    assert values["ultra.mult.calls"] == 4 + 1
    assert values["element.solve.calls"] == 0
    assert unequal == ["ultra.mult.calls (op): [1, 2]"]



def test_units_are_scaled_by_the_median_kernel_time_around_them(monkeypatch):
    import calibrate
    import workloads

    monkeypatch.setattr(calibrate, "REFERENCE_S", 0.01)
    monkeypatch.setattr(workloads, "CALIBRATION_WINDOW", 0.5)
    rec = workloads.Recorder(Tracer(), False)
    rec.kernel_at = [0.0, 1.0, 1.4, 2.1, 5.0]
    rec.kernel_s = [0.05, 0.02, 0.03, 0.04, 0.06]
    rec.units["op"] = [(False, 1.1, 2.1), (True, 4.8, 4.9)]
    # the first op sees the calls at 1.0, 1.4 and 2.1; the second only 5.0
    assert rec.durations("op") == pytest.approx([1.0 / 3.0, 0.1 / 6.0])
    assert rec.durations("op", True) == pytest.approx([0.1 / 6.0])
    assert rec.wall("op") == pytest.approx([1.0, 0.1])


def test_every_unit_is_timed_between_kernel_calls():
    import workloads

    rec = workloads.Recorder(Tracer(), False)
    assert rec.unit("setup", lambda: 7) == 7
    rec.unit("op", lambda: None)
    reps = workloads.CALIBRATION_REPS
    assert len(rec.kernel_s) == 2 * reps["setup"] + 2 * reps["op"]
    (_, a, b), = rec.units["setup"]
    assert rec.kernel_at[reps["setup"] - 1] < a < b < rec.kernel_at[reps["setup"]]


def test_unscaled_units_keep_wall_time_and_run_no_kernel():
    import workloads

    rec = workloads.Recorder(Tracer(), False, scaled=False)
    rec.unit("op", lambda: None)
    assert rec.kernel_s == []
    assert rec.durations("op") == rec.wall("op")
