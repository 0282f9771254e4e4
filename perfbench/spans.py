"""In-memory spans around calls into ultrasem, and their self-time arithmetic.

A span is ``[name, parent, start, end]`` with ``parent`` the index of the
enclosing span (or -1).  Spans are recorded only while ``Tracer.enabled``
is set; the harness enables it for the units it traces and reads the
spans back after each unit.  Everything runs in one thread, so a span's
children never overlap each other, but :func:`self_times` does not rely
on that.
"""

import functools
import importlib
import time


class Tracer:
    """Records nested spans from wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans = []
        self._stack = []
        self._muted = 0

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.clock(), None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][3] = self.clock()
        self._stack.pop()

    def take(self):
        """Return the recorded spans and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, opaque=False, when=None):
        """Wrap ``fn`` so that each call is one span called ``name``.

        A call made directly inside a span of the same name joins that span
        (``solve`` calling ``solve_raw`` is one element solve).  An
        ``opaque`` span records no children: everything it calls counts as
        its own time.  ``when(*args, **kwargs)`` may veto the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if (not self.enabled or self._muted
                    or (self._stack and self.spans[self._stack[-1]][0] == name)
                    or (when is not None and not when(*args, **kwargs))):
                return fn(*args, **kwargs)
            idx = self.open(name)
            self._muted += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                self._muted -= opaque
                self.close(idx)

        return traced


def covered(intervals):
    """Total length covered by a list of ``(start, end)`` intervals."""
    total, reach = 0.0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    child spans cover."""
    children = [[] for _ in spans]
    for name, parent, a, b in spans:
        if parent >= 0:
            pa, pb = spans[parent][2], spans[parent][3]
            children[parent].append((max(a, pa), min(b, pb)))
    return [(b - a) - covered([iv for iv in kids if iv[1] > iv[0]])
            for (name, parent, a, b), kids in zip(spans, children)]


def summarize(spans):
    """Per span name: number of calls, total duration and total self time."""
    out = {}
    for (name, _, a, b), own in zip(spans, self_times(spans)):
        s = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        s["calls"] += 1
        s["total"] += b - a
        s["self"] += own
    return out


def install(tracer, targets):
    """Replace each ``(span name, module, attribute path, options)`` target
    with a traced wrapper, in the namespace its caller looks it up in.

    Returns ``(undo, missing)``: the list of ``(owner, attr, original)``
    replaced, and the targets that do not exist in this version.
    """
    undo, missing = [], []
    for name, module, path, opts in targets:
        owner = importlib.import_module(module)
        *parents, attr = path.split(".")
        try:
            for p in parents:
                owner = getattr(owner, p)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
        except (AttributeError, KeyError):
            missing.append(f"{module}.{path}")
            continue
        setattr(owner, attr, tracer.wrap(name, original, **opts))
        undo.append((owner, attr, original))
    return undo, missing
