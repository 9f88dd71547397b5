"""Spans around the benchmark's calls into the package.

Untraced runs use ``Direct``, which calls straight through.  Traced runs use
``Tracer``: every call made through ``call`` records a span (name, start,
end, parent span, operation id) in memory; spans are written out only when
the run ends.  The tracer also times its own bookkeeping, which is the
tracing overhead reported with the per-layer metrics.
"""

from __future__ import annotations

import json
import time


class Direct:
    """Tracing off: calls go straight to the package."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass


class Tracer:
    """Tracing on: one span per call, parented to the enclosing span."""

    def __init__(self):
        # span = [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self.overhead = 0.0

    def _open(self, name):
        t0 = time.perf_counter()
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        t1 = time.perf_counter()
        self.spans[-1][1] = t1
        self.overhead += t1 - t0

    def _close(self):
        t0 = time.perf_counter()
        idx = self._stack.pop()
        self.spans[idx][2] = t0
        self.overhead += time.perf_counter() - t0

    def begin_op(self, op_id):
        self._op = op_id
        self._open("op")

    def end_op(self):
        self._close()
        self._op = None

    def call(self, name, fn, *args, **kwargs):
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def self_times(self, probes: bool) -> dict[str, list[float]]:
        """Per span name, the self time of every span: its duration minus
        the time covered by its child spans.  Spans of the workload's
        operations and of the probes (operation id -1) are kept apart."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if (op == -1) == probes:
                out.setdefault(name, []).append(end - start - child[i])
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)


