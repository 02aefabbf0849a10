"""In-memory spans for the traced run.

A span records a name, its start and end (``time.monotonic()``), the
index of the span that was open when it started (its parent) and the op
it belongs to.  Spans stay in memory and are written out once, when the
traced op's process ends.  A span's *self time* is its duration minus
the part of it that its child spans cover.
"""

import time
from contextlib import contextmanager


class Spans:
    """A single-threaded span recorder."""

    def __init__(self, op="op"):
        self.op = op
        #: One ``[name, start, end, parent, op]`` list per span.
        self.records = []
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.records)
        parent = self._open[-1] if self._open else None
        record = [name, time.monotonic(), None, parent, self.op]
        self.records.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.monotonic()

    def add(self, name, start, end):
        """Record a top-level span measured elsewhere."""
        self.records.append([name, start, end, None, self.op])

    def self_times(self):
        """Self time of every span, by index."""
        return self_times(self.records)

    def totals(self):
        """``{name: [count, total_s, self_s]}`` over all spans."""
        selfs = self.self_times()
        out = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.records):
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += selfs[index]
        return out


def self_times(records):
    """Duration minus the union of child intervals, clipped to the span."""
    children = {}
    for name, start, end, parent, _op in records:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (_name, start, end, _parent, _op) in enumerate(records):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out.append((end - start) - covered)
    return out
