"""Span recording for the traced run, and the statistics computed from spans.

A span is one benchmark call into a public paradirac function: its name,
start, end, parent span and op id.  Spans are kept in memory as parallel
lists and written out once, when the run ends.  The untraced run uses
``Untraced``, which calls straight through.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from time import perf_counter


def percentile(values, q):
    """q-th percentile (0..100) by linear interpolation between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Untraced:
    """Calls through without recording anything."""

    op = 0
    counting = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, amount):
        pass


class Tracer:
    """In-memory span recorder; span i is (names[i], starts[i], ends[i], parents[i], ops[i])."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: Counter = Counter()
        self.op = 0
        self.counting = False
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.ends[index] = perf_counter()
            self.starts[index] = start
            self._stack.pop()

    def count(self, name, amount):
        """Add to a counter; only the fixed counting prefix of the run counts,
        so that the totals repeat exactly for a seed."""
        if self.counting:
            self.counts[name] += amount

    def spans(self):
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops))


def self_times(spans):
    """Self time of each span: its duration minus the union of its children."""
    children = defaultdict(list)
    for index, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][1]):
            c_start = max(spans[child][1], cursor)
            c_end = min(spans[child][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def span_stats(spans):
    """{name: (calls, busy_s, p50_us)} with busy_s the summed self time."""
    selfs = self_times(spans)
    durations = defaultdict(list)
    busy = defaultdict(float)
    for (name, start, end, _, _), own in zip(spans, selfs):
        durations[name].append(end - start)
        busy[name] += own
    return {
        name: (len(values), busy[name], percentile(values, 50) * 1e6)
        for name, values in durations.items()
    }
