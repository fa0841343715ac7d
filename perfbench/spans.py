"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's side, around each public call a
workload makes into a bornsolve module.  A span holds its name, start
and end in perf_counter_ns, the index of its parent span (or -1) and the
request id.  Nothing is written until the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    request: int


def untraced(name, fn, *args, **kwargs):
    """The call wrapper of the untraced run: no clock, no record."""
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self._records: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self._stack: list[int] = []
        self.request = -1

    def open(self, name: str) -> int:
        index = len(self._records)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self._records.append([name, 0, 0, parent, self.request])
        self._records[index][1] = time.perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter_ns()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self._records[index][2] = end

    def __call__(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name; the call wrapper of the traced run."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    @property
    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._records]

    def self_times_s(self, spans: list[Span]) -> list[float]:
        """Per span: duration minus the part covered by its direct children."""
        child_ns = [0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        return [(s.end_ns - s.start_ns - c) / 1e9 for s, c in zip(spans, child_ns)]

    def per_request(self, name: str, self_time: bool = True) -> dict[int, float]:
        """Total (self) seconds spent in spans called name, keyed by request id."""
        spans = self.spans
        times = self.self_times_s(spans) if self_time else [
            (s.end_ns - s.start_ns) / 1e9 for s in spans]
        out: dict[int, float] = defaultdict(float)
        for s, t in zip(spans, times):
            if s.name == name:
                out[s.request] += t
        return dict(out)

    def median(self, name: str, self_time: bool = True) -> float:
        return statistics.median(self.per_request(name, self_time).values())

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([s._asdict() for s in self.spans], handle)
