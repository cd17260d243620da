"""In-memory span recorder for the traced phase.

Spans are recorded from the benchmark's own files, around calls into the
program's public functions (spans inside the program are a later change).
Each span carries a name, start, end, the span that caused it (``parent``)
and the operation it belongs to (``op``); they stay in memory until the run
ends and are then written as Chrome trace-event JSON.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional

clock = time.perf_counter


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``span()`` nests by a stack, ``record()`` takes
    explicit times (for intervals that cross threads)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0

    def new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def record(
        self,
        name: str,
        start: float,
        end: float,
        op: int,
        parent: Optional[int] = None,
    ) -> int:
        span_id = self.new_id()
        self.spans.append(Span(span_id, name, start, end, parent, op))
        return span_id

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[int]:
        span_id = self.new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = clock()
        try:
            yield span_id
        finally:
            end = clock()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op))

    def write_chrome(self, path, pid: int = 0) -> int:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        origin = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid,
                "tid": 0,
                "args": {"id": span.id, "parent": span.parent, "op": span.op},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
        return len(events)


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of that
    interval its direct children cover (overlapping children count once)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = span.duration - covered
    return result


def per_op_totals(spans: List[Span], name: str) -> List[float]:
    """Total duration of the ``name`` spans of each operation, in op order."""
    totals: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.name == name:
            totals[span.op] += span.duration
    return [totals[op] for op in sorted(totals)]
