"""In-memory spans at the layer boundaries the benchmark itself crosses.

Spans are recorded from the benchmark's own call sites (the dialect proxy,
the ingest/store/index calls, ``ServiceClient.request``, chunk and pass
loops) — never from inside ``repro`` — kept in a list, and written as JSON
lines when the run ends.  A span's *self time* is its duration minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: Field order of one span row; also the keys of the JSON-lines records.
SPAN_FIELDS = (
    "id", "parent", "name", "workload", "pass", "chunk", "op", "start_ns", "end_ns",
)


class Tracer:
    """Collects spans and boundary counts for one workload run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Call sites test this flag, so an untraced pass pays one attribute
        #: read per boundary and nothing else.
        self.enabled = False
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.pass_index: Optional[int] = None
        self.chunk_index: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def adopt(self, parent: Optional[int]) -> None:
        """Make *parent* the enclosing span of the calling thread — how a
        client thread's spans hang under the chunk span that started it."""
        self._local.stack = [] if parent is None else [parent]

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start_ns: int, end_ns: int, op: Optional[int] = None) -> int:
        """Record a finished span under the calling thread's current span."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append([
                span_id, self.current(), name, self.workload,
                self.pass_index, self.chunk_index, op, start_ns, end_ns,
            ])
        return span_id

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[Optional[int]]:
        """Time the enclosed block as a span (a no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        with self._lock:
            span_id = len(self.spans)
            row = [
                span_id, self.current(), name, self.workload,
                self.pass_index, self.chunk_index, op, 0, 0,
            ]
            self.spans.append(row)
        stack = self._stack()
        stack.append(span_id)
        row[7] = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            row[8] = time.perf_counter_ns()
            stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a boundary counter (only while tracing)."""
        if self.enabled:
            with self._lock:
                self.counts[name] += amount

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[int, int]:
        """Self time in ns per span id."""
        return self_times([(row[0], row[1], row[7], row[8]) for row in self.spans])

    def self_time_by_name(self) -> Dict[str, int]:
        totals: Counter = Counter()
        for span_id, nanos in self.self_times().items():
            totals[self.spans[span_id][2]] += nanos
        return dict(totals)

    def write(self, path: str) -> None:
        """Write one JSON line per span, then one line with the counts."""
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.spans:
                handle.write(json.dumps(dict(zip(SPAN_FIELDS, row))) + "\n")
            handle.write(json.dumps({"counts": dict(sorted(self.counts.items()))}) + "\n")


def self_times(spans: List[Tuple[int, Optional[int], int, int]]) -> Dict[int, int]:
    """Self time per span from ``(id, parent, start, end)`` rows.

    Children may overlap each other (client threads under one chunk), so the
    covered part is the union of the child intervals clipped to the parent.
    """
    children: Dict[Optional[int], List[Tuple[int, int]]] = {}
    bounds = {span_id: (start, end) for span_id, _, start, end in spans}
    for span_id, parent, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    result: Dict[int, int] = {}
    for span_id, (start, end) in bounds.items():
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result
