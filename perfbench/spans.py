"""In-memory span recording for the traced benchmark run.

A span is one timed call into a layer: a name, start and end (seconds on
``time.perf_counter``), the id of the span that caused it, the request it
belongs to, and the counters recorded at that boundary.  Spans are kept in
memory while the run measures and written out as JSON lines when it ends,
so tracing never touches the disk inside the timed phase.

Spans are recorded by the benchmark's own code around the public calls it
makes into the program; nothing inside the program is instrumented.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "counters": self.counters,
        }


class Tracer:
    """Records nested spans; each client thread keeps its own parent stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        """Time the enclosed block as a child of the thread's open span.

        Yields the :class:`Span` so the caller can attach counters to it.
        A child inherits its parent's request id unless it names one.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span_id = next(self._ids)
        span = Span(
            span_id,
            name,
            0.0,
            0.0,
            parent.span_id if parent is not None else None,
            request,
        )
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                handle.write(json.dumps(span.as_dict()) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the part of ``[lo, hi]`` covered by the union of intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def request_balance(spans: Iterable[Span]) -> float:
    """Largest gap, over requests, between a root's duration and the sum of
    the self times of every span in its request (0 when they add up)."""
    spans = list(spans)
    selfs = self_times(spans)
    by_request: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.request is not None:
            by_request[span.request].append(span)
    worst = 0.0
    for members in by_request.values():
        roots = [span for span in members if span.parent is None]
        if len(roots) != 1:
            return float("inf")
        total = sum(selfs[span.span_id] for span in members)
        worst = max(worst, abs(total - roots[0].duration))
    return worst


def self_time_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name, in seconds."""
    spans = list(spans)
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += selfs[span.span_id]
    return dict(totals)
