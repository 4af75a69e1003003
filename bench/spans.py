"""In-memory span recorder for traced benchmark runs.

A span is one timed call across a layer boundary.  It records its name,
start and end (perf_counter seconds), the span that caused it, the thread
it ran on and the run id shared by every span of one workload iteration.
Spans stay in memory until the iteration ends; nothing is written while
the program runs.

A span opened on a thread with an empty stack has no implicit parent, so
callers that hand work to pool threads pass the parent explicitly.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    run: int
    start: float
    end: float = float("nan")
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from every thread of one traced iteration."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Span | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        s = Span(next(self._ids), name, None if parent is None else parent.id,
                 threading.get_ident(), self.run_id, time.perf_counter())
        with self._lock:
            self.spans.append(s)
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover.

    Children on pool threads may overlap each other; their union is what
    is subtracted, so self time never goes negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def covered_time(spans: list[Span]) -> float:
    """Wall time covered by at least one of the given spans."""
    return _covered([(s.start, s.end) for s in spans])
