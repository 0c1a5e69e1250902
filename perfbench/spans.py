"""Benchmark-side tracing: spans around calls into reservelab's public functions.

Wrappers are installed at run time on the names the calling modules bind
(for example `reservelab.cli.parse_log`), so nothing under `src/` changes.
Spans stay in memory as plain tuples and are written out once, when the run
ends. A layer's self time is its span's duration minus the part of that
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    span_id: int
    parent_id: Optional[int]
    trace_id: int      # one per benchmark operation; every span of that op shares it
    name: str
    start: float
    end: float
    work: tuple        # counts the extractor read off the call, e.g. (rows, bytes)


class Tracer:
    """Records spans while `enabled`; a disabled wrapper only calls through."""

    def __init__(self):
        self.spans: list[Span] = []
        self.enabled = False
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, Optional[int]]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id: int, parent: Optional[int], name: str,
               start: float, end: float, work: tuple) -> None:
        self._stack.pop()
        self.spans.append(Span(span_id, parent, self.trace_id, name, start, end, work))

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself (one per operation)."""
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, name, start, time.perf_counter(), ())

    def wrap(self, fn: Callable, name, work: Optional[Callable] = None) -> Callable:
        """Wrap fn. `name` is a string or a function of the call's arguments;
        `work(args, kwargs, result)` returns a tuple of counts for the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args, kwargs)
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer._close(span_id, parent, span_name, start, end, ())
                raise
            end = time.perf_counter()
            counts = work(args, kwargs, result) if work is not None else ()
            tracer._close(span_id, parent, span_name, start, end, counts)
            return result

        return traced


def rebind(modules, original: Callable, wrapper: Callable) -> int:
    """Point every module-level name bound to `original` at `wrapper`. Returns how many."""
    count = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                count += 1
    return count


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the union of its children's intervals, clipped to it."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


class SpanStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float
    work: tuple


def aggregate(spans: list[Span]) -> dict[str, SpanStats]:
    """Per span name: call count, summed duration, summed self time, summed work counts."""
    selfs = self_times(spans)
    acc: dict[str, list] = {}
    for s in spans:
        a = acc.setdefault(s.name, [0, 0.0, 0.0, []])
        a[0] += 1
        a[1] += s.end - s.start
        a[2] += selfs[s.span_id]
        if s.work:
            if not a[3]:
                a[3] = [0] * len(s.work)
            a[3] = [x + y for x, y in zip(a[3], s.work)]
    return {k: SpanStats(c, t, st, tuple(w)) for k, (c, t, st, w) in acc.items()}
