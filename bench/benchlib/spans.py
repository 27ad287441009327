"""Spans recorded in memory around calls into the library, and the
self-time arithmetic the per-layer metrics are built from.

The tracer is single-threaded: every job runs with ``workers=1``, so the
open spans form one stack and a span's parent is the span open below it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    """One timed call: perf-counter start and end in seconds."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int


# A counter hook receives the tracer's counters, the call's bound arguments
# and its result, and adds what the call did (samples drawn, bytes built).
CounterHook = Callable[[dict, dict, object], None]


class Tracer:
    """Collects spans and counters for the calls that pass through it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.hook_errors: dict[str, int] = defaultdict(int)
        self.job = 0
        self._stack: list[Span] = []
        self._ids = itertools.count()

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=next(self._ids), name=name,
                    start=time.perf_counter(), end=float("nan"), parent=parent,
                    job=self.job)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        self.spans.append(span)

    def wrap(self, fn: Callable, name: str,
             count: CounterHook | None = None) -> Callable:
        """Return fn wrapped in a span; arguments and result pass through
        unchanged, and a failing counter hook never fails the call."""
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(self.counters, bound.arguments, result)
                except (AttributeError, TypeError, ValueError, KeyError,
                        OSError):
                    self.hook_errors[name] += 1
            return result

        return traced

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    out = {span.id: span.end - span.start for span in spans}
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out
