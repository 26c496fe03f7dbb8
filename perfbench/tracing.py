"""In-memory spans around the program's public calls, for the traced run.

The benchmark records spans from its own files: :class:`Tracer.wrap`
replaces a function or method on the program's module or class with a
timing wrapper for the duration of a ``with`` block and restores it
afterwards, so nothing under ``src/`` changes and the untraced run
executes the program untouched.  Spans stay in memory and are written
out once, at the end of the run (:func:`write_spans`).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "span_id")

    def __init__(self, name, start, end, parent, trace_id, span_id):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace_id = trace_id
        self.span_id = span_id

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict[str, Any]:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Collects spans: name, start, end, parent span and a trace id that
    every span of one operation shares (set by :meth:`operation`)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, *, new_trace: bool = False) -> Iterator[int]:
        stack = self._stack()
        span_id = next(self._ids)
        if stack and not new_trace:
            parent, trace_id = stack[-1][0], stack[-1][1]
        else:
            parent, trace_id = None, span_id
        stack.append((span_id, trace_id))
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, parent, trace_id, span_id))

    def operation(self, name: str):
        """Root span of one benchmark operation (starts a new trace id)."""
        return self.span(name, new_trace=True)

    def add(self, name: str, start: float, end: float, parent: int) -> None:
        """Record a span derived from others (e.g. the tail of a call
        after its last child), under ``parent``."""
        by_id = {s.span_id: s for s in self.spans}
        trace_id = by_id[parent].trace_id if parent in by_id else parent
        self.spans.append(Span(name, start, end, parent, trace_id, next(self._ids)))

    def traced(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def wrap(self, *targets: tuple[Any, str, str]) -> Iterator[None]:
        """Trace ``(owner, attribute, span_name)`` targets inside the block.

        ``owner`` is a module or class; a missing attribute is an error,
        so a renamed public function shows up instead of silently
        reading as zero time.
        """
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                fn = getattr(owner, attr)
                if isinstance(original, staticmethod):
                    setattr(owner, attr, staticmethod(self.traced(name, fn)))
                else:
                    setattr(owner, attr, self.traced(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived quantities -------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.span_id]

    def self_time(self, span: Span) -> float:
        """Duration minus the part of it that child spans cover."""
        covered = 0.0
        cursor = span.start
        for child in sorted(self.children(span), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return span.duration - covered

    def under(self, root: Span, name: str) -> list[Span]:
        """Spans called ``name`` anywhere below ``root``."""
        found, frontier = [], [root.span_id]
        while frontier:
            kids = [s for s in self.spans if s.parent in frontier]
            found.extend(s for s in kids if s.name == name)
            frontier = [s.span_id for s in kids]
        return found


def write_spans(path: Path, tracers: list[Tracer]) -> Path:
    """Write every span of ``tracers`` as JSON lines, once, at the end."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for tracer in tracers:
            for span in sorted(tracer.spans, key=lambda s: s.start):
                out.write(json.dumps(span.to_json()) + "\n")
    return path
