"""In-memory span recorder for the traced benchmark run.

A span is (id, name, start, end, parent).  Spans come from two places, both
in the benchmark's own files:

* ``Recorder.span`` around the benchmark's own phases and calls;
* ``patched`` swaps a module attribute that the program looks up at call
  time (``mfcutfem.geometry.classify_cells`` as ``operators`` calls it,
  ``mfcutfem.operators.vmult`` as the benchmark's CG operator calls it,
  ...) for a wrapper that records a span, and puts the original back when
  the traced run ends.

Nothing under ``src/`` changes.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


class Recorder:
    """Collects nested spans; single-threaded, so a stack gives the parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                    self._stack[-1] if self._stack else None)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(s)

        traced.__wrapped__ = fn
        return traced


class NullRecorder:
    """Stands in for Recorder when tracing is off."""

    def span(self, name: str):
        return nullcontext()


@contextmanager
def patched(recorder: Recorder, targets):
    """Wrap ``(module, attribute, span name)`` targets for the duration."""
    saved = []
    try:
        for module, attr, name in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {s.id: [] for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    kids = children(spans)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(kids[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Children must lie inside their parent and siblings must not overlap."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if not s.end >= s.start:
            errors.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is not None:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end:
                errors.append(f"span {s.id} {s.name} leaves parent {p.id} {p.name}")
    for sibs in children(spans).values():
        sibs = sorted(sibs, key=lambda c: c.start)
        for a, b in zip(sibs, sibs[1:]):
            if b.start < a.end:
                errors.append(f"spans {a.id} {a.name} and {b.id} {b.name} overlap")
    return errors


def descendants(spans: list[Span], root: Span, name: str) -> list[Span]:
    """All spans called ``name`` below ``root``."""
    kids = children(spans)
    out, todo = [], list(kids[root.id])
    while todo:
        s = todo.pop()
        if s.name == name:
            out.append(s)
        todo.extend(kids[s.id])
    return sorted(out, key=lambda s: s.start)


def total(spans) -> float:
    return sum(s.end - s.start for s in spans)
