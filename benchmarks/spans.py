"""Span recorder for the traced benchmark pass.

Public functions of the package modules are replaced, at their module
attributes, by wrappers that record one span per call: name, start, end and
the index of the enclosing span. Spans stay in memory until the pass ends.
With ``track_memory`` the recorder also keeps, per span, the peak of
``tracemalloc``'s traced memory above its level at span entry.

Everything runs in one thread, so a span's children are nested inside it
and never overlap each other; self time is the span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Any, Callable

# Library calls recorded for their count but charged to the calling layer:
# their time is not subtracted from the parent's self time.
TRANSPARENT = frozenset({"numpy.eigvalsh"})


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    child_time: float = 0.0
    alloc_base: int = 0
    alloc_peak: int = 0
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    @property
    def alloc_peak_bytes(self) -> int:
        return max(0, self.alloc_peak - self.alloc_base)


# note(args, kwargs, result) -> extra fields stored on the span
Note = Callable[[tuple, dict, Any], dict]


class SpanRecorder:
    """Collects nested spans from wrapped calls; one recorder per pass."""

    def __init__(self, track_memory: bool = False):
        self.spans: list[Span] = []
        self.track_memory = track_memory
        self._open: list[int] = []

    def _fold_peak(self) -> None:
        """Charge tracemalloc's peak since the last reset to every open span."""
        _, peak = tracemalloc.get_traced_memory()
        for idx in self._open:
            span = self.spans[idx]
            span.alloc_peak = max(span.alloc_peak, peak)
        tracemalloc.reset_peak()

    def wrap(self, name: str, fn: Callable, note: Note | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            idx = len(self.spans)
            span = Span(name, 0.0, parent)
            self.spans.append(span)
            if self.track_memory:
                self._fold_peak()
                span.alloc_base = span.alloc_peak = tracemalloc.get_traced_memory()[0]
            self._open.append(idx)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                span.info["raised"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if self.track_memory:
                    self._fold_peak()
                self._open.pop()
                if parent is not None and name not in TRANSPARENT:
                    self.spans[parent].child_time += span.duration
                if note is not None and "raised" not in span.info:
                    span.info.update(note(args, kwargs, result))

        return traced

    def dump(self, path) -> None:
        """Write one JSON object per span, in call order."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, **span.info,
                }) + "\n")


@contextlib.contextmanager
def instrumented(recorder: SpanRecorder, targets):
    """Replace each ``(module, attribute, span_name, note)`` target by a
    recording wrapper for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, name, note in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, note))
        with contextlib.ExitStack() as stack:
            if recorder.track_memory:
                tracemalloc.start()
                stack.callback(tracemalloc.stop)
            yield recorder
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, outer calls (parent has another name), summed
    self time, and the largest allocation peak in MB."""
    totals: dict[str, dict[str, float]] = {}
    for span in spans:
        t = totals.setdefault(span.name, {
            "calls": 0, "outer_calls": 0, "self_s": 0.0, "alloc_peak_mb": 0.0,
        })
        t["calls"] += 1
        if span.parent is None or spans[span.parent].name != span.name:
            t["outer_calls"] += 1
        t["self_s"] += span.self_time
        t["alloc_peak_mb"] = max(t["alloc_peak_mb"], span.alloc_peak_bytes / 1e6)
    return totals


def has_ancestor(spans: list[Span], span: Span, prefix: str) -> bool:
    idx = span.parent
    while idx is not None:
        if spans[idx].name.startswith(prefix):
            return True
        idx = spans[idx].parent
    return False
