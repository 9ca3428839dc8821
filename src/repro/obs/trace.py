"""Hierarchical wall-time spans with Chrome trace-event export.

Spans are the pipeline's one stage-timing model: each span has an id, a
parent (the span open when it started), attributes and a wall time, so a
run decomposes as a tree::

    reproduce
    ├── topology … congestion     (platform build stages)
    ├── longterm-build
    │   └── fork_map:longterm     (items / jobs / worker seconds in attrs)
    └── experiment:table1 …

A :class:`Tracer` collects spans; the module keeps one *current* tracer
(swap it with :func:`use_tracer` for an isolated run).  Export formats:

- :meth:`Tracer.to_chrome_trace` -- the Chrome trace-event JSON the CLI
  writes for ``--trace-out``; drop the file on https://ui.perfetto.dev
  (or ``chrome://tracing``) for a flame view.
- :meth:`Tracer.summary` -- per-name aggregates for the run manifest.
- :meth:`Tracer.stage_seconds` -- the root's direct children, repeats
  summed: the rows of the ``reproduce --timings`` table.

Tracing is in-process: spans opened inside forked dataset workers stay in
the worker.  ``fork_map`` instead reports aggregate worker wall time as
attributes on its own span in the parent, so worker cost still shows up
in the parent trace.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.obs.log import get_logger

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "span",
]

_LOG = get_logger("repro.obs.trace")


@dataclass
class Span:
    """One timed region of the pipeline."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    """``time.perf_counter()`` at open."""
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_seconds(self) -> float:
        """Wall time of the span (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return max(0.0, self.end - self.start)


class Tracer:
    """Collects a tree of spans for one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a span for the ``with`` block; nests under the current span."""
        opened = self._open(name, attrs)
        try:
            yield opened
        finally:
            self._close(opened)

    def _open(self, name: str, attrs: Dict[str, object]) -> Span:
        with self._lock:
            parent = self._stack[-1].span_id if self._stack else None
            opened = Span(
                name=name,
                span_id=self._next_id,
                parent_id=parent,
                start=time.perf_counter(),
                attrs=dict(attrs),
            )
            self._next_id += 1
            self.spans.append(opened)
            self._stack.append(opened)
        return opened

    def _close(self, opened: Span) -> None:
        with self._lock:
            opened.end = time.perf_counter()
            if opened in self._stack:
                self._stack.remove(opened)
        _LOG.debug(
            "span", name=opened.name,
            seconds=round(opened.duration_seconds, 6), **opened.attrs
        )

    def record_span(self, name: str, seconds: float, **attrs: object) -> Span:
        """Append an already-measured span (ends now, started ``seconds`` ago)."""
        now = time.perf_counter()
        with self._lock:
            parent = self._stack[-1].span_id if self._stack else None
            recorded = Span(
                name=name,
                span_id=self._next_id,
                parent_id=parent,
                start=now - float(seconds),
                end=now,
                attrs=dict(attrs),
            )
            self._next_id += 1
            self.spans.append(recorded)
        return recorded

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        with self._lock:
            return self._stack[-1] if self._stack else None

    def roots(self) -> List[Span]:
        """Spans with no parent, in open order."""
        return [item for item in self.spans if item.parent_id is None]

    def total_seconds(self) -> float:
        """Combined wall time of all root spans."""
        return sum(item.duration_seconds for item in self.roots())

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregates: ``{name: {"count": n, "seconds": total}}``.

        Ordered by first appearance, so manifests read in pipeline order.
        """
        merged: Dict[str, Dict[str, float]] = {}
        for item in self.spans:
            entry = merged.setdefault(item.name, {"count": 0, "seconds": 0.0})
            entry["count"] += 1
            entry["seconds"] += item.duration_seconds
        for entry in merged.values():
            entry["seconds"] = round(entry["seconds"], 6)
        return merged

    def stage_seconds(self) -> Dict[str, float]:
        """Seconds per name of the root spans' direct children.

        Repeats are summed and names keep their first-appearance order, so
        the table reads in pipeline order: one row per build stage and per
        experiment, with deeper spans (``fork_map:*``, self-checks) folded
        into their stage.
        """
        root_ids = {item.span_id for item in self.roots()}
        merged: Dict[str, float] = {}
        for item in self.spans:
            if item.parent_id in root_ids:
                merged[item.name] = merged.get(item.name, 0.0) + item.duration_seconds
        return merged

    def coverage(self) -> Optional[float]:
        """Fraction of root wall time covered by the roots' direct children.

        The acceptance bar for an instrumented pipeline: close to 1.0
        means almost no un-attributed time under the run's root span.
        ``None`` when there are no closed root spans.
        """
        total = self.total_seconds()
        if total <= 0.0:
            return None
        return min(1.0, sum(self.stage_seconds().values()) / total)

    def to_chrome_trace(self) -> Dict[str, object]:
        """The span tree as Chrome trace-event JSON (perfetto-compatible).

        Complete events (``ph: "X"``) with microsecond timestamps relative
        to the earliest span; nesting is positional (same pid/tid,
        contained intervals), exactly how trace viewers expect it.
        """
        epoch = min((item.start for item in self.spans), default=0.0)
        pid = os.getpid()
        events = []
        for item in self.spans:
            args: Dict[str, object] = {"span_id": item.span_id}
            if item.parent_id is not None:
                args["parent_id"] = item.parent_id
            args.update(item.attrs)
            events.append(
                {
                    "name": item.name,
                    "cat": "repro",
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": round((item.start - epoch) * 1e6, 3),
                    "dur": round(item.duration_seconds * 1e6, 3),
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The current tracer (a fresh process-wide default until swapped)."""
    return _TRACER


def set_tracer(tracer: Tracer) -> None:
    """Replace the current tracer."""
    global _TRACER
    _TRACER = tracer


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Make ``tracer`` current for the ``with`` block, then restore."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attrs: object):
    """A span on the current tracer (convenience for instrumentation)."""
    return get_tracer().span(name, **attrs)
