"""Layer spans recorded from outside the program.

The benchmark wraps public functions and methods of the ``repro`` layers
and records one span per call: name, start, end and the id of the span
that was open when the call began.  Spans stay in memory; the worker
reduces them to per-name call counts and self times when the run ends.

A function is patched at every name it is bound to.  ``repro`` modules
often import a function by name (``from repro.core.routechange import
analyze_timeline``), so replacing only the defining module's attribute
would miss those callers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

_SCALARS = (int, float, complex, str, bytes, bool, type(None))


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float = 0.0


@dataclass
class Recorder:
    """An in-memory span stack for one thread of one process."""

    spans: List[Span] = field(default_factory=list)
    _stack: List[Span] = field(default_factory=list)
    inputs: Dict[str, set] = field(default_factory=lambda: defaultdict(set))
    """Distinct inputs per name, for names that track them."""
    kept: Dict[int, object] = field(default_factory=dict)
    """Every input keyed by identity, held so that its id is not reused."""
    items: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    """Items yielded per name, for wrapped generators."""

    def input_key(self, args: tuple, kwargs: dict) -> tuple:
        """Scalars (and tuples of them) by value, any other object by identity."""
        return tuple(self._value_key(value) for value in args) + tuple(
            (key, self._value_key(kwargs[key])) for key in sorted(kwargs)
        )

    def _value_key(self, value) -> tuple:
        if isinstance(value, _SCALARS) or (
                isinstance(value, tuple) and all(isinstance(v, _SCALARS) for v in value)):
            return ("value", value)
        self.kept[id(value)] = value
        return ("id", id(value))

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, len(self.spans) + 1, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Generators and exceptions can close out of order; drop the span
        # and anything opened inside it.
        while self._stack:
            if self._stack.pop() is span:
                break


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part its children cover.

    Children are clipped to their parent's interval and merged, so
    overlapping or out-of-bounds children are never subtracted twice.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append(span)
    result: Dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result[span.span_id] = max(0.0, (span.end - span.start) - covered)
    return result


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per-name ``calls`` and summed ``self_s``."""
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        entry = summary[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[span.span_id]
    return dict(summary)


def covered_seconds(spans: Sequence[Span], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by any root span."""
    covered = 0.0
    cursor = start
    for span in sorted((s for s in spans if s.parent_id is None), key=lambda s: s.start):
        low = max(span.start, cursor)
        high = min(span.end, end)
        if high > low:
            covered += high - low
            cursor = high
    return covered


def _wrap(recorder: Recorder, name: str, func: Callable, track_inputs: bool,
          skip: int) -> Callable:
    if inspect.isgeneratorfunction(func):
        # Time each resumption separately: the consumer's work between
        # two items must not count as the generator's.
        @functools.wraps(func)
        def generator_wrapper(*args, **kwargs):
            inner = func(*args, **kwargs)
            try:
                while True:
                    span = recorder.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        recorder.close(span)
                    recorder.items[name] += 1
                    yield item
            finally:
                inner.close()

        return generator_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if track_inputs:
            recorder.inputs[name].add(recorder.input_key(args[skip:], kwargs))
        span = recorder.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


def patch_function(recorder: Recorder, module, attr: str, name: str,
                   track_inputs: bool = False) -> int:
    """Wrap ``module.attr`` wherever a ``repro`` module binds it; returns the count."""
    original = getattr(module, attr)
    wrapped = _wrap(recorder, name, original, track_inputs, skip=0)
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)
                bound += 1
    return bound


def patch_methods(recorder: Recorder, cls: type, methods: Iterable[str], name: str,
                  track_inputs: bool = False) -> int:
    """Wrap methods defined on ``cls`` (not inherited ones) under one span name."""
    patched = 0
    for method in methods:
        original = cls.__dict__.get(method)
        if original is None:
            continue
        setattr(cls, method, _wrap(recorder, name, original, track_inputs, skip=1))
        patched += 1
    return patched
