"""Process-local metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` owns named instruments; creation is
get-or-create, so any module can do ``metrics.counter("cache.hit").inc()``
without wiring a registry through every call chain.  ``snapshot()``
projects the whole registry into a JSON-ready dict for run manifests.

The dataset builders run their hot loops in *forked* worker processes,
where increments would land in a copy of the registry and vanish.
:meth:`MetricsRegistry.delta_since` / :meth:`MetricsRegistry.merge` close
that gap: a worker snapshots before an item, computes the delta after,
and ships the (small, picklable) delta back with the result;
``fork_map`` merges it into the parent registry.  Counter and histogram
deltas are exact under this scheme; gauges are last-write instruments and
are deliberately not merged across processes.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "get_registry",
    "counter",
    "gauge",
    "histogram",
]

Number = Union[int, float]

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0,
)
"""Upper bounds (exclusive of the implicit +inf overflow bucket); chosen
to span microsecond-scale items through multi-minute stages."""


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value: float = 0

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    kind = "gauge"

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self.value: float = 0

    def set(self, value: Number) -> None:
        with self._lock:
            self.value = value


class Histogram:
    """A bucketed distribution with count/sum/min/max."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        lock: threading.Lock,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self._lock = lock
        self.bounds: Tuple[float, ...] = tuple(sorted(buckets))
        # One slot per bound plus the +inf overflow bucket.
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.counts[bisect.bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    def stats(self) -> Dict[str, object]:
        """JSON-ready stats: count, sum, min, max and bucket counts."""
        with self._lock:
            return {
                "count": self.count,
                "sum": self.sum,
                "min": self.min,
                "max": self.max,
                "bounds": list(self.bounds),
                "counts": list(self.counts),
            }


class MetricsRegistry:
    """Named instruments with JSON snapshots and fork-delta merging."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}

    def _get(self, name: str, kind: type, **kwargs: object):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name, self._lock, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise ValueError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self._get(name, Gauge)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create a histogram (``buckets`` applies on creation only)."""
        if buckets is None:
            return self._get(name, Histogram)
        return self._get(name, Histogram, buckets=buckets)

    def reset(self) -> None:
        """Drop every instrument (tests and per-run isolation)."""
        with self._lock:
            self._metrics.clear()

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """The registry as JSON-ready nested dicts.

        ``{"counters": {name: value}, "gauges": {name: value},
        "histograms": {name: stats}}`` -- stable input to run manifests
        and to :meth:`delta_since`.
        """
        counters: Dict[str, object] = {}
        gauges: Dict[str, object] = {}
        histograms: Dict[str, object] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, Counter):
                counters[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.value
            elif isinstance(metric, Histogram):
                histograms[metric.name] = metric.stats()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def delta_since(
        self,
        baseline: Dict[str, Dict[str, object]],
        current: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> Dict[str, Dict[str, object]]:
        """What changed since ``baseline`` (a prior :meth:`snapshot`).

        Returns only non-zero counter increments and histograms with new
        observations, so worker→parent deltas stay tiny.  Histogram
        ``min``/``max`` carry the *current* extremes -- merging extremes
        is idempotent, so inherited pre-fork history cannot skew them.
        ``current`` (a later snapshot) ends the window; it defaults to
        now.
        """
        if current is None:
            current = self.snapshot()
        base_counters = baseline.get("counters", {})
        counters = {
            name: value - base_counters.get(name, 0)
            for name, value in current["counters"].items()
            if value != base_counters.get(name, 0)
        }
        base_histograms = baseline.get("histograms", {})
        histograms: Dict[str, object] = {}
        for name, stats in current["histograms"].items():
            base = base_histograms.get(
                name, {"count": 0, "sum": 0.0, "counts": [0] * len(stats["counts"])}
            )
            if stats["count"] == base["count"]:
                continue
            histograms[name] = {
                "count": stats["count"] - base["count"],
                "sum": stats["sum"] - base["sum"],
                "min": stats["min"],
                "max": stats["max"],
                "bounds": stats["bounds"],
                "counts": [
                    now - before
                    for now, before in zip(stats["counts"], base["counts"])
                ],
            }
        return {"counters": counters, "histograms": histograms}

    def merge(self, delta: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`delta_since` result into this registry."""
        for name, increment in delta.get("counters", {}).items():
            self.counter(name).inc(increment)
        for name, stats in delta.get("histograms", {}).items():
            hist = self.histogram(name, buckets=stats["bounds"])
            with self._lock:
                if tuple(stats["bounds"]) != hist.bounds:
                    raise ValueError(
                        f"histogram {name!r} bucket bounds changed across processes"
                    )
                for index, count in enumerate(stats["counts"]):
                    hist.counts[index] += count
                hist.count += stats["count"]
                hist.sum += stats["sum"]
                if stats["min"] is not None:
                    hist.min = (
                        stats["min"] if hist.min is None
                        else min(hist.min, stats["min"])
                    )
                if stats["max"] is not None:
                    hist.max = (
                        stats["max"] if hist.max is None
                        else max(hist.max, stats["max"])
                    )


_REGISTRY = MetricsRegistry()


def _fork_acquire() -> None:
    """Take the registry lock before a fork, so no child inherits it held."""
    _REGISTRY._lock.acquire()


def _fork_release() -> None:
    try:
        _REGISTRY._lock.release()
    except RuntimeError:  # pragma: no cover - already free
        pass


os.register_at_fork(
    before=_fork_acquire,
    after_in_parent=_fork_release,
    after_in_child=_fork_release,
)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY


def counter(name: str) -> Counter:
    """A counter in the default registry."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """A gauge in the default registry."""
    return _REGISTRY.gauge(name)


def histogram(name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
    """A histogram in the default registry."""
    return _REGISTRY.histogram(name, buckets=buckets)
