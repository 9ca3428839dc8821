"""Prevalence of sub-optimal AS paths at RTT thresholds (Figure 6).

For each timeline and each threshold (the paper uses 20, 50 and 100 ms),
sum the prevalence of every sub-optimal path whose baseline (10th
percentile) RTT exceeds the best path's by at least the threshold.  The
figure is the ECDF of these per-timeline prevalence sums.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.core.ecdf import ECDF
from repro.core.routechange import path_prevalence
from repro.core.rttstats import memoize_percentiles, rtt_increase_from_best
from repro.datasets.timeline import TraceTimeline

__all__ = ["timeline_suboptimal_prevalence", "suboptimal_prevalence"]

DEFAULT_THRESHOLDS_MS: Tuple[float, ...] = (20.0, 50.0, 100.0)


def timeline_suboptimal_prevalence(
    timeline: TraceTimeline,
    thresholds_ms: Sequence[float] = DEFAULT_THRESHOLDS_MS,
    q: float = 10.0,
) -> Dict[float, float]:
    """Summed prevalence of sub-optimal paths per threshold, one timeline.

    A timeline with a single observed path scores 0 at every threshold.
    """
    increases = rtt_increase_from_best(timeline, q=q)
    prevalence = path_prevalence(timeline)
    result: Dict[float, float] = {}
    for threshold in thresholds_ms:
        result[threshold] = sum(
            prevalence.get(path_id, 0.0)
            for path_id, increase in increases.items()
            if increase >= threshold
        )
    return result


def suboptimal_prevalence(
    timelines: Iterable[TraceTimeline],
    thresholds_ms: Sequence[float] = DEFAULT_THRESHOLDS_MS,
    q: float = 10.0,
) -> Dict[float, ECDF]:
    """The Figure 6 ECDFs: per-timeline prevalence sums, per threshold."""
    timelines = list(timelines)
    memoize_percentiles(timelines, q)
    collected: Dict[float, list] = {threshold: [] for threshold in thresholds_ms}
    for timeline in timelines:
        per_threshold = timeline_suboptimal_prevalence(timeline, thresholds_ms, q=q)
        for threshold, value in per_threshold.items():
            collected[threshold].append(value)
    return {threshold: ECDF(values) for threshold, values in collected.items()}
