"""Per-AS-path RTT statistics and the best-path baseline (Section 4.2).

The paper aggregates a timeline's RTTs into buckets, one per AS path, and
computes the 10th percentile (the *baseline* RTT, below the spikes) and the
90th percentile (spike-inclusive) of each bucket.  The path with the lowest
10th percentile is the timeline's *best* path; the increase of every other
path's percentile over the best path's quantifies the cost of sub-optimal
routing.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.datasets.timeline import TraceTimeline

__all__ = [
    "path_percentiles",
    "best_path_id",
    "rtt_increase_from_best",
    "path_rtt_std",
]

MIN_BUCKET_SAMPLES = 3
"""Buckets smaller than this give meaningless percentiles and are skipped."""


def path_percentiles(timeline: TraceTimeline, q: float) -> Dict[int, float]:
    """The ``q``-th RTT percentile of each AS-path bucket.

    Only usable samples with finite RTTs enter the buckets; buckets with
    fewer than :data:`MIN_BUCKET_SAMPLES` samples are dropped.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    result: Dict[int, float] = {}
    for path_id, rtts in timeline.usable_rtts_by_path().items():
        finite = rtts[np.isfinite(rtts)]
        if finite.size < MIN_BUCKET_SAMPLES:
            continue
        result[path_id] = float(np.percentile(finite, q))
    return result


def path_rtt_std(timeline: TraceTimeline) -> Dict[int, float]:
    """Standard deviation of RTTs per AS-path bucket.

    The paper's alternative best-path criterion (end of Section 4.2).
    """
    result: Dict[int, float] = {}
    for path_id, rtts in timeline.usable_rtts_by_path().items():
        finite = rtts[np.isfinite(rtts)]
        if finite.size < MIN_BUCKET_SAMPLES:
            continue
        result[path_id] = float(np.std(finite))
    return result


def best_path_id(timeline: TraceTimeline, q: float = 10.0) -> Optional[int]:
    """Path id with the lowest ``q``-th RTT percentile.

    "Best" is among paths actually observed, as in the paper; ``None`` when
    no bucket is large enough.
    """
    percentiles = path_percentiles(timeline, q)
    if not percentiles:
        return None
    return min(percentiles, key=lambda path_id: (percentiles[path_id], path_id))


def rtt_increase_from_best(
    timeline: TraceTimeline, q: float = 10.0, best_q: Optional[float] = None
) -> Dict[int, float]:
    """Increase of each sub-optimal path's percentile over the best path's.

    Args:
        timeline: The trace timeline.
        q: Percentile compared (10 for Figure 4, 90 for Figure 5).
        best_q: Percentile used to *select* the best path; defaults to
            ``q`` itself, matching the paper (Figure 5 measures 90th
            percentile increases relative to the path with the lowest 90th
            percentile).

    Returns:
        Mapping of sub-optimal path id to its increase in ms.  Empty when
        the timeline has fewer than two measurable paths.
    """
    select_q = q if best_q is None else best_q
    selection = path_percentiles(timeline, select_q)
    if len(selection) < 2:
        return {}
    best = min(selection, key=lambda path_id: (selection[path_id], path_id))
    measured = selection if select_q == q else path_percentiles(timeline, q)
    return {
        path_id: measured[path_id] - measured[best]
        for path_id in measured
        if path_id != best and best in measured
    }
