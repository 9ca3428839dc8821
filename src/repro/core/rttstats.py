"""Per-AS-path RTT statistics and the best-path baseline (Section 4.2).

The paper aggregates a timeline's RTTs into buckets, one per AS path, and
computes the 10th percentile (the *baseline* RTT, below the spikes) and the
90th percentile (spike-inclusive) of each bucket.  The path with the lowest
10th percentile is the timeline's *best* path; the increase of every other
path's percentile over the best path's quantifies the cost of sub-optimal
routing.

Each percentile is read off the buckets' sorted finite RTTs
(:meth:`~repro.datasets.timeline.TraceTimeline.sorted_buckets`), bit for
bit what ``np.percentile`` returns.  The sort is transient: the first
call on a timeline reads every percentile in :data:`MEMO_PERCENTILES`
(the only two the experiments ask for) off one sort and memoizes each
per ``q``; any other ``q`` sorts again and is not memoized.  So no sorted
bucket outlives the call, and no timeline is sorted twice.

A population analysis fills the memo of all its timelines first
(:func:`memoize_percentiles`): each timeline is still selected and
sorted on its own, and the percentiles of :data:`PERCENTILE_ROWS`
timelines' buckets are read in one pass.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.ecdf import sorted_quantiles
from repro.datasets.timeline import TraceTimeline, population_products

__all__ = [
    "MEMO_PERCENTILES",
    "memoize_percentiles",
    "sorted_percentiles",
    "path_percentiles",
    "best_path_id",
    "rtt_increase_from_best",
    "path_rtt_std",
]

MIN_BUCKET_SAMPLES = 3
"""Buckets smaller than this give meaningless percentiles and are skipped."""

MEMO_PERCENTILES = (10.0, 90.0)
"""Percentiles memoized per timeline: the baseline and the spike-inclusive one."""

PERCENTILE_ROWS = 8
"""Timelines whose buckets :func:`memoize_percentiles` reads in one pass:
their sorted RTTs are ~90 KB on the default scenario, and do not grow
the heap."""


def sorted_percentiles(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray, q: float
) -> np.ndarray:
    """The ``q``-th percentile of many sorted float segments at once.

    :func:`~repro.core.ecdf.sorted_quantiles` at ``q / 100``: bit for bit
    ``np.percentile(segment, q)`` for each segment, NaN for empty ones.
    """
    return sorted_quantiles(values, starts, counts, q / 100)


def path_percentiles(timeline: TraceTimeline, q: float) -> Dict[int, float]:
    """The ``q``-th RTT percentile of each AS-path bucket.

    Only usable samples with finite RTTs enter the buckets; buckets with
    fewer than :data:`MIN_BUCKET_SAMPLES` samples are dropped.  A ``q``
    in :data:`MEMO_PERCENTILES` is memoized on the timeline, together
    with the others read off the same sort; every call returns a fresh
    dict.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if q not in MEMO_PERCENTILES:
        return _percentiles([timeline], (q,))[0][0]
    return dict(timeline.product(("percentiles", q), lambda: _fill([timeline], q)[0]))


def memoize_percentiles(timelines: Sequence[TraceTimeline], q: float) -> None:
    """Memoize what :func:`path_percentiles` would for ``q``, for a whole
    population; nothing for a ``q`` outside :data:`MEMO_PERCENTILES`.

    Timelines that hold the percentiles already are skipped, and the
    others' buckets are read :data:`PERCENTILE_ROWS` timelines at a time.
    """
    if q in MEMO_PERCENTILES:
        population_products(list(timelines), ("percentiles", q), lambda rows: _fill(rows, q))


def _fill(timelines: List[TraceTimeline], q: float) -> List[Dict[int, float]]:
    """Each timeline's ``q``-th percentiles; memoizes the other memoized ones.

    Every percentile of :data:`MEMO_PERCENTILES` is read off the same
    sort of a timeline's buckets.
    """
    wanted: List[Dict[int, float]] = []
    for start in range(0, len(timelines), PERCENTILE_ROWS):
        rows = timelines[start:start + PERCENTILE_ROWS]
        for timeline, results in zip(rows, _percentiles(rows, MEMO_PERCENTILES)):
            for other, result in zip(MEMO_PERCENTILES, results):
                if other != q:
                    timeline.product(("percentiles", other), lambda result=result: result)
            wanted.append(results[MEMO_PERCENTILES.index(q)])
    return wanted


def _percentiles(
    timelines: Sequence[TraceTimeline], qs: Sequence[float]
) -> List[List[Dict[int, float]]]:
    """The ``qs`` percentiles of each timeline's buckets, per timeline.

    Each timeline's buckets are sorted on their own
    (:meth:`~repro.datasets.timeline.TraceTimeline.sorted_buckets`);
    one :func:`~repro.core.ecdf.sorted_quantiles` call reads every
    bucket of every timeline at every ``q``, in float32.
    """
    buckets = [timeline.sorted_buckets(MIN_BUCKET_SAMPLES) for timeline in timelines]
    starts: List[int] = []
    counts: List[int] = []
    offset = 0
    for _, values, bounds in buckets:
        for low, high in zip(bounds[:-1], bounds[1:]):
            starts.append(offset + low)
            counts.append(high - low)
        offset += values.size
    total = len(starts)
    read: List[float] = []
    if total:
        values = np.concatenate([values for _, values, _ in buckets])
        fractions = np.repeat(np.asarray([q / 100 for q in qs]), total)
        read = sorted_quantiles(
            values, np.tile(starts, len(qs)), np.tile(counts, len(qs)), fractions
        ).tolist()
    results: List[List[Dict[int, float]]] = []
    position = 0
    for path_ids, _, _ in buckets:
        end = position + len(path_ids)
        results.append([
            dict(zip(path_ids, read[index * total + position:index * total + end]))
            for index in range(len(qs))
        ])
        position = end
    return results


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
