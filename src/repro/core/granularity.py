"""Measurement-granularity sensitivity (Section 4.3, Figure 7).

The long-term campaign measures every 3 hours; the short-term campaign
every 30 minutes.  To check that the coarse cadence does not distort the
RTT-increase analysis, the paper computes the per-path percentile increases
twice over the short-term data -- once from all traceroutes, once from a
subsample spaced at least 3 hours apart -- and compares the ECDFs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.core.ecdf import ECDF
from repro.core.rttstats import memoize_percentiles, rtt_increase_from_best
from repro.datasets.timeline import TraceTimeline

__all__ = ["GranularityComparison", "subsample_timeline", "compare_granularity"]


@dataclass
class GranularityComparison:
    """Increase ECDFs from full-cadence vs subsampled data."""

    all_increases: ECDF
    subsampled_increases: ECDF

    def max_quantile_gap(self, quantiles: Iterable[float] = (0.25, 0.5, 0.75, 0.9)) -> float:
        """Largest absolute difference between the two ECDFs' quantiles."""
        gaps = [
            abs(self.all_increases.quantile(q) - self.subsampled_increases.quantile(q))
            for q in quantiles
        ]
        finite = [gap for gap in gaps if np.isfinite(gap)]
        return max(finite) if finite else float("nan")

    def ks_distance(self, resolution_ms: float = 1.0) -> float:
        """Kolmogorov-Smirnov distance between the two ECDFs.

        The robust summary of "the two curves nearly coincide": quantile
        gaps blow up in sparse tails, while the KS statistic stays in
        ``[0, 1]`` and directly measures the visual gap in Figure 7.

        Evaluated only above ``resolution_ms``: sub-millisecond increase
        values are percentile jitter below measurement resolution, and the
        two curves crossing steeply inside that noise floor says nothing
        about cadence distortion.
        """
        if len(self.all_increases) == 0 or len(self.subsampled_increases) == 0:
            return float("nan")
        grid = np.unique(
            np.concatenate(
                [self.all_increases.values, self.subsampled_increases.values]
            )
        )
        grid = grid[grid >= resolution_ms]
        if grid.size == 0:
            return 0.0
        gaps = [
            abs(self.all_increases.at(x) - self.subsampled_increases.at(x))
            for x in grid
        ]
        return float(max(gaps))


def subsample_timeline(timeline: TraceTimeline, min_gap_hours: float = 3.0) -> TraceTimeline:
    """Keep only samples spaced at least ``min_gap_hours`` apart.

    Returns a new timeline sharing the parent's path table.
    """
    if min_gap_hours <= 0:
        raise ValueError("minimum gap must be positive")
    times = timeline.times_hours
    keep: List[int] = []
    last = -np.inf
    for index, time in enumerate(times):
        if time - last >= min_gap_hours - 1e-9:
            keep.append(index)
            last = time
    mask = np.asarray(keep, dtype=int)
    candidates = timeline.true_candidate
    return TraceTimeline(
        src_server_id=timeline.src_server_id,
        dst_server_id=timeline.dst_server_id,
        version=timeline.version,
        times_hours=times[mask],
        rtt_ms=timeline.rtt_ms[mask],
        outcome=timeline.outcome[mask],
        path_id=timeline.path_id[mask],
        paths=timeline.paths,
        true_candidate=candidates[mask] if candidates.size == times.size else candidates,
    )


def compare_granularity(
    timelines: Iterable[TraceTimeline],
    q: float = 10.0,
    min_gap_hours: float = 3.0,
) -> GranularityComparison:
    """Build the Figure 7 comparison over a set of short-term timelines.

    Only AS paths measurable at *both* cadences enter the comparison:
    a path whose subsampled bucket is too small to yield a percentile says
    nothing about cadence distortion, only about sample counts.
    """
    timelines = list(timelines)
    subsamples = [subsample_timeline(timeline, min_gap_hours) for timeline in timelines]
    memoize_percentiles(timelines, q)
    memoize_percentiles(subsamples, q)
    all_values: List[float] = []
    sub_values: List[float] = []
    for timeline, subsample in zip(timelines, subsamples):
        full = rtt_increase_from_best(timeline, q=q)
        subsampled = rtt_increase_from_best(subsample, q=q)
        common = sorted(set(full) & set(subsampled))
        all_values.extend(full[path_id] for path_id in common)
        sub_values.extend(subsampled[path_id] for path_id in common)
    return GranularityComparison(
        all_increases=ECDF(all_values),
        subsampled_increases=ECDF(sub_values),
    )
