"""Routing-change analysis: changes, lifetimes, prevalence (Section 4).

The unit of analysis is the trace timeline.  Key definitions from the
paper, all implemented here:

- a **change** happens when two consecutive (usable) traceroutes report AS
  paths with non-zero edit distance, and is assumed to happen at the later
  traceroute's time;
- the **lifetime** of an AS path is the total time it was observed, each
  observation extending it by one measurement period (3 hours in the
  long-term campaign) -- observations need not be contiguous;
- the **prevalence** of a path is its lifetime as a fraction of the
  timeline's total observed lifetime; the **popular** path is the one with
  the longest lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.editdist import edit_distance
from repro.datasets.timeline import TraceTimeline
from repro.net.asn import ASN

__all__ = [
    "ChangeEvent",
    "PathStats",
    "change_count",
    "change_events",
    "path_lifetimes",
    "path_prevalence",
    "popular_path",
    "analyze_timeline",
    "as_path_pair_count",
]


@dataclass(frozen=True)
class ChangeEvent:
    """One AS-path change within a timeline."""

    time_hours: float
    old_path: Tuple[ASN, ...]
    new_path: Tuple[ASN, ...]
    distance: int


@dataclass
class PathStats:
    """Per-timeline routing statistics (one protocol, one direction)."""

    pair: Tuple[int, int]
    unique_paths: int
    changes: int
    lifetimes_hours: Dict[int, float]
    prevalence: Dict[int, float]
    popular_path_id: Optional[int]
    popular_prevalence: float


def change_count(timeline: TraceTimeline) -> int:
    """Number of AS-path changes between consecutive usable traceroutes.

    Memoized on the timeline (:meth:`TraceTimeline.path_change_count`,
    filled with the per-path sample counts): several experiments
    analyze each one.
    """
    return timeline.path_change_count()


def change_events(timeline: TraceTimeline) -> List[ChangeEvent]:
    """All change events, with edit distances, in time order."""
    ids = timeline.usable_path_ids()
    times = timeline.times_hours[timeline.usable_index()]
    events: List[ChangeEvent] = []
    for position in np.nonzero(ids[1:] != ids[:-1])[0]:
        old = timeline.paths[int(ids[position])]
        new = timeline.paths[int(ids[position + 1])]
        events.append(
            ChangeEvent(
                time_hours=float(times[position + 1]),
                old_path=old,
                new_path=new,
                distance=edit_distance(old, new),
            )
        )
    return events


def path_lifetimes(timeline: TraceTimeline, period_hours: Optional[float] = None) -> Dict[int, float]:
    """Lifetime (hours) per observed path id.

    Each observation is assumed to persist for one measurement period
    (Section 4.1's "computing lifetimes"); the period defaults to the
    timeline's grid spacing.
    """
    if period_hours is None:
        times = timeline.times_hours
        period_hours = float(times[1] - times[0]) if times.size > 1 else 3.0
    return {
        path_id: float(count) * period_hours
        for path_id, count in timeline.path_sample_counts().items()
    }


def _prevalence(lifetimes: Dict[int, float]) -> Dict[int, float]:
    total = sum(lifetimes.values())
    if total <= 0:
        return {}
    return {path_id: lifetime / total for path_id, lifetime in lifetimes.items()}


def _popular(prevalence: Dict[int, float]) -> Tuple[Optional[int], float]:
    if not prevalence:
        return None, 0.0
    path_id = max(prevalence, key=lambda pid: (prevalence[pid], -pid))
    return path_id, prevalence[path_id]


def path_prevalence(timeline: TraceTimeline) -> Dict[int, float]:
    """Prevalence (fraction of observed lifetime) per path id."""
    return _prevalence(path_lifetimes(timeline))


def popular_path(timeline: TraceTimeline) -> Tuple[Optional[int], float]:
    """The path with the longest lifetime, and its prevalence."""
    return _popular(path_prevalence(timeline))


def analyze_timeline(timeline: TraceTimeline) -> PathStats:
    """All per-timeline routing statistics in one pass.

    Lifetimes come from the timeline's per-path sample counts; prevalence
    and the popular path are derived from them, not recounted.
    """
    lifetimes = path_lifetimes(timeline)
    prevalence = _prevalence(lifetimes)
    popular_id, popular_prev = _popular(prevalence)
    return PathStats(
        pair=timeline.pair,
        unique_paths=len(lifetimes),
        changes=change_count(timeline),
        lifetimes_hours=lifetimes,
        prevalence=prevalence,
        popular_path_id=popular_id,
        popular_prevalence=popular_prev,
    )


_MAX_PAIR_FLAGS = 1 << 20
"""Largest id-pair flag array :func:`as_path_pair_count` allocates; wider
path tables sort the pairs instead."""


def as_path_pair_count(forward: TraceTimeline, reverse: TraceTimeline) -> int:
    """Unique (forward, reverse) AS-path pairs for a server pair (Fig 2b).

    Forward and reverse traceroutes taken in the same measurement round are
    paired; rounds where either direction is unusable are skipped.
    """
    if forward.times_hours.size != reverse.times_hours.size:
        raise ValueError("forward and reverse timelines use different grids")
    both = forward.usable_mask() & reverse.usable_mask()
    fwd_ids = forward.path_id[both]
    rev_ids = reverse.path_id[both]
    if fwd_ids.size == 0:
        return 0
    fwd = fwd_ids.astype(np.intp) - int(fwd_ids.min())
    rev = rev_ids.astype(np.intp) - int(rev_ids.min())
    width = int(rev.max()) + 1
    combined = fwd * width + rev
    flags = (int(fwd.max()) + 1) * width
    if flags > _MAX_PAIR_FLAGS:
        return int(np.unique(combined).size)
    # Path ids span a small range, so one flag per possible (forward,
    # reverse) id pair counts the distinct pairs without sorting them.
    seen = np.zeros(flags, dtype=bool)
    seen[combined] = True
    return int(np.count_nonzero(seen))
