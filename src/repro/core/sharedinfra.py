"""IPv4/IPv6 shared-infrastructure analysis (the paper's stated next step).

Section 8: "The similarity in performance characteristics over IPv4 and
IPv6 also naturally calls for a study to understand to what extent
infrastructure is shared between IPv4 and IPv6, and we plan on addressing
this question in future work."

Three measurement-side signals of sharing, all computable from the
long-term dataset alone (no ground truth):

1. **Path agreement** -- how often the two protocols' dominant AS paths
   coincide.
2. **Synchronized routing changes** -- a physical event (a failed link)
   takes both protocols' sessions down together, so change rounds that
   coincide across protocols indicate shared links; protocol-local events
   (session resets, policy) do not synchronize.
3. **RTT co-movement** -- correlation between the two protocols' RTT series
   for the pair; shared paths move together through level shifts and
   congestion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.dualstack import paired_mask
from repro.core.routechange import change_count, popular_path
from repro.datasets.longterm import LongTermDataset
from repro.datasets.timeline import TraceTimeline
from repro.net.ip import IPVersion

__all__ = [
    "PairSharingSignal",
    "SharedInfraStudy",
    "shared_infrastructure_study",
]


@dataclass(frozen=True)
class PairSharingSignal:
    """Sharing evidence for one server pair."""

    src_server_id: int
    dst_server_id: int
    dominant_paths_match: bool
    synchronized_change_fraction: float
    rtt_correlation: float


def _change_rounds(timeline: TraceTimeline) -> np.ndarray:
    """Indexes of usable rounds whose path differs from the previous one."""
    index = timeline.usable_mask().nonzero()[0]
    ids = timeline.path_id.take(index)
    return index.take((ids[1:] != ids[:-1]).nonzero()[0] + 1)


def _synchronized_fraction(
    v4: TraceTimeline, v6: TraceTimeline, slack_rounds: int = 1
) -> float:
    """Fraction of IPv4 change rounds matched by an IPv6 change nearby."""
    # The memoized change counts say when there is nothing to match.
    if change_count(v4) == 0 or change_count(v6) == 0:
        return float("nan")
    changes_v4 = _change_rounds(v4)
    changes_v6 = _change_rounds(v6)
    # Both are ascending: the nearest IPv6 change to each IPv4 change is
    # one of the two neighbours of its insertion point.
    position = np.searchsorted(changes_v6, changes_v4)
    before = changes_v6[np.maximum(position - 1, 0)]
    after = changes_v6[np.minimum(position, changes_v6.size - 1)]
    nearest = np.minimum(np.abs(changes_v4 - before), np.abs(after - changes_v4))
    matched = int(np.count_nonzero(nearest <= slack_rounds))
    return matched / changes_v4.size


MIN_CORRELATION_ROUNDS = 30
"""Paired rounds below which the RTT correlation is not computed (NaN)."""


def _rtt_correlation(v4: TraceTimeline, v6: TraceTimeline) -> float:
    """Pearson correlation of the paired rounds' RTTs: ``np.corrcoef``'s steps.

    Bit for bit ``np.corrcoef(a, b)[0, 1]`` of the widened series, NaN
    below :data:`MIN_CORRELATION_ROUNDS` rounds or when a series is
    constant.  corrcoef centres one 2 x n buffer on its row means, takes
    ``dot(X, X.T)`` and scales it by ``1 / (n - 1)``; here the
    normalisation of the one coefficient follows in Python floats, the
    same IEEE operations.  A series is constant when its centred row
    holds no nonzero value, which is where ``std() <= 0``.
    """
    both = paired_mask(v4, v6)
    count = int(np.count_nonzero(both))
    if count < MIN_CORRELATION_ROUNDS:
        return float("nan")
    rows = np.empty((2, count))
    rows[0] = v4.rtt_ms.compress(both)
    rows[1] = v6.rtt_ms.compress(both)
    rows -= rows.mean(axis=1)[:, None]
    if not rows.any(axis=1).all():
        return float("nan")
    (var_v4, cov), (_, var_v6) = np.dot(rows, rows.T).tolist()
    scale = 1 / (count - 1)
    correlation = cov * scale / math.sqrt(var_v4 * scale) / math.sqrt(var_v6 * scale)
    return min(max(correlation, -1.0), 1.0)


@dataclass
class SharedInfraStudy:
    """Aggregated sharing evidence over all dual-stack pairs."""

    signals: List[PairSharingSignal]

    @property
    def pairs(self) -> int:
        """Number of pairs assessed."""
        return len(self.signals)

    @property
    def dominant_match_fraction(self) -> float:
        """Fraction of pairs whose dominant AS paths agree across protocols."""
        if not self.signals:
            return float("nan")
        return float(np.mean([s.dominant_paths_match for s in self.signals]))

    def median_synchronized_fraction(self) -> float:
        """Median share of v4 changes mirrored by v6 changes."""
        values = [
            s.synchronized_change_fraction
            for s in self.signals
            if np.isfinite(s.synchronized_change_fraction)
        ]
        return float(np.median(values)) if values else float("nan")

    def median_correlation(self, matching_paths: Optional[bool] = None) -> float:
        """Median v4/v6 RTT correlation, optionally split by path agreement."""
        values = [
            s.rtt_correlation
            for s in self.signals
            if np.isfinite(s.rtt_correlation)
            and (matching_paths is None or s.dominant_paths_match == matching_paths)
        ]
        return float(np.median(values)) if values else float("nan")


def shared_infrastructure_study(dataset: LongTermDataset) -> SharedInfraStudy:
    """Assess IPv4/IPv6 infrastructure sharing over a long-term dataset."""
    signals: List[PairSharingSignal] = []
    for src, dst in dataset.pairs():
        key_v4: Tuple[int, int, IPVersion] = (src, dst, IPVersion.V4)
        key_v6: Tuple[int, int, IPVersion] = (src, dst, IPVersion.V6)
        if key_v4 not in dataset.timelines or key_v6 not in dataset.timelines:
            continue
        v4 = dataset.timelines[key_v4]
        v6 = dataset.timelines[key_v6]
        popular_v4, _ = popular_path(v4)
        popular_v6, _ = popular_path(v6)
        if popular_v4 is None or popular_v6 is None:
            continue
        signals.append(
            PairSharingSignal(
                src_server_id=src,
                dst_server_id=dst,
                dominant_paths_match=(
                    v4.paths[popular_v4] == v6.paths[popular_v6]
                ),
                synchronized_change_fraction=_synchronized_fraction(v4, v6),
                rtt_correlation=_rtt_correlation(v4, v6),
            )
        )
    return SharedInfraStudy(signals=signals)
