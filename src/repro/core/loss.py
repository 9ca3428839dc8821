"""Packet-loss analysis: the follow-up the paper's conclusion calls for.

Section 8: "We encourage follow-up work focusing on other characteristics,
viz., available bandwidth, packet loss."  With the congestion-coupled loss
substrate in place, the natural first analysis mirrors the RTT one: does
probe loss show the same diurnal structure congestion does, and do the two
signals point at the same pairs?

The detector works on a ping timeline's loss indicator series: hourly loss
profiles, a busy-vs-quiet loss lift, and the correlation between hourly
loss rate and hourly median RTT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from repro.datasets.timeline import HOURS_PER_DAY, PingTimeline

__all__ = [
    "hourly_loss_profile",
    "loss_rtt_correlation",
    "LossVerdict",
    "assess_loss",
    "loss_population_summary",
]


def _hourly_counts(timeline: PingTimeline, flags: np.ndarray) -> np.ndarray:
    """Per hour-of-day bin: how many samples have ``flags`` set."""
    order, bounds = timeline.hour_groups()
    running = np.concatenate(([0], np.cumsum(flags[order])))
    return running[bounds[1:]] - running[bounds[:-1]]


def hourly_loss_profile(timeline: PingTimeline) -> np.ndarray:
    """Loss rate per hour-of-day bin (NaN for unsampled bins)."""
    _, bounds = timeline.hour_groups()
    sizes = np.diff(bounds)
    lost = _hourly_counts(timeline, np.isnan(timeline.rtt_ms))
    profile = np.full(HOURS_PER_DAY, np.nan)
    sampled = sizes > 0
    profile[sampled] = lost[sampled] / sizes[sampled]
    return profile


def _hourly_rtt_profile(timeline: PingTimeline) -> np.ndarray:
    """Median finite RTT per hour-of-day bin (NaN for bins without one).

    Equal to ``np.median`` per bin: one sort ranks every bin's values at
    once (NaN last), and an even-sized bin averages its two middle values
    in the RTT dtype, as ``np.median`` does.
    """
    order, bounds = timeline.hour_groups()
    # Rank only the samples inside bins 0..23; ``starts`` are the bins'
    # offsets into that slice.
    values = timeline.rtt_ms[order[bounds[0]:bounds[-1]]]
    starts = bounds[:-1] - bounds[0]
    bins = np.repeat(np.arange(HOURS_PER_DAY), np.diff(bounds))
    ranked = values[np.lexsort((values, bins))]
    finite = _hourly_counts(timeline, np.isfinite(timeline.rtt_ms))
    present = finite > 0
    low = (starts + (finite - 1) // 2)[present]
    high = (starts + finite // 2)[present]
    below, above = ranked[low], ranked[high]
    profile = np.full(HOURS_PER_DAY, np.nan)
    profile[present] = np.where(low == high, below, (below + above) / below.dtype.type(2))
    return profile


def loss_rtt_correlation(
    timeline: PingTimeline, rtt_profile: Optional[np.ndarray] = None
) -> float:
    """Pearson correlation between hourly loss rate and hourly median RTT.

    A strongly positive value means losses concentrate in the same busy
    hours that lift the RTT -- the congestion signature; near zero means
    loss is background noise.  NaN when either profile is degenerate.
    ``rtt_profile`` passes in an already computed hourly median RTT
    profile.
    """
    loss = hourly_loss_profile(timeline)
    rtt = _hourly_rtt_profile(timeline) if rtt_profile is None else rtt_profile
    mask = np.isfinite(loss) & np.isfinite(rtt)
    if mask.sum() < 12:
        return float("nan")
    loss = loss[mask]
    rtt = rtt[mask]
    if loss.std() <= 0 or rtt.std() <= 0:
        return float("nan")
    return float(np.corrcoef(loss, rtt)[0, 1])


@dataclass(frozen=True)
class LossVerdict:
    """Loss characteristics of one pair.

    ``busy_hour_loss`` and ``quiet_hour_loss`` pool samples over the six
    hours of day with the highest median RTT versus the remaining hours
    (pooling keeps per-bin sampling noise out of the comparison).
    """

    loss_rate: float
    busy_hour_loss: float
    quiet_hour_loss: float
    loss_rtt_correlation: float

    @property
    def diurnal_loss(self) -> bool:
        """Whether loss concentrates in the RTT-busy hours."""
        return (
            np.isfinite(self.busy_hour_loss)
            and np.isfinite(self.quiet_hour_loss)
            and self.busy_hour_loss >= 2.0 * max(self.quiet_hour_loss, 1e-4)
            and self.busy_hour_loss >= 0.015
        )


BUSY_HOURS = 6
"""Hours of day counted as the busy period (by median RTT)."""


def assess_loss(timeline: PingTimeline) -> LossVerdict:
    """Assess one ping timeline's loss behaviour."""
    lost = np.isnan(timeline.rtt_ms)
    rtt_profile = _hourly_rtt_profile(timeline)
    busy_hours = np.argsort(np.nan_to_num(rtt_profile, nan=-np.inf))[-BUSY_HOURS:]
    _, bounds = timeline.hour_groups()
    busy_count = int(np.diff(bounds)[busy_hours].sum())
    busy_lost = int(_hourly_counts(timeline, lost)[busy_hours].sum())
    quiet_count = lost.size - busy_count
    quiet_lost = int(lost.sum()) - busy_lost
    return LossVerdict(
        loss_rate=float(lost.mean()) if lost.size else float("nan"),
        busy_hour_loss=busy_lost / busy_count if busy_count else float("nan"),
        quiet_hour_loss=quiet_lost / quiet_count if quiet_count else float("nan"),
        loss_rtt_correlation=loss_rtt_correlation(timeline, rtt_profile),
    )


@dataclass
class LossPopulationSummary:
    """Aggregate loss statistics over a ping population."""

    pairs: int
    median_loss_rate: float
    diurnal_loss_pairs: int
    median_correlation_diurnal: float

    @property
    def diurnal_loss_fraction(self) -> float:
        """Fraction of pairs with busy-hour-concentrated loss."""
        return self.diurnal_loss_pairs / self.pairs if self.pairs else float("nan")


def loss_population_summary(
    timelines: Iterable[PingTimeline],
    min_samples: int = 300,
) -> LossPopulationSummary:
    """Summarize loss behaviour over many pairs."""
    rates: List[float] = []
    correlations: List[float] = []
    diurnal = 0
    pairs = 0
    for timeline in timelines:
        if timeline.times_hours.size < min_samples:
            continue
        verdict = assess_loss(timeline)
        pairs += 1
        rates.append(verdict.loss_rate)
        if verdict.diurnal_loss:
            diurnal += 1
            if np.isfinite(verdict.loss_rtt_correlation):
                correlations.append(verdict.loss_rtt_correlation)
    return LossPopulationSummary(
        pairs=pairs,
        median_loss_rate=float(np.median(rates)) if rates else float("nan"),
        diurnal_loss_pairs=diurnal,
        median_correlation_diurnal=(
            float(np.median(correlations)) if correlations else float("nan")
        ),
    )
