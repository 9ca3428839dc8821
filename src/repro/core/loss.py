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

from dataclasses import dataclass, replace
from typing import Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro.datasets.timeline import HOURS_PER_DAY, PingStack, PingTimeline, stack_by_grid

__all__ = [
    "hourly_loss_profile",
    "loss_rtt_correlation",
    "LossVerdict",
    "assess_loss",
    "loss_population_summary",
]


class _HourlyProfiles(NamedTuple):
    """Per-hour-of-day statistics of every row of a :class:`PingStack`."""

    sizes: np.ndarray
    """Samples per hour bin (24,)."""
    lost: np.ndarray
    """Lost probes per row and hour bin (rows x 24)."""
    loss: np.ndarray
    """Loss rate per row and hour bin; NaN for unsampled bins."""
    rtt: np.ndarray
    """Median finite RTT per row and hour bin; NaN for bins without one."""


def _hourly_profiles(stack: PingStack) -> _HourlyProfiles:
    """Hourly loss counts and median-RTT profiles of every row at once.

    The grid's :meth:`~PingTimeline.hour_groups` serve every row.  Each
    bin's samples are sorted for all rows in one call (NaN last); an
    even-sized bin averages its two middle finite values in the RTT
    dtype, as ``np.median`` does.
    """
    order, bounds = stack.grid.hour_groups()
    sizes = np.diff(bounds)
    rows = stack.rtt_ms.shape[0]
    lost = np.zeros((rows, HOURS_PER_DAY), dtype=np.int64)
    rtt = np.full((rows, HOURS_PER_DAY), np.nan)
    for hour in np.flatnonzero(sizes):
        values = stack.rtt_ms[:, order[bounds[hour]:bounds[hour + 1]]]
        lost[:, hour] = np.isnan(values).sum(axis=1)
        finite = np.isfinite(values)
        count = finite.sum(axis=1)
        ranked = np.sort(np.where(finite, values, np.nan), axis=1)
        below = np.take_along_axis(ranked, ((count - 1) // 2)[:, None], axis=1)[:, 0]
        above = np.take_along_axis(ranked, (count // 2)[:, None], axis=1)[:, 0]
        median = np.where(count % 2 == 1, below, (below + above) / below.dtype.type(2))
        present = count > 0
        rtt[present, hour] = median[present]
    loss = np.full((rows, HOURS_PER_DAY), np.nan)
    sampled = sizes > 0
    loss[:, sampled] = lost[:, sampled] / sizes[sampled]
    return _HourlyProfiles(sizes, lost, loss, rtt)


def _single(timeline: PingTimeline) -> _HourlyProfiles:
    """The profiles of one timeline (a population of one)."""
    return _hourly_profiles(next(stack_by_grid([timeline])))


def hourly_loss_profile(timeline: PingTimeline) -> np.ndarray:
    """Loss rate per hour-of-day bin (NaN for unsampled bins)."""
    return _single(timeline).loss[0]


def _hourly_rtt_profile(timeline: PingTimeline) -> np.ndarray:
    """Median finite RTT per hour-of-day bin (NaN for bins without one)."""
    return _single(timeline).rtt[0]


def _correlation(loss: np.ndarray, rtt: np.ndarray) -> float:
    mask = np.isfinite(loss) & np.isfinite(rtt)
    if mask.sum() < 12:
        return float("nan")
    loss = loss[mask]
    rtt = rtt[mask]
    if loss.std() <= 0 or rtt.std() <= 0:
        return float("nan")
    return float(np.corrcoef(loss, rtt)[0, 1])


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
    profiles = _single(timeline)
    return _correlation(profiles.loss[0], profiles.rtt[0] if rtt_profile is None else rtt_profile)


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
    """Assess one ping timeline's loss behaviour (a population of one)."""
    return _assess_losses([timeline], correlate_all=True)[0]


def _assess_losses(
    timelines: Sequence[PingTimeline], correlate_all: bool
) -> List[LossVerdict]:
    """Loss verdicts of a ping population, one pass per shared time grid.

    The loss/RTT correlation is computed for every row when
    ``correlate_all``, otherwise only for rows with diurnal loss (the
    others carry NaN).
    """
    verdicts: List[LossVerdict] = [None] * len(timelines)  # type: ignore[list-item]
    for stack in stack_by_grid(timelines):
        profiles = _hourly_profiles(stack)
        samples = stack.rtt_ms.shape[1]
        busy = np.zeros(profiles.rtt.shape, dtype=bool)
        busy_hours = np.argsort(np.nan_to_num(profiles.rtt, nan=-np.inf), axis=1)
        np.put_along_axis(busy, busy_hours[:, -BUSY_HOURS:], True, axis=1)
        busy_count = (busy * profiles.sizes).sum(axis=1).tolist()
        busy_lost = (busy * profiles.lost).sum(axis=1).tolist()
        total_lost = np.isnan(stack.rtt_ms).sum(axis=1).tolist()
        nan = float("nan")
        for row, index in enumerate(stack.indexes):
            quiet_count = samples - busy_count[row]
            quiet_lost = total_lost[row] - busy_lost[row]
            verdict = LossVerdict(
                loss_rate=total_lost[row] / samples if samples else nan,
                busy_hour_loss=busy_lost[row] / busy_count[row] if busy_count[row] else nan,
                quiet_hour_loss=quiet_lost / quiet_count if quiet_count else nan,
                loss_rtt_correlation=nan,
            )
            if correlate_all or verdict.diurnal_loss:
                verdict = replace(
                    verdict,
                    loss_rtt_correlation=_correlation(profiles.loss[row], profiles.rtt[row]),
                )
            verdicts[index] = verdict
    return verdicts


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
    verdicts = _assess_losses(
        [timeline for timeline in timelines if timeline.times_hours.size >= min_samples],
        correlate_all=False,
    )
    rates = [verdict.loss_rate for verdict in verdicts]
    correlations: List[float] = []
    diurnal = 0
    pairs = len(verdicts)
    for verdict in verdicts:
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
