"""The FFT diurnal-congestion detector (Section 5.1).

Following the paper's adaptation of the TSLP trace-processing technique:
apply an FFT to the end-to-end RTT time series, measure the spectral power
concentrated around the one-cycle-per-day frequency, and flag the pair as
experiencing *consistent congestion* when that power is at least 0.3 of
the total (non-DC) power.  The paper pairs the spectral test with a
magnitude test: the 95th-minus-5th percentile RTT spread must exceed
10 ms, since a diurnal wiggle of under 10 ms is noise, not congestion.

Ping timelines are assessed as a population: timelines sharing a time
grid are stacked into one matrix, and one row-wise sort, one gap fill and
one ``rfft(..., axis=1)`` give every row's spread and power ratio, bit
for bit the per-series results of :meth:`CongestionDetector.assess_series`.
Each timeline keeps its verdict in its product memo, keyed by the
detector's parameters, so the analyses that flag congested pairs share
one verdict per timeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.rttstats import sorted_percentiles
from repro.datasets.timeline import PingTimeline, population_products, stack_by_grid

__all__ = [
    "fill_missing_rtts",
    "diurnal_power_ratio",
    "CongestionDetector",
    "CongestionVerdict",
    "congestion_population_stats",
]

HOURS_PER_DAY = 24.0


def fill_missing_rtts(values: np.ndarray) -> Optional[np.ndarray]:
    """Replace NaNs by linear interpolation (edge values are clamped).

    Returns ``None`` for series with fewer than four finite samples
    (too sparse to interpolate meaningfully).
    """
    finite = np.isfinite(values)
    if finite.sum() < 4:
        return None
    if finite.all():
        return values.astype(float)
    filled = values.astype(float).copy()
    indexes = np.arange(values.size)
    filled[~finite] = np.interp(indexes[~finite], indexes[finite], values[finite])
    return filled


def diurnal_power_ratio(
    times_hours: np.ndarray,
    rtt_ms: np.ndarray,
    band: int = 1,
) -> float:
    """Fraction of spectral power at (and around) the 1/day frequency.

    Args:
        times_hours: Uniform measurement grid.
        rtt_ms: RTT samples (NaNs are interpolated away; series with fewer
            than four finite samples yield NaN).
        band: Also count this many neighbouring FFT bins on each side of
            the daily bin, absorbing spectral leakage from windows that are
            not whole numbers of days.

    Returns:
        Power ratio in ``[0, 1]``; NaN when undefined (too few samples or
        a window shorter than one day).
    """
    times_hours = np.asarray(times_hours, dtype=float)
    rtt = fill_missing_rtts(np.asarray(rtt_ms, dtype=float))
    if rtt is None or times_hours.size != rtt.size:
        return float("nan")
    if times_hours.size < 8:
        return float("nan")
    period = times_hours[1] - times_hours[0]
    duration = period * times_hours.size
    days = duration / HOURS_PER_DAY
    if days < 1.0:
        return float("nan")

    centered = rtt - rtt.mean()
    spectrum = np.abs(np.fft.rfft(centered)) ** 2
    if spectrum.size <= 1:
        return float("nan")
    total = spectrum[1:].sum()
    if total <= 0:
        return 0.0
    daily_bin = int(round(days))
    low = max(1, daily_bin - band)
    high = min(spectrum.size - 1, daily_bin + band)
    if low > high:
        return float("nan")
    return float(spectrum[low : high + 1].sum() / total)


def _power_ratios(
    times_hours: np.ndarray,
    rtt: np.ndarray,
    finite: np.ndarray,
    counts: np.ndarray,
    band: int,
) -> np.ndarray:
    """:func:`diurnal_power_ratio` of every row of ``rtt`` (one shared grid).

    ``finite`` marks each row's finite samples and ``counts`` sums it.
    Rows go through the same gap fill, centring and spectrum as the
    per-series function; numpy computes a row of a 2-D mean, ``rfft`` or
    sum exactly as it computes the row alone, so the ratios match bit for
    bit.
    """
    ratios = np.full(rtt.shape[0], np.nan)
    times_hours = np.asarray(times_hours, dtype=float)
    if times_hours.size < 8:
        return ratios
    period = times_hours[1] - times_hours[0]
    duration = period * times_hours.size
    days = duration / HOURS_PER_DAY
    if days < 1.0:
        return ratios
    usable = counts >= 4
    if not usable.any():
        return ratios
    filled = _fill_rows(rtt[usable], finite[usable])
    centered = filled - filled.mean(axis=1, keepdims=True)
    spectrum = np.abs(np.fft.rfft(centered, axis=1)) ** 2
    total = spectrum[:, 1:].sum(axis=1)
    daily_bin = int(round(days))
    low = max(1, daily_bin - band)
    high = min(spectrum.shape[1] - 1, daily_bin + band)
    if low > high:
        ratio = np.full(total.size, np.nan)
    else:
        ratio = spectrum[:, low : high + 1].sum(axis=1)
        positive = total > 0
        ratio[positive] /= total[positive]
    ratios[usable] = np.where(total <= 0, 0.0, ratio)
    return ratios


def _fill_rows(rtt: np.ndarray, finite: np.ndarray) -> np.ndarray:
    """:func:`fill_missing_rtts` of every row (each with 4+ finite samples).

    One ``np.interp`` over the flattened matrix fills every gap that lies
    between two finite samples of its row: sample ``j`` of row ``r`` sits
    at ``r * width + j``, so the distances the interpolation divides are
    the per-row ones, exactly.  Gaps before a row's first or after its
    last finite sample take that sample's value, as the per-row clamp
    does.
    """
    missing = ~finite
    if not missing.any():
        return rtt
    width = rtt.shape[1]
    position = np.arange(rtt.size).reshape(rtt.shape)
    filled = rtt.copy()
    filled[missing] = np.interp(position[missing], position[finite], rtt[finite])
    rows = np.arange(rtt.shape[0])
    first = finite.argmax(axis=1)
    last = width - 1 - finite[:, ::-1].argmax(axis=1)
    column = np.arange(width)
    filled = np.where(column < first[:, None], rtt[rows, first][:, None], filled)
    return np.where(column > last[:, None], rtt[rows, last][:, None], filled)


@dataclass(frozen=True)
class CongestionVerdict:
    """Detector output for one pair."""

    spread_ms: float
    power_ratio: float
    spread_exceeds: bool
    diurnal: bool

    @property
    def congested(self) -> bool:
        """Consistent congestion: big spread *and* a strong diurnal."""
        return self.spread_exceeds and self.diurnal


@dataclass
class CongestionDetector:
    """The Section 5.1 detector with the paper's thresholds as defaults."""

    power_ratio_threshold: float = 0.3
    spread_threshold_ms: float = 10.0
    spread_percentiles: Tuple[float, float] = (5.0, 95.0)
    band: int = 1

    def assess_series(self, times_hours: np.ndarray, rtt_ms: np.ndarray) -> CongestionVerdict:
        """Assess one RTT series."""
        rtt = np.asarray(rtt_ms, dtype=float)
        finite = rtt[np.isfinite(rtt)]
        if finite.size == 0:
            spread = float("nan")
        else:
            low, high = self.spread_percentiles
            spread = float(np.percentile(finite, high) - np.percentile(finite, low))
        ratio = diurnal_power_ratio(times_hours, rtt, band=self.band)
        return self._verdict(spread, ratio)

    def _verdict(self, spread: float, ratio: float) -> CongestionVerdict:
        return CongestionVerdict(
            spread_ms=spread,
            power_ratio=ratio,
            spread_exceeds=bool(np.isfinite(spread) and spread > self.spread_threshold_ms),
            diurnal=bool(np.isfinite(ratio) and ratio >= self.power_ratio_threshold),
        )

    def assess(self, timeline: PingTimeline) -> CongestionVerdict:
        """Assess one ping timeline (a population of one)."""
        return self.assess_all([timeline])[0]

    def assess_all(self, timelines: Sequence[PingTimeline]) -> List[CongestionVerdict]:
        """Assess a ping population; each verdict equals :meth:`assess_series`'s.

        Verdicts are memoized on the timelines under the detector's
        parameters as they are at call time, so changing a field never
        returns a stale verdict.
        """
        return population_products(timelines, self._memo_key(), self._assess_stacks)

    def _memo_key(self) -> Hashable:
        return (
            "congestion-verdict",
            self.power_ratio_threshold,
            self.spread_threshold_ms,
            tuple(self.spread_percentiles),
            self.band,
        )

    def _assess_stacks(self, timelines: Sequence[PingTimeline]) -> List[CongestionVerdict]:
        verdicts: List[CongestionVerdict] = [None] * len(timelines)  # type: ignore[list-item]
        low, high = self.spread_percentiles
        for stack in stack_by_grid(timelines):
            rtt = stack.rtt_ms.astype(float)
            finite = np.isfinite(rtt)
            counts = finite.sum(axis=1)
            # NaN sorts last, so each row's finite RTTs lead its sorted row.
            ranked = np.sort(np.where(finite, rtt, np.nan), axis=1)
            starts = np.arange(rtt.shape[0]) * rtt.shape[1]
            spreads = sorted_percentiles(ranked.ravel(), starts, counts, high) - (
                sorted_percentiles(ranked.ravel(), starts, counts, low)
            )
            ratios = _power_ratios(stack.grid.times_hours, rtt, finite, counts, self.band)
            for row, index in enumerate(stack.indexes):
                verdicts[index] = self._verdict(float(spreads[row]), float(ratios[row]))
        return verdicts


@dataclass
class PopulationStats:
    """Aggregate congestion statistics over many pairs (Section 5.1)."""

    pairs: int
    spread_exceeds: int
    congested: int

    @property
    def spread_fraction(self) -> float:
        """Fraction of pairs with RTT spread above the threshold."""
        return self.spread_exceeds / self.pairs if self.pairs else float("nan")

    @property
    def congested_fraction(self) -> float:
        """Fraction with both a big spread and a strong diurnal."""
        return self.congested / self.pairs if self.pairs else float("nan")


def congestion_population_stats(
    timelines: Iterable[PingTimeline],
    detector: Optional[CongestionDetector] = None,
    min_valid_samples: int = 600,
) -> PopulationStats:
    """Evaluate the detector over a ping population.

    Pairs with fewer than ``min_valid_samples`` answered probes are
    excluded, matching the paper's "at least 600 (of the 672 possible)"
    filter -- the threshold scales down proportionally for shorter grids.
    Pairs without any answered probe are always excluded.
    """
    detector = detector or CongestionDetector()
    assessed = []
    for timeline in timelines:
        valid = timeline.valid_count()
        required = min(min_valid_samples, int(0.9 * timeline.times_hours.size))
        if valid > 0 and valid >= required:
            assessed.append(timeline)
    verdicts = detector.assess_all(assessed)
    return PopulationStats(
        pairs=len(verdicts),
        spread_exceeds=sum(verdict.spread_exceeds for verdict in verdicts),
        congested=sum(verdict.congested for verdict in verdicts),
    )
