"""Composable incremental operators over measurement record streams.

Each operator consumes records one at a time and keeps only bounded
state, yet reproduces a batch analysis from :mod:`repro.core`:

- :class:`PathStatsOperator` -- the route-change / lifetime / prevalence
  analysis of :mod:`repro.core.routechange` plus the per-path RTT
  percentile stats behind Figure 6.  Route changes compare each usable
  AS path only against the *previous* one; lifetimes are running counts;
  percentiles are streaming P-squared estimators.  Route-change counts,
  lifetimes and prevalence are **exactly** the batch values (counts and
  count-times-period sums are integer-valued floats, so no rounding ever
  differs); the P-squared percentile estimates carry the documented
  per-operator tolerance (exact below five samples, typically within a
  few ms of the true percentile at campaign sample counts).
- :class:`CongestionWindowOperator` -- the Section 5.1 detector of
  :mod:`repro.core.congestion` over a sliding window, with the spectral
  test evaluated by Goertzel recursions at the daily bins and the total
  (non-DC) power obtained from Parseval's theorem, so the power *ratio*
  matches the batch FFT's to ~1e-9 relative without storing a spectrum.
  With the window covering the whole campaign (as the service's ping
  campaign runs it) the verdict set is identical to the batch
  detector's.

All operator state is plain data (lists, dicts, numpy ring buffers) so a
checkpoint can pickle it mid-campaign and resume bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.congestion import (
    HOURS_PER_DAY,
    CongestionDetector,
    CongestionVerdict,
    PopulationStats,
    fill_missing_rtts,
)
from repro.core.rttstats import MIN_BUCKET_SAMPLES
from repro.core.suboptimal import DEFAULT_THRESHOLDS_MS
from repro.measurement.traceroute import TraceOutcome
from repro.obs import metrics as obs_metrics
from repro.stream.records import PingRecord, TracerouteRecord, UnitKey

__all__ = [
    "P2Quantile",
    "RingWindow",
    "goertzel_power",
    "windowed_diurnal_power_ratio",
    "batched_diurnal_power_ratios",
    "PathSummary",
    "PathStatsOperator",
    "CongestionWindowOperator",
]

USABLE_OUTCOMES = frozenset(
    {
        int(TraceOutcome.COMPLETE),
        int(TraceOutcome.MISSING_AS),
        int(TraceOutcome.MISSING_IP),
    }
)

_USABLE_LUT = np.zeros(256, dtype=bool)
_USABLE_LUT[sorted(USABLE_OUTCOMES)] = True

# Sentinel for "no usable sample seen yet"; distinct from None, which is
# a usable sample without an attributable AS path.
_UNSEEN = "__unseen__"


# ---------------------------------------------------------------------------
# Streaming percentile estimation (P-squared, Jain & Chlamtac 1985)
# ---------------------------------------------------------------------------


class P2Quantile:
    """Single-quantile P-squared estimator in O(1) memory.

    Exact (via ``np.percentile`` over a five-element buffer) until five
    observations have arrived, then maintained with the classic
    five-marker parabolic update.  Tolerance: exact for buckets smaller
    than five samples -- which covers the batch pipeline's
    ``MIN_BUCKET_SAMPLES`` floor -- and an approximation error that
    shrinks with the bucket size above that (empirically a few ms at the
    RTT scales and sample counts of the campaigns here).
    """

    __slots__ = ("quantile", "count", "_initial", "_heights", "_positions", "_desired")

    def __init__(self, quantile: float) -> None:
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        self.quantile = quantile
        self.count = 0
        self._initial: List[float] = []
        self._heights: Optional[List[float]] = None
        self._positions: List[int] = []
        self._desired: List[float] = []

    def __getstate__(self):
        return (self.quantile, self.count, self._initial, self._heights,
                self._positions, self._desired)

    def __setstate__(self, state) -> None:
        (self.quantile, self.count, self._initial, self._heights,
         self._positions, self._desired) = state

    def observe(self, value: float) -> None:
        """Feed one sample."""
        self.count += 1
        if self._heights is None:
            self._initial.append(float(value))
            if len(self._initial) == 5:
                q = self.quantile
                self._heights = sorted(self._initial)
                self._positions = [0, 1, 2, 3, 4]
                self._desired = [0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
            return
        self._update(float(value))

    def observe_many(self, values) -> None:
        """Feed a batch of samples, equivalent to repeated :meth:`observe`.

        The estimator's update is inherently sequential, so this is the
        same marker arithmetic in a tight loop -- it saves only the
        per-sample method dispatch, which is exactly what the columnar
        operators need when draining a whole unit at once.
        """
        iterator = iter(np.asarray(values, dtype=float).tolist())
        if self._heights is None:
            for value in iterator:
                self.count += 1
                self._initial.append(value)
                if len(self._initial) == 5:
                    q = self.quantile
                    self._heights = sorted(self._initial)
                    self._positions = [0, 1, 2, 3, 4]
                    self._desired = [0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
                    break
            if self._heights is None:
                return
        update = self._update
        count = self.count
        for value in iterator:
            count += 1
            update(value)
        self.count = count

    def _update(self, x: float) -> None:
        h, n = self._heights, self._positions
        if x < h[0]:
            h[0] = x
            cell = 0
        elif x < h[1]:
            cell = 0
        elif x < h[2]:
            cell = 1
        elif x < h[3]:
            cell = 2
        elif x < h[4]:
            cell = 3
        else:
            h[4] = x
            cell = 3
        for i in range(cell + 1, 5):
            n[i] += 1
        q = self.quantile
        for i, step in enumerate((0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)):
            self._desired[i] += step
        for i in (1, 2, 3):
            drift = self._desired[i] - n[i]
            if (drift >= 1.0 and n[i + 1] - n[i] > 1) or (
                drift <= -1.0 and n[i - 1] - n[i] < -1
            ):
                sign = 1 if drift > 0 else -1
                candidate = self._parabolic(i, sign)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = h[i] + sign * (h[i + sign] - h[i]) / (n[i + sign] - n[i])
                n[i] += sign

    def _parabolic(self, i: int, sign: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + sign / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + sign) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - sign) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def value(self) -> float:
        """Current estimate (NaN before any sample)."""
        if self._heights is None:
            if not self._initial:
                return float("nan")
            return float(np.percentile(self._initial, self.quantile * 100.0))
        return float(self._heights[2])


# ---------------------------------------------------------------------------
# Sliding windows and the Goertzel spectral test
# ---------------------------------------------------------------------------


class RingWindow:
    """Fixed-capacity ring buffer of float32 samples (or sample vectors).

    ``rows=None`` stores a scalar series; an integer stores one vector of
    that many rows per push (the per-hop RTT columns of the localization
    window).  ``values()`` returns the window contents oldest-first.
    """

    __slots__ = ("capacity", "rows", "_buffer", "_filled", "_next")

    def __init__(self, capacity: int, rows: Optional[int] = None) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be positive")
        self.capacity = capacity
        self.rows = rows
        shape = (capacity,) if rows is None else (rows, capacity)
        self._buffer = np.full(shape, np.nan, dtype=np.float32)
        self._filled = 0
        self._next = 0

    def __getstate__(self):
        return (self.capacity, self.rows, self._buffer, self._filled, self._next)

    def __setstate__(self, state) -> None:
        self.capacity, self.rows, self._buffer, self._filled, self._next = state

    def __len__(self) -> int:
        return self._filled

    def push(self, value) -> None:
        """Append one sample, evicting the oldest at capacity."""
        if self.rows is None:
            self._buffer[self._next] = value
        else:
            self._buffer[:, self._next] = value
        self._next = (self._next + 1) % self.capacity
        self._filled = min(self._filled + 1, self.capacity)

    def extend(self, values: np.ndarray) -> None:
        """Append many samples at once, equivalent to repeated pushes.

        ``values`` is a 1-D series (scalar windows) or a ``(rows, n)``
        matrix (vector windows); only the last ``capacity`` samples can
        survive, so anything older is never written at all.
        """
        values = np.asarray(values, dtype=np.float32)
        capacity = self.capacity
        buffer = self._buffer
        if self.rows is None:
            n = int(values.size)
            if n == 0:
                return
            if n >= capacity:
                keep = values[n - capacity:]
                start = (self._next + (n - capacity)) % capacity
                split = capacity - start
                buffer[start:] = keep[:split]
                buffer[:start] = keep[split:]
            else:
                end = self._next + n
                if end <= capacity:
                    buffer[self._next:end] = values
                else:
                    split = capacity - self._next
                    buffer[self._next:] = values[:split]
                    buffer[: end - capacity] = values[split:]
        else:
            n = int(values.shape[1])
            if n == 0:
                return
            if n >= capacity:
                keep = values[:, n - capacity:]
                start = (self._next + (n - capacity)) % capacity
                split = capacity - start
                buffer[:, start:] = keep[:, :split]
                buffer[:, :start] = keep[:, split:]
            else:
                end = self._next + n
                if end <= capacity:
                    buffer[:, self._next:end] = values
                else:
                    split = capacity - self._next
                    buffer[:, self._next:] = values[:, :split]
                    buffer[:, : end - capacity] = values[:, split:]
        self._next = (self._next + n) % capacity
        self._filled = min(self._filled + n, capacity)

    def values(self) -> np.ndarray:
        """Window contents in arrival order (float32)."""
        if self._filled < self.capacity:
            if self.rows is None:
                return self._buffer[: self._filled].copy()
            return self._buffer[:, : self._filled].copy()
        if self._next == 0:
            return self._buffer.copy()
        if self.rows is None:
            return np.concatenate([self._buffer[self._next:], self._buffer[: self._next]])
        return np.concatenate(
            [self._buffer[:, self._next:], self._buffer[:, : self._next]], axis=1
        )


def goertzel_power(values: np.ndarray, k: int) -> float:
    """``|X_k|**2`` of one DFT bin via the Goertzel recursion.

    Evaluates a single bin of the unnormalized forward DFT (numpy's FFT
    convention) in O(n) time and O(1) space -- the streaming detector
    needs only the daily bins, never the full spectrum.
    """
    samples = np.asarray(values, dtype=float).tolist()
    n = len(samples)
    if n == 0:
        return 0.0
    coeff = 2.0 * math.cos(2.0 * math.pi * k / n)
    s_prev = 0.0
    s_prev2 = 0.0
    for x in samples:
        s_prev, s_prev2 = x + coeff * s_prev - s_prev2, s_prev
    return s_prev * s_prev + s_prev2 * s_prev2 - coeff * s_prev * s_prev2


def windowed_diurnal_power_ratio(
    rtt_ms: np.ndarray, period_hours: float, band: int = 1
) -> float:
    """The :func:`repro.core.congestion.diurnal_power_ratio` of a window.

    Same gap filling, same guards, same band -- but the daily-bin powers
    come from Goertzel recursions and the total non-DC power from
    Parseval's theorem (``sum|X_k|**2 = n * sum x**2``), so no spectrum
    is ever materialized.  Agrees with the batch FFT ratio to ~1e-9
    relative (floating-point summation order is the only difference).
    """
    values = np.asarray(rtt_ms, dtype=float)
    filled = fill_missing_rtts(values)
    if filled is None:
        return float("nan")
    n = int(filled.size)
    if n < 8:
        return float("nan")
    days = period_hours * n / HOURS_PER_DAY
    if days < 1.0:
        return float("nan")

    centered = filled - filled.mean()
    sum_sq = float(np.dot(centered, centered))
    dc_power = float(centered.sum()) ** 2
    # Parseval over the one-sided (rfft) spectrum, bins 1..n//2: every
    # interior bin appears twice in the full spectrum, DC and (for even
    # n) the Nyquist bin once.
    if n % 2 == 0:
        alternating = float(centered[::2].sum() - centered[1::2].sum())
        nyquist_power = alternating * alternating
        total = (n * sum_sq - dc_power - nyquist_power) / 2.0 + nyquist_power
    else:
        total = (n * sum_sq - dc_power) / 2.0
    if total <= 0:
        return 0.0
    spectrum_size = n // 2 + 1
    daily_bin = int(round(days))
    low = max(1, daily_bin - band)
    high = min(spectrum_size - 1, daily_bin + band)
    if low > high:
        return float("nan")
    band_power = 0.0
    for bin_index in range(low, high + 1):
        band_power += goertzel_power(centered, bin_index)
    return float(band_power / total)


def batched_diurnal_power_ratios(
    series_list: List[np.ndarray], period_hours: float, band: int = 1
) -> List[float]:
    """:func:`windowed_diurnal_power_ratio` over many windows at once.

    Per-window guards, centering and Parseval totals are element-for-
    element the scalar function's; the Goertzel recursions then run as
    vector updates over all (window, bin) pairs of the same length, so a
    population of P windows costs one length-n loop of array ops instead
    of P*bins scalar recursions.  The recursion keeps the scalar code's
    float association (``(x + coeff*s) - s2``) and takes its bin
    coefficients from ``math.cos``, so every returned ratio is bitwise
    the scalar function's.
    """
    results: List[float] = [float("nan")] * len(series_list)
    groups: Dict[Tuple[int, int, int], List[Tuple[int, np.ndarray, float]]] = {}
    for index, rtt_ms in enumerate(series_list):
        values = np.asarray(rtt_ms, dtype=float)
        filled = fill_missing_rtts(values)
        if filled is None:
            continue
        n = int(filled.size)
        if n < 8:
            continue
        days = period_hours * n / HOURS_PER_DAY
        if days < 1.0:
            continue
        centered = filled - filled.mean()
        sum_sq = float(np.dot(centered, centered))
        dc_power = float(centered.sum()) ** 2
        if n % 2 == 0:
            alternating = float(centered[::2].sum() - centered[1::2].sum())
            nyquist_power = alternating * alternating
            total = (n * sum_sq - dc_power - nyquist_power) / 2.0 + nyquist_power
        else:
            total = (n * sum_sq - dc_power) / 2.0
        if total <= 0:
            results[index] = 0.0
            continue
        spectrum_size = n // 2 + 1
        daily_bin = int(round(days))
        low = max(1, daily_bin - band)
        high = min(spectrum_size - 1, daily_bin + band)
        if low > high:
            continue
        groups.setdefault((n, low, high), []).append((index, centered, total))

    for (n, low, high), members in groups.items():
        stacked = np.stack([centered for _, centered, _ in members])
        coeff = np.array(
            [2.0 * math.cos(2.0 * math.pi * k / n) for k in range(low, high + 1)]
        )
        shape = (len(members), coeff.size)
        s_prev = np.zeros(shape)
        s_prev2 = np.zeros(shape)
        for step in range(n):
            x_t = stacked[:, step : step + 1]
            s_prev, s_prev2 = (x_t + coeff * s_prev) - s_prev2, s_prev
        powers = (s_prev * s_prev + s_prev2 * s_prev2) - (coeff * s_prev) * s_prev2
        band_power = np.zeros(len(members))
        for column in range(coeff.size):
            band_power = band_power + powers[:, column]
        for row, (index, _, total) in enumerate(members):
            results[index] = float(band_power[row] / total)
    return results


# ---------------------------------------------------------------------------
# Long-term stream: route changes, prevalence, per-path percentiles
# ---------------------------------------------------------------------------


@dataclass
class PathSummary:
    """Finalized per-pair routing statistics (Figures 3 and 6 inputs)."""

    key: UnitKey
    changes: int
    unique_paths: int
    popular_prevalence: Optional[float]
    suboptimal: Dict[float, float] = field(default_factory=dict)


class _PairPathState:
    __slots__ = ("last", "changes", "counts", "finite", "p10")

    def __init__(self) -> None:
        self.last: object = _UNSEEN
        self.changes = 0
        self.counts: Dict[Tuple[int, ...], int] = {}
        self.finite: Dict[Tuple[int, ...], int] = {}
        self.p10: Dict[Tuple[int, ...], P2Quantile] = {}

    def __getstate__(self):
        return (self.last, self.changes, self.counts, self.finite, self.p10)

    def __setstate__(self, state) -> None:
        self.last, self.changes, self.counts, self.finite, self.p10 = state


class PathStatsOperator:
    """Incremental route-change + per-path RTT statistics per pair.

    Keeps, per (src, dst, version): the previous usable AS path, a change
    counter, per-path observation counts (lifetimes are counts times the
    grid period), and a P-squared p10 estimator per path (the only
    percentile the Figure 6 summary reads).  Everything except the
    percentile estimates is exactly the batch computation.

    Units arrive either as records (:meth:`observe`, one round at a
    time) or as whole columns (:meth:`observe_columns`); both leave the
    operator in the same state.
    """

    def __init__(self, period_hours: float) -> None:
        self.period_hours = float(period_hours)
        self._states: Dict[UnitKey, _PairPathState] = {}

    def start_unit(self, key: UnitKey, meta: object = None) -> None:
        """Register a unit so empty timelines still appear in finals."""
        if key not in self._states:
            self._states[key] = _PairPathState()

    def observe(self, record: TracerouteRecord) -> None:
        """Feed one traceroute record (records of a pair in time order)."""
        if record.outcome not in USABLE_OUTCOMES:
            return
        key = (record.src, record.dst, record.version)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _PairPathState()
        path = record.as_path
        if state.last is not _UNSEEN and state.last != path:
            state.changes += 1
        state.last = path
        if path is None:
            return
        state.counts[path] = state.counts.get(path, 0) + 1
        rtt = record.rtt_ms
        if math.isfinite(rtt):
            state.finite[path] = state.finite.get(path, 0) + 1
            if path not in state.p10:
                state.p10[path] = P2Quantile(0.10)
            state.p10[path].observe(rtt)

    def observe_columns(self, columns) -> None:
        """Feed one unit's trace columns (same state as per-record feed).

        Path ids are interned per timeline, so id equality is path
        equality: route changes count sign changes in the usable id
        sequence, per-path tallies come from bincounts, and each path's
        finite RTTs reach its p10 estimator grouped but still in time
        order.  Dict insertion order (which fixes the summary's path
        list) follows first appearance, as the record feed's does.
        """
        state = self._states.get(columns.key)
        if state is None:
            state = self._states[columns.key] = _PairPathState()
        usable = _USABLE_LUT[columns.outcome]
        pids = columns.path_id[usable]
        if pids.size == 0:
            return
        paths = columns.paths
        first_pid = int(pids[0])
        first_path = paths[first_pid] if first_pid >= 0 else None
        if state.last is not _UNSEEN and state.last != first_path:
            state.changes += 1
        state.changes += int(np.count_nonzero(pids[1:] != pids[:-1]))
        last_pid = int(pids[-1])
        state.last = paths[last_pid] if last_pid >= 0 else None

        attributed = pids >= 0
        if not attributed.any():
            return
        apids = pids[attributed]
        tallies = np.bincount(apids, minlength=len(paths))
        uniq, first_index = np.unique(apids, return_index=True)
        for rank in np.argsort(first_index, kind="stable"):
            pid = int(uniq[rank])
            path = paths[pid]
            state.counts[path] = state.counts.get(path, 0) + int(tallies[pid])

        rtt = columns.rtt_ms[usable]
        finite_idx = np.flatnonzero(attributed & np.isfinite(rtt))
        if finite_idx.size == 0:
            return
        group_pids = pids[finite_idx]
        order = np.argsort(group_pids, kind="stable")
        sorted_pids = group_pids[order]
        sorted_rtts = rtt[finite_idx][order]
        bounds = np.flatnonzero(sorted_pids[1:] != sorted_pids[:-1]) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [sorted_pids.size]))
        for start, end in zip(starts.tolist(), ends.tolist()):
            path = paths[int(sorted_pids[start])]
            state.finite[path] = state.finite.get(path, 0) + (end - start)
            estimator = state.p10.get(path)
            if estimator is None:
                estimator = state.p10[path] = P2Quantile(0.10)
            estimator.observe_many(sorted_rtts[start:end])

    def finalize(
        self, thresholds_ms: Tuple[float, ...] = DEFAULT_THRESHOLDS_MS
    ) -> Dict[UnitKey, PathSummary]:
        """Per-pair summaries, in unit arrival order."""
        summaries: Dict[UnitKey, PathSummary] = {}
        for key, state in self._states.items():
            summaries[key] = self._summarize(key, state, thresholds_ms)
        return summaries

    def _summarize(
        self, key: UnitKey, state: _PairPathState, thresholds_ms: Tuple[float, ...]
    ) -> PathSummary:
        paths = list(state.counts)
        if not paths:
            return PathSummary(
                key=key, changes=state.changes, unique_paths=0,
                popular_prevalence=None,
                suboptimal={threshold: 0.0 for threshold in thresholds_ms},
            )
        # Lifetimes are integer counts times the grid period; their sum is
        # exact in floating point, so prevalence matches batch bit for bit.
        lifetimes = [state.counts[path] * self.period_hours for path in paths]
        total = sum(lifetimes)
        prevalence = [lifetime / total for lifetime in lifetimes]
        popular = prevalence[0]
        for value in prevalence[1:]:
            if value > popular:
                popular = value

        # Figure 6: increase of each path's p10 over the best path's; the
        # best path breaks percentile ties by first-seen order, mirroring
        # the batch tie-break on (value, path_id).
        selection = {
            index: state.p10[path].value()
            for index, path in enumerate(paths)
            if state.finite.get(path, 0) >= MIN_BUCKET_SAMPLES
        }
        suboptimal = {threshold: 0.0 for threshold in thresholds_ms}
        if len(selection) >= 2:
            best = min(selection, key=lambda index: (selection[index], index))
            for threshold in thresholds_ms:
                suboptimal[threshold] = sum(
                    prevalence[index]
                    for index, value in selection.items()
                    if index != best and value - selection[best] >= threshold
                )
        return PathSummary(
            key=key,
            changes=state.changes,
            unique_paths=len(paths),
            popular_prevalence=popular,
            suboptimal=suboptimal,
        )


# ---------------------------------------------------------------------------
# Ping stream: the sliding-window congestion detector
# ---------------------------------------------------------------------------


class _CongestionState:
    __slots__ = ("window", "valid", "seen")

    def __init__(self, capacity: int) -> None:
        self.window = RingWindow(capacity)
        self.valid = 0
        self.seen = 0

    def __getstate__(self):
        return (self.window, self.valid, self.seen)

    def __setstate__(self, state) -> None:
        self.window, self.valid, self.seen = state


class CongestionWindowOperator:
    """Section 5.1 congestion verdicts from a sliding RTT window.

    With ``window_rounds`` covering the whole campaign every verdict
    matches the batch detector's; a smaller window turns the detector
    into a rolling one whose verdict reflects the most recent
    ``window_rounds`` samples only (documented approximation).
    """

    def __init__(
        self,
        period_hours: float,
        window_rounds: int,
        detector: Optional[CongestionDetector] = None,
    ) -> None:
        self.period_hours = float(period_hours)
        self.window_rounds = int(window_rounds)
        self.detector = detector or CongestionDetector()
        self._states: Dict[UnitKey, _CongestionState] = {}

    def start_unit(self, key: UnitKey, meta: object = None) -> None:
        """Register one pair's series."""
        if key not in self._states:
            self._states[key] = _CongestionState(self.window_rounds)

    def observe(self, record: PingRecord) -> None:
        """Feed one ping record."""
        key = (record.src, record.dst, record.version)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _CongestionState(self.window_rounds)
        state.window.push(record.rtt_ms)
        state.seen += 1
        if math.isfinite(record.rtt_ms):
            state.valid += 1

    def observe_columns(self, columns) -> None:
        """Feed one unit's ping columns (same state as per-record feed)."""
        state = self._states.get(columns.key)
        if state is None:
            state = self._states[columns.key] = _CongestionState(self.window_rounds)
        rtt = columns.rtt_ms
        state.window.extend(rtt)
        state.seen += int(rtt.size)
        state.valid += int(np.count_nonzero(np.isfinite(rtt)))

    def verdicts(self) -> Dict[UnitKey, CongestionVerdict]:
        """Current verdict per pair (window occupancy goes to metrics).

        The diurnal ratios of all windows run through one batched
        Goertzel pass (bitwise the per-window recursion); the spreads
        stay per-window percentile calls.
        """
        occupancy = obs_metrics.histogram("stream.window_occupancy")
        keys = list(self._states)
        results: Dict[UnitKey, CongestionVerdict] = {}
        # Chunked so the f64 window copies never all live at once -- the
        # memory bound is the operator's contract, not just its buffers'.
        chunk = 256
        for offset in range(0, len(keys), chunk):
            block = keys[offset : offset + chunk]
            windows: List[np.ndarray] = []
            for key in block:
                state = self._states[key]
                occupancy.observe(len(state.window))
                windows.append(state.window.values().astype(float))
            ratios = batched_diurnal_power_ratios(
                windows, self.period_hours, band=self.detector.band
            )
            for key, values, ratio in zip(block, windows, ratios):
                finite = values[np.isfinite(values)]
                if finite.size == 0:
                    spread = float("nan")
                else:
                    low, high = self.detector.spread_percentiles
                    spread = float(
                        np.percentile(finite, high) - np.percentile(finite, low)
                    )
                results[key] = CongestionVerdict(
                    spread_ms=spread,
                    power_ratio=ratio,
                    spread_exceeds=bool(
                        np.isfinite(spread) and spread > self.detector.spread_threshold_ms
                    ),
                    diurnal=bool(
                        np.isfinite(ratio) and ratio >= self.detector.power_ratio_threshold
                    ),
                )
        return results

    def population_stats(
        self,
        verdicts: Dict[UnitKey, CongestionVerdict],
        version: int,
        min_valid_samples: int = 600,
    ) -> PopulationStats:
        """The Section 5.1 population counts for one protocol.

        Same filter as the batch
        :func:`~repro.core.congestion.congestion_population_stats`: a
        pair needs ``min(min_valid_samples, int(0.9 * seen))`` answered
        probes, and a pair without any answered probe never counts.
        """
        pairs = spread_count = congested_count = 0
        for key, state in self._states.items():
            if key[2] != version:
                continue
            required = min(min_valid_samples, int(0.9 * state.seen))
            if not (state.valid > 0 and state.valid >= required):
                continue
            verdict = verdicts[key]
            pairs += 1
            if verdict.spread_exceeds:
                spread_count += 1
            if verdict.congested:
                congested_count += 1
        return PopulationStats(
            pairs=pairs, spread_exceeds=spread_count, congested=congested_count
        )
