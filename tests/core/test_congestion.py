"""Tests for the FFT diurnal-congestion detector on synthetic signals."""

import numpy as np
import pytest

from repro.core.congestion import (
    CongestionDetector,
    congestion_population_stats,
    diurnal_power_ratio,
)
from repro.datasets.timeline import PingTimeline
from repro.net.ip import IPVersion


def _times(days=7.0, period=0.25):
    return np.arange(0.0, days * 24.0, period)


def _diurnal(times, amplitude=20.0, base=50.0):
    return base + amplitude * np.maximum(0.0, np.sin(2 * np.pi * times / 24.0))


class TestPowerRatio:
    def test_pure_diurnal_has_high_ratio(self):
        times = _times()
        ratio = diurnal_power_ratio(times, _diurnal(times))
        assert ratio > 0.8

    def test_white_noise_has_low_ratio(self):
        times = _times()
        rng = np.random.default_rng(1)
        ratio = diurnal_power_ratio(times, 50.0 + rng.normal(0, 3, times.size))
        assert ratio < 0.15

    def test_constant_series_zero_ratio(self):
        times = _times()
        assert diurnal_power_ratio(times, np.full(times.size, 42.0)) == 0.0

    def test_non_daily_oscillation_rejected(self):
        times = _times()
        six_hourly = 50.0 + 20.0 * np.sin(2 * np.pi * times / 6.0)
        assert diurnal_power_ratio(times, six_hourly) < 0.2

    def test_nan_interpolation(self):
        times = _times()
        signal = _diurnal(times)
        signal[::7] = np.nan
        assert diurnal_power_ratio(times, signal) > 0.7

    def test_too_few_samples(self):
        assert np.isnan(diurnal_power_ratio(np.arange(3.0), np.ones(3)))

    def test_window_shorter_than_a_day(self):
        times = np.arange(0.0, 12.0, 0.25)
        assert np.isnan(diurnal_power_ratio(times, np.ones(times.size)))

    def test_band_captures_leakage(self):
        # 6.5 days of data: the daily frequency falls between FFT bins.
        times = np.arange(0.0, 6.5 * 24.0, 0.25)
        ratio = diurnal_power_ratio(times, _diurnal(times), band=1)
        assert ratio > 0.6


class TestDetector:
    def _timeline(self, rtts, times=None):
        times = times if times is not None else _times()
        return PingTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=times, rtt_ms=np.asarray(rtts, dtype=np.float32),
        )

    def test_congested_pair_detected(self):
        times = _times()
        rng = np.random.default_rng(2)
        verdict = CongestionDetector().assess(
            self._timeline(_diurnal(times, amplitude=25.0) + rng.normal(0, 1, times.size))
        )
        assert verdict.congested
        assert verdict.spread_ms > 10.0
        assert verdict.power_ratio >= 0.3

    def test_quiet_pair_not_congested(self):
        times = _times()
        rng = np.random.default_rng(3)
        verdict = CongestionDetector().assess(
            self._timeline(50.0 + rng.gamma(2.0, 0.5, times.size))
        )
        assert not verdict.congested

    def test_small_diurnal_fails_spread_test(self):
        """A clean daily wiggle below 10 ms is not 'consistent congestion'."""
        times = _times()
        verdict = CongestionDetector().assess(
            self._timeline(_diurnal(times, amplitude=4.0))
        )
        assert verdict.diurnal
        assert not verdict.spread_exceeds
        assert not verdict.congested

    def test_level_shift_without_diurnal_fails_fft_test(self):
        """A routing level shift has spread but no daily period."""
        times = _times()
        rtts = np.where(times < 80.0, 50.0, 90.0)
        verdict = CongestionDetector().assess(self._timeline(rtts))
        assert verdict.spread_exceeds
        assert not verdict.congested

    def test_threshold_configurable(self):
        times = _times()
        weak = _diurnal(times, amplitude=12.0) + np.random.default_rng(4).normal(
            0, 6, times.size
        )
        strict = CongestionDetector(power_ratio_threshold=0.9)
        lax = CongestionDetector(power_ratio_threshold=0.05)
        assert not strict.assess(self._timeline(weak)).diurnal
        assert lax.assess(self._timeline(weak)).diurnal


class TestPopulationStats:
    def test_counts(self):
        times = _times()
        rng = np.random.default_rng(5)
        congested = PingTimeline(
            0, 1, IPVersion.V4, times,
            np.asarray(_diurnal(times, 25.0) + rng.normal(0, 1, times.size), np.float32),
        )
        quiet = PingTimeline(
            2, 3, IPVersion.V4, times,
            np.asarray(50.0 + rng.gamma(2, 0.5, times.size), np.float32),
        )
        stats = congestion_population_stats([congested, quiet])
        assert stats.pairs == 2
        assert stats.congested == 1
        assert stats.congested_fraction == pytest.approx(0.5)

    def test_sparse_pairs_excluded(self):
        times = _times()
        sparse = np.full(times.size, np.nan, dtype=np.float32)
        sparse[:100] = 50.0
        timeline = PingTimeline(0, 1, IPVersion.V4, times, sparse)
        stats = congestion_population_stats([timeline])
        assert stats.pairs == 0

    def test_timelines_without_answered_probes_excluded(self):
        # An empty grid (or a one-sample grid that lost its probe) would
        # need int(0.9 * size) = 0 answered probes; it still has none.
        times = _times()
        rng = np.random.default_rng(5)
        congested = PingTimeline(
            0, 1, IPVersion.V4, times,
            np.asarray(_diurnal(times, 25.0) + rng.normal(0, 1, times.size), np.float32),
        )
        empty = PingTimeline(2, 3, IPVersion.V4, np.empty(0), np.empty(0, np.float32))
        lost = PingTimeline(4, 5, IPVersion.V4, np.zeros(1), np.full(1, np.nan, np.float32))
        stats = congestion_population_stats([congested, empty, lost])
        assert stats.pairs == 1
        assert stats.congested == 1
        assert stats.spread_fraction == 1.0
        assert stats.congested_fraction == 1.0


class TestVerdictMemo:
    """Verdicts are memoized per timeline under the detector's parameters."""

    def _weak(self):
        times = _times()
        weak = _diurnal(times, amplitude=12.0) + np.random.default_rng(4).normal(
            0, 6, times.size
        )
        return PingTimeline(0, 1, IPVersion.V4, times, np.asarray(weak, np.float32))

    def test_detectors_with_different_thresholds_get_their_own_verdict(self):
        timeline = self._weak()
        strict = CongestionDetector(power_ratio_threshold=0.9)
        lax = CongestionDetector(power_ratio_threshold=0.05)
        assert lax.assess(timeline).diurnal
        assert not strict.assess(timeline).diurnal
        assert lax.assess(timeline).diurnal

    def test_changing_a_field_never_returns_a_stale_verdict(self):
        timeline = self._weak()
        detector = CongestionDetector()
        for field, value in (("power_ratio_threshold", 0.9),
                             ("power_ratio_threshold", 0.05),
                             ("spread_threshold_ms", 500.0),
                             ("spread_percentiles", (25.0, 75.0)),
                             ("band", 0)):
            setattr(detector, field, value)
            got = detector.assess(timeline)
            want = detector.assess_series(timeline.times_hours, timeline.rtt_ms)
            assert (got.spread_ms, got.spread_exceeds, got.diurnal) == (
                want.spread_ms, want.spread_exceeds, want.diurnal)
            assert got.power_ratio == want.power_ratio

    def test_population_calls_share_one_verdict(self, monkeypatch):
        timelines = [self._weak(), self._weak()]
        detector = CongestionDetector()
        verdicts = detector.assess_all(timelines)
        calls = []
        kernel = CongestionDetector._assess_stacks

        def counted(self, population):
            calls.append(len(population))
            return kernel(self, population)

        monkeypatch.setattr(CongestionDetector, "_assess_stacks", counted)
        congestion_population_stats(timelines)
        assert [CongestionDetector().assess(t) for t in timelines] == verdicts
        assert calls == []
        detector.band = 2
        detector.assess_all(timelines)
        assert calls == [2]
