"""Tests for the incremental streaming operators."""

import math

import numpy as np
import pytest

from repro.core.congestion import congestion_population_stats, diurnal_power_ratio
from repro.core.routechange import analyze_timeline
from repro.core.suboptimal import DEFAULT_THRESHOLDS_MS
from repro.datasets.shortterm import ShortTermConfig
from repro.datasets.timeline import PingTimeline
from repro.net.ip import IPVersion
from repro.service.campaign import PingDriver
from repro.service.config import CampaignConfig
from repro.stream.operators import (
    CongestionWindowOperator,
    P2Quantile,
    PathStatsOperator,
    RingWindow,
    goertzel_power,
    windowed_diurnal_power_ratio,
)
from repro.stream.source import ping_unit, trace_unit


class TestP2Quantile:
    def test_exact_below_five_samples(self):
        values = [5.0, 1.0, 9.0, 3.0]
        estimator = P2Quantile(0.1)
        for value in values:
            estimator.observe(value)
        assert estimator.value() == float(np.percentile(values, 10))

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value())

    def test_tracks_large_samples(self):
        rng = np.random.default_rng(7)
        values = rng.normal(100.0, 15.0, size=5000)
        for quantile in (0.1, 0.5, 0.9):
            estimator = P2Quantile(quantile)
            for value in values:
                estimator.observe(float(value))
            exact = float(np.percentile(values, 100 * quantile))
            assert estimator.value() == pytest.approx(exact, abs=1.0)

    def test_pickles_round_trip(self):
        import pickle

        estimator = P2Quantile(0.9)
        for value in range(20):
            estimator.observe(float(value))
        clone = pickle.loads(pickle.dumps(estimator))
        assert clone.value() == estimator.value()
        clone.observe(100.0)
        estimator.observe(100.0)
        assert clone.value() == estimator.value()


class TestRingWindow:
    def test_keeps_last_capacity_values(self):
        window = RingWindow(3)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            window.push(value)
        assert window.values().tolist() == [3.0, 4.0, 5.0]
        assert len(window) == 3

    def test_matrix_mode(self):
        window = RingWindow(2, rows=3)
        window.push(np.array([1.0, 2.0, 3.0], dtype=np.float32))
        window.push(np.array([4.0, 5.0, 6.0], dtype=np.float32))
        window.push(np.array([7.0, 8.0, 9.0], dtype=np.float32))
        matrix = window.values()
        assert matrix.shape == (3, 2)
        assert matrix[:, 0].tolist() == [4.0, 5.0, 6.0]
        assert matrix[:, 1].tolist() == [7.0, 8.0, 9.0]


class TestGoertzel:
    def test_matches_fft_bin_power(self):
        rng = np.random.default_rng(11)
        series = rng.normal(0.0, 1.0, size=96)
        centered = series - series.mean()
        spectrum = np.abs(np.fft.rfft(centered)) ** 2
        for k in (1, 4, 17):
            assert goertzel_power(centered, k) == pytest.approx(
                float(spectrum[k]), rel=1e-9, abs=1e-9
            )


def _times(series: np.ndarray, period: float = 1.0) -> np.ndarray:
    return np.arange(series.size, dtype=float) * period


class TestWindowedDiurnalRatio:
    def _series(self, seed: int, hours: int = 24 * 14, period: float = 1.0):
        rng = np.random.default_rng(seed)
        t = np.arange(0, hours, period)
        return (
            50.0
            + 8.0 * np.sin(2 * np.pi * t / 24.0)
            + rng.normal(0, 1.0, size=t.size)
        ).astype(float)

    def test_matches_batch_ratio_on_diurnal_series(self):
        series = self._series(3)
        batch = diurnal_power_ratio(_times(series), series)
        stream = windowed_diurnal_power_ratio(series, period_hours=1.0)
        assert stream == pytest.approx(batch, rel=1e-9, abs=1e-12)

    def test_matches_batch_ratio_on_noise(self):
        rng = np.random.default_rng(23)
        series = rng.normal(80.0, 2.0, size=24 * 10)
        batch = diurnal_power_ratio(_times(series), series)
        stream = windowed_diurnal_power_ratio(series, period_hours=1.0)
        assert stream == pytest.approx(batch, rel=1e-9, abs=1e-12)

    def test_matches_batch_with_missing_values(self):
        series = self._series(5)
        series[10:20] = np.nan
        series[50] = np.nan
        batch = diurnal_power_ratio(_times(series), series)
        stream = windowed_diurnal_power_ratio(series, period_hours=1.0)
        assert stream == pytest.approx(batch, rel=1e-9, abs=1e-12)

    def test_edge_cases_agree(self):
        for series in (
            np.array([]),
            np.array([1.0, 2.0, 3.0]),               # n < 8
            np.full(12, np.nan),                      # nothing valid
            np.full(48, 10.0),                        # zero variance
            self._series(9, hours=20),                # < 1 day of data
        ):
            batch = diurnal_power_ratio(_times(series), series)
            stream = windowed_diurnal_power_ratio(series, period_hours=1.0)
            if math.isnan(batch):
                assert math.isnan(stream)
            else:
                assert stream == pytest.approx(batch, rel=1e-9, abs=1e-12)

    def test_odd_length_series(self):
        series = self._series(13)[: 24 * 9 + 1]
        batch = diurnal_power_ratio(_times(series), series)
        stream = windowed_diurnal_power_ratio(series, period_hours=1.0)
        assert stream == pytest.approx(batch, rel=1e-9, abs=1e-12)


class TestPathStatsOperator:
    def test_matches_batch_analysis(self, longterm):
        period = longterm.grid.period_hours
        operator = PathStatsOperator(period)
        for key in sorted(longterm.timelines, key=lambda k: (k[0], k[1], int(k[2]))):
            unit = trace_unit(longterm.timelines[key])
            operator.start_unit(unit.key, unit.meta)
            for record in unit.records:
                operator.observe(record)
        summaries = operator.finalize()
        assert len(summaries) == len(longterm.timelines)
        for key, timeline in longterm.timelines.items():
            summary = summaries[(key[0], key[1], int(key[2]))]
            batch = analyze_timeline(timeline)
            assert summary.changes == batch.changes
            assert summary.unique_paths == batch.unique_paths
            if batch.popular_path_id is None:
                assert summary.popular_prevalence is None
            else:
                assert summary.popular_prevalence == batch.popular_prevalence
            assert set(summary.suboptimal) == set(DEFAULT_THRESHOLDS_MS)

    def test_record_feed_matches_column_feed(self, longterm):
        period = longterm.grid.period_hours
        by_record = PathStatsOperator(period)
        by_columns = PathStatsOperator(period)
        for timeline in longterm.timelines.values():
            unit = trace_unit(timeline)
            by_record.start_unit(unit.key)
            for record in unit.records:
                by_record.observe(record)
            by_columns.observe_columns(trace_unit(timeline, columnar=True).columns)
        assert by_columns.finalize() == by_record.finalize()


def _verdict_fields(verdicts):
    return {
        key: (
            repr(verdict.spread_ms), repr(verdict.power_ratio),
            verdict.spread_exceeds, verdict.diurnal,
        )
        for key, verdict in verdicts.items()
    }


def _ping_timeline(dst, rtts):
    rtts = np.asarray(rtts, dtype=np.float32)
    return PingTimeline(
        src_server_id=0, dst_server_id=dst, version=IPVersion.V4,
        times_hours=np.arange(rtts.size, dtype=float) * 0.25, rtt_ms=rtts,
    )


class TestCongestionWindowOperator:
    def test_record_feed_matches_column_feed(self, ping_dataset):
        timelines = list(ping_dataset.timelines.values())
        rounds = timelines[0].times_hours.size
        period = ping_dataset.grid.period_hours
        by_record = CongestionWindowOperator(period, window_rounds=rounds)
        by_columns = CongestionWindowOperator(period, window_rounds=rounds)
        for timeline in timelines:
            for record in ping_unit(timeline).records:
                by_record.observe(record)
            by_columns.observe_columns(ping_unit(timeline, columnar=True).columns)
        assert _verdict_fields(by_columns.verdicts()) == _verdict_fields(
            by_record.verdicts()
        )
        for version in (4, 6):
            assert by_columns.population_stats(
                by_columns.verdicts(), version
            ) == by_record.population_stats(by_record.verdicts(), version)

    def test_population_stats_skip_pairs_without_answered_probes(self):
        # One probe each: int(0.9 * 1) = 0 answered probes are "required",
        # but a pair that answered none must never count (batch rule).
        timelines = [_ping_timeline(1, [np.nan]), _ping_timeline(2, [20.0])]
        operator = CongestionWindowOperator(0.25, window_rounds=1)
        for timeline in timelines:
            operator.observe_columns(ping_unit(timeline, columnar=True).columns)
        stats = operator.population_stats(operator.verdicts(), 4)
        assert stats.pairs == 1
        assert stats == congestion_population_stats(timelines)

    def test_ping_campaign_matches_batch_population_stats(
        self, platform, ping_dataset
    ):
        # The ping campaign's whole-campaign window is the batch detector.
        driver = PingDriver(
            CampaignConfig(name="ping", kind="ping"), platform,
            ShortTermConfig(ping_days=7.0, trace_days=14.0),
        )
        operator = driver.make_operator()
        for timeline in ping_dataset.timelines.values():
            operator.observe_columns(ping_unit(timeline, columnar=True).columns)
        verdicts = operator.verdicts()
        checked = 0
        for version in (IPVersion.V4, IPVersion.V6):
            batch = congestion_population_stats(
                timeline for key, timeline in ping_dataset.timelines.items()
                if key[2] == version
            )
            assert operator.population_stats(verdicts, int(version)) == batch
            checked += batch.pairs
        assert checked > 0

