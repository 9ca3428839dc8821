"""Tests for per-AS-path RTT statistics."""

import dataclasses

import numpy as np
import pytest

from repro.core.rttstats import (
    best_path_id,
    path_percentiles,
    path_rtt_std,
    rtt_increase_from_best,
)
from tests.core.test_routechange import make_timeline


def timeline_with_rtts(path_ids, rtts, period=3.0):
    return dataclasses.replace(
        make_timeline(path_ids, period=period), rtt_ms=np.asarray(rtts, dtype=np.float32)
    )


class TestPercentiles:
    def test_bucket_percentiles(self):
        timeline = timeline_with_rtts(
            [0] * 10 + [1] * 10,
            list(np.linspace(10, 20, 10)) + list(np.linspace(50, 60, 10)),
        )
        p10 = path_percentiles(timeline, 10.0)
        assert p10[0] == pytest.approx(10.9, abs=0.5)
        assert p10[1] == pytest.approx(50.9, abs=0.5)

    def test_small_buckets_dropped(self):
        timeline = timeline_with_rtts([0, 0, 0, 1], [10, 11, 12, 99])
        assert 1 not in path_percentiles(timeline, 10.0)

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            path_percentiles(make_timeline([0]), 150.0)

    def test_std(self):
        timeline = timeline_with_rtts([0] * 4, [10, 10, 10, 10])
        assert path_rtt_std(timeline)[0] == pytest.approx(0.0)


class TestBestPath:
    def test_lowest_baseline_wins(self):
        timeline = timeline_with_rtts(
            [0] * 5 + [1] * 5, [30] * 5 + [10] * 5
        )
        assert best_path_id(timeline) == 1

    def test_none_when_no_measurable_bucket(self):
        timeline = timeline_with_rtts([0], [10])
        assert best_path_id(timeline) is None


class TestIncreaseFromBest:
    def test_increase_values(self):
        timeline = timeline_with_rtts(
            [0] * 5 + [1] * 5, [10] * 5 + [36] * 5
        )
        increases = rtt_increase_from_best(timeline, q=10.0)
        assert set(increases) == {1}
        assert increases[1] == pytest.approx(26.0)

    def test_single_path_yields_empty(self):
        timeline = timeline_with_rtts([0] * 5, [10] * 5)
        assert rtt_increase_from_best(timeline) == {}

    def test_best_path_excluded(self):
        timeline = timeline_with_rtts([0] * 5 + [1] * 5, [10] * 5 + [20] * 5)
        increases = rtt_increase_from_best(timeline)
        assert 0 not in increases

    def test_90th_percentile_mode(self):
        # Path 0 has a low baseline but huge spikes; path 1 is steady.
        rtts = [10, 10, 10, 200, 200] + [50] * 5
        timeline = timeline_with_rtts([0] * 5 + [1] * 5, rtts)
        by_10 = rtt_increase_from_best(timeline, q=10.0)
        by_90 = rtt_increase_from_best(timeline, q=90.0)
        assert set(by_10) == {1}   # path 0 best by baseline
        assert set(by_90) == {0}   # path 1 best by spike-inclusive view

    def test_nan_rtts_ignored(self):
        rtts = [10, np.nan, 10, 10, 40, 40, np.nan, 40]
        timeline = timeline_with_rtts([0] * 4 + [1] * 4, rtts)
        increases = rtt_increase_from_best(timeline)
        assert increases[1] == pytest.approx(30.0, abs=1.0)
