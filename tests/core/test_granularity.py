"""Tests for the granularity-sensitivity analysis (Figure 7)."""

import numpy as np
import pytest

from repro.core.granularity import compare_granularity, subsample_timeline
from tests.core.test_routechange import make_timeline
from tests.core.test_rttstats import timeline_with_rtts


class TestSubsample:
    def test_minimum_gap_respected(self):
        timeline = make_timeline([0] * 48, period=0.5)  # 24 hours at 30 min
        coarse = subsample_timeline(timeline, min_gap_hours=3.0)
        gaps = np.diff(coarse.times_hours)
        assert (gaps >= 3.0 - 1e-9).all()
        assert len(coarse) == 8

    def test_first_sample_kept(self):
        timeline = make_timeline([0] * 10, period=0.5)
        coarse = subsample_timeline(timeline)
        assert coarse.times_hours[0] == timeline.times_hours[0]

    def test_paths_shared_with_parent(self):
        timeline = make_timeline([0, 1] * 10, period=0.5)
        coarse = subsample_timeline(timeline)
        assert coarse.paths is timeline.paths

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            subsample_timeline(make_timeline([0]), min_gap_hours=0.0)

    def test_already_coarse_unchanged(self):
        timeline = make_timeline([0] * 10, period=3.0)
        coarse = subsample_timeline(timeline, min_gap_hours=3.0)
        assert len(coarse) == len(timeline)


class TestCompare:
    def test_stationary_series_agree(self):
        """When per-path RTT distributions are stationary, the subsampled
        increase ECDF matches the full one -- the paper's Figure 7 point."""
        rng = np.random.default_rng(1)
        timelines = []
        for _ in range(30):
            count = 24 * 2 * 10  # 10 days at 30 minutes
            half = count // 2
            rtts = np.concatenate([
                10.0 + rng.gamma(2, 1, half),
                40.0 + rng.gamma(2, 1, count - half),
            ])
            timeline = timeline_with_rtts(
                [0] * half + [1] * (count - half), rtts, period=0.5
            )
            timelines.append(timeline)
        comparison = compare_granularity(timelines, q=10.0)
        assert comparison.max_quantile_gap() < 3.0

    def test_empty_input(self):
        comparison = compare_granularity([])
        assert len(comparison.all_increases) == 0
        assert np.isnan(comparison.max_quantile_gap())
