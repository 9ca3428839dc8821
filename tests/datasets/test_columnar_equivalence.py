"""Golden equivalence: the columnar plane must be invisible in output.

``repro.datasets.columnar`` replays the exact RNG draw sequence of the
per-round object builders as whole-epoch array operations, so every
observable artifact -- timeline arrays, figure metrics --
must match the object path bit for bit, at any seed and worker count.
These tests are the contract: a columnar kernel change that shifts a
single draw fails here before it can silently change any figure.
"""

from __future__ import annotations

import math

import pytest

from repro.datasets.longterm import LongTermConfig, build_longterm_dataset
from repro.datasets.shortterm import ShortTermConfig, build_shortterm_ping_dataset
from repro.harness.experiments import (
    experiment_congestion_norm,
    experiment_fig3,
    experiment_fig6,
)
from repro.measurement.platform import MeasurementPlatform, PlatformConfig
from repro.net.ip import IPVersion

SEEDS = [0, 7]
JOBS = [1, 2]

LONGTERM = LongTermConfig(days=30)
SHORTTERM = ShortTermConfig(ping_days=3.0)


def _make_platform(seed: int) -> MeasurementPlatform:
    return MeasurementPlatform(
        PlatformConfig(seed=seed, cluster_count=8, duration_hours=40 * 24.0)
    )


@pytest.fixture(scope="module", params=SEEDS)
def seeded_platform(request) -> MeasurementPlatform:
    return _make_platform(request.param)


def _assert_trace_timelines_equal(reference, candidate):
    assert set(reference.timelines) == set(candidate.timelines)
    for key, expected in reference.timelines.items():
        actual = candidate.timelines[key]
        assert actual.times_hours.tobytes() == expected.times_hours.tobytes()
        assert actual.rtt_ms.tobytes() == expected.rtt_ms.tobytes()
        assert actual.outcome.tobytes() == expected.outcome.tobytes()
        assert actual.path_id.tobytes() == expected.path_id.tobytes()
        assert actual.true_candidate.tobytes() == expected.true_candidate.tobytes()
        assert list(actual.paths) == list(expected.paths)


def _assert_ping_timelines_equal(reference, candidate):
    assert set(reference.timelines) == set(candidate.timelines)
    for key, expected in reference.timelines.items():
        actual = candidate.timelines[key]
        assert actual.times_hours.tobytes() == expected.times_hours.tobytes()
        assert actual.rtt_ms.tobytes() == expected.rtt_ms.tobytes()


def _sampled_longterm_epochs(platform: MeasurementPlatform):
    """``(version, realization, low, high)`` of every epoch the LONGTERM grid samples."""
    times = LONGTERM.grid().times()
    for src, dst in platform.server_pairs(dual_stack_only=LONGTERM.dual_stack_only):
        for version in LONGTERM.versions:
            if src.address(version) is None or dst.address(version) is None:
                continue
            for epoch in platform.epochs(src, dst, version):
                low = int(times.searchsorted(epoch.start_hour, side="left"))
                high = int(times.searchsorted(epoch.end_hour, side="left"))
                if high <= low or epoch.candidate_index < 0:
                    continue
                realization = platform.realization(src, dst, version, epoch.candidate_index)
                if realization is not None:
                    yield version, realization, low, high


class TestFixtureCoverage:
    """The fixture must exercise the draws and sums most likely to drift."""

    def test_an_epoch_sums_several_congested_segments(self, seeded_platform):
        # Per-epoch congestion is summed segment by segment; only a path
        # with two or more congested segments exercises the sum's order.
        events = seeded_platform.congestion.events
        assert any(
            sum(key in events for key in realization.segment_keys) >= 2
            for _, realization, _, _ in _sampled_longterm_epochs(seeded_platform)
        )

    def test_an_epoch_straddles_the_paris_cutover(self, seeded_platform):
        times = LONGTERM.grid().times()
        cut = int(times.searchsorted(seeded_platform.config.paris_start_hour, side="left"))
        assert any(
            version is IPVersion.V4 and low < cut < high
            for version, _, low, high in _sampled_longterm_epochs(seeded_platform)
        )


class TestTimelineEquivalence:
    @pytest.mark.parametrize("jobs", JOBS)
    def test_longterm_columnar_matches_object(self, seeded_platform, jobs):
        reference = build_longterm_dataset(
            seeded_platform, LONGTERM, jobs=1, columnar=False
        )
        candidate = build_longterm_dataset(
            seeded_platform, LONGTERM, jobs=jobs, columnar=True
        )
        _assert_trace_timelines_equal(reference, candidate)

    @pytest.mark.parametrize("jobs", JOBS)
    def test_ping_columnar_matches_object(self, seeded_platform, jobs):
        reference = build_shortterm_ping_dataset(
            seeded_platform, SHORTTERM, jobs=1, columnar=False
        )
        candidate = build_shortterm_ping_dataset(
            seeded_platform, SHORTTERM, jobs=jobs, columnar=True
        )
        _assert_ping_timelines_equal(reference, candidate)


def _metric_pairs(result):
    return [
        (metric.name, metric.measured) for metric in result.metrics
    ]


def _assert_metrics_equal(left, right):
    assert len(left) == len(right)
    for (left_name, left_value), (right_name, right_value) in zip(left, right):
        assert left_name == right_name
        if isinstance(left_value, float) and math.isnan(left_value):
            assert math.isnan(right_value)
        else:
            assert left_value == right_value


class TestFigureEquivalence:
    def test_figures_identical_across_paths(self, seeded_platform):
        object_longterm = build_longterm_dataset(
            seeded_platform, LONGTERM, columnar=False
        )
        columnar_longterm = build_longterm_dataset(
            seeded_platform, LONGTERM, columnar=True
        )
        object_pings = build_shortterm_ping_dataset(
            seeded_platform, SHORTTERM, columnar=False
        )
        columnar_pings = build_shortterm_ping_dataset(
            seeded_platform, SHORTTERM, columnar=True
        )
        for experiment, object_data, columnar_data in [
            (experiment_fig3, object_longterm, columnar_longterm),
            (experiment_fig6, object_longterm, columnar_longterm),
            (experiment_congestion_norm, object_pings, columnar_pings),
        ]:
            reference = experiment(object_data)
            candidate = experiment(columnar_data)
            assert reference.report == candidate.report
            _assert_metrics_equal(
                _metric_pairs(reference), _metric_pairs(candidate)
            )
