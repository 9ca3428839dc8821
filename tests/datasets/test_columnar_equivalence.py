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

import numpy as np
import pytest

import repro.datasets.columnar as columnar_module
import repro.measurement.traceroute as traceroute_module
from repro.datasets.columnar import CampaignKernels
from repro.datasets.longterm import LongTermConfig, _build_timeline, build_longterm_dataset
from repro.datasets.shortterm import ShortTermConfig, build_shortterm_ping_dataset
from repro.datasets.timeline import CANDIDATE_DTYPE, path_id_dtype
from repro.harness.experiments import (
    experiment_congestion_norm,
    experiment_fig3,
    experiment_fig6,
)
from repro.measurement.platform import MeasurementPlatform, PlatformConfig
from repro.measurement.traceroute import ArtifactParams, TraceOutcome
from repro.net.ip import IPVersion
from repro.routing.dynamics import RoutingDynamicsConfig
from tests.datasets.reference import reference_longterm_dataset, reference_ping_dataset

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
        for name in ("times_hours", "rtt_ms", "outcome", "path_id", "true_candidate"):
            assert getattr(actual, name).dtype == getattr(expected, name).dtype, name
        assert actual.path_id.dtype == path_id_dtype(len(actual.paths))
        assert actual.true_candidate.dtype == CANDIDATE_DTYPE
        assert actual.times_hours.tobytes() == expected.times_hours.tobytes()
        assert actual.rtt_ms.tobytes() == expected.rtt_ms.tobytes()
        assert actual.outcome.tobytes() == expected.outcome.tobytes()
        assert actual.path_id.tobytes() == expected.path_id.tobytes()
        assert actual.true_candidate.tobytes() == expected.true_candidate.tobytes()
        for held, reference in zip(actual.candidate_runs(), expected.candidate_runs()):
            assert held.dtype == reference.dtype
            assert held.tobytes() == reference.tobytes()
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
        reference = reference_longterm_dataset(seeded_platform, LONGTERM)
        candidate = build_longterm_dataset(seeded_platform, LONGTERM, jobs=jobs)
        _assert_trace_timelines_equal(reference, candidate)

    @pytest.mark.parametrize("build", [build_longterm_dataset, reference_longterm_dataset])
    def test_candidate_runs_are_those_of_the_sampled_epochs(self, seeded_platform, build):
        # The builders hand over runs instead of filling the per-sample
        # column; the column they would have filled is rebuilt here.
        dataset = build(seeded_platform, LONGTERM)
        times = LONGTERM.grid().times()
        for (src_id, dst_id, version), timeline in dataset.timelines.items():
            src, dst = dataset.servers[src_id], dataset.servers[dst_id]
            column = np.full(times.size, -1, dtype=CANDIDATE_DTYPE)
            for epoch in seeded_platform.epochs(src, dst, version):
                low = int(times.searchsorted(epoch.start_hour, side="left"))
                high = int(times.searchsorted(epoch.end_hour, side="left"))
                if high <= low or epoch.candidate_index < 0:
                    continue
                if seeded_platform.realization(src, dst, version, epoch.candidate_index):
                    column[low:high] = epoch.candidate_index
            assert timeline.true_candidate.tobytes() == column.tobytes()
            bounds, values = timeline.candidate_runs()
            assert bounds.dtype == np.int32 and values.dtype == CANDIDATE_DTYPE
            assert (np.diff(bounds) > 0).all()
            assert (values[1:] != values[:-1]).all()

    @pytest.mark.parametrize("jobs", JOBS)
    def test_ping_columnar_matches_object(self, seeded_platform, jobs):
        reference = reference_ping_dataset(seeded_platform, SHORTTERM)
        candidate = build_shortterm_ping_dataset(seeded_platform, SHORTTERM, jobs=jobs)
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
        object_longterm = reference_longterm_dataset(seeded_platform, LONGTERM)
        columnar_longterm = build_longterm_dataset(seeded_platform, LONGTERM)
        object_pings = reference_ping_dataset(seeded_platform, SHORTTERM)
        columnar_pings = build_shortterm_ping_dataset(seeded_platform, SHORTTERM)
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


def _trace_tasks(platform: MeasurementPlatform):
    for src, dst in platform.server_pairs(dual_stack_only=LONGTERM.dual_stack_only):
        for version in LONGTERM.versions:
            if src.address(version) is not None and dst.address(version) is not None:
                yield src, dst, version


def _task_epochs(platform: MeasurementPlatform, task):
    """``(realization, low, high)`` of each epoch the LONGTERM grid samples for ``task``."""
    src, dst, version = task
    times = LONGTERM.grid().times()
    for epoch in platform.epochs(src, dst, version):
        low = int(times.searchsorted(epoch.start_hour, side="left"))
        high = int(times.searchsorted(epoch.end_hour, side="left"))
        if high <= low or epoch.candidate_index < 0:
            continue
        realization = platform.realization(src, dst, version, epoch.candidate_index)
        if realization is not None:
            yield realization, low, high


def _assert_task_equivalent(platform: MeasurementPlatform, task):
    """One task's columnar timeline, planned and unplanned, against the object path."""
    reference = _build_timeline(platform, *task, LONGTERM.grid())
    planned = CampaignKernels(platform, LONGTERM.grid())
    planned.plan_streams("longterm", [task])
    unplanned = CampaignKernels(platform, LONGTERM.grid())
    for kernels in (planned, unplanned):
        (candidate,) = kernels.build_trace_timelines([task])
        for name in ("rtt_ms", "outcome", "path_id", "true_candidate"):
            assert getattr(candidate, name).dtype == getattr(reference, name).dtype, name
            assert getattr(candidate, name).tobytes() == getattr(reference, name).tobytes(), name
        assert candidate.paths == reference.paths
    return reference


def _answers_at_every_hop(realization) -> bool:
    return float(np.prod([hop.respond_probability for hop in realization.hops])) == 1.0


class TestTargetedEpochs:
    """Timelines picked for the sampler's conditional draws."""

    def test_all_responding_realization(self, seeded_platform):
        # Such an epoch skips the miss draw, the last of its stream; a
        # timeline that also has a lossy epoch mixes both kinds.
        for task in _trace_tasks(seeded_platform):
            answers = {
                _answers_at_every_hop(realization)
                for realization, _, _ in _task_epochs(seeded_platform, task)
            }
            if answers == {True, False}:
                break
        else:
            pytest.fail("no timeline mixes all-responding and lossy epochs")
        _assert_task_equivalent(seeded_platform, task)

    def test_epoch_with_loops_and_misses(self, seeded_platform):
        for task in _trace_tasks(seeded_platform):
            reference = _build_timeline(seeded_platform, *task, LONGTERM.grid())
            both = any(
                {int(TraceOutcome.LOOP), int(TraceOutcome.MISSING_IP)}
                <= set(reference.outcome[low:high].tolist())
                for _, low, high in _task_epochs(seeded_platform, task)
            )
            if both:
                break
        else:
            pytest.fail("no epoch has both a loop and a miss")
        _assert_task_equivalent(seeded_platform, task)


WIDE = LongTermConfig(days=10, period_hours=0.5)


def _unique_loop(path, rng):
    """A fresh AS path per looped epoch, from the same kind of stream draw."""
    return path + (int(rng.integers(1_000_000, 2**40)),)


def test_path_table_past_128_paths_keeps_int16_ids(monkeypatch):
    # Short flaps make hundreds of routing epochs; every sample that is
    # not incomplete loops, and each looped epoch reports its own path.
    monkeypatch.setattr(traceroute_module, "_loop_variant", _unique_loop)
    monkeypatch.setattr(columnar_module, "_loop_variant", _unique_loop)
    platform = MeasurementPlatform(
        PlatformConfig(
            seed=3,
            cluster_count=4,
            duration_hours=12 * 24.0,
            dynamics=RoutingDynamicsConfig(
                flaps_per_pair_per_month=900.0, flap_duration_median_hours=0.25
            ),
            artifacts=ArtifactParams(
                loop_probability_classic=1.0,
                loop_probability_classic_lb=1.0,
                loop_probability_classic_lb_v6=1.0,
                loop_probability_paris=1.0,
            ),
        )
    )
    reference = reference_longterm_dataset(platform, WIDE)
    candidate = build_longterm_dataset(platform, WIDE)
    _assert_trace_timelines_equal(reference, candidate)
    wide = [timeline for timeline in candidate.timelines.values() if len(timeline.paths) > 128]
    assert wide and all(timeline.path_id.dtype == np.int16 for timeline in wide)
