"""Tests for routing-change statistics."""

import numpy as np
import pytest

from repro.core.routechange import (
    analyze_timeline,
    as_path_pair_count,
    change_count,
    change_events,
    path_lifetimes,
    path_prevalence,
    popular_path,
)
from repro.datasets.timeline import TraceTimeline
from repro.measurement.traceroute import TraceOutcome
from repro.net.ip import IPVersion

COMPLETE = int(TraceOutcome.COMPLETE)
LOOP = int(TraceOutcome.LOOP)
INCOMPLETE = int(TraceOutcome.INCOMPLETE)


def make_timeline(path_ids, outcomes=None, paths=None, period=3.0):
    count = len(path_ids)
    outcomes = outcomes if outcomes is not None else [COMPLETE] * count
    max_id = max((p for p in path_ids if p >= 0), default=0)
    paths = paths if paths is not None else [
        (1, 100 + index, 2) for index in range(max_id + 1)
    ]
    return TraceTimeline(
        src_server_id=0,
        dst_server_id=1,
        version=IPVersion.V4,
        times_hours=period * np.arange(count),
        rtt_ms=np.full(count, 10.0, dtype=np.float32),
        outcome=np.asarray(outcomes, dtype=np.uint8),
        path_id=np.asarray(path_ids, dtype=np.int32),
        paths=paths,
        true_candidate=np.zeros(count, dtype=np.int16),
    )


class TestChangeCount:
    def test_no_changes(self):
        assert change_count(make_timeline([0, 0, 0, 0])) == 0

    def test_single_change(self):
        assert change_count(make_timeline([0, 0, 1, 1])) == 1

    def test_change_and_return(self):
        assert change_count(make_timeline([0, 1, 0])) == 2

    def test_unusable_samples_skipped(self):
        # The loop sample between the 0s does not create changes.
        timeline = make_timeline([0, 1, 0], outcomes=[COMPLETE, LOOP, COMPLETE])
        assert change_count(timeline) == 0

    def test_gap_across_incomplete(self):
        timeline = make_timeline(
            [0, -1, 1], outcomes=[COMPLETE, INCOMPLETE, COMPLETE]
        )
        assert change_count(timeline) == 1

    def test_empty_timeline(self):
        assert change_count(make_timeline([])) == 0


class TestChangeEvents:
    def test_event_details(self):
        timeline = make_timeline([0, 0, 1])
        events = change_events(timeline)
        assert len(events) == 1
        event = events[0]
        assert event.time_hours == pytest.approx(6.0)  # change at the later sample
        assert event.old_path == timeline.paths[0]
        assert event.new_path == timeline.paths[1]
        assert event.distance >= 1

    def test_distances_use_edit_distance(self):
        paths = [(1, 2, 3, 4), (1, 2, 4)]
        timeline = make_timeline([0, 1], paths=paths)
        assert change_events(timeline)[0].distance == 1


class TestLifetimes:
    def test_each_observation_extends_by_period(self):
        timeline = make_timeline([0, 0, 1], period=3.0)
        lifetimes = path_lifetimes(timeline)
        assert lifetimes[0] == pytest.approx(6.0)
        assert lifetimes[1] == pytest.approx(3.0)

    def test_noncontiguous_observations_accumulate(self):
        timeline = make_timeline([0, 1, 0, 1], period=3.0)
        lifetimes = path_lifetimes(timeline)
        assert lifetimes[0] == lifetimes[1] == pytest.approx(6.0)

    def test_explicit_period(self):
        timeline = make_timeline([0, 0], period=3.0)
        assert path_lifetimes(timeline, period_hours=0.5)[0] == pytest.approx(1.0)


class TestPrevalence:
    def test_sums_to_one(self):
        timeline = make_timeline([0, 0, 1, 2])
        assert sum(path_prevalence(timeline).values()) == pytest.approx(1.0)

    def test_popular_path(self):
        timeline = make_timeline([0, 0, 0, 1])
        path_id, prevalence = popular_path(timeline)
        assert path_id == 0
        assert prevalence == pytest.approx(0.75)

    def test_empty(self):
        assert popular_path(make_timeline([])) == (None, 0.0)


class TestAnalyzeTimeline:
    def test_consistency(self):
        timeline = make_timeline([0, 0, 1, 1, 0])
        stats = analyze_timeline(timeline)
        assert stats.unique_paths == 2
        assert stats.changes == 2
        assert stats.popular_path_id == 0
        assert stats.pair == (0, 1)


class TestPathPairs:
    def test_pair_counting(self):
        forward = make_timeline([0, 0, 1, 1])
        reverse = make_timeline([0, 1, 1, 1])
        # Rounds pair up as (0,0), (0,1), (1,1), (1,1): three unique pairs.
        assert as_path_pair_count(forward, reverse) == 3

    def test_skips_rounds_missing_either_side(self):
        forward = make_timeline([0, 0], outcomes=[COMPLETE, INCOMPLETE])
        reverse = make_timeline([0, 1], outcomes=[COMPLETE, COMPLETE])
        assert as_path_pair_count(forward, reverse) == 1

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            as_path_pair_count(make_timeline([0]), make_timeline([0, 0]))

    def test_wide_path_tables_count_by_sorting(self):
        # Ids spanning 0..1500 on both sides would need 2.25 M flags, past
        # the flag array's cap; the count is the same either way.
        forward = make_timeline([0, 1500, 1500, 7, 0])
        reverse = make_timeline([1500, 0, 0, 7, 1500])
        assert as_path_pair_count(forward, reverse) == 3
