"""Tests for the long-term dataset builder."""

import numpy as np
import pytest

from repro.datasets import timeline as timeline_module
from repro.datasets.longterm import LongTermConfig, LongTermDataset, build_longterm_dataset
from repro.measurement.traceroute import TraceOutcome
from repro.net.ip import IPVersion
from tests.datasets.reference import reference_longterm_dataset


class TestBuild:
    def test_grid_shape(self, longterm):
        assert longterm.grid.period_hours == 3.0
        assert longterm.grid.rounds == 480  # 60 days at 3h

    def test_timelines_for_both_protocols(self, platform, longterm):
        dual_pairs = platform.server_pairs(dual_stack_only=True)
        assert len(longterm.timelines) == 2 * len(dual_pairs)

    def test_timeline_lengths_match_grid(self, longterm):
        for timeline in longterm.timelines.values():
            assert len(timeline) == longterm.grid.rounds

    def test_epoch_alignment_with_schedule(self, platform, longterm):
        """Samples inside a routing epoch carry that epoch's candidate."""
        src, dst = platform.server_pairs(dual_stack_only=True)[0]
        timeline = longterm.timeline(src.server_id, dst.server_id, IPVersion.V4)
        times = timeline.times_hours
        for epoch in platform.epochs(src, dst, IPVersion.V4)[:5]:
            inside = (times >= epoch.start_hour) & (times < epoch.end_hour)
            if not inside.any():
                continue
            candidates = np.unique(timeline.true_candidate[inside])
            assert candidates.size == 1
            assert candidates[0] == epoch.candidate_index

    def test_reached_fraction_near_75_percent(self, longterm):
        outcomes = np.concatenate(
            [timeline.outcome for timeline in longterm.timelines.values()]
        )
        reached = np.mean(outcomes != int(TraceOutcome.INCOMPLETE))
        assert 0.60 <= reached <= 0.85

    def test_paths_table_consistent(self, longterm):
        for timeline in longterm.timelines.values():
            used = timeline.path_id[timeline.path_id >= 0]
            if used.size:
                assert used.max() < len(timeline.paths)

    def test_forward_reverse_accessor(self, platform, longterm):
        src, dst = platform.server_pairs(dual_stack_only=True)[0]
        forward, reverse = longterm.forward_reverse(
            src.server_id, dst.server_id, IPVersion.V4
        )
        assert forward.pair == (src.server_id, dst.server_id)
        assert reverse.pair == (dst.server_id, src.server_id)

    def test_campaign_must_fit_platform_window(self, platform):
        with pytest.raises(ValueError):
            build_longterm_dataset(platform, LongTermConfig(days=10_000))

    def test_subset_of_pairs(self, platform):
        pairs = platform.server_pairs(dual_stack_only=True)[:2]
        dataset = build_longterm_dataset(
            platform, LongTermConfig(days=10), pairs=pairs
        )
        assert len(dataset.pairs()) == len({(s.server_id, d.server_id) for s, d in pairs})


class TestCompactColumns:
    def test_builders_emit_7_bytes_per_sample(self, longterm):
        # float32 RTT, uint8 outcome, int8 path id (tables of at most 128
        # paths) and the int8 candidate column read off its runs.
        for timeline in longterm.timelines.values():
            assert len(timeline.paths) <= 128
            assert timeline.path_id.dtype == np.int8
            assert timeline.true_candidate.dtype == np.int8
            columns = (timeline.rtt_ms, timeline.outcome, timeline.path_id,
                       timeline.true_candidate)
            assert sum(column.nbytes for column in columns) == 7 * len(timeline)

    @pytest.mark.parametrize("build", [build_longterm_dataset, reference_longterm_dataset])
    def test_a_path_table_past_its_limit_raises_naming_the_pair(
        self, platform, monkeypatch, build
    ):
        # With no room in the table, the first path either builder
        # interns passes the limit.
        monkeypatch.setattr(timeline_module, "MAX_PATHS", 0)
        src, dst = platform.server_pairs(dual_stack_only=True)[0]
        with pytest.raises(ValueError, match=rf"pair \({src.server_id}, {dst.server_id}\)"):
            build(platform, LongTermConfig(days=10), pairs=[(src, dst)])


class TestDeterminism:
    def test_rebuild_identical(self, platform):
        pairs = platform.server_pairs(dual_stack_only=True)[:3]
        first = build_longterm_dataset(platform, LongTermConfig(days=15), pairs=pairs)
        second = build_longterm_dataset(platform, LongTermConfig(days=15), pairs=pairs)
        for key, timeline in first.timelines.items():
            other = second.timelines[key]
            assert np.array_equal(timeline.outcome, other.outcome)
            assert np.allclose(timeline.rtt_ms, other.rtt_ms, equal_nan=True)
            assert np.array_equal(timeline.path_id, other.path_id)
            assert timeline.paths == other.paths


class TestPairOrder:
    def test_keys_read_in_pair_order_whatever_the_insertion_order(self, longterm):
        keys = list(longterm.timelines)
        reversed_dataset = LongTermDataset(
            longterm.grid, {key: longterm.timelines[key] for key in reversed(keys)},
            longterm.servers,
        )
        assert reversed_dataset.pairs() == longterm.pairs() == sorted(longterm.pairs())
        for version in IPVersion:
            pairs = [timeline.pair for timeline in reversed_dataset.by_version(version)]
            assert pairs == sorted(pairs)
            assert pairs == [timeline.pair for timeline in longterm.by_version(version)]
