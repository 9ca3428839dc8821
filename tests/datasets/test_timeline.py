"""Tests for trace/ping timeline containers."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.longterm import LongTermDataset, build_longterm_dataset
from repro.datasets.shortterm import (
    build_shortterm_ping_dataset,
    build_shortterm_trace_dataset,
)
from repro.core.dualstack import paired_rtt_differences
from repro.datasets.timeline import (
    MAX_PATHS,
    CandidateRuns,
    PathTable,
    PingTimeline,
    TraceTimeline,
    compact_column,
    epoch_runs,
    path_id_dtype,
    stack_by_grid,
)
from repro.harness.experiments import run_all_experiments
from repro.harness.scenarios import congested_pairs, get_scenario
from repro.measurement.platform import MeasurementPlatform
from repro.measurement.scheduler import CampaignGrid
from repro.measurement.traceroute import TraceOutcome
from repro.net.ip import IPVersion


def _timeline(outcomes, rtts=None, path_ids=None, paths=None):
    count = len(outcomes)
    times = 3.0 * np.arange(count)
    return TraceTimeline(
        src_server_id=0,
        dst_server_id=1,
        version=IPVersion.V4,
        times_hours=times,
        rtt_ms=np.asarray(rtts if rtts is not None else [10.0] * count, dtype=np.float32),
        outcome=np.asarray(outcomes, dtype=np.uint8),
        path_id=np.asarray(path_ids if path_ids is not None else [0] * count, dtype=np.int32),
        paths=paths if paths is not None else [(1, 2, 3)],
        true_candidate=np.zeros(count, dtype=np.int16),
    )


COMPLETE = int(TraceOutcome.COMPLETE)
MISSING_AS = int(TraceOutcome.MISSING_AS)
MISSING_IP = int(TraceOutcome.MISSING_IP)
LOOP = int(TraceOutcome.LOOP)
INCOMPLETE = int(TraceOutcome.INCOMPLETE)


class TestTraceTimeline:
    def test_usable_mask_excludes_loops_and_incomplete(self):
        timeline = _timeline([COMPLETE, MISSING_AS, MISSING_IP, LOOP, INCOMPLETE])
        assert timeline.usable_mask().tolist() == [True, True, True, False, False]

    def test_complete_mask_excludes_only_incomplete(self):
        timeline = _timeline([COMPLETE, LOOP, INCOMPLETE])
        assert timeline.complete_mask().tolist() == [True, True, False]

    def test_observed_paths_deduplicated(self):
        timeline = _timeline(
            [COMPLETE] * 4,
            path_ids=[0, 1, 0, 1],
            paths=[(1, 2), (1, 3)],
        )
        assert timeline.observed_paths() == [(1, 2), (1, 3)]

    def test_observed_paths_skip_unusable(self):
        timeline = _timeline(
            [COMPLETE, LOOP],
            path_ids=[0, 1],
            paths=[(1, 2), (1, 3, 1)],
        )
        assert timeline.observed_paths() == [(1, 2)]

    def test_rtts_by_path_buckets(self):
        timeline = _timeline(
            [COMPLETE] * 4,
            rtts=[10.0, 20.0, 30.0, 40.0],
            path_ids=[0, 0, 1, 1],
            paths=[(1, 2), (1, 3)],
        )
        buckets = timeline.usable_rtts_by_path()
        assert sorted(buckets) == [0, 1]
        assert buckets[0].tolist() == [10.0, 20.0]
        assert buckets[1].tolist() == [30.0, 40.0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TraceTimeline(
                src_server_id=0, dst_server_id=1, version=IPVersion.V4,
                times_hours=np.arange(3.0),
                rtt_ms=np.zeros(2, dtype=np.float32),
                outcome=np.zeros(3, dtype=np.uint8),
                path_id=np.zeros(3, dtype=np.int32),
            )

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
    def test_rtts_other_than_float32_rejected(self, dtype):
        with pytest.raises(ValueError, match="rtt_ms must be float32"):
            TraceTimeline(
                src_server_id=0, dst_server_id=1, version=IPVersion.V4,
                times_hours=np.arange(3.0),
                rtt_ms=np.zeros(3, dtype=dtype),
                outcome=np.zeros(3, dtype=np.uint8),
                path_id=np.zeros(3, dtype=np.int32),
            )

    def test_pair(self):
        assert _timeline([COMPLETE]).pair == (0, 1)


class TestPingTimeline:
    def _ping(self, rtts):
        return PingTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=0.25 * np.arange(len(rtts)),
            rtt_ms=np.asarray(rtts, dtype=np.float32),
        )

    def test_valid_count(self):
        timeline = self._ping([1.0, np.nan, 3.0])
        assert timeline.valid_count() == 2

    def test_percentile_spread(self):
        rtts = list(np.linspace(10, 30, 100))
        timeline = self._ping(rtts)
        assert timeline.percentile_spread() == pytest.approx(0.9 * 20.0, abs=0.5)

    def test_spread_of_empty_is_nan(self):
        timeline = self._ping([np.nan, np.nan])
        assert np.isnan(timeline.percentile_spread())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PingTimeline(
                src_server_id=0, dst_server_id=1, version=IPVersion.V4,
                times_hours=np.arange(3.0), rtt_ms=np.zeros(2, dtype=np.float32),
            )


# ----------------------------------------------------------------------
# Immutability and the product memo
# ----------------------------------------------------------------------

class TestImmutability:
    def test_fields_cannot_be_reassigned(self):
        timeline = _timeline([COMPLETE, COMPLETE])
        with pytest.raises(dataclasses.FrozenInstanceError):
            timeline.rtt_ms = np.zeros(2, dtype=np.float32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            timeline.paths = []

    def test_arrays_are_read_only(self):
        timeline = _timeline([COMPLETE, COMPLETE])
        with pytest.raises(ValueError):
            timeline.rtt_ms[0] = 99.0
        with pytest.raises(ValueError):
            timeline.outcome[0] = INCOMPLETE
        with pytest.raises(ValueError):
            timeline.path_id[0] = 1

    def test_products_are_read_only(self):
        timeline = _timeline([COMPLETE, MISSING_IP, COMPLETE], path_ids=[0, 0, 1],
                             paths=[(1, 2), (1, 3)])
        with pytest.raises(ValueError):
            timeline.usable_mask()[0] = False
        with pytest.raises(ValueError):
            timeline.usable_path_ids()[0] = 1
        with pytest.raises(ValueError):
            timeline.usable_rtts_by_path()[0][0] = 1.0

    def test_returned_mappings_do_not_alias_the_memo(self):
        timeline = _timeline([COMPLETE, COMPLETE], path_ids=[0, 1], paths=[(1, 2), (1, 3)])
        timeline.usable_rtts_by_path().clear()
        timeline.path_sample_counts()[0] = 99
        assert sorted(timeline.usable_rtts_by_path()) == [0, 1]
        assert timeline.path_sample_counts() == {0: 1, 1: 1}

    def test_true_candidate_length_checked(self):
        with pytest.raises(ValueError, match="true_candidate"):
            TraceTimeline(
                src_server_id=0, dst_server_id=1, version=IPVersion.V4,
                times_hours=np.arange(3.0),
                rtt_ms=np.zeros(3, dtype=np.float32),
                outcome=np.zeros(3, dtype=np.uint8),
                path_id=np.zeros(3, dtype=np.int32),
                true_candidate=np.zeros(2, dtype=np.int16),
            )

    def test_empty_true_candidate_allowed(self):
        timeline = TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=np.arange(3.0),
            rtt_ms=np.zeros(3, dtype=np.float32),
            outcome=np.zeros(3, dtype=np.uint8),
            path_id=np.zeros(3, dtype=np.int32),
        )
        assert timeline.true_candidate.size == 0

    def test_ping_timeline_frozen(self):
        ping = PingTimeline(0, 1, IPVersion.V4, np.arange(3.0),
                            np.ones(3, dtype=np.float32))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ping.rtt_ms = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError):
            ping.rtt_ms[0] = 2.0


class TestStackByGrid:
    def test_stacks_are_built_per_step(self, monkeypatch):
        monkeypatch.setattr("repro.datasets.timeline.STACK_ROWS", 2)
        pings = [PingTimeline(0, 1, IPVersion.V4, np.arange(4.0),
                              np.full(4, row, dtype=np.float32)) for row in range(5)]
        stacks = stack_by_grid(pings)
        assert iter(stacks) is stacks
        assert [stack.indexes for stack in stacks] == [[0, 1], [2, 3], [4]]


class TestPickle:
    def test_products_are_not_pickled(self):
        timeline = _timeline([COMPLETE, LOOP, COMPLETE], path_ids=[0, 0, 1],
                             paths=[(1, 2), (1, 3)])
        cold = pickle.dumps(timeline, protocol=pickle.HIGHEST_PROTOCOL)
        timeline.usable_rtts_by_path()
        timeline.observed_paths()
        warm = pickle.dumps(timeline, protocol=pickle.HIGHEST_PROTOCOL)
        assert warm == cold
        clone = pickle.loads(warm)
        assert "_products" not in vars(clone)
        assert not clone.rtt_ms.flags.writeable
        assert_same_mapping(clone.usable_rtts_by_path(), timeline.usable_rtts_by_path())

    def test_ping_products_are_not_pickled(self):
        ping = PingTimeline(0, 1, IPVersion.V4, np.arange(30.0),
                            np.ones(30, dtype=np.float32))
        cold = pickle.dumps(ping, protocol=pickle.HIGHEST_PROTOCOL)
        ping.hour_groups()
        assert pickle.dumps(ping, protocol=pickle.HIGHEST_PROTOCOL) == cold

    def test_timelines_compare_by_identity(self):
        trace = _timeline([COMPLETE, LOOP, COMPLETE])
        ping = PingTimeline(0, 1, IPVersion.V4, np.arange(3.0),
                            np.ones(3, dtype=np.float32))
        (stack,) = stack_by_grid([ping])
        for item in (trace, ping, stack):
            copy = pickle.loads(pickle.dumps(item))
            assert item == item
            assert (item == copy) is False
            assert hash(item) == hash(item)
            assert len({item, copy}) == 2

    def test_datasets_holding_equal_copies_compare_without_raising(self):
        timeline = _timeline([COMPLETE, COMPLETE])
        grid = CampaignGrid(0.0, 3.0, 2)
        first = LongTermDataset(grid, {(0, 1, IPVersion.V4): timeline})
        second = LongTermDataset(grid, {(0, 1, IPVersion.V4): pickle.loads(pickle.dumps(timeline))})
        assert first == first
        assert (first == second) is False

    def test_restoring_writeable_arrays_freezes_them(self):
        # Numpy unpickles every array writeable; restoring freezes them again.
        timeline = _timeline([COMPLETE, COMPLETE])
        state = {**timeline.__getstate__(), "rtt_ms": timeline.rtt_ms.copy()}
        assert state["rtt_ms"].flags.writeable
        restored = TraceTimeline.__new__(TraceTimeline)
        restored.__setstate__(state)
        assert not restored.rtt_ms.flags.writeable


def _with_candidates(column, dtype=np.int8):
    count = len(column)
    return TraceTimeline(
        src_server_id=0, dst_server_id=1, version=IPVersion.V4,
        times_hours=3.0 * np.arange(count),
        rtt_ms=np.full(count, 10.0, dtype=np.float32),
        outcome=np.zeros(count, dtype=np.uint8),
        path_id=np.zeros(count, dtype=np.int16),
        paths=[(1, 2)],
        true_candidate=np.asarray(column, dtype=dtype),
    )


class TestCandidateRuns:
    """``true_candidate`` is held as runs and derived per read."""

    def test_runs_of_a_known_column(self):
        timeline = _with_candidates([-1, -1, 2, 2, 2, 0, -1])
        bounds, values = timeline.candidate_runs()
        assert bounds.dtype == np.int32 and values.dtype == np.int8
        assert bounds.tolist() == [0, 2, 5, 6, 7]
        assert values.tolist() == [-1, 2, 0, -1]
        assert not bounds.flags.writeable and not values.flags.writeable
        assert "true_candidate" not in vars(timeline)

    def test_wider_columns_are_narrowed_and_checked(self):
        timeline = _with_candidates([-1, 3, 3], np.int32)
        assert timeline.candidate_runs().values.dtype == np.int8
        assert timeline.true_candidate.tolist() == [-1, 3, 3]
        with pytest.raises(ValueError, match="true_candidate holds values outside int8"):
            _with_candidates([0, 200], np.int16)

    def test_no_ground_truth_is_no_runs(self):
        timeline = _with_candidates([])
        assert [part.tolist() for part in timeline.candidate_runs()] == [[0], []]
        assert timeline.true_candidate.dtype == np.int8
        assert timeline.true_candidate.size == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-1, 5), max_size=40).flatmap(
        lambda runs: st.tuples(st.just(runs), st.lists(
            st.integers(1, 6), min_size=len(runs), max_size=len(runs)))),
        st.sampled_from([np.int8, np.int16]))
    def test_column_round_trips_through_construction_and_pickle(self, drawn, dtype):
        values, lengths = drawn
        column = np.repeat(np.asarray(values, dtype=dtype), lengths)
        timeline = _with_candidates(column, dtype)
        for held in (timeline, pickle.loads(pickle.dumps(timeline))):
            read = held.true_candidate
            assert read.tolist() == column.tolist()
            assert not read.flags.writeable
            assert read is not held.true_candidate
            bounds, run_values = held.candidate_runs()
            assert (np.diff(bounds) > 0).all()
            assert (run_values[1:] != run_values[:-1]).all()
        assert timeline.true_candidate.tobytes() == column.astype(np.int8).tobytes()
        restored = pickle.loads(pickle.dumps(timeline))
        assert restored.true_candidate.dtype == np.int8


class TestCompactLayout:
    def test_path_table_holds_max_paths_then_raises_naming_the_pair(self):
        assert MAX_PATHS == np.iinfo(np.int16).max
        table = PathTable((4, 9))
        ids = [table.intern((path,)) for path in range(MAX_PATHS)]
        assert ids == list(range(MAX_PATHS))
        assert table.intern((0,)) == 0
        assert np.asarray(ids, dtype=np.int16).tolist() == ids
        with pytest.raises(ValueError, match=r"pair \(4, 9\)"):
            table.intern((MAX_PATHS,))
        assert len(table.paths) == MAX_PATHS

    def test_compact_column_narrows_within_range(self):
        wide = np.asarray([-1, 0, 32767], dtype=np.int32)
        narrow = compact_column(wide, np.dtype(np.int16), "path_id")
        assert narrow.dtype == np.int16
        assert narrow.tolist() == wide.tolist()
        assert compact_column(narrow, np.dtype(np.int16), "path_id") is narrow

    def test_compact_column_rejects_what_it_cannot_hold(self):
        with pytest.raises(ValueError, match="path_id holds values outside int16"):
            compact_column(np.asarray([0, 40000], dtype=np.int32), np.dtype(np.int16),
                           "path_id")
        with pytest.raises(ValueError, match="true_candidate holds values outside int8"):
            compact_column(np.asarray([-129], dtype=np.int16), np.dtype(np.int8),
                           "true_candidate")
        with pytest.raises(ValueError, match="integer"):
            compact_column(np.zeros(2), np.dtype(np.int16), "path_id")

    def test_compact_column_gives_an_unpickled_dtype_the_canonical_object(self):
        column = np.asarray([0, 1], dtype=np.int8)
        unpickled = pickle.loads(pickle.dumps(column))
        assert unpickled.dtype is not column.dtype
        canonical = compact_column(unpickled, np.dtype(np.int8), "path_id")
        assert canonical.dtype is np.dtype(np.int8)
        assert canonical.base is unpickled

    def test_ids_past_the_table_width_fail_loudly(self):
        with pytest.raises(ValueError, match="path_id holds values outside int8"):
            _timeline([COMPLETE, COMPLETE], path_ids=[0, 128])
        with pytest.raises(ValueError, match="path_id holds values outside int16"):
            _timeline([COMPLETE, COMPLETE], path_ids=[0, 70000],
                      paths=[(path,) for path in range(129)])


class TestPathIdWidth:
    """A timeline stores path ids in the narrowest dtype its table needs."""

    @pytest.mark.parametrize("count, dtype", [
        (0, np.int8), (1, np.int8), (128, np.int8), (129, np.int16), (MAX_PATHS, np.int16),
    ])
    def test_width_rule(self, count, dtype):
        assert path_id_dtype(count) == dtype

    @pytest.mark.parametrize("count, dtype", [(128, np.int8), (129, np.int16)])
    def test_table_size_boundary(self, count, dtype):
        ids = list(range(-1, count))
        timeline = _timeline([COMPLETE] * len(ids), path_ids=ids,
                             paths=[(path,) for path in range(count)])
        assert timeline.path_id.dtype == dtype
        assert timeline.path_id.tolist() == ids
        assert timeline.path_sample_counts() == {path: 1 for path in range(count)}
        assert timeline.usable_rtts_by_path().keys() == set(range(count))
        restored = pickle.loads(pickle.dumps(timeline))
        assert restored.path_id.dtype == dtype
        assert restored.path_id.tobytes() == timeline.path_id.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 300).flatmap(lambda count: st.tuples(
               st.just(count), st.lists(st.integers(-1, count - 1), max_size=50))),
           st.sampled_from([np.int16, np.int32, np.int64]))
    def test_ids_round_trip_through_construction_and_pickle(self, drawn, given_dtype):
        count, ids = drawn
        timeline = _timeline([COMPLETE] * len(ids), path_ids=ids,
                             paths=[(path,) for path in range(count)])
        restored = pickle.loads(pickle.dumps(timeline))
        for held in (timeline, restored):
            assert held.path_id.dtype == path_id_dtype(count)
            assert held.path_id.tolist() == ids
            assert not held.path_id.flags.writeable
        wide = TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=timeline.times_hours, rtt_ms=timeline.rtt_ms,
            outcome=timeline.outcome, path_id=np.asarray(ids, dtype=given_dtype),
            paths=timeline.paths,
        )
        assert wide.path_id.dtype == path_id_dtype(count)
        assert wide.path_id.tobytes() == timeline.path_id.tobytes()


class TestEpochRuns:
    """The builders' runs equal those of the column they no longer fill."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2)),
                    max_size=12),
           st.integers(0, 3))
    def test_equal_to_the_runs_of_the_filled_column(self, steps, tail):
        # Ascending, disjoint epochs: a gap, then an epoch of some length.
        epochs, position = [], 0
        for gap, length, candidate in steps:
            low = position + gap
            epochs.append((low, low + length, candidate))
            position = low + length
        count = position + tail
        column = np.full(count, -1, dtype=np.int8)
        for low, high, candidate in epochs:
            column[low:high] = candidate
        runs = epoch_runs(count, epochs)
        assert isinstance(runs, CandidateRuns)
        expected = _with_candidates(column).candidate_runs()
        for held, want in zip(runs, expected):
            assert held.dtype == want.dtype
            assert held.tobytes() == want.tobytes()
        timeline = TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=3.0 * np.arange(count),
            rtt_ms=np.full(count, 10.0, dtype=np.float32),
            outcome=np.zeros(count, dtype=np.uint8),
            path_id=np.zeros(count, dtype=np.int8),
            true_candidate=runs,
        )
        assert timeline.true_candidate.tobytes() == column.tobytes()
        assert timeline.candidate_runs().bounds is runs.bounds


@pytest.fixture(scope="module")
def small_run():
    """The ``small`` scenario's datasets after every experiment ran on them."""
    scenario = get_scenario("small")
    platform = MeasurementPlatform(scenario.platform_config(0))
    longterm = build_longterm_dataset(platform, scenario.longterm_config())
    pings = build_shortterm_ping_dataset(platform, scenario.shortterm_config())
    traces = build_shortterm_trace_dataset(
        platform, congested_pairs(platform, pings), scenario.shortterm_config()
    )
    run_all_experiments(platform, longterm, pings, traces, include_fig7=False)
    return longterm


class TestUsableViewsAreDerived:
    """The usable-sample views are recomputed per call, never memoized."""

    def test_full_run_memoizes_no_usable_view(self, small_run):
        memos = [vars(timeline).get("_products", {})
                 for timeline in small_run.timelines.values()]
        assert any("path_sample_counts" in memo for memo in memos)
        for memo in memos:
            assert not {"usable_mask", "usable_index", "usable_path_ids"} & set(memo)


class TestMemoryShape:
    """What a full run leaves resident, checked by shape rather than RSS."""

    def test_long_term_columns_take_6_bytes_per_sample_plus_candidate_runs(self, small_run):
        samples = run_bytes = 0
        for timeline in small_run.timelines.values():
            assert timeline.path_id.dtype == np.int8
            columns = (timeline.rtt_ms, timeline.outcome, timeline.path_id)
            assert sum(column.nbytes for column in columns) == 6 * len(timeline)
            held = [value for value in vars(timeline).values() if isinstance(value, np.ndarray)]
            runs = timeline.candidate_runs()
            assert sum(value.nbytes for value in held) == (
                timeline.times_hours.nbytes + 6 * len(timeline)
                + sum(part.nbytes for part in runs))
            samples += len(timeline)
            run_bytes += sum(part.nbytes for part in runs)
        # One routing epoch spans many samples, so the runs are a small
        # fraction of the 1 byte per sample the full column took.
        assert run_bytes < samples / 4

    def test_memos_hold_counts_and_percentiles_only(self, small_run):
        percentile_keys = {("percentiles", 10.0), ("percentiles", 90.0)}
        change_key = ("change_count",)
        seen = set()
        for timeline in small_run.timelines.values():
            memo = vars(timeline).get("_products", {})
            assert set(memo) <= {"path_sample_counts", change_key} | percentile_keys
            for key, value in memo.items():
                if key == change_key:
                    assert type(value) is int
                    continue
                assert isinstance(value, dict)
                assert not any(isinstance(item, np.ndarray) for item in value.values())
            seen.update(memo)
        assert seen == {"path_sample_counts", change_key} | percentile_keys

    def test_dual_stack_populations_are_built_per_read(self, small_run):
        comparison = paired_rtt_differences(small_run)
        first, second = comparison.all_diffs, comparison.all_diffs
        assert first is not second
        assert first.values is not second.values
        assert first.values.tobytes() == second.values.tobytes()
        assert comparison.same_path_diffs is not comparison.same_path_diffs

    def test_views_are_fresh_per_call(self):
        timeline = _timeline([COMPLETE, LOOP, MISSING_IP])
        assert timeline.usable_mask() is not timeline.usable_mask()
        assert timeline.usable_index().tolist() == [0, 2]
        assert "_products" not in vars(timeline)


# ----------------------------------------------------------------------
# The products against naive per-call references
# ----------------------------------------------------------------------

USABLE = (COMPLETE, MISSING_AS, MISSING_IP)
ALL_OUTCOMES = tuple(int(outcome) for outcome in TraceOutcome)
PATH_POOL = [(1, 2), (1, 3), (1, 4, 2), (1, 5, 2)]
NAN = float("nan")


@st.composite
def trace_timelines(draw, min_samples=0, max_samples=60, version=IPVersion.V4, count=None):
    """Random small trace timelines, degenerate shapes included.

    Outcome pools cover mixed, all-``INCOMPLETE`` and all-usable series;
    RTTs may be all NaN; few paths over few samples make buckets below
    ``MIN_BUCKET_SAMPLES`` common; outcomes come in several integer dtypes.
    Usable samples carry a path id ``-1`` only when ``stray_ids`` is drawn.
    Arrays come from a drawn seed, so examples are dense, not mostly tiny.
    """
    if count is None:
        count = draw(st.integers(min_samples, max_samples))
    pool = draw(st.sampled_from([ALL_OUTCOMES, (INCOMPLETE,), USABLE]))
    path_count = draw(st.integers(1, 4))
    nan_fraction = draw(st.sampled_from([0.0, 0.3, 1.0]))
    stray_ids = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    outcomes = rng.choice(pool, size=count)
    path_ids = rng.integers(-1 if stray_ids else 0, path_count, size=count)
    path_ids[~np.isin(outcomes, USABLE)] = -1
    rtts = rng.integers(10, 30, size=count).astype(np.float32)
    if draw(st.booleans()):
        rtts += rng.random(count).astype(np.float32)
    rtts[rng.random(count) < nan_fraction] = np.nan
    paths = draw(st.lists(st.sampled_from(PATH_POOL), min_size=path_count,
                          max_size=path_count))
    period = draw(st.sampled_from([0.5, 3.0]))
    dtype = draw(st.sampled_from([np.uint8, np.int16, np.int64]))
    return TraceTimeline(
        src_server_id=0,
        dst_server_id=1,
        version=version,
        times_hours=period * np.arange(count),
        rtt_ms=rtts,
        outcome=outcomes.astype(dtype),
        path_id=path_ids.astype(np.int32),
        paths=paths,
    )


@st.composite
def ping_timelines(draw):
    """Random ping timelines; some hours of day may have no finite sample.

    RTTs come from a drawn seed (lists of hundreds of drawn floats are
    slow); integer-valued series make ties common.
    """
    count = draw(st.integers(0, 200))
    period = draw(st.sampled_from([0.25, 1.0, 5.0]))
    start = draw(st.sampled_from([0.0, 7.5]))
    loss = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        rtts = rng.integers(10, 20, count).astype(np.float32)
    else:
        rtts = (10.0 + 300.0 * rng.random(count)).astype(np.float32)
    rtts[rng.random(count) < loss] = np.nan
    times = start + period * np.arange(count)
    dead_hours = draw(st.lists(st.integers(0, 23), max_size=12))
    rtts[np.isin(np.mod(times, 24.0).astype(int), dead_hours)] = np.nan
    return PingTimeline(0, 1, IPVersion.V4, times, rtts)


def ping_outside_bins():
    """A ping timeline with samples whose time maps to no hour-of-day bin."""
    times = np.array([-1e-20, np.nan, 1.0, 25.0, 2.0, 1.5, np.nan])
    rtts = np.array([5.0, 6.0, 10.0, 12.0, np.nan, 11.0, np.nan], dtype=np.float32)
    return PingTimeline(0, 1, IPVersion.V4, times, rtts)


def reference_usable_mask(timeline):
    return np.isin(timeline.outcome, USABLE)


def reference_buckets(timeline):
    mask = reference_usable_mask(timeline)
    ids = timeline.path_id[mask]
    rtts = timeline.rtt_ms[mask]
    return {int(path_id): rtts[ids == path_id] for path_id in np.unique(ids) if path_id >= 0}


def reference_counts(timeline):
    ids = timeline.path_id[reference_usable_mask(timeline)]
    return {
        int(path_id): int(count)
        for path_id, count in zip(*np.unique(ids, return_counts=True))
        if path_id >= 0
    }


def reference_hour_groups(ping):
    hour_of_day = np.mod(ping.times_hours, 24.0).astype(int)
    return [np.flatnonzero(hour_of_day == hour) for hour in range(24)]


def assert_same_mapping(got, want):
    """Same keys in the same order, and equal values (NaN equal to NaN)."""
    assert list(got) == list(want)
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype
            assert np.array_equal(got[key], value, equal_nan=True)
        else:
            assert got[key] == value or (np.isnan(got[key]) and np.isnan(value))


class TestProductsMatchReference:
    @settings(max_examples=200, deadline=None)
    @given(trace_timelines())
    def test_trace_products(self, timeline):
        mask = reference_usable_mask(timeline)
        assert np.array_equal(timeline.usable_mask(), mask)
        assert np.array_equal(timeline.usable_index(), np.flatnonzero(mask))
        assert timeline.usable_index().dtype == np.int32
        assert np.array_equal(timeline.usable_path_ids(), timeline.path_id[mask])
        assert_same_mapping(timeline.usable_rtts_by_path(), reference_buckets(timeline))
        assert_same_mapping(timeline.path_sample_counts(), reference_counts(timeline))
        assert timeline.observed_paths() == [
            timeline.paths[path_id] for path_id in reference_counts(timeline)
        ]
        for min_samples in (0, 3):
            path_ids, values, bounds = timeline.sorted_buckets(min_samples)
            want = {}
            for path_id, rtts in reference_buckets(timeline).items():
                finite = np.sort(rtts[np.isfinite(rtts)])
                if finite.size >= min_samples:
                    want[path_id] = finite
            got = {path_id: values[bounds[k]:bounds[k + 1]]
                   for k, path_id in enumerate(path_ids)}
            assert_same_mapping(got, want)
            assert bounds[-1] == values.size
            assert values.dtype == timeline.rtt_ms.dtype
            assert not values.flags.writeable

    def test_all_incomplete_has_no_products(self):
        timeline = _timeline([INCOMPLETE] * 4, path_ids=[-1] * 4)
        assert not timeline.usable_mask().any()
        assert timeline.usable_index().size == 0
        assert timeline.usable_rtts_by_path() == {}
        assert timeline.path_sample_counts() == {}

    def test_empty_timeline(self):
        timeline = _timeline([])
        assert timeline.usable_mask().size == 0
        assert timeline.usable_rtts_by_path() == {}
        assert timeline.observed_paths() == []

    @staticmethod
    def _coded(outcomes, dtype):
        return TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=np.arange(float(len(outcomes))),
            rtt_ms=np.ones(len(outcomes), dtype=np.float32),
            outcome=np.asarray(outcomes, dtype=dtype),
            path_id=np.zeros(len(outcomes), dtype=np.int32),
            paths=[(1, 2)],
        )

    def test_non_uint8_outcomes(self):
        for dtype in (np.int8, np.int64):
            timeline = self._coded([COMPLETE, LOOP, INCOMPLETE, MISSING_AS], dtype)
            assert timeline.usable_mask().tolist() == [True, False, False, True]

    @pytest.mark.parametrize("code, dtype", [
        (5, np.int8), (-1, np.int8), (5, np.uint8), (300, np.int64), (-1, np.int64),
    ])
    def test_outcome_outside_trace_outcome_rejected(self, code, dtype):
        # A stray code would otherwise pass the one-comparison usable mask.
        with pytest.raises(ValueError, match="outside TraceOutcome"):
            self._coded([COMPLETE, code, MISSING_AS], dtype)

    @settings(max_examples=200, deadline=None)
    @given(ping_timelines())
    def test_ping_hour_groups(self, ping):
        order, bounds = ping.hour_groups()
        assert order.dtype == np.int32
        for hour, expected in enumerate(reference_hour_groups(ping)):
            assert np.array_equal(order[bounds[hour]:bounds[hour + 1]], expected)

    def test_times_outside_every_bin_join_no_group(self):
        # np.mod maps -1e-20 to 24.0 (bin 24) and NaN to no bin at all.
        ping = ping_outside_bins()
        with np.errstate(invalid="ignore"):
            order, bounds = ping.hour_groups()
            expected = reference_hour_groups(ping)
        assert bounds[0] > 0
        for hour in range(24):
            assert np.array_equal(order[bounds[hour]:bounds[hour + 1]], expected[hour])
