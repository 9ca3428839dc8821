"""Property tests: the shared-product kernels against naive per-call code.

Each ``reference_*`` function below recomputes a ``repro.core`` result
the direct way -- one usable mask, one ``ids == path_id`` pass per path,
one ``hour_of_day == hour`` pass per hour -- as the analyses did before
they read the timeline's cached products.  The tests require the same
dict keys, the same order and the same float values (NaN equal to NaN),
on random timelines that include the degenerate shapes: empty timelines,
all-``INCOMPLETE`` outcomes, all-NaN RTTs, buckets below
``MIN_BUCKET_SAMPLES``, hours of day without a finite ping sample and
outcome arrays that are not ``uint8``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dualstack import paired_rtt_differences
from repro.core.loss import (
    BUSY_HOURS,
    _hourly_rtt_profile,
    assess_loss,
    hourly_loss_profile,
    loss_rtt_correlation,
)
from repro.core.routechange import (
    analyze_timeline,
    change_events,
    path_lifetimes,
    path_prevalence,
    popular_path,
)
from repro.core.rttstats import (
    MIN_BUCKET_SAMPLES,
    best_path_id,
    path_percentiles,
    path_rtt_std,
    rtt_increase_from_best,
)
from repro.core.sharedinfra import _change_rounds, _synchronized_fraction
from repro.datasets.longterm import LongTermDataset
from repro.datasets.timeline import PingTimeline, TraceTimeline
from repro.measurement.scheduler import CampaignGrid
from repro.net.ip import IPVersion
from tests.datasets.test_timeline import (
    COMPLETE,
    assert_same_mapping,
    ping_outside_bins,
    ping_timelines,
    reference_buckets,
    reference_counts,
    reference_hour_groups,
    reference_usable_mask,
    trace_timelines,
)

EXAMPLES = settings(max_examples=100, deadline=None)


def same_float(got, want):
    return got == want or (math.isnan(got) and math.isnan(want))


# ----------------------------------------------------------------------
# Naive references
# ----------------------------------------------------------------------

def reference_lifetimes(timeline, period_hours=None):
    if period_hours is None:
        times = timeline.times_hours
        period_hours = float(times[1] - times[0]) if times.size > 1 else 3.0
    return {
        path_id: float(count) * period_hours
        for path_id, count in reference_counts(timeline).items()
    }


def reference_prevalence(timeline):
    lifetimes = reference_lifetimes(timeline)
    total = sum(lifetimes.values())
    if total <= 0:
        return {}
    return {path_id: lifetime / total for path_id, lifetime in lifetimes.items()}


def reference_popular(timeline):
    prevalence = reference_prevalence(timeline)
    if not prevalence:
        return None, 0.0
    path_id = max(prevalence, key=lambda pid: (prevalence[pid], -pid))
    return path_id, prevalence[path_id]


def reference_changes(timeline):
    ids = timeline.path_id[reference_usable_mask(timeline)]
    if ids.size < 2:
        return 0
    return int(np.count_nonzero(ids[1:] != ids[:-1]))


def reference_percentiles(timeline, q):
    result = {}
    for path_id, rtts in reference_buckets(timeline).items():
        finite = rtts[np.isfinite(rtts)]
        if finite.size >= MIN_BUCKET_SAMPLES:
            result[path_id] = float(np.percentile(finite, q))
    return result


def reference_std(timeline):
    result = {}
    for path_id, rtts in reference_buckets(timeline).items():
        finite = rtts[np.isfinite(rtts)]
        if finite.size >= MIN_BUCKET_SAMPLES:
            result[path_id] = float(np.std(finite))
    return result


def reference_increase(timeline, q, best_q=None):
    selection = reference_percentiles(timeline, q if best_q is None else best_q)
    if len(selection) < 2:
        return {}
    best = min(selection, key=lambda path_id: (selection[path_id], path_id))
    measured = reference_percentiles(timeline, q)
    return {
        path_id: measured[path_id] - measured[best]
        for path_id in measured
        if path_id != best and best in measured
    }


def reference_loss_profile(ping):
    lost = np.isnan(ping.rtt_ms)
    profile = np.full(24, np.nan)
    for hour, index in enumerate(reference_hour_groups(ping)):
        if index.size:
            profile[hour] = float(lost[index].mean())
    return profile


def reference_rtt_profile(ping):
    profile = np.full(24, np.nan)
    for hour, index in enumerate(reference_hour_groups(ping)):
        values = ping.rtt_ms[index]
        finite = values[np.isfinite(values)]
        if finite.size:
            profile[hour] = float(np.median(finite))
    return profile


def reference_correlation(ping):
    loss = reference_loss_profile(ping)
    rtt = reference_rtt_profile(ping)
    mask = np.isfinite(loss) & np.isfinite(rtt)
    if mask.sum() < 12:
        return float("nan")
    loss, rtt = loss[mask], rtt[mask]
    if loss.std() <= 0 or rtt.std() <= 0:
        return float("nan")
    return float(np.corrcoef(loss, rtt)[0, 1])


def reference_assess(ping):
    lost = np.isnan(ping.rtt_ms)
    hour_of_day = np.mod(ping.times_hours, 24.0).astype(int)
    order = np.argsort(np.nan_to_num(reference_rtt_profile(ping), nan=-np.inf))
    busy_mask = np.isin(hour_of_day, sorted(int(h) for h in order[-BUSY_HOURS:]))
    busy = float(lost[busy_mask].mean()) if busy_mask.any() else float("nan")
    quiet = float(lost[~busy_mask].mean()) if (~busy_mask).any() else float("nan")
    rate = float(lost.mean()) if lost.size else float("nan")
    return rate, busy, quiet, reference_correlation(ping)


def reference_paired(v4, v6):
    both = (
        reference_usable_mask(v4) & reference_usable_mask(v6)
        & np.isfinite(v4.rtt_ms) & np.isfinite(v6.rtt_ms)
    )
    if not both.any():
        return [], [], None
    diffs = (v4.rtt_ms[both] - v6.rtt_ms[both]).astype(float)
    v4_paths = [v4.paths[int(i)] for i in v4.path_id[both]]
    v6_paths = [v6.paths[int(i)] for i in v6.path_id[both]]
    same = np.array([a == b for a, b in zip(v4_paths, v6_paths)], dtype=bool)
    return diffs.tolist(), diffs[same].tolist(), float(np.median(diffs))


def reference_synchronized(v4, v6, slack_rounds=1):
    def rounds(timeline):
        mask = reference_usable_mask(timeline)
        indexes = np.nonzero(mask)[0]
        ids = timeline.path_id[mask]
        if ids.size < 2:
            return np.empty(0, dtype=int)
        return indexes[np.nonzero(ids[1:] != ids[:-1])[0] + 1]

    changes_v4, changes_v6 = rounds(v4), rounds(v6)
    if changes_v4.size == 0 or changes_v6.size == 0:
        return float("nan")
    matched = sum(
        1 for r in changes_v4 if np.min(np.abs(changes_v6 - r)) <= slack_rounds
    )
    return matched / changes_v4.size


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------

class TestRouteChange:
    @EXAMPLES
    @given(trace_timelines())
    def test_analyze_timeline(self, timeline):
        stats = analyze_timeline(timeline)
        assert_same_mapping(stats.lifetimes_hours, reference_lifetimes(timeline))
        assert_same_mapping(stats.prevalence, reference_prevalence(timeline))
        assert (stats.popular_path_id, stats.popular_prevalence) == reference_popular(timeline)
        assert stats.unique_paths == len(reference_counts(timeline))
        assert stats.changes == reference_changes(timeline)

    @EXAMPLES
    @given(trace_timelines())
    def test_public_functions(self, timeline):
        assert_same_mapping(path_lifetimes(timeline), reference_lifetimes(timeline))
        assert_same_mapping(path_lifetimes(timeline, 0.25),
                            reference_lifetimes(timeline, 0.25))
        assert_same_mapping(path_prevalence(timeline), reference_prevalence(timeline))
        assert popular_path(timeline) == reference_popular(timeline)

    @EXAMPLES
    @given(trace_timelines())
    def test_change_events(self, timeline):
        mask = reference_usable_mask(timeline)
        ids, times = timeline.path_id[mask], timeline.times_hours[mask]
        changed = np.nonzero(ids[1:] != ids[:-1])[0]
        events = change_events(timeline)
        assert [event.time_hours for event in events] == [float(times[i + 1]) for i in changed]
        assert [(event.old_path, event.new_path) for event in events] == [
            (timeline.paths[int(ids[i])], timeline.paths[int(ids[i + 1])]) for i in changed
        ]


class TestRttStats:
    @EXAMPLES
    @given(trace_timelines(), st.sampled_from([0.0, 10.0, 50.0, 90.0, 100.0]))
    def test_percentiles(self, timeline, q):
        assert_same_mapping(path_percentiles(timeline, q), reference_percentiles(timeline, q))

    @EXAMPLES
    @given(trace_timelines())
    def test_std_and_best(self, timeline):
        assert_same_mapping(path_rtt_std(timeline), reference_std(timeline))
        percentiles = reference_percentiles(timeline, 10.0)
        expected = (
            min(percentiles, key=lambda pid: (percentiles[pid], pid)) if percentiles else None
        )
        assert best_path_id(timeline) == expected

    @EXAMPLES
    @given(trace_timelines(min_samples=20), st.sampled_from([10.0, 90.0]),
           st.sampled_from([None, 10.0, 90.0]))
    def test_increase_from_best(self, timeline, q, best_q):
        assert_same_mapping(
            rtt_increase_from_best(timeline, q=q, best_q=best_q),
            reference_increase(timeline, q, best_q),
        )

    def test_selection_percentile_differs_from_measured(self):
        # Path 0 has the lower 10th percentile, path 1 the lower 90th.
        timeline = TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=np.arange(8.0),
            rtt_ms=np.asarray([10, 10, 50, 50, 20, 20, 21, 21], dtype=np.float32),
            outcome=np.full(8, COMPLETE, dtype=np.uint8),
            path_id=np.asarray([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32),
            paths=[(1, 2), (1, 3)],
        )
        increases = rtt_increase_from_best(timeline, q=10.0, best_q=90.0)
        assert_same_mapping(increases, reference_increase(timeline, 10.0, 90.0))
        assert list(increases) == [0]
        assert increases[0] < 0

    def test_all_nan_rtts_give_no_buckets(self):
        timeline = TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=np.arange(6.0),
            rtt_ms=np.full(6, np.nan, dtype=np.float32),
            outcome=np.full(6, COMPLETE, dtype=np.uint8),
            path_id=np.asarray([0, 0, 0, 1, 1, 1], dtype=np.int32),
            paths=[(1, 2), (1, 3)],
        )
        assert path_percentiles(timeline, 10.0) == {}
        assert rtt_increase_from_best(timeline) == {}


class TestLoss:
    @settings(max_examples=200, deadline=None)
    @given(ping_timelines())
    def test_profiles_and_verdict(self, ping):
        assert np.array_equal(hourly_loss_profile(ping), reference_loss_profile(ping),
                              equal_nan=True)
        assert np.array_equal(_hourly_rtt_profile(ping), reference_rtt_profile(ping),
                              equal_nan=True)
        assert same_float(loss_rtt_correlation(ping), reference_correlation(ping))
        verdict = assess_loss(ping)
        got = (verdict.loss_rate, verdict.busy_hour_loss, verdict.quiet_hour_loss,
               verdict.loss_rtt_correlation)
        for value, expected in zip(got, reference_assess(ping)):
            assert same_float(value, expected)

    def test_samples_outside_every_bin(self):
        ping = ping_outside_bins()
        with np.errstate(invalid="ignore"):
            profiles = (hourly_loss_profile(ping), _hourly_rtt_profile(ping))
            expected = (reference_loss_profile(ping), reference_rtt_profile(ping))
            verdict = assess_loss(ping)
            expected_verdict = reference_assess(ping)
        for got, want in zip(profiles, expected):
            assert np.array_equal(got, want, equal_nan=True)
        assert profiles[1][1] == 11.0
        got = (verdict.loss_rate, verdict.busy_hour_loss, verdict.quiet_hour_loss,
               verdict.loss_rtt_correlation)
        for value, want in zip(got, expected_verdict):
            assert same_float(value, want)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1.0, 400.0, width=32), min_size=1, max_size=9))
    def test_median_of_even_and_odd_bins(self, values):
        # One sample per day for each value: bin 5 holds all of them.
        times = 5.0 + 24.0 * np.arange(len(values))
        ping = PingTimeline(0, 1, IPVersion.V4, times, np.asarray(values, dtype=np.float32))
        assert _hourly_rtt_profile(ping)[5] == float(
            np.median(np.asarray(values, dtype=np.float32))
        )


def _pair_dataset(v4, v6):
    dataset = LongTermDataset(grid=CampaignGrid(0.0, 3.0, max(len(v4), 1)))
    dataset.timelines[(0, 1, IPVersion.V4)] = v4
    dataset.timelines[(0, 1, IPVersion.V6)] = v6
    return dataset


@st.composite
def dual_stack_pairs(draw):
    count = draw(st.integers(0, 30))
    v4 = draw(trace_timelines(version=IPVersion.V4, count=count))
    v6 = draw(trace_timelines(version=IPVersion.V6, count=count))
    return v4, v6


class TestDualStackAndSharing:
    @EXAMPLES
    @given(dual_stack_pairs())
    def test_paired_differences(self, pair):
        v4, v6 = pair
        both = (
            reference_usable_mask(v4) & reference_usable_mask(v6)
            & np.isfinite(v4.rtt_ms) & np.isfinite(v6.rtt_ms)
        )
        if (v4.path_id[both] < 0).any() or (v6.path_id[both] < 0).any():
            # The direct path lookup would silently wrap to the last path.
            with pytest.raises(ValueError, match="path id"):
                paired_rtt_differences(_pair_dataset(v4, v6))
            return
        all_diffs, same_diffs, median = reference_paired(v4, v6)
        comparison = paired_rtt_differences(_pair_dataset(v4, v6))
        assert comparison.paired_samples == len(all_diffs)
        assert comparison.same_path_samples == len(same_diffs)
        assert np.array_equal(comparison.all_diffs.values, np.sort(all_diffs))
        assert np.array_equal(comparison.same_path_diffs.values, np.sort(same_diffs))
        expected = {} if median is None else {(0, 1): median}
        assert comparison.per_pair_median == expected

    def test_negative_usable_path_id_raises(self):
        def timeline(version, path_ids):
            return TraceTimeline(
                src_server_id=0, dst_server_id=1, version=version,
                times_hours=3.0 * np.arange(2),
                rtt_ms=np.asarray([50.0, 60.0], dtype=np.float32),
                outcome=np.full(2, COMPLETE, dtype=np.uint8),
                path_id=np.asarray(path_ids, dtype=np.int32),
                paths=[(1, 2), (1, 3)],
            )

        dataset = _pair_dataset(timeline(IPVersion.V4, [0, -1]),
                                timeline(IPVersion.V6, [0, 1]))
        with pytest.raises(ValueError, match="path id"):
            paired_rtt_differences(dataset)

    @EXAMPLES
    @given(dual_stack_pairs())
    def test_synchronized_fraction(self, pair):
        v4, v6 = pair
        assert same_float(_synchronized_fraction(v4, v6), reference_synchronized(v4, v6))
        assert _change_rounds(v4).tolist() == [
            int(i) for i in np.nonzero(reference_usable_mask(v4))[0][
                np.nonzero(np.diff(v4.path_id[reference_usable_mask(v4)]) != 0)[0] + 1
            ]
        ]
