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

The ping population kernels (congestion verdicts, loss summaries) are
checked against the per-series detector and the per-timeline loss
references on populations that mix grids, dtypes and degenerate rows.

The routing schedule's sweep is checked against the scan it replaced
(every outage per pair, every relevant outage per interval) on random
outage and flap sets: overlapping, zero-length, inverted, touching 0 or
the window's end, and split by adjacent floats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.congestion import CongestionDetector, congestion_population_stats
from repro.core.dualstack import paired_rtt_differences
from repro.core.loss import (
    BUSY_HOURS,
    LossVerdict,
    _assess_losses,
    _hourly_rtt_profile,
    assess_loss,
    hourly_loss_profile,
    loss_population_summary,
    loss_rtt_correlation,
)
from repro.core.routechange import (
    analyze_timeline,
    as_path_pair_count,
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
    sorted_percentiles,
)
from repro.core.sharedinfra import _change_rounds, _synchronized_fraction
from repro.datasets.longterm import LongTermDataset
from repro.datasets.timeline import PingTimeline, TraceTimeline, stack_by_grid
from repro.measurement.scheduler import CampaignGrid
from repro.net.ip import IPVersion
from repro.routing.dynamics import (
    EdgeOutage,
    PairFlap,
    PathEpoch,
    RoutingSchedule,
    _select_candidate,
    build_routing_schedule,
)
from repro.routing.policy import RouteClass
from repro.routing.table import CandidateRoute, RouteTable
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


def reference_population_stats(timelines, detector, min_valid_samples):
    pairs = spread = congested = 0
    for ping in timelines:
        valid = int(np.sum(~np.isnan(ping.rtt_ms)))
        if valid == 0 or valid < min(min_valid_samples, int(0.9 * ping.times_hours.size)):
            continue
        verdict = detector.assess_series(ping.times_hours, ping.rtt_ms)
        pairs += 1
        spread += verdict.spread_exceeds
        congested += verdict.congested
    return pairs, spread, congested


def reference_loss_summary(timelines, min_samples):
    rates, correlations, diurnal = [], [], 0
    for ping in timelines:
        if ping.times_hours.size < min_samples:
            continue
        verdict = LossVerdict(*reference_assess(ping))
        rates.append(verdict.loss_rate)
        if verdict.diurnal_loss:
            diurnal += 1
            if np.isfinite(verdict.loss_rtt_correlation):
                correlations.append(verdict.loss_rtt_correlation)
    return (
        len(rates),
        float(np.median(rates)) if rates else float("nan"),
        diurnal,
        float(np.median(correlations)) if correlations else float("nan"),
    )


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


def reference_pair_count(forward, reverse):
    both = reference_usable_mask(forward) & reference_usable_mask(reverse)
    pairs = zip(forward.path_id[both].tolist(), reverse.path_id[both].tolist())
    return len(set(pairs))


def reference_routing_schedule(table, pairs, duration_hours, outages, flaps=()):
    """``build_routing_schedule`` as a scan: every outage per pair, every
    relevant outage and flap per interval."""
    flaps_by_pair = {}
    for flap in flaps:
        flaps_by_pair.setdefault(flap.pair, []).append(flap)
    schedule = RoutingSchedule(
        duration_hours=duration_hours, outages=tuple(outages), flaps=tuple(flaps)
    )
    for pair in pairs:
        candidates = table.routes(*pair)
        if not candidates:
            continue
        all_edges = frozenset().union(*(candidate.edges for candidate in candidates))
        relevant_outages = [outage for outage in outages if outage.edge in all_edges]
        relevant_flaps = flaps_by_pair.get(pair, ())
        boundaries = {0.0, duration_hours}
        for event in relevant_outages + list(relevant_flaps):
            if event.start_hour < duration_hours:
                boundaries.add(max(0.0, event.start_hour))
                boundaries.add(min(duration_hours, event.end_hour))
        ordered = sorted(boundaries)
        epochs = []
        for start, end in zip(ordered, ordered[1:]):
            midpoint = 0.5 * (start + end)
            blocked = frozenset(
                outage.edge
                for outage in relevant_outages
                if outage.start_hour <= midpoint < outage.end_hour
            )
            demoted = any(
                flap.start_hour <= midpoint < flap.end_hour for flap in relevant_flaps
            )
            selected = _select_candidate(candidates, blocked, demoted)
            if epochs and epochs[-1].candidate_index == selected:
                epochs[-1] = PathEpoch(epochs[-1].start_hour, end, selected)
            else:
                epochs.append(PathEpoch(start, end, selected))
        schedule.timelines[pair] = tuple(epochs)
    return schedule


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


GRID_SHAPES = [
    (0, 1.0),     # empty grid
    (3, 5.0),     # fewer than 8 samples
    (7, 1.0),
    (40, 0.25),   # a 10-hour window: shorter than one day, bins 10..23 empty
    (8, 1.0),     # 8 samples over 8 hours
    (96, 1.0),
    (200, 0.25),
    (60, 5.0),
]
ROW_KINDS = ["noise", "ties", "diurnal", "all-nan", "sparse", "edge-gaps", "float64"]


@st.composite
def ping_populations(draw):
    """Ping timelines over one or two grids, with degenerate rows.

    Rows are all-NaN, hold fewer than four finite samples, lose whole
    hours of day or the window's edges, carry a diurnal signal, or come
    as float64; some share a grid object, others hold an equal copy.
    """
    grids = [
        start + period * np.arange(count)
        for count, period in draw(st.lists(st.sampled_from(GRID_SHAPES),
                                           min_size=1, max_size=2))
        for start in [draw(st.sampled_from([0.0, 7.5]))]
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    timelines = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=10)):
        times = grids[draw(st.integers(0, len(grids) - 1))]
        if draw(st.booleans()):
            times = times.copy()
        count = times.size
        if kind == "ties":
            rtts = rng.integers(10, 20, count).astype(np.float32)
        elif kind == "diurnal":
            rtts = (50.0 + 25.0 * np.maximum(0.0, np.sin(2 * np.pi * times / 24.0))
                    + rng.normal(0.0, 1.0, count)).astype(np.float32)
        else:
            rtts = (10.0 + 300.0 * rng.random(count)).astype(np.float32)
        if kind == "all-nan":
            rtts[:] = np.nan
        elif kind == "sparse":
            rtts[rng.permutation(count)[rng.integers(0, 4):]] = np.nan
        elif kind == "edge-gaps":
            rtts[: count // 5] = np.nan
            rtts[count - count // 7:] = np.nan
        else:
            rtts[rng.random(count) < draw(st.sampled_from([0.0, 0.05, 0.5]))] = np.nan
            dead_hours = draw(st.lists(st.integers(0, 23), max_size=6))
            rtts[np.isin(np.mod(times, 24.0).astype(int), dead_hours)] = np.nan
        if kind == "float64":
            rtts = rtts.astype(np.float64)
        timelines.append(PingTimeline(0, 1, IPVersion.V4, times, rtts))
    return timelines


DETECTORS = [
    CongestionDetector(),
    CongestionDetector(power_ratio_threshold=0.05, spread_threshold_ms=2.0, band=0),
    CongestionDetector(spread_percentiles=(10.0, 90.0), band=2),
]


class TestPingPopulation:
    @settings(max_examples=150, deadline=None)
    @given(ping_populations(), st.sampled_from(DETECTORS))
    def test_verdicts_match_the_per_series_detector(self, timelines, detector):
        verdicts = detector.assess_all(timelines)
        assert len(verdicts) == len(timelines)
        for ping, verdict in zip(timelines, verdicts):
            want = detector.assess_series(ping.times_hours, ping.rtt_ms)
            assert same_float(verdict.spread_ms, want.spread_ms)
            assert same_float(verdict.power_ratio, want.power_ratio)
            assert (verdict.spread_exceeds, verdict.diurnal) == (
                want.spread_exceeds, want.diurnal)
            assert detector.assess(ping) is verdict

    @settings(max_examples=100, deadline=None)
    @given(ping_populations(), st.sampled_from(DETECTORS), st.sampled_from([0, 5, 600]))
    def test_population_stats(self, timelines, detector, min_valid):
        stats = congestion_population_stats(timelines, detector, min_valid_samples=min_valid)
        assert (stats.pairs, stats.spread_exceeds, stats.congested) == (
            reference_population_stats(timelines, detector, min_valid))

    @settings(max_examples=150, deadline=None)
    @given(ping_populations())
    def test_loss_verdicts_match_the_reference(self, timelines):
        for ping, verdict in zip(timelines, _assess_losses(timelines, correlate_all=True)):
            got = (verdict.loss_rate, verdict.busy_hour_loss, verdict.quiet_hour_loss,
                   verdict.loss_rtt_correlation)
            for value, want in zip(got, reference_assess(ping)):
                assert same_float(value, want)

    @settings(max_examples=150, deadline=None)
    @given(ping_populations(), st.sampled_from([0, 8, 50, 300]))
    def test_loss_summary(self, timelines, min_samples):
        summary = loss_population_summary(timelines, min_samples=min_samples)
        got = (summary.pairs, summary.median_loss_rate, summary.diurnal_loss_pairs,
               summary.median_correlation_diurnal)
        want = reference_loss_summary(timelines, min_samples)
        assert got[0] == want[0] and got[2] == want[2]
        assert same_float(got[1], want[1]) and same_float(got[3], want[3])


def _mixed_grid_population(rows=300, seed=0):
    """``rows`` week-long ping timelines over two grids, interleaved.

    Rows carry a diurnal signal, noise, ties, sparse or edge-gapped
    samples, or come as float64; every timeline is new, so no verdict
    is memoized yet.
    """
    grids = [0.25 * np.arange(672), 7.5 + 1.0 * np.arange(168)]
    rng = np.random.default_rng(seed)
    timelines = []
    for row in range(rows):
        times = grids[row % 3 == 0]
        count = times.size
        kind = ROW_KINDS[row % len(ROW_KINDS)]
        if kind == "diurnal":
            rtts = 50.0 + 25.0 * np.maximum(0.0, np.sin(2 * np.pi * times / 24.0))
            rtts = (rtts + rng.normal(0.0, 1.0, count)).astype(np.float32)
        elif kind == "ties":
            rtts = rng.integers(10, 20, count).astype(np.float32)
        else:
            rtts = (10.0 + 300.0 * rng.random(count)).astype(np.float32)
        if kind == "all-nan":
            rtts[:] = np.nan
        elif kind == "sparse":
            rtts[rng.permutation(count)[rng.integers(0, 4):]] = np.nan
        elif kind == "edge-gaps":
            rtts[: count // 5] = np.nan
            rtts[count - count // 7:] = np.nan
        else:
            rtts[rng.random(count) < 0.05] = np.nan
        if kind == "float64":
            rtts = rtts.astype(np.float64)
        timelines.append(PingTimeline(0, 1, IPVersion.V4, times.copy(), rtts))
    return timelines


class TestStackRows:
    """The population kernels give the same bits whatever the stack height."""

    def test_verdicts_do_not_depend_on_stack_rows(self, monkeypatch):
        verdicts, losses, stacks = {}, {}, {}
        for rows in (1, 64, 256):
            monkeypatch.setattr("repro.datasets.timeline.STACK_ROWS", rows)
            population = _mixed_grid_population()
            stacks[rows] = sum(1 for _ in stack_by_grid(population))
            verdicts[rows] = np.array([
                (verdict.spread_ms, verdict.power_ratio, verdict.spread_exceeds,
                 verdict.diurnal)
                for verdict in CongestionDetector().assess_all(population)
            ]).tobytes()
            losses[rows] = np.array([
                (verdict.loss_rate, verdict.busy_hour_loss, verdict.quiet_hour_loss,
                 verdict.loss_rtt_correlation)
                for verdict in _assess_losses(population, correlate_all=True)
            ]).tobytes()
        # 300 rows: 100 on one grid, 200 on the other (float64 rows apart).
        assert stacks[1] == 300 and stacks[64] > stacks[256] > 2
        assert verdicts[1] == verdicts[64] == verdicts[256]
        assert losses[1] == losses[64] == losses[256]


class TestSortedPercentiles:
    """``path_percentiles`` reads numpy's ``linear`` percentile bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.integers(3, 40),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_bits_match_np_percentile(self, dtype, count, ties, seed):
        rng = np.random.default_rng(seed)
        if ties:
            rtts = rng.integers(10, 14, count).astype(dtype)
        else:
            rtts = (5.0 + 300.0 * rng.random(count)).astype(dtype)
        timeline = TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=np.arange(float(count)), rtt_ms=rtts,
            outcome=np.full(count, COMPLETE, dtype=np.uint8),
            path_id=np.zeros(count, dtype=np.int32), paths=[(1, 2)],
        )
        for q in (0.0, 10.0, 50.0, 90.0, 100.0):
            want = float(np.percentile(rtts, q))
            assert path_percentiles(timeline, q)[0] == want
            segment = np.sort(rtts)
            got = sorted_percentiles(segment, np.array([0]), np.array([count]), q)
            assert got.dtype == dtype and got[0] == want

    def test_three_samples_with_ties(self):
        for dtype in (np.float32, np.float64):
            values = np.asarray([10.1, 10.1, 23.7], dtype=dtype)
            for q in (0.0, 10.0, 50.0, 90.0, 100.0):
                got = sorted_percentiles(values, np.array([0]), np.array([3]), q)[0]
                assert got == np.percentile(values, q)

    def test_a_float64_weight_would_change_float32_bits(self):
        # Why the weight is cast to the bucket dtype: numpy interpolates a
        # float32 bucket in float32 for a Python-float q.
        values = np.asarray([10.1, 13.3, 23.7], dtype=np.float32)
        q = 10.0
        weight = (3 - 1) * (q / 100)
        in_float64 = float(values[0] + (values[1] - values[0]) * np.float64(weight))
        assert float(np.percentile(values, q)) != in_float64
        got = sorted_percentiles(values, np.array([0]), np.array([3]), q)[0]
        assert got == np.percentile(values, q)

    def test_empty_segments_are_nan(self):
        got = sorted_percentiles(np.asarray([1.0, 2.0, 3.0]), np.array([0, 3]),
                                 np.array([3, 0]), 50.0)
        assert got[0] == 2.0 and np.isnan(got[1])

    def test_memo_returns_fresh_dicts(self):
        timeline = TraceTimeline(
            src_server_id=0, dst_server_id=1, version=IPVersion.V4,
            times_hours=np.arange(6.0),
            rtt_ms=np.asarray([3, 1, 2, 9, 8, 7], dtype=np.float32),
            outcome=np.full(6, COMPLETE, dtype=np.uint8),
            path_id=np.asarray([0, 0, 0, 1, 1, 1], dtype=np.int32),
            paths=[(1, 2), (1, 3)],
        )
        first = path_percentiles(timeline, 50.0)
        first[0] = -1.0
        del first[1]
        assert path_percentiles(timeline, 50.0) == {0: 2.0, 1: 8.0}
        assert path_percentiles(timeline, 50.0) is not path_percentiles(timeline, 50.0)


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


class TestAsPathPairs:
    @EXAMPLES
    @given(dual_stack_pairs())
    def test_pair_count(self, pair):
        forward, reverse = pair
        assert as_path_pair_count(forward, reverse) == reference_pair_count(forward, reverse)


_ASES = (1, 2, 3, 4, 5)
_DURATIONS = (10.0, 24.0 * 7.3)


@st.composite
def _hours(draw, duration):
    """A time near the window: its ends, beyond them, or adjacent floats."""
    anchors = [0.0, duration, 0.5 * duration, 1.0, duration - 1.0]
    base = draw(st.one_of(
        st.sampled_from(anchors),
        st.floats(-2.0, duration + 2.0, allow_nan=False),
    ))
    steps = draw(st.integers(-1, 1))
    for _ in range(abs(steps)):
        base = float(np.nextafter(base, np.inf if steps > 0 else -np.inf))
    return base


@st.composite
def _events(draw, duration):
    """``(start, end)``: zero-length, inverted and reaching past the window."""
    start = draw(_hours(duration))
    shape = draw(st.sampled_from(["span", "span", "zero", "inverted", "to_end"]))
    if shape == "zero":
        return start, start
    if shape == "inverted":
        return start, start - draw(st.floats(0.0, 3.0))
    if shape == "to_end":
        return start, duration + draw(st.sampled_from([0.0, 1.0]))
    return start, draw(_hours(duration))


@st.composite
def routing_inputs(draw):
    duration = draw(st.sampled_from(_DURATIONS))
    table = RouteTable(version=IPVersion.V4)
    pairs = []
    for src in (1, 2):
        dst = 5
        paths = draw(st.lists(
            st.lists(st.sampled_from((3, 4)), min_size=0, max_size=2, unique=True),
            min_size=0, max_size=4,
        ))
        tiers = draw(st.lists(st.integers(0, 1), min_size=len(paths), max_size=len(paths)))
        table.candidates[(src, dst)] = tuple(
            CandidateRoute.make((src, *middle, dst), RouteClass.CUSTOMER, rank, tier)
            for rank, (middle, tier) in enumerate(zip(paths, tiers))
        )
        pairs.append((src, dst))
    edges = sorted({(a, b) for a in _ASES for b in _ASES if a < b})
    outages = [
        EdgeOutage(edge=draw(st.sampled_from(edges)), start_hour=start, end_hour=end)
        for start, end in draw(st.lists(_events(duration), max_size=12))
    ]
    flaps = [
        PairFlap(pair=draw(st.sampled_from(pairs)), start_hour=start, end_hour=end)
        for start, end in draw(st.lists(_events(duration), max_size=4))
    ]
    return table, pairs, duration, outages, flaps


class TestRoutingSchedule:
    @settings(max_examples=300, deadline=None)
    @given(routing_inputs())
    def test_sweep_matches_the_scan(self, inputs):
        table, pairs, duration, outages, flaps = inputs
        got = build_routing_schedule(table, pairs, duration, outages, flaps)
        want = reference_routing_schedule(table, pairs, duration, outages, flaps)
        assert got.timelines == want.timelines
        assert (got.outages, got.flaps) == (want.outages, want.flaps)
