"""Tests for the IPv4-vs-IPv6 paired comparison (Figure 10a)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.dualstack import paired_rtt_differences
from repro.datasets.longterm import LongTermDataset
from repro.datasets.timeline import TraceTimeline
from repro.measurement.scheduler import CampaignGrid
from repro.measurement.traceroute import TraceOutcome
from repro.net.ip import IPVersion

COMPLETE = int(TraceOutcome.COMPLETE)
INCOMPLETE = int(TraceOutcome.INCOMPLETE)


def _timeline(version, rtts, outcomes=None, path_ids=None, paths=None):
    count = len(rtts)
    return TraceTimeline(
        src_server_id=0,
        dst_server_id=1,
        version=version,
        times_hours=3.0 * np.arange(count),
        rtt_ms=np.asarray(rtts, dtype=np.float32),
        outcome=np.asarray(outcomes or [COMPLETE] * count, dtype=np.uint8),
        path_id=np.asarray(path_ids or [0] * count, dtype=np.int32),
        paths=paths or [(1, 2)],
        true_candidate=np.zeros(count, dtype=np.int16),
    )


def _dataset(v4, v6):
    grid = CampaignGrid(0.0, 3.0, len(v4.times_hours))
    dataset = LongTermDataset(grid=grid)
    dataset.timelines[(0, 1, IPVersion.V4)] = v4
    dataset.timelines[(0, 1, IPVersion.V6)] = v6
    return dataset


class TestPairing:
    def test_differences_per_round(self):
        v4 = _timeline(IPVersion.V4, [50.0, 60.0, 70.0])
        v6 = _timeline(IPVersion.V6, [40.0, 60.0, 90.0])
        comparison = paired_rtt_differences(_dataset(v4, v6))
        assert comparison.paired_samples == 3
        assert sorted(comparison.all_diffs.values.tolist()) == [-20.0, 0.0, 10.0]
        assert comparison.per_pair_median[(0, 1)] == pytest.approx(0.0)

    def test_rounds_missing_either_protocol_skipped(self):
        v4 = _timeline(IPVersion.V4, [50.0, 60.0], outcomes=[COMPLETE, INCOMPLETE])
        v6 = _timeline(IPVersion.V6, [40.0, 55.0])
        comparison = paired_rtt_differences(_dataset(v4, v6))
        assert comparison.paired_samples == 1

    def test_same_path_subset(self):
        paths_v4 = [(1, 2), (1, 3)]
        paths_v6 = [(1, 2), (1, 4)]
        v4 = _timeline(IPVersion.V4, [50.0, 60.0], path_ids=[0, 1], paths=paths_v4)
        v6 = _timeline(IPVersion.V6, [40.0, 55.0], path_ids=[0, 1], paths=paths_v6)
        comparison = paired_rtt_differences(_dataset(v4, v6))
        assert comparison.paired_samples == 2
        assert comparison.same_path_samples == 1
        assert comparison.same_path_diffs.values.tolist() == [10.0]

    def test_band_and_tail_statistics(self):
        v4_values = [50.0] * 8 + [200.0] * 2
        v6_values = [50.0] * 8 + [100.0] * 2
        v4 = _timeline(IPVersion.V4, v4_values)
        v6 = _timeline(IPVersion.V6, v6_values)
        comparison = paired_rtt_differences(_dataset(v4, v6))
        assert comparison.within_band_fraction(10.0) == pytest.approx(0.8)
        # Median per-pair difference is 0: neither protocol "saves" 50 ms.
        assert comparison.v6_saves_fraction(50.0) == 0.0
        assert comparison.v4_saves_fraction(50.0) == 0.0

    def test_minus_ten_ms_counts_inside_the_band(self):
        v4 = _timeline(IPVersion.V4, [50.0, 60.0, 70.0])
        v6 = _timeline(IPVersion.V6, [60.0, 60.0, 60.0])
        comparison = paired_rtt_differences(_dataset(v4, v6))
        assert comparison.all_diffs.values.tolist() == [-10.0, 0.0, 10.0]
        assert comparison.within_band_fraction(10.0) == 1.0

    def test_v6_saves_counted_per_pair(self):
        v4 = _timeline(IPVersion.V4, [150.0] * 4)
        v6 = _timeline(IPVersion.V6, [50.0] * 4)
        comparison = paired_rtt_differences(_dataset(v4, v6))
        assert comparison.v6_saves_fraction(50.0) == 1.0
        assert comparison.v4_saves_fraction(50.0) == 0.0

    def test_empty_dataset(self):
        grid = CampaignGrid(0.0, 3.0, 1)
        comparison = paired_rtt_differences(LongTermDataset(grid=grid))
        assert comparison.paired_samples == 0
        assert np.isnan(comparison.within_band_fraction())


def _reference_populations(dataset):
    """Figure 10a's populations, gathered piece by piece per pair."""
    all_pieces, same_pieces = [], []
    for src, dst in dataset.pairs():
        v4 = dataset.timelines.get((src, dst, IPVersion.V4))
        v6 = dataset.timelines.get((src, dst, IPVersion.V6))
        if v4 is None or v6 is None:
            continue
        both = (v4.usable_mask() & v6.usable_mask()
                & np.isfinite(v4.rtt_ms) & np.isfinite(v6.rtt_ms))
        diffs = (v4.rtt_ms[both] - v6.rtt_ms[both]).astype(float)
        all_pieces.append(diffs)
        same = np.array([
            v4.paths[i] == v6.paths[j]
            for i, j in zip(v4.path_id[both], v6.path_id[both])
        ], dtype=bool)
        same_pieces.append(diffs[same])
    return np.sort(np.concatenate(all_pieces)), np.sort(np.concatenate(same_pieces))


class TestOnPlatform:
    def test_populations_match_piecewise_reference(self, longterm):
        comparison = paired_rtt_differences(longterm)
        all_values, same_values = _reference_populations(longterm)
        # The populations are float32; widened, they are the reference.
        for ecdf, reference in ((comparison.all_diffs, all_values),
                                (comparison.same_path_diffs, same_values)):
            assert ecdf.values.dtype == np.float32
            assert ecdf.values.astype(np.float64).tobytes() == reference.tobytes()
        assert comparison.paired_samples == all_values.size
        assert comparison.same_path_samples == same_values.size
        assert 0 < same_values.size < all_values.size

    def test_traced_peak_within_three_population_buffers(self, longterm):
        # A first call fills the timelines' usable-sample memos and numpy's
        # lazy imports; neither is a transient of this function.
        paired = paired_rtt_differences(longterm).paired_samples
        tracemalloc.start()
        try:
            paired_rtt_differences(longterm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 4 * paired

    def test_reading_a_population_peaks_at_one_buffer(self, longterm):
        comparison = paired_rtt_differences(longterm)
        for size, read in (
            (comparison.paired_samples, lambda: comparison.all_diffs),
            (comparison.same_path_samples, lambda: comparison.same_path_diffs),
        ):
            tracemalloc.start()
            try:
                assert len(read()) == size
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # One float32 buffer, sorted in place, plus one pair's pieces
            # over the grid: differences, masks, int64 path-id indexes.
            assert peak <= 4 * size + 32 * longterm.grid.rounds
