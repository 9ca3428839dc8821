"""Tests for the short-term ping and traceroute dataset builders."""

import numpy as np
import pytest

from repro.datasets.shortterm import (
    ShortTermConfig,
    build_shortterm_ping_dataset,
    build_shortterm_trace_dataset,
)
from repro.net.ip import IPVersion


class TestPingDataset:
    def test_grid(self, ping_dataset):
        assert ping_dataset.grid.period_hours == 0.25
        assert ping_dataset.grid.rounds == 672

    def test_timeline_per_pair_and_protocol(self, platform, ping_dataset):
        pairs = platform.server_pairs()
        v4_count = sum(
            1 for key in ping_dataset.timelines if key[2] is IPVersion.V4
        )
        assert v4_count == len(pairs)

    def test_mostly_answered(self, ping_dataset):
        timeline = next(iter(ping_dataset.timelines.values()))
        assert timeline.valid_count() >= 600  # the paper's inclusion bar

    def test_window_must_fit(self, platform):
        with pytest.raises(ValueError):
            build_shortterm_ping_dataset(
                platform, ShortTermConfig(ping_days=10_000)
            )


class TestTraceDataset:
    def test_entries_have_hop_matrices(self, trace_dataset):
        for entry in trace_dataset.entries.values():
            assert entry.hop_rtt_ms.shape == (
                entry.n_hops,
                entry.times_hours.size,
            )
            assert len(entry.hop_addresses) == entry.n_hops
            assert len(entry.segment_keys) == entry.n_hops

    def test_destination_row_always_answers(self, trace_dataset):
        for entry in trace_dataset.entries.values():
            if not entry.static_path:
                continue
            last_row = entry.hop_rtt_ms[-1]
            assert np.isfinite(last_row).all()

    def test_e2e_matches_last_hop(self, trace_dataset):
        for entry in trace_dataset.entries.values():
            if not entry.static_path:
                continue
            assert np.allclose(
                entry.rtt_ms, entry.hop_rtt_ms[-1], equal_nan=True
            )

    def test_hop_rows_mostly_monotone_in_baseline(self, trace_dataset):
        import warnings

        for entry in list(trace_dataset.entries.values())[:5]:
            with warnings.catch_warnings():
                # Never-responding hops leave all-NaN rows; that is expected.
                warnings.simplefilter("ignore", RuntimeWarning)
                medians = np.nanmedian(entry.hop_rtt_ms, axis=1)
            finite = medians[np.isfinite(medians)]
            if finite.size >= 2:
                assert finite[-1] >= finite[0]

    def test_explicit_pairs(self, platform):
        pairs = platform.server_pairs()[:2]
        dataset = build_shortterm_trace_dataset(
            platform, pairs, ShortTermConfig(trace_days=5.0)
        )
        built_pairs = {(entry.src_server_id, entry.dst_server_id)
                       for entry in dataset.entries.values()}
        assert built_pairs <= {(s.server_id, d.server_id) for s, d in pairs}

    def test_window_must_fit(self, platform):
        with pytest.raises(ValueError):
            build_shortterm_trace_dataset(
                platform, [], ShortTermConfig(trace_days=10_000)
            )


@pytest.mark.parametrize("name, field", [
    ("ping_dataset", "timelines"), ("trace_dataset", "entries"),
])
def test_keys_read_in_pair_order_whatever_the_insertion_order(request, name, field):
    dataset = request.getfixturevalue(name)
    held = getattr(dataset, field)
    assert held
    reversed_dataset = type(dataset)(
        dataset.grid, {key: held[key] for key in reversed(list(held))})
    for version in IPVersion:
        pairs = [entry.pair for entry in reversed_dataset.by_version(version)]
        assert pairs == sorted(pairs)
        assert pairs == [entry.pair for entry in dataset.by_version(version)]
