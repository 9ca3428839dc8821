"""Tests for dataset persistence."""

import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.datasets.io import load_longterm, save_longterm
from repro.datasets.longterm import LongTermConfig, build_longterm_dataset


class TestRoundtrip:
    def test_save_load_identical(self, platform, tmp_path):
        pairs = platform.server_pairs(dual_stack_only=True)[:2]
        dataset = build_longterm_dataset(platform, LongTermConfig(days=10), pairs=pairs)
        path = tmp_path / "longterm.npz"
        save_longterm(dataset, path)
        loaded = load_longterm(path)

        assert loaded.grid.rounds == dataset.grid.rounds
        assert loaded.grid.period_hours == dataset.grid.period_hours
        assert set(loaded.timelines) == set(dataset.timelines)
        for key, timeline in dataset.timelines.items():
            other = loaded.timelines[key]
            assert np.allclose(timeline.rtt_ms, other.rtt_ms, equal_nan=True)
            assert np.array_equal(timeline.outcome, other.outcome)
            assert np.array_equal(timeline.path_id, other.path_id)
            assert np.array_equal(timeline.true_candidate, other.true_candidate)
            assert [tuple(p) for p in timeline.paths] == [tuple(p) for p in other.paths]

    def test_loaded_dataset_supports_analysis(self, platform, tmp_path):
        from repro.core.routechange import analyze_timeline

        pairs = platform.server_pairs(dual_stack_only=True)[:1]
        dataset = build_longterm_dataset(platform, LongTermConfig(days=10), pairs=pairs)
        path = tmp_path / "roundtrip.npz"
        save_longterm(dataset, path)
        loaded = load_longterm(path)
        for timeline in loaded.timelines.values():
            stats = analyze_timeline(timeline)
            assert stats.unique_paths >= 0


class TestIterLongterm:
    def test_streams_same_timelines_as_load(self, platform, tmp_path):
        from repro.datasets.io import iter_longterm

        pairs = platform.server_pairs(dual_stack_only=True)[:2]
        dataset = build_longterm_dataset(platform, LongTermConfig(days=10), pairs=pairs)
        path = tmp_path / "longterm.npz"
        save_longterm(dataset, path)

        streamed = {}
        for timeline in iter_longterm(path):
            key = (timeline.src_server_id, timeline.dst_server_id, timeline.version)
            streamed[key] = timeline
        loaded = load_longterm(path)
        assert set(streamed) == set(loaded.timelines)
        for key, timeline in loaded.timelines.items():
            other = streamed[key]
            assert np.array_equal(timeline.rtt_ms, other.rtt_ms, equal_nan=True)
            assert np.array_equal(timeline.outcome, other.outcome)
            assert np.array_equal(timeline.path_id, other.path_id)
            assert timeline.paths == other.paths

    def test_is_lazy(self, platform, tmp_path):
        from repro.datasets.io import iter_longterm

        pairs = platform.server_pairs(dual_stack_only=True)[:2]
        dataset = build_longterm_dataset(platform, LongTermConfig(days=10), pairs=pairs)
        path = tmp_path / "longterm.npz"
        save_longterm(dataset, path)
        iterator = iter_longterm(path)
        first = next(iterator)
        assert first.rtt_ms.size == dataset.grid.rounds
        iterator.close()  # closing early must release the archive cleanly


class TestPingRoundtrip:
    def test_save_load_pings(self, platform, tmp_path):
        import numpy as np

        from repro.datasets.io import load_pings, save_pings
        from repro.datasets.shortterm import (
            ShortTermConfig,
            build_shortterm_ping_dataset,
        )

        pairs = platform.server_pairs()[:3]
        dataset = build_shortterm_ping_dataset(
            platform, ShortTermConfig(ping_days=2.0), pairs=pairs
        )
        path = tmp_path / "pings.npz"
        save_pings(dataset, path)
        loaded = load_pings(path)
        assert set(loaded.timelines) == set(dataset.timelines)
        for key, timeline in dataset.timelines.items():
            assert np.allclose(
                timeline.rtt_ms, loaded.timelines[key].rtt_ms, equal_nan=True
            )
        assert loaded.grid.period_hours == dataset.grid.period_hours


class TestLayering:
    def test_dataset_layer_imports_no_stream_module(self):
        # The dataset layer sits below the stream package: importing it,
        # persistence included, must not pull any of repro.stream in.
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys, repro.datasets, repro.datasets.io; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.stream')))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.stdout.strip() == "[]"
