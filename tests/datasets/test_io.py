"""Tests for dataset persistence."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.io import _key_token, load_longterm, save_longterm
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


class TestCandidateColumns:
    def test_cand_arrays_round_trip_byte_identical(self, platform, tmp_path):
        from repro.datasets.io import iter_longterm

        pairs = platform.server_pairs(dual_stack_only=True)[:2]
        dataset = build_longterm_dataset(platform, LongTermConfig(days=10), pairs=pairs)
        path = tmp_path / "longterm.npz"
        save_longterm(dataset, path)
        with np.load(path) as archive:
            saved = {name: archive[name] for name in archive.files if name.startswith("cand_")}
        assert len(saved) == len(dataset.timelines)
        for key, timeline in dataset.timelines.items():
            array = saved[f"cand_{_key_token(*key)}"]
            assert array.dtype == np.int8
            assert array.tobytes() == timeline.true_candidate.tobytes()

        streamed = list(iter_longterm(path))
        for timeline in streamed:
            key = (timeline.src_server_id, timeline.dst_server_id, timeline.version)
            fresh = dataset.timelines[key]
            assert timeline.true_candidate.dtype == np.int8
            assert timeline.true_candidate.tobytes() == fresh.true_candidate.tobytes()
            assert not timeline.true_candidate.flags.writeable
            for held, reference in zip(timeline.candidate_runs(), fresh.candidate_runs()):
                assert held.tobytes() == reference.tobytes()

        again = tmp_path / "again.npz"
        save_longterm(load_longterm(path), again)
        with np.load(again) as archive:
            for name, array in saved.items():
                assert archive[name].dtype == array.dtype
                assert archive[name].tobytes() == array.tobytes()


class TestOldLayout:
    @pytest.mark.parametrize("wide", [np.int16, np.int32])
    def test_archive_with_wide_id_columns_loads_compact(self, platform, tmp_path, wide):
        from repro.datasets.io import iter_longterm

        pairs = platform.server_pairs(dual_stack_only=True)[:2]
        dataset = build_longterm_dataset(platform, LongTermConfig(days=10), pairs=pairs)
        path = tmp_path / "longterm.npz"
        save_longterm(dataset, path)
        # Rewrite the archive in the layout saved before the compact
        # columns (int32 path ids) or before the width rule (int16 path
        # ids), with int16 candidates.
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        for name in arrays:
            if name.startswith("pathid_"):
                assert arrays[name].dtype == np.int8
                arrays[name] = arrays[name].astype(wide)
            elif name.startswith("cand_"):
                arrays[name] = arrays[name].astype(np.int16)
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **arrays)

        loaded = load_longterm(old)
        streamed = list(iter_longterm(old))
        assert len(streamed) == len(dataset.timelines)
        for timeline in list(loaded.timelines.values()) + streamed:
            key = (timeline.src_server_id, timeline.dst_server_id, timeline.version)
            fresh = dataset.timelines[key]
            assert timeline.path_id.dtype == np.int8
            assert timeline.true_candidate.dtype == np.int8
            assert timeline.path_id.tobytes() == fresh.path_id.tobytes()
            assert timeline.true_candidate.tobytes() == fresh.true_candidate.tobytes()


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
