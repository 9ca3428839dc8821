"""Tests for the artifact cache, its cached builders and their stage timings."""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from repro.harness.engine import (
    ArtifactCache,
    cached_longterm,
    cached_platform,
    config_fingerprint,
    default_cache_dir,
)
from repro.datasets.longterm import LongTermConfig
from repro.harness.scenarios import get_scenario
from repro.measurement.platform import MeasurementPlatform, PlatformConfig
from repro.net.ip import IPVersion
from repro.obs.trace import Tracer, use_tracer


def _seeded_cache(tmp_path, config):
    """A cache whose platform entry for ``config`` is a cheap stand-in."""
    cache = ArtifactCache(tmp_path)
    cache.store("platform", config_fingerprint("platform", config), "stand-in")
    return cache


def _closed_span(tracer, name, seconds):
    """A span under the current one, closed with a duration of ``seconds``."""
    with tracer.span(name) as closed:
        pass
    closed.start = closed.end - seconds


class TestTimings:
    """Stage timings are spans on the current tracer, read per root child."""

    def test_stage_context_records(self, tmp_path):
        config = PlatformConfig(seed=5)
        cache = _seeded_cache(tmp_path, config)
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("run"):
            assert cached_platform(config, cache=cache) == ("stand-in", True)
        stages = tracer.stage_seconds()
        assert list(stages) == ["platform-load"]
        assert stages["platform-load"] >= 0.0

    def test_record_and_total(self):
        from repro.__main__ import render_stage_timings

        tracer = Tracer()
        with tracer.span("run"):
            _closed_span(tracer, "a", 1.5)
            _closed_span(tracer, "b", 0.5)
        assert sum(tracer.stage_seconds().values()) == pytest.approx(2.0)
        assert render_stage_timings(tracer).splitlines()[-1].split() == [
            "total", "2.000s"
        ]

    def test_as_dict_sums_repeats(self):
        tracer = Tracer()
        with tracer.span("run"):
            _closed_span(tracer, "x", 1.0)
            _closed_span(tracer, "y", 2.0)
            _closed_span(tracer, "x", 3.0)
        stages = tracer.stage_seconds()
        assert stages == pytest.approx({"x": 4.0, "y": 2.0})
        # Insertion order of first appearance is preserved.
        assert list(stages) == ["x", "y"]

    def test_as_records_keeps_completion_order(self):
        tracer = Tracer()
        with tracer.span("run"):
            _closed_span(tracer, "x", 1.0)
            _closed_span(tracer, "x", 2.0)
        repeats = [item for item in tracer.spans if item.name == "x"]
        assert [item.duration_seconds for item in repeats] == pytest.approx([1.0, 2.0])
        assert tracer.summary()["x"] == {"count": 2, "seconds": 3.0}

    def test_render_mentions_stages_and_total(self):
        from repro.__main__ import render_stage_timings

        tracer = Tracer()
        with tracer.span("reproduce"):
            _closed_span(tracer, "topology", 0.25)
        lines = render_stage_timings(tracer).splitlines()
        assert lines[0] == "== stage timings =="
        rows = [line.split() for line in lines[3:]]  # below header and rule
        assert rows == [["topology", "0.250s"], ["total", "0.250s"]]

    def test_stage_records_on_exception(self, tmp_path, monkeypatch):
        config = PlatformConfig(seed=5)
        cache = _seeded_cache(tmp_path, config)

        def broken_load(kind, fingerprint):
            raise RuntimeError("disk gone")

        monkeypatch.setattr(cache, "load", broken_load)
        tracer = Tracer()
        with use_tracer(tracer), tracer.span("run") as root:
            with pytest.raises(RuntimeError):
                cached_platform(config, cache=cache)
            assert tracer.current() is root
        assert all(item.end is not None for item in tracer.spans)
        assert list(tracer.stage_seconds()) == ["platform-load"]


class TestFingerprint:
    def test_equal_configs_equal_fingerprint(self):
        a = PlatformConfig(seed=3, cluster_count=8)
        b = PlatformConfig(seed=3, cluster_count=8)
        assert config_fingerprint("platform", a) == config_fingerprint("platform", b)

    def test_seed_changes_fingerprint(self):
        a = PlatformConfig(seed=3)
        b = PlatformConfig(seed=4)
        assert config_fingerprint("platform", a) != config_fingerprint("platform", b)

    def test_nested_field_changes_fingerprint(self):
        a = PlatformConfig(seed=3)
        b = PlatformConfig(seed=3)
        b.congestion = dataclasses.replace(b.congestion, anchor_fraction=0.9)
        assert config_fingerprint("platform", a) != config_fingerprint("platform", b)

    def test_kind_separates_namespaces(self):
        config = PlatformConfig(seed=3)
        assert config_fingerprint("platform", config) != config_fingerprint(
            "longterm", config
        )


class TestArtifactCache:
    def test_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        payload = {"answer": 42, "array": np.arange(5)}
        cache.store("demo", "abc123", payload)
        loaded = cache.load("demo", "abc123")
        assert loaded["answer"] == 42
        assert np.array_equal(loaded["array"], payload["array"])

    def test_miss_returns_none(self, tmp_path):
        assert ArtifactCache(tmp_path).load("demo", "missing") is None

    @pytest.mark.parametrize(
        "garbage",
        [b"this is not a pickle", b"garbage\n", b"", b"\x80\x05"],
        ids=["text", "get-opcode", "empty", "truncated"],
    )
    def test_corrupt_entry_reads_as_miss_and_is_removed(self, tmp_path, garbage):
        cache = ArtifactCache(tmp_path)
        path = cache.path("demo", "bad")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(garbage)
        assert cache.load("demo", "bad") is None
        assert not path.exists()

    def test_clear_removes_entries(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store("demo", "one", 1)
        cache.store("demo", "two", 2)
        assert cache.clear() == 2
        assert cache.load("demo", "one") is None

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert default_cache_dir() == tmp_path / "elsewhere"

    def test_outcomes_are_counted(self, tmp_path):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        cache = ArtifactCache(tmp_path)
        cache.load("demo", "nothing")          # miss
        cache.store("demo", "abc", [1, 2])     # store
        cache.load("demo", "abc")              # hit
        bad = cache.path("demo", "bad")
        bad.write_bytes(b"garbage")
        cache.load("demo", "bad")              # corrupt
        counters = registry.snapshot()["counters"]
        registry.reset()
        assert counters["cache.miss"] == 1
        assert counters["cache.store"] == 1
        assert counters["cache.hit"] == 1
        assert counters["cache.corrupt"] == 1


@pytest.fixture(scope="module")
def tiny_config():
    return PlatformConfig(seed=21, cluster_count=6, duration_hours=24.0)


class TestCachedBuilders:
    def test_platform_miss_then_hit(self, tmp_path, tiny_config):
        cache = ArtifactCache(tmp_path)
        miss, hit = Tracer(), Tracer()
        with use_tracer(miss):
            built, was_hit = cached_platform(tiny_config, cache=cache)
        assert was_hit is False
        with use_tracer(hit):
            loaded, was_hit = cached_platform(tiny_config, cache=cache)
        assert was_hit is True
        assert [s.server_id for s in loaded.measurement_servers()] == [
            s.server_id for s in built.measurement_servers()
        ]
        assert [span.name for span in miss.roots()] == [
            "platform-load", "topology", "addressing", "routers", "cdn",
            "routing", "dynamics", "congestion", "platform-store",
        ]
        assert [span.name for span in hit.roots()] == ["platform-load"]

    def test_longterm_miss_then_hit_bit_identical(self, tmp_path, tiny_config):
        cache = ArtifactCache(tmp_path)
        platform, _ = cached_platform(tiny_config, cache=cache)
        config = LongTermConfig(days=1.0)
        built, hit = cached_longterm(
            tiny_config, config, platform=platform, cache=cache
        )
        assert hit is False
        loaded, hit2 = cached_longterm(tiny_config, config, cache=cache)
        assert hit2 is True
        assert list(built.timelines) == list(loaded.timelines)
        for key, expected in built.timelines.items():
            actual = loaded.timelines[key]
            assert np.array_equal(expected.rtt_ms, actual.rtt_ms, equal_nan=True)
            assert np.array_equal(expected.path_id, actual.path_id)
            assert expected.paths == actual.paths

    def test_unpickled_platform_realizes_every_candidate_identically(self, tmp_path):
        config = get_scenario("default").platform_config(0)
        cache = ArtifactCache(tmp_path)
        built, _ = cached_platform(config, cache=cache)
        loaded, hit = cached_platform(config, cache=cache)
        assert hit is True
        # The pickle carries the AS-step memo the build filled.
        assert loaded._steps.keys() == built._steps.keys()
        realized = 0
        for src, dst in built.server_pairs():
            for version in (IPVersion.V4, IPVersion.V6):
                for index in range(len(built.candidates(src.asn, dst.asn, version))):
                    want = built.realization(src, dst, version, index)
                    assert loaded.realization(src, dst, version, index) == want
                    realized += want is not None
        assert realized > 1000

    def test_platform_pickled_without_step_memo_loads_with_an_empty_one(
        self, tiny_config
    ):
        built = MeasurementPlatform(tiny_config)
        old_layout = object.__new__(MeasurementPlatform)
        old_layout.__dict__.update(
            {name: value for name, value in vars(built).items() if name != "_steps"}
        )
        loaded = pickle.loads(pickle.dumps(old_layout))
        assert loaded._steps == {}
        for src, dst in built.server_pairs():
            for version in (IPVersion.V4, IPVersion.V6):
                for index in range(len(built.candidates(src.asn, dst.asn, version))):
                    assert loaded.realization(src, dst, version, index) == (
                        built.realization(src, dst, version, index))
        assert loaded._steps

    def test_refresh_forces_rebuild(self, tmp_path, tiny_config):
        cache = ArtifactCache(tmp_path)
        cached_platform(tiny_config, cache=cache)
        _, hit = cached_platform(tiny_config, cache=cache, refresh=True)
        assert hit is False
