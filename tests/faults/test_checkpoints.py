"""Hardening tests for the campaign checkpoint store.

The store must survive corruption (fall back to the previous
generation), injected corruption from the fault plane, and stale temp
files left by dead writers -- and count every recovery.
"""

import os

from repro.faults.plane import FaultsConfig, install
from repro.obs.metrics import get_registry
from repro.service.checkpoint import CampaignCheckpointStore, campaign_fingerprint
from repro.service.config import CampaignConfig
from repro.stream.snapshot import corrupt_file, fallback_path


class TestCampaignStoreHardening:
    def _store(self, tmp_path, name="mesh"):
        return CampaignCheckpointStore(tmp_path, name, "f" * 8)

    def test_second_save_rotates_a_fallback(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 0, None)
        assert not fallback_path(store.path).exists()
        store.save(2, 0, None)
        assert fallback_path(store.path).exists()

    def test_corrupt_primary_recovers_previous_generation(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 4, {"gen": 1})
        store.save(2, 0, {"gen": 2})
        corrupt_file(store.path)
        payload = store.load()
        assert payload is not None
        assert (payload["cycle"], payload["operator"]) == (1, {"gen": 1})
        registry = get_registry()
        counter = registry.counter(
            "service.checkpoint.recovered{campaign=mesh}"
        )
        assert counter.value == 1

    def test_both_generations_corrupt_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 0, None)
        store.save(2, 0, None)
        corrupt_file(store.path)
        corrupt_file(fallback_path(store.path), "garble")
        assert store.load() is None

    def test_plane_injects_corruption_on_targeted_save(self, tmp_path):
        install(FaultsConfig(seed=1, corrupt_saves=(1,)))
        store = self._store(tmp_path)
        store.save(1, 0, {"gen": 1})  # save 0: clean
        store.save(2, 0, {"gen": 2})  # save 1: corrupted
        registry = get_registry()
        assert registry.counter("faults.injected{kind=corrupt}").value == 1
        payload = store.load()  # falls back to generation 1
        assert payload["operator"] == {"gen": 1}
        counter = registry.counter(
            "service.checkpoint.recovered{campaign=mesh}"
        )
        assert counter.value == 1

    def test_plane_targets_one_store_by_tag(self, tmp_path):
        # corrupt_saves ordinals are per store; each store counts its own
        # saves, so ordinal 0 hits both stores' first save independently.
        install(FaultsConfig(seed=1, corrupt_saves=(0,)))
        store = self._store(tmp_path)
        store.save(1, 0, None)
        registry = get_registry()
        assert registry.counter("faults.injected{kind=corrupt}").value == 1
        assert store.load() is None  # no previous generation to serve

    def test_open_reaps_dead_writer_temps(self, tmp_path):
        stale = tmp_path / f"campaign-mesh-{'f' * 8}.ckpt.tmp.999999"
        stale.write_bytes(b"torn write")
        self._store(tmp_path)
        assert not stale.exists()
        registry = get_registry()
        counter = registry.counter(
            "service.checkpoint.temps_reaped{campaign=mesh}"
        )
        assert counter.value == 1

    def test_completeness_rides_the_snapshot(self, tmp_path):
        store = self._store(tmp_path)
        state = {"delivered": 3, "missing": []}
        store.save(0, 3, None, completeness=state)
        assert store.load()["completeness"] == state

    def test_clear_removes_fallback_generation(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 0, None)
        store.save(2, 0, None)
        store.clear()
        assert not store.path.exists()
        assert not fallback_path(store.path).exists()


class TestStreamStoreHardening:
    """The store of a stream-fed ``trace`` campaign, keyed like the service keys it."""

    def _store(self, tmp_path):
        fingerprint = campaign_fingerprint(CampaignConfig(name="trace", kind="trace"))
        return CampaignCheckpointStore(tmp_path, "trace", fingerprint)

    def test_corrupt_primary_recovers_previous_generation(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 5, {"gen": 1})
        store.save(2, 0, {"gen": 2})
        corrupt_file(store.path, "garble")
        payload = store.load()
        assert payload is not None
        assert payload["units_done"] == 5
        assert payload["operator"] == {"gen": 1}
        registry = get_registry()
        assert registry.counter("service.checkpoint.corrupt").value == 1
        recovered = registry.counter("service.checkpoint.recovered{campaign=trace}")
        assert recovered.value == 1

    def test_open_reaps_dead_writer_temps(self, tmp_path):
        stem = self._store(tmp_path).path.stem
        stale = tmp_path / f"{stem}.ckpt.tmp.999999"
        legacy = tmp_path / f"{stem}.tmp.999999"
        live = tmp_path / f"{stem}.ckpt.tmp.{os.getpid()}"
        for temp in (stale, legacy, live):
            temp.write_bytes(b"torn write")
        self._store(tmp_path)
        assert not stale.exists() and not legacy.exists()
        assert live.exists()  # a live writer is never raced
        registry = get_registry()
        reaped = registry.counter("service.checkpoint.temps_reaped{campaign=trace}")
        assert reaped.value == 2

    def test_clear_removes_fallback_generation(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 0, None)
        store.save(2, 0, None)
        stale = tmp_path / f"{store.path.name}.tmp.999999"
        stale.write_bytes(b"torn write")
        store.clear()
        assert sorted(tmp_path.iterdir()) == []
        assert store.load() is None
