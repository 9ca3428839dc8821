"""Tests for the campaign checkpoint store."""

import dataclasses

import pytest

from repro.stream.mesh import MeshConfig
from repro.stream.snapshot import fallback_path, read_snapshot, write_snapshot

from repro.service import checkpoint
from repro.service.checkpoint import (
    CAMPAIGN_CHECKPOINT_SCHEMA,
    CampaignCheckpointStore,
    campaign_fingerprint,
)
from repro.service.campaign import Campaign, driver_for
from repro.service.config import CampaignConfig
from tests.pickled_layout import pickled_layout

# One changed value for every config field the fingerprint must cover;
# ``kind`` and ``retry`` each have a single legal value.
CAMPAIGN_CHANGES = {
    "name": "other",
    "cadence_s": 60.0,
    "rounds_per_cycle": 4,
    "cycles": 3,
    "shards": 2,
    "queue_units": 8,
    "checkpoint_every": 16,
    "mesh": MeshConfig(pairs=1000),
}

# The same for the mesh a campaign carries; its ``rounds_per_cycle``
# must equal the campaign's, which CAMPAIGN_CHANGES already varies.
MESH_CHANGES = {
    "pairs": 2000,
    "block_pairs": 512,
    "cadence_hours": 0.5,
    "seed": 1,
    "base_rtt_ms": 11.0,
    "spread_rtt_ms": 170.0,
    "jitter_ms": 3.0,
    "diurnal_ms": 7.0,
    "congested_fraction": 0.3,
    "loss_rate": 0.02,
}


class TestCampaignFingerprint:
    def test_stable_for_equal_configs(self):
        a = campaign_fingerprint(CampaignConfig(name="m"))
        b = campaign_fingerprint(CampaignConfig(name="m"))
        assert a == b

    def test_changes_with_any_knob(self):
        base = campaign_fingerprint(CampaignConfig(name="m"))
        assert base != campaign_fingerprint(CampaignConfig(name="m", shards=2))
        assert base != campaign_fingerprint(
            CampaignConfig(name="m", rounds_per_cycle=4)
        )
        assert base != campaign_fingerprint(CampaignConfig(name="other"))

    def test_every_field_with_two_legal_values_is_varied(self):
        fields = {f.name for f in dataclasses.fields(CampaignConfig)}
        assert fields - set(CAMPAIGN_CHANGES) == {"kind", "retry"}
        mesh_fields = {f.name for f in dataclasses.fields(MeshConfig)}
        assert mesh_fields - set(MESH_CHANGES) == {"rounds_per_cycle"}

    @pytest.mark.parametrize("field", sorted(CAMPAIGN_CHANGES))
    def test_changes_with_each_field(self, field):
        base = CampaignConfig(name="m")
        changed = dataclasses.replace(base, **{field: CAMPAIGN_CHANGES[field]})
        assert campaign_fingerprint(base) != campaign_fingerprint(changed)

    @pytest.mark.parametrize("field", sorted(MESH_CHANGES))
    def test_changes_with_each_mesh_field(self, field):
        mesh = MeshConfig(pairs=1000)
        base = CampaignConfig(name="m", mesh=mesh)
        changed = CampaignConfig(
            name="m", mesh=dataclasses.replace(mesh, **{field: MESH_CHANGES[field]})
        )
        assert campaign_fingerprint(base) != campaign_fingerprint(changed)

    def test_changes_with_the_checkpoint_schema(self, monkeypatch):
        config = CampaignConfig(name="m")
        base = campaign_fingerprint(config)
        monkeypatch.setattr(
            checkpoint, "CAMPAIGN_CHECKPOINT_SCHEMA", CAMPAIGN_CHECKPOINT_SCHEMA + 1
        )
        assert campaign_fingerprint(config) != base


class TestCampaignCheckpointStore:
    def _store(self, tmp_path, fingerprint="f" * 8):
        return CampaignCheckpointStore(tmp_path, "mesh", fingerprint)

    def test_roundtrip(self, tmp_path):
        store = self._store(tmp_path)
        store.save(3, 17, {"acc": 42})
        payload = store.load()
        assert payload["schema"] == CAMPAIGN_CHECKPOINT_SCHEMA
        assert payload["cycle"] == 3
        assert payload["units_done"] == 17
        assert payload["operator"] == {"acc": 42}
        assert payload["results"] is None

    def test_final_snapshot_carries_results(self, tmp_path):
        store = self._store(tmp_path)
        store.save(5, 0, {"acc": 1}, results={"samples": 9})
        assert store.load()["results"] == {"samples": 9}

    def test_missing_is_a_miss(self, tmp_path):
        assert self._store(tmp_path).load() is None

    def test_corrupt_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 0, None)
        store.path.write_bytes(b"not a pickle")
        assert store.load() is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 0, None)
        payload = read_snapshot(store.path)
        payload["schema"] = CAMPAIGN_CHECKPOINT_SCHEMA + 1
        write_snapshot(store.path, payload)
        assert store.load() is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        self._store(tmp_path, "old").save(2, 4, None)
        old = CampaignCheckpointStore(tmp_path, "mesh", "old")
        new = CampaignCheckpointStore(tmp_path, "mesh", "new")
        assert old.load() is not None
        assert new.load() is None  # different path entirely

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 1, None)
        store.save(2, 2, None)
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_clear(self, tmp_path):
        store = self._store(tmp_path)
        store.save(1, 0, None)
        store.clear()
        assert store.load() is None
        store.clear()  # idempotent

    def test_path_names_the_campaign_and_its_fingerprint(self, tmp_path):
        store = CampaignCheckpointStore(tmp_path / "ckpt", "mesh-1", "abc123")
        assert store.path == tmp_path / "ckpt" / "campaign-mesh-1-abc123.ckpt"

    def test_payload_names_its_campaign_and_fingerprint(self, tmp_path):
        store = self._store(tmp_path)
        store.save(0, 1, None)
        payload = read_snapshot(store.path)
        assert (payload["campaign"], payload["fingerprint"]) == ("mesh", "f" * 8)

    @pytest.mark.parametrize("saves", [1, 2, 3, 5])
    def test_load_serves_the_last_save_and_keeps_the_one_before(
        self, tmp_path, saves
    ):
        store = self._store(tmp_path)
        for cycle in range(1, saves + 1):
            store.save(cycle, 0, {"gen": cycle})
        payload = store.load()
        assert (payload["cycle"], payload["operator"]) == (saves, {"gen": saves})
        fallback = fallback_path(store.path)
        if saves == 1:
            assert not fallback.exists()
        else:
            assert read_snapshot(fallback)["cycle"] == saves - 1

    def test_campaigns_sharing_a_directory_keep_their_own_snapshots(self, tmp_path):
        first = CampaignCheckpointStore(tmp_path, "a", "f" * 8)
        second = CampaignCheckpointStore(tmp_path, "b", "f" * 8)
        first.save(1, 2, {"who": "a"})
        second.save(3, 4, {"who": "b"})
        assert first.load()["operator"] == {"who": "a"}
        assert second.load()["operator"] == {"who": "b"}
        first.clear()
        assert first.load() is None
        assert second.load()["cycle"] == 3


# What a campaign checkpoint pickles at this layout version: the payload's
# keys, the keys of its completeness state and, class by class, what the
# operator it carries whole pickles.  A change to any of it must bump
# CAMPAIGN_CHECKPOINT_SCHEMA: a resume has no compatibility branch, so an
# older snapshot read under the same version would load into a
# half-filled operator instead of reading as a miss.
CHECKPOINT_LAYOUT_VERSION = 2
CHECKPOINT_PAYLOAD = (
    "campaign", "completeness", "cycle", "fingerprint", "operator", "results",
    "schema", "units_done",
)
CHECKPOINT_COMPLETENESS = ("delivered", "missing")
CHECKPOINT_CLASSES = {
    "repro.stream.mesh.MeshStatsOperator": (
        "lost", "pair_rows", "rtt_max", "rtt_min", "rtt_sq_sum", "rtt_sum", "samples",
        "spread_bin_ms", "spread_counts", "spread_exceeds", "spread_max_ms",
        "spread_threshold_ms",
    ),
}


def test_checkpoint_layout_is_pinned_to_the_schema_version(tmp_path):
    config = CampaignConfig(
        name="layout", cycles=2, rounds_per_cycle=8,
        mesh=MeshConfig(pairs=256, block_pairs=128),
    )
    campaign = Campaign(config, driver_for(config), tmp_path)
    assert campaign.run_cycle() == "completed"
    payload = campaign.store.load()
    layout = (
        CAMPAIGN_CHECKPOINT_SCHEMA,
        tuple(sorted(payload)),
        tuple(sorted(payload["completeness"])),
        pickled_layout(payload),
    )
    assert layout == (
        CHECKPOINT_LAYOUT_VERSION, CHECKPOINT_PAYLOAD, CHECKPOINT_COMPLETENESS,
        CHECKPOINT_CLASSES,
    ), (
        "a campaign checkpoint changed what it pickles: bump "
        "CAMPAIGN_CHECKPOINT_SCHEMA and re-pin CHECKPOINT_LAYOUT_VERSION, "
        "CHECKPOINT_PAYLOAD, CHECKPOINT_COMPLETENESS and CHECKPOINT_CLASSES"
    )
    # The accountant is checkpointed through its state dict, so every
    # field it holds must be one of the dict's pinned keys.
    held = tuple(sorted(name.lstrip("_") for name in vars(campaign.completeness)))
    assert held == CHECKPOINT_COMPLETENESS, (
        "DataCompleteness holds a field its checkpoint state leaves out"
    )
