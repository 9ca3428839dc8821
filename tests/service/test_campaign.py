"""Tests for the campaign runtime: cycles, gates, durability, drivers."""

import hashlib
import json

import pytest

from repro.service.campaign import Campaign, driver_for
from repro.service.config import CampaignConfig
from repro.stream.mesh import MeshConfig

MESH = MeshConfig(pairs=512, block_pairs=128)  # 4 units per cycle


def _mesh_campaign(tmp_path, name="m", **overrides):
    fields = dict(
        name=name, kind="mesh", cycles=2, rounds_per_cycle=8,
        checkpoint_every=2, mesh=MESH,
    )
    fields.update(overrides)
    config = CampaignConfig(**fields)
    return Campaign(config, driver_for(config), tmp_path)


def _run_to_outcome(campaign, limit=20):
    for _ in range(limit):
        outcome = campaign.run_cycle()
        if outcome != "completed":
            return outcome
    raise AssertionError("campaign never finished")


class TestMeshCampaignLifecycle:
    def test_runs_to_finished_and_writes_results(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        assert campaign.run_cycle() == "completed"
        assert campaign.cycle == 1
        assert campaign.run_cycle() == "finished"
        assert campaign.done
        assert campaign.results["cycles"] == 2
        assert campaign.results["samples"] == 512 * 8 * 2
        on_disk = json.loads(campaign.results_path.read_text())
        assert on_disk == campaign.results

    def test_finished_campaign_skips(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        _run_to_outcome(campaign)
        assert campaign.run_cycle() == "skipped"

    def test_results_deterministic(self, tmp_path):
        a = _mesh_campaign(tmp_path / "a")
        b = _mesh_campaign(tmp_path / "b")
        _run_to_outcome(a)
        _run_to_outcome(b)
        assert a.results_path.read_bytes() == b.results_path.read_bytes()

    def test_sharded_matches_single_shard(self, tmp_path):
        single = _mesh_campaign(tmp_path / "one")
        sharded = _mesh_campaign(tmp_path / "two", shards=2)
        _run_to_outcome(single)
        _run_to_outcome(sharded)
        assert single.results_path.read_bytes() == sharded.results_path.read_bytes()


class TestGates:
    def test_drain_before_cycle_checkpoints_immediately(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        campaign.request_drain()
        assert campaign.run_cycle() == "drained"
        assert campaign.store.load() is not None
        assert campaign.state == "drained"

    def test_drain_wins_over_pause(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        campaign.pause()
        campaign.request_drain()
        assert campaign.run_cycle() == "drained"  # must not hang on the gate

    def test_pause_resume_flips_board_state(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        campaign.pause()
        assert campaign.paused
        assert campaign.state == "paused"
        campaign.resume()
        assert not campaign.paused
        assert campaign.state == "idle"


class TestDurability:
    def test_restore_without_checkpoint_is_clean_start(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        assert campaign.restore() is False
        assert (campaign.cycle, campaign.units_done) == (0, 0)

    def test_mid_cycle_drain_then_restore_is_byte_identical(self, tmp_path):
        reference = _mesh_campaign(tmp_path / "ref")
        _run_to_outcome(reference)

        campaign = _mesh_campaign(tmp_path / "live")
        gate = campaign._wait_gate
        calls = {"n": 0}

        def draining_gate():
            calls["n"] += 1
            if calls["n"] == 3:  # two units in: drain mid-cycle
                campaign.request_drain()
            return gate()

        campaign._wait_gate = draining_gate
        assert campaign.run_cycle() == "drained"
        assert campaign.units_done == 2

        resumed = _mesh_campaign(tmp_path / "live")
        assert resumed.restore() is True
        assert (resumed.cycle, resumed.units_done) == (0, 2)
        assert _run_to_outcome(resumed) == "finished"
        assert (
            resumed.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )

    def test_restore_of_finished_campaign_serves_results(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        _run_to_outcome(campaign)
        resumed = _mesh_campaign(tmp_path)
        assert resumed.restore() is True
        assert resumed.done
        assert resumed.results == campaign.results

    def test_config_change_orphans_checkpoint(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        campaign.run_cycle()
        changed = _mesh_campaign(tmp_path, checkpoint_every=3)
        assert changed.restore() is False


# A mesh campaign whose unit count (40 per cycle) is not a multiple of
# the shard count times any small batch size, with a mid-cycle
# checkpoint at ``units_done == checkpoint_every``.
PIN_MESH = MeshConfig(pairs=5000, block_pairs=128, rounds_per_cycle=8, seed=3)


class TestBitIdentityPins:
    """sha256 of checkpoint and results bytes, recorded before the
    mesh fold moved into the shards and the shard wire was batched:
    where a block is folded and how units travel must not change a bit
    of either."""

    @pytest.mark.parametrize(
        "shards, checkpoint_sha",
        [
            (1, "0b6c089a045192f81a2874482c68d05bd80db2060c4787da9a571e0ef492c8b0"),
            (2, "a1e0d134299b8ef83885acdfe1655a9ab23e9ae1510db70725da0b73cb06d9aa"),
        ],
    )
    def test_checkpoint_and_results_bytes(self, tmp_path, shards, checkpoint_sha):
        config = CampaignConfig(
            name="pin", kind="mesh", cycles=2, rounds_per_cycle=8,
            checkpoint_every=16, shards=shards, queue_units=2, mesh=PIN_MESH,
        )
        campaign = Campaign(config, driver_for(config), tmp_path)
        saved = {}
        save = campaign.store.save

        def recording_save(cycle, units_done, *args, **kwargs):
            save(cycle, units_done, *args, **kwargs)
            body = campaign.store.path.read_bytes()
            saved.setdefault((cycle, units_done), hashlib.sha256(body).hexdigest())

        campaign.store.save = recording_save
        assert _run_to_outcome(campaign) == "finished"
        assert saved[(0, 16)] == checkpoint_sha
        results = hashlib.sha256(campaign.results_path.read_bytes()).hexdigest()
        assert results == (
            "5e344d760dac914afaab7d3a17729761d4ea48241813ad8623ea9752151db431"
        )
