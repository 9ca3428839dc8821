"""Tests for the campaign runtime: cycles, durability, drivers."""

import hashlib
import json

import pytest

from repro.obs import metrics as obs_metrics
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


class _StoppingSource:
    """A cycle source whose unit ``stop_at`` raises, so the campaign
    stops mid-cycle as a killed process would."""

    def __init__(self, source, stop_at):
        self.source = source
        self.stop_at = stop_at

    def __len__(self):
        return len(self.source)

    def unit_at(self, index):
        if index == self.stop_at:
            raise RuntimeError(f"stopped at unit {index}")
        return self.source.unit_at(index)


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

    @pytest.mark.parametrize(
        "shards, queue_units, checkpoint_every",
        [(1, 4, 1), (1, 4, 3), (1, 4, 64), (2, 1, 1), (2, 1, 2), (2, 4, 3),
         (3, 2, 2), (4, 1, 5)],
    )
    def test_results_do_not_depend_on_fanout_or_checkpoint_cadence(
        self, tmp_path, shards, queue_units, checkpoint_every
    ):
        reference = _mesh_campaign(tmp_path / "ref")
        _run_to_outcome(reference)
        campaign = _mesh_campaign(
            tmp_path / "run", shards=shards, queue_units=queue_units,
            checkpoint_every=checkpoint_every,
        )
        _run_to_outcome(campaign)
        assert (
            campaign.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )

    @pytest.mark.parametrize("cycles", [1, 2, 3, 4])
    def test_cycle_outcomes_counters_and_coverage(self, tmp_path, cycles):
        campaign = _mesh_campaign(tmp_path, cycles=cycles)
        outcomes = [campaign.run_cycle() for _ in range(cycles)]
        assert outcomes == ["completed"] * (cycles - 1) + ["finished"]
        units = MESH.blocks * cycles
        registry = obs_metrics.get_registry()
        assert registry.counter("service.units{campaign=m}").value == units
        assert registry.counter("service.cycles{campaign=m}").value == cycles
        assert registry.counter("service.records{campaign=m}").value == (
            MESH.pairs * MESH.rounds_per_cycle * cycles
        )
        assert campaign.results["completeness"] == {
            "expected": units, "delivered": units, "missing": [], "coverage": 1.0,
        }

    def test_open_ended_campaign_runs_until_the_caller_stops(self, tmp_path):
        campaign = _mesh_campaign(tmp_path, cycles=None)
        assert [campaign.run_cycle() for _ in range(3)] == ["completed"] * 3
        assert not campaign.done
        assert campaign.cycle == 3
        assert not campaign.results_path.exists()

    @pytest.mark.parametrize("checkpoint_every", [1, 2, 3, 4, 5])
    def test_checkpoints_land_every_n_units_and_at_each_cycle_end(
        self, tmp_path, checkpoint_every
    ):
        campaign = _mesh_campaign(tmp_path, checkpoint_every=checkpoint_every)
        saved = []
        save = campaign.store.save

        def recording_save(cycle, units_done, *args, **kwargs):
            saved.append((cycle, units_done))
            save(cycle, units_done, *args, **kwargs)

        campaign.store.save = recording_save
        _run_to_outcome(campaign)
        expected = []
        for cycle in range(2):
            expected += [
                (cycle, units) for units in range(1, MESH.blocks)
                if units % checkpoint_every == 0
            ]
            expected.append((cycle + 1, 0))
        assert saved == expected


class TestDurability:
    def test_restore_without_checkpoint_is_clean_start(self, tmp_path):
        campaign = _mesh_campaign(tmp_path)
        assert campaign.restore() is False
        assert (campaign.cycle, campaign.units_done) == (0, 0)

    def test_mid_cycle_drain_then_restore_is_byte_identical(self, tmp_path):
        reference = _mesh_campaign(tmp_path / "ref")
        _run_to_outcome(reference)

        campaign = _mesh_campaign(tmp_path / "live")
        build = campaign.driver.source_for_cycle
        campaign.driver.source_for_cycle = lambda cycle: _StoppingSource(build(cycle), 2)
        with pytest.raises(RuntimeError, match="stopped at unit 2"):
            campaign.run_cycle()
        assert campaign.units_done == 2  # the checkpoint_every=2 boundary

        resumed = _mesh_campaign(tmp_path / "live")
        assert resumed.restore() is True
        assert (resumed.cycle, resumed.units_done) == (0, 2)
        assert _run_to_outcome(resumed) == "finished"
        assert (
            resumed.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )

    @pytest.mark.parametrize("stop_at", [0, 1, 2, 3])
    @pytest.mark.parametrize("cycle", [0, 1])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_stop_at_any_unit_then_restore_is_byte_identical(
        self, tmp_path, shards, cycle, stop_at
    ):
        reference = _mesh_campaign(tmp_path / "ref", shards=shards)
        _run_to_outcome(reference)

        campaign = _mesh_campaign(tmp_path / "live", shards=shards)
        for _ in range(cycle):
            assert campaign.run_cycle() == "completed"
        build = campaign.driver.source_for_cycle
        campaign.driver.source_for_cycle = (
            lambda c: _StoppingSource(build(c), stop_at)
        )
        # A shard worker's failure arrives as a ShardError, itself a
        # RuntimeError carrying the worker's traceback.
        with pytest.raises(RuntimeError, match=f"stopped at unit {stop_at}"):
            campaign.run_cycle()
        assert campaign.units_done == stop_at

        # The last checkpoint is the checkpoint_every=2 boundary inside
        # the cycle, or else the end of the cycle before it.
        resume_units = 2 if stop_at >= 2 else 0
        resumed = _mesh_campaign(tmp_path / "live", shards=shards)
        assert resumed.restore() is (cycle > 0 or resume_units > 0)
        assert (resumed.cycle, resumed.units_done) == (cycle, resume_units)
        assert _run_to_outcome(resumed) == "finished"
        assert (
            resumed.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )
        assert resumed.store.path.read_bytes() == reference.store.path.read_bytes()

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
