"""Chaos harness: seeded faults must not change final figures.

The acceptance bar for the fault plane is byte-identity: a campaign run
under a seeded fault schedule, at any worker count, must produce final
results byte-identical to the fault-free run whenever completeness
reaches 100% after retries — and an exact machine-readable deficit
otherwise.
"""

import json

import pytest

from repro.faults.plane import FaultsConfig, SupervisionPolicy, install, uninstall
from repro.obs.metrics import get_registry
from repro.service.campaign import Campaign, driver_for
from repro.service.config import CampaignConfig
from repro.stream.mesh import MeshConfig

MESH = MeshConfig(pairs=2048, block_pairs=128)  # 16 units per cycle

# Aggressive supervision so the chaos tests stay fast: short stall
# timeout, near-zero backoff, generous retry budget.
QUICK = SupervisionPolicy(
    stall_timeout_s=0.6,
    poll_s=0.02,
    max_restarts=3,
    restart_backoff_s=0.01,
    backoff_ceiling_s=0.05,
    unit_attempts=2,
)

# One of each recoverable fault, aimed at specific units: a worker
# crash on unit 3, a stall longer than the stall timeout on unit 5,
# and a transient build exception on unit 7.
RECOVERABLE = FaultsConfig(
    seed=7,
    crash_units=(3,),
    stall_units=(5,),
    stall_s=1.5,
    transient_units=(7,),
)


def _campaign(tmp_path, name="mesh", supervision=None, **overrides):
    fields = dict(
        name=name, kind="mesh", cycles=1, rounds_per_cycle=8,
        checkpoint_every=4, mesh=MESH,
    )
    fields.update(overrides)
    config = CampaignConfig(**fields)
    return Campaign(config, driver_for(config), tmp_path, supervision=supervision)


def _run_to_completion(campaign, limit=20):
    for _ in range(limit):
        if campaign.run_cycle() in ("finished", "skipped"):
            return campaign.results_path.read_bytes()
    raise AssertionError("campaign never finished")


def _reference(tmp_path, **overrides):
    """Fault-free, unsupervised run: the byte-identity baseline."""
    return _run_to_completion(_campaign(tmp_path, name="ref", **overrides))


class TestChaosEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_recoverable_faults_yield_identical_bytes(self, tmp_path, shards):
        reference = _reference(tmp_path)
        install(RECOVERABLE)
        campaign = _campaign(
            tmp_path, name=f"mesh{shards}", shards=shards, supervision=QUICK
        )
        chaotic = _run_to_completion(campaign)
        assert chaotic == reference
        report = json.loads(chaotic)["completeness"]
        assert report["coverage"] == 1.0
        assert report["missing"] == []
        registry = get_registry()
        assert registry.counter("faults.injected").value >= 3
        assert registry.counter("shard.restarts").value >= 1

    def test_fault_free_supervised_matches_unsupervised(self, tmp_path):
        reference = _reference(tmp_path)
        campaign = _campaign(tmp_path, name="sup", shards=2, supervision=QUICK)
        assert _run_to_completion(campaign) == reference

    def test_drain_and_resume_mid_chaos_is_byte_identical(self, tmp_path):
        install(RECOVERABLE)
        first = _campaign(
            tmp_path, name="resume", shards=2, supervision=QUICK, cycles=2
        )
        assert first.run_cycle() == "completed"  # cycle 0, checkpointed
        uninstall()  # process "restart": plane comes back with same seed
        install(RECOVERABLE)
        second = _campaign(
            tmp_path, name="resume", shards=2, supervision=QUICK, cycles=2
        )
        assert second.restore()
        assert second.cycle == 1

        expected = _reference(tmp_path, cycles=2)
        resumed = _run_to_completion(second)
        assert resumed == expected
        assert json.loads(resumed)["completeness"]["coverage"] == 1.0


# 47 units per cycle, so every shard's stride spans several batches.
BATCH_MESH = MeshConfig(pairs=3000, block_pairs=64)

# Each fault fires while its worker holds built but unshipped units.
# Before the crash at 10 a worker holds units 0-9 (one shard), the
# evens 0-8 (two shards) or 2 and 6 (four shards); the stall at 13 and
# the transient at 27 likewise come after units of the same batch.
MID_BATCH = FaultsConfig(
    seed=11,
    crash_units=(10,),
    stall_units=(13,),
    stall_s=1.5,
    transient_units=(27,),
)


class TestMidBatchFaults:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_mid_batch_faults_are_attributed_to_their_unit(self, tmp_path, shards):
        reference = _reference(tmp_path, mesh=BATCH_MESH)
        install(MID_BATCH)
        campaign = _campaign(
            tmp_path, name=f"batch{shards}", shards=shards, supervision=QUICK,
            mesh=BATCH_MESH,
        )
        chaotic = _run_to_completion(campaign)
        assert chaotic == reference  # results and completeness report
        assert json.loads(chaotic)["completeness"]["coverage"] == 1.0
        registry = get_registry()
        for kind in ("crash", "stall", "transient"):
            assert registry.counter(f"faults.injected{{kind={kind}}}").value == 1
        assert registry.counter("faults.injected").value == 3
        assert registry.counter("shard.restarts").value == 2
        assert registry.counter("stream.units_missing").value == 0


class TestExactDeficit:
    def test_exhausted_retries_report_machine_readable_deficit(self, tmp_path):
        # Unit 3 crashes on every attempt; with a restart budget of one,
        # the owning shard is quarantined and its remaining units become
        # the deficit.
        install(FaultsConfig(seed=7, crash_units=(3,), crash_repeats=99))
        policy = SupervisionPolicy(
            stall_timeout_s=0.6,
            poll_s=0.02,
            max_restarts=1,
            restart_backoff_s=0.01,
            backoff_ceiling_s=0.05,
            unit_attempts=2,
        )
        campaign = _campaign(tmp_path, name="deficit", shards=2, supervision=policy)
        _run_to_completion(campaign)

        report = campaign.results["completeness"]
        # Shard 1 of 2 owns the odd indices; unit 3 crashes forever, so
        # after max_restarts=1 the shard is quarantined and every odd
        # unit from 3 on is missing.
        expected_missing = [i for i in range(16) if i % 2 == 1 and i >= 3]
        assert [row["index"] for row in report["missing"]] == expected_missing
        assert report["delivered"] == 16 - len(expected_missing)
        assert report["coverage"] == pytest.approx((16 - 7) / 16)
        for row in report["missing"]:
            assert row["shard"] == 1
            assert row["reason"] == "quarantined"

        registry = get_registry()
        assert registry.counter("shard.restarts").value == 2
        assert registry.counter("shard.quarantined").value == 1
        assert registry.counter("faults.injected").value == 2

    def test_degraded_results_still_write(self, tmp_path):
        install(FaultsConfig(seed=7, crash_units=(3,), crash_repeats=99))
        policy = SupervisionPolicy(
            stall_timeout_s=0.6,
            poll_s=0.02,
            max_restarts=0,
            restart_backoff_s=0.01,
            backoff_ceiling_s=0.05,
            unit_attempts=1,
        )
        campaign = _campaign(tmp_path, name="deg", shards=2, supervision=policy)
        payload = json.loads(_run_to_completion(campaign))
        assert payload["completeness"]["coverage"] < 1.0
        assert payload["completeness"]["missing"]  # exact rows present
