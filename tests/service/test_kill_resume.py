"""Kill-and-restart durability: the campaign's headline contract.

A process running a campaign's cycle loop, killed mid-campaign with
SIGKILL (no goodbye), must -- when a new process restores the same
campaign -- resume from its last checkpoint and finish with results
byte-identical to a never-interrupted run.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

_REPO_SRC = Path(__file__).resolve().parents[2] / "src"

# Restores the campaign from argv[1] and runs its cycles, pausing
# argv[2] seconds after each: with a pause the kill reliably lands
# mid-run; without one a run finishes at once.
_CYCLE_LOOP = """
import sys, time
from pathlib import Path

from repro.service.campaign import Campaign, driver_for
from repro.service.config import CampaignConfig
from repro.stream.mesh import MeshConfig

config = CampaignConfig(
    name="mesh", kind="mesh", cadence_s=0.3, cycles=12, rounds_per_cycle=4,
    checkpoint_every=2,
    mesh=MeshConfig(pairs=2048, block_pairs=256, rounds_per_cycle=4),
)
campaign = Campaign(config, driver_for(config), Path(sys.argv[1]))
campaign.restore()
while not campaign.done:
    campaign.run_cycle()
    time.sleep(float(sys.argv[2]))
print("mesh: done")
"""


def _command(state_dir, pause):
    return [sys.executable, "-c", _CYCLE_LOOP, str(state_dir), str(pause)]


def _env():
    return {**os.environ, "PYTHONPATH": str(_REPO_SRC)}


def _run_campaign(state_dir):
    process = subprocess.run(
        _command(state_dir, 0), env=_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stderr
    return process


def _wait_for_checkpoint(state_dir, process, timeout=60):
    """Block until the campaign has durably saved at least once."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if list(state_dir.glob("campaign-mesh-*.ckpt")):
            return
        assert process.poll() is None, "campaign exited before checkpointing"
        time.sleep(0.05)
    raise AssertionError("no checkpoint appeared")


@pytest.fixture(scope="module")
def reference_results(tmp_path_factory):
    """One uninterrupted run's canonical results bytes."""
    state = tmp_path_factory.mktemp("reference") / "state"
    _run_campaign(state)
    return (state / "results-mesh.json").read_bytes()


class TestKillAndRestart:
    def test_sigkill_then_restart_is_byte_identical(
        self, tmp_path, reference_results
    ):
        state = tmp_path / "state"
        process = subprocess.Popen(
            _command(state, 0.3), env=_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            _wait_for_checkpoint(state, process)
            assert process.poll() is None, "kill must land mid-run"
            process.kill()
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
        assert not (state / "results-mesh.json").exists()

        resumed = _run_campaign(state)
        assert "mesh: done" in resumed.stdout
        assert (state / "results-mesh.json").read_bytes() == reference_results
