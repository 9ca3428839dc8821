"""Each world seed selects its own random streams, checked by running it.

``reproduce --scenario small`` runs at seeds 0 and 1 under
``seed_recorder.py``, which records the seed material that every numpy
seed sink receives, per call site in ``repro``.  The checks:

- the two runs share no material at any site, except the exemptions in
  :data:`EXEMPT`, each with its reason;
- every sink the pipeline seeds through fired in both runs, and so did
  every exempt site, so the check cannot pass on an empty record or
  keep a stale exemption;
- seed 0's stdout is still the pinned ``small`` report.

A literal seed, however many calls it travels before numpy, gives both
runs the same material where it is made.  So does a seed derived from
anything but the world seed, such as a hard-coded base seed for one
stream.  A wall-clock seed changes the report.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tests.integration.seed_recorder import shared_material
from tests.integration.test_report_pin import SMALL_REPORT_SHA256

ROOT = Path(__file__).resolve().parents[2]
RECORDER = Path(__file__).resolve().with_name("seed_recorder.py")
SEEDS = (0, 1)

REQUIRED_SINKS = ("SeedSequence", "default_rng", "PCG64", "pcg64_states")
"""The sinks ``src/`` seeds through; each must fire in every run."""

STRETCH_SITE = "measurement/rttmodel.py::DelayModel._stretch"

EXEMPT = {
    "measurement/fastseed.py::RecycledGenerator.__init__": (
        "placeholder state: SeedSequence(0) only constructs the recycled "
        "PCG64, and set(state, inc) overwrites its whole state before any draw"
    ),
    "measurement/fastseed.py::_reference_state": (
        "replication_ok() checks the batched seeding against numpy on fixed "
        "vectors whose states seed no stream; a straggler stream seeded here "
        "gets its base seed from pcg64_states, recorded at "
        "CampaignKernels.plan_streams"
    ),
    STRETCH_SITE: (
        "known leak: the path-stretch seed hashes the segment key (AS, city, "
        "city) without the world seed, so two worlds that share a segment "
        "share its stretch draw; the fix changes every digest and waits for "
        "the world recalibration (ROADMAP item 3); "
        "test_stretch_streams_are_disjoint_across_seeds flips when it lands"
    ),
}
"""Sites whose material may repeat across seeds, and why."""


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{seed: (record, stdout)}`` from two concurrent recorded runs."""
    out = tmp_path_factory.mktemp("seed-provenance")
    env = {
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONHASHSEED": "0",
        "PATH": "/usr/bin:/bin",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    processes = {}
    for seed in SEEDS:
        with open(out / f"stdout-{seed}.txt", "wb") as stdout, \
                open(out / f"stderr-{seed}.txt", "wb") as stderr:
            processes[seed] = subprocess.Popen(
                [sys.executable, str(RECORDER), str(out / f"record-{seed}.json"),
                 "reproduce", "--scenario", "small", "--seed", str(seed)],
                stdout=stdout, stderr=stderr, env=env, cwd=ROOT,
            )
    results = {}
    for seed, process in processes.items():
        assert process.wait() == 0, (out / f"stderr-{seed}.txt").read_text()
        record = json.loads((out / f"record-{seed}.json").read_text())
        results[seed] = (record, (out / f"stdout-{seed}.txt").read_bytes())
    return results


def _shared(runs):
    (first, _), (second, _) = (runs[seed] for seed in SEEDS)
    return shared_material(first, second)


def test_seeds_share_no_stream_material(runs):
    shared = {site: materials[:3] for site, materials in _shared(runs).items()
              if site not in EXEMPT}
    assert not shared, f"seeds {SEEDS} share seed material at: {shared}"


def test_every_sink_and_exempt_site_fired(runs):
    for seed, (record, _) in runs.items():
        silent = [sink for sink in REQUIRED_SINKS if not record["fired"].get(sink)]
        assert not silent, f"seed {seed}: no call reached {silent}"
        stale = [site for site in EXEMPT if not record["sites"].get(site)]
        assert not stale, f"seed {seed}: exempt sites never seeded: {stale}"


def test_seed_zero_prints_the_pinned_small_report(runs):
    _, stdout = runs[0]
    assert hashlib.sha256(stdout).hexdigest() == SMALL_REPORT_SHA256


@pytest.mark.xfail(strict=True, reason=EXEMPT[STRETCH_SITE])
def test_stretch_streams_are_disjoint_across_seeds(runs):
    assert STRETCH_SITE not in _shared(runs)
