"""Tests for checkpoint snapshots and their fingerprint keying.

The one checkpoint store, :class:`CampaignCheckpointStore`, frames its
snapshots with :mod:`repro.stream.snapshot` and keys each file on
:func:`campaign_fingerprint`; these cases drive it through the snapshot
layer's own read/write calls.
"""

import pytest

from repro.obs import metrics
from repro.service.checkpoint import (
    CAMPAIGN_CHECKPOINT_SCHEMA,
    CampaignCheckpointStore,
    campaign_fingerprint,
)
from repro.stream.snapshot import read_snapshot, write_snapshot


@pytest.fixture(autouse=True)
def clean_registry():
    """Saves count into the metrics registry; clear it after each test."""
    yield
    metrics.get_registry().reset()


class TestFingerprint:
    def test_stable_for_equal_parts(self):
        assert campaign_fingerprint("a", 1) == campaign_fingerprint("a", 1)

    def test_sensitive_to_parts(self):
        assert campaign_fingerprint("a", 1) != campaign_fingerprint("a", 2)
        assert campaign_fingerprint("a", 1) != campaign_fingerprint("a")


class TestCheckpointStore:
    def test_save_load_round_trip(self, tmp_path):
        store = CampaignCheckpointStore(tmp_path, "trace", "abc123")
        store.save(7, 42, {"state": [1, 2, 3]}, completeness={"missing": 0})
        state = store.load()
        assert state is not None
        assert state["campaign"] == "trace"
        assert state["cycle"] == 7
        assert state["units_done"] == 42
        assert state["operator"] == {"state": [1, 2, 3]}
        assert state["completeness"] == {"missing": 0}
        assert state["schema"] == CAMPAIGN_CHECKPOINT_SCHEMA
        assert state == read_snapshot(store.path)

    def test_missing_is_none(self, tmp_path):
        assert CampaignCheckpointStore(tmp_path, "trace", "nothing").load() is None

    def test_corrupt_is_none(self, tmp_path):
        store = CampaignCheckpointStore(tmp_path, "trace", "abc123")
        store.save(1, 0, None)
        store.path.write_bytes(b"\x80\x04 truncated garbage")
        assert store.load() is None

    def test_schema_mismatch_is_none(self, tmp_path):
        store = CampaignCheckpointStore(tmp_path, "trace", "abc123")
        store.save(1, 0, None)
        payload = read_snapshot(store.path)
        payload["schema"] = CAMPAIGN_CHECKPOINT_SCHEMA + 1
        write_snapshot(store.path, payload)
        assert store.load() is None

    def test_fingerprint_mismatch_is_none(self, tmp_path):
        CampaignCheckpointStore(tmp_path, "trace", "run-a").save(1, 0, None)
        other = CampaignCheckpointStore(tmp_path, "trace", "run-b")
        # Different fingerprint -> different file; also reject a copy
        # carrying the wrong fingerprint inside.
        assert other.load() is None
        other.path.write_bytes(
            CampaignCheckpointStore(tmp_path, "trace", "run-a").path.read_bytes()
        )
        assert other.load() is None

    def test_clear_is_idempotent(self, tmp_path):
        store = CampaignCheckpointStore(tmp_path, "trace", "abc123")
        store.save(1, 0, None)
        store.clear()
        assert store.load() is None
        store.clear()  # no snapshot left: still fine
