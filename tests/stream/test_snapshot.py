"""Tests for the hardened snapshot framing behind the checkpoint store."""

import hashlib
import os

import pytest

from repro.stream.snapshot import (
    FALLBACK_SUFFIX,
    SNAPSHOT_MAGIC,
    SnapshotCorrupt,
    corrupt_file,
    fallback_path,
    read_snapshot,
    reap_stale_temps,
    temp_path,
    write_snapshot,
)

HEADER = len(SNAPSHOT_MAGIC) + hashlib.sha256().digest_size
"""Magic plus digest: the framing before the pickled body."""


class TestWriteRead:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {"cycle": 3, "rows": [1, 2, 3]})
        assert read_snapshot(path) == {"cycle": 3, "rows": [1, 2, 3]}
        assert path.read_bytes().startswith(SNAPSHOT_MAGIC)

    def test_missing_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_snapshot(tmp_path / "absent.ckpt")

    def test_write_leaves_no_staging_file(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {"n": 1})
        assert not temp_path(path).exists()

    def test_rotation_keeps_previous_generation(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {"gen": 1})
        assert not fallback_path(path).exists()
        write_snapshot(path, {"gen": 2})
        assert read_snapshot(path) == {"gen": 2}
        assert read_snapshot(fallback_path(path)) == {"gen": 1}
        assert fallback_path(path).name.endswith(FALLBACK_SUFFIX)


class TestCorruptionDetection:
    @pytest.mark.parametrize("flavor", ["truncate", "garble"])
    def test_corruption_fails_the_digest(self, tmp_path, flavor):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {"rows": list(range(64))})
        corrupt_file(path, flavor)
        with pytest.raises(SnapshotCorrupt):
            read_snapshot(path)

    def test_raw_pickle_fails_the_magic(self, tmp_path):
        import pickle

        path = tmp_path / "state.ckpt"
        path.write_bytes(pickle.dumps({"legacy": True}))
        with pytest.raises(SnapshotCorrupt, match="header"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "keep",
        [0, 1, len(SNAPSHOT_MAGIC) - 1, len(SNAPSHOT_MAGIC),
         len(SNAPSHOT_MAGIC) + 31, HEADER, -1],
    )
    def test_every_truncation_is_corrupt(self, tmp_path, keep):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {"rows": list(range(64))})
        blob = path.read_bytes()
        path.write_bytes(blob[:keep])
        with pytest.raises(SnapshotCorrupt):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "offset",
        [0, len(SNAPSHOT_MAGIC) - 1, len(SNAPSHOT_MAGIC), HEADER - 1, HEADER, -1],
    )
    def test_every_flipped_byte_is_corrupt(self, tmp_path, offset):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {"rows": list(range(64))})
        blob = bytearray(path.read_bytes())
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotCorrupt):
            read_snapshot(path)

    def test_digest_valid_body_that_is_no_pickle_is_corrupt(self, tmp_path):
        path = tmp_path / "state.ckpt"
        body = b"not a pickle"
        path.write_bytes(SNAPSHOT_MAGIC + hashlib.sha256(body).digest() + body)
        with pytest.raises(SnapshotCorrupt, match="unpickle"):
            read_snapshot(path)

    def test_unknown_corruption_flavor_rejected(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_snapshot(path, {})
        with pytest.raises(ValueError, match="flavor"):
            corrupt_file(path, "melt")


class TestReapStaleTemps:
    def test_dead_pid_temps_are_swept(self, tmp_path):
        stale = tmp_path / "stream-abc.ckpt.tmp.999999"
        stale.write_bytes(b"half-written")
        legacy = tmp_path / "stream-abc.tmp.999999"
        legacy.write_bytes(b"older naming")
        reaped = reap_stale_temps(tmp_path, "stream-abc")
        assert sorted(p.name for p in reaped) == [
            "stream-abc.ckpt.tmp.999999",
            "stream-abc.tmp.999999",
        ]
        assert not stale.exists() and not legacy.exists()

    def test_live_pid_temps_survive(self, tmp_path):
        live = tmp_path / f"stream-abc.ckpt.tmp.{os.getpid()}"
        live.write_bytes(b"in flight")
        assert reap_stale_temps(tmp_path, "stream-abc") == []
        assert live.exists()

    def test_other_stems_untouched(self, tmp_path):
        other = tmp_path / "campaign-m.ckpt.tmp.999999"
        other.write_bytes(b"not ours")
        reap_stale_temps(tmp_path, "stream-abc")
        assert other.exists()

    def test_missing_directory_is_noop(self, tmp_path):
        assert reap_stale_temps(tmp_path / "absent", "stream-abc") == []
