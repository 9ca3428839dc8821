"""Hardened snapshot file I/O behind the campaign checkpoint store.

A checkpoint file that *exists* is not the same as a checkpoint file
that is *trustworthy*: a torn rename, a half-flushed page cache at
power loss, or an injected corruption must read as "recoverable", not
as a crash or -- worse -- a silently wrong resume.  This module gives
:class:`~repro.service.checkpoint.CampaignCheckpointStore` three
defenses:

* **Content checksums** -- every snapshot is framed as a magic header
  plus the SHA-256 digest of the pickled body; any bit flip or
  truncation fails the digest check and raises
  :class:`SnapshotCorrupt` instead of unpickling garbage.
* **Generation rotation** -- :func:`write_snapshot` rotates the
  current primary to a ``.1`` fallback before installing the new one,
  so a snapshot corrupted *at rest* (or torn between the two renames)
  recovers to the previous generation instead of restarting from zero.
* **Stale-temp reaping** -- writes go through ``<name>.tmp.<pid>``
  staging files that are fsynced before the atomic replace; a process
  killed between write and rename leaves its temp behind, and
  :func:`reap_stale_temps` sweeps those on store open.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import List, Optional

__all__ = [
    "FALLBACK_SUFFIX",
    "SNAPSHOT_MAGIC",
    "SnapshotCorrupt",
    "corrupt_file",
    "read_snapshot",
    "reap_stale_temps",
    "temp_path",
    "write_snapshot",
]

SNAPSHOT_MAGIC = b"RPROCKPT1\n"
_DIGEST_BYTES = hashlib.sha256().digest_size

FALLBACK_SUFFIX = ".1"
"""Appended to a primary's file name for its previous-generation copy."""


class SnapshotCorrupt(Exception):
    """A snapshot file exists but fails magic, digest, or unpickle."""


def temp_path(path: Path) -> Path:
    """The staging file for an in-progress write of ``path``."""
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


def fallback_path(path: Path) -> Path:
    """The previous-generation copy kept beside ``path``."""
    return path.with_name(path.name + FALLBACK_SUFFIX)


def write_snapshot(path: Path, payload: object) -> None:
    """Atomically install a checksummed snapshot, keeping one fallback.

    Order matters: fsync the staged bytes, rotate the old primary to
    ``.1``, then rename the staged file into place.  A crash at any
    point leaves either the old primary or the ``.1`` fallback intact
    and digest-valid.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    staging = temp_path(path)
    with open(staging, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(hashlib.sha256(body).digest())
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    if path.exists():
        os.replace(path, fallback_path(path))
    os.replace(staging, path)


def read_snapshot(path: Path) -> object:
    """Verify and unpickle one snapshot file.

    Raises :class:`FileNotFoundError` when absent and
    :class:`SnapshotCorrupt` on any framing, digest, or unpickle
    failure -- the store decides whether a fallback generation can
    answer instead.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    header = len(SNAPSHOT_MAGIC) + _DIGEST_BYTES
    if len(blob) < header or not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotCorrupt(f"bad snapshot header: {path}")
    digest = blob[len(SNAPSHOT_MAGIC):header]
    body = blob[header:]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotCorrupt(f"snapshot digest mismatch: {path}")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise SnapshotCorrupt(f"snapshot unpickle failed: {path}: {exc}")


def reap_stale_temps(directory: Path, stem: str) -> List[Path]:
    """Remove staging files a dead process left behind.

    ``stem`` is the store's primary file name without extension (e.g.
    ``campaign-<name>-<fingerprint>``); both the current
    ``<name>.ckpt.tmp.<pid>`` staging names and the legacy
    ``<stem>.tmp.<pid>`` names (written by older versions that derived
    the temp name with ``with_suffix``) are swept.  Only
    temps whose owning pid is gone -- or unparseable -- are removed, so
    a concurrent live writer is never raced.
    """
    reaped: List[Path] = []
    if not directory.is_dir():
        return reaped
    for candidate in sorted(directory.glob(f"{stem}*.tmp.*")):
        pid = _temp_pid(candidate.name)
        if pid is not None and pid != os.getpid() and _pid_alive(pid):
            continue
        if pid == os.getpid():
            continue
        try:
            candidate.unlink()
            reaped.append(candidate)
        except FileNotFoundError:
            pass
    return reaped


def _temp_pid(name: str) -> Optional[int]:
    suffix = name.rsplit(".tmp.", 1)[-1]
    try:
        return int(suffix)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def corrupt_file(path: Path, flavor: str = "truncate") -> None:
    """Deterministically damage a snapshot file (the recovery tests' tool).

    ``truncate`` chops the file to half its length (simulating a torn
    write); ``garble`` flips bits mid-body (simulating at-rest rot).
    Both defeat the digest check, which is the point.
    """
    blob = path.read_bytes()
    if flavor == "truncate":
        path.write_bytes(blob[: max(1, len(blob) // 2)])
    elif flavor == "garble":
        middle = len(blob) // 2
        damaged = bytes([blob[middle] ^ 0xFF]) if blob else b"\xff"
        path.write_bytes(blob[:middle] + damaged + blob[middle + 1:])
    else:
        raise ValueError(f"unknown corruption flavor: {flavor!r}")
