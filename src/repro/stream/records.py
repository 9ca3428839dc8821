"""Stream record types: one measurement observation per record.

The incremental operators consume *records* -- flat, immutable
observations carrying exactly what they need -- instead of the batch
pipeline's whole-campaign timeline arrays.  One
:class:`TracerouteRecord` is one traceroute sample of one (src, dst,
version) pair in one collection round; :class:`PingRecord` is the ping
analogue.

These intentionally mirror (and are derived from) the batch containers
in :mod:`repro.datasets.timeline` / :mod:`repro.datasets.shortterm`, so
a record stream replayed through the streaming operators reproduces the
batch analyses' outputs.  They are plain data: picklable across the
sharded source's worker queues and serializable to the round-major JSONL
format in :mod:`repro.datasets.io`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["UnitKey", "TracerouteRecord", "PingRecord"]

UnitKey = Tuple[int, int, int]
"""A stream unit's identity: ``(src_server_id, dst_server_id, int(version))``."""


@dataclass(frozen=True)
class TracerouteRecord:
    """One long-term traceroute observation.

    Attributes:
        src / dst: Server ids of the measured pair.
        version: IP version as an int (4 or 6).
        round_index: Collection round on the campaign grid.
        time_hours: The round's nominal timestamp.
        rtt_ms: End-to-end RTT (NaN when the destination was not reached).
        outcome: :class:`repro.measurement.traceroute.TraceOutcome` value.
        as_path: Observed AS path as a tuple of AS numbers, or ``None``
            when the sample has no attributable path (incomplete / loop).
    """

    src: int
    dst: int
    version: int
    round_index: int
    time_hours: float
    rtt_ms: float
    outcome: int
    as_path: Optional[Tuple[int, ...]]


@dataclass(frozen=True)
class PingRecord:
    """One short-term ping observation (``rtt_ms`` is NaN for a loss)."""

    src: int
    dst: int
    version: int
    round_index: int
    time_hours: float
    rtt_ms: float
