"""Columnar stream payloads: one pair-campaign as parallel arrays.

The object-path stream decomposes every timeline into a tuple of frozen
per-round record objects, then feeds them to the operators one at a
time -- paying Python object construction, pickling (across shard
queues) and per-record dispatch for every round of every pair.  The
columnar payloads here carry the same information as the arrays the
builders already produced: a :class:`TraceColumns` is one long-term
timeline's columns plus its interned path table, :class:`PingColumns`
the ping analogue.

Operators consume them wholesale through ``observe_columns`` (see
:mod:`repro.stream.operators`); anything that still wants records --
the JSONL codec, tests, external consumers -- can materialize them
lazily with :meth:`records`, which yields objects identical to the ones
the object path would have built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from repro.stream.records import PingRecord, TracerouteRecord, UnitKey

__all__ = ["TraceColumns", "PingColumns"]


@dataclass(frozen=True)
class TraceColumns:
    """One long-term trace timeline as columns (round order).

    ``round_offset`` is the absolute grid round of the first column --
    zero for a whole-campaign block, the window's low edge for a slice
    -- so lazily materialized records keep their campaign-absolute
    ``round_index`` whatever the cut.
    """

    key: UnitKey
    times_hours: np.ndarray
    rtt_ms: np.ndarray
    outcome: np.ndarray
    path_id: np.ndarray
    paths: Tuple[Tuple[int, ...], ...]
    round_offset: int = 0

    @classmethod
    def from_timeline(cls, timeline) -> "TraceColumns":
        """Wrap a :class:`~repro.datasets.timeline.TraceTimeline`."""
        return cls(
            key=(timeline.src_server_id, timeline.dst_server_id, int(timeline.version)),
            times_hours=timeline.times_hours,
            rtt_ms=timeline.rtt_ms,
            outcome=timeline.outcome,
            path_id=timeline.path_id,
            paths=tuple(tuple(path) for path in timeline.paths),
        )

    def __len__(self) -> int:
        return int(self.times_hours.size)

    def slice(self, low: int, high: int) -> "TraceColumns":
        """Rounds ``[low, high)`` as a new block (path table shared whole)."""
        return TraceColumns(
            key=self.key,
            times_hours=self.times_hours[low:high],
            rtt_ms=self.rtt_ms[low:high],
            outcome=self.outcome[low:high],
            path_id=self.path_id[low:high],
            paths=self.paths,
            round_offset=self.round_offset + low,
        )

    def records(self) -> Iterator[TracerouteRecord]:
        """Materialize the records the object path would have built."""
        src, dst, version = self.key
        times = self.times_hours.tolist()
        rtts = self.rtt_ms.tolist()
        outcomes = self.outcome.tolist()
        path_ids = self.path_id.tolist()
        paths = self.paths
        for index in range(len(times)):
            yield TracerouteRecord(
                src=src,
                dst=dst,
                version=version,
                round_index=self.round_offset + index,
                time_hours=times[index],
                rtt_ms=rtts[index],
                outcome=outcomes[index],
                as_path=paths[path_ids[index]] if path_ids[index] >= 0 else None,
            )


@dataclass(frozen=True)
class PingColumns:
    """One ping timeline as columns (round order)."""

    key: UnitKey
    times_hours: np.ndarray
    rtt_ms: np.ndarray
    round_offset: int = 0

    @classmethod
    def from_timeline(cls, timeline) -> "PingColumns":
        """Wrap a :class:`~repro.datasets.timeline.PingTimeline`."""
        return cls(
            key=(timeline.src_server_id, timeline.dst_server_id, int(timeline.version)),
            times_hours=timeline.times_hours,
            rtt_ms=timeline.rtt_ms,
        )

    def __len__(self) -> int:
        return int(self.times_hours.size)

    def slice(self, low: int, high: int) -> "PingColumns":
        """Rounds ``[low, high)`` as a new block."""
        return PingColumns(
            key=self.key,
            times_hours=self.times_hours[low:high],
            rtt_ms=self.rtt_ms[low:high],
            round_offset=self.round_offset + low,
        )

    def records(self) -> Iterator[PingRecord]:
        """Materialize the records the object path would have built."""
        src, dst, version = self.key
        times = self.times_hours.tolist()
        rtts = self.rtt_ms.tolist()
        for index in range(len(times)):
            yield PingRecord(
                src=src,
                dst=dst,
                version=version,
                round_index=self.round_offset + index,
                time_hours=times[index],
                rtt_ms=rtts[index],
            )
