"""Per-pair measurement containers.

A *trace timeline* is the paper's unit of analysis (Section 4.1): "the set
of all traceroutes from one server to another".  :class:`TraceTimeline`
stores one timeline compactly -- per-sample RTT, outcome class and observed
AS path id over a shared time grid -- plus the ground-truth candidate index
per sample, which the simulator knows and real measurements do not (tests
and ablations use it; the analysis pipeline never does).

Timelines are immutable once built: the dataclasses are frozen and their
arrays read-only.  That makes it safe for each timeline to compute its
derived products -- usable samples, AS-path buckets, hour-of-day groups --
once, on first use, and hand the same read-only arrays to every analysis
that asks.  The products live in a private memo that is never pickled, so
a timeline pickles to the same bytes before and after any analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.measurement.traceroute import TraceOutcome
from repro.net.asn import ASN
from repro.net.ip import IPVersion

__all__ = ["TraceTimeline", "PingTimeline"]

_USABLE_OUTCOMES = (
    int(TraceOutcome.COMPLETE),
    int(TraceOutcome.MISSING_AS),
    int(TraceOutcome.MISSING_IP),
)

HOURS_PER_DAY = 24

_PRODUCTS = "_products"
"""Instance attribute holding the memo of derived products (not pickled)."""


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _Memoized:
    """Frozen-dataclass mixin: read-only arrays plus a lazy product memo.

    Subclasses list their array fields in ``_ARRAYS``.  The memo is created
    on first use and dropped from the pickled state, so cached products
    never reach an artifact cache and an unpickled timeline starts cold.
    """

    _ARRAYS: Tuple[str, ...] = ()

    def _freeze(self) -> None:
        for name in self._ARRAYS:
            _read_only(getattr(self, name))

    def _product(self, key: str, compute: Callable[[], Any]) -> Any:
        memo = self.__dict__.get(_PRODUCTS)
        if memo is None:
            memo = {}
            object.__setattr__(self, _PRODUCTS, memo)
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop(_PRODUCTS, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._freeze()


@dataclass(frozen=True)
class TraceTimeline(_Memoized):
    """All traceroutes from one server to another over one protocol.

    Attributes:
        src_server_id / dst_server_id: Endpoints.
        version: IP version of the probes.
        times_hours: Shared measurement grid.
        rtt_ms: End-to-end RTT per sample (float32; NaN when the destination
            was not reached).
        outcome: :class:`~repro.measurement.traceroute.TraceOutcome` per
            sample (uint8).
        path_id: Index into :attr:`paths` of the observed AS path per sample
            (int32; ``-1`` for incomplete samples).
        paths: Distinct observed AS paths for this timeline.
        true_candidate: Ground-truth candidate-route index per sample
            (int16; ``-1`` when the destination was unreachable).  Simulator
            metadata -- not visible to the analysis pipeline.  Either empty
            or one entry per sample.
    """

    _ARRAYS = ("times_hours", "rtt_ms", "outcome", "path_id", "true_candidate")

    src_server_id: int
    dst_server_id: int
    version: IPVersion
    times_hours: np.ndarray
    rtt_ms: np.ndarray
    outcome: np.ndarray
    path_id: np.ndarray
    paths: List[Tuple[ASN, ...]] = field(default_factory=list)
    true_candidate: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int16))

    def __post_init__(self) -> None:
        count = self.times_hours.size
        for name in ("rtt_ms", "outcome", "path_id"):
            if getattr(self, name).size != count:
                raise ValueError(f"{name} length does not match the time grid")
        if self.true_candidate.size not in (0, count):
            raise ValueError("true_candidate length does not match the time grid")
        self._freeze()

    def __len__(self) -> int:
        return int(self.times_hours.size)

    @property
    def pair(self) -> Tuple[int, int]:
        """The (src, dst) server-id pair."""
        return (self.src_server_id, self.dst_server_id)

    def usable_mask(self) -> np.ndarray:
        """Samples usable for AS-path analysis: reached, no AS loop."""
        return self._product(
            "usable_mask",
            lambda: _read_only(np.isin(self.outcome, _USABLE_OUTCOMES)),
        )

    def complete_mask(self) -> np.ndarray:
        """Samples that reached the destination (paper's "complete")."""
        return self.outcome != int(TraceOutcome.INCOMPLETE)

    def usable_index(self) -> np.ndarray:
        """Sample indexes of usable samples, in time order (int32)."""
        return self._product(
            "usable_index",
            lambda: _read_only(np.flatnonzero(self.usable_mask()).astype(np.int32)),
        )

    def usable_path_ids(self) -> np.ndarray:
        """Path ids of usable samples, in time order."""
        return self._product(
            "usable_path_ids",
            lambda: _read_only(self.path_id[self.usable_index()]),
        )

    def observed_paths(self) -> List[Tuple[ASN, ...]]:
        """Distinct AS paths among usable samples, in first-seen order."""
        return [self.paths[path_id] for path_id in self.path_sample_counts()]

    def path_sample_counts(self) -> Dict[int, int]:
        """Usable samples per path id, ascending by id (ids ``< 0`` skipped)."""
        return {path_id: int(rtts.size) for path_id, rtts in self._buckets().items()}

    def usable_rtts_by_path(self) -> Dict[int, np.ndarray]:
        """Usable-sample RTTs grouped by path id (the AS-path buckets).

        Keys ascend by path id; each bucket keeps time order.
        """
        return dict(self._buckets())

    def _buckets(self) -> Dict[int, np.ndarray]:
        return self._product("buckets", self._compute_buckets)

    def _compute_buckets(self) -> Dict[int, np.ndarray]:
        # One stable sort groups the usable samples by path id, keeping each
        # group in time order; the group boundaries split it into buckets
        # (read-only views of one array).
        ids = self.usable_path_ids()
        if ids.size == 0:
            return {}
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        rtts = _read_only(self.rtt_ms[self.usable_index()[order]])
        starts = np.flatnonzero(np.diff(sorted_ids)) + 1
        bounds = np.concatenate(([0], starts, [sorted_ids.size])).tolist()
        return {
            int(sorted_ids[low]): rtts[low:high]
            for low, high in zip(bounds[:-1], bounds[1:])
            if sorted_ids[low] >= 0
        }


@dataclass(frozen=True)
class PingTimeline(_Memoized):
    """All pings from one server to another over one protocol.

    RTTs are float32 with NaN for lost probes.
    """

    _ARRAYS = ("times_hours", "rtt_ms")

    src_server_id: int
    dst_server_id: int
    version: IPVersion
    times_hours: np.ndarray
    rtt_ms: np.ndarray

    def __post_init__(self) -> None:
        if self.rtt_ms.size != self.times_hours.size:
            raise ValueError("rtt_ms length does not match the time grid")
        self._freeze()

    def __len__(self) -> int:
        return int(self.times_hours.size)

    @property
    def pair(self) -> Tuple[int, int]:
        """The (src, dst) server-id pair."""
        return (self.src_server_id, self.dst_server_id)

    def valid_count(self) -> int:
        """Number of answered probes."""
        return int(np.sum(~np.isnan(self.rtt_ms)))

    def percentile_spread(self, low: float = 5.0, high: float = 95.0) -> float:
        """Difference between the high and low RTT percentiles (Section 5.1)."""
        valid = self.rtt_ms[~np.isnan(self.rtt_ms)]
        if valid.size == 0:
            return float("nan")
        return float(np.percentile(valid, high) - np.percentile(valid, low))

    def hour_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        """Samples grouped by hour-of-day bin: ``(order, bounds)``.

        ``order`` (int32) lists sample indexes by bin, in time order within
        a bin; bin ``h`` (0..23) is ``order[bounds[h]:bounds[h + 1]]``.  A
        sample's bin is ``int(times_hours mod 24)``; samples outside 0..23
        (a NaN time) belong to no bin.
        """
        return self._product("hour_groups", self._compute_hour_groups)

    def _compute_hour_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        hour_of_day = np.mod(self.times_hours, float(HOURS_PER_DAY)).astype(int)
        order = np.argsort(hour_of_day, kind="stable")
        bounds = np.searchsorted(
            hour_of_day[order], np.arange(HOURS_PER_DAY + 1), side="left"
        )
        return _read_only(order.astype(np.int32)), _read_only(bounds)
