"""Pull-based record sources for the campaign service's operators.

A *stream unit* is one (src, dst, version) pair's campaign: its records
in round order.  Sources yield units one at a time -- each unit
is built on demand with the exact batch builders from
:mod:`repro.datasets` (same named RNG streams, same epoch walk), so a
record stream replayed through the operators carries bit-identical
sample values -- but only ever holds *one* pair's timeline in memory,
never the whole-campaign dict the batch datasets materialize.

Sources:

- :class:`LongTermTraceSource` / :class:`PingSource` -- units sampled
  live from a :class:`~repro.measurement.platform.MeasurementPlatform`.
- :class:`WindowedSource` -- a platform source's units cut down to one
  cycle's grid rounds.
- :class:`ShardedSource` -- fans a random-access source's units across
  forked worker processes (the :func:`repro.datasets.parallel.fork_map`
  model: fork inheritance in, pickled results + metric deltas out),
  shipped in batches through a **bounded** queue per shard, so a slow
  consumer blocks the producers instead of letting them buffer
  unboundedly.

Because every unit draws from its own named RNG stream, sharding and
resume order never influence any random draw: a sharded stream, a serial
stream, and the batch pipeline all see the same sample values.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from queue import Empty as _QueueEmpty
from queue import Full as _QueueFull
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.datasets.columnar import CampaignKernels
from repro.faults.completeness import (
    CompletenessView,
    DataCompleteness,
    MissingUnit,
)
from repro.faults.plane import (
    InjectedFault,
    SupervisionPolicy,
    backoff_delay,
    get_plane,
)
from repro.datasets.longterm import LongTermConfig, _build_timeline
from repro.datasets.shortterm import ShortTermConfig, _build_ping_timeline
from repro.datasets.timeline import PingTimeline, TraceTimeline
from repro.measurement.platform import MeasurementPlatform
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.stream.columns import PingColumns, TraceColumns
from repro.stream.records import PingRecord, TracerouteRecord, UnitKey
from repro.topology.cdn import Server

__all__ = [
    "StreamUnit",
    "trace_unit",
    "ping_unit",
    "LongTermTraceSource",
    "PingSource",
    "WindowedSource",
    "ShardedSource",
    "ShardError",
    "MissingUnit",
]


@dataclass
class StreamUnit:
    """One pair-campaign's payload, in round order.

    The payload is either ``records`` (per-round objects, the original
    wire shape) or ``columns`` (the same rounds as parallel arrays, which
    the vectorized operators consume wholesale) -- never both.  ``meta``
    is static per-pair context handed to the operator's ``start_unit``
    before the first record; the sources here set none.
    """

    key: UnitKey
    kind: str  # "trace" | "ping" | "mesh"
    records: Tuple[object, ...]
    meta: Optional[object] = None
    columns: Optional[object] = None

    @property
    def record_count(self) -> int:
        """Rounds carried by this unit, whatever the payload shape."""
        if self.columns is not None:
            return len(self.columns)
        return len(self.records)

    def iter_records(self) -> Iterator[object]:
        """Per-round records, whatever the payload shape.

        Columnar units materialize records lazily; they are identical to
        the ones the object path would have carried.
        """
        if self.columns is not None:
            yield from self.columns.records()
        else:
            yield from self.records


def trace_unit(timeline: TraceTimeline, columnar: bool = False) -> StreamUnit:
    """Decompose one long-term timeline into a record unit."""
    key = (timeline.src_server_id, timeline.dst_server_id, int(timeline.version))
    if columnar:
        return StreamUnit(
            key=key, kind="trace", records=(),
            columns=TraceColumns.from_timeline(timeline),
        )
    times = timeline.times_hours.tolist()
    rtts = timeline.rtt_ms.tolist()
    outcomes = timeline.outcome.tolist()
    path_ids = timeline.path_id.tolist()
    paths = timeline.paths
    records = tuple(
        TracerouteRecord(
            src=key[0],
            dst=key[1],
            version=key[2],
            round_index=index,
            time_hours=times[index],
            rtt_ms=rtts[index],
            outcome=outcomes[index],
            as_path=paths[path_ids[index]] if path_ids[index] >= 0 else None,
        )
        for index in range(len(times))
    )
    return StreamUnit(key=key, kind="trace", records=records)


def ping_unit(timeline: PingTimeline, columnar: bool = False) -> StreamUnit:
    """Decompose one ping timeline into a record unit."""
    key = (timeline.src_server_id, timeline.dst_server_id, int(timeline.version))
    if columnar:
        return StreamUnit(
            key=key, kind="ping", records=(),
            columns=PingColumns.from_timeline(timeline),
        )
    times = timeline.times_hours.tolist()
    rtts = timeline.rtt_ms.tolist()
    records = tuple(
        PingRecord(
            src=key[0],
            dst=key[1],
            version=key[2],
            round_index=index,
            time_hours=times[index],
            rtt_ms=rtts[index],
        )
        for index in range(len(times))
    )
    return StreamUnit(key=key, kind="ping", records=records)


def _version_tasks(
    pairs: Sequence[Tuple[Server, Server]], versions
) -> List[Tuple[Server, Server, object]]:
    """The batch builders' (src, dst, version) task list, in their order."""
    return [
        (src, dst, version)
        for src, dst in pairs
        for version in versions
        if src.address(version) is not None and dst.address(version) is not None
    ]


class _PlatformSource:
    """Shared plumbing of the live platform-backed sources."""

    kind = "unit"

    def __init__(
        self,
        platform: MeasurementPlatform,
        trim_realizations: bool,
        columnar: bool = True,
    ) -> None:
        self.platform = platform
        self.trim_realizations = trim_realizations
        self.columnar = columnar
        self.kernels: Optional[CampaignKernels] = None
        self.tasks: List[Tuple[Server, Server, object]] = []

    def __len__(self) -> int:
        return len(self.tasks)

    def _build(self, src: Server, dst: Server, version) -> StreamUnit:
        raise NotImplementedError

    def key_hint(self, index: int) -> Tuple[int, int, int]:
        """The unit's logical key without building it (deficit reports)."""
        src, dst, version = self.tasks[index]
        return (src.server_id, dst.server_id, int(version))

    def unit_at(self, index: int) -> StreamUnit:
        """Build the unit of one task (random access, for shards/resume)."""
        src, dst, version = self.tasks[index]
        unit = self._build(src, dst, version)
        if self.trim_realizations:
            # Bounded-memory invariant: a unit leaves no realization
            # cache behind.  The next unit of the same pair rebuilds its
            # (cheap, deterministic) realizations.
            self.platform.drop_realizations(src.server_id, dst.server_id)
        obs_metrics.counter("stream.units").inc()
        return unit

    def __iter__(self) -> Iterator[StreamUnit]:
        for index in range(len(self.tasks)):
            yield self.unit_at(index)


class LongTermTraceSource(_PlatformSource):
    """Long-term traceroute units sampled live from the platform."""

    kind = "trace"

    def __init__(
        self,
        platform: MeasurementPlatform,
        config: Optional[LongTermConfig] = None,
        pairs: Optional[Sequence[Tuple[Server, Server]]] = None,
        trim_realizations: bool = True,
        columnar: bool = True,
    ) -> None:
        super().__init__(platform, trim_realizations, columnar)
        self.config = config or LongTermConfig()
        self.grid = self.config.grid()
        if self.grid.end_hour > platform.config.duration_hours + 1e-9:
            raise ValueError(
                f"campaign covers {self.grid.end_hour:.0f}h but the platform "
                f"simulates only {platform.config.duration_hours:.0f}h"
            )
        if pairs is None:
            pairs = platform.server_pairs(dual_stack_only=self.config.dual_stack_only)
        self.tasks = _version_tasks(list(pairs), self.config.versions)
        if self.columnar:
            self.kernels = CampaignKernels(platform, self.grid)

    def _build(self, src: Server, dst: Server, version) -> StreamUnit:
        if self.kernels is not None:
            timeline = self.kernels.build_trace_timeline(src, dst, version)
            return trace_unit(timeline, columnar=True)
        timeline = _build_timeline(self.platform, src, dst, version, self.grid)
        return trace_unit(timeline)


class PingSource(_PlatformSource):
    """Short-term ping units sampled live from the platform."""

    kind = "ping"

    def __init__(
        self,
        platform: MeasurementPlatform,
        config: Optional[ShortTermConfig] = None,
        pairs: Optional[Sequence[Tuple[Server, Server]]] = None,
        trim_realizations: bool = True,
        columnar: bool = True,
    ) -> None:
        super().__init__(platform, trim_realizations, columnar)
        self.config = config or ShortTermConfig()
        self.grid = self.config.ping_grid()
        if self.grid.end_hour > platform.config.duration_hours + 1e-9:
            raise ValueError(
                f"campaign covers {self.grid.end_hour:.0f}h but the platform "
                f"simulates only {platform.config.duration_hours:.0f}h"
            )
        if pairs is None:
            pairs = platform.server_pairs(dual_stack_only=False)
        self.tasks = _version_tasks(list(pairs), self.config.versions)
        self._times = self.grid.times()
        if self.columnar:
            self.kernels = CampaignKernels(platform, self.grid)

    def _build(self, src: Server, dst: Server, version) -> StreamUnit:
        if self.kernels is not None:
            timeline = self.kernels.build_ping_timeline(
                src, dst, version, self.config.congestion_coupled_loss
            )
            return ping_unit(timeline, columnar=True)
        timeline = _build_ping_timeline(
            self.platform, src, dst, version, self._times, self.config
        )
        return ping_unit(timeline)


class WindowedSource:
    """Restrict a platform source's units to grid rounds ``[low, high)``.

    The campaign service feeds operators one *cycle* (a contiguous slice
    of the measurement grid) at a time.  Every per-(pair, epoch) RNG
    stream is position-fixed in the full grid, so the wrapped source
    still builds each pair's whole-campaign timeline -- identical draws
    to the batch pipeline -- and the window is cut out afterwards.  The
    concatenation of a campaign's windows therefore feeds an operator
    exactly the full timeline, bit for bit, however the grid is cut into
    cycles (the incremental operators carry their cross-boundary state
    in ``state.last`` / ring windows / P² estimators).

    Random access (``unit_at``) and ``__len__`` delegate to the wrapped
    source, so a windowed source shards and resumes exactly like the
    source it wraps.
    """

    def __init__(self, source, low: int, high: int) -> None:
        if low < 0 or high < low:
            raise ValueError(f"invalid window [{low}, {high})")
        self.source = source
        self.low = int(low)
        self.high = int(high)

    @property
    def kind(self) -> str:
        """The wrapped source's unit kind."""
        return self.source.kind

    def __len__(self) -> int:
        return len(self.source)

    def key_hint(self, index: int):
        """Delegate the unit's logical key to the wrapped source."""
        hint = getattr(self.source, "key_hint", None)
        return hint(index) if hint is not None else None

    def unit_at(self, index: int) -> StreamUnit:
        """The wrapped source's unit, cut down to the window's rounds."""
        unit = self.source.unit_at(index)
        if unit.columns is not None:
            return StreamUnit(
                key=unit.key,
                kind=unit.kind,
                records=(),
                meta=unit.meta,
                columns=unit.columns.slice(self.low, self.high),
            )
        return StreamUnit(
            key=unit.key,
            kind=unit.kind,
            records=unit.records[self.low:self.high],
            meta=unit.meta,
        )

    def __iter__(self) -> Iterator[StreamUnit]:
        for index in range(len(self.source)):
            yield self.unit_at(index)


# ---------------------------------------------------------------------------
# Sharded fan-out with bounded per-shard queues
# ---------------------------------------------------------------------------

_DONE = "__shard_done__"
_FAILED = "__unit_failed__"

_BATCH_UNITS = 16
"""Most units one shard queue message carries.  A message costs the
worker a pickle, a feeder-thread hand-off and a pipe write, and the
consumer an unpickle, more or less whatever it holds; on the 1M-pair
mesh that per-message cost, not building or folding blocks, set the
wall time.  Batches of 8-64 measured flat there; 4 was clearly
slower."""

_BATCH_S = 0.05
"""A batch ships early once this long has passed since its first unit
began building.  The clock starts before that build, so a unit that
alone takes this long ships as soon as it is built, and a held unit
waits at most this long plus the next unit's build: a source with slow
units neither starves the merge nor looks like a stalled shard to the
supervisor."""


class ShardError(RuntimeError):
    """A shard worker died; carries the shard's traceback and metrics.

    ``metrics_delta`` is the failing worker's registry delta since its
    last completed unit -- the counters/histograms the doomed unit
    managed to record before the exception -- so a post-mortem sees how
    far into the unit the shard got, not just the traceback.
    """

    def __init__(self, shard: int, worker_traceback: str, metrics_delta) -> None:
        counters = (metrics_delta or {}).get("counters", {})
        context = (
            "; metrics delta: "
            + ", ".join(f"{name}={counters[name]:g}" for name in sorted(counters))
            if counters
            else ""
        )
        super().__init__(
            f"stream shard {shard} failed{context}\n{worker_traceback}"
        )
        self.shard = shard
        self.metrics_delta = metrics_delta or {}


class _ShardWire:
    """The worker end of one shard queue: units leave in batches.

    A message is ``(tag, payload, delta)``: ``("batch", entries, delta)``
    with up to :data:`_BATCH_UNITS` entries ``(tag, index, payload)``
    (tag ``"unit"`` or ``_FAILED``), ``("error", traceback, delta)``, or
    ``(_DONE, None, None)``.  Counters incremented inside the builders
    travel back as one registry delta per message, like
    :func:`repro.datasets.parallel.fork_map` workers' deltas.
    :meth:`begin_unit` marks each unit boundary, so a failure ships the
    units before it with the delta up to that boundary and carries the
    failing unit's own delta.
    """

    def __init__(self, queue, stop) -> None:
        self.queue = queue
        self.stop = stop
        self.registry = obs_metrics.get_registry()
        self.baseline = self.mark = self.registry.snapshot()
        self.pending: List[Tuple[str, int, object]] = []
        self.opened = 0.0

    def put(self, message) -> bool:
        """Bounded put that gives up when the consumer has drained away.

        The queue is bounded, so ``put`` blocks when the consumer lags
        -- that is the backpressure contract.
        """
        while not self.stop.is_set():
            try:
                self.queue.put(message, timeout=0.1)
                return True
            except _QueueFull:
                continue
        return False

    def begin_unit(self) -> None:
        """Mark a unit boundary: what is recorded from here is this unit's.

        An empty batch starts its clock here, before its first unit is
        built (see :data:`_BATCH_S`).
        """
        self.mark = self.registry.snapshot()
        if not self.pending:
            self.opened = time.monotonic()

    def add(self, tag: str, index: int, payload) -> bool:
        """Hold one unit's outcome; ship the batch once full or old."""
        self.pending.append((tag, index, payload))
        if (
            len(self.pending) >= _BATCH_UNITS
            or time.monotonic() - self.opened >= _BATCH_S
        ):
            return self.flush()
        return True

    def flush(self, upto=None) -> bool:
        """Ship the held units with the registry delta since the last
        batch, up to the snapshot ``upto`` (default: now)."""
        if not self.pending:
            return True
        current = self.registry.snapshot() if upto is None else upto
        entries, self.pending = self.pending, []
        delta = self.registry.delta_since(self.baseline, current)
        self.baseline = self.mark = current
        return self.put(("batch", entries, delta))

    def finish(self) -> None:
        """Ship the last batch and the end-of-stride marker."""
        if self.flush():
            self.put((_DONE, None, None))

    def fail(self, worker_traceback: str) -> None:
        """Ship the units built before the failing one, then the failure."""
        if self.flush(upto=self.mark):
            self.put(
                ("error", worker_traceback,
                 self.registry.delta_since(self.baseline))
            )


def _shard_worker(
    source, worker_index: int, shards: int, start: int, queue, stop
) -> None:
    """Worker loop: build this shard's units and ship them in batches.

    ``stop`` is the drain event: a consumer that abandons the stream
    mid-window sets it, and the worker exits cleanly at the next unit
    boundary (or the next ``put`` retry) instead of being terminated
    mid-write.  On a crash the units built before it still ship, and
    the half-finished unit's registry delta rides along with the
    traceback.
    """
    wire = _ShardWire(queue, stop)
    try:
        for index in range(start + worker_index, len(source), shards):
            if stop.is_set():
                return
            wire.begin_unit()
            if not wire.add("unit", index, source.unit_at(index)):
                return
        wire.finish()
    except BaseException:  # surfaced to the parent, never swallowed
        wire.fail(traceback.format_exc())


def _injectors(plane, index: int, attempt: int, wire: _ShardWire) -> None:
    """Fire the per-unit fault injectors scheduled for this attempt.

    Crash exits the process mid-unit (its counter is recomputed by the
    supervising parent -- an ``os._exit`` ships no registry delta);
    stall sleeps inside the unit's delta window; transient raises
    :class:`~repro.faults.plane.InjectedFault` for the retry loop.

    Before any of them fires, the worker ships its held batch, and a
    crash also flushes the queue's feeder thread: units the worker
    already built must reach the parent, or it would attribute the
    crash or stall to an earlier index and the attempt-gated schedule
    would lose determinism.
    """
    if plane is None:
        return
    crash = plane.crash(index, attempt)
    stall = plane.stall_s_for(index, attempt)
    transient = plane.transient(index, attempt)
    if crash or stall > 0 or transient:
        wire.flush()
    if crash:
        wire.queue.close()
        wire.queue.join_thread()
        os._exit(41)
    registry = wire.registry
    if stall > 0:
        registry.counter("faults.injected").inc()
        registry.counter("faults.injected{kind=stall}").inc()
        time.sleep(stall)
    if transient:
        registry.counter("faults.injected").inc()
        registry.counter("faults.injected{kind=transient}").inc()
        raise InjectedFault("transient", f"unit {index} attempt {attempt}")


def _supervised_worker(
    source,
    worker_index: int,
    shards: int,
    start: int,
    queue,
    stop,
    resume_from: int,
    resume_attempt: int,
    policy: SupervisionPolicy,
) -> None:
    """Shard worker with in-process unit retry and fault injection.

    Like :func:`_shard_worker` (same batched wire), but a unit whose
    build raises (injected transient or real) is retried up to
    ``policy.unit_attempts`` times before the worker reports it as
    *failed* and moves on -- a sick unit costs itself, never the shard.
    ``resume_from``/``resume_attempt`` let a restarted incarnation skip
    the stride prefix its predecessor already delivered and continue
    that unit's attempt numbering, which keeps the attempt-gated fault
    schedule deterministic across restarts.
    """
    plane = get_plane()
    wire = _ShardWire(queue, stop)
    try:
        for index in range(start + worker_index, len(source), shards):
            if index < resume_from:
                continue
            if stop.is_set():
                return
            base = resume_attempt if index == resume_from else 0
            attempt = base
            wire.begin_unit()
            unit = None
            failure = None
            while True:
                try:
                    _injectors(plane, index, attempt, wire)
                    unit = source.unit_at(index)
                    break
                except Exception:
                    attempt += 1
                    if attempt - base >= policy.unit_attempts:
                        failure = traceback.format_exc()
                        break
            if failure is not None:
                shipped = wire.add(_FAILED, index, failure)
            else:
                shipped = wire.add("unit", index, unit)
            if not shipped:
                return
        wire.finish()
    except BaseException:  # infra failure: surfaced, shard restarts
        wire.fail(traceback.format_exc())


_LAG_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 96.0, 128.0,
                160.0, 192.0, 256.0, 512.0)
"""``stream.merge_lag_units`` bounds.  Two shards with the default
``queue_units=4`` reach 2 * (4 + 1) * 16 = 160 units with full queues
and full held batches, so the steps stay fine up to there."""


def _merge_lag(queues, held, shards) -> int:
    """Units built by workers but not yet merged, over ``shards``.

    Held units are counted exactly; a queued message counts as a full
    batch.  That is exact while batches ship full, as fast units'
    batches do, and an upper bound when one ships early, which happens
    when units are slow and the queues are then mostly empty.  Raises
    ``NotImplementedError`` where queues have no ``qsize`` (macOS).
    """
    return sum(
        len(held[shard]) + _BATCH_UNITS * queues[shard].qsize()
        for shard in shards
    )


class ShardedSource:
    """Fan a random-access source's units across forked workers.

    Worker ``w`` of ``shards`` builds units ``start+w, start+w+shards,
    ...`` and ships them, in batches of up to :data:`_BATCH_UNITS` units
    per message, into its own bounded queue (``queue_units`` messages
    deep, so at most ``queue_units * _BATCH_UNITS`` units in flight per
    shard, plus one batch being built and one the parent holds).  The
    memory that bound costs scales with the unit size: a folded mesh
    block pickles to ~0.7 KB and a trace/ping unit cut to an 8-round
    window to 0.5-0.8 KB, but a long-term trace unit over all 3,880
    rounds of the default scenario to 65 KB, where the batches add
    ~5 MB to each worker's peak RSS.  The parent unpacks each message
    into a per-shard deque and takes units round-robin in global unit
    order, so consumers see exactly the serial order.  Falls back to
    the serial loop for one shard or platforms without ``fork``.

    With a :class:`~repro.faults.plane.SupervisionPolicy` the fan-out is
    *supervised*: a dead or stalled worker is restarted with
    deterministic exponential backoff (bounded per shard), a shard that
    exhausts its restart budget is quarantined -- the merge keeps going
    and yields :class:`~repro.faults.completeness.MissingUnit` markers
    for the units that shard owned -- with every miss recorded in a
    :class:`DataCompleteness` accountant (consumers record deliveries,
    so supervised and unsupervised runs account identically).  Because
    units are independent pure functions of their index, any schedule of
    crashes and restarts that still delivers every index yields a stream
    byte-identical to the fault-free one.
    """

    def __init__(
        self,
        source,
        shards: int,
        queue_units: int = 4,
        supervision: Optional[SupervisionPolicy] = None,
        completeness: Optional["DataCompleteness | CompletenessView"] = None,
    ) -> None:
        if queue_units < 1:
            raise ValueError("queue_units must be positive")
        self.source = source
        self.shards = int(shards)
        self.queue_units = int(queue_units)
        self.supervision = supervision
        self.completeness = completeness or DataCompleteness()
        self.last_workers: List[multiprocessing.Process] = []
        """The worker processes of the most recent fan-out (diagnostics:
        after the iterator is exhausted or closed, all must be dead)."""

    @property
    def kind(self) -> str:
        """The wrapped source's unit kind."""
        return self.source.kind

    def __len__(self) -> int:
        return len(self.source)

    def iter_from(self, start: int = 0) -> Iterator[StreamUnit]:
        """Yield units ``start..`` in order, building them across shards.

        Live telemetry per pop: labeled per-shard queue-depth gauges (in
        messages) and receive counters (``stream.queue_depth{shard=N}`` /
        ``stream.shard_units{shard=N}``), a ``stream.merge_lag`` gauge
        and ``stream.merge_lag_units`` histogram (units built by workers
        but not yet merged into the ordered stream, the parent's held
        batches included -- see :func:`_merge_lag`), and status-board
        heartbeats -- the last time each shard delivered a unit -- for
        ``/status`` and the dashboard.
        """
        total = len(self.source)
        shards = min(self.shards, max(1, total - start))
        registry = obs_metrics.get_registry()
        status = obs_live.get_status()
        if self.supervision is not None:
            if "fork" in multiprocessing.get_all_start_methods():
                yield from self._iter_supervised(start, total, shards)
            else:  # pragma: no cover - non-fork platforms
                yield from self._iter_serial_supervised(start, total)
            return
        if shards <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            status.set_shards(1)
            serial_units = registry.counter("stream.shard_units{shard=0}")
            for index in range(start, total):
                unit = self.source.unit_at(index)
                serial_units.inc()
                status.shard_unit(0)
                yield unit
            return

        status.set_shards(shards)
        depth_gauge = registry.gauge("stream.queue_depth")
        lag_gauge = registry.gauge("stream.merge_lag")
        # Distribution of the instantaneous lag (units built by workers
        # but not yet merged), sampled at every pop -- the p99 of this is
        # the backpressure number the service benchmark reports.
        lag_hist = registry.histogram(
            "stream.merge_lag_units", buckets=_LAG_BUCKETS
        )
        shard_depths = [
            registry.gauge(f"stream.queue_depth{{shard={worker}}}")
            for worker in range(shards)
        ]
        shard_units = [
            registry.counter(f"stream.shard_units{{shard={worker}}}")
            for worker in range(shards)
        ]
        context = multiprocessing.get_context("fork")
        stop = context.Event()
        queues = [context.Queue(maxsize=self.queue_units) for _ in range(shards)]
        workers = [
            context.Process(
                target=_shard_worker,
                args=(self.source, worker, shards, start, queues[worker], stop),
                daemon=True,
            )
            for worker in range(shards)
        ]
        self.last_workers = workers
        for process in workers:
            process.start()
        held = [deque() for _ in range(shards)]
        try:
            for index in range(start, total):
                shard = (index - start) % shards
                queue = queues[shard]
                try:
                    depth = queue.qsize()
                    depth_gauge.set(depth)
                    shard_depths[shard].set(depth)
                    lag = _merge_lag(queues, held, range(shards))
                    lag_gauge.set(lag)
                    lag_hist.observe(lag)
                except NotImplementedError:  # macOS has no qsize
                    pass
                if not held[shard]:
                    tag, payload, delta = queue.get()
                    if delta:
                        registry.merge(delta)
                    if tag == "error":
                        raise ShardError(shard, payload, delta)
                    if tag != "batch":  # pragma: no cover - invariant
                        raise RuntimeError(
                            f"stream shard {shard} finished early at "
                            f"unit {index}"
                        )
                    held[shard].extend(payload)
                _, value, unit = held[shard].popleft()
                if value != index:  # pragma: no cover - ordering invariant
                    raise RuntimeError(
                        f"stream shard returned unit {value}, expected {index}"
                    )
                shard_units[shard].inc()
                status.shard_unit(shard)
                yield unit
        finally:
            self._drain(workers, queues, stop)

    def _iter_supervised(
        self, start: int, total: int, shards: int
    ) -> Iterator[object]:
        """Supervised merge: restart, backoff, quarantine, account.

        Yields :class:`StreamUnit` for delivered units and
        :class:`MissingUnit` markers (same global index order) for units
        lost to a quarantined shard or an exhausted retry budget, so the
        consumer's unit counter -- and therefore checkpoint offsets --
        never skews against unit indices.
        """
        policy = self.supervision
        plane = get_plane()
        registry = obs_metrics.get_registry()
        status = obs_live.get_status()
        completeness = self.completeness
        seed = plane.config.seed if plane is not None else 0
        key_hint = getattr(self.source, "key_hint", None)

        status.set_shards(shards)
        depth_gauge = registry.gauge("stream.queue_depth")
        lag_gauge = registry.gauge("stream.merge_lag")
        lag_hist = registry.histogram(
            "stream.merge_lag_units", buckets=_LAG_BUCKETS
        )
        shard_units = [
            registry.counter(f"stream.shard_units{{shard={worker}}}")
            for worker in range(shards)
        ]

        context = multiprocessing.get_context("fork")
        stop = context.Event()
        all_workers: List[multiprocessing.Process] = []
        all_queues: List[object] = []
        queues: List[object] = [None] * shards
        procs: List[Optional[multiprocessing.Process]] = [None] * shards
        restarts = [0] * shards
        attempts: Dict[int, int] = {}
        quarantined: Set[int] = set()

        def _spawn(shard: int, resume_from: int, resume_attempt: int) -> None:
            queue = context.Queue(maxsize=self.queue_units)
            process = context.Process(
                target=_supervised_worker,
                args=(self.source, shard, shards, start, queue, stop,
                      resume_from, resume_attempt, policy),
                daemon=True,
            )
            queues[shard] = queue
            procs[shard] = process
            all_queues.append(queue)
            all_workers.append(process)
            process.start()

        def _missing(index: int, shard: int, reason: str) -> MissingUnit:
            key = None
            if key_hint is not None:
                try:
                    key = key_hint(index)
                except Exception:
                    key = None
            marker = MissingUnit(
                index=index, shard=shard, reason=reason, key=key
            )
            completeness.record_missing(marker)
            registry.counter("stream.units_missing").inc()
            return marker

        def _handle_down(shard: int, index: int, cause: str) -> None:
            """One worker incarnation is gone: restart or quarantine."""
            attempt = attempts.get(index, 0)
            if plane is not None and cause == "crash" and plane.crash(
                index, attempt
            ):
                # The exiting worker could not ship this counter itself.
                registry.counter("faults.injected").inc()
                registry.counter("faults.injected{kind=crash}").inc()
            if plane is not None and cause == "stall" and plane.stall_s_for(
                index, attempt
            ) > 0:
                registry.counter("faults.injected").inc()
                registry.counter("faults.injected{kind=stall}").inc()
            attempts[index] = attempt + 1
            restarts[shard] += 1
            registry.counter("shard.restarts").inc()
            registry.counter(f"shard.restarts{{shard={shard}}}").inc()
            if restarts[shard] > policy.max_restarts:
                quarantined.add(shard)
                registry.counter("shard.quarantined").inc()
                registry.counter(f"shard.quarantined{{shard={shard}}}").inc()
                status.shard_state(
                    shard, "quarantined", restarts=restarts[shard]
                )
                return
            status.shard_state(shard, "restarting", restarts=restarts[shard])
            delay = backoff_delay(
                policy.restart_backoff_s, policy.backoff_ceiling_s,
                restarts[shard], seed, shard,
            )
            if delay > 0:
                time.sleep(delay)
            _spawn(shard, index, attempts[index])
            status.shard_state(shard, "ok", restarts=restarts[shard])

        for shard in range(shards):
            _spawn(shard, start, 0)
        self.last_workers = all_workers

        # A restart or quarantine only happens while the merge waits on
        # an empty deque, so a shard's held units are always from its
        # current incarnation.
        held = [deque() for _ in range(shards)]
        try:
            for index in range(start, total):
                shard = (index - start) % shards
                result = None
                wait_started = time.monotonic()
                while result is None:
                    if shard in quarantined:
                        result = _missing(index, shard, "quarantined")
                        break
                    if held[shard]:
                        tag, value, payload = held[shard].popleft()
                        if value != index:  # pragma: no cover - invariant
                            raise RuntimeError(
                                f"stream shard returned unit {value}, "
                                f"expected {index}"
                            )
                        if tag == _FAILED:
                            registry.counter("stream.unit_failures").inc()
                            result = _missing(index, shard, "unit_failed")
                        else:
                            result = payload
                        break
                    queue = queues[shard]
                    process = procs[shard]
                    try:
                        depth_gauge.set(queue.qsize())
                        lag = _merge_lag(
                            queues, held,
                            [s for s in range(shards) if s not in quarantined],
                        )
                        lag_gauge.set(lag)
                        lag_hist.observe(lag)
                    except NotImplementedError:  # macOS has no qsize
                        pass
                    try:
                        message = queue.get(timeout=policy.poll_s)
                    except _QueueEmpty:
                        if not process.is_alive():
                            try:  # the dying worker may have delivered
                                message = queue.get_nowait()
                            except _QueueEmpty:
                                _handle_down(shard, index, "crash")
                                wait_started = time.monotonic()
                                continue
                        elif (
                            time.monotonic() - wait_started
                            > policy.stall_timeout_s
                        ):
                            process.terminate()
                            process.join()
                            _handle_down(shard, index, "stall")
                            wait_started = time.monotonic()
                            continue
                        else:
                            continue
                    tag, payload, delta = message
                    if delta:
                        registry.merge(delta)
                    if tag == "batch":
                        held[shard].extend(payload)
                    elif tag == "error":
                        process.join()
                        _handle_down(shard, index, "error")
                        wait_started = time.monotonic()
                    elif tag == _DONE:  # pragma: no cover - invariant
                        raise RuntimeError(
                            f"stream shard {shard} finished early at "
                            f"unit {index}"
                        )
                if isinstance(result, MissingUnit):
                    yield result
                else:
                    # Delivery accounting belongs to the consumer (it
                    # runs identically on unsupervised paths, keeping
                    # completeness reports byte-identical across modes);
                    # the fan-out only ever records misses.
                    shard_units[shard].inc()
                    status.shard_unit(shard)
                    yield result
        finally:
            self._drain(all_workers, all_queues, stop)

    def _iter_serial_supervised(
        self, start: int, total: int
    ) -> Iterator[object]:  # pragma: no cover - non-fork platforms
        """In-process fallback with the same retry/accounting contract.

        Without ``fork`` a crash injection cannot kill a worker process,
        so crash and stall degrade to retryable in-process faults with a
        budget equivalent to the forked path's
        (``max(unit_attempts, max_restarts + 1)``).
        """
        policy = self.supervision
        plane = get_plane()
        registry = obs_metrics.get_registry()
        status = obs_live.get_status()
        key_hint = getattr(self.source, "key_hint", None)
        status.set_shards(1)
        serial_units = registry.counter("stream.shard_units{shard=0}")
        budget = max(policy.unit_attempts, policy.max_restarts + 1)
        for index in range(start, total):
            attempt = 0
            unit = None
            while True:
                try:
                    if plane is not None:
                        if plane.crash(index, attempt):
                            registry.counter("faults.injected").inc()
                            registry.counter(
                                "faults.injected{kind=crash}"
                            ).inc()
                            raise InjectedFault(
                                "crash", f"unit {index} (in-process)"
                            )
                        stall = plane.stall_s_for(index, attempt)
                        if stall > 0:
                            registry.counter("faults.injected").inc()
                            registry.counter(
                                "faults.injected{kind=stall}"
                            ).inc()
                            time.sleep(stall)
                        if plane.transient(index, attempt):
                            registry.counter("faults.injected").inc()
                            registry.counter(
                                "faults.injected{kind=transient}"
                            ).inc()
                            raise InjectedFault(
                                "transient", f"unit {index} attempt {attempt}"
                            )
                    unit = self.source.unit_at(index)
                    break
                except Exception:
                    attempt += 1
                    if attempt >= budget:
                        break
            if unit is None:
                key = None
                if key_hint is not None:
                    try:
                        key = key_hint(index)
                    except Exception:
                        key = None
                marker = MissingUnit(
                    index=index, shard=0, reason="unit_failed", key=key
                )
                self.completeness.record_missing(marker)
                registry.counter("stream.units_missing").inc()
                yield marker
            else:
                serial_units.inc()
                status.shard_unit(0)
                yield unit

    @staticmethod
    def _drain(workers, queues, stop, join_timeout: float = 5.0) -> None:
        """Deterministic shutdown of a (possibly mid-window) fan-out.

        Order matters: signal the stop event first so every producer
        exits at its next unit boundary or ``put`` retry, then keep the
        queues empty so a producer blocked inside a full bounded queue
        can finish its ``put`` and observe the event.  Workers are only
        terminated as a last resort after the join timeout -- the common
        path (completion, consumer ``close()``, supervisor drain) ends
        every worker cleanly with exit code 0 and no stuck queue feeder
        threads.
        """
        stop.set()
        deadline = time.monotonic() + join_timeout
        pending = list(workers)
        while pending and time.monotonic() < deadline:
            for queue in queues:  # unblock producers stuck in put()
                try:
                    while True:
                        queue.get_nowait()
                except (_QueueEmpty, OSError, ValueError):
                    pass
            pending = [process for process in pending if process.is_alive()]
            if pending:
                pending[0].join(timeout=0.05)
        for process in pending:  # pragma: no cover - hung-worker fallback
            process.terminate()
        for process in workers:
            process.join()
        for queue in queues:
            queue.cancel_join_thread()
            queue.close()

    def __iter__(self) -> Iterator[StreamUnit]:
        return self.iter_from(0)
