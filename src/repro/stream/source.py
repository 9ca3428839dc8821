"""Stream units and the sharded fan-out that delivers them in order.

A *stream unit* is one random-access piece of a campaign cycle -- for
the synthetic mesh (:mod:`repro.stream.mesh`), one block of pairs.  A
source exposes ``__len__`` and ``unit_at(index)``, and every unit is a
pure function of its index, so units can be built anywhere, in any
order.

:class:`ShardedSource` fans a source's units across forked worker
processes (the :func:`repro.datasets.parallel.fork_map` model: fork
inheritance in, pickled results + metric deltas out), shipped in
batches through a **bounded** queue per shard, so a slow consumer
blocks the producers instead of letting them buffer unboundedly.
Because no unit depends on another, sharding and resume order never
influence a value: a sharded stream and a serial stream are identical.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass
from queue import Empty as _QueueEmpty
from queue import Full as _QueueFull
from typing import Iterator, List, Tuple

from repro.obs import metrics as obs_metrics

__all__ = [
    "UnitKey",
    "StreamUnit",
    "ShardedSource",
    "ShardError",
]

UnitKey = Tuple[int, int, int]
"""A stream unit's identity; a mesh block's is ``(cycle, block, 4)``."""


@dataclass
class StreamUnit:
    """One unit's payload, keyed.

    ``columns`` is whatever the consuming operator absorbs -- for the
    mesh, a block matrix or its fold.  ``len(columns)`` counts samples.
    """

    key: UnitKey
    columns: object

    @property
    def record_count(self) -> int:
        """Samples carried by this unit."""
        return len(self.columns)


# ---------------------------------------------------------------------------
# Sharded fan-out with bounded per-shard queues
# ---------------------------------------------------------------------------

_DONE = "__shard_done__"

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
units does not starve the merge."""


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
    with up to :data:`_BATCH_UNITS` entries ``("unit", index, payload)``,
    ``("error", traceback, delta)``, or
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


_LAG_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 96.0, 128.0,
                160.0, 192.0, 256.0, 512.0)
"""``stream.merge_lag_units`` bounds.  Two shards with the default
``queue_units=4`` reach 2 * (4 + 1) * 16 = 160 units with full queues
and full held batches, so the steps stay fine up to there."""


def _merge_lag(queues, held) -> int:
    """Units built by workers but not yet merged.

    Held units are counted exactly; a queued message counts as a full
    batch.  That is exact while batches ship full, as fast units'
    batches do, and an upper bound when one ships early, which happens
    when units are slow and the queues are then mostly empty.  Raises
    ``NotImplementedError`` where queues have no ``qsize`` (macOS).
    """
    return sum(
        len(units) + _BATCH_UNITS * queue.qsize()
        for units, queue in zip(held, queues)
    )


class ShardedSource:
    """Fan a random-access source's units across forked workers.

    Worker ``w`` of ``shards`` builds units ``start+w, start+w+shards,
    ...`` and ships them, in batches of up to :data:`_BATCH_UNITS` units
    per message, into its own bounded queue (``queue_units`` messages
    deep, so at most ``queue_units * _BATCH_UNITS`` units in flight per
    shard, plus one batch being built and one the parent holds).  The
    memory that bound costs scales with the unit size; a folded mesh
    block pickles to ~0.7 KB.  The parent unpacks each message
    into a per-shard deque and takes units round-robin in global unit
    order, so consumers see exactly the serial order.  Falls back to
    the serial loop for one shard or platforms without ``fork``.  A
    worker that raises ends the stream with a :class:`ShardError`.
    """

    def __init__(self, source, shards: int, queue_units: int = 4) -> None:
        if queue_units < 1:
            raise ValueError("queue_units must be positive")
        self.source = source
        self.shards = int(shards)
        self.queue_units = int(queue_units)
        self.last_workers: List[multiprocessing.Process] = []
        """The worker processes of the most recent fan-out (diagnostics:
        after the iterator is exhausted or closed, all must be dead)."""

    def __len__(self) -> int:
        return len(self.source)

    def iter_from(self, start: int = 0) -> Iterator[StreamUnit]:
        """Yield units ``start..`` in order, building them across shards.

        Each pop of a sharded stream records the ``stream.merge_lag_units``
        histogram: units built by workers but not yet merged into the
        ordered stream, the parent's held batches included (see
        :func:`_merge_lag`).
        """
        total = len(self.source)
        shards = min(self.shards, max(1, total - start))
        if shards <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            for index in range(start, total):
                yield self.source.unit_at(index)
            return

        registry = obs_metrics.get_registry()
        # Distribution of the instantaneous lag (units built by workers
        # but not yet merged), sampled at every pop -- the p99 of this is
        # the backpressure number the mesh benchmark reports.
        lag_hist = registry.histogram(
            "stream.merge_lag_units", buckets=_LAG_BUCKETS
        )
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
                    lag_hist.observe(_merge_lag(queues, held))
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
                yield unit
        finally:
            self._drain(workers, queues, stop)

    @staticmethod
    def _drain(workers, queues, stop, join_timeout: float = 5.0) -> None:
        """Deterministic shutdown of a (possibly mid-window) fan-out.

        Order matters: signal the stop event first so every producer
        exits at its next unit boundary or ``put`` retry, then keep the
        queues empty so a producer blocked inside a full bounded queue
        can finish its ``put`` and observe the event.  Workers are only
        terminated as a last resort after the join timeout -- the common
        path (completion or consumer ``close()``) ends every worker
        cleanly with exit code 0 and no stuck queue feeder threads.
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
