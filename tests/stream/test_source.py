"""Tests for the sharded stream fan-out."""

import queue
import time
from collections import deque

import pytest

from repro.obs import metrics as obs_metrics
from repro.stream import source as stream_source
from repro.stream.source import (
    _BATCH_S,
    _BATCH_UNITS,
    _DONE,
    ShardError,
    ShardedSource,
    _merge_lag,
    _shard_worker,
    _ShardWire,
)


def _mesh_source(units, block_pairs=16):
    from repro.stream.mesh import MeshConfig, SyntheticMeshSource

    return SyntheticMeshSource(
        MeshConfig(pairs=units * block_pairs, block_pairs=block_pairs)
    )


class TestShardedSource:
    def test_sharded_equals_serial(self):
        source = _mesh_source(units=7)
        serial = [source.unit_at(index) for index in range(len(source))]
        sharded = list(ShardedSource(source, shards=3, queue_units=2))
        assert len(sharded) == len(serial)
        for left, right in zip(serial, sharded):
            assert left.key == right.key
            assert left.record_count == right.record_count
            assert left.columns.rtt_ms.tobytes() == right.columns.rtt_ms.tobytes()

    def test_iter_from_offset(self):
        source = _mesh_source(units=5)
        full = [unit.key for unit in ShardedSource(source, shards=2).iter_from(0)]
        tail = [unit.key for unit in ShardedSource(source, shards=2).iter_from(2)]
        assert tail == full[2:]

    @pytest.mark.parametrize("queue_units", [1, 3])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_every_fanout_delivers_the_serial_stream(self, shards, queue_units):
        source = _mesh_source(units=7)
        sharded = list(ShardedSource(source, shards, queue_units))
        assert [unit.key for unit in sharded] == [
            source.unit_at(index).key for index in range(7)
        ]
        for index, unit in enumerate(sharded):
            assert (
                unit.columns.rtt_ms.tobytes()
                == source.unit_at(index).columns.rtt_ms.tobytes()
            )

    @pytest.mark.parametrize("start", range(8))
    def test_iter_from_each_offset_is_the_serial_tail(self, start):
        source = _mesh_source(units=7)
        keys = [unit.key for unit in ShardedSource(source, shards=3).iter_from(start)]
        assert keys == [source.unit_at(index).key for index in range(start, 7)]

    @pytest.mark.parametrize("start, workers", [(0, 3), (4, 3), (5, 2), (6, 0)])
    def test_forks_no_more_shards_than_units_remain(self, start, workers):
        sharded = ShardedSource(_mesh_source(units=7), shards=3)
        list(sharded.iter_from(start))
        assert len(sharded.last_workers) == workers

    def test_sharded_stream_records_merge_lag_at_every_pop(self):
        source = _mesh_source(units=7)
        lag = obs_metrics.get_registry().histogram(
            "stream.merge_lag_units", buckets=stream_source._LAG_BUCKETS
        )
        before = lag.count
        list(ShardedSource(source, shards=2))
        assert lag.count - before == 7
        list(ShardedSource(source, shards=1))
        assert lag.count - before == 7  # the serial loop has no merge

    def test_rejects_bad_queue_bound(self):
        with pytest.raises(ValueError, match="queue_units"):
            ShardedSource(_mesh_source(units=1), shards=2, queue_units=0)


class _ExplodingSource:
    """Fake source whose fourth unit dies after doing partial work."""

    def __len__(self):
        return 6

    def unit_at(self, index):
        registry = obs_metrics.get_registry()
        registry.counter("test.shard_crash.units_built").inc()
        if index == 3:
            registry.counter("test.shard_crash.partial_work").inc(2)
            raise RuntimeError("boom at unit 3")
        return index


class TestShardErrorContext:
    def test_shard_error_carries_metrics_delta(self):
        source = ShardedSource(_ExplodingSource(), shards=2, queue_units=2)
        registry = obs_metrics.get_registry()
        partial_before = registry.counter("test.shard_crash.partial_work").value

        with pytest.raises(ShardError) as err:
            list(source.iter_from(0))

        # Worker 1 owns units 1, 3, 5 and dies building unit 3.
        assert err.value.shard == 1
        delta = err.value.metrics_delta
        assert delta["counters"]["test.shard_crash.partial_work"] == 2
        assert delta["counters"]["test.shard_crash.units_built"] == 1

        message = str(err.value)
        assert "stream shard 1 failed" in message
        assert "metrics delta:" in message
        assert "test.shard_crash.partial_work=2" in message
        assert "boom at unit 3" in message  # the worker traceback rides along

        # The doomed unit's delta is merged into the parent registry too.
        partial_after = registry.counter("test.shard_crash.partial_work").value
        assert partial_after == partial_before + 2

    def test_shard_error_without_counters_carries_only_the_traceback(self):
        error = ShardError(0, "Traceback: boom", None)
        assert str(error) == "stream shard 0 failed\nTraceback: boom"
        assert error.shard == 0
        assert error.metrics_delta == {}


class TestMergeLag:
    class _SizedQueue:
        def __init__(self, size):
            self.size = size

        def qsize(self):
            return self.size

    def test_counts_held_units_and_queued_messages_as_full_batches(self):
        held = [deque([1, 2]), deque(), deque([3])]
        queues = [self._SizedQueue(size) for size in (1, 2, 0)]
        assert _merge_lag(queues, held) == 2 + 1 + _BATCH_UNITS * 3

    def test_empty_fanout_has_no_lag(self):
        assert _merge_lag([self._SizedQueue(0)] * 2, [deque(), deque()]) == 0


class TestShardedDrain:
    """Deterministic shutdown of a sharded stream mid-ingest."""

    def _source(self):
        from repro.stream.mesh import MeshConfig, SyntheticMeshSource

        return SyntheticMeshSource(
            MeshConfig(pairs=4096, block_pairs=256)  # 16 units
        )

    def test_close_mid_stream_joins_all_workers(self):
        sharded = ShardedSource(self._source(), shards=3, queue_units=1)
        iterator = sharded.iter_from(0)
        seen = [next(iterator).key for _ in range(4)]
        iterator.close()
        assert len(seen) == 4
        assert sharded.last_workers, "fan-out should have forked workers"
        for worker in sharded.last_workers:
            assert not worker.is_alive()
            # exitcode 0 means the stop flag drained the worker; a
            # negative code would mean the parent fell back to terminate.
            assert worker.exitcode == 0

    def test_exhausted_stream_leaves_workers_dead(self):
        sharded = ShardedSource(self._source(), shards=2, queue_units=2)
        units = list(sharded.iter_from(0))
        assert len(units) == 16
        for worker in sharded.last_workers:
            assert not worker.is_alive()
            assert worker.exitcode == 0

    def test_drained_resume_from_offset_is_exact(self):
        source = self._source()
        serial_keys = [source.unit_at(i).key for i in range(16)]
        sharded = ShardedSource(source, shards=2, queue_units=1)
        iterator = sharded.iter_from(0)
        head = [next(iterator).key for _ in range(5)]
        iterator.close()
        tail = [
            unit.key
            for unit in ShardedSource(source, shards=2, queue_units=1).iter_from(5)
        ]
        assert head + tail == serial_keys


class _SlowSource:
    """Fake source whose units each take a fixed time to build; records
    when each build began (only in the process that builds it)."""

    def __init__(self, units, seconds):
        self.units = units
        self.seconds = seconds
        self.started = {}

    def __len__(self):
        return self.units

    def unit_at(self, index):
        self.started[index] = time.monotonic()
        time.sleep(self.seconds)
        return index


class _RecordingQueue:
    """Stands in for a shard queue: records each message and when it left."""

    def __init__(self):
        self.sent = []

    def put(self, message, timeout=None):
        self.sent.append((time.monotonic(), message))


class _NeverStop:
    def is_set(self):
        return False


def _ship_one_shard(source):
    """Run one shard's worker loop in-process; its batches with ship times."""
    queue = _RecordingQueue()
    _shard_worker(source, 0, 1, 0, queue, _NeverStop())
    assert queue.sent[-1][1] == (_DONE, None, None)
    batches = [(shipped, entries) for shipped, (tag, entries, _) in queue.sent[:-1]]
    assert [tag for _, (tag, _, _) in queue.sent[:-1]] == ["batch"] * len(batches)
    shipped_indexes = [index for _, entries in batches for _, index, _ in entries]
    assert shipped_indexes == list(range(len(source)))
    return batches


class TestBatchedWire:
    """Units cross a shard queue in batches of up to ``_BATCH_UNITS``."""

    SHARDS = 2
    # More than three messages per shard, and not a multiple of
    # shards * batch, so each stride ends on a ragged batch.
    UNITS = 3 * SHARDS * _BATCH_UNITS + 2 * SHARDS + 1

    def _source(self):
        from repro.stream.mesh import MeshConfig, SyntheticMeshSource

        return SyntheticMeshSource(
            MeshConfig(pairs=self.UNITS * 16 - 5, block_pairs=16)
        )

    def _assert_units_equal(self, got, want):
        assert got.key == want.key
        assert got.columns.rtt_ms.tobytes() == want.columns.rtt_ms.tobytes()
        assert got.columns.pair_ids.tobytes() == want.columns.pair_ids.tobytes()

    def test_sharded_equals_serial_unit_by_unit(self):
        source = self._source()
        assert len(source) == self.UNITS
        registry = obs_metrics.get_registry()
        before = registry.counter("stream.units").value
        sharded = list(ShardedSource(source, shards=self.SHARDS, queue_units=2))
        # One registry delta per message still adds up to every unit.
        assert registry.counter("stream.units").value - before == self.UNITS
        serial = [source.unit_at(index) for index in range(self.UNITS)]
        assert len(sharded) == len(serial)
        for got, want in zip(sharded, serial):
            self._assert_units_equal(got, want)

    def test_close_mid_batch_leaves_workers_exited_cleanly(self):
        sharded = ShardedSource(self._source(), shards=self.SHARDS, queue_units=1)
        iterator = sharded.iter_from(0)
        # Inside every shard's second batch.
        for _ in range(self.SHARDS * _BATCH_UNITS + 3):
            next(iterator)
        iterator.close()
        assert len(sharded.last_workers) == self.SHARDS
        for worker in sharded.last_workers:
            assert not worker.is_alive()
            assert worker.exitcode == 0

    def test_iter_from_inside_a_batch_resumes_exactly(self):
        source = self._source()
        start = self.SHARDS * _BATCH_UNITS + 5
        resumed = list(
            ShardedSource(source, shards=self.SHARDS, queue_units=1).iter_from(start)
        )
        assert len(resumed) == self.UNITS - start
        for offset, got in enumerate(resumed):
            self._assert_units_equal(got, source.unit_at(start + offset))

    def test_slow_units_ship_before_the_stall_timeout(self):
        # A full batch of these units takes longer than 0.4 s; batches
        # must ship within _BATCH_S plus one unit's build of their first
        # unit's start, so a busy shard never looks hung for 0.4 s.
        seconds, bound = 0.04, 0.4
        assert _BATCH_UNITS * seconds > bound > _BATCH_S + seconds
        source = _SlowSource(units=2 * _BATCH_UNITS, seconds=seconds)
        for shipped, entries in _ship_one_shard(source):
            assert len(entries) < _BATCH_UNITS  # shipped early, not full
            assert shipped - source.started[entries[0][1]] < bound

    def test_units_near_the_stall_timeout_are_not_held_back(self):
        # Each unit alone takes 0.6 s: holding a built unit while the
        # next one builds would keep it 1.2 s, so each ships alone, as
        # soon as it is built.
        seconds, bound = 0.6, 1.0
        source = _SlowSource(units=3, seconds=seconds)
        for shipped, entries in _ship_one_shard(source):
            assert len(entries) == 1
            assert shipped - source.started[entries[0][1]] < bound


class _StopAfterFirstTry:
    def __init__(self):
        self.checks = 0

    def is_set(self):
        self.checks += 1
        return self.checks > 1


class _FullQueue:
    def __init__(self):
        self.attempts = 0

    def put(self, message, timeout=None):
        self.attempts += 1
        raise queue.Full


class TestShardWire:
    """The worker end of a shard queue, driven in-process."""

    @pytest.fixture
    def no_clock(self, monkeypatch):
        # Batches ship on size alone, however slowly the host runs.
        monkeypatch.setattr(stream_source, "_BATCH_S", 3600.0)

    def _wire(self):
        sink = _RecordingQueue()
        return _ShardWire(sink, _NeverStop()), sink

    def test_a_full_batch_ships_at_once_and_the_tail_on_finish(self, no_clock):
        wire, sink = self._wire()
        for index in range(_BATCH_UNITS + 3):
            wire.begin_unit()
            assert wire.add("unit", index, index * 10)
        assert len(sink.sent) == 1
        tag, entries, _ = sink.sent[0][1]
        assert tag == "batch"
        assert entries == [("unit", i, i * 10) for i in range(_BATCH_UNITS)]
        wire.finish()
        assert [message[0] for _, message in sink.sent] == ["batch", "batch", _DONE]
        assert [index for _, index, _ in sink.sent[1][1][1]] == [
            _BATCH_UNITS, _BATCH_UNITS + 1, _BATCH_UNITS + 2,
        ]
        assert sink.sent[2][1] == (_DONE, None, None)

    def test_flush_of_nothing_sends_nothing(self):
        wire, sink = self._wire()
        assert wire.flush() is True
        assert sink.sent == []

    def test_put_gives_up_once_the_consumer_has_drained_away(self):
        full = _FullQueue()
        wire = _ShardWire(full, _StopAfterFirstTry())
        assert wire.put(("batch", [], {})) is False
        assert full.attempts == 1

    def test_batch_carries_the_counters_its_units_recorded(self, no_clock):
        wire, sink = self._wire()
        built = obs_metrics.get_registry().counter("test.shard_wire.built")
        for index in range(3):
            wire.begin_unit()
            built.inc()
            wire.add("unit", index, None)
        wire.finish()
        _, _, delta = sink.sent[0][1]
        assert delta["counters"]["test.shard_wire.built"] == 3

    def test_fail_ships_the_units_before_the_failing_one_then_its_delta(
        self, no_clock
    ):
        wire, sink = self._wire()
        registry = obs_metrics.get_registry()
        wire.begin_unit()
        registry.counter("test.shard_wire.whole").inc()
        wire.add("unit", 0, "payload")
        wire.begin_unit()
        registry.counter("test.shard_wire.partial").inc(5)
        wire.fail("Traceback: boom")
        (_, batch), (_, error) = sink.sent
        assert batch[0] == "batch"
        assert batch[1] == [("unit", 0, "payload")]
        assert batch[2]["counters"] == {"test.shard_wire.whole": 1}
        assert error[:2] == ("error", "Traceback: boom")
        assert error[2]["counters"] == {"test.shard_wire.partial": 5}

    def test_worker_stopped_before_its_first_unit_ships_nothing(self):
        class _Stopped:
            def is_set(self):
                return True

        sink = _RecordingQueue()
        _shard_worker(_mesh_source(units=3), 0, 1, 0, sink, _Stopped())
        assert sink.sent == []

    @pytest.mark.parametrize("start", [0, 2])
    @pytest.mark.parametrize("worker", [0, 1, 2])
    def test_worker_builds_every_shards_th_unit_from_start(self, worker, start):
        source = _mesh_source(units=8)
        sink = _RecordingQueue()
        _shard_worker(source, worker, 3, start, sink, _NeverStop())
        assert sink.sent[-1][1] == (_DONE, None, None)
        shipped = [
            index
            for _, (tag, entries, _) in sink.sent[:-1]
            for _, index, _ in entries
        ]
        assert shipped == list(range(start + worker, 8, 3))
