"""Tests for the pull-based stream sources."""

import math
import time

import numpy as np
import pytest

from repro.datasets.longterm import LongTermConfig, build_longterm_dataset
from repro.datasets.shortterm import ShortTermConfig, build_shortterm_ping_dataset
from repro.faults.plane import SupervisionPolicy
from repro.obs import metrics as obs_metrics
from repro.stream.source import (
    _BATCH_UNITS,
    LongTermTraceSource,
    PingSource,
    ShardError,
    ShardedSource,
)


def _rtts_equal(a, b):
    return (a == b) or (math.isnan(a) and math.isnan(b))


class TestLongTermTraceSource:
    @pytest.mark.parametrize("columnar", [False, True])
    def test_units_match_batch_timelines(self, platform, columnar):
        config = LongTermConfig(days=10)
        pairs = platform.server_pairs(dual_stack_only=True)[:3]
        batch = build_longterm_dataset(platform, config, pairs=pairs)
        source = LongTermTraceSource(
            platform, config, pairs=pairs, columnar=columnar
        )

        assert len(source) == len(batch.timelines)
        for unit in source:
            timeline = batch.timelines[
                (unit.key[0], unit.key[1], unit.key[2])
            ]
            assert unit.record_count == timeline.rtt_ms.size
            rtts = timeline.rtt_ms.tolist()
            outcomes = timeline.outcome.tolist()
            for index, record in enumerate(unit.iter_records()):
                assert _rtts_equal(record.rtt_ms, rtts[index])
                assert record.outcome == outcomes[index]
                assert record.round_index == index

    def test_window_check_mirrors_batch(self, platform):
        with pytest.raises(ValueError, match="platform simulates only"):
            LongTermTraceSource(platform, LongTermConfig(days=10_000))


class TestPingSource:
    @pytest.mark.parametrize("columnar", [False, True])
    def test_units_match_batch_timelines(self, platform, columnar):
        config = ShortTermConfig(ping_days=2.0)
        pairs = platform.server_pairs()[:3]
        batch = build_shortterm_ping_dataset(platform, config, pairs=pairs)
        source = PingSource(platform, config, pairs=pairs, columnar=columnar)

        assert len(source) == len(batch.timelines)
        for unit in source:
            timeline = batch.timelines[(unit.key[0], unit.key[1], unit.key[2])]
            rtts = timeline.rtt_ms.tolist()
            assert unit.record_count == len(rtts)
            for index, record in enumerate(unit.iter_records()):
                assert _rtts_equal(record.rtt_ms, rtts[index])


class TestShardedSource:
    def test_sharded_equals_serial(self, platform):
        config = LongTermConfig(days=10)
        pairs = platform.server_pairs(dual_stack_only=True)[:3]
        serial = list(LongTermTraceSource(platform, config, pairs=pairs))
        sharded = list(
            ShardedSource(
                LongTermTraceSource(platform, config, pairs=pairs),
                shards=3,
                queue_units=2,
            )
        )
        assert len(sharded) == len(serial)
        for left, right in zip(serial, sharded):
            assert left.key == right.key
            assert left.record_count == right.record_count
            for a, b in zip(left.iter_records(), right.iter_records()):
                assert _rtts_equal(a.rtt_ms, b.rtt_ms)
                assert a.outcome == b.outcome
                assert a.as_path == b.as_path

    def test_iter_from_offset(self, platform):
        config = LongTermConfig(days=10)
        pairs = platform.server_pairs(dual_stack_only=True)[:2]
        source = LongTermTraceSource(platform, config, pairs=pairs)
        full = [unit.key for unit in ShardedSource(source, shards=2).iter_from(0)]
        tail = [unit.key for unit in ShardedSource(source, shards=2).iter_from(2)]
        assert tail == full[2:]

    def test_rejects_bad_queue_bound(self, platform):
        source = LongTermTraceSource(
            platform, LongTermConfig(days=10),
            pairs=platform.server_pairs(dual_stack_only=True)[:1],
        )
        with pytest.raises(ValueError, match="queue_units"):
            ShardedSource(source, shards=2, queue_units=0)

    def test_trim_keeps_realization_cache_bounded(self, platform):
        config = LongTermConfig(days=10)
        pairs = platform.server_pairs(dual_stack_only=True)[:3]
        source = LongTermTraceSource(platform, config, pairs=pairs)
        for _ in source:
            pass
        trimmed_pairs = {(src.server_id, dst.server_id) for src, dst, _ in source.tasks}
        leftover = [
            key for key in platform._realizations
            if (key[0], key[1]) in trimmed_pairs
        ]
        assert leftover == []


class _ExplodingSource:
    """Fake source whose fourth unit dies after doing partial work."""

    kind = "test"

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
    """Fake source whose units each take a fixed time to build."""

    kind = "test"

    def __init__(self, units, seconds):
        self.units = units
        self.seconds = seconds

    def __len__(self):
        return self.units

    def unit_at(self, index):
        time.sleep(self.seconds)
        return index


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
        # A full batch of these units takes longer than the stall
        # timeout; batches must ship early enough that the supervisor
        # never mistakes a busy shard for a hung one.
        policy = SupervisionPolicy(stall_timeout_s=0.4, poll_s=0.02)
        assert _BATCH_UNITS * 0.04 > policy.stall_timeout_s
        registry = obs_metrics.get_registry()
        restarts = registry.counter("shard.restarts").value
        sharded = ShardedSource(
            _SlowSource(units=4 * _BATCH_UNITS, seconds=0.04),
            shards=2, queue_units=2, supervision=policy,
        )
        assert list(sharded) == list(range(4 * _BATCH_UNITS))
        assert registry.counter("shard.restarts").value == restarts

    def test_units_near_the_stall_timeout_are_not_held_back(self):
        # Each unit alone takes 0.6x the stall timeout, so holding a
        # built unit while the next one builds would look like a stall.
        policy = SupervisionPolicy(stall_timeout_s=1.0, poll_s=0.02)
        registry = obs_metrics.get_registry()
        restarts = registry.counter("shard.restarts").value
        missing = registry.counter("stream.units_missing").value
        sharded = ShardedSource(
            _SlowSource(units=6, seconds=0.6), shards=2, queue_units=2,
            supervision=policy,
        )
        assert list(sharded) == list(range(6))
        assert registry.counter("shard.restarts").value == restarts
        assert registry.counter("stream.units_missing").value == missing
