"""Tests for the pull-based stream sources."""

import math

import numpy as np
import pytest

from repro.datasets.longterm import LongTermConfig, build_longterm_dataset
from repro.datasets.shortterm import ShortTermConfig, build_shortterm_ping_dataset
from repro.obs import metrics as obs_metrics
from repro.stream.source import (
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
