"""Unit tests for the batch primitives the columnar operators lean on.

Columnar units feed operators whole column blocks through
``observe_columns``; each primitive here must leave exactly the state
its one-sample-at-a-time counterpart would.  The operator-level
record-vs-columns equivalence lives in ``test_operators.py``;
``TestEngineEquivalence`` checks the whole ingest path the service runs,
a sharded columnar source into an operator, against the record path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.datasets.longterm import LongTermConfig
from repro.datasets.mutation import VersionedDict, dict_version
from repro.stream.operators import (
    P2Quantile,
    PathStatsOperator,
    RingWindow,
    batched_diurnal_power_ratios,
    windowed_diurnal_power_ratio,
)
from repro.stream.source import LongTermTraceSource, ShardedSource


def _values_equal(left, right):
    if isinstance(left, float) and isinstance(right, float):
        if math.isnan(left) and math.isnan(right):
            return True
    return left == right


def _ingest(units, period_hours):
    operator = PathStatsOperator(period_hours)
    for unit in units:
        operator.start_unit(unit.key, unit.meta)
        if unit.columns is not None:
            operator.observe_columns(unit.columns)
        else:
            for record in unit.records:
                operator.observe(record)
    return operator.finalize()


class TestEngineEquivalence:
    def test_columnar_sharded_matches_record_path(self, platform):
        config = LongTermConfig(days=10)
        pairs = platform.server_pairs(dual_stack_only=True)[:4]
        records = LongTermTraceSource(platform, config, pairs=pairs, columnar=False)
        columnar = LongTermTraceSource(platform, config, pairs=pairs)
        period = records.grid.period_hours
        expected = _ingest(records, period)
        assert len(expected) == len(records)
        sharded = _ingest(ShardedSource(columnar, shards=2, queue_units=2), period)
        assert list(sharded) == list(expected)
        assert sharded == expected


class TestP2ObserveMany:
    @pytest.mark.parametrize("count", [0, 3, 5, 17, 400])
    def test_matches_sequential_observe(self, count):
        rng = np.random.default_rng(42)
        values = rng.gamma(2.0, 10.0, size=count)
        one_by_one = P2Quantile(0.10)
        for value in values:
            one_by_one.observe(float(value))
        batched = P2Quantile(0.10)
        batched.observe_many(values)
        assert batched.count == one_by_one.count
        assert _values_equal(batched.value(), one_by_one.value())

    def test_chunked_feed_equals_single_feed(self):
        rng = np.random.default_rng(7)
        values = rng.normal(50.0, 5.0, size=101)
        whole = P2Quantile(0.90)
        whole.observe_many(values)
        chunked = P2Quantile(0.90)
        for start in range(0, values.size, 13):
            chunked.observe_many(values[start:start + 13])
        assert chunked.value() == whole.value()


class TestRingWindowExtend:
    @pytest.mark.parametrize("capacity", [4, 16])
    @pytest.mark.parametrize("batch", [1, 3, 4, 5, 11])
    def test_scalar_extend_matches_push(self, capacity, batch):
        rng = np.random.default_rng(3)
        pushed = RingWindow(capacity)
        extended = RingWindow(capacity)
        for _ in range(5):
            values = rng.normal(100.0, 10.0, size=batch)
            for value in values:
                pushed.push(float(value))
            extended.extend(values)
            assert extended.values().tobytes() == pushed.values().tobytes()

    @pytest.mark.parametrize("batch", [2, 7, 16])
    def test_matrix_extend_matches_push(self, batch):
        rng = np.random.default_rng(5)
        rows = 3
        pushed = RingWindow(8, rows=rows)
        extended = RingWindow(8, rows=rows)
        for _ in range(4):
            block = rng.normal(10.0, 1.0, size=(rows, batch))
            for column in range(batch):
                pushed.push(block[:, column])
            extended.extend(block)
            assert extended.values().tobytes() == pushed.values().tobytes()

    def test_extend_empty_is_noop(self):
        window = RingWindow(4)
        window.push(1.0)
        window.extend(np.empty(0))
        assert window.values().tolist() == [1.0]


class TestBatchedDiurnal:
    def test_matches_scalar_path(self):
        rng = np.random.default_rng(11)
        hours = np.arange(0, 72, 0.25)
        series_list = []
        # Mixed shapes: diurnal, flat noise, too-short, NaN-ridden.
        series_list.append(
            100 + 10 * np.sin(2 * np.pi * hours / 24) + rng.normal(0, 1, hours.size)
        )
        series_list.append(rng.normal(100, 1, hours.size))
        series_list.append(np.array([1.0, 2.0, 3.0]))
        noisy = rng.normal(100, 1, hours.size)
        noisy[::3] = np.nan
        series_list.append(noisy)
        series_list.append(np.full(40, np.nan))

        batched = batched_diurnal_power_ratios(series_list, period_hours=0.25)
        assert len(batched) == len(series_list)
        for series, ratio in zip(series_list, batched):
            expected = windowed_diurnal_power_ratio(series, period_hours=0.25)
            if math.isnan(expected):
                assert math.isnan(ratio)
            else:
                assert ratio == expected


class TestVersionedDict:
    def test_version_bumps_on_every_mutator(self):
        mapping = VersionedDict()
        seen = {dict_version(mapping)}

        def check():
            version = dict_version(mapping)
            assert version not in seen
            seen.add(version)

        mapping["a"] = 1
        check()
        mapping.update(b=2)
        check()
        mapping.setdefault("c", 3)
        check()
        del mapping["a"]
        check()
        mapping.pop("b")
        check()
        mapping.popitem()
        check()
        mapping["d"] = 4
        check()
        mapping.clear()
        check()

    def test_plain_dict_version_tracks_size(self):
        plain = {"a": 1}
        first = dict_version(plain)
        plain["b"] = 2
        assert dict_version(plain) != first

    def test_pickle_round_trip(self):
        # The artifact cache pickles datasets whose timeline maps are
        # VersionedDicts; the default dict-subclass protocol would call
        # __setitem__ before the version slot exists.
        import pickle

        mapping = VersionedDict({"a": 1})
        mapping["b"] = 2
        restored = pickle.loads(
            pickle.dumps(mapping, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert type(restored) is VersionedDict
        assert dict(restored) == {"a": 1, "b": 2}
        assert restored.version == mapping.version
        restored["c"] = 3
        assert restored.version == mapping.version + 1
