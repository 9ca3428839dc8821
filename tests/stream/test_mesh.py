"""Tests for the synthetic mesh source and its O(1) operator."""

import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest

from repro.stream.mesh import (
    FoldedMeshSource,
    MeshColumns,
    MeshConfig,
    MeshStatsOperator,
    SyntheticMeshSource,
    _uniform01,
    _uniform_cut,
    mesh_results,
)
from repro.stream.source import ShardedSource, WindowedSource

CONFIG = MeshConfig(pairs=1000, block_pairs=256, rounds_per_cycle=8)


class TestSyntheticMeshSource:
    def test_block_layout(self):
        source = SyntheticMeshSource(CONFIG)
        assert len(source) == 4  # ceil(1000 / 256), last block ragged
        first = source.unit_at(0).columns
        last = source.unit_at(3).columns
        assert first.rtt_ms.shape == (256, 8)
        assert last.rtt_ms.shape == (1000 - 3 * 256, 8)
        assert last.pair_ids[0] == 3 * 256

    def test_units_are_bit_identical_across_builds(self):
        a = SyntheticMeshSource(CONFIG, cycle=2).unit_at(1).columns
        b = SyntheticMeshSource(CONFIG, cycle=2).unit_at(1).columns
        np.testing.assert_array_equal(a.rtt_ms, b.rtt_ms)
        np.testing.assert_array_equal(a.times_hours, b.times_hours)

    def test_order_independent_sampling(self):
        source = SyntheticMeshSource(CONFIG)
        backwards = [source.unit_at(i).columns for i in reversed(range(4))]
        forwards = [source.unit_at(i).columns for i in range(4)]
        for early, late in zip(forwards, reversed(backwards)):
            np.testing.assert_array_equal(early.rtt_ms, late.rtt_ms)

    def test_cycles_continue_the_round_counter(self):
        cycle0 = SyntheticMeshSource(CONFIG, cycle=0).unit_at(0).columns
        cycle1 = SyntheticMeshSource(CONFIG, cycle=1).unit_at(0).columns
        assert cycle0.round_offset == 0
        assert cycle1.round_offset == 8
        assert cycle1.times_hours[0] == pytest.approx(8 * CONFIG.cadence_hours)
        # Different rounds hash to different samples.
        assert not np.array_equal(cycle0.rtt_ms, cycle1.rtt_ms, equal_nan=True)

    def test_seed_changes_every_sample_stream(self):
        a = SyntheticMeshSource(CONFIG).unit_at(0).columns
        b = (
            SyntheticMeshSource(MeshConfig(
                pairs=1000, block_pairs=256, rounds_per_cycle=8, seed=1
            )).unit_at(0).columns
        )
        assert not np.array_equal(a.rtt_ms, b.rtt_ms, equal_nan=True)

    def test_loss_rate_is_roughly_configured(self):
        config = MeshConfig(pairs=4096, block_pairs=4096, loss_rate=0.05)
        columns = SyntheticMeshSource(config).unit_at(0).columns
        observed = np.isnan(columns.rtt_ms).mean()
        assert observed == pytest.approx(0.05, abs=0.01)

    def test_records_match_columns(self):
        columns = SyntheticMeshSource(CONFIG, cycle=1).unit_at(2).columns
        records = list(columns.records())
        assert len(records) == len(columns)
        first = records[0]
        assert first.src == int(columns.pair_ids[0])
        assert first.round_index == columns.round_offset
        cell = float(columns.rtt_ms[0, 0])
        assert (first.rtt_ms == cell) or (
            math.isnan(first.rtt_ms) and math.isnan(cell)
        )

    def test_window_concatenation_matches_full_block(self):
        source = SyntheticMeshSource(CONFIG)
        full = source.unit_at(0).columns
        lowhalf = WindowedSource(source, 0, 4).unit_at(0).columns
        highhalf = WindowedSource(source, 4, 8).unit_at(0).columns
        rejoined = np.concatenate([lowhalf.rtt_ms, highhalf.rtt_ms], axis=1)
        np.testing.assert_array_equal(rejoined, full.rtt_ms)
        assert highhalf.round_offset == 4

    def test_out_of_range_block_raises(self):
        source = SyntheticMeshSource(CONFIG)
        with pytest.raises(IndexError):
            source.unit_at(4)

    def test_sharded_feed_matches_ordered_feed(self):
        source = SyntheticMeshSource(CONFIG)
        operator_a = MeshStatsOperator()
        for unit in source:
            operator_a.observe_columns(operator_a.fold(unit.columns))
        operator_b = MeshStatsOperator()
        sharded = ShardedSource(source, shards=2, queue_units=2)
        for unit in sharded:
            operator_b.observe_columns(operator_b.fold(unit.columns))
        assert operator_a.finalize() == operator_b.finalize()


class TestMeshStatsOperator:
    def _folded(self, cycles=2):
        operator = MeshStatsOperator()
        for cycle in range(cycles):
            for unit in SyntheticMeshSource(CONFIG, cycle=cycle):
                operator.start_unit(unit.key)
                operator.observe_columns(operator.fold(unit.columns))
        return operator

    def test_counts_add_up(self):
        operator = self._folded()
        assert operator.samples == 1000 * 8 * 2
        assert operator.pair_rows == 1000 * 2
        figures = operator.finalize()
        assert figures["lost"] == operator.lost
        assert figures["loss_rate"] == pytest.approx(CONFIG.loss_rate, abs=0.01)
        assert figures["rtt_min_ms"] >= CONFIG.base_rtt_ms
        assert figures["rtt_mean_ms"] > figures["rtt_min_ms"]

    def test_spread_percentiles_are_monotone(self):
        figures = self._folded().finalize()
        assert (
            0.0
            <= figures["spread_p50_ms"]
            <= figures["spread_p90_ms"]
            <= figures["spread_p99_ms"]
        )
        assert figures["spread_exceeds"] > 0

    def test_all_lost_block_is_harmless(self):
        operator = MeshStatsOperator()
        columns = SyntheticMeshSource(CONFIG).unit_at(0).columns
        all_lost = type(columns)(
            key=columns.key,
            pair_ids=columns.pair_ids,
            times_hours=columns.times_hours,
            rtt_ms=np.full_like(columns.rtt_ms, np.nan),
        )
        operator.observe_columns(operator.fold(all_lost))
        figures = operator.finalize()
        assert figures["lost"] == figures["samples"]
        assert figures["rtt_min_ms"] is None
        assert figures["spread_p99_ms"] == 0.0

    def test_checkpoint_replay_is_bit_identical(self):
        source = SyntheticMeshSource(CONFIG)
        straight = MeshStatsOperator()
        for unit in source:
            straight.observe_columns(straight.fold(unit.columns))

        resumed = MeshStatsOperator()
        for unit in (source.unit_at(0), source.unit_at(1)):
            resumed.observe_columns(resumed.fold(unit.columns))
        resumed = pickle.loads(pickle.dumps(resumed))  # kill + restore
        for unit in (source.unit_at(2), source.unit_at(3)):
            resumed.observe_columns(resumed.fold(unit.columns))
        assert straight.finalize() == resumed.finalize()

    def test_mesh_results_appends_cycles(self):
        operator = self._folded(cycles=1)
        payload = mesh_results(operator, 7)
        assert payload["cycles"] == 7
        assert payload["samples"] == operator.samples


def _sha256(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestGoldenPins:
    """Exact bits of generated blocks and of a folded campaign.

    The kernels are free to change how they compute, never what: every
    digest below was recorded from the straightforward (one temporary
    per step) formulation, so any drifted bit fails here, not only in
    the benchmark's digest check.
    """

    @pytest.mark.parametrize(
        "config, cycle, index, expected",
        [
            pytest.param(
                CONFIG, 0, 0,
                "28f2f6fbe0374d9aafdd043377f1de7c54fbce506cf50f436f4f786fc45352e4",
                id="first-block",
            ),
            pytest.param(
                CONFIG, 0, 3,
                "6211a461cc47de22fd2d2ec19c19f9c2ee82d1e3741ebc4d5d7dae1c8026e8a4",
                id="ragged-last-block",
            ),
            pytest.param(
                dataclasses.replace(CONFIG, seed=1), 0, 0,
                "ff16e0aced9d0a190224ec2be49412b41bf22d642b16d1a8a818552bab09db98",
                id="seed-1",
            ),
            pytest.param(
                CONFIG, 5, 1,
                "273687cf98f487781415f633e5bafd2e55a701a6d0b2a695468835aa1dcefbde",
                id="cycle-5",
            ),
            pytest.param(
                dataclasses.replace(CONFIG, loss_rate=0.05), 0, 2,
                "66e1ea573a25e1c4a124f6d7d9e6404d69aff3d7ab15c218d958d9bc90742bf6",
                id="loss-0.05",
            ),
            pytest.param(
                dataclasses.replace(CONFIG, congested_fraction=0.0), 0, 0,
                "b2852da3813a9a397316d815209bfe9e993802179ac57c472217466dc0ccf5e9",
                id="congested-0",
            ),
            pytest.param(
                dataclasses.replace(CONFIG, congested_fraction=1.0), 0, 0,
                "3e68c024333d518145e630603bdbc9cee011861d9ce59006b007b09ce03ab522",
                id="congested-1",
            ),
        ],
    )
    def test_block_bits(self, config, cycle, index, expected):
        block = SyntheticMeshSource(config, cycle=cycle).unit_at(index).columns
        assert _sha256(block.rtt_ms) == expected

    def test_two_cycle_fold_bits(self):
        operator = MeshStatsOperator()
        for cycle in range(2):
            for unit in SyntheticMeshSource(CONFIG, cycle=cycle):
                operator.start_unit(unit.key)
                operator.observe_columns(operator.fold(unit.columns))
        assert operator.finalize() == {
            "samples": 16000,
            "lost": 165,
            "loss_rate": 0.0103125,
            "pair_rows": 2000,
            "rtt_mean_ms": 72.851192748,
            "rtt_stddev_ms": 53.830922065,
            "rtt_min_ms": 10.007601795,
            "rtt_max_ms": 204.657146054,
            "spread_p50_ms": 4.5,
            "spread_p90_ms": 8.5,
            "spread_p99_ms": 13.0,
            "spread_exceeds": 109,
        }
        assert operator.rtt_sum.hex() == "0x1.19a3ea31db3f9p+20"
        assert operator.rtt_sq_sum.hex() == "0x1.efa206e98d0d6p+26"
        assert _sha256(operator.spread_counts) == (
            "43ea82d4f7c9eee90448160b665a0227c047c5051dbe8e12a0d0963033167457"
        )


class TestKernelEdgeCases:
    def test_lost_and_single_sample_rows(self):
        nan = np.nan
        rtt = np.array(
            [
                [nan, nan, nan, nan],  # every round lost
                [nan, 42.0, nan, nan],  # one finite sample
                [12.0, nan, 30.5, 11.0],  # lowest and highest of the block
                [nan, nan, nan, nan],
                [20.0, 20.0, nan, 20.0],  # finite but flat
            ]
        )
        columns = MeshColumns(
            key=(0, 0, 4),
            pair_ids=np.arange(5, dtype=np.int64),
            times_hours=np.arange(4, dtype=np.float64),
            rtt_ms=rtt,
        )
        operator = MeshStatsOperator(spread_threshold_ms=10.0)
        operator.observe_columns(operator.fold(columns))
        assert operator.samples == 20
        assert operator.lost == 13
        assert operator.pair_rows == 5
        assert operator.rtt_min == 11.0
        assert operator.rtt_max == 42.0
        present = rtt[np.isfinite(rtt)]
        assert operator.rtt_sum == float(present.sum())
        assert operator.rtt_sq_sum == float(np.square(present).sum())
        # Spreads: 0 (all lost), 0 (single), 19.5, 0 (all lost), 0 (flat).
        assert operator.spread_exceeds == 1
        expected = np.zeros_like(operator.spread_counts)
        expected[0] = 4
        expected[int(19.5 / operator.spread_bin_ms)] = 1
        np.testing.assert_array_equal(operator.spread_counts, expected)

    @pytest.mark.parametrize("rate", [0.0, 1e-9, 0.01, 0.25, 0.5, 1.0])
    def test_integer_loss_cut_matches_float_test(self, rate):
        cut = int(_uniform_cut(rate))
        ks = [k for k in (cut - 1, cut, cut + 1) if 0 <= k < 2**53]
        # Each k with its low 11 bits clear and set: both map to k * 2**-53.
        words = np.array(
            [word for k in ks for word in (k << 11, (k << 11) | 0x7FF)],
            dtype=np.uint64,
        )
        assert ks
        np.testing.assert_array_equal(
            (words >> np.uint64(11)) < _uniform_cut(rate),
            _uniform01(words) < rate,
        )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("loss_rate", -0.01),
            ("loss_rate", 1.5),
            ("loss_rate", math.nan),
            ("congested_fraction", -0.1),
            ("congested_fraction", 1.01),
            ("cadence_hours", 0.0),
            ("cadence_hours", -0.25),
            ("cadence_hours", math.inf),
            ("base_rtt_ms", -1.0),
            ("spread_rtt_ms", -180.0),
            ("jitter_ms", -2.0),
            ("diurnal_ms", -8.0),
            ("jitter_ms", math.inf),
            ("seed", -1),
            ("seed", 2**64),
            ("rounds_per_cycle", 2**24 + 1),
        ],
    )
    def test_out_of_range_fields_raise(self, field, value):
        with pytest.raises(ValueError, match=field.split("_")[0]):
            dataclasses.replace(CONFIG, **{field: value})

    def test_boundary_values_are_accepted(self):
        dataclasses.replace(
            CONFIG, loss_rate=0.0, congested_fraction=1.0, base_rtt_ms=0.0,
            spread_rtt_ms=0.0, jitter_ms=0.0, diurnal_ms=0.0, seed=2**64 - 1,
        )
        dataclasses.replace(CONFIG, loss_rate=1.0, congested_fraction=0.0)

    def test_pairs_beyond_the_counter_space_raise(self):
        # Pair ids 0 .. 2**40 - 1 fit in pair * 2**24 + round < 2**64;
        # one more pair would wrap onto pair 0's counters.
        assert MeshConfig(pairs=2**40, block_pairs=2**20).blocks == 2**20
        with pytest.raises(ValueError, match="pairs"):
            MeshConfig(pairs=2**40 + 1)

    def test_cycles_beyond_the_round_capacity_raise(self):
        config = MeshConfig(pairs=10, block_pairs=10, rounds_per_cycle=8)
        last = 2**24 // 8 - 1  # absolute rounds [2**24 - 8, 2**24)
        block = SyntheticMeshSource(config, cycle=last).unit_at(0).columns
        assert block.round_offset == 2**24 - 8
        with pytest.raises(ValueError, match="cycle"):
            SyntheticMeshSource(config, cycle=last + 1)
        with pytest.raises(ValueError, match="cycle"):
            SyntheticMeshSource(config, cycle=-1)


# ----------------------------------------------------------------------
# The plain formulation of both kernels (one temporary per step), kept
# as the reference the in-place kernels must match bit for bit.
# ----------------------------------------------------------------------


def _reference_mix64(values):
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _reference_uniform01(values):
    return (values >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def _reference_block(config, cycle, index):
    low = index * config.block_pairs
    high = min(low + config.block_pairs, config.pairs)
    pairs = np.arange(low, high, dtype=np.uint64)
    rounds = config.rounds_per_cycle
    absolute = np.arange(cycle * rounds, (cycle + 1) * rounds, dtype=np.uint64)
    seed = _reference_mix64(np.array([[config.seed]], dtype=np.uint64))
    pair_words = _reference_mix64(pairs ^ seed[0])
    base = (
        config.base_rtt_ms
        + config.spread_rtt_ms * _reference_uniform01(pair_words) ** 2
    )
    congested = (
        _reference_uniform01(_reference_mix64(pair_words))
        < config.congested_fraction
    )
    amplitude = np.where(congested, config.diurnal_ms, 0.0)
    phase = _reference_uniform01(_reference_mix64(pair_words ^ np.uint64(0xBF58476D1CE4E5B9)))
    counters = pairs[:, None] * np.uint64(2**24) + absolute[None, :]
    words = _reference_mix64(counters ^ seed)
    jitter_u = _reference_uniform01(words)
    loss_u = _reference_uniform01(_reference_mix64(words))
    day_fraction = ((absolute.astype(np.float64) * config.cadence_hours) / 24.0) % 1.0
    diurnal = amplitude[:, None] * (
        np.sin(2.0 * math.pi * (day_fraction[None, :] + phase[:, None])) ** 2
    )
    rtt = (
        base[:, None]
        - config.jitter_ms * np.log1p(-jitter_u * (1.0 - 1e-12))
        + diurnal
    )
    return np.where(loss_u < config.loss_rate, np.nan, rtt)


def _reference_fold(blocks, bin_ms=0.5, bins=801, threshold_ms=10.0):
    state = {"lost": 0, "sum": 0.0, "sq": 0.0, "min": math.inf,
             "max": -math.inf, "exceeds": 0, "counts": np.zeros(bins, np.int64)}
    for rtt in blocks:
        finite = np.isfinite(rtt)
        state["lost"] += int(rtt.size - finite.sum())
        present = rtt[finite]
        if present.size:
            state["sum"] += float(present.sum())
            state["sq"] += float(np.square(present).sum())
            state["min"] = min(state["min"], float(present.min()))
            state["max"] = max(state["max"], float(present.max()))
        highs = np.where(finite, rtt, -np.inf).max(axis=1)
        lows = np.where(finite, rtt, np.inf).min(axis=1)
        spread = np.where(finite.sum(axis=1) > 0, highs - lows, 0.0)
        state["exceeds"] += int((spread > threshold_ms).sum())
        slots = np.minimum((spread / bin_ms).astype(np.int64), bins - 1)
        state["counts"] += np.bincount(slots, minlength=bins)
    return state


class TestReferenceEquivalence:
    @pytest.mark.parametrize(
        "overrides, cycle",
        [
            ({}, 0),
            ({"pairs": 7, "block_pairs": 3, "rounds_per_cycle": 13}, 3),
            ({"seed": 2**64 - 1, "cadence_hours": 7.3}, 1000),
            ({"base_rtt_ms": 0.0, "spread_rtt_ms": 0.0, "jitter_ms": 0.0}, 1),
            ({"diurnal_ms": 0.0, "congested_fraction": 1.0}, 2),
            ({"loss_rate": 1.0}, 0),
            ({"loss_rate": 0.0, "congested_fraction": 1e-9}, 4),
            ({"loss_rate": 0.5, "rounds_per_cycle": 1}, 2**24 - 1),
        ],
    )
    def test_blocks_and_fold_match_plain_formulas(self, overrides, cycle):
        config = dataclasses.replace(CONFIG, **overrides)
        source = SyntheticMeshSource(config, cycle=cycle)
        operator = MeshStatsOperator()
        blocks = []
        for index in range(len(source)):
            columns = source.unit_at(index).columns
            expected = _reference_block(config, cycle, index)
            assert columns.rtt_ms.tobytes() == expected.tobytes()
            operator.observe_columns(operator.fold(columns))
            blocks.append(expected)
        reference = _reference_fold(blocks)
        assert operator.lost == reference["lost"]
        assert operator.rtt_sum.hex() == reference["sum"].hex()
        assert operator.rtt_sq_sum.hex() == reference["sq"].hex()
        assert operator.rtt_min == reference["min"]
        assert operator.rtt_max == reference["max"]
        assert operator.spread_exceeds == reference["exceeds"]
        np.testing.assert_array_equal(operator.spread_counts, reference["counts"])

    @pytest.mark.parametrize(
        "overrides, cycle",
        [
            ({}, 0),
            ({"loss_rate": 1.0}, 0),
            ({"loss_rate": 0.5, "rounds_per_cycle": 1, "block_pairs": 16}, 9),
            ({"pairs": 7, "block_pairs": 3, "rounds_per_cycle": 13}, 3),
        ],
    )
    def test_blocks_folded_in_shards_match_plain_formulas(self, overrides, cycle):
        # The campaign path: each shard folds the blocks it builds, the
        # folds cross the queue pickled, the consumer absorbs them.
        config = dataclasses.replace(CONFIG, **overrides)
        blocks = SyntheticMeshSource(config, cycle=cycle)
        folded = FoldedMeshSource(blocks, MeshStatsOperator())
        operator = MeshStatsOperator()
        for unit in ShardedSource(folded, shards=2, queue_units=1):
            operator.start_unit(unit.key)
            operator.observe_columns(unit.columns)
        reference = _reference_fold(
            _reference_block(config, cycle, index) for index in range(len(blocks))
        )
        assert operator.samples == config.pairs * config.rounds_per_cycle
        assert operator.pair_rows == config.pairs
        assert operator.lost == reference["lost"]
        assert operator.rtt_sum.hex() == reference["sum"].hex()
        assert operator.rtt_sq_sum.hex() == reference["sq"].hex()
        assert operator.rtt_min == reference["min"]
        assert operator.rtt_max == reference["max"]
        assert operator.spread_exceeds == reference["exceeds"]
        np.testing.assert_array_equal(operator.spread_counts, reference["counts"])
