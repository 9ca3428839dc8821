"""Synthetic million-pair mesh: the mesh campaign's scale workload.

The paper's platform measured a full server mesh continuously for 16
months.  The simulated platform reproduces its *figures* faithfully but
tops out around 10^4 pair-campaigns per build -- far from the "millions
of pairs, forever" regime of an always-on campaign.  This
module supplies that regime synthetically: a mesh of up to millions of
pairs whose RTT samples are a **pure counter hash** of
``(seed, pair, absolute round)``, so any sample can be generated at any
time, in any order, on any shard, with no RNG state at all.

Design points:

- **Block units.**  One :class:`StreamUnit` carries a
  ``(block_pairs, rounds)`` matrix (:class:`MeshColumns`), not one pair
  -- per-unit overhead (queue hops, pickles, operator dispatch) is paid
  once per ~thousand pairs, which is what lets a million pairs stream
  through a single consumer process.
- **Stateless sampling.**  ``splitmix64``-style integer mixing (no
  ``numpy.random``), vectorized over the block.  Sharding, windowing
  and resume order can never influence a draw because there is no
  stream to advance -- the same determinism-by-construction story as
  the platform's named RNG streams, taken to its limit.
- **O(1) operator state.**  :class:`MeshStatsOperator` folds each block
  into scalar aggregates plus a fixed-width integer histogram of
  per-pair RTT spreads, so campaign RSS stays flat however many cycles
  the mesh campaign runs.
- **In-place block kernels, bit-identical to the plain formulas.**  A
  block is generated and folded in a few buffers instead of one
  temporary per arithmetic step; the golden digests in
  ``tests/stream/test_mesh.py`` pin the bits.  Each rewrite is exact:

  - SplitMix64 runs in place on the counter words (integer ops wrap
    the same however they are staged), and the seed word is mixed
    once per source.  A block's counter words are one scalar add onto
    a per-source template of the first block's counters.
  - Loss and congestion are decided on integers:
    ``uniform01(w) = k * 2**-53`` with ``k = w >> 11`` is exact, and so
    is ``rate * 2**53``, hence ``uniform01(w) < rate`` exactly when
    ``k < ceil(rate * 2**53)`` (:func:`_uniform_cut`).  NaN is written
    into the RTT buffer in place.
  - Jitter is ``log1p`` in place on the uniforms buffer.
    ``(-u) * c`` and ``u * (-c)`` are bitwise equal (rounding is
    sign-symmetric), and ``k * (-c * 2**-53)`` rounds the same real
    number as ``(k * 2**-53) * -c`` (scaling by a power of two is
    exact), so the scale and the ``1 - 1e-12`` factor are one multiply.
  - The diurnal term is computed for congested rows only (~20%).  For
    every other row it was ``0.0 * sin(...)**2 = +0.0``, and
    ``x + 0.0 = x`` unless ``x`` is ``-0.0``; ``MeshConfig`` rejects
    negative millisecond fields, so no RTT here is negative or ``-0.0``.
  - The fold takes row highs and lows from one column-wise
    ``fmax``/``fmin`` pass over the round columns.  Both skip NaN,
    which is the only non-finite value a block holds, and select
    rather than round, so they equal the finite-masked extremes; an
    all-lost row keeps spread 0.  ``rtt_min``/``rtt_max`` come from
    them.  The sum and square sum stay over the compressed finite
    array (squared in place): numpy's pairwise summation order over
    that 1-D array is what sets their bits.
- **The fold runs where the block is built.**  A shard folds each
  block it builds into a :class:`MeshBlockFold` (counts, the block's
  float sum and square sum, extremes, spread histogram) and ships that
  instead of the matrix; the consumer only absorbs, in unit order
  (:class:`FoldedMeshSource`).  Bit-identity holds because each block's
  sums are computed exactly as before and added in the same order; the
  counts, extremes and histogram do not depend on order.  Moving the
  fold does not save CPU -- it moves it -- but measured on the
  1M-pair, 2-shard campaign the wall was set by the per-message cost of
  the shard queue (pickle, feeder thread, pipe: ~100-170 us of CPU per
  message beside generation), not by the fold: with a 74 KB matrix per
  unit, two shards were slower than one.  A folded unit pickles to
  ~0.7 KB, which lets :class:`~repro.stream.source.ShardedSource`
  ship them in batches.  Measured, the fold alone took under a tenth
  off the wall and batching matrices took nothing; together they took
  off about a third.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.stream.source import StreamUnit, UnitKey

__all__ = [
    "MeshConfig",
    "MeshColumns",
    "MeshBlockFold",
    "SyntheticMeshSource",
    "FoldedMeshSource",
    "MeshStatsOperator",
    "mesh_results",
]

_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)
_MANTISSA_SHIFT = np.uint64(11)
_UNIT = 2.0**-53
"""Spacing of the uniforms: ``uniform01(w) = (w >> 11) * 2**-53``."""


def _mix64(values: np.ndarray, scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """SplitMix64 finalizer over a ``uint64`` array, in place (wrapping).

    ``scratch`` (same shape and dtype) holds the shifted words; it is
    allocated when not given.  Returns ``values``.
    """
    if scratch is None:
        scratch = np.empty_like(values)
    values += _MIX_A
    np.right_shift(values, np.uint64(30), out=scratch)
    values ^= scratch
    values *= _MIX_B
    np.right_shift(values, np.uint64(27), out=scratch)
    values ^= scratch
    values *= _MIX_C
    np.right_shift(values, np.uint64(31), out=scratch)
    values ^= scratch
    return values


def _uniform01(values: np.ndarray) -> np.ndarray:
    """Map mixed ``uint64`` words onto float64 uniforms in ``[0, 1)``."""
    return (values >> _MANTISSA_SHIFT).astype(np.float64) * _UNIT


def _uniform_cut(rate: float) -> np.uint64:
    """The integer ``cut`` with ``uniform01(w) < rate  <=>  (w >> 11) < cut``.

    ``uniform01(w)`` is exactly ``k * 2**-53`` for the integer
    ``k = w >> 11`` (``k < 2**53`` converts to float64 exactly and the
    power-of-two scale is exact), and ``rate * 2**53`` is exact too, so
    ``k * 2**-53 < rate  <=>  k < rate * 2**53  <=>  k < ceil(rate * 2**53)``.
    """
    return np.uint64(math.ceil(rate * 2.0**53))


def _below(words: np.ndarray, rate: float) -> np.ndarray:
    """``uniform01(words) < rate`` in the integer domain (overwrites ``words``)."""
    np.right_shift(words, _MANTISSA_SHIFT, out=words)
    return words < _uniform_cut(rate)


def _check_positive_int(name: str, value: int) -> None:
    """Reject a count that is not an ``int`` >= 1; ``bool`` is no count."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


_ROUND_BITS = 24
_ROUND_CAPACITY = 1 << _ROUND_BITS
"""Rounds addressable per pair (~479 years at 15 min): the counter hash
indexes ``pair * ROUND_CAPACITY + absolute_round``, so round
``ROUND_CAPACITY`` of pair ``p`` would be round 0 of pair ``p + 1``."""

_PAIR_CAPACITY = 1 << (64 - _ROUND_BITS)
"""Pairs addressable before ``pair * ROUND_CAPACITY`` overflows 64 bits."""


@dataclass(frozen=True)
class MeshConfig:
    """Shape and statistics of the synthetic mesh campaign.

    ``rounds_per_cycle`` rounds are generated per campaign cycle at
    ``cadence_hours`` spacing; ``pair * ROUND_CAPACITY + absolute_round``
    indexes the counter hash, so a campaign may run until its absolute
    round reaches ``ROUND_CAPACITY``.  Out-of-range fields, and counts
    that are not integers, raise ``ValueError`` here rather than
    producing a silently wrong mesh.
    """

    pairs: int = 1_000_000
    block_pairs: int = 1024
    rounds_per_cycle: int = 8
    cadence_hours: float = 0.25
    seed: int = 0
    base_rtt_ms: float = 10.0
    spread_rtt_ms: float = 180.0
    jitter_ms: float = 2.0
    diurnal_ms: float = 8.0
    congested_fraction: float = 0.2
    loss_rate: float = 0.01

    def __post_init__(self) -> None:
        for name in ("pairs", "block_pairs", "rounds_per_cycle"):
            _check_positive_int(name, getattr(self, name))
        if self.pairs > _PAIR_CAPACITY:
            raise ValueError(
                f"mesh pairs must be at most 2**{64 - _ROUND_BITS} "
                f"(got {self.pairs}): pair * 2**{_ROUND_BITS} overflows 64 bits"
            )
        if self.rounds_per_cycle > _ROUND_CAPACITY:
            raise ValueError(
                f"rounds_per_cycle must be at most 2**{_ROUND_BITS} "
                f"(got {self.rounds_per_cycle})"
            )
        if isinstance(self.seed, bool) or not (
            isinstance(self.seed, int) and 0 <= self.seed < 1 << 64
        ):
            raise ValueError(
                f"mesh seed must be an integer in [0, 2**64) (got {self.seed!r})"
            )
        if not (math.isfinite(self.cadence_hours) and self.cadence_hours > 0):
            raise ValueError(
                f"cadence_hours must be positive (got {self.cadence_hours})"
            )
        for name in ("base_rtt_ms", "spread_rtt_ms", "jitter_ms", "diurnal_ms"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0 (got {value})")
        for name in ("congested_fraction", "loss_rate"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1] (got {value})")

    @property
    def blocks(self) -> int:
        """Units per cycle (the last block may be ragged)."""
        return -(-self.pairs // self.block_pairs)


@dataclass(frozen=True)
class MeshColumns:
    """One block of mesh pairs as a ``(pairs, rounds)`` RTT matrix.

    Lost rounds are NaN.  ``__len__`` counts samples (matrix cells).
    """

    key: UnitKey
    pair_ids: np.ndarray
    times_hours: np.ndarray
    rtt_ms: np.ndarray
    round_offset: int = 0

    def __len__(self) -> int:
        return int(self.rtt_ms.size)


class SyntheticMeshSource:
    """Random-access block units of one mesh cycle.

    Compatible with :class:`~repro.stream.source.ShardedSource`
    (``__len__`` / ``unit_at``): a million-pair cycle at the default
    block size is ~977 units, each built independently by whichever
    shard owns its stride.
    """

    def __init__(self, config: MeshConfig, cycle: int = 0) -> None:
        self.config = config
        self.cycle = int(cycle)
        last_round = (self.cycle + 1) * config.rounds_per_cycle
        if self.cycle < 0 or last_round > _ROUND_CAPACITY:
            raise ValueError(
                f"mesh cycle {self.cycle} needs absolute rounds up to "
                f"{last_round}; the counter hash addresses rounds "
                f"[0, 2**{_ROUND_BITS}) per pair"
            )
        self._seed_word = _mix64(np.array([config.seed], dtype=np.uint64))[0]
        # Counter words of a block whose first pair is 0; block ``i`` adds
        # ``low * ROUND_CAPACITY`` with one scalar add, not a broadcast.
        rows = min(config.block_pairs, config.pairs)
        first_round = self.cycle * config.rounds_per_cycle
        self._counters = np.add(
            (np.arange(rows, dtype=np.uint64) << np.uint64(_ROUND_BITS))[:, None],
            np.arange(first_round, last_round, dtype=np.uint64),
        )

    def __len__(self) -> int:
        return self.config.blocks

    def unit_at(self, index: int) -> StreamUnit:
        """Build block ``index`` of this cycle from the counter hash.

        Every step writes into the block's own buffers (see the module
        notes for why each rewrite is bit-identical to the plain
        formulation the golden tests pin).
        """
        cfg = self.config
        if not 0 <= index < cfg.blocks:
            raise IndexError(index)
        low = index * cfg.block_pairs
        high = min(low + cfg.block_pairs, cfg.pairs)
        pair_ids = np.arange(low, high, dtype=np.int64)
        pairs = pair_ids.view(np.uint64)
        first_round = self.cycle * cfg.rounds_per_cycle
        absolute = np.arange(
            first_round, first_round + cfg.rounds_per_cycle, dtype=np.uint64
        )

        # Per-pair static character: base RTT, then the congestion and
        # phase words mixed together as one (2, pairs) array.
        pair_words = _mix64(pairs ^ self._seed_word)
        base_u = _uniform01(pair_words)
        base = cfg.base_rtt_ms + cfg.spread_rtt_ms * base_u**2
        traits = _mix64(np.stack([pair_words, pair_words ^ _MIX_B]))
        congested = np.flatnonzero(_below(traits[0], cfg.congested_fraction))

        # Per-sample counter words: pair * capacity + absolute round.
        words = np.add(
            self._counters[: high - low], np.uint64(low << _ROUND_BITS)
        )
        words ^= self._seed_word
        scratch = np.empty_like(words)
        _mix64(words, scratch)

        # Jitter: base - jitter_ms * log1p(-u * (1 - 1e-12)), in the
        # output buffer, with u * 2**-53 * -(1 - 1e-12) as one multiply.
        np.right_shift(words, _MANTISSA_SHIFT, out=scratch)
        rtt = scratch.astype(np.float64)
        rtt *= -(1.0 - 1e-12) * _UNIT
        np.log1p(rtt, out=rtt)
        rtt *= cfg.jitter_ms
        np.subtract(base[:, None], rtt, out=rtt)

        # Diurnal term, congested rows only (elsewhere it is +0.0).
        times = absolute.astype(np.float64) * cfg.cadence_hours
        phase = _uniform01(traits[1, congested])
        diurnal = np.add.outer(phase, (times / 24.0) % 1.0)
        diurnal *= 2.0 * math.pi
        np.sin(diurnal, out=diurnal)
        np.square(diurnal, out=diurnal)
        diurnal *= cfg.diurnal_ms
        rtt[congested] += diurnal

        # Loss: a second mix of the same words, decided on integers.
        rtt[_below(_mix64(words, scratch), cfg.loss_rate)] = np.nan

        obs_metrics.counter("stream.units").inc()
        key: UnitKey = (self.cycle, index, 4)
        return StreamUnit(
            key=key,
            columns=MeshColumns(
                key=key,
                pair_ids=pair_ids,
                times_hours=times,
                rtt_ms=rtt,
                round_offset=first_round,
            ),
        )

    def __iter__(self) -> Iterator[StreamUnit]:
        for index in range(len(self)):
            yield self.unit_at(index)


@dataclass(frozen=True)
class MeshBlockFold:
    """One mesh block folded to what :class:`MeshStatsOperator` keeps.

    A shard ships this instead of the block's matrix: counts, the
    block's float sum and square sum, its RTT extremes, and its spread
    histogram as the slots from ``spread_low`` on (trailing empty slots
    dropped).  ``__len__`` counts samples, like :class:`MeshColumns`.
    """

    samples: int
    lost: int
    rows: int
    rtt_sum: float
    rtt_sq_sum: float
    rtt_min: float
    rtt_max: float
    spread_exceeds: int
    spread_low: int
    spread_counts: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.samples


@dataclass
class MeshStatsOperator:
    """Fold mesh blocks into O(1) aggregate state.

    :meth:`fold` turns one block into a :class:`MeshBlockFold` wherever
    the block is built; :meth:`observe_columns` absorbs the folds in
    unit order.

    Tracks sample/loss counts, RTT moments and extremes, and a
    fixed-width integer histogram of per-pair min-max RTT spreads per
    block -- enough for loss-rate, mean/stddev and spread-percentile
    figures over an arbitrarily long campaign.  Every field accumulates
    in unit order, so a checkpoint/resume replay is bit-identical to an
    uninterrupted run.
    """

    name = "mesh-stats"

    spread_threshold_ms: float = 10.0
    spread_bin_ms: float = 0.5
    spread_max_ms: float = 400.0
    samples: int = 0
    lost: int = 0
    pair_rows: int = 0
    rtt_sum: float = 0.0
    rtt_sq_sum: float = 0.0
    rtt_min: float = math.inf
    rtt_max: float = -math.inf
    spread_exceeds: int = 0
    spread_counts: Optional[np.ndarray] = field(default=None, repr=False)

    def _bins(self) -> int:
        return int(self.spread_max_ms / self.spread_bin_ms) + 1

    def fold(self, columns: MeshColumns) -> MeshBlockFold:
        """Fold one block's matrix into a :class:`MeshBlockFold`.

        Pure: it reads only the spread settings, never the running
        aggregates, so it runs wherever the block is built.  NaN is the
        only non-finite value a mesh block holds (a lost round), so the
        row extremes come from NaN-skipping ``fmax``/``fmin`` folds
        across the round columns; a row with every round lost has NaN
        extremes and spread 0.
        """
        rtt = columns.rtt_ms
        finite = np.isfinite(rtt)
        observed = int(np.count_nonzero(finite))
        highs = rtt[:, 0].copy()
        lows = highs.copy()
        for column in range(1, rtt.shape[1]):
            np.fmax(highs, rtt[:, column], out=highs)
            np.fmin(lows, rtt[:, column], out=lows)
        rtt_sum = rtt_sq_sum = 0.0
        rtt_min, rtt_max = math.inf, -math.inf
        if observed:
            # Sums over the compressed 1-D array: its pairwise summation
            # order is what sets the bits of rtt_sum / rtt_sq_sum.
            present = rtt[finite]
            rtt_sum = float(present.sum())
            rtt_sq_sum = float(np.square(present, out=present).sum())
            rtt_min = float(np.fmin.reduce(lows))
            rtt_max = float(np.fmax.reduce(highs))
        spread = np.subtract(highs, lows, out=highs)
        np.fmax(spread, 0.0, out=spread)  # all-lost rows: NaN -> 0
        exceeds = int(np.count_nonzero(spread > self.spread_threshold_ms))
        spread /= self.spread_bin_ms
        slots = spread.astype(np.int64)
        np.minimum(slots, self._bins() - 1, out=slots)
        spread_low = int(slots.min())
        slots -= spread_low
        return MeshBlockFold(
            samples=int(rtt.size),
            lost=int(rtt.size) - observed,
            rows=int(rtt.shape[0]),
            rtt_sum=rtt_sum,
            rtt_sq_sum=rtt_sq_sum,
            rtt_min=rtt_min,
            rtt_max=rtt_max,
            spread_exceeds=exceeds,
            spread_low=spread_low,
            spread_counts=np.bincount(slots),
        )

    def observe_columns(self, block: MeshBlockFold) -> None:
        """Absorb one folded block into the aggregates, in unit order.

        The float sums are added in the order the blocks arrive, which
        the stream keeps equal to unit order; the counts, extremes and
        histogram do not depend on order at all.
        """
        if self.spread_counts is None:
            self.spread_counts = np.zeros(self._bins(), dtype=np.int64)
        self.samples += block.samples
        self.lost += block.lost
        self.pair_rows += block.rows
        # An all-lost block adds +0.0 and infinite extremes: no change.
        self.rtt_sum += block.rtt_sum
        self.rtt_sq_sum += block.rtt_sq_sum
        self.rtt_min = min(self.rtt_min, block.rtt_min)
        self.rtt_max = max(self.rtt_max, block.rtt_max)
        self.spread_exceeds += block.spread_exceeds
        low = block.spread_low
        self.spread_counts[low:low + block.spread_counts.size] += block.spread_counts

    def _spread_percentile(self, q: float) -> float:
        """Percentile of the spread distribution from the histogram."""
        if self.spread_counts is None or self.pair_rows == 0:
            return 0.0
        target = math.ceil(q * self.pair_rows)
        cumulative = np.cumsum(self.spread_counts)
        slot = int(np.searchsorted(cumulative, target))
        return min(slot * self.spread_bin_ms, self.spread_max_ms)

    def finalize(self) -> Dict[str, object]:
        """Aggregate figures as a JSON-stable dict (deterministic)."""
        observed = self.samples - self.lost
        mean = self.rtt_sum / observed if observed else 0.0
        variance = (
            max(self.rtt_sq_sum / observed - mean * mean, 0.0) if observed else 0.0
        )
        return {
            "samples": self.samples,
            "lost": self.lost,
            "loss_rate": round(self.lost / self.samples, 9) if self.samples else 0.0,
            "pair_rows": self.pair_rows,
            "rtt_mean_ms": round(mean, 9),
            "rtt_stddev_ms": round(math.sqrt(variance), 9),
            "rtt_min_ms": round(self.rtt_min, 9) if observed else None,
            "rtt_max_ms": round(self.rtt_max, 9) if observed else None,
            "spread_p50_ms": self._spread_percentile(0.50),
            "spread_p90_ms": self._spread_percentile(0.90),
            "spread_p99_ms": self._spread_percentile(0.99),
            "spread_exceeds": self.spread_exceeds,
        }


class FoldedMeshSource:
    """A mesh cycle whose units carry folded blocks, not matrices.

    Wraps a :class:`SyntheticMeshSource` with the
    :meth:`MeshStatsOperator.fold` of an operator whose spread settings
    match the consuming operator's.  Under
    :class:`~repro.stream.source.ShardedSource` each shard folds the
    blocks it builds, so a unit crosses the queue as ~0.7 KB instead of
    the block's ~74 KB matrix, and the consumer only absorbs.
    """

    def __init__(self, source: SyntheticMeshSource, operator: MeshStatsOperator) -> None:
        self.source = source
        self.operator = operator

    def __len__(self) -> int:
        return len(self.source)

    def unit_at(self, index: int) -> StreamUnit:
        """Build block ``index`` and fold it."""
        unit = self.source.unit_at(index)
        return StreamUnit(key=unit.key, columns=self.operator.fold(unit.columns))

    def __iter__(self) -> Iterator[StreamUnit]:
        for index in range(len(self)):
            yield self.unit_at(index)


def mesh_results(operator: MeshStatsOperator, cycles: int) -> Dict[str, object]:
    """The mesh campaign's results payload after ``cycles`` cycles."""
    payload = operator.finalize()
    payload["cycles"] = int(cycles)
    return payload
