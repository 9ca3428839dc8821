"""Bit-exact batched PCG64 seeding for planned stream fan-outs.

The hot dataset builders create one named RNG stream per (pair, epoch)
-- ``SeedSequence([base_seed, digest])`` into a fresh ``PCG64`` -- and a
full-mesh build seeds ~20k of them.  Each seeding costs ~15us, almost
all of it Python-level ``SeedSequence.__init__`` plus per-instance
``PCG64`` construction; over a build that is a noticeable slice of the
columnar wall clock.

This module replays SeedSequence's entropy-pool mixing (Blackman &
Vigna's splitmix-style hash, unchanged in numpy since 1.17) as a
vectorized numpy computation over *all* streams at once, then derives
each stream's 128-bit PCG64 ``(state, inc)`` directly from the mixed
words, in numpy too: a 128-bit value is a pair of uint64 columns (high
and low words), and the one 128-bit product is carried through 32-bit
halves.  Only the finished states become Python ints.  One recycled
``PCG64`` + ``Generator`` pair is re-stated per stream instead of
constructing fresh objects.

Bit-identity is non-negotiable, so the replication is **checked, not
trusted**: the first call to :func:`pcg64_states` verifies the whole
chain against ``np.random.SeedSequence``/``np.random.PCG64`` on a set of
fixed vectors, and any mismatch (a future numpy changing its mixing)
flips the module permanently onto the reference path -- slower, still
exact.  Rows whose entropy coerces to an unusual word count (a digest
with a zero high word, ~2^-32 of them) also take the reference path
rather than complicating the batched kernel.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.obs.trace import get_tracer

__all__ = ["pcg64_states", "replication_ok", "RecycledGenerator"]

_LOG = get_logger("repro.measurement.fastseed")

# SeedSequence's entropy-pool mixing constants (numpy's _seed_seq_pool
# hash; stable across every numpy release since the Generator API
# landed).  These are hash-mixing multipliers, not seeds.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_POOL_SIZE = 4
_M32 = 0xFFFFFFFF

_U64_M32 = np.uint64(_M32)
_U64_MIX_L = np.uint64(_MIX_L)
_U64_MIX_R = np.uint64(_MIX_R)
_XSHIFT = np.uint64(16)
_HALF = np.uint64(32)
_ONE = np.uint64(1)
_TOP_SHIFT = np.uint64(63)

# PCG64's LCG multiplier and seeding recipe: numpy feeds
# ``generate_state(4, uint64)`` into pcg64_srandom_r, which folds the
# four words into (initstate, initseq) and advances once.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HIGH = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LOW = np.uint64(_PCG_MULT & (2**64 - 1))

_replication_checked: Optional[bool] = None


def _entropy_words(value: int) -> List[int]:
    """``value`` as little-endian 32-bit words, numpy's entropy coercion."""
    if value == 0:
        return [0]
    words: List[int] = []
    while value:
        words.append(value & _M32)
        value >>= 32
    return words


def _mix_batch(words: np.ndarray) -> np.ndarray:
    """SeedSequence pool mixing + state generation over ``(n, W)`` rows.

    Every row is one entropy word list (all the same length ``W``); the
    result is ``(n, 8)`` -- the row's ``generate_state(8, uint32)``
    words.  All arithmetic is elementwise 32-bit modular (carried in
    uint64 and masked), so the whole batch costs a few dozen numpy ops.
    """
    n, width = words.shape
    hash_const = _INIT_A

    def hashmix(value: np.ndarray, const: int) -> Tuple[np.ndarray, int]:
        value = (value ^ np.uint64(const)) & _U64_M32
        const = (const * _MULT_A) & _M32
        value = (value * np.uint64(const)) & _U64_M32
        value ^= value >> _XSHIFT
        return value, const

    def mix(dst: np.ndarray, src: np.ndarray) -> np.ndarray:
        result = (dst * _U64_MIX_L) & _U64_M32
        result = (result - ((src * _U64_MIX_R) & _U64_M32)) & _U64_M32
        result ^= result >> _XSHIFT
        return result

    pool: List[np.ndarray] = []
    for index in range(_POOL_SIZE):
        if index < width:
            column = words[:, index]
        else:
            column = np.zeros(n, dtype=np.uint64)
        mixed, hash_const = hashmix(column, hash_const)
        pool.append(mixed)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed, hash_const = hashmix(pool[i_src], hash_const)
                pool[i_dst] = mix(pool[i_dst], mixed)
    for i_src in range(_POOL_SIZE, width):
        for i_dst in range(_POOL_SIZE):
            # hashmix runs once per (src, dst): the hash constant keeps
            # advancing inside the inner loop, exactly as numpy's does.
            mixed, hash_const = hashmix(words[:, i_src], hash_const)
            pool[i_dst] = mix(pool[i_dst], mixed)

    out = np.empty((n, 8), dtype=np.uint64)
    hash_const = _INIT_B
    for index in range(8):
        value = (pool[index % _POOL_SIZE] ^ np.uint64(hash_const)) & _U64_M32
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * np.uint64(hash_const)) & _U64_M32
        value ^= value >> _XSHIFT
        out[:, index] = value
    return out


def _join(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Two columns of 32-bit words as one column of 64-bit words."""
    return (high << _HALF) | low


def _add128(
    a_high: np.ndarray, a_low: np.ndarray, b_high: np.ndarray, b_low: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``a + b`` mod 2**128 over (high, low) uint64 columns."""
    low = a_low + b_low
    return a_high + b_high + (low < a_low), low


def _mul128(
    high: np.ndarray, low: np.ndarray, factor_high: np.uint64, factor_low: np.uint64
) -> Tuple[np.ndarray, np.ndarray]:
    """``(high, low) * factor`` mod 2**128 over uint64 columns.

    uint64 products wrap mod 2**64, which gives every term but the high
    word of ``low * factor_low``; that one is summed from 32-bit halves,
    whose products fit.
    """
    low0, low1 = low & _U64_M32, low >> _HALF
    factor0, factor1 = factor_low & _U64_M32, factor_low >> _HALF
    p00, p01 = low0 * factor0, low0 * factor1
    p10, p11 = low1 * factor0, low1 * factor1
    middle = (p00 >> _HALF) + (p01 & _U64_M32) + (p10 & _U64_M32)
    carry = p11 + (p01 >> _HALF) + (p10 >> _HALF) + (middle >> _HALF)
    return carry + low * factor_high + high * factor_low, low * factor_low


def _pcg_states(state_words: np.ndarray) -> List[Tuple[int, int]]:
    """``(state, inc)`` per row of eight uint32 state words (``(n, 8)``).

    PCG64's seeding: ``initstate`` and ``initseq`` are the rows' two
    128-bit halves, ``inc = initseq << 1 | 1`` and ``state = (inc +
    initstate) * MULT + inc``, all mod 2**128.
    """
    words = state_words.T
    init_high, init_low = _join(words[1], words[0]), _join(words[3], words[2])
    seq_high, seq_low = _join(words[5], words[4]), _join(words[7], words[6])
    inc_high = (seq_high << _ONE) | (seq_low >> _TOP_SHIFT)
    inc_low = (seq_low << _ONE) | _ONE
    state = _mul128(*_add128(inc_high, inc_low, init_high, init_low),
                    _PCG_MULT_HIGH, _PCG_MULT_LOW)
    state_high, state_low = _add128(*state, inc_high, inc_low)
    # Each row's two values as 16 little-endian bytes, read into Python
    # ints row by row: no column of transient ints is left to fragment
    # the heap between the lasting ones.
    rows = np.empty((state_low.size, 4), dtype="<u8")
    rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3] = state_low, state_high, inc_low, inc_high
    raw = memoryview(rows.tobytes())
    return [
        (int.from_bytes(raw[start:start + 16], "little"),
         int.from_bytes(raw[start + 16:start + 32], "little"))
        for start in range(0, len(raw), 32)
    ]


def _reference_state(entropy: Sequence[int]) -> Tuple[int, int]:
    """``(state, inc)`` through numpy itself -- exact by definition."""
    seed = np.random.SeedSequence(list(entropy))
    raw = np.random.PCG64(seed).state["state"]
    return int(raw["state"]), int(raw["inc"])


def _batch_states(entropies: Sequence[Sequence[int]]) -> List[Tuple[int, int]]:
    """Batched ``(state, inc)`` for same-word-count entropy lists."""
    rows = [
        [word for value in entropy for word in _entropy_words(value)]
        for entropy in entropies
    ]
    width = len(rows[0])
    assert all(len(row) == width for row in rows)
    return _pcg_states(_mix_batch(np.array(rows, dtype=np.uint64)))


def _digest_states(base_seed: int, digests: Sequence[int]) -> List[Tuple[int, int]]:
    """Batched ``(state, inc)`` of ``[base_seed, digest]`` for 64-bit
    digests with a nonzero high word.

    Every row is the base seed's entropy words, then the digest's two,
    split in numpy.
    """
    base_words = _entropy_words(base_seed)
    values = np.array(digests, dtype=np.uint64)
    words = np.empty((values.size, len(base_words) + 2), dtype=np.uint64)
    words[:, :len(base_words)] = base_words
    words[:, -2] = values & _U64_M32
    words[:, -1] = values >> _HALF
    return _pcg_states(_mix_batch(words))


def replication_ok() -> bool:
    """One-time self-check of the replicated seeding against numpy.

    Vectors are derived from the mixing constants themselves (no ad-hoc
    seed literals) and cover one-, two- and many-word entropies plus the
    zero word; the ``[base_seed, digest]`` one also goes through the
    digest path :func:`pcg64_states` batches.  A single mismatch
    disables the fast path for the life of the process.
    """
    global _replication_checked
    if _replication_checked is not None:
        return _replication_checked
    vectors = [
        [0],
        [_INIT_A],
        [_MULT_A, _INIT_B],
        [_MIX_L, (_MIX_R << 32) | _MULT_B],
        [(_PCG_MULT >> 64) & (2**64 - 1), _PCG_MULT & (2**64 - 1), _INIT_B],
        [_INIT_A, _MULT_A, _INIT_B, _MULT_B, _MIX_L, _MIX_R],
    ]
    with get_tracer().span("fastseed:selfcheck", vectors=len(vectors)):
        try:
            ok = all(
                _batch_states([entropy]) == [_reference_state(entropy)]
                for entropy in vectors
            ) and _digest_states(vectors[3][0], vectors[3][1:]) == [_reference_state(vectors[3])]
        except Exception:  # pragma: no cover - any surprise means "don't trust it"
            ok = False
    _replication_checked = ok
    if ok:
        obs_metrics.counter("fastseed.selfcheck.ok").inc()
    else:
        # The fallback is correct but ~10x slower per stream; a silent
        # flip here would read as a mystery perf cliff, so make it loud.
        obs_metrics.counter("fastseed.selfcheck.failed").inc()
        _LOG.warning(
            "fastseed.selfcheck_failed",
            numpy=np.__version__,
            effect="reference seeding path for the whole process (~10x "
                   "slower stream planning)",
        )
    return ok


def pcg64_states(base_seed: int, digests: Sequence[int]) -> List[Tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence([base_seed, digest])``.

    Bit-identical to seeding through numpy, one tuple per digest.  The
    common case (64-bit digests with a nonzero high word, so every row
    coerces to the same word count) runs through the batched kernel;
    stragglers and un-verified environments use numpy directly.
    """
    if not digests:
        return []
    if base_seed < 0 or not replication_ok():
        obs_metrics.counter("fastseed.streams.reference").inc(len(digests))
        return [_reference_state([base_seed, digest]) for digest in digests]
    batched: List[int] = []
    states: List[Optional[Tuple[int, int]]] = [None] * len(digests)
    for index, digest in enumerate(digests):
        if digest >> 32 and digest >> 64 == 0:
            batched.append(index)
        else:
            states[index] = _reference_state([base_seed, digest])
    if batched:
        resolved = _digest_states(base_seed, [digests[index] for index in batched])
        for index, state in zip(batched, resolved):
            states[index] = state
    obs_metrics.counter("fastseed.streams.batched").inc(len(batched))
    if len(batched) != len(digests):
        obs_metrics.counter("fastseed.streams.reference").inc(
            len(digests) - len(batched)
        )
    return states  # type: ignore[return-value]


class RecycledGenerator:
    """One ``PCG64`` + ``Generator`` pair re-stated per stream.

    ``set(state, inc)`` rewinds the shared bit generator to a planned
    stream's exact start and returns the shared ``Generator``.  Callers
    must fully consume one stream before requesting the next -- the
    planned builders do (one stream per epoch, sampled to completion
    inside the epoch loop).
    """

    __slots__ = ("_bit_generator", "_generator", "_template")

    def __init__(self) -> None:
        # The constructor seed is irrelevant: every use overwrites the
        # complete bit-generator state before any draw.
        self._bit_generator = np.random.PCG64(np.random.SeedSequence(0))  # repro: noqa[DET010] -- placeholder state, fully overwritten by set()
        self._generator = np.random.Generator(self._bit_generator)
        self._template = {
            "bit_generator": "PCG64",
            "state": {"state": 0, "inc": 0},
            "has_uint32": 0,
            "uinteger": 0,
        }

    def set(self, state: int, inc: int) -> np.random.Generator:
        inner = self._template["state"]
        inner["state"] = state
        inner["inc"] = inc
        self._bit_generator.state = self._template
        return self._generator
