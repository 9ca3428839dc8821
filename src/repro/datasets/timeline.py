"""Per-pair measurement containers.

A *trace timeline* is the paper's unit of analysis (Section 4.1): "the set
of all traceroutes from one server to another".  :class:`TraceTimeline`
stores one timeline compactly -- per-sample RTT, outcome class and observed
AS path id over a shared time grid -- plus the ground-truth candidate index
per sample, which the simulator knows and real measurements do not (tests
and ablations use it; the analysis pipeline never does).

Timelines are immutable once built: the dataclasses are frozen and their
arrays read-only.  That makes it safe for each timeline to compute its
derived products -- per-path sample counts and the route-change count,
hour-of-day groups -- once, on first use, and hand the same read-only
values to every analysis that asks.  The usable-sample views (mask,
indexes, path ids) and the sorted AS-path buckets are cheaper to derive
than to hold: the views cost one comparison over the outcome codes per
call, and the buckets are sorted only on the way to the percentiles that
are memoized instead.  The products live in a private memo that is never
pickled, so a timeline pickles to the same bytes before and after any
analysis.

The long-term corpus is the largest thing a run holds, so its columns
are compact.  A timeline stores its path ids in the narrowest signed
dtype that holds them (:func:`path_id_dtype`): int8 for a table of at
most 128 paths, which is every timeline the scenarios build, so a
sample takes 6 bytes with the float32 RTT and the uint8 outcome.  The
constructor applies that rule, so every builder ends in the same layout,
and a pickle holds it as built.  The ground-truth candidate
index is constant within each routing epoch, so it is stored as runs
(int8 :data:`CANDIDATE_DTYPE` values) and its per-sample column is
derived on each read; the builders hand over the runs of their sampled
epochs (:func:`epoch_runs`).  :class:`PathTable` refuses a path table
whose ids would not fit :data:`PATH_ID_DTYPE`, and :func:`compact_column`
narrows columns to a dtype after checking that they fit.

Population analyses fill the memos of many timelines in one pass:
:func:`population_products` hands a kernel only the timelines whose memo
lacks a product, and :func:`stack_by_grid` lays ping timelines that
share a time grid out as one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.measurement.platform import CANDIDATE_DTYPE
from repro.measurement.traceroute import TraceOutcome
from repro.net.asn import ASN
from repro.net.ip import IPVersion

__all__ = [
    "PATH_ID_DTYPE",
    "CANDIDATE_DTYPE",
    "MAX_PATHS",
    "PathTable",
    "path_id_dtype",
    "compact_column",
    "CandidateRuns",
    "epoch_runs",
    "TraceTimeline",
    "PingTimeline",
    "PingStack",
    "population_products",
    "stack_by_grid",
]

# The usable outcomes are exactly the codes up to MISSING_IP.
_LAST_USABLE = int(TraceOutcome.MISSING_IP)
_OUTCOME_RANGE = (int(min(TraceOutcome)), int(max(TraceOutcome)))

HOURS_PER_DAY = 24

_SIGN_BIT = 0x80000000
"""The sign bit of a float32's bits."""

_PRODUCTS = "_products"
"""Instance attribute holding the memo of derived products (not pickled)."""


PATH_ID_DTYPE = np.dtype(np.int16)
"""Widest dtype of :attr:`TraceTimeline.path_id` (and that of the
builders' working columns); :data:`CANDIDATE_DTYPE` (from
:mod:`repro.measurement.platform`, whose config keeps ``max_alternatives``
within it) is that of :attr:`TraceTimeline.true_candidate`."""

MAX_PATHS = int(np.iinfo(PATH_ID_DTYPE).max)
"""Most distinct AS paths one timeline's path table may hold."""


def path_id_dtype(path_count: int) -> np.dtype:
    """The dtype a timeline stores path ids in, for a ``path_count``-path table.

    The narrowest signed dtype holding ids ``-1`` up to ``path_count - 1``:
    int8 for at most 128 paths, else :data:`PATH_ID_DTYPE`.
    """
    narrow = np.dtype(np.int8)
    return narrow if path_count <= np.iinfo(narrow).max + 1 else PATH_ID_DTYPE


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def compact_column(array: np.ndarray, dtype: np.dtype, name: str) -> np.ndarray:
    """``array`` as ``dtype``, after checking that every value fits.

    Returns ``array`` itself when it already has ``dtype``, as a view
    when its dtype is an equal but distinct object (as after unpickling,
    so a re-pickled column shares the dtype in the pickle's memo like a
    fresh one); an integer column in another dtype is copied narrowed.

    Raises:
        ValueError: ``array`` is not an integer column, or holds a value
            outside ``dtype``'s range.
    """
    if array.dtype == dtype:
        return array if array.dtype is dtype else array.view(dtype)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be an integer column, got {array.dtype}")
    info = np.iinfo(dtype)
    if array.size and (array.min() < info.min or array.max() > info.max):
        raise ValueError(f"{name} holds values outside {dtype}")
    return array.astype(dtype)


class PathTable:
    """A timeline's AS-path table while it is built: path -> dense id.

    Ids are handed out in first-seen order; ``paths`` lists the table.
    """

    def __init__(self, pair: Tuple[int, int]) -> None:
        self.pair = pair
        self.paths: List[Tuple[ASN, ...]] = []
        self._index: Dict[Tuple[ASN, ...], int] = {}

    def intern(self, path: Tuple[ASN, ...]) -> int:
        """The id of ``path``, adding it to the table if it is new.

        Raises:
            ValueError: The table would pass :data:`MAX_PATHS` entries
                (the largest :data:`PATH_ID_DTYPE` value).
        """
        index = self._index.get(path)
        if index is None:
            index = len(self.paths)
            if index >= MAX_PATHS:
                raise ValueError(
                    f"pair {self.pair} observed more than {MAX_PATHS} distinct "
                    f"AS paths; path ids are {PATH_ID_DTYPE}"
                )
            self.paths.append(path)
            self._index[path] = index
        return index


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

    def _memo(self) -> Dict[Hashable, Any]:
        memo = self.__dict__.get(_PRODUCTS)
        if memo is None:
            memo = {}
            object.__setattr__(self, _PRODUCTS, memo)
        return memo

    def product(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """``compute()``, run once per ``key`` for this timeline.

        Analyses memoize their own per-timeline results here too, under
        tuple keys that name them; the value is shared, so it must not
        be mutated.
        """
        memo = self._memo()
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


_RUN_BOUNDS = "_candidate_bounds"
_RUN_VALUES = "_candidate_values"


class CandidateRuns(NamedTuple):
    """A column as runs of equal values.

    Run ``k`` holds ``values[k]`` over samples ``bounds[k]`` up to
    ``bounds[k + 1]``; adjacent runs differ.  ``bounds`` (int32) ends at
    the column's length, and an empty column is one bound, ``[0]``, and
    no values.
    """

    bounds: np.ndarray
    values: np.ndarray


def _runs(column: np.ndarray) -> CandidateRuns:
    """``column`` as runs; ``values`` keeps the column's dtype."""
    changes = np.flatnonzero(column[1:] != column[:-1]) + 1
    bounds = np.concatenate(([0], changes, [column.size])) if column.size else np.zeros(1)
    bounds = bounds.astype(np.int32)
    return CandidateRuns(_read_only(bounds), _read_only(column[bounds[:-1]]))


def epoch_runs(count: int, epochs: Iterable[Tuple[int, int, int]]) -> CandidateRuns:
    """The candidate column of a built timeline, as runs.

    ``epochs`` lists the sampled routing epochs as ``(low, high,
    candidate)``, ascending and disjoint: the column holds ``candidate``
    over samples ``low`` up to ``high`` and ``-1`` everywhere else, over
    ``count`` samples.  Equal to the runs of that column, without it.
    """
    bounds = [0]
    values: List[int] = []

    def extend(end: int, value: int) -> None:
        if end <= bounds[-1]:
            return
        if values and values[-1] == value:
            bounds[-1] = end
        else:
            bounds.append(end)
            values.append(value)

    for low, high, candidate in epochs:
        extend(low, -1)
        extend(high, candidate)
    extend(count, -1)
    return CandidateRuns(
        _read_only(np.asarray(bounds, dtype=np.int32)),
        _read_only(np.asarray(values, dtype=CANDIDATE_DTYPE)),
    )


class _CandidateColumn:
    """:attr:`TraceTimeline.true_candidate`: a column kept as its runs.

    A data descriptor, so the dataclass constructor's value goes to
    :meth:`__set__`: a per-sample column is reduced to its runs, and
    :class:`CandidateRuns` are kept as given, their values narrowed to
    :data:`CANDIDATE_DTYPE`.  Every read derives the read-only
    per-sample column again.  The field's default, ``None``, stands for
    an empty column.
    """

    def __get__(self, timeline: Any, owner: Any = None) -> Any:
        if timeline is None:
            return None
        bounds, values = timeline.candidate_runs()
        return _read_only(np.repeat(values, np.diff(bounds)))

    def __set__(self, timeline: Any, column: Any) -> None:
        if column is None:
            column = np.empty(0, dtype=CANDIDATE_DTYPE)
        runs = column if isinstance(column, CandidateRuns) else _runs(np.asarray(column))
        values = compact_column(runs.values, CANDIDATE_DTYPE, "true_candidate")
        vars(timeline).update({_RUN_BOUNDS: runs.bounds, _RUN_VALUES: _read_only(values)})


def _stored_path_ids(path_id: np.ndarray, paths: Sequence[Any]) -> np.ndarray:
    """``path_id`` in :func:`path_id_dtype` of the table size (checked)."""
    return compact_column(path_id, path_id_dtype(len(paths)), "path_id")


# eq=False: identity equality and hash; a field-wise == over arrays raises.
@dataclass(frozen=True, eq=False)
class TraceTimeline(_Memoized):
    """All traceroutes from one server to another over one protocol.

    Attributes:
        src_server_id / dst_server_id: Endpoints.
        version: IP version of the probes.
        times_hours: Shared measurement grid.
        rtt_ms: End-to-end RTT per sample (float32, checked; NaN when the
            destination was not reached).
        outcome: :class:`~repro.measurement.traceroute.TraceOutcome` per
            sample (uint8).
        path_id: Index into :attr:`paths` of the observed AS path per sample
            (``-1`` for incomplete samples).  Any integer column is
            accepted and stored as :func:`path_id_dtype` of the table
            size, so int8 for at most 128 paths.
        paths: Distinct observed AS paths for this timeline.
        true_candidate: Ground-truth candidate-route index per sample
            (held as int8, :data:`CANDIDATE_DTYPE`; ``-1`` when the
            destination was unreachable).  Simulator metadata -- not
            visible to the analysis pipeline.  Either empty or one entry
            per sample; the builders pass :class:`CandidateRuns`
            instead.  Held as runs (:meth:`candidate_runs`); each read
            derives a fresh read-only column.

    Raises:
        ValueError: A column's length does not match the time grid, the
            RTT column is not float32, an outcome is outside
            :class:`TraceOutcome`, or a path id does not fit the table
            size's dtype.
    """

    _ARRAYS = ("times_hours", "rtt_ms", "outcome", "path_id", _RUN_BOUNDS, _RUN_VALUES)

    src_server_id: int
    dst_server_id: int
    version: IPVersion
    times_hours: np.ndarray
    rtt_ms: np.ndarray
    outcome: np.ndarray
    path_id: np.ndarray
    paths: List[Tuple[ASN, ...]] = field(default_factory=list)
    true_candidate: np.ndarray = _CandidateColumn()  # type: ignore[assignment]

    def __post_init__(self) -> None:
        count = self.times_hours.size
        for name in ("rtt_ms", "outcome", "path_id"):
            if getattr(self, name).size != count:
                raise ValueError(f"{name} length does not match the time grid")
        if self.rtt_ms.dtype != np.float32:
            raise ValueError(f"rtt_ms must be float32, got {self.rtt_ms.dtype}")
        if self.candidate_runs()[0][-1] not in (0, count):
            raise ValueError("true_candidate length does not match the time grid")
        if count and (
            self.outcome.min() < _OUTCOME_RANGE[0] or self.outcome.max() > _OUTCOME_RANGE[1]
        ):
            raise ValueError("outcome holds a code outside TraceOutcome")
        object.__setattr__(self, "path_id", _stored_path_ids(self.path_id, self.paths))
        self._freeze()

    def __len__(self) -> int:
        return int(self.times_hours.size)

    def candidate_runs(self) -> CandidateRuns:
        """:attr:`true_candidate` as read-only :class:`CandidateRuns`.

        No ground truth is one bound, ``[0]``, and no values.
        """
        return CandidateRuns(self.__dict__[_RUN_BOUNDS], self.__dict__[_RUN_VALUES])

    @property
    def pair(self) -> Tuple[int, int]:
        """The (src, dst) server-id pair."""
        return (self.src_server_id, self.dst_server_id)

    def usable_mask(self) -> np.ndarray:
        """Samples usable for AS-path analysis: reached, no AS loop.

        Derived per call, not memoized: one comparison over the outcome
        codes, which construction keeps within :class:`TraceOutcome`.
        """
        return _read_only(self.outcome <= _LAST_USABLE)

    def usable_rtt_mask(self) -> np.ndarray:
        """Usable samples with a finite RTT: the samples RTT analyses read.

        Derived per call, like :meth:`usable_mask`, but writable: the
        callers narrow it in place.
        """
        mask = self.outcome <= _LAST_USABLE
        mask &= np.isfinite(self.rtt_ms)
        return mask

    def complete_mask(self) -> np.ndarray:
        """Samples that reached the destination (paper's "complete")."""
        return self.outcome != int(TraceOutcome.INCOMPLETE)

    def usable_index(self) -> np.ndarray:
        """Sample indexes of usable samples, in time order (int32; per call)."""
        return _read_only(np.flatnonzero(self.usable_mask()).astype(np.int32))

    def usable_path_ids(self) -> np.ndarray:
        """Path ids of usable samples, in time order (per call)."""
        return _read_only(self.path_id.compress(self.usable_mask()))

    def observed_paths(self) -> List[Tuple[ASN, ...]]:
        """Distinct AS paths among usable samples, in first-seen order."""
        return [self.paths[path_id] for path_id in self.path_sample_counts()]

    def path_sample_counts(self) -> Dict[int, int]:
        """Usable samples per path id, ascending by id (ids ``< 0`` skipped)."""
        return dict(self.product("path_sample_counts", self._compute_path_products))

    def path_change_count(self) -> int:
        """Path-id changes between consecutive usable samples.

        Memoized under ``("change_count",)``, and filled by the same
        selection of the usable path ids as :meth:`path_sample_counts`.
        """
        self.product("path_sample_counts", self._compute_path_products)
        return self._memo()[_CHANGE_COUNT]

    def _compute_path_products(self) -> Dict[int, int]:
        """Both path products off one selection; memoizes the change count."""
        ids = self.path_id.compress(self.outcome <= _LAST_USABLE)
        self._memo()[_CHANGE_COUNT] = int(np.count_nonzero(ids[1:] != ids[:-1]))
        if ids.size == 0:
            return {}
        # Path ids span a small range: one bincount instead of a sort.
        low = int(ids.min())
        counts = np.bincount(ids.astype(np.intp) - low)
        present = np.flatnonzero(counts)
        return {
            path_id: count
            for path_id, count in zip((present + low).tolist(), counts[present].tolist())
            if path_id >= 0
        }

    def usable_rtts_by_path(self) -> Dict[int, np.ndarray]:
        """Usable-sample RTTs grouped by path id (the AS-path buckets).

        Keys ascend by path id; each bucket keeps time order.  Built fresh
        per call and not memoized, like :meth:`sorted_buckets`;
        :meth:`path_sample_counts` holds their sizes.
        """
        # One stable sort groups the usable samples by path id, keeping each
        # group in time order; the group boundaries split it into buckets
        # (read-only views of one array).
        index = np.flatnonzero(self.usable_mask())
        if index.size == 0:
            return {}
        ids = self.path_id[index]
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        rtts = _read_only(self.rtt_ms[index[order]])
        starts = np.flatnonzero(np.diff(sorted_ids)) + 1
        bounds = np.concatenate(([0], starts, [sorted_ids.size])).tolist()
        return {
            int(sorted_ids[low]): rtts[low:high]
            for low, high in zip(bounds[:-1], bounds[1:])
            if sorted_ids[low] >= 0
        }

    def sorted_buckets(self, min_samples: int) -> Tuple[Tuple[int, ...], np.ndarray, Tuple[int, ...]]:
        """Each bucket's finite RTTs, sorted: ``(path_ids, values, bounds)``.

        Only buckets with at least ``min_samples`` finite RTTs are kept,
        ascending by path id.  Bucket ``k`` (path ``path_ids[k]``) is
        ``values[bounds[k]:bounds[k + 1]]``, ascending, in float32;
        ``bounds`` are Python ints.  One selection
        (:meth:`usable_rtt_mask`) and one sort by (path id, RTT) serve
        every bucket.  Sorted per call and not memoized: the callers
        memoize what they read off the sorted values
        (:mod:`repro.core.rttstats`).
        """
        groups, values = _sort_by_path(self.path_id, self.rtt_ms, self.usable_rtt_mask())
        found: List[Tuple[int, int, int]] = []
        if values.size:
            edges = ((groups[1:] != groups[:-1]).nonzero()[0] + 1).tolist()
            found = list(zip(groups[[0, *edges]].tolist(), [0, *edges], [*edges, values.size]))
        kept = [
            (path_id, low, high) for path_id, low, high in found
            if 0 <= path_id <= MAX_PATHS and high - low >= min_samples
        ]
        if min_samples <= 0:
            # A usable path without a finite RTT has an empty bucket.
            finite = {path_id for path_id, _, _ in kept}
            kept = sorted(kept + [(path_id, 0, 0) for path_id in self.path_sample_counts()
                                  if path_id not in finite])
        bounds = [0]
        for _, low, high in kept:
            bounds.append(bounds[-1] + high - low)
        if kept != found:
            values = np.concatenate([values[low:high] for _, low, high in kept] or [values[:0]])
        return tuple(path_id for path_id, _, _ in kept), _read_only(values), tuple(bounds)


_CHANGE_COUNT = ("change_count",)
"""Memo key of :meth:`TraceTimeline.path_change_count`."""


def _sort_by_path(
    path_id: np.ndarray, rtt_ms: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``keep`` samples ordered by path id, then RTT: ``(groups, values)``.

    ``values`` holds the RTTs; ``groups`` the path ids, where a negative
    id may read as a large unsigned value (beyond :data:`MAX_PATHS`).
    The float32 column sorts as one uint64 key per sample -- the path id
    in the high word, the RTT's bits in the low word, with the sign
    handled so that the unsigned order is the float order -- so one
    sort of the selection groups and orders it.  Equal RTTs have equal
    keys, so the values are those of any stable order; of ``-0.0`` and
    ``0.0``, which compare equal as floats, the negative one comes first.
    """
    bits = rtt_ms.view(np.uint32)
    signed = bool(bits.size) and int(bits.max()) >= _SIGN_BIT
    if signed:
        # Negative floats reverse their bits' order: flip them whole, and
        # lift the non-negative ones above them.
        bits = bits ^ np.where(bits >= _SIGN_BIT, np.uint32(0xFFFFFFFF), np.uint32(_SIGN_BIT))
    keys = path_id.astype(np.uint64)  # a negative id wraps to the top
    keys <<= 32
    keys |= bits
    keys = keys.compress(keep)
    keys.sort()
    low = keys.astype(np.uint32)
    if signed:
        low ^= np.where(low >= _SIGN_BIT, np.uint32(_SIGN_BIT), np.uint32(0xFFFFFFFF))
    keys >>= 32
    return keys, low.view(np.float32)


# eq=False: identity equality and hash; a field-wise == over arrays raises.
@dataclass(frozen=True, eq=False)
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
        return self.product("hour_groups", self._compute_hour_groups)

    def _compute_hour_groups(self) -> Tuple[np.ndarray, np.ndarray]:
        hour_of_day = np.mod(self.times_hours, float(HOURS_PER_DAY)).astype(int)
        order = np.argsort(hour_of_day, kind="stable")
        bounds = np.searchsorted(
            hour_of_day[order], np.arange(HOURS_PER_DAY + 1), side="left"
        )
        return _read_only(order.astype(np.int32)), _read_only(bounds)


_T = TypeVar("_T", bound=_Memoized)


def population_products(
    timelines: Sequence[_T],
    key: Hashable,
    compute: Callable[[List[_T]], List[Any]],
) -> List[Any]:
    """Product ``key`` of every timeline, computed for a whole population.

    ``compute`` runs at most once, on the timelines whose memo lacks
    ``key``, and returns their products in order; the products join
    those memos (never pickled, like every product).
    """
    missing = [timeline for timeline in timelines if key not in timeline._memo()]
    if missing:
        for timeline, value in zip(missing, compute(missing)):
            timeline._memo()[key] = value
    return [timeline._memo()[key] for timeline in timelines]


STACK_ROWS = 64
"""Rows per :class:`PingStack`: on the 672-sample week grid one float64
copy of a stack is 344 KB, so the population kernels stay small."""


# eq=False: identity equality and hash; a field-wise == over arrays raises.
@dataclass(frozen=True, eq=False)
class PingStack:
    """Ping timelines that share one time grid and RTT dtype, as one matrix.

    Attributes:
        indexes: Position of each row's timeline in the stacked sequence.
        grid: The first row's timeline; its ``times_hours`` and
            :meth:`PingTimeline.hour_groups` hold for every row.
        rtt_ms: One row per timeline, one column per grid sample.
    """

    indexes: List[int]
    grid: PingTimeline
    rtt_ms: np.ndarray


def stack_by_grid(timelines: Sequence[PingTimeline]) -> Iterator[PingStack]:
    """Group ping timelines by time grid and RTT dtype; stack each group.

    Grids are compared by content, so timelines holding equal but
    distinct time arrays share a group.  A group larger than
    :data:`STACK_ROWS` is split into several stacks.
    Stacks come in order of their first timeline; rows keep the sequence
    order.  Each stack is built when the iteration reaches it, so a
    caller that drops a stack before taking the next holds one at a time.
    """
    grid_keys: Dict[int, Tuple[str, bytes]] = {}
    groups: Dict[Tuple[str, bytes, str], List[int]] = {}
    for index, timeline in enumerate(timelines):
        times = timeline.times_hours
        grid_key = grid_keys.get(id(times))
        if grid_key is None:
            grid_key = grid_keys[id(times)] = (times.dtype.str, times.tobytes())
        groups.setdefault(grid_key + (timeline.rtt_ms.dtype.str,), []).append(index)
    for indexes in groups.values():
        for start in range(0, len(indexes), STACK_ROWS):
            rows = indexes[start:start + STACK_ROWS]
            yield PingStack(
                indexes=rows,
                grid=timelines[rows[0]],
                rtt_ms=np.stack([timelines[index].rtt_ms for index in rows]),
            )
