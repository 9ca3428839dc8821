"""Routing dynamics: outages and flaps turning static routes into timelines.

The paper observes AS-path level shifts (Figure 1a) whose lifetimes range
from 3 hours to the full 16 months (Figures 4/5), with most trace timelines
dominated by a single path (Figure 3a) and 18%/16% seeing no change at all
(Figure 3b).  This module reproduces those dynamics:

- **Edge outages** take an AS-level edge down for a sampled duration; every
  pair whose currently-selected path uses the edge falls back to its best
  unaffected alternative, and returns when the outage ends.  Outages are
  shared between IPv4 and IPv6 (shared physical infrastructure), so the two
  protocols often shift together, as in the paper's illustrative example.
- **Pair flaps** demote a pair's primary route for a sampled window,
  modelling local policy changes and session resets that affect only one
  pair of endpoints (and one protocol).

Per-edge outage rates are heterogeneous (lognormal): most edges almost
never fail, a few fail often -- which is what produces the paper's wide
spread in per-timeline change counts.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.asn import ASN
from repro.routing.table import RouteTable
from repro.seeds import FLAPS_SEED, OUTAGES_SEED
from repro.topology.generator import ASGraph

__all__ = [
    "RoutingDynamicsConfig",
    "EdgeOutage",
    "PairFlap",
    "PathEpoch",
    "RoutingSchedule",
    "sample_edge_outages",
    "sample_pair_flaps",
    "build_routing_schedule",
]

_Edge = Tuple[ASN, ASN]
_Pair = Tuple[ASN, ASN]

HOURS_PER_MONTH = 24.0 * 30.4


@dataclass
class RoutingDynamicsConfig:
    """Knobs of the routing-dynamics sampler.

    Rates are per month of simulated time so scenarios of any duration can
    share a calibration.  Outage durations are a three-component lognormal
    mixture: mostly hours, sometimes days, occasionally weeks-to-months
    (the long tail behind the paper's long-lived sub-optimal paths).
    """

    mean_outages_per_edge_per_month: float = 0.10
    edge_rate_sigma: float = 1.1
    """Lognormal sigma of per-edge rate heterogeneity."""

    duration_mixture: Tuple[Tuple[float, float, float], ...] = (
        (0.73, 6.0, 0.9),     # weight, median hours, sigma: short (hours)
        (0.25, 60.0, 0.8),    # medium (days)
        (0.02, 900.0, 0.7),   # long (weeks to months)
    )

    flaps_per_pair_per_month: float = 0.04
    flap_duration_median_hours: float = 24.0
    flap_duration_sigma: float = 1.2

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent settings."""
        if self.mean_outages_per_edge_per_month < 0 or self.flaps_per_pair_per_month < 0:
            raise ValueError("rates must be non-negative")
        total_weight = sum(weight for weight, _, _ in self.duration_mixture)
        if not np.isclose(total_weight, 1.0):
            raise ValueError(f"duration mixture weights sum to {total_weight}, expected 1")


@dataclass(frozen=True)
class EdgeOutage:
    """One AS-level edge unavailable during ``[start_hour, end_hour)``."""

    edge: _Edge
    start_hour: float
    end_hour: float


@dataclass(frozen=True)
class PairFlap:
    """One pair's primary route demoted during ``[start_hour, end_hour)``."""

    pair: _Pair
    start_hour: float
    end_hour: float


@dataclass(frozen=True)
class PathEpoch:
    """A maximal interval during which a pair uses one candidate route.

    ``candidate_index`` indexes the pair's candidate tuple in the route
    table; ``-1`` means the destination was unreachable.
    """

    start_hour: float
    end_hour: float
    candidate_index: int


@dataclass
class RoutingSchedule:
    """Per-AS-pair path timelines over the study window."""

    duration_hours: float
    timelines: Dict[_Pair, Tuple[PathEpoch, ...]] = field(default_factory=dict)
    outages: Tuple[EdgeOutage, ...] = ()
    flaps: Tuple[PairFlap, ...] = ()

    def epochs(self, pair: _Pair) -> Tuple[PathEpoch, ...]:
        """The path timeline of ``pair`` (empty if the pair is unknown)."""
        return self.timelines.get(pair, ())

    def candidate_at(self, pair: _Pair, hour: float) -> int:
        """Candidate index in use at ``hour`` (``-1`` when unreachable)."""
        epochs = self.timelines.get(pair)
        if not epochs:
            return -1
        starts = [epoch.start_hour for epoch in epochs]
        index = bisect.bisect_right(starts, hour) - 1
        if index < 0:
            return -1
        return epochs[index].candidate_index

    def change_count(self, pair: _Pair) -> int:
        """Number of path changes over the window."""
        return max(0, len(self.timelines.get(pair, ())) - 1)


def _sample_duration_hours(
    rng: np.random.Generator, mixture: Sequence[Tuple[float, float, float]]
) -> float:
    weights = np.array([weight for weight, _, _ in mixture])
    component = int(rng.choice(len(mixture), p=weights / weights.sum()))
    _, median, sigma = mixture[component]
    return float(median * np.exp(rng.normal(0.0, sigma)))


def sample_edge_outages(
    graph: ASGraph,
    duration_hours: float,
    config: Optional[RoutingDynamicsConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[EdgeOutage]:
    """Sample outage events for every edge over the study window.

    Outages model both physical failures and policy withdrawals; an edge can
    have overlapping outages (they union).  Events are sorted by start time.
    """
    config = config or RoutingDynamicsConfig()
    config.validate()
    rng = rng if rng is not None else np.random.default_rng(OUTAGES_SEED)
    months = duration_hours / HOURS_PER_MONTH
    outages: List[EdgeOutage] = []
    for edge in graph.edges():
        # Heterogeneous per-edge rate: lognormal with the configured mean.
        sigma = config.edge_rate_sigma
        rate = config.mean_outages_per_edge_per_month * float(
            np.exp(rng.normal(-0.5 * sigma**2, sigma))
        )
        count = int(rng.poisson(rate * months))
        for _ in range(count):
            start = float(rng.uniform(0.0, duration_hours))
            length = _sample_duration_hours(rng, config.duration_mixture)
            outages.append(
                EdgeOutage(edge=edge, start_hour=start, end_hour=min(start + length, duration_hours))
            )
    outages.sort(key=lambda outage: outage.start_hour)
    return outages


def sample_pair_flaps(
    pairs: Sequence[_Pair],
    duration_hours: float,
    config: Optional[RoutingDynamicsConfig] = None,
    rng: Optional[np.random.Generator] = None,
) -> List[PairFlap]:
    """Sample per-pair primary-route demotions over the study window."""
    config = config or RoutingDynamicsConfig()
    config.validate()
    rng = rng if rng is not None else np.random.default_rng(FLAPS_SEED)
    months = duration_hours / HOURS_PER_MONTH
    flaps: List[PairFlap] = []
    for pair in pairs:
        count = int(rng.poisson(config.flaps_per_pair_per_month * months))
        for _ in range(count):
            start = float(rng.uniform(0.0, duration_hours))
            length = float(
                config.flap_duration_median_hours
                * np.exp(rng.normal(0.0, config.flap_duration_sigma))
            )
            flaps.append(
                PairFlap(pair=pair, start_hour=start, end_hour=min(start + length, duration_hours))
            )
    flaps.sort(key=lambda flap: flap.start_hour)
    return flaps


def _select_candidate(
    candidates: Sequence,
    blocked_edges: FrozenSet[_Edge],
    demote_primary: bool,
) -> int:
    """Best usable candidate index given blocked edges and flap state.

    A tier-1 candidate (a neighbor's fallback route) is only *advertised*
    while that neighbor's steady-state route is down, so it is usable only
    when the tier-0 candidate through the same next hop is blocked.
    """
    tier0_blocked: Dict[ASN, bool] = {}
    for candidate in candidates:
        if candidate.tier == 0:
            tier0_blocked[candidate.via] = bool(candidate.edges & blocked_edges)

    first_usable = -1
    for index, candidate in enumerate(candidates):
        if candidate.edges & blocked_edges:
            continue
        if candidate.tier == 1 and not tier0_blocked.get(candidate.via, True):
            continue
        if first_usable < 0:
            first_usable = index
        if demote_primary and index == 0:
            continue
        return index
    # Everything else blocked or demoted: fall back to the primary if it is
    # at least up, else unreachable.
    return first_usable


class _ActiveSet:
    """The ``[start, end)`` intervals that hold a point moving rightwards.

    Each interval carries a key; after :meth:`advance`, :attr:`keys`
    counts the intervals holding the point, per key.  The point must
    never move left: an interval whose end the point has passed is
    dropped for good.
    """

    def __init__(self, intervals: Sequence[Tuple[float, float, object]]) -> None:
        self._pending = sorted(intervals, key=lambda interval: interval[0])
        self._next = 0
        self._ends: List[Tuple[float, int, object]] = []
        self.keys: Dict[object, int] = {}

    def advance(self, point: float) -> bool:
        """Move to ``point``; whether the set of keys changed."""
        changed = False
        pending = self._pending
        while self._next < len(pending) and pending[self._next][0] <= point:
            _, end, key = pending[self._next]
            self._next += 1
            if end > point:
                heapq.heappush(self._ends, (end, self._next, key))
                count = self.keys.get(key, 0)
                changed = changed or count == 0
                self.keys[key] = count + 1
        while self._ends and self._ends[0][0] <= point:
            _, _, key = heapq.heappop(self._ends)
            count = self.keys[key] - 1
            if count:
                self.keys[key] = count
            else:
                del self.keys[key]
                changed = True
        return changed


def build_routing_schedule(
    table: RouteTable,
    pairs: Sequence[_Pair],
    duration_hours: float,
    outages: Sequence[EdgeOutage],
    flaps: Sequence[PairFlap] = (),
) -> RoutingSchedule:
    """Evaluate path selection over time for each requested AS pair.

    Each pair's window is cut at the boundaries of the outages on its
    candidates' edges and of its flaps; each piece routes as at its
    midpoint.  The midpoints ascend, so one sweep per pair keeps the
    outages and flaps in effect (:class:`_ActiveSet`) and selects a
    candidate again only where they change.

    Args:
        table: Candidate routes per pair (one protocol).
        pairs: Ordered AS pairs to build timelines for.
        duration_hours: Study window length.
        outages: Shared edge outages (see :func:`sample_edge_outages`).
        flaps: Per-pair flaps for this protocol.

    Returns:
        A :class:`RoutingSchedule` with one epoch list per reachable pair.
    """
    if duration_hours <= 0:
        raise ValueError("duration must be positive")
    flaps_by_pair: Dict[_Pair, List[PairFlap]] = {}
    for flap in flaps:
        flaps_by_pair.setdefault(flap.pair, []).append(flap)
    outages_by_edge: Dict[_Edge, List[EdgeOutage]] = {}
    for outage in outages:
        outages_by_edge.setdefault(outage.edge, []).append(outage)

    schedule = RoutingSchedule(
        duration_hours=duration_hours,
        outages=tuple(outages),
        flaps=tuple(flaps),
    )

    for pair in pairs:
        candidates = table.routes(*pair)
        if not candidates:
            continue
        all_edges = frozenset().union(*(candidate.edges for candidate in candidates))

        relevant_outages = [
            outage
            for edge in sorted(all_edges & outages_by_edge.keys())
            for outage in outages_by_edge[edge]
        ]
        relevant_flaps = flaps_by_pair.get(pair, ())

        boundaries = {0.0, duration_hours}
        for event in (*relevant_outages, *relevant_flaps):
            if event.start_hour < duration_hours:
                boundaries.add(max(0.0, event.start_hour))
                boundaries.add(min(duration_hours, event.end_hour))
        ordered = sorted(boundaries)

        down = _ActiveSet(
            [(outage.start_hour, outage.end_hour, outage.edge) for outage in relevant_outages]
        )
        flapping = _ActiveSet(
            [(flap.start_hour, flap.end_hour, None) for flap in relevant_flaps]
        )
        # The selection depends only on the blocked edges and the flap
        # state, and outages come and go, so states recur.
        choices: Dict[Tuple[FrozenSet[_Edge], bool], int] = {}
        epochs: List[PathEpoch] = []
        run_start = 0.0
        selected: Optional[int] = None
        for start, end in zip(ordered, ordered[1:]):
            midpoint = 0.5 * (start + end)
            # Advance both sweeps (no short circuit): either may move.
            moved = down.advance(midpoint)
            moved = flapping.advance(midpoint) or moved
            if moved or selected is None:
                state = (frozenset(down.keys), bool(flapping.keys))
                choice = choices.get(state)
                if choice is None:
                    choice = choices[state] = _select_candidate(candidates, *state)
                if choice != selected:
                    if selected is not None:
                        epochs.append(PathEpoch(run_start, start, selected))
                    run_start, selected = start, choice
        epochs.append(PathEpoch(run_start, ordered[-1], selected))
        schedule.timelines[pair] = tuple(epochs)

    return schedule
