"""Short-term datasets: 15-minute pings and 30-minute traceroutes (§2.2).

Two builders:

- :func:`build_shortterm_ping_dataset` -- one week of pings every 15
  minutes between server pairs; the input to the congestion-prevalence
  analysis (Section 5.1).
- :func:`build_shortterm_trace_dataset` -- two-to-three weeks of
  traceroutes every 30 minutes between selected pairs, with *per-hop* RTT
  series; the input to congestion localization (Section 5.2).  Following
  the paper, each entry records whether the pair's path stayed static over
  the window (localization only trusts static paths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

import numpy as np

from repro.datasets.columnar import CampaignKernels, task_blocks
from repro.datasets.parallel import fork_map
from repro.datasets.timeline import PingTimeline
from repro.obs import metrics as obs_metrics
from repro.measurement.loss import LossModel
from repro.measurement.ping import ping_series
from repro.measurement.platform import MeasurementPlatform
from repro.measurement.realization import PathRealization, SegmentKey
from repro.measurement.scheduler import PING_PERIOD_HOURS, SHORT_TRACE_PERIOD_HOURS, CampaignGrid
from repro.net.asn import ASN
from repro.net.ip import IPAddress, IPVersion
from repro.topology.cdn import Server

__all__ = [
    "ShortTermConfig",
    "ShortTermPingDataset",
    "SegmentSeries",
    "ShortTermTraceDataset",
    "build_shortterm_ping_dataset",
    "build_shortterm_trace_dataset",
]


@dataclass
class ShortTermConfig:
    """Shape of the short-term campaigns."""

    ping_days: float = 7.0
    ping_period_hours: float = PING_PERIOD_HOURS
    trace_days: float = 22.0
    trace_period_hours: float = SHORT_TRACE_PERIOD_HOURS
    start_hour: float = 0.0
    versions: Tuple[IPVersion, ...] = (IPVersion.V4, IPVersion.V6)
    congestion_coupled_loss: bool = True
    """Sample ping loss from the congestion-coupled loss model instead of
    a flat rate, enabling the packet-loss analysis extension."""

    def ping_grid(self) -> CampaignGrid:
        """Measurement grid of the ping campaign."""
        grid = CampaignGrid.over_days(self.ping_days, self.ping_period_hours)
        return CampaignGrid(self.start_hour, grid.period_hours, grid.rounds)

    def trace_grid(self) -> CampaignGrid:
        """Measurement grid of the traceroute campaign."""
        grid = CampaignGrid.over_days(self.trace_days, self.trace_period_hours)
        return CampaignGrid(self.start_hour, grid.period_hours, grid.rounds)


def _ordered_keys(
    entries: Dict[Tuple[int, int, IPVersion], object],
) -> List[Tuple[int, int, IPVersion]]:
    """The keys of ``entries`` in pair order (sorted per call)."""
    return sorted(entries, key=lambda k: (k[0], k[1], int(k[2])))


@dataclass
class ShortTermPingDataset:
    """Ping timelines keyed by (src, dst, version).

    Built once by :func:`build_shortterm_ping_dataset` and then only
    read: nothing mutates ``timelines`` after the build.
    """

    grid: CampaignGrid
    timelines: Dict[Tuple[int, int, IPVersion], PingTimeline] = field(default_factory=dict)

    def by_version(self, version: IPVersion) -> List[PingTimeline]:
        """All timelines of one protocol, in pair order."""
        return [
            self.timelines[key] for key in _ordered_keys(self.timelines) if key[2] is version
        ]


@dataclass
class SegmentSeries:
    """Per-hop RTT series of one pair over the traceroute campaign.

    Attributes:
        times_hours: Measurement grid.
        hop_rtt_ms: Shape ``(n_hops, n_times)``; NaN where the hop did not
            answer (or the sample fell outside the dominant routing epoch).
        hop_addresses / hop_mapped_asn / hop_owner_truth: Per-hop metadata;
            ``hop_owner_truth`` is simulator ground truth used only for
            validation, never by the analysis.
        segment_keys: Infrastructure key per hop (ground truth, validation
            only).
        rtt_ms: End-to-end RTT series (NaN outside the dominant epoch).
        static_path: Whether one routing epoch covered the whole window.
        observed_as_path: The fully-responsive observed AS path.
    """

    src_server_id: int
    dst_server_id: int
    version: IPVersion
    times_hours: np.ndarray
    hop_rtt_ms: np.ndarray
    hop_addresses: Tuple[IPAddress, ...]
    hop_mapped_asn: Tuple[Optional[ASN], ...]
    hop_owner_truth: Tuple[ASN, ...]
    segment_keys: Tuple[SegmentKey, ...]
    rtt_ms: np.ndarray
    static_path: bool
    observed_as_path: Tuple[ASN, ...]

    @property
    def pair(self) -> Tuple[int, int]:
        """The (src, dst) server-id pair."""
        return (self.src_server_id, self.dst_server_id)

    @property
    def n_hops(self) -> int:
        """Number of hops (rows of the matrix)."""
        return int(self.hop_rtt_ms.shape[0])


_R = TypeVar("_R")


@dataclass
class ShortTermTraceDataset:
    """Segment series keyed by (src, dst, version).

    Built once by :func:`build_shortterm_trace_dataset` and then only
    read: nothing mutates ``entries`` after the build, so a product
    derived from the whole corpus stays valid for the dataset's life.
    """

    grid: CampaignGrid
    entries: Dict[Tuple[int, int, IPVersion], SegmentSeries] = field(default_factory=dict)
    _corpus_cache: Optional[Tuple[object, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def by_version(self, version: IPVersion) -> List[SegmentSeries]:
        """All entries of one protocol, in pair order."""
        return [self.entries[key] for key in _ordered_keys(self.entries) if key[2] is version]

    def corpus_product(self, platform: object, compute: Callable[[], _R]) -> _R:
        """``compute()`` over the whole corpus, once per ``platform`` object.

        The dataset holds one such result (the experiments' ownership
        inference); another platform object replaces it.  It is never
        pickled.
        """
        cache = self._corpus_cache
        if cache is None or cache[0] is not platform:
            cache = self._corpus_cache = (platform, compute())
        return cache[1]

    def __getstate__(self) -> Dict[str, Any]:
        # The pickle must not depend on whether an analysis ran first.
        state = dict(self.__dict__)
        state.pop("_corpus_cache", None)
        return state


def _check_window(platform: MeasurementPlatform, grid: CampaignGrid) -> None:
    if grid.end_hour > platform.config.duration_hours + 1e-9:
        raise ValueError(
            f"campaign covers {grid.end_hour:.0f}h but the platform simulates "
            f"only {platform.config.duration_hours:.0f}h"
        )


def _dominant_epoch(
    platform: MeasurementPlatform,
    src: Server,
    dst: Server,
    version: IPVersion,
    grid: CampaignGrid,
) -> Tuple[Optional[int], bool]:
    """Candidate index covering most of the window, and staticness."""
    best_candidate: Optional[int] = None
    best_cover = 0.0
    epoch_count = 0
    for epoch in platform.epochs(src, dst, version):
        overlap = min(epoch.end_hour, grid.end_hour) - max(epoch.start_hour, grid.start_hour)
        if overlap <= 0:
            continue
        epoch_count += 1
        if epoch.candidate_index >= 0 and overlap > best_cover:
            best_cover = overlap
            best_candidate = epoch.candidate_index
    static = epoch_count == 1 and best_cover >= grid.duration_hours - 1e-9
    return best_candidate, static


def _build_ping_timeline(
    platform: MeasurementPlatform,
    src: Server,
    dst: Server,
    version: IPVersion,
    times: np.ndarray,
    config: ShortTermConfig,
) -> PingTimeline:
    """Sample one pair's ping series across its routing epochs."""
    rtt = np.full(times.size, np.nan, dtype=np.float32)
    for epoch_number, epoch in enumerate(platform.epochs(src, dst, version)):
        low = int(np.searchsorted(times, epoch.start_hour, side="left"))
        high = int(np.searchsorted(times, epoch.end_hour, side="left"))
        if high <= low or epoch.candidate_index < 0:
            continue
        realization = platform.realization(src, dst, version, epoch.candidate_index)
        if realization is None:
            continue
        rng = platform.rng(
            "ping", src.server_id, dst.server_id, int(version), epoch_number
        )
        rtt[low:high] = ping_series(
            realization,
            times[low:high],
            rng,
            delay_model=platform.delay_model,
            congestion=platform.congestion,
            loss_model=LossModel() if config.congestion_coupled_loss else None,
        )
        # Counted in the worker; fork_map merges the delta to the parent.
        obs_metrics.counter("rtt.samples").inc(high - low)
    return PingTimeline(
        src_server_id=src.server_id,
        dst_server_id=dst.server_id,
        version=version,
        times_hours=times,
        rtt_ms=rtt,
    )


def build_shortterm_ping_dataset(
    platform: MeasurementPlatform,
    config: Optional[ShortTermConfig] = None,
    pairs: Optional[Iterable[Tuple[Server, Server]]] = None,
    jobs: int = 1,
) -> ShortTermPingDataset:
    """Build the one-week 15-minute ping dataset.

    Pairs default to the full mesh of measurement servers.  A pair's series
    uses the realization of each routing epoch in effect, so level shifts
    from routing changes appear in pings exactly as they would in reality.
    Every series draws from its own named RNG stream, so sharding the
    pair list across ``jobs`` workers is bit-identical to serial.
    Series are sampled by the kernels of :mod:`repro.datasets.columnar`,
    bit-identical to the per-epoch object builder
    :func:`_build_ping_timeline`, which stays as the reference
    implementation.
    """
    config = config or ShortTermConfig()
    grid = config.ping_grid()
    _check_window(platform, grid)
    if pairs is None:
        pairs = platform.server_pairs(dual_stack_only=False)

    dataset = ShortTermPingDataset(grid=grid)
    tasks = [
        (src, dst, version)
        for src, dst in pairs
        for version in config.versions
        if src.address(version) is not None and dst.address(version) is not None
    ]

    obs_metrics.counter("dataset.ping.timelines").inc(len(tasks))

    kernels = CampaignKernels(platform, grid)
    kernels.plan_streams("ping", tasks)

    def run_block(block: List[Tuple[Server, Server, IPVersion]]) -> List[PingTimeline]:
        return kernels.build_ping_timelines(block, config.congestion_coupled_loss)

    built = fork_map(run_block, task_blocks(tasks), jobs, label="ping")
    for (src, dst, version), timeline in zip(
        tasks, (timeline for block in built for timeline in block)
    ):
        dataset.timelines[(src.server_id, dst.server_id, version)] = timeline
    return dataset


def _segment_series(
    platform: MeasurementPlatform,
    realization: PathRealization,
    times: np.ndarray,
    fill_low: int,
    fill_high: int,
    static: bool,
    rng: np.random.Generator,
) -> SegmentSeries:
    n_hops = len(realization.hops)
    hop_rtt = np.full((n_hops, times.size), np.nan, dtype=np.float32)
    e2e = np.full(times.size, np.nan, dtype=np.float32)

    window = times[fill_low:fill_high]
    if window.size:
        matrix = platform.delay_model.hop_rtt_matrix(
            realization, window, rng, platform.congestion
        )
        respond = np.array([hop.respond_probability for hop in realization.hops])
        answered = rng.random((n_hops, window.size)) < respond[:, None]
        answered[-1, :] = True  # the destination server always answers
        matrix = np.where(answered, matrix, np.nan)
        hop_rtt[:, fill_low:fill_high] = matrix
        e2e[fill_low:fill_high] = matrix[-1]
        obs_metrics.counter("rtt.samples").inc(n_hops * int(window.size))

    return SegmentSeries(
        src_server_id=realization.src_server_id,
        dst_server_id=realization.dst_server_id,
        version=realization.version,
        times_hours=times,
        hop_rtt_ms=hop_rtt,
        hop_addresses=tuple(hop.address for hop in realization.hops),
        hop_mapped_asn=tuple(hop.mapped_asn for hop in realization.hops),
        hop_owner_truth=tuple(hop.owner for hop in realization.hops),
        segment_keys=realization.segment_keys,
        rtt_ms=e2e,
        static_path=static,
        observed_as_path=realization.observed_path_complete,
    )


def _build_trace_entry(
    platform: MeasurementPlatform,
    src: Server,
    dst: Server,
    version: IPVersion,
    times: np.ndarray,
    grid: CampaignGrid,
) -> Optional[SegmentSeries]:
    """One pair's per-hop series, or ``None`` when no epoch carries it."""
    candidate, static = _dominant_epoch(platform, src, dst, version, grid)
    if candidate is None:
        return None
    realization = platform.realization(src, dst, version, candidate)
    if realization is None:
        return None
    if static:
        fill_low, fill_high = 0, times.size
    else:
        # Fill only the samples inside the dominant epoch.
        fill_low, fill_high = 0, 0
        for epoch in platform.epochs(src, dst, version):
            if epoch.candidate_index != candidate:
                continue
            low = int(np.searchsorted(times, epoch.start_hour, side="left"))
            high = int(np.searchsorted(times, epoch.end_hour, side="left"))
            if high - low > fill_high - fill_low:
                fill_low, fill_high = low, high
    rng = platform.rng("shorttrace", src.server_id, dst.server_id, int(version))
    return _segment_series(
        platform, realization, times, fill_low, fill_high, static, rng
    )


def build_shortterm_trace_dataset(
    platform: MeasurementPlatform,
    pairs: Iterable[Tuple[Server, Server]],
    config: Optional[ShortTermConfig] = None,
    jobs: int = 1,
) -> ShortTermTraceDataset:
    """Build the 30-minute traceroute dataset with per-hop series.

    Args:
        platform: The assembled platform.
        pairs: Ordered server pairs to probe (in the paper these are the
            pairs flagged as congested by the ping analysis).
        config: Campaign shape.
        jobs: Worker processes for the per-pair loop; bit-identical to
            serial at any count.
    """
    config = config or ShortTermConfig()
    grid = config.trace_grid()
    _check_window(platform, grid)
    dataset = ShortTermTraceDataset(grid=grid)
    times = grid.times()
    tasks = [
        (src, dst, version)
        for src, dst in pairs
        for version in config.versions
        if src.address(version) is not None and dst.address(version) is not None
    ]

    def run_task(task: Tuple[Server, Server, IPVersion]) -> Optional[SegmentSeries]:
        src, dst, version = task
        return _build_trace_entry(platform, src, dst, version, times, grid)

    for (src, dst, version), entry in zip(
        tasks, fork_map(run_task, tasks, jobs, label="shorttrace")
    ):
        if entry is not None:
            dataset.entries[(src.server_id, dst.server_id, version)] = entry
    obs_metrics.counter("dataset.shorttrace.entries").inc(len(dataset.entries))
    return dataset
