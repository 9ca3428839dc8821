"""The long-term dataset: full-mesh traceroutes every 3 hours (Section 2.1).

The builder walks each ordered pair's routing epochs, samples a vectorized
traceroute series per epoch from the platform's engine, and stitches the
epochs into one :class:`~repro.datasets.timeline.TraceTimeline` per pair
and protocol.  IPv4 switches from classic to Paris traceroute at the
platform's configured adoption time; IPv6 stays classic, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.datasets.columnar import CampaignKernels, task_blocks
from repro.datasets.parallel import fork_map
from repro.datasets.timeline import PATH_ID_DTYPE, PathTable, TraceTimeline, epoch_runs
from repro.obs import metrics as obs_metrics
from repro.measurement.platform import MeasurementPlatform
from repro.measurement.scheduler import LONG_TERM_PERIOD_HOURS, CampaignGrid
from repro.measurement.traceroute import TraceOutcome
from repro.net.ip import IPVersion
from repro.topology.cdn import Server

__all__ = ["LongTermConfig", "LongTermDataset", "build_longterm_dataset"]


@dataclass
class LongTermConfig:
    """Shape of the long-term campaign."""

    days: float = 485.0
    period_hours: float = LONG_TERM_PERIOD_HOURS
    dual_stack_only: bool = True
    versions: Tuple[IPVersion, ...] = (IPVersion.V4, IPVersion.V6)

    def grid(self) -> CampaignGrid:
        """The campaign's measurement grid."""
        return CampaignGrid.over_days(self.days, self.period_hours)


@dataclass
class LongTermDataset:
    """All long-term trace timelines, keyed by (src, dst, version).

    Built once by :func:`build_longterm_dataset` and then only read:
    nothing mutates ``timelines`` or ``servers`` after the build.
    """

    grid: CampaignGrid
    timelines: Dict[Tuple[int, int, IPVersion], TraceTimeline] = field(default_factory=dict)
    servers: Dict[int, Server] = field(default_factory=dict)

    def _ordered_keys(self) -> List[Tuple[int, int, IPVersion]]:
        """Timeline keys in pair order (sorted per call: well under 1 ms)."""
        return sorted(self.timelines, key=lambda k: (k[0], k[1], int(k[2])))

    def timeline(self, src_id: int, dst_id: int, version: IPVersion) -> TraceTimeline:
        """The timeline for one directed pair and protocol."""
        return self.timelines[(src_id, dst_id, version)]

    def pairs(self) -> List[Tuple[int, int]]:
        """Distinct directed server-id pairs present in the dataset."""
        pairs: List[Tuple[int, int]] = []
        for src, dst, _ in self._ordered_keys():
            if not pairs or pairs[-1] != (src, dst):
                pairs.append((src, dst))
        return pairs

    def by_version(self, version: IPVersion) -> List[TraceTimeline]:
        """All timelines of one protocol, in pair order."""
        return [
            self.timelines[key] for key in self._ordered_keys() if key[2] is version
        ]

    def forward_reverse(
        self, src_id: int, dst_id: int, version: IPVersion
    ) -> Tuple[TraceTimeline, TraceTimeline]:
        """Forward and reverse timelines of an (unordered) pair."""
        return (
            self.timelines[(src_id, dst_id, version)],
            self.timelines[(dst_id, src_id, version)],
        )


def _build_timeline(
    platform: MeasurementPlatform,
    src: Server,
    dst: Server,
    version: IPVersion,
    grid: CampaignGrid,
) -> TraceTimeline:
    """Sample one pair's traceroute series across its routing epochs."""
    times = grid.times()
    count = times.size
    rtt = np.full(count, np.nan, dtype=np.float32)
    outcome = np.full(count, int(TraceOutcome.INCOMPLETE), dtype=np.uint8)
    path_id = np.full(count, -1, dtype=PATH_ID_DTYPE)
    sampled: List[Tuple[int, int, int]] = []
    table = PathTable((src.server_id, dst.server_id))

    paris_start = platform.config.paris_start_hour if version is IPVersion.V4 else None

    for epoch_number, epoch in enumerate(platform.epochs(src, dst, version)):
        low = int(np.searchsorted(times, epoch.start_hour, side="left"))
        high = int(np.searchsorted(times, epoch.end_hour, side="left"))
        if high <= low:
            continue
        if epoch.candidate_index < 0:
            continue  # unreachable: stays INCOMPLETE/NaN
        realization = platform.realization(src, dst, version, epoch.candidate_index)
        if realization is None:
            continue
        rng = platform.rng("longterm", src.server_id, dst.server_id, int(version), epoch_number)
        series = platform.engine.sample_series(
            realization, times[low:high], rng, paris_start_hour=paris_start
        )
        # Counted here (inside workers under fork_map) and merged back to
        # the parent registry as a snapshot delta.
        obs_metrics.counter("traceroute.samples").inc(high - low)
        rtt[low:high] = series.rtt_ms
        outcome[low:high] = series.outcome
        sampled.append((low, high, epoch.candidate_index))
        remap = np.array(
            [table.intern(variant) for variant in series.variants], dtype=PATH_ID_DTYPE
        )
        ids = series.variant_id
        mapped = np.where(ids >= 0, remap[np.maximum(ids, 0)], -1)
        path_id[low:high] = mapped

    return TraceTimeline(
        src_server_id=src.server_id,
        dst_server_id=dst.server_id,
        version=version,
        times_hours=times,
        rtt_ms=rtt,
        outcome=outcome,
        path_id=path_id,
        paths=table.paths,
        true_candidate=epoch_runs(count, sampled),
    )


def build_longterm_dataset(
    platform: MeasurementPlatform,
    config: Optional[LongTermConfig] = None,
    pairs: Optional[Iterable[Tuple[Server, Server]]] = None,
    jobs: int = 1,
    columnar: bool = True,
) -> LongTermDataset:
    """Build the long-term full-mesh dataset.

    Args:
        platform: The assembled measurement platform; its configured
            duration must cover the campaign window.
        config: Campaign shape (defaults to the paper's 485 days at 3 h).
        pairs: Ordered server pairs to measure; defaults to the full mesh of
            dual-stack measurement servers in distinct ASes.
        jobs: Worker processes for the per-pair timeline loop (``<= 1``
            serial; ``0``/``None`` all cores).  Every timeline draws from
            its own named RNG stream and interns paths locally, so the
            parallel dataset is bit-identical to the serial one.
        columnar: Sample through the per-realization kernels of
            :mod:`repro.datasets.columnar` (the fast path) instead of the
            per-epoch object path.  Both produce bit-identical datasets;
            the object path is kept as the reference implementation.

    Raises:
        ValueError: If the campaign extends past the platform's window.
    """
    config = config or LongTermConfig()
    grid = config.grid()
    if grid.end_hour > platform.config.duration_hours + 1e-9:
        raise ValueError(
            f"campaign covers {grid.end_hour:.0f}h but the platform simulates "
            f"only {platform.config.duration_hours:.0f}h"
        )
    if pairs is None:
        pairs = platform.server_pairs(dual_stack_only=config.dual_stack_only)
    pairs = list(pairs)

    dataset = LongTermDataset(grid=grid)
    tasks: List[Tuple[Server, Server, IPVersion]] = []
    for src, dst in pairs:
        dataset.servers[src.server_id] = src
        dataset.servers[dst.server_id] = dst
        for version in config.versions:
            if src.address(version) is None or dst.address(version) is None:
                continue
            tasks.append((src, dst, version))

    obs_metrics.counter("dataset.longterm.pairs").inc(len(pairs))
    obs_metrics.counter("dataset.longterm.timelines").inc(len(tasks))

    if columnar:
        kernels = CampaignKernels(platform, grid)
        kernels.plan_streams("longterm", tasks)
        run_block = kernels.build_trace_timelines
    else:

        def run_block(block: List[Tuple[Server, Server, IPVersion]]) -> List[TraceTimeline]:
            return [
                _build_timeline(platform, src, dst, version, grid)
                for src, dst, version in block
            ]

    built = fork_map(run_block, task_blocks(tasks), jobs, label="longterm")
    for (src, dst, version), timeline in zip(
        tasks, (timeline for block in built for timeline in block)
    ):
        dataset.timelines[(src.server_id, dst.server_id, version)] = timeline
    return dataset
