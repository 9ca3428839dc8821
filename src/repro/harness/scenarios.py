"""Canonical scenarios and cached builders.

The paper's campaigns are petabyte-scale; these scenarios reproduce their
*shape* at three sizes:

- ``small``: seconds to build; used by the test suite.
- ``default``: tens of seconds; used by the benchmarks and examples.
- ``large``: a few minutes; closest to the paper's pair counts that a
  single machine comfortably holds.

Builders are memoized per (scenario, seed) so a pytest-benchmark session
constructs each platform and dataset once, however many bench modules use
it.  Given an :class:`~repro.harness.engine.ArtifactCache`, the platform
and long-term builders load from and store to disk through its one
build-or-load path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.datasets.longterm import LongTermConfig, LongTermDataset, build_longterm_dataset
from repro.datasets.shortterm import (
    ShortTermConfig,
    ShortTermPingDataset,
    ShortTermTraceDataset,
    build_shortterm_ping_dataset,
    build_shortterm_trace_dataset,
)
from repro.core.congestion import CongestionDetector
from repro.harness.engine import ArtifactCache
from repro.measurement.congestionmodel import CongestionConfig
from repro.measurement.platform import MeasurementPlatform, PlatformConfig
from repro.obs.log import get_logger
from repro.obs import trace as obs_trace
from repro.topology.cdn import Server

__all__ = ["Scenario", "SCENARIOS", "get_scenario", "scenario_platform",
           "scenario_longterm", "scenario_ping", "scenario_traces",
           "congested_pairs", "clear_cache"]


@dataclass(frozen=True)
class Scenario:
    """A named, fully-specified experiment scale."""

    name: str
    cluster_count: int
    longterm_days: float
    shortterm_ping_days: float
    shortterm_trace_days: float
    congestion_rich: bool = False
    """Chase congestion on popular links (no anchor-popularity penalty),
    as the paper's Section 5.2/5.3 campaign deliberately did.  Use for
    link-classification studies; leave off when the Section 5.1
    \"congestion is not the norm\" population fractions are the target."""

    def platform_config(self, seed: int = 0) -> PlatformConfig:
        """The platform config for this scenario (window covers all
        campaigns)."""
        duration = max(self.longterm_days, self.shortterm_trace_days, self.shortterm_ping_days)
        config = PlatformConfig(
            seed=seed,
            cluster_count=self.cluster_count,
            duration_hours=duration * 24.0,
        )
        if self.congestion_rich:
            config.congestion = CongestionConfig(
                anchor_fraction=0.7, anchor_popularity_halflife=None
            )
        return config

    def longterm_config(self) -> LongTermConfig:
        """The long-term campaign shape."""
        return LongTermConfig(days=self.longterm_days)

    def shortterm_config(self) -> ShortTermConfig:
        """The short-term campaign shapes."""
        return ShortTermConfig(
            ping_days=self.shortterm_ping_days,
            trace_days=self.shortterm_trace_days,
        )


SCENARIOS: Dict[str, Scenario] = {
    "small": Scenario(
        name="small",
        cluster_count=12,
        longterm_days=90.0,
        shortterm_ping_days=7.0,
        shortterm_trace_days=14.0,
    ),
    "default": Scenario(
        name="default",
        cluster_count=30,
        longterm_days=485.0,
        shortterm_ping_days=7.0,
        shortterm_trace_days=22.0,
    ),
    "large": Scenario(
        name="large",
        cluster_count=60,
        longterm_days=485.0,
        shortterm_ping_days=7.0,
        shortterm_trace_days=22.0,
        congestion_rich=True,
    ),
}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name.

    Raises:
        KeyError: Unknown scenario name (the message lists valid names).
    """
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; valid: {sorted(SCENARIOS)}"
        ) from None


_LOG = get_logger("repro.harness.scenarios")

_platform_cache: Dict[Tuple[str, int], MeasurementPlatform] = {}
_longterm_cache: Dict[Tuple[str, int], LongTermDataset] = {}
_ping_cache: Dict[Tuple[str, int], ShortTermPingDataset] = {}
_trace_cache: Dict[Tuple[str, int], ShortTermTraceDataset] = {}


def clear_cache() -> None:
    """Drop all memoized platforms and datasets (frees memory)."""
    _platform_cache.clear()
    _longterm_cache.clear()
    _ping_cache.clear()
    _trace_cache.clear()


def scenario_platform(
    name: str = "default",
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
) -> MeasurementPlatform:
    """The (memoized) platform of a scenario.

    Args:
        name / seed: Scenario scale and world seed.
        jobs: Worker processes for route computation on a build.
        cache: When given, the platform is loaded from / stored to disk.
    """
    key = (name, seed)
    if key not in _platform_cache:
        config = get_scenario(name).platform_config(seed)
        _LOG.info("scenario.platform", scenario=name, seed=seed, jobs=jobs,
                  cached=cache is not None)

        def build() -> MeasurementPlatform:
            return MeasurementPlatform(config, jobs=jobs)

        _platform_cache[key] = (
            build() if cache is None else cache.load_or_build("platform", (config,), build)
        )
    return _platform_cache[key]


def scenario_longterm(
    name: str = "default",
    seed: int = 0,
    jobs: int = 1,
    cache: Optional[ArtifactCache] = None,
) -> LongTermDataset:
    """The (memoized) long-term dataset of a scenario.

    With a ``cache``, a hit needs no platform; a build resolves it
    through :func:`scenario_platform` with the same cache.  Any ``jobs``
    value yields the same bits, so it is not part of the cache key.
    """
    key = (name, seed)
    if key not in _longterm_cache:
        scenario = get_scenario(name)
        config = scenario.longterm_config()

        def build() -> LongTermDataset:
            platform = scenario_platform(name, seed, jobs=jobs, cache=cache)
            _LOG.info("scenario.longterm", scenario=name, seed=seed, jobs=jobs)
            with obs_trace.span("longterm-build"):
                return build_longterm_dataset(platform, config, jobs=jobs)

        _longterm_cache[key] = (
            build() if cache is None else cache.load_or_build(
                "longterm", (scenario.platform_config(seed), config), build)
        )
    return _longterm_cache[key]


def scenario_ping(
    name: str = "default",
    seed: int = 0,
    jobs: int = 1,
) -> ShortTermPingDataset:
    """The (memoized) short-term ping dataset of a scenario."""
    key = (name, seed)
    if key not in _ping_cache:
        platform = scenario_platform(name, seed, jobs=jobs)
        _LOG.info("scenario.ping", scenario=name, seed=seed, jobs=jobs)
        with obs_trace.span("ping-build"):
            _ping_cache[key] = build_shortterm_ping_dataset(
                platform, get_scenario(name).shortterm_config(), jobs=jobs
            )
    return _ping_cache[key]


def congested_pairs(
    platform: MeasurementPlatform,
    pings: ShortTermPingDataset,
    detector: Optional[CongestionDetector] = None,
) -> List[Tuple[Server, Server]]:
    """Server pairs the ping analysis flags as congested (Section 5.2)."""
    detector = detector or CongestionDetector()
    keys = list(pings.timelines)
    verdicts = detector.assess_all([pings.timelines[key] for key in keys])
    flagged = {
        (src_id, dst_id)
        for (src_id, dst_id, _version), verdict in zip(keys, verdicts)
        if verdict.congested
    }
    servers = {server.server_id: server for server in platform.measurement_servers()}
    return [
        (servers[src_id], servers[dst_id])
        for src_id, dst_id in sorted(flagged)
        if src_id in servers and dst_id in servers
    ]


def scenario_traces(
    name: str = "default",
    seed: int = 0,
    jobs: int = 1,
) -> ShortTermTraceDataset:
    """The (memoized) short-term traceroute dataset of a scenario.

    As in the paper, the traceroute campaign targets the pairs the ping
    analysis flagged as congested (Section 5.2) with the default
    :class:`~repro.core.congestion.CongestionDetector`, so this builder
    depends on the ping dataset.
    """
    key = (name, seed)
    if key not in _trace_cache:
        platform = scenario_platform(name, seed, jobs=jobs)
        pings = scenario_ping(name, seed, jobs=jobs)
        pairs = congested_pairs(platform, pings)
        _LOG.info("scenario.traces", scenario=name, seed=seed, jobs=jobs,
                  congested_pairs=len(pairs))
        with obs_trace.span("shorttrace-build"):
            _trace_cache[key] = build_shortterm_trace_dataset(
                platform, pairs, get_scenario(name).shortterm_config(), jobs=jobs
            )
    return _trace_cache[key]
