"""The measurement platform façade.

:class:`MeasurementPlatform` wires every substrate together -- topology,
addressing, routers, CDN deployment, BGP route tables for both protocols,
shared routing dynamics, the delay model and the congestion schedule -- and
exposes the narrow API the dataset builders and examples consume:

- the measurement servers (one per cluster),
- per-pair routing epochs over the study window,
- path realizations per (pair, protocol, candidate),
- deterministic per-purpose random generators,
- the traceroute engine and ping primitives.

Everything derives from one seed: two platforms built with equal configs
produce bit-identical datasets.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.measurement.congestionmodel import (
    CongestionConfig,
    CongestionSchedule,
    SegmentGeo,
    assign_congestion,
)
from repro.measurement.realization import (
    PathRealization,
    SegmentKey,
    StepMemo,
    realize_path,
)
from repro.measurement.rttmodel import DelayModel, DelayParams
from repro.measurement.traceroute import ArtifactParams, TracerouteEngine
from repro.net.asn import ASN
from repro.net.ip import IPVersion
from repro.obs import trace as obs_trace
from repro.seeds import PLATFORM_SEED
from repro.routing.bgp import compute_route_table
from repro.routing.dynamics import (
    PathEpoch,
    RoutingDynamicsConfig,
    RoutingSchedule,
    build_routing_schedule,
    sample_edge_outages,
    sample_pair_flaps,
)
from repro.routing.table import RouteTable
from repro.topology.addressing import AddressingConfig, AddressPlan, allocate_addresses
from repro.topology.cdn import CDNDeployment, Server, deploy_cdn
from repro.topology.generator import ASGraph, TopologyConfig, generate_topology
from repro.topology.routers import RouterTopology, build_router_topology

__all__ = ["CANDIDATE_DTYPE", "MAX_ALTERNATIVES", "PlatformConfig", "MeasurementPlatform"]

CANDIDATE_DTYPE = np.dtype(np.int8)
"""Dtype of a candidate-route index as trace timelines store it."""

MAX_ALTERNATIVES = int(np.iinfo(CANDIDATE_DTYPE).max)
"""Most candidate routes a pair may keep, so every index fits
:data:`CANDIDATE_DTYPE`."""


@dataclass
class PlatformConfig:
    """Everything needed to build a platform, under a single seed."""

    seed: int = PLATFORM_SEED
    duration_hours: float = 485 * 24.0
    cluster_count: int = 60
    servers_per_cluster: int = 2
    dual_stack_fraction: float = 0.95
    max_alternatives: int = 6
    paris_adoption_fraction: Optional[float] = 10.0 / 16.0
    """When (as a fraction of the window) IPv4 switches to Paris traceroute;
    ``None`` keeps classic throughout.  IPv6 always uses classic, as in the
    paper."""

    topology: TopologyConfig = field(default_factory=TopologyConfig)
    addressing: AddressingConfig = field(default_factory=AddressingConfig)
    dynamics: RoutingDynamicsConfig = field(default_factory=RoutingDynamicsConfig)
    congestion: CongestionConfig = field(default_factory=CongestionConfig)
    delay: DelayParams = field(default_factory=DelayParams)
    artifacts: ArtifactParams = field(default_factory=ArtifactParams)

    def __post_init__(self) -> None:
        if (
            isinstance(self.max_alternatives, bool)
            or not isinstance(self.max_alternatives, int)
            or not 1 <= self.max_alternatives <= MAX_ALTERNATIVES
        ):
            raise ValueError(
                f"max_alternatives must be an int in 1..{MAX_ALTERNATIVES}, "
                f"got {self.max_alternatives!r}"
            )

    @property
    def paris_start_hour(self) -> Optional[float]:
        """Absolute Paris-adoption time for IPv4, or ``None``."""
        if self.paris_adoption_fraction is None:
            return None
        return self.duration_hours * self.paris_adoption_fraction


def _stream_seed(base_seed: int, *key_parts: object) -> np.random.SeedSequence:
    """Stable seed sequence for a named random stream."""
    digest = hashlib.blake2b(
        ("|".join(repr(part) for part in key_parts)).encode("utf-8"), digest_size=8
    ).digest()
    return np.random.SeedSequence([base_seed, int.from_bytes(digest, "big")])


class MeasurementPlatform:
    """The assembled simulation: build once, query everywhere.

    Attributes:
        config: The construction config.
        graph / plan / topology / cdn: The substrates.
        tables: Route tables per IP version.
        schedules: Routing schedules (path timelines) per IP version.
        congestion: The congestion schedule shared by all probes.
        delay_model / engine: The RTT model and traceroute engine.
    """

    def __init__(
        self,
        config: Optional[PlatformConfig] = None,
        jobs: int = 1,
    ) -> None:
        """Assemble every substrate under the config's seed.

        Each build stage (``topology`` ... ``congestion``) runs in a span
        of that name on the current tracer.

        Args:
            config: Construction parameters (default config otherwise).
            jobs: Worker processes for route computation (``<= 1``
                serial).  The result is identical at any job count.
        """
        self.config = config or PlatformConfig()
        seed = self.config.seed
        self._server_pairs_cache: Dict[Tuple[bool, bool], List[Tuple[Server, Server]]] = {}
        self._measured_as_pairs_cache: Optional[List[Tuple[ASN, ASN]]] = None

        with obs_trace.span("topology"):
            self.graph: ASGraph = generate_topology(
                self.config.topology, rng=np.random.default_rng(_stream_seed(seed, "topology"))
            )
        with obs_trace.span("addressing"):
            self.plan: AddressPlan = allocate_addresses(
                self.graph,
                self.config.addressing,
                rng=np.random.default_rng(_stream_seed(seed, "addressing")),
            )
        with obs_trace.span("routers"):
            self.topology: RouterTopology = build_router_topology(
                self.graph, self.plan, rng=np.random.default_rng(_stream_seed(seed, "routers"))
            )
        with obs_trace.span("cdn"):
            self.cdn: CDNDeployment = deploy_cdn(
                self.graph,
                self.plan,
                cluster_count=self.config.cluster_count,
                servers_per_cluster=self.config.servers_per_cluster,
                dual_stack_fraction=self.config.dual_stack_fraction,
                rng=np.random.default_rng(_stream_seed(seed, "cdn")),
            )

        # Routes are only ever queried between measurement-server ASes
        # (realizations, schedules, segment collection all start from
        # server pairs), so the table is scoped to them: |servers|^2
        # propagations instead of |ASes|^2.  Scoping is exact -- the
        # scoped table is the literal slice of the full one.
        measured_asns = sorted({server.asn for server in self.measurement_servers()})
        with obs_trace.span("routing"):
            self.tables: Dict[IPVersion, RouteTable] = {
                version: compute_route_table(
                    self.graph,
                    version,
                    sources=measured_asns,
                    destinations=measured_asns,
                    max_alternatives=self.config.max_alternatives,
                    rng=np.random.default_rng(
                        _stream_seed(seed, "tiebreak", int(version))
                    ),
                    jobs=jobs,
                )
                for version in (IPVersion.V4, IPVersion.V6)
            }

        duration = self.config.duration_hours
        as_pairs = self._measured_as_pairs()
        with obs_trace.span("dynamics"):
            outages = sample_edge_outages(
                self.graph,
                duration,
                self.config.dynamics,
                rng=np.random.default_rng(_stream_seed(seed, "outages")),
            )
            self.schedules: Dict[IPVersion, RoutingSchedule] = {}
            for version in (IPVersion.V4, IPVersion.V6):
                flaps = sample_pair_flaps(
                    as_pairs,
                    duration,
                    self.config.dynamics,
                    rng=np.random.default_rng(_stream_seed(seed, "flaps", int(version))),
                )
                self.schedules[version] = build_routing_schedule(
                    self.tables[version], as_pairs, duration, outages, flaps
                )

        self.delay_model = DelayModel(self.config.delay)
        self._realizations: Dict[Tuple[int, int, IPVersion, int], Optional[PathRealization]] = {}
        # Baseline RTT per realized candidate, same keys (see base_rtt).
        self._base_rtts: Dict[Tuple[int, int, IPVersion, int], float] = {}
        # AS-step expansions shared by every realization (see realize_path).
        self._steps: StepMemo = {}

        with obs_trace.span("congestion"):
            segments, crossings = self._collect_segments()
            self.congestion: CongestionSchedule = assign_congestion(
                segments,
                crossings,
                duration,
                self.config.congestion,
                rng=np.random.default_rng(_stream_seed(seed, "congestion")),
            )
        self.engine = TracerouteEngine(
            delay_model=self.delay_model,
            congestion=self.congestion,
            artifacts=self.config.artifacts,
        )

    # ------------------------------------------------------------------
    # Servers and pairs
    # ------------------------------------------------------------------

    def measurement_servers(self, dual_stack_only: bool = False) -> List[Server]:
        """One measurement server per cluster."""
        return self.cdn.measurement_servers(dual_stack_only=dual_stack_only)

    def server_pairs(
        self, dual_stack_only: bool = False, distinct_as: bool = True
    ) -> List[Tuple[Server, Server]]:
        """Ordered pairs of measurement servers.

        Args:
            dual_stack_only: Restrict to dual-stack endpoints (the paper's
                long-term campaign does).
            distinct_as: Drop pairs hosted in the same AS (paths would not
                cross the core).

        The mesh is cached per argument combination -- segment collection,
        the dataset builders and the examples all walk it repeatedly.
        Callers receive a fresh list; the shared Server objects are frozen.
        """
        cache_key = (dual_stack_only, distinct_as)
        cached = self._server_pairs_cache.get(cache_key)
        if cached is None:
            servers = self.measurement_servers(dual_stack_only=dual_stack_only)
            cached = [
                (src, dst)
                for src in servers
                for dst in servers
                if src.server_id != dst.server_id
                and not (distinct_as and src.asn == dst.asn)
            ]
            self._server_pairs_cache[cache_key] = cached
        return list(cached)

    def _measured_as_pairs(self) -> List[Tuple[ASN, ASN]]:
        if self._measured_as_pairs_cache is None:
            asns = sorted({server.asn for server in self.measurement_servers()})
            self._measured_as_pairs_cache = [
                (a, b) for a in asns for b in asns if a != b
            ]
        return self._measured_as_pairs_cache

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def candidates(self, src_asn: ASN, dst_asn: ASN, version: IPVersion):
        """Candidate routes between two ASes for one protocol."""
        return self.tables[version].routes(src_asn, dst_asn)

    def epochs(self, src: Server, dst: Server, version: IPVersion) -> Tuple[PathEpoch, ...]:
        """Routing epochs of the pair's AS-level path over the window."""
        return self.schedules[version].epochs((src.asn, dst.asn))

    def realization(
        self, src: Server, dst: Server, version: IPVersion, candidate_index: int
    ) -> Optional[PathRealization]:
        """The realized probe path for one candidate route (cached).

        Realizations share the platform's AS-step memo, so two paths that
        cross the same AS step from the same city hold the same hop
        objects for it.

        Returns ``None`` when the candidate does not exist or cannot carry
        the protocol.
        """
        key = (src.server_id, dst.server_id, version, candidate_index)
        if key in self._realizations:
            return self._realizations[key]
        candidates = self.candidates(src.asn, dst.asn, version)
        result: Optional[PathRealization] = None
        if 0 <= candidate_index < len(candidates):
            if src.address(version) is not None and dst.address(version) is not None:
                result = realize_path(
                    self.graph,
                    self.plan,
                    self.topology,
                    src,
                    dst,
                    candidates[candidate_index].path,
                    version,
                    steps=self._steps,
                )
        self._realizations[key] = result
        return result

    def base_rtt(
        self, src: Server, dst: Server, version: IPVersion, candidate_index: int
    ) -> Optional[float]:
        """Baseline end-to-end RTT of one candidate's realization (cached).

        Every campaign that samples the candidate -- long-term traces,
        pings -- starts from this value, so it is derived once per
        realization.  ``None`` when :meth:`realization` is ``None``.
        """
        key = (src.server_id, dst.server_id, version, candidate_index)
        cached = self._base_rtts.get(key)
        if cached is None:
            realization = self.realization(src, dst, version, candidate_index)
            if realization is None:
                return None
            cached = self._base_rtts[key] = self.delay_model.base_rtt(realization)
        return cached

    def _collect_segments(self) -> Tuple[Dict[SegmentKey, SegmentGeo], Dict[SegmentKey, int]]:
        """Geography and crossing counts of all primary-path segments."""
        from repro.net.asn import ASRelationship

        link_peering: Dict[int, bool] = {}
        for link in self.topology.all_links():
            relationship = self.graph.relationships.get(link.asn_a, link.asn_b)
            link_peering[link.link_id] = relationship is ASRelationship.PEER

        segments: Dict[SegmentKey, SegmentGeo] = {}
        crossings: Dict[SegmentKey, int] = {}
        for src, dst in self.server_pairs():
            for version in (IPVersion.V4, IPVersion.V6):
                realization = self.realization(src, dst, version, 0)
                if realization is None:
                    continue
                previous_city = src.city
                for hop in realization.hops:
                    key = hop.segment_key
                    if key not in segments:
                        peering = link_peering.get(key[1]) if key[0] == "x" else None
                        segments[key] = SegmentGeo(
                            kind=str(key[0]),
                            city_a=previous_city,
                            city_b=hop.city,
                            peering=peering,
                        )
                    crossings[key] = crossings.get(key, 0) + 1
                    previous_city = hop.city
        return segments, crossings

    # ------------------------------------------------------------------
    # Randomness
    # ------------------------------------------------------------------

    def rng(self, *key_parts: object) -> np.random.Generator:
        """A deterministic random stream named by ``key_parts``."""
        return np.random.default_rng(_stream_seed(self.config.seed, "stream", *key_parts))

    def stream_digester(self, *key_parts: object):
        """The entropy-digest half of :meth:`rng_factory`.

        ``stream_digester(*parts)(suffix)`` is the 64-bit digest that,
        paired with the config seed, seeds the ``rng(*parts, suffix)``
        stream.  The hot builders create one stream per (pair, epoch);
        hashing the constant pair prefix once and extending it per epoch
        via hashlib's streaming ``copy()`` (which digests exactly like
        hashing the concatenated message) removes most of the per-stream
        hashing cost.  Exposed separately so the columnar seed planner
        can batch entropy for a whole build through
        :func:`repro.measurement.fastseed.pcg64_states`.
        """
        prefix = hashlib.blake2b(
            ("|".join(repr(part) for part in ("stream", *key_parts)) + "|").encode(
                "utf-8"
            ),
            digest_size=8,
        )

        def digest(suffix: object) -> int:
            message = prefix.copy()
            message.update(repr(suffix).encode("utf-8"))
            return int.from_bytes(message.digest(), "big")

        return digest

    def rng_factory(self, *key_parts: object):
        """A factory of generators sharing the ``key_parts`` name prefix.

        ``rng_factory(*parts)(suffix)`` returns a generator bit-identical
        to ``rng(*parts, suffix)``.  This is the reference seeding path;
        the columnar builders plan the same streams in batch (see
        :meth:`stream_digester`) and fall back to this one stream at a
        time.
        """
        digester = self.stream_digester(*key_parts)
        base_seed = self.config.seed

        def make(suffix: object) -> np.random.Generator:
            seed = np.random.SeedSequence([base_seed, digester(suffix)])
            return np.random.Generator(np.random.PCG64(seed))

        return make

    # ------------------------------------------------------------------
    # Ground truth for validation
    # ------------------------------------------------------------------

    def congested_segment_keys(self) -> List[SegmentKey]:
        """Ground-truth congested segments (for scoring the detectors)."""
        return self.congestion.congested_keys()
