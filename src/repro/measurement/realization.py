"""Path realization: from an AS path to the concrete probe path.

Given a source server, a destination server and an AS-level path between
their host ASes, :func:`realize_path` reconstructs what a traceroute would
traverse:

- which interdomain link instance carries each AS crossing (chosen for
  forward geographic progress, deterministically),
- the intra-AS hops between a network's ingress and egress cities,
- the address each hop answers with (ingress-interface semantics: crossing
  from X into Y shows Y's interface on the shared subnet),
- the BGP-mapped ASN of each hop address versus the ground-truth owner,
- the observed AS path after the paper's imputation rule (Section 4.1:
  fill a missing hop only when both known sides agree), with ``UNKNOWN_ASN``
  tokens where imputation fails.

The realization also carries everything the RTT model needs: per-segment
great-circle distances and stable segment keys that congestion processes
attach to.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.net.asn import ASN
from repro.net.geo import GeoLocation
from repro.net.ip import IPAddress, IPVersion
from repro.topology.addressing import AddressPlan
from repro.topology.cdn import Server
from repro.topology.generator import ASGraph
from repro.topology.routers import InterdomainLink, RouterTopology

__all__ = [
    "UNKNOWN_ASN",
    "SegmentKey",
    "HopSpec",
    "PathRealization",
    "StepExpansion",
    "StepKey",
    "StepMemo",
    "expand_step",
    "realize_path",
    "observed_as_path",
    "segment_seed",
]

UNKNOWN_ASN: ASN = -1
"""Token for an AS-path position that could not be mapped or imputed."""

# A segment key identifies the piece of infrastructure a probe traverses to
# reach a hop; congestion processes attach to these keys, so paths sharing
# infrastructure share congestion:
#   ("x", link_id)                      -- an interdomain link instance
#   ("i", asn, city_a, city_b)          -- an intra-AS segment (cities sorted)
#   ("h", asn, city)                    -- the host/LAN segment at an endpoint
SegmentKey = Tuple


@dataclass(frozen=True)
class HopSpec:
    """One hop of a realized path.

    Attributes:
        address: The address the hop answers probes with (``None`` only for
            hops that can never answer; not produced by the current builder).
        owner: Ground-truth operator of the responding router.
        mapped_asn: Origin AS of the hop address per BGP (``None`` when the
            address is unannounced).
        city: Hop location.
        distance_km: Great-circle distance from the previous hop.
        segment_key: Key of the segment arriving at this hop.
        respond_probability: Chance the hop answers a probe.
        is_destination: Whether this hop is the destination server itself.
    """

    address: IPAddress
    owner: ASN
    mapped_asn: Optional[ASN]
    city: GeoLocation
    distance_km: float
    segment_key: SegmentKey
    respond_probability: float
    is_destination: bool = False


@dataclass(frozen=True)
class PathRealization:
    """A fully expanded probe path between two servers for one protocol.

    Attributes:
        src_server_id / dst_server_id: Endpoint servers.
        version: IP version of the probes.
        as_path: Ground-truth AS-level path (host AS to host AS).
        hops: The hop sequence, source gateway first, destination last.
        observed_path_complete: The AS path an analyst reconstructs when all
            hops respond (after mapping + imputation + collapsing).
        load_balanced: Whether the path crosses a per-flow load-balanced
            segment (drives classic-traceroute loop artifacts).
    """

    src_server_id: int
    dst_server_id: int
    version: IPVersion
    as_path: Tuple[ASN, ...]
    hops: Tuple[HopSpec, ...]
    observed_path_complete: Tuple[ASN, ...]
    load_balanced: bool

    @property
    def segment_keys(self) -> Tuple[SegmentKey, ...]:
        """Segment key per hop, in path order."""
        return tuple(hop.segment_key for hop in self.hops)

    def observed_path_with_miss(self, missing_hop: int) -> Tuple[ASN, ...]:
        """Observed AS path when ``missing_hop`` does not respond."""
        mapped = [hop.mapped_asn for hop in self.hops]
        mapped[missing_hop] = None
        return observed_as_path(self.src_asn, mapped)

    @property
    def src_asn(self) -> ASN:
        """Host AS of the source server."""
        return self.as_path[0]

    @property
    def dst_asn(self) -> ASN:
        """Host AS of the destination server."""
        return self.as_path[-1]


def observed_as_path(src_asn: ASN, mapped_hops: Sequence[Optional[ASN]]) -> Tuple[ASN, ...]:
    """Reconstruct the AS path an analyst derives from hop mappings.

    Applies the paper's rule: a hop with no mapping (unresponsive or
    unannounced address) is imputed only when the nearest known ASNs on
    both sides agree; otherwise it becomes an :data:`UNKNOWN_ASN` token.
    Consecutive duplicates then collapse into single AS-path entries, and
    consecutive unknown tokens collapse into one.

    Args:
        src_asn: The source's host AS (known from the vantage point itself).
        mapped_hops: BGP-mapped ASN per responding hop, ``None`` for hops
            with no usable mapping.
    """
    sequence: List[Optional[ASN]] = [src_asn] + list(mapped_hops)

    # Impute interior runs of None bounded by the same ASN on both sides.
    result: List[Optional[ASN]] = list(sequence)
    index = 0
    while index < len(result):
        if result[index] is not None:
            index += 1
            continue
        run_start = index
        while index < len(result) and result[index] is None:
            index += 1
        left = result[run_start - 1] if run_start > 0 else None
        right = result[index] if index < len(result) else None
        if left is not None and left == right:
            for position in range(run_start, index):
                result[position] = left

    collapsed: List[ASN] = []
    for entry in result:
        token = UNKNOWN_ASN if entry is None else entry
        if not collapsed or collapsed[-1] != token:
            collapsed.append(token)
    return tuple(collapsed)


def segment_seed(key: SegmentKey, salt: str = "") -> int:
    """Stable 63-bit seed derived from a segment key (for per-link draws)."""
    digest = hashlib.blake2b(
        (repr(key) + "|" + salt).encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") >> 1


def _city_key(city: GeoLocation) -> Tuple[str, str]:
    return (city.city, city.country)


def _intra_key(asn: ASN, city_a: GeoLocation, city_b: GeoLocation) -> SegmentKey:
    key_a, key_b = sorted((_city_key(city_a), _city_key(city_b)))
    return ("i", asn, key_a, key_b)


def _pick_link_instance(
    instances: Sequence[InterdomainLink],
    topology: RouterTopology,
    from_asn: ASN,
    current_city: GeoLocation,
    version: IPVersion,
) -> Optional[InterdomainLink]:
    """Deterministically choose the link instance nearest the current city."""
    best: Optional[Tuple[float, int, InterdomainLink]] = None
    for link in instances:
        if version is IPVersion.V6 and not link.supports_ipv6():
            continue
        near_router = topology.routers[link.router_in(from_asn)]
        distance = current_city.distance_km(near_router.city)
        ranked = (distance, link.link_id, link)
        if best is None or ranked[:2] < best[:2]:
            best = ranked
    return best[2] if best else None


class StepExpansion(NamedTuple):
    """The hops one AS-level step adds to a realized path.

    Attributes:
        hops: The egress hop inside the source AS (only when the entry city
            is not the link's near end), the far interface of the chosen
            link instance, and the metro core hop of the next AS.
        exit_city: Where the step leaves the probe (the far router's city).
        load_balanced: Whether the AS edge has more than one link instance.
    """

    hops: Tuple[HopSpec, ...]
    exit_city: GeoLocation
    load_balanced: bool


StepKey = Tuple[ASN, ASN, GeoLocation, IPVersion]
"""``(from_asn, to_asn, entry city, version)`` -- everything a step's
expansion depends on besides the topology and the address plan."""

StepMemo = Dict[StepKey, Optional[StepExpansion]]
"""Step expansions by key; ``None`` marks a step the protocol cannot cross."""


def _internal_address(
    topology: RouterTopology, router_id: int, version: IPVersion
) -> Optional[IPAddress]:
    if version is IPVersion.V4:
        return topology.internal_v4[router_id]
    return topology.internal_v6.get(router_id)


def _internal_hop(
    plan: AddressPlan,
    topology: RouterTopology,
    asn: ASN,
    from_city: GeoLocation,
    to_city: GeoLocation,
    version: IPVersion,
    core: bool = False,
) -> Optional[HopSpec]:
    """The hop inside ``asn`` arriving at ``to_city``, or ``None`` when its
    router has no address for the protocol."""
    router = (
        topology.core_router(asn, to_city)
        if core
        else topology.border_router(asn, to_city)
    )
    address = _internal_address(topology, router.router_id, version)
    if address is None:
        return None
    # A same-city hop still traverses the metro aggregation fabric.
    distance = from_city.distance_km(to_city) if from_city != to_city else 15.0
    return HopSpec(
        address=address,
        owner=asn,
        mapped_asn=plan.origin(address),
        city=to_city,
        distance_km=distance,
        segment_key=_intra_key(asn, from_city, to_city),
        respond_probability=router.respond_probability,
    )


def expand_step(
    plan: AddressPlan,
    topology: RouterTopology,
    from_asn: ASN,
    to_asn: ASN,
    entry_city: GeoLocation,
    version: IPVersion,
) -> Optional[StepExpansion]:
    """Expand the AS crossing ``from_asn`` -> ``to_asn`` entered at ``entry_city``.

    Returns:
        The step's hops, or ``None`` when no link instance or router on the
        way can carry the protocol.
    """
    instances = topology.link_instances(from_asn, to_asn)
    link = _pick_link_instance(instances, topology, from_asn, entry_city, version)
    if link is None:
        return None

    hops: List[HopSpec] = []
    near_router = topology.routers[link.router_in(from_asn)]
    if _city_key(near_router.city) != _city_key(entry_city):
        # Traverse from_asn internally to the egress city.
        egress = _internal_hop(plan, topology, from_asn, entry_city, near_router.city, version)
        if egress is None:
            return None
        hops.append(egress)

    far_router = topology.routers[link.router_in(to_asn)]
    far_address = link.far_interface(from_asn, version)
    if far_address is None:
        return None
    hops.append(
        HopSpec(
            address=far_address,
            owner=to_asn,
            mapped_asn=plan.origin(far_address),
            city=far_router.city,
            distance_km=near_router.city.distance_km(far_router.city),
            segment_key=("x", link.link_id),
            respond_probability=far_router.respond_probability,
        )
    )
    # Probes then traverse the new network's metro core.
    core = _internal_hop(
        plan, topology, to_asn, far_router.city, far_router.city, version, core=True
    )
    if core is None:
        return None
    hops.append(core)
    return StepExpansion(tuple(hops), far_router.city, len(instances) > 1)


def realize_path(
    graph: ASGraph,
    plan: AddressPlan,
    topology: RouterTopology,
    src: Server,
    dst: Server,
    as_path: Tuple[ASN, ...],
    version: IPVersion,
    steps: Optional[StepMemo] = None,
) -> Optional[PathRealization]:
    """Expand ``as_path`` between two servers into a hop-level path.

    Each AS-level step is looked up in (or added to) ``steps``, so
    realizations that cross the same step from the same city share its
    :class:`HopSpec` objects.  The memo must only ever see this
    ``plan`` and ``topology``; ``None`` starts a fresh one.

    Returns:
        The realization, or ``None`` when the path cannot be realized for
        this protocol (e.g. an IPv6 probe over a link instance without v6).

    Raises:
        ValueError: If the endpoints do not match the path's end ASes.
    """
    if not as_path or as_path[0] != src.asn or as_path[-1] != dst.asn:
        raise ValueError(
            f"AS path {as_path} does not connect AS{src.asn} to AS{dst.asn}"
        )
    dst_address = dst.address(version)
    if dst_address is None:
        return None
    if steps is None:
        steps = {}

    # First hop: the source AS gateway in the source city.
    gateway = topology.border_router(src.asn, src.city)
    gateway_address = _internal_address(topology, gateway.router_id, version)
    if gateway_address is None:
        return None
    hops: List[HopSpec] = [
        HopSpec(
            address=gateway_address,
            owner=src.asn,
            mapped_asn=plan.origin(gateway_address),
            city=src.city,
            distance_km=0.5,  # server LAN to gateway
            segment_key=("h", src.asn, _city_key(src.city)),
            respond_probability=gateway.respond_probability,
        )
    ]
    current_city = src.city
    load_balanced = False

    for from_asn, to_asn in zip(as_path, as_path[1:]):
        key = (from_asn, to_asn, current_city, version)
        if key in steps:
            step = steps[key]
        else:
            step = steps[key] = expand_step(
                plan, topology, from_asn, to_asn, current_city, version
            )
        if step is None:
            return None
        hops.extend(step.hops)
        current_city = step.exit_city
        load_balanced = load_balanced or step.load_balanced

    if _city_key(current_city) != _city_key(dst.city):
        last = _internal_hop(plan, topology, dst.asn, current_city, dst.city, version)
        if last is None:
            return None
        hops.append(last)

    # Destination server: always responds, mapped via its announced block.
    hops.append(
        HopSpec(
            address=dst_address,
            owner=dst.asn,
            mapped_asn=plan.origin(dst_address),
            city=dst.city,
            distance_km=0.5,
            segment_key=("h", dst.asn, _city_key(dst.city)),
            respond_probability=1.0,
            is_destination=True,
        )
    )

    observed = observed_as_path(src.asn, [hop.mapped_asn for hop in hops])
    return PathRealization(
        src_server_id=src.server_id,
        dst_server_id=dst.server_id,
        version=version,
        as_path=tuple(as_path),
        hops=tuple(hops),
        observed_path_complete=observed,
        load_balanced=load_balanced,
    )
