"""Router-ownership inference: the six heuristics of Section 5.3.

Traceroute shows *addresses*, BGP says who *announces* them -- but the
router answering may belong to a different AS (on a customer-provider link
the subnet usually comes from the provider).  The paper labels each
observed interface with candidate owner ASes using six heuristics (Figure
8), then resolves candidates into one owner per interface:

``first``
    IPx followed by IPy, both announced by ASi: IPx is on a router
    possibly owned by ASi.
``noip2as``
    IPy has no mapping but its neighbours IPx and IPz both map to ASi:
    IPy possibly belongs to ASi.
``customer``
    IPx, IPy map to ASi, IPz to ASj, and ASj is a customer of ASi: the
    interconnect interface IPy is on the customer's router (ASj), using
    provider-assigned address space.
``provider``
    IPx maps to ASi, IPy to ASj, and ASj is a provider of ASi: IPy is on
    the provider's router facing its customer (owner ASj).
``back``
    Links IPx1-IPy, IPx2-IPy, IPx3-IPy where IPx1 and IPx2 are already
    labeled ASi: label IPx3 ASi too, provided ASi announces IPx3.
``forward``
    Unlabeled IPx whose observed links all lead to interfaces announced by
    ASj and already labeled: label IPx ASj.

Resolution: a single candidate wins outright; with multiple candidates the
most frequent label wins only if it came from the ``first`` heuristic;
otherwise the interface stays unresolved (the paper: "our method annotates
the likely owner of most, but not all interfaces").
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.net.asn import ASN, RelationshipTable
from repro.net.ip import IPAddress

__all__ = ["HopView", "OwnershipInference", "infer_ownership"]

_Label = Tuple[ASN, str]  # (candidate owner, heuristic name)


@dataclass(frozen=True)
class HopView:
    """One responding hop as the analysis sees it: address + BGP mapping."""

    address: IPAddress
    asn: Optional[ASN]


@dataclass
class OwnershipInference:
    """Candidate labels and resolved owners per interface address."""

    labels: Dict[IPAddress, Counter] = field(default_factory=lambda: defaultdict(Counter))
    owners: Dict[IPAddress, Optional[ASN]] = field(default_factory=dict)

    def add_label(self, address: IPAddress, asn: ASN, heuristic: str) -> None:
        """Record one candidate label."""
        self.labels[address][(asn, heuristic)] += 1

    def candidates(self, address: IPAddress) -> Dict[ASN, int]:
        """Total label count per candidate AS for one address."""
        totals: Dict[ASN, int] = defaultdict(int)
        for (asn, _heuristic), count in self.labels.get(address, {}).items():
            totals[asn] += count
        return dict(totals)

    def owner(self, address: IPAddress) -> Optional[ASN]:
        """The resolved owner, or ``None`` when unresolved/unseen."""
        return self.owners.get(address)

    def labeled_addresses(self) -> List[IPAddress]:
        """All addresses with at least one candidate label."""
        return sorted(self.labels, key=lambda address: (int(address.version), address.value))

    def resolve(self) -> None:
        """Turn candidate labels into owners (see module docstring)."""
        for address, counter in self.labels.items():
            distinct = {asn for asn, _ in counter}
            if not distinct:
                self.owners[address] = None
                continue
            if len(distinct) == 1:
                # Singleton set: same element whatever the iteration order.
                self.owners[address] = next(iter(distinct))  # repro: noqa[DET002]
                continue
            (top_asn, top_heuristic), _count = counter.most_common(1)[0]
            if top_heuristic == "first":
                self.owners[address] = top_asn
            else:
                self.owners[address] = None


def _triples(hops: Sequence[HopView]) -> Iterable[Tuple[Optional[HopView], HopView, Optional[HopView]]]:
    """(previous, current, next) windows over a hop sequence."""
    for index, current in enumerate(hops):
        previous = hops[index - 1] if index > 0 else None
        nxt = hops[index + 1] if index + 1 < len(hops) else None
        yield previous, current, nxt


def infer_ownership(
    paths: Iterable[Sequence[HopView]],
    relationships: RelationshipTable,
    passes: int = 2,
) -> OwnershipInference:
    """Run the six heuristics over a set of observed traceroute paths.

    Args:
        paths: Hop sequences, read once and in order, so a generator
            that builds each one as it is asked for keeps one path alive
            at a time (responding hops only; callers should split
            sequences at unresponsive hops *except* single missing hops,
            which are kept as mapping-less :class:`HopView` entries so the
            ``noip2as`` heuristic can see them -- here a hop with
            ``asn=None`` covers both cases).
        relationships: AS relationship data (CAIDA-style; ground truth in
            the simulator).
        passes: Iterations of the graph heuristics (``back``/``forward``),
            which consume labels produced earlier.

    Returns:
        The inference with owners resolved.
    """
    inference = OwnershipInference()
    # Observed adjacencies for the graph heuristics: neighbor sets per hop.
    successors: Dict[IPAddress, Set[IPAddress]] = defaultdict(set)
    predecessors: Dict[IPAddress, Set[IPAddress]] = defaultdict(set)
    mapping: Dict[IPAddress, Optional[ASN]] = {}

    # Pass 1: the four sequence heuristics, the only pass over the paths.
    for hops in paths:
        for previous, current, nxt in _triples(hops):
            mapping.setdefault(current.address, current.asn)
            if previous is not None:
                predecessors[current.address].add(previous.address)
                successors[previous.address].add(current.address)

            # first: current and next announced by the same AS.
            if nxt is not None and current.asn is not None and current.asn == nxt.asn:
                inference.add_label(current.address, current.asn, "first")

            # noip2as: unmapped hop between two hops of the same AS.
            if (
                current.asn is None
                and previous is not None
                and nxt is not None
                and previous.asn is not None
                and previous.asn == nxt.asn
            ):
                inference.add_label(current.address, previous.asn, "noip2as")

            # customer: provider-assigned interconnect address on the
            # customer's router.
            if (
                previous is not None
                and nxt is not None
                and previous.asn is not None
                and current.asn is not None
                and nxt.asn is not None
                and previous.asn == current.asn
                and nxt.asn != current.asn
                and relationships.is_customer_of(nxt.asn, current.asn)
            ):
                inference.add_label(current.address, nxt.asn, "customer")

            # provider: the provider-side interface facing its customer.
            if (
                previous is not None
                and previous.asn is not None
                and current.asn is not None
                and previous.asn != current.asn
                and relationships.is_customer_of(previous.asn, current.asn)
            ):
                inference.add_label(current.address, current.asn, "provider")

    # Passes 2+: the graph heuristics, which feed on existing labels.
    for _ in range(max(0, passes - 1)):
        inference.resolve()
        new_labels: List[Tuple[IPAddress, ASN, str]] = []

        # back: several labeled predecessors of the same owner.
        for address, owner in list(inference.owners.items()):
            if owner is None:
                continue
            for follower in successors.get(address, ()):
                siblings = predecessors.get(follower, set())
                labeled_same = [
                    sibling
                    for sibling in siblings
                    if inference.owner(sibling) == owner
                ]
                if len(labeled_same) < 2:
                    continue
                for sibling in siblings:
                    if sibling in inference.owners and inference.owners[sibling] is not None:
                        continue
                    if mapping.get(sibling) == owner:
                        new_labels.append((sibling, owner, "back"))

        # forward: all observed next hops announced by one labeled AS.
        for address in list(successors):
            if inference.owner(address) is not None or inference.labels.get(address):
                continue
            nexts = successors[address]
            next_asns = {mapping.get(nxt) for nxt in nexts}
            if len(nexts) < 2 or len(next_asns) != 1:
                continue
            (next_asn,) = next_asns
            if next_asn is None:
                continue
            if all(inference.owner(nxt) is not None for nxt in nexts):
                new_labels.append((address, next_asn, "forward"))

        if not new_labels:
            break
        for address, asn, heuristic in new_labels:
            inference.add_label(address, asn, heuristic)

    inference.resolve()
    return inference
