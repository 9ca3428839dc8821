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
the likely owner of most, but not all interfaces").  Ties go to the label
recorded first, as with ``Counter.most_common``.

The corpus is ~46k hops on the default scenario, so the inference keys
its working state on each address's ``(version, value)`` -- the fields
an :class:`~repro.net.ip.IPAddress` hashes, hashed in C -- and asks the
relationship table about each AS pair once.  A key hashes as its address
does, so every set and dict holds and visits its entries in the order it
would with the addresses themselves; the result maps the addresses.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Hashable, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.net.asn import ASN, RelationshipTable
from repro.net.ip import IPAddress

__all__ = ["HopView", "OwnershipInference", "infer_ownership"]

_Label = Tuple[ASN, str]  # (candidate owner, heuristic name)
_Labels = Dict[_Label, int]  # label -> count, in first-recorded order


class HopView(NamedTuple):
    """One responding hop as the analysis sees it: address + BGP mapping.

    Any ``(address, asn)`` pair serves wherever a hop is read.
    """

    address: IPAddress
    asn: Optional[ASN]


@dataclass
class OwnershipInference:
    """Candidate labels and resolved owners per interface address.

    ``labels`` maps each address to its label counts, in the order the
    labels were first recorded.
    """

    labels: Dict[IPAddress, _Labels] = field(default_factory=dict)
    owners: Dict[IPAddress, Optional[ASN]] = field(default_factory=dict)

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
        """Turn the candidate labels into owners (see the module docstring)."""
        _resolve(self.labels, self.owners)


def _resolve(labels: Dict[Hashable, _Labels], owners: Dict[Hashable, Optional[ASN]]) -> None:
    """Turn candidate labels into owners (see the module docstring), in
    ``labels`` order."""
    for key, counts in labels.items():
        distinct = {asn for asn, _ in counts}
        if not distinct:
            owners[key] = None
            continue
        if len(distinct) == 1:
            # Singleton set: same element whatever the iteration order.
            owners[key] = next(iter(distinct))  # repro: noqa[DET002]
            continue
        # max keeps the first of equal counts, as Counter.most_common does.
        (top_asn, top_heuristic), _count = max(counts.items(), key=itemgetter(1))
        owners[key] = top_asn if top_heuristic == "first" else None


def infer_ownership(
    paths: Iterable[Sequence[Tuple[IPAddress, Optional[ASN]]]],
    relationships: RelationshipTable,
    passes: int = 2,
) -> OwnershipInference:
    """Run the six heuristics over a set of observed traceroute paths.

    Args:
        paths: Hop sequences of ``(address, asn)`` pairs (such as
            :class:`HopView`), read once and in order, so a generator
            that builds each one as it is asked for keeps one path alive
            at a time (responding hops only; callers should split
            sequences at unresponsive hops *except* single missing hops,
            which are kept as mapping-less entries so the ``noip2as``
            heuristic can see them -- here a hop with ``asn=None``
            covers both cases).
        relationships: AS relationship data (CAIDA-style; ground truth in
            the simulator).
        passes: Iterations of the graph heuristics (``back``/``forward``),
            which consume labels produced earlier.

    Returns:
        The inference with owners resolved.
    """
    # Working state per address key (see the module docstring).
    addresses: Dict[Hashable, IPAddress] = {}
    mapping: Dict[Hashable, Optional[ASN]] = {}
    labels: Dict[Hashable, _Labels] = {}
    # Observed adjacencies for the graph heuristics: neighbor sets per hop.
    successors: Dict[Hashable, Set[Hashable]] = defaultdict(set)
    predecessors: Dict[Hashable, Set[Hashable]] = defaultdict(set)
    customer_of: Dict[Tuple[ASN, ASN], bool] = {}

    def is_customer_of(customer: ASN, provider: ASN) -> bool:
        related = customer_of.get((customer, provider))
        if related is None:
            related = customer_of[(customer, provider)] = relationships.is_customer_of(
                customer, provider)
        return related

    def add_label(key: Hashable, label: _Label) -> None:
        counts = labels.get(key)
        if counts is None:
            counts = labels[key] = {}
        counts[label] = counts.get(label, 0) + 1

    # Pass 1: the four sequence heuristics, the only pass over the paths.
    for hops in paths:
        keys: List[Hashable] = []
        asns: List[Optional[ASN]] = []
        for address, asn in hops:
            key = (address.version, address.value)
            if key not in mapping:
                mapping[key] = asn
                addresses[key] = address
            keys.append(key)
            asns.append(asn)
        last = len(keys) - 1
        for index, key in enumerate(keys):
            asn = asns[index]
            previous_asn = next_asn = None
            if index:
                previous = keys[index - 1]
                previous_asn = asns[index - 1]
                predecessors[key].add(previous)
                successors[previous].add(key)
            if index < last:
                next_asn = asns[index + 1]
            if asn is None:
                # noip2as: unmapped hop between two hops of the same AS.
                if index and index < last and previous_asn is not None \
                        and previous_asn == next_asn:
                    add_label(key, (previous_asn, "noip2as"))
                continue

            # first: current and next announced by the same AS.
            if next_asn == asn:
                add_label(key, (asn, "first"))

            if previous_asn is None:
                continue
            if previous_asn != asn:
                # provider: the provider-side interface facing its customer.
                if is_customer_of(previous_asn, asn):
                    add_label(key, (asn, "provider"))
            elif next_asn is not None and next_asn != asn and is_customer_of(next_asn, asn):
                # customer: provider-assigned interconnect address on the
                # customer's router.
                add_label(key, (next_asn, "customer"))

    # Passes 2+: the graph heuristics, which feed on existing labels.
    owners: Dict[Hashable, Optional[ASN]] = {}
    for _ in range(max(0, passes - 1)):
        _resolve(labels, owners)
        new_labels: List[Tuple[Hashable, ASN, str]] = []

        # back: several labeled predecessors of the same owner.
        for key, owner in list(owners.items()):
            if owner is None:
                continue
            for follower in successors.get(key, ()):
                siblings = predecessors.get(follower, set())
                labeled_same = [sibling for sibling in siblings if owners.get(sibling) == owner]
                if len(labeled_same) < 2:
                    continue
                for sibling in siblings:
                    if owners.get(sibling) is not None:
                        continue
                    if mapping.get(sibling) == owner:
                        new_labels.append((sibling, owner, "back"))

        # forward: all observed next hops announced by one labeled AS.
        for key in list(successors):
            if owners.get(key) is not None or labels.get(key):
                continue
            nexts = successors[key]
            next_asns = {mapping.get(nxt) for nxt in nexts}
            if len(nexts) < 2 or len(next_asns) != 1:
                continue
            (next_asn,) = next_asns
            if next_asn is None:
                continue
            if all(owners.get(nxt) is not None for nxt in nexts):
                new_labels.append((key, next_asn, "forward"))

        if not new_labels:
            break
        for key, asn, heuristic in new_labels:
            add_label(key, (asn, heuristic))

    _resolve(labels, owners)
    return OwnershipInference(
        labels={addresses[key]: counts for key, counts in labels.items()},
        owners={addresses[key]: owner for key, owner in owners.items()},
    )
