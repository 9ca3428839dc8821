"""Tests for the six router-ownership heuristics.

Hand-built paths check each heuristic in isolation; the simulated-platform
test scores overall accuracy against the generator's ground truth.
"""

import pytest

from repro.core.ownership import HopView, infer_ownership
from repro.net.asn import ASRelationship, RelationshipTable
from repro.net.ip import IPAddress, IPVersion


def addr(value: int) -> IPAddress:
    return IPAddress.v4(value)


@pytest.fixture()
def relationships():
    table = RelationshipTable()
    table.add(10, 20, ASRelationship.CUSTOMER)   # 20 is customer of 10
    table.add(10, 30, ASRelationship.PEER)
    table.add(30, 20, ASRelationship.PEER)
    return table


class TestFirstHeuristic:
    def test_labels_first_of_same_as_pair(self, relationships):
        path = [HopView(addr(1), 10), HopView(addr(2), 10), HopView(addr(3), 20)]
        inference = infer_ownership([path], relationships)
        assert inference.owner(addr(1)) == 10
        assert ("first" in {h for _, h in inference.labels[addr(1)]})


class TestNoIP2ASHeuristic:
    def test_unmapped_hop_between_same_as(self, relationships):
        path = [HopView(addr(1), 10), HopView(addr(2), None), HopView(addr(3), 10)]
        inference = infer_ownership([path], relationships)
        assert inference.owner(addr(2)) == 10

    def test_unmapped_hop_between_different_as_unlabeled(self, relationships):
        path = [HopView(addr(1), 10), HopView(addr(2), None), HopView(addr(3), 20)]
        inference = infer_ownership([path], relationships)
        assert inference.owner(addr(2)) is None


class TestCustomerHeuristic:
    def test_provider_addressed_interconnect(self, relationships):
        # IPx, IPy announced by provider 10; IPz by customer 20: the
        # interconnect interface IPy belongs to the customer.
        path = [HopView(addr(1), 10), HopView(addr(2), 10), HopView(addr(3), 20)]
        inference = infer_ownership([path], relationships)
        assert inference.owner(addr(2)) == 20

    def test_not_applied_between_peers(self, relationships):
        path = [HopView(addr(1), 10), HopView(addr(2), 10), HopView(addr(3), 30)]
        inference = infer_ownership([path], relationships)
        candidates = inference.candidates(addr(2))
        assert 30 not in candidates


class TestProviderHeuristic:
    def test_provider_facing_interface(self, relationships):
        # Crossing from customer 20 into provider 10: IPy announced by 10
        # on the provider's router.
        path = [HopView(addr(1), 20), HopView(addr(2), 10), HopView(addr(3), 10)]
        inference = infer_ownership([path], relationships)
        assert inference.owner(addr(2)) == 10
        assert any(h == "provider" for _, h in inference.labels[addr(2)])


class TestGraphHeuristics:
    def test_back_heuristic(self, relationships):
        # Three predecessors of a common next hop; two already labeled 10
        # (via 'first'), the third also announced by 10 gets back-labeled.
        paths = [
            [HopView(addr(1), 10), HopView(addr(5), 10), HopView(addr(9), 20)],
            [HopView(addr(2), 10), HopView(addr(5), 10), HopView(addr(9), 20)],
            [HopView(addr(3), 10), HopView(addr(5), 10)],
        ]
        # addr(1), addr(2) get 'first' labels; addr(3) is followed only by
        # addr(5) once and has no own label yet.
        inference = infer_ownership(paths, relationships, passes=3)
        assert inference.owner(addr(3)) == 10

    def test_forward_heuristic(self, relationships):
        # Unlabeled, unmapped IPx whose observed links all lead to labeled
        # AS-20 interfaces.
        paths = [
            [HopView(addr(7), None), HopView(addr(11), 20), HopView(addr(12), 20)],
            [HopView(addr(7), None), HopView(addr(13), 20), HopView(addr(14), 20)],
        ]
        inference = infer_ownership(paths, relationships, passes=3)
        assert inference.owner(addr(7)) == 20


class TestResolution:
    def test_single_candidate_wins(self, relationships):
        path = [HopView(addr(1), 10), HopView(addr(2), 10)]
        inference = infer_ownership([path], relationships)
        assert inference.owner(addr(1)) == 10

    def test_conflict_resolved_by_first_majority(self, relationships):
        # addr(2) is labeled 20 by the customer heuristic once, but 'first'
        # labels it 10 repeatedly: the most frequent label came from
        # 'first', so 10 wins.
        conflict = [HopView(addr(1), 10), HopView(addr(2), 10), HopView(addr(3), 20)]
        reinforce = [HopView(addr(2), 10), HopView(addr(4), 10)]
        inference = infer_ownership(
            [conflict, reinforce, reinforce, reinforce], relationships
        )
        assert inference.owner(addr(2)) == 10

    def test_unseen_address_is_none(self, relationships):
        inference = infer_ownership([], relationships)
        assert inference.owner(addr(99)) is None

    def test_resolve_after_dropping_labels(self, relationships):
        # What the drop-one ablation does: filter the labels, re-resolve.
        path = [HopView(addr(1), 10), HopView(addr(2), 10), HopView(addr(3), 20)]
        inference = infer_ownership([path], relationships)
        assert inference.owner(addr(1)) == 10
        for address in list(inference.labels):
            inference.labels[address] = {
                label: count for label, count in inference.labels[address].items()
                if label[1] != "first"
            }
        inference.owners.clear()
        inference.resolve()
        # addr(1) kept no label: unresolved, not an error.
        assert inference.labels[addr(1)] == {}
        assert inference.owner(addr(1)) is None
        assert inference.owner(addr(2)) == 20


class TestSimulatedAccuracy:
    def test_accuracy_against_ground_truth(self, platform):
        """Resolved owners should overwhelmingly match the simulator's
        ground-truth interface owners."""
        from repro.net.ip import IPVersion as V

        paths = []
        for src, dst in platform.server_pairs():
            for version in (V.V4, V.V6):
                realization = platform.realization(src, dst, version, 0)
                if realization is None:
                    continue
                paths.append(
                    [HopView(hop.address, hop.mapped_asn) for hop in realization.hops]
                )
        inference = infer_ownership(paths, platform.graph.relationships, passes=3)
        checked = correct = 0
        for address in inference.labeled_addresses():
            owner = inference.owner(address)
            if owner is None:
                continue
            truth = platform.topology.interface_owner(address)
            if truth is None:
                continue  # a server address
            checked += 1
            if owner == truth:
                correct += 1
        assert checked > 50
        assert correct / checked >= 0.9

    def test_coverage_over_half_of_interfaces(self, platform):
        paths = []
        for src, dst in platform.server_pairs():
            realization = platform.realization(src, dst, IPVersion.V4, 0)
            if realization is None:
                continue
            paths.append(
                [HopView(hop.address, hop.mapped_asn) for hop in realization.hops]
            )
        inference = infer_ownership(paths, platform.graph.relationships, passes=3)
        seen = {hop.address for path in paths for hop in path}
        resolved = sum(
            1 for address in seen if inference.owner(address) is not None
        )
        assert resolved / len(seen) > 0.5

    def test_a_one_pass_generator_infers_what_a_list_does(self, platform):
        def paths():
            for src, dst in platform.server_pairs():
                for candidate in (0, 1):
                    realization = platform.realization(src, dst, IPVersion.V4, candidate)
                    if realization is not None:
                        yield [HopView(hop.address, hop.mapped_asn)
                               for hop in realization.hops]

        relationships = platform.graph.relationships
        from_list = infer_ownership(list(paths()), relationships, passes=3)
        from_generator = infer_ownership(paths(), relationships, passes=3)
        assert from_generator.owners == from_list.owners
        assert from_generator.labels == from_list.labels
        assert list(from_generator.labels) == list(from_list.labels)
