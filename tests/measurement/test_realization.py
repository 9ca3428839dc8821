"""Tests for path realization and observed-AS-path reconstruction."""

import pytest

from repro.harness.scenarios import get_scenario
from repro.measurement import realization
from repro.measurement.platform import MeasurementPlatform
from repro.measurement.realization import (
    UNKNOWN_ASN,
    expand_step,
    observed_as_path,
    realize_path,
    segment_seed,
)
from repro.net.ip import IPVersion


class TestObservedASPath:
    def test_collapses_consecutive_duplicates(self):
        assert observed_as_path(1, [1, 1, 2, 2, 3]) == (1, 2, 3)

    def test_imputes_interior_gap(self):
        assert observed_as_path(1, [1, None, 1, 2]) == (1, 2)

    def test_gap_between_different_ases_stays_unknown(self):
        assert observed_as_path(1, [1, None, 2]) == (1, UNKNOWN_ASN, 2)

    def test_consecutive_unknowns_collapse(self):
        assert observed_as_path(1, [1, None, None, 2]) == (1, UNKNOWN_ASN, 2)

    def test_trailing_gap_stays_unknown(self):
        assert observed_as_path(1, [1, 2, None]) == (1, 2, UNKNOWN_ASN)

    def test_run_imputation_requires_both_sides(self):
        # Left side 2, right side 3: cannot impute the run.
        assert observed_as_path(1, [2, None, None, 3]) == (1, 2, UNKNOWN_ASN, 3)

    def test_source_asn_always_first(self):
        assert observed_as_path(9, [5, 5, 6])[0] == 9

    def test_empty_hop_list(self):
        assert observed_as_path(7, []) == (7,)

    def test_all_unresponsive(self):
        assert observed_as_path(7, [None, None]) == (7, UNKNOWN_ASN)


class TestSegmentSeed:
    def test_stable(self):
        key = ("x", 42)
        assert segment_seed(key) == segment_seed(key)

    def test_salt_changes_seed(self):
        key = ("x", 42)
        assert segment_seed(key, "stretch") != segment_seed(key, "noise")

    def test_different_keys_differ(self):
        assert segment_seed(("x", 1)) != segment_seed(("x", 2))

    def test_nonnegative_63_bit(self):
        seed = segment_seed(("i", 100, ("A", "B"), ("C", "D")))
        assert 0 <= seed < (1 << 63)


class TestRealizePath:
    def _pair(self, platform):
        return platform.server_pairs()[0]

    def test_endpoints_and_ordering(self, platform):
        src, dst = self._pair(platform)
        candidates = platform.candidates(src.asn, dst.asn, IPVersion.V4)
        realization = realize_path(
            platform.graph, platform.plan, platform.topology,
            src, dst, candidates[0].path, IPVersion.V4,
        )
        assert realization is not None
        assert realization.hops[-1].is_destination
        assert realization.hops[-1].address == dst.ipv4
        assert realization.src_asn == src.asn
        assert realization.dst_asn == dst.asn

    def test_hop_owners_follow_as_path(self, platform):
        src, dst = self._pair(platform)
        candidates = platform.candidates(src.asn, dst.asn, IPVersion.V4)
        realization = realize_path(
            platform.graph, platform.plan, platform.topology,
            src, dst, candidates[0].path, IPVersion.V4,
        )
        owner_sequence = []
        for hop in realization.hops:
            if not owner_sequence or owner_sequence[-1] != hop.owner:
                owner_sequence.append(hop.owner)
        assert tuple(owner_sequence) == realization.as_path

    def test_distances_nonnegative(self, platform):
        src, dst = self._pair(platform)
        realization = platform.realization(src, dst, IPVersion.V4, 0)
        for hop in realization.hops:
            assert hop.distance_km >= 0.0

    def test_mismatched_endpoints_rejected(self, platform):
        src, dst = self._pair(platform)
        with pytest.raises(ValueError):
            realize_path(
                platform.graph, platform.plan, platform.topology,
                src, dst, (src.asn, src.asn + 1), IPVersion.V4,
            )

    def test_observed_path_matches_ground_truth_mostly(self, platform):
        """Without artifacts, the observed path equals the true AS path up
        to mapping quirks (provider-allocated addresses collapse; IXP ASNs
        and unknown tokens may appear)."""
        agreements = total = 0
        for src, dst in platform.server_pairs()[:40]:
            realization = platform.realization(src, dst, IPVersion.V4, 0)
            if realization is None:
                continue
            total += 1
            if realization.observed_path_complete == realization.as_path:
                agreements += 1
        assert total > 0
        assert agreements / total > 0.6

    def test_v6_realization_uses_v6_addresses(self, platform):
        for src, dst in platform.server_pairs(dual_stack_only=True)[:10]:
            realization = platform.realization(src, dst, IPVersion.V6, 0)
            if realization is None:
                continue
            for hop in realization.hops:
                assert hop.address.version is IPVersion.V6

    def test_segment_keys_one_per_hop(self, platform):
        src, dst = self._pair(platform)
        realization = platform.realization(src, dst, IPVersion.V4, 0)
        assert len(realization.segment_keys) == len(realization.hops)
        assert realization.segment_keys[0][0] == "h"
        assert realization.segment_keys[-1][0] == "h"

    def test_miss_variant_differs_only_at_gap(self, platform):
        src, dst = self._pair(platform)
        realization = platform.realization(src, dst, IPVersion.V4, 0)
        complete = realization.observed_path_complete
        # Missing the destination hop cannot happen (servers answer), but
        # missing any interior hop yields a path no longer than complete+1.
        for hop_index in range(len(realization.hops) - 1):
            variant = realization.observed_path_with_miss(hop_index)
            assert abs(len(variant) - len(complete)) <= 2


# ----------------------------------------------------------------------
# The platform's AS-step memo
# ----------------------------------------------------------------------

@pytest.fixture(scope="module", params=[0, 7], ids=["seed0", "seed7"])
def default_platform(request):
    """The ``default`` scenario's platform on one world seed."""
    return MeasurementPlatform(get_scenario("default").platform_config(request.param))


def every_candidate(platform):
    """``(src, dst, version, candidate index)`` for every candidate route."""
    for src, dst in platform.server_pairs():
        for version in (IPVersion.V4, IPVersion.V6):
            for index in range(len(platform.candidates(src.asn, dst.asn, version))):
                yield src, dst, version, index


def step_walk(platform, src, version, as_path):
    """The memoized steps a realization of ``as_path`` crosses, in order.

    Stops after a step memoized as ``None``, and before one the memo never
    saw (the realization failed ahead of it).
    """
    steps = []
    city = src.city
    for from_asn, to_asn in zip(as_path, as_path[1:]):
        key = (from_asn, to_asn, city, version)
        if key not in platform._steps:
            break
        step = platform._steps[key]
        steps.append(step)
        if step is None:
            break
        city = step.exit_city
    return steps


class TestStepMemo:
    def test_memoized_realizations_match_fresh_ones(self, default_platform):
        platform = default_platform
        realized = 0
        for src, dst, version, index in every_candidate(platform):
            memoized = platform.realization(src, dst, version, index)
            fresh = None
            if src.address(version) is not None:
                fresh = realize_path(
                    platform.graph, platform.plan, platform.topology, src, dst,
                    platform.candidates(src.asn, dst.asn, version)[index].path,
                    version,
                )
            assert memoized == fresh
            realized += memoized is not None
        assert realized > 1000

    def test_realizations_share_step_hops(self, default_platform):
        platform = default_platform
        crossings = {}
        for src, dst, version, index in every_candidate(platform):
            realized = platform.realization(src, dst, version, index)
            if realized is None:
                continue
            walk = step_walk(platform, src, version, realized.as_path)
            assert len(walk) == len(realized.as_path) - 1
            position = 1  # after the source gateway
            for step in walk:
                for offset, hop in enumerate(step.hops):
                    assert realized.hops[position + offset] is hop
                position += len(step.hops)
                crossings[id(step)] = crossings.get(id(step), 0) + 1
        # Far fewer distinct steps than step crossings: sharing is real.
        assert max(crossings.values()) > 10
        assert len(crossings) < sum(crossings.values()) / 5

    def test_step_without_ipv6_memoized_as_none(self, default_platform, monkeypatch):
        # IPv6 candidates never cross a v4-only AS edge, so probe IPv4
        # candidates over IPv6 between dual-stack servers.
        platform = default_platform
        topology = platform.topology
        dead_ends = 0
        for src, dst in platform.server_pairs(dual_stack_only=True):
            for candidate in platform.candidates(src.asn, dst.asn, IPVersion.V4):
                path = candidate.path
                if all(
                    any(link.supports_ipv6() for link in topology.link_instances(a, b))
                    for a, b in zip(path, path[1:])
                ):
                    continue
                steps = {}
                args = (platform.graph, platform.plan, topology, src, dst, path,
                        IPVersion.V6)
                assert realize_path(*args, steps=steps) is None
                failed = [key for key, step in steps.items() if step is None]
                assert len(failed) == 1
                assert expand_step(platform.plan, topology, *failed[0]) is None
                # A second realization is answered from the memo alone.
                memo = dict(steps)
                with monkeypatch.context() as patch:
                    patch.setattr(realization, "expand_step", None)
                    assert realize_path(*args, steps=steps) is None
                assert steps == memo
                dead_ends += 1
        assert dead_ends > 0
