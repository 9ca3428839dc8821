"""Tests for the measurement-platform façade."""

import numpy as np
import pytest

from repro.measurement.platform import MAX_ALTERNATIVES, MeasurementPlatform, PlatformConfig
from repro.net.ip import IPVersion


class TestAssembly:
    def test_substrates_present(self, platform):
        assert platform.graph.ases
        assert platform.topology.routers
        assert platform.cdn.clusters
        assert platform.tables[IPVersion.V4].candidates
        assert platform.tables[IPVersion.V6].candidates

    def test_server_pairs_exclude_same_as(self, platform):
        for src, dst in platform.server_pairs():
            assert src.asn != dst.asn
            assert src.server_id != dst.server_id

    def test_dual_stack_filter(self, platform):
        for src, dst in platform.server_pairs(dual_stack_only=True):
            assert src.dual_stack and dst.dual_stack

    def test_epochs_cover_window(self, platform):
        src, dst = platform.server_pairs()[0]
        epochs = platform.epochs(src, dst, IPVersion.V4)
        assert epochs
        assert epochs[0].start_hour == 0.0
        assert epochs[-1].end_hour == pytest.approx(platform.config.duration_hours)

    def test_realization_cache_identity(self, platform):
        src, dst = platform.server_pairs()[0]
        first = platform.realization(src, dst, IPVersion.V4, 0)
        second = platform.realization(src, dst, IPVersion.V4, 0)
        assert first is second

    def test_out_of_range_candidate_is_none(self, platform):
        src, dst = platform.server_pairs()[0]
        assert platform.realization(src, dst, IPVersion.V4, 99) is None

    def test_rng_streams_independent_and_stable(self, platform):
        a1 = platform.rng("alpha").random(4)
        a2 = platform.rng("alpha").random(4)
        b = platform.rng("beta").random(4)
        assert np.allclose(a1, a2)
        assert not np.allclose(a1, b)

    def test_congested_keys_are_real_segments(self, platform):
        keys = set(platform.congested_segment_keys())
        if not keys:
            pytest.skip("seeded platform drew no congestion")
        all_keys = set()
        for src, dst in platform.server_pairs():
            realization = platform.realization(src, dst, IPVersion.V4, 0)
            if realization:
                all_keys.update(realization.segment_keys)
            realization = platform.realization(src, dst, IPVersion.V6, 0)
            if realization:
                all_keys.update(realization.segment_keys)
        assert keys <= all_keys

    def test_paris_start_hour(self, platform):
        expected = platform.config.duration_hours * 10.0 / 16.0
        assert platform.config.paris_start_hour == pytest.approx(expected)

    def test_paris_disabled(self):
        config = PlatformConfig(paris_adoption_fraction=None)
        assert config.paris_start_hour is None


class TestConfigValidation:
    @pytest.mark.parametrize("value", [True, False, 6.0, "6", None, 0, -1, 128])
    def test_max_alternatives_outside_the_candidate_column_is_rejected(self, value):
        with pytest.raises(ValueError, match="max_alternatives"):
            PlatformConfig(max_alternatives=value)

    @pytest.mark.parametrize("value", [1, 6, MAX_ALTERNATIVES])
    def test_max_alternatives_within_int8_is_accepted(self, value):
        assert PlatformConfig(max_alternatives=value).max_alternatives == value
        assert MAX_ALTERNATIVES == np.iinfo(np.int8).max


class TestDeterminism:
    def test_identical_configs_identical_platforms(self):
        first = MeasurementPlatform(
            PlatformConfig(seed=21, cluster_count=6, duration_hours=24.0 * 30)
        )
        second = MeasurementPlatform(
            PlatformConfig(seed=21, cluster_count=6, duration_hours=24.0 * 30)
        )
        assert first.graph.edges() == second.graph.edges()
        assert [s.ipv4 for s in first.measurement_servers()] == [
            s.ipv4 for s in second.measurement_servers()
        ]
        src1, dst1 = first.server_pairs()[0]
        src2, dst2 = second.server_pairs()[0]
        assert first.epochs(src1, dst1, IPVersion.V4) == second.epochs(
            src2, dst2, IPVersion.V4
        )
        assert first.congested_segment_keys() == second.congested_segment_keys()

    def test_different_seed_differs(self):
        first = MeasurementPlatform(
            PlatformConfig(seed=1, cluster_count=6, duration_hours=24.0 * 30)
        )
        second = MeasurementPlatform(
            PlatformConfig(seed=2, cluster_count=6, duration_hours=24.0 * 30)
        )
        assert [s.ipv4 for s in first.measurement_servers()] != [
            s.ipv4 for s in second.measurement_servers()
        ]
