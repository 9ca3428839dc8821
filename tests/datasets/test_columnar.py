"""The columnar builders' bookkeeping: kernel lifetime and stream planning.

Output equivalence with the object path lives in
``test_columnar_equivalence.py``; these tests pin what a build keeps
alive and which RNG streams it seeds.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.datasets.columnar import CampaignKernels, RealizationKernel
from repro.datasets.longterm import LongTermConfig
from repro.datasets.shortterm import ShortTermConfig
from repro.measurement.platform import MeasurementPlatform, PlatformConfig
from repro.obs import metrics as obs_metrics

LONGTERM = LongTermConfig(days=30)
SHORTTERM = ShortTermConfig(ping_days=3.0)


@pytest.fixture(scope="module")
def small_platform() -> MeasurementPlatform:
    return MeasurementPlatform(
        PlatformConfig(seed=7, cluster_count=8, duration_hours=40 * 24.0)
    )


def _tasks(platform, config):
    return [
        (src, dst, version)
        for src, dst in platform.server_pairs(dual_stack_only=False)
        for version in config.versions
        if src.address(version) is not None and dst.address(version) is not None
    ]


def _live_kernels():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, RealizationKernel)]


def _epoch_counts(platform, grid, tasks):
    """``(sampled, total)`` routing epochs over ``tasks`` on ``grid``."""
    times = grid.times()
    sampled = total = 0
    for src, dst, version in tasks:
        for epoch in platform.epochs(src, dst, version):
            total += 1
            low = times.searchsorted(epoch.start_hour, side="left")
            high = times.searchsorted(epoch.end_hour, side="left")
            sampled += bool(high > low and epoch.candidate_index >= 0)
    return sampled, total


class TestKernelLifetime:
    def test_trace_build_leaves_no_kernel(self, small_platform):
        tasks = _tasks(small_platform, LONGTERM)[:12]
        kernels = CampaignKernels(small_platform, LONGTERM.grid())
        kernels.plan_streams("longterm", tasks)
        timelines = kernels.build_trace_timelines(tasks)
        assert any(timeline.paths for timeline in timelines)
        assert not any(isinstance(value, RealizationKernel) for value in vars(kernels).values())
        assert _live_kernels() == []

    def test_ping_build_leaves_no_kernel(self, small_platform):
        tasks = _tasks(small_platform, SHORTTERM)[:12]
        kernels = CampaignKernels(small_platform, SHORTTERM.ping_grid())
        timelines = kernels.build_ping_timelines(tasks, True)
        assert any(timeline.valid_count() for timeline in timelines)
        assert _live_kernels() == []


class TestStreamPlanning:
    def test_only_sampled_epochs_are_seeded(self, small_platform):
        tasks = _tasks(small_platform, LONGTERM)
        grid = LONGTERM.grid()
        sampled, total = _epoch_counts(small_platform, grid, tasks)
        # The platform simulates 40 days and the grid covers 30, so some
        # epochs fall outside the grid and must not get a stream.
        assert 0 < sampled < total
        counter = obs_metrics.get_registry().counter("fastseed.streams.batched")
        before = counter.value
        CampaignKernels(small_platform, grid).plan_streams("longterm", tasks)
        assert counter.value == before + sampled

    def test_planned_build_matches_reference_seeding(self, small_platform):
        # Unplanned pairs (the stream sources') seed through rng_factory;
        # the planned states must reproduce those streams exactly.
        tasks = _tasks(small_platform, LONGTERM)[:8]
        planned = CampaignKernels(small_platform, LONGTERM.grid())
        planned.plan_streams("longterm", tasks)
        unplanned = CampaignKernels(small_platform, LONGTERM.grid())
        for task in tasks:
            (left,) = planned.build_trace_timelines([task])
            (right,) = unplanned.build_trace_timelines([task])
            assert left.rtt_ms.tobytes() == right.rtt_ms.tobytes()
            assert left.path_id.tobytes() == right.path_id.tobytes()
            assert left.paths == right.paths

    def test_unplanned_epoch_raises(self, small_platform):
        grid = LONGTERM.grid()
        times = grid.times()
        for src, dst, version in _tasks(small_platform, LONGTERM):
            skipped = [
                number
                for number, epoch in enumerate(small_platform.epochs(src, dst, version))
                if times.searchsorted(epoch.end_hour) <= times.searchsorted(epoch.start_hour)
            ]
            if skipped:
                break
        else:
            pytest.fail("no task has an epoch outside the grid")
        kernels = CampaignKernels(small_platform, grid)
        kernels.plan_streams("longterm", [(src, dst, version)])
        windows, make_rng = kernels._epoch_streams("longterm", src, dst, version)
        assert skipped[0] not in [number for number, _, _, _ in windows]
        make_rng(windows[0][0])
        with pytest.raises(LookupError, match="not planned"):
            make_rng(skipped[0])

    def test_epoch_windows_match_scalar_search(self, small_platform):
        grid = LONGTERM.grid()
        times = grid.times()
        kernels = CampaignKernels(small_platform, grid)
        for src, dst, version in _tasks(small_platform, LONGTERM)[:20]:
            expected = []
            for number, epoch in enumerate(small_platform.epochs(src, dst, version)):
                low = int(times.searchsorted(epoch.start_hour, side="left"))
                high = int(times.searchsorted(epoch.end_hour, side="left"))
                if high > low and epoch.candidate_index >= 0:
                    expected.append((number, low, high, epoch.candidate_index))
            assert kernels._sampled_epochs(src, dst, version) == expected


def test_congestion_window_sums_in_path_order():
    # Float addition does not associate: in path order these series sum
    # to zeros, while starting from the last one would leave a 1.0.
    kernel = RealizationKernel.__new__(RealizationKernel)
    kernel.congestion = (
        np.array([1e16, 1.0]),
        np.array([1.0, 1e16]),
        np.array([-1e16, -1e16]),
    )
    assert kernel.congestion_window(0, 2).tolist() == [0.0, 0.0]
    assert kernel.congestion_window(1, 2).tolist() == [0.0]
    kernel.congestion = kernel.congestion[::-1]
    assert kernel.congestion_window(0, 2).tolist() == [0.0, 1.0]
    kernel.congestion = ()
    assert kernel.congestion_window(0, 2) is None


class TestDrawIdentities:
    """The numpy identities the packed samplers rest on, bit for bit.

    The samplers draw each epoch into slices of shared buffers and apply
    the noise scale once per block.  If a numpy release breaks one of
    these, this fails instead of a figure changing quietly.
    """

    SEEDS = [0, 1, 7, 2**31 + 5]
    SIZES = [0, 1, 2, 9, 118, 1000]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("shape, scale", [(2.0, 1.4), (2.0, 1.4 * 1.1), (0.5, 3.0)])
    def test_gamma_is_standard_gamma_times_scale(self, seed, size, shape, scale):
        reference = np.random.default_rng(seed)
        packed = np.random.default_rng(seed)
        expected = reference.gamma(shape, scale, size=size)
        buffer = np.full(size + 3, -1.0)
        packed.standard_gamma(shape, out=buffer[2:2 + size])
        got = buffer[2:2 + size] * scale
        assert got.tobytes() == expected.tobytes()
        # Both streams stand at the same place afterwards.
        assert packed.random() == reference.random()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_random_into_a_slice_is_random_n(self, seed, size):
        reference = np.random.default_rng(seed)
        packed = np.random.default_rng(seed)
        expected = reference.random(size)
        buffer = np.full(size + 5, -1.0)
        packed.random(out=buffer[3:3 + size])
        assert buffer[3:3 + size].tobytes() == expected.tobytes()
        assert buffer[:3].tolist() == [-1.0] * 3 and buffer[3 + size:].tolist() == [-1.0] * 2
        assert packed.random() == reference.random()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_one_double_draw_is_two_halves(self, seed, size):
        reference = np.random.default_rng(seed)
        first, second = reference.random(size), reference.random(size)
        both = np.random.default_rng(seed).random(2 * size)
        assert both.tobytes() == np.concatenate([first, second]).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_uniforms_never_reach_one(self, seed):
        # A miss needs ``random() >= p_all_respond``; at 1.0 none can.
        assert np.random.default_rng(seed).random(100_000).max() < 1.0
