"""Reference datasets built by the per-epoch object builders.

The columnar kernels replay the draw sequence of ``_build_timeline`` and
``_build_ping_timeline`` bit for bit; these helpers assemble a whole
dataset from those object builders, over the same tasks in the same
order as the public builders, so tests can compare the two.
"""

from __future__ import annotations

from repro.datasets.longterm import LongTermConfig, LongTermDataset, _build_timeline
from repro.datasets.shortterm import (
    ShortTermConfig,
    ShortTermPingDataset,
    _build_ping_timeline,
)


def _tasks(pairs, versions):
    for src, dst in pairs:
        for version in versions:
            if src.address(version) is not None and dst.address(version) is not None:
                yield src, dst, version


def reference_longterm_dataset(platform, config: LongTermConfig, pairs=None) -> LongTermDataset:
    """What ``build_longterm_dataset`` builds, through ``_build_timeline``."""
    if pairs is None:
        pairs = platform.server_pairs(dual_stack_only=config.dual_stack_only)
    pairs = list(pairs)
    dataset = LongTermDataset(grid=config.grid())
    for src, dst in pairs:
        dataset.servers[src.server_id] = src
        dataset.servers[dst.server_id] = dst
    for src, dst, version in _tasks(pairs, config.versions):
        dataset.timelines[(src.server_id, dst.server_id, version)] = _build_timeline(
            platform, src, dst, version, dataset.grid
        )
    return dataset


def reference_ping_dataset(platform, config: ShortTermConfig) -> ShortTermPingDataset:
    """What ``build_shortterm_ping_dataset`` builds, through ``_build_ping_timeline``."""
    dataset = ShortTermPingDataset(grid=config.ping_grid())
    times = dataset.grid.times()
    for src, dst, version in _tasks(platform.server_pairs(dual_stack_only=False), config.versions):
        dataset.timelines[(src.server_id, dst.server_id, version)] = _build_ping_timeline(
            platform, src, dst, version, times, config
        )
    return dataset
