"""Record and dataset layer.

- :mod:`repro.datasets.records` -- single-measurement records (traceroute
  with per-hop observations, ping).
- :mod:`repro.datasets.timeline` -- the per-pair containers the analyses
  consume: :class:`TraceTimeline` (a "trace timeline" in the paper's
  vocabulary, Section 4.1) and :class:`PingTimeline`.
- :mod:`repro.datasets.longterm` -- the 16-month full-mesh traceroute
  dataset builder (Section 2.1), scaled.
- :mod:`repro.datasets.shortterm` -- the short-term ping and traceroute
  campaign builders (Section 2.2).
- :mod:`repro.datasets.parallel` -- the fork-based worker pool the
  builders use for ``jobs > 1``.
"""

from repro.datasets.colocated import build_colocated_dataset, colocated_pairs
from repro.datasets.longterm import LongTermConfig, LongTermDataset, build_longterm_dataset
from repro.datasets.records import HopObservation, PingRecord, TracerouteRecord
from repro.datasets.shortterm import (
    ShortTermConfig,
    ShortTermPingDataset,
    ShortTermTraceDataset,
    build_shortterm_ping_dataset,
    build_shortterm_trace_dataset,
)
from repro.datasets.parallel import fork_map, resolve_jobs
from repro.datasets.timeline import PingTimeline, TraceTimeline

__all__ = [
    "fork_map",
    "resolve_jobs",
    "HopObservation",
    "TracerouteRecord",
    "PingRecord",
    "TraceTimeline",
    "PingTimeline",
    "LongTermConfig",
    "LongTermDataset",
    "build_longterm_dataset",
    "ShortTermConfig",
    "ShortTermPingDataset",
    "ShortTermTraceDataset",
    "build_shortterm_ping_dataset",
    "build_shortterm_trace_dataset",
    "colocated_pairs",
    "build_colocated_dataset",
]
