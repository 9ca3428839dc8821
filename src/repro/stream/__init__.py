"""repro.stream: bounded-memory streaming over the measurement campaigns.

The batch pipeline materializes every timeline before :mod:`repro.core`
runs; this package feeds the campaign service (:mod:`repro.service`)
record streams instead, one pair at a time:

- :mod:`repro.stream.records` -- flat per-observation record types.
- :mod:`repro.stream.columns` -- the same observations as per-unit
  column blocks, the payload the vectorized operators consume.
- :mod:`repro.stream.source` -- pull-based unit sources over the live
  platform, a per-cycle window, and a sharded fan-out with bounded
  queues.
- :mod:`repro.stream.operators` -- incremental operators: route-change /
  prevalence accumulators, P-squared percentile estimators, and the
  sliding-window Goertzel congestion detector.
- :mod:`repro.stream.mesh` -- the counter-hash full-mesh source and its
  operator.
- :mod:`repro.stream.snapshot` -- checksummed, generation-rotated
  snapshot files behind the campaign checkpoint store.

Exports resolve lazily (PEP 562) following the package convention: the
stream stack needs numpy, and dependency-light tools must be able to
import ``repro`` without it.
"""

from __future__ import annotations

__all__ = [
    "TracerouteRecord",
    "PingRecord",
    "TraceColumns",
    "PingColumns",
    "StreamUnit",
    "LongTermTraceSource",
    "PingSource",
    "ShardedSource",
    "P2Quantile",
    "PathStatsOperator",
    "CongestionWindowOperator",
    "windowed_diurnal_power_ratio",
]

_LAZY_EXPORTS = {
    "TracerouteRecord": "repro.stream.records",
    "PingRecord": "repro.stream.records",
    "TraceColumns": "repro.stream.columns",
    "PingColumns": "repro.stream.columns",
    "StreamUnit": "repro.stream.source",
    "LongTermTraceSource": "repro.stream.source",
    "PingSource": "repro.stream.source",
    "ShardedSource": "repro.stream.source",
    "P2Quantile": "repro.stream.operators",
    "PathStatsOperator": "repro.stream.operators",
    "CongestionWindowOperator": "repro.stream.operators",
    "windowed_diurnal_power_ratio": "repro.stream.operators",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
