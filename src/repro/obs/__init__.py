"""Observability layer: structured logging, metrics, tracing, run manifests.

The pipeline simulates a long-running measurement campaign -- 485
simulated days, thousands of server pairs -- and this package records
what a run did:

- :mod:`repro.obs.log` -- structured logging (human-readable or JSON-lines)
  with rate-limited progress reporting for long builds.
- :mod:`repro.obs.metrics` -- a process-local registry of counters, gauges
  and histograms with a JSON ``snapshot()``, fork-safe delta merging, and
  the at-fork hook that keeps forked children from inheriting its lock.
- :mod:`repro.obs.trace` -- hierarchical wall-time spans, exportable as
  Chrome trace-event JSON (open in https://ui.perfetto.dev).
- :mod:`repro.obs.runinfo` -- the run manifest: scenario, seed, config
  fingerprints, versions, metric snapshot and span summary in one JSON
  document (``reproduce --run-report``).

``repro.obs`` sits below every other layer and imports nothing from the
rest of the package at module scope, so any module may instrument itself
freely.
"""

from repro.obs import log, metrics, runinfo, trace
from repro.obs.log import Progress, StructuredLogger, configure, get_logger
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span, Tracer, get_tracer, set_tracer, use_tracer

__all__ = [
    "log",
    "metrics",
    "trace",
    "runinfo",
    "configure",
    "get_logger",
    "Progress",
    "StructuredLogger",
    "MetricsRegistry",
    "get_registry",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
