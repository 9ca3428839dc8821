"""Experiment harness: scenarios, per-figure drivers, and report rendering.

- :mod:`repro.harness.scenarios` -- canonical scaled scenario configs and a
  cached builder, so the benchmarks and examples share platforms/datasets.
- :mod:`repro.harness.experiments` -- one driver per paper table/figure;
  each returns a structured result plus a rendered text report with the
  paper's value next to the measured one.  ``EXPERIMENTS`` is the one
  table of them that ``run_all_experiments`` and ``reproduce`` run.
- :mod:`repro.harness.report` -- plain-text tables, ECDF series and decile
  heatmaps in the style the paper prints them.
- :mod:`repro.harness.engine` -- the on-disk artifact cache behind
  ``reproduce --cache``.

Stage timing is the tracer's (:mod:`repro.obs.trace`): every build stage
and experiment opens a span, and ``reproduce --timings`` prints the run's
top-level spans.
"""

from repro.harness.engine import (
    ArtifactCache,
    cached_longterm,
    cached_platform,
    config_fingerprint,
    default_cache_dir,
)
from repro.harness.experiments import (
    ExperimentResult,
    run_all_experiments,
)
from repro.harness.report import (
    format_duration,
    render_ecdf,
    render_heatmap,
    render_table,
)
from repro.harness.scenarios import (
    Scenario,
    congested_pairs,
    get_scenario,
    scenario_platform,
)

__all__ = [
    "Scenario",
    "get_scenario",
    "scenario_platform",
    "congested_pairs",
    "ExperimentResult",
    "run_all_experiments",
    "render_table",
    "render_ecdf",
    "render_heatmap",
    "format_duration",
    "ArtifactCache",
    "config_fingerprint",
    "default_cache_dir",
    "cached_platform",
    "cached_longterm",
]
