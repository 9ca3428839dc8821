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
  ``reproduce --cache``: :class:`ArtifactCache`, whose ``load_or_build``
  the scenario builders call when given one, and the config fingerprint
  that keys its entries (and campaign checkpoints).

Stage timing is the tracer's (:mod:`repro.obs.trace`): every build stage
and experiment opens a span, and ``reproduce --timings`` prints the run's
top-level spans.

The package re-exports nothing: callers import the submodule they use,
so importing :mod:`repro.harness.engine` (as the campaign checkpoint
does for its fingerprint) loads no analysis code.
"""
