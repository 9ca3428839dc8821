"""repro: a reproduction of *A Server-to-Server View of the Internet*.

CoNEXT 2015, Chandrasekaran, Smaragdakis, Berger, Luckie and Ng.

The paper measured the Internet's core from a commercial CDN's servers;
this library rebuilds the whole stack in simulation and re-implements the
paper's analysis pipeline on top:

- **Substrates** -- :mod:`repro.net` (addresses, prefix trie, geography),
  :mod:`repro.topology` (AS graph, addressing, routers, CDN deployment),
  :mod:`repro.routing` (valley-free BGP and routing dynamics),
  :mod:`repro.measurement` (RTT model, congestion processes, traceroute
  and ping engines, the platform façade).
- **Datasets** -- :mod:`repro.datasets` (trace/ping timelines, the
  long-term and short-term campaign builders).
- **The paper's analyses** -- :mod:`repro.core` (routing-change, congestion
  detection/localization, router ownership, dual-stack and inflation
  studies).
- **Harness** -- :mod:`repro.harness` (scenarios, per-figure experiment
  drivers, text rendering).

Quickstart::

    from repro import MeasurementPlatform, PlatformConfig
    platform = MeasurementPlatform(PlatformConfig(seed=7, cluster_count=12))
    src, dst = platform.server_pairs()[0]
    from repro.net.ip import IPVersion
    path = platform.realization(src, dst, IPVersion.V4, 0)
    record = platform.engine.trace(path, time_hours=10.0, rng=platform.rng("demo"))
    print(record.render())
"""

__version__ = "1.0.0"

__all__ = [
    "MeasurementPlatform",
    "PlatformConfig",
    "Scenario",
    "get_scenario",
    "scenario_platform",
    "scenario_longterm",
    "scenario_ping",
    "scenario_traces",
    "__version__",
]

# The convenience exports are resolved lazily (PEP 562): the simulation
# stack needs numpy, but dependency-light subpackages (repro.lint,
# repro.obs) must stay importable in environments without it -- CI's
# lint job installs only ruff.
_LAZY_EXPORTS = {
    "MeasurementPlatform": "repro.measurement.platform",
    "PlatformConfig": "repro.measurement.platform",
    "Scenario": "repro.harness.scenarios",
    "get_scenario": "repro.harness.scenarios",
    "scenario_platform": "repro.harness.scenarios",
    "scenario_longterm": "repro.harness.scenarios",
    "scenario_ping": "repro.harness.scenarios",
    "scenario_traces": "repro.harness.scenarios",
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
