"""One repetition of one benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that every
repetition pays the program's real set-up (interpreter, imports, config)
and has its own peak-RSS high-water mark.  The script prints one JSON
object: set-up and wall time, CPU time, peak RSS, the sha256 of every
report the workload produced, operation counts and, with ``--trace``,
the per-layer spans reduced to counts and self times.

Usage: python3 perfbench/worker.py --workload batch-default --seed 0 \
       --state-dir DIR [--trace] [--setup-only]
The parent passes its spawn time (``time.monotonic()``, system-wide on
Linux) in ``PERFBENCH_SPAWNED`` so set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402  (benchmark-local modules, after the path fix)
from checks import digest  # noqa: E402

SCENARIO = "default"

MESH_PAIRS = 1_000_000
MESH_BLOCK_PAIRS = 1024
MESH_ROUNDS = 8
MESH_SHARDS = 2
MESH_CYCLES = 12
MESH_QUEUE_UNITS = 4
MESH_CHECKPOINT_EVERY = 256
MESH_UNITS = -(-MESH_PAIRS // MESH_BLOCK_PAIRS) * MESH_CYCLES
"""Operations of one service-mesh repetition: mesh blocks over all cycles."""


def _registry_counter(name: str) -> float:
    from repro.obs import metrics

    return float(metrics.get_registry().snapshot()["counters"].get(name, 0))


def _run_experiments(results_fn):
    """Digests of each report; a raising run fails every expected experiment."""
    try:
        results = results_fn()
    except Exception as exc:  # the benchmark counts a failure, it does not stop
        print(f"workload raised: {exc!r}", file=sys.stderr)
        return {}
    return {result.experiment_id: digest(result.render()) for result in results}


# ----------------------------------------------------------------------
# Workloads: each ``prepare`` does the set-up (imports, config, state
# dir) and returns the measured callable, which makes the first layer
# call and returns the checked outputs.
# ----------------------------------------------------------------------

def prepare_batch(seed: int, state_dir: Path):
    from repro.datasets import longterm, shortterm
    from repro.harness import experiments, scenarios
    from repro.measurement import platform as platform_mod

    scenario = scenarios.get_scenario(SCENARIO)
    config = scenario.platform_config(seed)

    def run():
        platform = platform_mod.MeasurementPlatform(config, jobs=1)
        lt = longterm.build_longterm_dataset(platform, scenario.longterm_config(), jobs=1)
        pings = shortterm.build_shortterm_ping_dataset(
            platform, scenario.shortterm_config(), jobs=1)
        pairs = scenarios.congested_pairs(platform, pings)
        traces = shortterm.build_shortterm_trace_dataset(
            platform, pairs, scenario.shortterm_config(), jobs=1)
        digests = _run_experiments(
            lambda: experiments.run_all_experiments(
                platform, lt, pings, traces, include_fig7=False)
        )
        return {
            "digests": digests,
            "sizes": {
                "datasets.longterm.timelines": len(lt.timelines),
                "datasets.ping.timelines": len(pings.timelines),
                "datasets.trace.entries": len(traces.entries),
                "datasets.longterm.array_mb": _array_mb(lt.timelines.values()),
            },
        }

    return run


def prepare_mesh(seed: int, state_dir: Path):
    from repro.service import campaign as campaign_mod
    from repro.service.config import CampaignConfig
    from repro.stream.mesh import MeshConfig

    config = CampaignConfig(
        name="bench",
        kind="mesh",
        rounds_per_cycle=MESH_ROUNDS,
        cycles=MESH_CYCLES,
        shards=MESH_SHARDS,
        queue_units=MESH_QUEUE_UNITS,
        checkpoint_every=MESH_CHECKPOINT_EVERY,
        mesh=MeshConfig(pairs=MESH_PAIRS, block_pairs=MESH_BLOCK_PAIRS,
                        rounds_per_cycle=MESH_ROUNDS, seed=seed),
    )
    state_dir.mkdir(parents=True, exist_ok=True)

    def run():
        campaign = campaign_mod.Campaign(config, campaign_mod.driver_for(config), state_dir)
        try:
            while campaign.run_cycle() != "finished":
                pass
        except Exception as exc:  # counted as failed units, not a crash
            print(f"workload raised: {exc!r}", file=sys.stderr)
        results = campaign.results or {}
        expected = MESH_PAIRS * MESH_ROUNDS * MESH_CYCLES
        coverage = campaign.completeness.coverage()
        failed = campaign.completeness.missing_count
        if results.get("samples") != expected or coverage != 1.0:
            failed = MESH_UNITS
        return {
            "digests": {"mesh": digest(json.dumps(results, sort_keys=True))},
            "samples": int(results.get("samples", 0)),
            "attempted": MESH_UNITS,
            "failed": failed,
            "coverage": coverage,
            "shard_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }

    return run


WORKLOADS = {
    "batch-default": (prepare_batch, 15),
    "service-mesh": (prepare_mesh, MESH_UNITS),
}


def _array_mb(timelines) -> float:
    import numpy as np

    seen = set()
    total = 0
    for timeline in timelines:
        for value in vars(timeline).values():
            if isinstance(value, np.ndarray):
                key = (value.__array_interface__["data"][0], value.nbytes)
                if key not in seen:
                    seen.add(key)
                    total += value.nbytes
    return total / 2**20


# ----------------------------------------------------------------------
# Tracing: which public names are wrapped, under which span name.
# ----------------------------------------------------------------------

CORE_FUNCTIONS = (
    ("core.routechange.analyze_timeline", "repro.core.routechange", "analyze_timeline"),
    ("core.routechange.path_lifetimes", "repro.core.routechange", "path_lifetimes"),
    ("core.routechange.path_prevalence", "repro.core.routechange", "path_prevalence"),
    ("core.rttstats.path_percentiles", "repro.core.rttstats", "path_percentiles"),
    ("core.heatmap.collect_lifetime_increase_points", "repro.core.heatmap",
     "collect_lifetime_increase_points"),
    ("core.loss.assess_loss", "repro.core.loss", "assess_loss"),
    ("core.ownership.infer_ownership", "repro.core.ownership", "infer_ownership"),
    ("core.dualstack.paired_rtt_differences", "repro.core.dualstack",
     "paired_rtt_differences"),
    ("core.sharedinfra.shared_infrastructure_study", "repro.core.sharedinfra",
     "shared_infrastructure_study"),
    ("core.suboptimal.suboptimal_prevalence", "repro.core.suboptimal",
     "suboptimal_prevalence"),
)

FUNCTIONS = (
    ("topology.generate_topology", "repro.topology.generator", "generate_topology"),
    ("topology.build_router_topology", "repro.topology.routers", "build_router_topology"),
    ("routing.compute_route_table", "repro.routing.bgp", "compute_route_table"),
    ("routing.build_routing_schedule", "repro.routing.dynamics", "build_routing_schedule"),
    ("measurement.assign_congestion", "repro.measurement.congestionmodel",
     "assign_congestion"),
    ("measurement.realize_path", "repro.measurement.realization", "realize_path"),
    ("datasets.build_longterm_dataset", "repro.datasets.longterm", "build_longterm_dataset"),
    ("datasets.build_shortterm_ping_dataset", "repro.datasets.shortterm",
     "build_shortterm_ping_dataset"),
    ("datasets.build_shortterm_trace_dataset", "repro.datasets.shortterm",
     "build_shortterm_trace_dataset"),
)

EXPERIMENTS = {
    "table1": "experiment_table1",
    "fig1": "experiment_fig1",
    "fig2": "experiment_fig2",
    "fig3": "experiment_fig3",
    "fig4": "experiment_fig4",
    "fig5": "experiment_fig5",
    "fig6": "experiment_fig6",
    "congestion-norm": "experiment_congestion_norm",
    "localization": "experiment_localization",
    "link-classification": "experiment_link_classification",
    "fig9": "experiment_fig9",
    "fig10a": "experiment_fig10a",
    "fig10b": "experiment_fig10b",
    "ext-loss": "experiment_loss",
    "ext-sharedinfra": "experiment_sharedinfra",
}

OPERATOR_METHODS = ("start_unit", "observe_columns", "finalize")


def install_tracing(recorder: tracing.Recorder, checkpoint_bytes: list) -> None:
    """Wrap every traced layer entry point; imports the modules it patches."""
    for name, module, attr in FUNCTIONS:
        tracing.patch_function(recorder, importlib.import_module(module), attr, name)
    for name, module, attr in CORE_FUNCTIONS:
        tracing.patch_function(recorder, importlib.import_module(module), attr, name,
                               track_inputs=True)
    experiments = importlib.import_module("repro.harness.experiments")
    for exp_id, attr in EXPERIMENTS.items():
        tracing.patch_function(recorder, experiments, attr, f"harness.experiment.{exp_id}")

    from repro.core.congestion import CongestionDetector
    from repro.datasets.columnar import CampaignKernels
    from repro.measurement.platform import MeasurementPlatform
    from repro.service.campaign import Campaign
    from repro.service.checkpoint import CampaignCheckpointStore
    from repro.stream.mesh import MeshStatsOperator
    from repro.stream.source import ShardedSource

    tracing.patch_methods(recorder, MeasurementPlatform, ["__init__"],
                          "measurement.MeasurementPlatform")
    tracing.patch_methods(
        recorder, CampaignKernels,
        [name for name, value in vars(CampaignKernels).items()
         if inspect.isfunction(value) and (name == "__init__" or not name.startswith("_"))],
        "datasets.CampaignKernels")
    tracing.patch_methods(recorder, CongestionDetector, ["assess"],
                          "core.congestion.CongestionDetector.assess", track_inputs=True)
    tracing.patch_methods(recorder, experiments.ExperimentResult, ["render"], "harness.render")
    tracing.patch_methods(recorder, ShardedSource, ["iter_from"], "stream.source.wait")
    tracing.patch_methods(recorder, MeshStatsOperator, OPERATOR_METHODS, "stream.operators")
    tracing.patch_methods(recorder, Campaign, ["run_cycle"], "service.Campaign.run_cycle")

    save = CampaignCheckpointStore.save

    def counted_save(self, *args, **kwargs):
        save(self, *args, **kwargs)
        checkpoint_bytes.append(self.path.stat().st_size)

    CampaignCheckpointStore.save = counted_save
    tracing.patch_methods(recorder, CampaignCheckpointStore, ["save"], "service.checkpoint")


def _merge_lag_p99() -> float:
    from repro.obs import metrics

    entry = metrics.get_registry().snapshot()["histograms"].get("stream.merge_lag_units")
    if not entry or not entry.get("count"):
        return 0.0
    target = 0.99 * entry["count"]
    cumulative = 0
    for bound, count in zip(list(entry["bounds"]) + [entry["max"]], entry["counts"]):
        cumulative += count
        if cumulative >= target:
            return float(bound)
    return float(entry["max"])


def layer_metrics(recorder: tracing.Recorder, start: float, end: float,
                  checkpoint_bytes: list) -> dict:
    summary = tracing.summarize(recorder.spans)
    layers = {}
    for name, entry in summary.items():
        layers[f"{name}.calls"] = entry["calls"]
        layers[f"{name}.self_s"] = entry["self_s"]
    core_calls = sum(summary.get(name, {}).get("calls", 0)
                     for name, _, _ in CORE_FUNCTIONS)
    core_calls += summary.get("core.congestion.CongestionDetector.assess", {}).get("calls", 0)
    distinct = sum(len(keys) for keys in recorder.inputs.values())
    layers["core.distinct_ratio"] = distinct / core_calls if core_calls else 0.0
    layers["stream.source.units"] = recorder.items.get("stream.source.wait", 0)
    layers["stream.source.wait_s"] = summary.get("stream.source.wait", {}).get("self_s", 0.0)
    layers["stream.merge_lag_p99_units"] = _merge_lag_p99()
    layers["stream.shard_restarts"] = _registry_counter("shard.restarts")
    layers["service.checkpoint.saves"] = summary.get("service.checkpoint", {}).get("calls", 0)
    layers["service.checkpoint.save_s"] = summary.get("service.checkpoint", {}).get("self_s", 0.0)
    layers["service.checkpoint.bytes"] = sum(checkpoint_bytes)
    wall = end - start
    layers["obs.unattributed_frac"] = (
        1.0 - tracing.covered_seconds(recorder.spans, start, end) / wall if wall > 0 else 0.0)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first layer call; report set-up time only")
    args = parser.parse_args(argv)
    spawned = float(os.environ.get("PERFBENCH_SPAWNED", time.monotonic()))

    source_dir = ROOT / "src"
    sys.path.insert(0, str(source_dir))
    import repro

    if Path(repro.__file__).resolve().parent != source_dir / "repro":
        print(f"error: imported repro from {repro.__file__}, not {source_dir}",
              file=sys.stderr)
        return 2

    prepare, expected = WORKLOADS[args.workload]
    state_dir = Path(args.state_dir)
    try:
        run = prepare(args.seed, state_dir)
        recorder = checkpoint_bytes = None
        if args.trace:
            recorder, checkpoint_bytes = tracing.Recorder(), []
            install_tracing(recorder, checkpoint_bytes)
        setup_done = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_done - spawned}))
            return 0
        start_cpu = os.times()
        start = time.perf_counter()
        outputs = run()
        end = time.perf_counter()
        end_cpu = os.times()
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    digests = outputs.pop("digests")
    attempted = outputs.pop("attempted", expected)
    failed = outputs.pop("failed", expected - len(digests))
    cpu = sum(end_cpu[:4]) - sum(start_cpu[:4])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_done - spawned,
        "wall_s": end - start,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "digests": digests,
        **outputs,
    }
    if recorder is not None:
        record["layers"] = layer_metrics(recorder, start, end, checkpoint_bytes)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
