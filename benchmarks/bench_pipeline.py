"""End-to-end pipeline benchmark: serial vs parallel vs warm cache vs service.

Runs the pipeline and the mesh campaign in four phases, each in its own
subprocess so ``resource.getrusage`` peak-RSS readings are per-phase
(``ru_maxrss`` is a process-lifetime high-water mark and never resets):

1. ``serial``    -- jobs=1, cold cache (populates it), all experiments.
2. ``parallel``  -- jobs=N, its own cold cache directory.
3. ``warm``      -- jobs=1, reusing the serial phase's cache, so platform
   and long-term construction are skipped entirely.
4. ``service``   -- the mesh campaign's scale proof: a sharded
   synthetic mesh campaign (``--mesh-pairs`` pairs, default one
   million) streamed end-to-end through the incremental mesh operator,
   reporting steady-state ingest rate, merge-lag p99 (units buffered in
   shard queues but not yet consumed) and peak RSS.

Writes machine-readable per-stage timings to a JSON file (default
``benchmarks/output/pipeline_timings.json``) plus a stable-schema
summary at the repo root (``BENCH_pipeline.json``) that tracking tools
can diff across commits.  Parallel output is bit-identical to serial,
so phases differ only in wall time.

Standalone on purpose -- this measures the pipeline itself, not one
experiment, so it does not use the pytest-benchmark harness the
per-figure benches share::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --scenario small --jobs 4
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.engine import ArtifactCache, Timings, cached_longterm, cached_platform
from repro.harness.experiments import run_all_experiments
from repro.harness.scenarios import congested_pairs, get_scenario
from repro.datasets.shortterm import (
    build_shortterm_ping_dataset,
    build_shortterm_trace_dataset,
)

SUMMARY_SCHEMA = 6


def _peak_rss_bytes(who: int = resource.RUSAGE_SELF) -> int:
    """This process's (or its children's) peak resident set, in bytes.

    Linux reports ``ru_maxrss`` in KiB, macOS in bytes.
    """
    raw = resource.getrusage(who).ru_maxrss
    return int(raw) if sys.platform == "darwin" else int(raw) * 1024


def run_phase(
    scenario_name: str,
    seed: int,
    jobs: int,
    cache_dir: Path,
) -> dict:
    """One full batch pipeline pass; returns its timing record."""
    scenario = get_scenario(scenario_name)
    cache = ArtifactCache(cache_dir)
    timings = Timings()
    started = time.perf_counter()

    platform_config = scenario.platform_config(seed)
    platform, platform_hit = cached_platform(
        platform_config, cache=cache, jobs=jobs, timings=timings
    )
    longterm, longterm_hit = cached_longterm(
        platform_config,
        scenario.longterm_config(),
        platform=platform,
        cache=cache,
        jobs=jobs,
        timings=timings,
    )
    with timings.stage("ping-build"):
        pings = build_shortterm_ping_dataset(
            platform, scenario.shortterm_config(), jobs=jobs
        )
    with timings.stage("shorttrace-build"):
        traces = build_shortterm_trace_dataset(
            platform,
            congested_pairs(platform, pings),
            scenario.shortterm_config(),
            jobs=jobs,
        )
    results = run_all_experiments(
        platform, longterm, pings, traces, include_fig7=False,
        jobs=jobs, timings=timings,
    )
    wall = time.perf_counter() - started

    return {
        "jobs": jobs,
        "cache_hit": {"platform": platform_hit, "longterm": longterm_hit},
        "wall_seconds": wall,
        "stage_seconds": timings.as_dict(),
        "stages": timings.as_records(),
        "experiments": len(results),
        "longterm_timelines": len(longterm.timelines),
        "ping_timelines": len(pings.timelines),
        "trace_entries": len(traces.entries),
    }


def _histogram_percentile(stats: dict, q: float) -> float:
    """A percentile from a registry histogram snapshot's bucket counts.

    Returns the smallest bucket bound whose cumulative count reaches the
    quantile (the overflow bucket reports the largest bound).
    """
    counts = stats.get("counts") or []
    bounds = stats.get("bounds") or []
    total = sum(counts)
    if not total or not bounds:
        return 0.0
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= target:
            return float(bounds[min(index, len(bounds) - 1)])
    return float(bounds[-1])


def run_service_phase(seed: int, shards: int, mesh_pairs: int) -> dict:
    """One steady-state mesh campaign pass over the synthetic mesh.

    Drives the mesh campaign's cycles back to back (the sharded source,
    the incremental operator, periodic checkpoints), so the wall time is
    pure ingest.
    """
    from repro.obs import metrics as obs_metrics
    from repro.service.campaign import Campaign, driver_for
    from repro.service.config import CampaignConfig
    from repro.stream.mesh import MeshConfig

    registry = obs_metrics.get_registry()
    registry.reset()
    timings = Timings()
    started = time.perf_counter()
    config = CampaignConfig(
        name="bench-mesh",
        kind="mesh",
        cycles=2,
        rounds_per_cycle=8,
        shards=shards,
        queue_units=4,
        checkpoint_every=256,
        mesh=MeshConfig(pairs=mesh_pairs, seed=seed),
    )
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as state:
        campaign = Campaign(config, driver_for(config), Path(state))
        with timings.stage("service-ingest"):
            while campaign.run_cycle() == "completed":
                pass
    wall = time.perf_counter() - started
    ingest_seconds = timings.as_dict()["service-ingest"]

    snapshot = registry.snapshot()
    lag = snapshot["histograms"].get("stream.merge_lag_units", {})
    samples = int(campaign.results["samples"])
    return {
        "jobs": shards,
        "cache_hit": {},
        "wall_seconds": wall,
        "stage_seconds": timings.as_dict(),
        "stages": timings.as_records(),
        "mesh_pairs": mesh_pairs,
        "samples": samples,
        "ingest_rate_per_s": samples / max(ingest_seconds, 1e-9),
        "merge_lag_p99_units": _histogram_percentile(lag, 0.99),
    }


def _child_main(args: argparse.Namespace) -> int:
    """``--run-phase`` entry: run one phase, print its record as JSON."""
    if args.run_phase == "service":
        record = run_service_phase(args.seed, args.jobs, args.mesh_pairs)
    else:
        record = run_phase(
            args.scenario, args.seed, jobs=args.jobs, cache_dir=Path(args.cache_dir)
        )
    record["peak_rss_bytes"] = _peak_rss_bytes()
    record["peak_rss_children_bytes"] = _peak_rss_bytes(resource.RUSAGE_CHILDREN)
    print(json.dumps(record))
    return 0


def _run_phase_subprocess(
    name: str, scenario: str, seed: int, jobs: int, cache_dir: Path,
    mesh_pairs: int = 0,
) -> dict:
    """Launch one phase in a fresh interpreter and parse its JSON record."""
    argv = [
        sys.executable, __file__,
        "--run-phase", name,
        "--scenario", scenario,
        "--seed", str(seed),
        "--jobs", str(jobs),
        "--cache-dir", str(cache_dir),
        "--mesh-pairs", str(mesh_pairs),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"phase {name!r} failed with exit {proc.returncode}")
    # The record is the last stdout line; anything above it is phase noise.
    return json.loads(proc.stdout.strip().splitlines()[-1])


def build_summary(
    report: dict, parallel_jobs: int, previous: dict = None
) -> dict:
    """The stable-schema repo-root summary (``BENCH_pipeline.json``).

    Schema version 6: per-phase wall time, flat stage -> seconds map,
    ``peak_rss_mb``, ``memory`` section, the comparative extras
    (``speedup.columnar``, ``stage_seconds_delta``) and the ``service``
    scale-proof section.  Version 5's ``faults`` phase and section are
    gone with the fault plane they measured.
    """
    comparable = (
        isinstance(previous, dict)
        and previous.get("benchmark") == "pipeline"
        and previous.get("scenario") == report["scenario"]
        and isinstance(previous.get("phases"), dict)
    )
    phases = {}
    for phase_name, phase in report["phases"].items():
        entry = {
            "wall_seconds": round(phase["wall_seconds"], 3),
            "peak_rss_mb": round(phase["peak_rss_bytes"] / 1e6, 1),
            "stage_seconds": {
                stage: round(seconds, 3)
                for stage, seconds in sorted(phase["stage_seconds"].items())
            },
        }
        if comparable:
            before = previous["phases"].get(phase_name, {}).get(
                "stage_seconds", {}
            )
            entry["stage_seconds_delta"] = {
                stage: round(seconds - before[stage], 3)
                for stage, seconds in sorted(phase["stage_seconds"].items())
                if stage in before
            }
        phases[phase_name] = entry
    speedup = {name: round(value, 2) for name, value in report["speedup"].items()}
    if comparable:
        before_serial = previous["phases"].get("serial", {}).get("wall_seconds")
        if before_serial:
            speedup["columnar"] = round(
                before_serial
                / max(report["phases"]["serial"]["wall_seconds"], 1e-9),
                2,
            )
    summary = {
        "schema": SUMMARY_SCHEMA,
        "benchmark": "pipeline",
        "scenario": report["scenario"],
        "seed": report["seed"],
        "parallel_jobs": parallel_jobs,
        "cpu_count": report["cpu_count"],
        "phases": phases,
        "speedup": speedup,
        "memory": {
            name: round(value, 3) for name, value in report["memory"].items()
        },
    }
    service = report["phases"].get("service")
    if service is not None:
        summary["service"] = {
            "mesh_pairs": service["mesh_pairs"],
            "shards": service["jobs"],
            "samples": service["samples"],
            "ingest_rate_per_s": round(service["ingest_rate_per_s"], 1),
            "merge_lag_p99_units": service["merge_lag_p99_units"],
            "peak_rss_mb": round(service["peak_rss_bytes"] / 1e6, 1),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", default="small",
                        help="scenario scale (default: small)")
    parser.add_argument("--seed", type=int, default=0, help="world seed")
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for the parallel phase "
                             "(0 = all cores; default: 0)")
    parser.add_argument("--mesh-pairs", type=int, default=1_000_000,
                        help="mesh size for the service phase "
                             "(default: 1000000)")
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent / "output" / "pipeline_timings.json"),
        help="where to write the JSON timing report",
    )
    parser.add_argument(
        "--summary",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"),
        help="where to write the stable-schema summary "
             "(empty string disables it)",
    )
    parser.add_argument("--run-phase", default=None, metavar="NAME",
                        help=argparse.SUPPRESS)  # internal: child-process mode
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help=argparse.SUPPRESS)  # internal: child-process mode
    args = parser.parse_args(argv)

    if args.run_phase:
        return _child_main(args)

    parallel_jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    report = {
        "benchmark": "pipeline",
        "scenario": args.scenario,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "phases": {},
    }

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        serial_cache = Path(tmp) / "serial"
        parallel_cache = Path(tmp) / "parallel"

        plan = [
            ("serial", 1, serial_cache, "jobs=1, cold cache"),
            ("parallel", parallel_jobs, parallel_cache,
             f"jobs={parallel_jobs}, cold cache"),
            ("warm", 1, serial_cache, "jobs=1, reusing serial cache"),
            ("service", 2, serial_cache,
             f"mesh campaign, {args.mesh_pairs:,}-pair mesh"),
        ]
        for step, (name, jobs, cache_dir, blurb) in enumerate(plan, start=1):
            print(f"[{step}/{len(plan)}] {name:<8} ({blurb})", flush=True)
            record = _run_phase_subprocess(
                name, args.scenario, args.seed, jobs, cache_dir,
                mesh_pairs=args.mesh_pairs,
            )
            report["phases"][name] = record
            print(f"      {record['wall_seconds']:.2f}s, "
                  f"peak RSS {record['peak_rss_bytes'] / 1e6:.0f} MB", flush=True)

    serial = report["phases"]["serial"]["wall_seconds"]
    report["speedup"] = {
        "parallel": serial / max(report["phases"]["parallel"]["wall_seconds"], 1e-9),
        "warm": serial / max(report["phases"]["warm"]["wall_seconds"], 1e-9),
    }
    report["memory"] = {
        "service_vs_serial_rss": (
            report["phases"]["service"]["peak_rss_bytes"]
            / max(report["phases"]["serial"]["peak_rss_bytes"], 1)
        ),
    }
    assert report["phases"]["warm"]["cache_hit"] == {
        "platform": True, "longterm": True,
    }, "warm phase should hit the cache for both artifacts"

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nspeedup: parallel x{report['speedup']['parallel']:.2f}, "
          f"warm x{report['speedup']['warm']:.2f}")
    service = report["phases"]["service"]
    print(f"service ingest: {service['ingest_rate_per_s']:,.0f} samples/s "
          f"over {service['mesh_pairs']:,} pairs, "
          f"merge-lag p99 {service['merge_lag_p99_units']:g} units, "
          f"peak RSS {report['memory']['service_vs_serial_rss']:.1%} of serial")
    print(f"wrote {output}")

    if args.summary:
        summary_path = Path(args.summary)
        previous = None
        if summary_path.exists():
            try:
                previous = json.loads(summary_path.read_text())
            except (OSError, ValueError):
                previous = None
        summary_path.write_text(
            json.dumps(build_summary(report, parallel_jobs, previous=previous),
                       indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {summary_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
