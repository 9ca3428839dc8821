"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``       -- summarize a scenario's synthetic world.
- ``trace``      -- run one traceroute between two measurement servers.
- ``reproduce``  -- run table/figure experiments and print the reports.

Examples::

    python -m repro info --scenario small
    python -m repro trace --scenario small --src 0 --dst 3 --ipv6
    python -m repro reproduce --scenario default --experiments table1,fig3
    python -m repro reproduce --scenario small --log-json \\
        --trace-out trace.json --run-report run.json

Observability: ``--log-level``/``--log-json`` (or ``REPRO_LOG_LEVEL`` /
``REPRO_LOG_JSON``) control structured logging on stderr; ``--trace-out``
writes a Chrome trace-event file of the run's span tree (open it in
https://ui.perfetto.dev); ``--run-report`` writes the run manifest --
config fingerprints, metric snapshot, span summary.  Reports stay on
stdout either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.harness.experiments import EXPERIMENTS, ExperimentInputs, run_experiments
from repro.harness.report import render_table
from repro.harness.scenarios import (
    SCENARIOS,
    scenario_longterm,
    scenario_ping,
    scenario_platform,
    scenario_traces,
)
from repro.net.ip import IPVersion
from repro.obs import log as obs_log
from repro.obs import runinfo as obs_runinfo
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer, use_tracer

_LOG = obs_log.get_logger("repro.cli")


def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", default="small", choices=sorted(SCENARIOS),
        help="scenario scale (default: small)",
    )
    parser.add_argument("--seed", type=int, default=0, help="world seed")


def _command_info(args: argparse.Namespace) -> int:
    platform = scenario_platform(args.scenario, args.seed)
    graph = platform.graph
    print(f"scenario {args.scenario!r} (seed {args.seed})")
    print(f"  ASes:        {len(graph.ases)} ({len(graph.edge_media)} edges, "
          f"{len(graph.ixps)} IXPs)")
    print(f"  routers:     {len(platform.topology.routers)} "
          f"({sum(len(v) for v in platform.topology.links.values())} interdomain links)")
    print(f"  CDN:         {len(platform.cdn.clusters)} clusters, "
          f"{len(platform.cdn.servers)} servers")
    print(f"  window:      {platform.config.duration_hours / 24:.0f} days")
    print(f"  congestion:  {len(platform.congested_segment_keys())} congested segments")
    servers = platform.measurement_servers()
    print("  measurement servers:")
    for server in servers[:20]:
        stack = "dual-stack" if server.dual_stack else "v4-only"
        print(f"    #{server.server_id:<3} AS{server.asn:<5} {server.city}  ({stack})")
    if len(servers) > 20:
        print(f"    ... and {len(servers) - 20} more")
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    platform = scenario_platform(args.scenario, args.seed)
    servers = {s.server_id: s for s in platform.measurement_servers()}
    if args.src not in servers or args.dst not in servers:
        print(f"error: server ids must be in {sorted(servers)}", file=sys.stderr)
        return 2
    version = IPVersion.V6 if args.ipv6 else IPVersion.V4
    src, dst = servers[args.src], servers[args.dst]
    realization = platform.realization(src, dst, version, 0)
    if realization is None:
        print(
            f"error: no IPv{int(version)} path from #{args.src} to #{args.dst}",
            file=sys.stderr,
        )
        return 1
    record = platform.engine.trace(
        realization, args.time, platform.rng("cli-trace", args.src, args.dst)
    )
    print(f"{src.city} (AS{src.asn}) -> {dst.city} (AS{dst.asn})")
    print(record.render())
    return 0


def render_stage_timings(tracer: Tracer) -> str:
    """The ``--timings`` table: one row per stage, then their total."""
    stages = tracer.stage_seconds()
    rows = [(name, f"{seconds:.3f}s") for name, seconds in stages.items()]
    rows.append(("total", f"{sum(stages.values()):.3f}s"))
    return "== stage timings ==\n" + render_table(("stage", "wall time"), rows)


def _command_reproduce(args: argparse.Namespace) -> int:
    from repro.harness.engine import ArtifactCache
    from repro.harness.scenarios import get_scenario

    wanted = (
        [name.strip() for name in args.experiments.split(",")]
        if args.experiments
        else list(EXPERIMENTS)
    )
    unknown = [name for name in wanted if name not in EXPERIMENTS]
    if unknown:
        print(f"error: unknown experiments {unknown}; valid: "
              f"{', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2

    registry = get_registry()
    if args.timings or args.trace_out or args.run_report:
        # A run that reports on itself counts from zero.
        registry.reset()
    # Pre-register cache counters so manifests always report them, even on
    # runs that never touch the artifact cache.
    for name in ("cache.hit", "cache.miss", "cache.corrupt", "cache.store"):
        registry.counter(name)

    tracer = Tracer()
    cache = None
    if args.cache or args.cache_dir or args.refresh_cache:
        cache = ArtifactCache(args.cache_dir)
        if args.refresh_cache:
            cache.clear()
    jobs = args.jobs
    # Build only the datasets the requested experiments read.
    needed = {dataset for name in wanted for dataset in EXPERIMENTS[name].inputs}

    _LOG.info("reproduce.start", scenario=args.scenario, seed=args.seed,
              jobs=jobs, experiments=",".join(wanted),
              cache=cache is not None)

    with use_tracer(tracer), tracer.span(
        "reproduce", scenario=args.scenario, seed=args.seed, jobs=jobs
    ):
        inputs = ExperimentInputs(
            platform=scenario_platform(args.scenario, args.seed, jobs=jobs, cache=cache),
            longterm=(
                scenario_longterm(args.scenario, args.seed, jobs=jobs, cache=cache)
                if "longterm" in needed else None
            ),
            pings=(
                scenario_ping(args.scenario, args.seed, jobs=jobs)
                if "pings" in needed else None
            ),
            traces=(
                scenario_traces(args.scenario, args.seed, jobs=jobs)
                if "traces" in needed else None
            ),
            jobs=jobs,
        )
        results = run_experiments(wanted, inputs)

    for result in results:
        print(result.render())
        print()
    if args.timings:
        print(render_stage_timings(tracer))

    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump(tracer.to_chrome_trace(), handle, indent=2)
            handle.write("\n")
        _LOG.info("trace.written", path=args.trace_out,
                  spans=len(tracer.spans))
    if args.run_report:
        scenario = get_scenario(args.scenario)
        platform_config = scenario.platform_config(args.seed)
        configs = {"platform": platform_config}
        if "longterm" in needed:
            configs["longterm"] = (platform_config, scenario.longterm_config())
        manifest = obs_runinfo.build_manifest(
            scenario=args.scenario,
            seed=args.seed,
            jobs=jobs,
            experiments=wanted,
            configs=configs,
            registry=registry,
            tracer=tracer,
        )
        obs_runinfo.write_run_report(args.run_report, manifest)
        _LOG.info("run_report.written", path=args.run_report)
    _LOG.info("reproduce.done", experiments=len(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    logging_options = argparse.ArgumentParser(add_help=False)
    logging_options.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="log verbosity on stderr (default: $REPRO_LOG_LEVEL or warning)",
    )
    logging_options.add_argument(
        "--log-json", action="store_true",
        help="emit JSON-lines logs instead of human-readable ones",
    )

    parser = argparse.ArgumentParser(
        prog="repro",
        description="A Server-to-Server View of the Internet -- reproduction CLI",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    info = commands.add_parser(
        "info", parents=[logging_options], help="summarize a scenario's world"
    )
    _add_scenario_argument(info)
    info.set_defaults(handler=_command_info)

    trace = commands.add_parser(
        "trace", parents=[logging_options], help="run one traceroute"
    )
    _add_scenario_argument(trace)
    trace.add_argument("--src", type=int, required=True, help="source server id")
    trace.add_argument("--dst", type=int, required=True, help="destination server id")
    trace.add_argument("--ipv6", action="store_true", help="probe over IPv6")
    trace.add_argument("--time", type=float, default=12.0,
                       help="measurement time in hours since the epoch")
    trace.set_defaults(handler=_command_trace)

    reproduce = commands.add_parser(
        "reproduce", parents=[logging_options],
        help="run table/figure experiments",
    )
    _add_scenario_argument(reproduce)
    reproduce.add_argument(
        "--experiments", default="",
        help="comma-separated experiment ids (default: all); "
             f"valid: {', '.join(EXPERIMENTS)}",
    )
    reproduce.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for dataset/route building "
             "(0 = all cores; default: 1)",
    )
    reproduce.add_argument(
        "--timings", action="store_true",
        help="print a per-stage wall-time table after the reports",
    )
    reproduce.add_argument(
        "--cache", action="store_true",
        help="cache built platforms/datasets on disk "
             "(~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    reproduce.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="cache directory (implies --cache)",
    )
    reproduce.add_argument(
        "--refresh-cache", action="store_true",
        help="drop existing cache entries and rebuild; implies --cache",
    )
    reproduce.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write the run's span tree as Chrome trace-event JSON "
             "(view in https://ui.perfetto.dev)",
    )
    reproduce.add_argument(
        "--run-report", default=None, metavar="FILE",
        help="write a run manifest: config fingerprints, metric snapshot, "
             "span summary",
    )
    reproduce.set_defaults(handler=_command_reproduce)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    level = args.log_level
    if (
        level is None
        and args.log_json
        and not os.environ.get(obs_log.LEVEL_ENV)
    ):
        # Asking for machine-readable logs without a level means "give me
        # the run log", not "warnings only".
        level = "info"
    obs_log.configure(level=level, json_mode=True if args.log_json else None)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
