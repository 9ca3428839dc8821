"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``info``       -- summarize a scenario's synthetic world.
- ``trace``      -- run one traceroute between two measurement servers.
- ``reproduce``  -- run table/figure experiments and print the reports.
- ``service``    -- run the always-on measurement campaign service.

Examples::

    python -m repro info --scenario small
    python -m repro trace --scenario small --src 0 --dst 3 --ipv6
    python -m repro reproduce --scenario default --experiments table1,fig3
    python -m repro reproduce --scenario small --log-json \\
        --trace-out trace.json --run-report run.json
    python -m repro service run --config service.json \\
        --time-scale 0.01 --live-out live.jsonl

Observability: ``--log-level``/``--log-json`` (or ``REPRO_LOG_LEVEL`` /
``REPRO_LOG_JSON``) control structured logging on stderr; ``--trace-out``
writes a Chrome trace-event file of the run's span tree (open it in
https://ui.perfetto.dev); ``--run-report`` writes the run manifest --
config fingerprints, metric snapshot, span summary.  Reports stay on
stdout either way.

Live telemetry: ``--serve-metrics [PORT]`` exposes Prometheus-text
``/metrics``, JSON ``/status`` and ``/health`` over HTTP for the life of
the run; ``--live-out FILE`` streams flight-recorder samples (metrics +
process stats + run status, every ``--live-interval`` seconds) as JSONL,
with a final sample appended on completion, crash or SIGTERM.  Watch
either live with ``python -m repro.obs.top``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.harness.scenarios import (
    SCENARIOS,
    scenario_longterm,
    scenario_ping,
    scenario_platform,
    scenario_traces,
)
from repro.net.ip import IPVersion
from repro.obs.expo import DEFAULT_METRICS_PORT as _DEFAULT_METRICS_PORT
from repro.obs import log as obs_log
from repro.obs import runinfo as obs_runinfo
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer, use_tracer

_LOG = obs_log.get_logger("repro.cli")


def _install_fault_plane(args: argparse.Namespace) -> Optional[bool]:
    """Install the deterministic fault plane from ``--faults-config``.

    Returns ``True`` when a plane with active injectors is installed,
    ``False`` when no faults were requested, and ``None`` on a bad
    config (the caller exits 2).  Chaos runs auto-enable shard
    supervision so every injected fault is also survivable.
    """
    path = args.faults_config
    seed = args.faults_seed
    if not path:
        if seed is not None:
            print("error: --faults-seed requires --faults-config",
                  file=sys.stderr)
            return None
        return False
    from repro.faults.plane import install, load_faults_config

    try:
        config = load_faults_config(path, seed=seed)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad faults config {path!r}: {exc}", file=sys.stderr)
        return None
    install(config)
    _LOG.info("faults.installed", config=path, seed=config.seed,
              active=config.active)
    return config.active


@contextmanager
def _live_plane(args: argparse.Namespace, **run_fields: object) -> Iterator[None]:
    """Run the live telemetry plane around a reproduce command.

    With ``--live-out`` and/or ``--serve-metrics`` active this starts a
    :class:`~repro.obs.live.FlightRecorder` (streaming JSONL samples)
    and optionally the HTTP exposition endpoint, and installs a SIGTERM
    handler that appends a final sample before the process dies -- so a
    killed campaign still leaves a fresh post-mortem trail.  Neither
    touches any RNG or the analysis path: reports are byte-identical
    with the plane on or off.
    """
    if not args.live_out and args.serve_metrics is None:
        yield
        return
    from repro.obs.expo import MetricsServer
    from repro.obs.live import FlightRecorder, get_status

    status = get_status()
    status.reset()
    status.begin_run(**run_fields)
    recorder = FlightRecorder(
        interval_seconds=args.live_interval, out_path=args.live_out
    )
    server: Optional[MetricsServer] = None
    previous_handler: object = signal.SIG_DFL
    owner_pid = os.getpid()

    def _on_sigterm(signum: int, frame: object) -> None:
        # Forked dataset-pool workers inherit this handler but not the
        # telemetry threads it tears down -- in any process but the
        # installer, just die the default way.
        if os.getpid() == owner_pid:
            recorder.stop(reason="sigterm")
            if server is not None:
                server.close()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    recorder.start()
    if args.serve_metrics is not None:
        server = MetricsServer(recorder=recorder, port=args.serve_metrics)
        server.start()
        print(f"live telemetry at {server.url} "
              "(/metrics /status /health)", file=sys.stderr)
    try:
        previous_handler = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        previous_handler = None  # not the main thread (tests); no handler
    try:
        yield
    except BaseException:
        recorder.stop(reason="crash")
        raise
    else:
        recorder.stop(reason="complete")
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
        if server is not None:
            server.close()

_EXPERIMENT_NAMES = (
    "table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
    "congestion-norm", "localization", "link-classification", "fig9",
    "fig10a", "fig10b", "ext-loss", "ext-sharedinfra",
)


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


def _command_reproduce(args: argparse.Namespace) -> int:
    from repro.harness import experiments as exp
    from repro.harness.engine import ArtifactCache, Timings
    from repro.harness.scenarios import get_scenario

    wanted = (
        [name.strip() for name in args.experiments.split(",")]
        if args.experiments
        else list(_EXPERIMENT_NAMES)
    )
    unknown = [name for name in wanted if name not in _EXPERIMENT_NAMES]
    if unknown:
        print(f"error: unknown experiments {unknown}; valid: "
              f"{', '.join(_EXPERIMENT_NAMES)}", file=sys.stderr)
        return 2

    # Any observability output needs the stage recorder wired through the
    # pipeline -- stages become spans via the Timings shim.  The flat
    # table itself prints only under --timings.
    observing = bool(args.timings or args.trace_out or args.run_report
                     or args.live_out or args.serve_metrics is not None)
    registry = get_registry()
    if observing:
        registry.reset()
    # Pre-register cache counters so manifests always report them, even on
    # runs that never touch the artifact cache.
    for name in ("cache.hit", "cache.miss", "cache.corrupt", "cache.store"):
        registry.counter(name)

    timings = Timings() if observing else None
    tracer = Tracer()
    cache = None
    if args.cache or args.cache_dir:
        cache = ArtifactCache(args.cache_dir)
        if args.refresh_cache:
            cache.clear()
    jobs = args.jobs

    _LOG.info("reproduce.start", scenario=args.scenario, seed=args.seed,
              jobs=jobs, experiments=",".join(wanted),
              cache=cache is not None)

    with use_tracer(tracer), _live_plane(
        args, mode="batch", scenario=args.scenario, seed=args.seed,
        jobs=jobs, experiments=wanted,
    ), tracer.span(
        "reproduce", scenario=args.scenario, seed=args.seed, jobs=jobs
    ):
        platform = scenario_platform(
            args.scenario, args.seed, jobs=jobs, cache=cache, timings=timings
        )
        results = []
        # Build only the datasets the requested experiments need.
        longterm_needed = any(
            name in wanted
            for name in ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                         "fig10a", "fig10b", "ext-sharedinfra")
        )
        ping_needed = any(name in wanted for name in ("congestion-norm", "ext-loss"))
        trace_needed = any(
            name in wanted
            for name in ("localization", "link-classification", "fig9")
        )
        longterm = (
            scenario_longterm(args.scenario, args.seed, jobs=jobs, cache=cache,
                              timings=timings)
            if longterm_needed else None
        )
        pings = (
            scenario_ping(args.scenario, args.seed, jobs=jobs, timings=timings)
            if ping_needed or trace_needed else None
        )
        traces = (
            scenario_traces(args.scenario, args.seed, jobs=jobs, timings=timings)
            if trace_needed else None
        )

        drivers = {
            "table1": lambda: exp.experiment_table1(longterm),
            "fig1": lambda: exp.experiment_fig1(platform, longterm),
            "fig2": lambda: exp.experiment_fig2(longterm),
            "fig3": lambda: exp.experiment_fig3(longterm),
            "fig4": lambda: exp.experiment_fig4(longterm),
            "fig5": lambda: exp.experiment_fig5(longterm),
            "fig6": lambda: exp.experiment_fig6(longterm),
            "fig7": lambda: exp.experiment_fig7(platform, jobs=jobs),
            "congestion-norm": lambda: exp.experiment_congestion_norm(pings),
            "localization": lambda: exp.experiment_localization(traces, platform),
            "link-classification": lambda: exp.experiment_link_classification(
                traces, platform
            ),
            "fig9": lambda: exp.experiment_fig9(traces, platform),
            "fig10a": lambda: exp.experiment_fig10a(longterm),
            "fig10b": lambda: exp.experiment_fig10b(longterm),
            "ext-loss": lambda: exp.experiment_loss(pings),
            "ext-sharedinfra": lambda: exp.experiment_sharedinfra(longterm),
        }
        for name in wanted:
            if timings is not None:
                with timings.stage(f"experiment:{name}"):
                    results.append(drivers[name]())
            else:
                results.append(drivers[name]())

    for result in results:
        print(result.render())
        print()
    if args.timings:
        print("== stage timings ==")
        print(timings.render())

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
        if longterm_needed:
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


def _command_service_run(args: argparse.Namespace) -> int:
    """``service run``: the always-on campaign supervisor.

    Loads the JSON service config, applies CLI overrides, and hands
    control to :class:`~repro.service.supervisor.ServiceSupervisor` --
    which installs its own SIGTERM/SIGINT handlers on the event loop so
    a kill drains every campaign to a checkpoint boundary instead of
    aborting mid-unit.  The ``_live_plane`` SIGTERM handler is *not*
    used here: it re-raises the signal after flushing, which would
    bypass the drain.
    """
    import dataclasses

    from repro.obs.live import FlightRecorder
    from repro.service import ServiceSupervisor, service_config_from_dict

    try:
        with open(args.config) as handle:
            payload = json.load(handle)
        config = service_config_from_dict(payload)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error: bad service config {args.config!r}: {exc}",
              file=sys.stderr)
        return 2

    overrides = {}
    if args.checkpoint_dir is not None:
        overrides["checkpoint_dir"] = args.checkpoint_dir
    if args.time_scale is not None:
        overrides["time_scale"] = args.time_scale
    if args.port is not None:
        overrides["port"] = args.port
    if args.host is not None:
        overrides["host"] = args.host
    if args.drain_after is not None:
        overrides["drain_after_s"] = args.drain_after
    if args.live_interval is not None:
        overrides["live_interval_s"] = args.live_interval
    if overrides:
        try:
            config = dataclasses.replace(config, **overrides)
        except ValueError as exc:
            print(f"error: bad service override: {exc}", file=sys.stderr)
            return 2

    plane_active = _install_fault_plane(args)
    if plane_active is None:
        return 2
    if plane_active and config.supervision is None:
        # A chaos run without explicit supervision still self-heals.
        from repro.faults.plane import SupervisionPolicy

        config = dataclasses.replace(config, supervision=SupervisionPolicy())

    registry = get_registry()
    registry.reset()
    recorder = None
    if args.live_out:
        recorder = FlightRecorder(
            interval_seconds=config.live_interval_s, out_path=args.live_out
        )

    _LOG.info(
        "service.start", config=args.config,
        campaigns=",".join(c.name for c in config.campaigns),
        time_scale=config.time_scale,
    )
    supervisor = ServiceSupervisor(config, recorder=recorder)
    if recorder is not None:
        recorder.start()
    try:
        outcomes = supervisor.run()
    except BaseException:
        if recorder is not None:
            recorder.stop(reason="crash")
        raise
    else:
        if recorder is not None:
            recorder.stop(reason="complete")

    for name in sorted(outcomes):
        print(f"{name}: {outcomes[name]}")
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
             f"valid: {', '.join(_EXPERIMENT_NAMES)}",
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
        help="with --cache: drop existing entries and rebuild",
    )
    reproduce.add_argument(
        "--serve-metrics", nargs="?", type=int, const=_DEFAULT_METRICS_PORT,
        default=None,
        metavar="PORT",
        help="serve live telemetry over HTTP while the run is active: "
             "Prometheus /metrics, JSON /status, /health "
             f"(default port: {_DEFAULT_METRICS_PORT}; 0 = ephemeral)",
    )
    reproduce.add_argument(
        "--live-out", default=None, metavar="FILE",
        help="stream flight-recorder samples to FILE as JSON-lines "
             "(tail it with python -m repro.obs.top --follow FILE)",
    )
    reproduce.add_argument(
        "--live-interval", type=float, default=1.0, metavar="SECONDS",
        help="flight-recorder sampling interval (default: 1.0)",
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

    service = commands.add_parser(
        "service", help="the always-on measurement campaign service"
    )
    service_commands = service.add_subparsers(
        dest="service_command", required=True
    )
    service_run = service_commands.add_parser(
        "run", parents=[logging_options],
        help="run campaigns until finished, drained, or SIGTERM",
        description="Run the campaign supervisor from a JSON service "
                    "config.  SIGTERM/SIGINT drain gracefully: every "
                    "campaign checkpoints at its next unit boundary, and "
                    "a restart resumes byte-identically.",
    )
    service_run.add_argument(
        "--config", required=True, metavar="FILE",
        help="JSON service config (campaigns, scenario, durability knobs)",
    )
    service_run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="override the config's checkpoint directory",
    )
    service_run.add_argument(
        "--time-scale", type=float, default=None, metavar="FACTOR",
        help="override the config's schedule compression factor "
             "(scheduling only; results are unaffected)",
    )
    service_run.add_argument(
        "--host", default=None, metavar="HOST",
        help="override the control/metrics bind host",
    )
    service_run.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="override the control/metrics port (0 = ephemeral)",
    )
    service_run.add_argument(
        "--drain-after", type=float, default=None, metavar="SECONDS",
        help="drain the whole service after this many seconds "
             "(CI smoke runs)",
    )
    service_run.add_argument(
        "--live-out", default=None, metavar="FILE",
        help="stream flight-recorder samples to FILE as JSON-lines "
             "(tail it with python -m repro.obs.top --follow FILE)",
    )
    service_run.add_argument(
        "--live-interval", type=float, default=None, metavar="SECONDS",
        help="override the flight-recorder sampling interval",
    )
    service_run.add_argument(
        "--faults-config", default=None, metavar="FILE",
        help="inject a deterministic fault schedule from this JSON config "
             "(auto-enables shard supervision when the config sets none)",
    )
    service_run.add_argument(
        "--faults-seed", type=int, default=None, metavar="N",
        help="override the faults config's schedule seed",
    )
    service_run.set_defaults(handler=_command_service_run)
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
