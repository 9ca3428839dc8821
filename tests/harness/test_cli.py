"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import json

import pytest

from repro.__main__ import build_parser, main
from repro.harness import experiments, scenarios
from repro.harness.experiments import EXPERIMENTS, ExperimentResult


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--scenario", "bogus"])

    def test_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "--src", "0", "--dst", "2", "--ipv6"]
        )
        assert args.src == 0 and args.dst == 2 and args.ipv6

    def test_observability_arguments(self):
        args = build_parser().parse_args([
            "reproduce", "--log-level", "debug", "--log-json",
            "--trace-out", "t.json", "--run-report", "r.json",
        ])
        assert args.log_level == "debug" and args.log_json
        assert args.trace_out == "t.json" and args.run_report == "r.json"

    def test_reproduce_has_one_analysis_path(self):
        args = vars(build_parser().parse_args(["reproduce"]))
        for engine_option in (
            "stream", "checkpoint_dir", "resume", "faults_config", "faults_seed",
            "serve_metrics", "live_out", "live_interval",
        ):
            assert engine_option not in args

    def test_reproduce_options_are_exactly_the_batch_ones(self):
        parser = build_parser()
        commands = next(
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        assert sorted(commands.choices) == ["info", "reproduce", "trace"]
        options = {
            option
            for action in commands.choices["reproduce"]._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert options == {
            "--help", "--scenario", "--seed", "--experiments", "--jobs",
            "--timings", "--cache", "--cache-dir", "--refresh-cache",
            "--trace-out", "--run-report", "--log-level", "--log-json",
        }

    @pytest.mark.parametrize(
        "flag",
        ["--serve-metrics", "--live-out", "--live-interval", "--faults-config",
         "--faults-seed", "--stream", "--checkpoint-dir", "--resume"],
    )
    def test_retired_reproduce_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["reproduce", flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_logging_flags_on_every_command(self):
        for command in (["info"], ["trace", "--src", "0", "--dst", "1"]):
            args = build_parser().parse_args(command + ["--log-level", "info"])
            assert args.log_level == "info"


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "--scenario", "small"]) == 0
        out = capsys.readouterr().out
        assert "ASes:" in out
        assert "measurement servers" in out

    def test_trace_happy_path(self, capsys):
        from repro.harness.scenarios import scenario_platform

        platform = scenario_platform("small", 0)
        servers = platform.measurement_servers()
        src, dst = servers[0].server_id, servers[1].server_id
        assert main(["trace", "--src", str(src), "--dst", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "traceroute to" in out

    def test_trace_bad_server_id(self, capsys):
        assert main(["trace", "--src", "1", "--dst", "99999"]) == 2
        assert "server ids" in capsys.readouterr().err

    def test_reproduce_unknown_experiment(self, capsys):
        assert main(["reproduce", "--experiments", "table1,nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiments ['nope']" in err
        assert "valid: " + ", ".join(EXPERIMENTS) in err

    def test_reproduce_single_experiment(self, capsys):
        assert main(
            ["reproduce", "--scenario", "small", "--experiments", "table1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Traceroute completeness summary" in out

    def test_reproduce_timings_table(self, capsys):
        assert main(
            ["reproduce", "--scenario", "small", "--experiments", "table1",
             "--timings"]
        ) == 0
        out = capsys.readouterr().out
        assert "== stage timings ==" in out
        assert "experiment:table1" in out
        assert "total" in out


def _timings_rows(out):
    table = out.split("== stage timings ==\n", 1)[1].splitlines()
    return [line.split()[0] for line in table[2:]]  # below header and rule


def _trace_events(path):
    with open(path) as handle:
        return json.load(handle)["traceEvents"]


def _root_children(events):
    root = next(event for event in events if event["name"] == "reproduce")
    names = []
    for event in events:
        if (event["args"].get("parent_id") == root["args"]["span_id"]
                and event["name"] not in names):
            names.append(event["name"])
    return names


@pytest.fixture
def unbuilt_world():
    """Drop the in-process scenario memo, so a run builds or loads its own."""
    scenarios.clear_cache()
    yield
    scenarios.clear_cache()


class TestReproduceRuns:
    def test_timings_rows_are_the_root_spans_children(self, tmp_path, capsys,
                                                      unbuilt_world):
        argv = ["reproduce", "--scenario", "small", "--experiments", "fig3,table1",
                "--cache-dir", str(tmp_path / "cache"), "--timings"]
        rows = {}
        for run in ("cold", "warm"):
            scenarios.clear_cache()
            trace_out = tmp_path / f"{run}.json"
            assert main(argv + ["--trace-out", str(trace_out)]) == 0
            rows[run] = _timings_rows(capsys.readouterr().out)
            assert rows[run] == _root_children(_trace_events(trace_out)) + ["total"]
        assert rows["cold"] == [
            "platform-load", "topology", "addressing", "routers", "cdn", "routing",
            "dynamics", "congestion", "platform-store",
            "longterm-load", "longterm-build", "longterm-store",
            "experiment:fig3", "experiment:table1", "total",
        ]
        assert rows["warm"] == [
            "platform-load", "longterm-load", "experiment:fig3", "experiment:table1",
            "total",
        ]

    def test_runs_the_given_order_and_builds_only_what_it_reads(
        self, tmp_path, capsys, unbuilt_world
    ):
        trace_out = tmp_path / "trace.json"
        assert main(["reproduce", "--scenario", "small", "--experiments", "fig3,table1",
                     "--trace-out", str(trace_out)]) == 0
        out = capsys.readouterr().out
        assert out.index("== fig3:") < out.index("== table1:")
        names = {event["name"] for event in _trace_events(trace_out)}
        assert "longterm-build" in names
        assert not names & {"ping-build", "shorttrace-build"}
        assert not scenarios._ping_cache and not scenarios._trace_cache

    def test_refresh_cache_alone_opens_and_clears_the_cache(
        self, tmp_path, monkeypatch, capsys, unbuilt_world
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        stale = [tmp_path / "v1" / "platform-old.pkl", tmp_path / "v2" / "platform-old.pkl"]
        for entry in stale:
            entry.parent.mkdir(exist_ok=True)
            entry.write_bytes(b"stale")
        assert main(["reproduce", "--scenario", "small", "--experiments", "table1",
                     "--refresh-cache"]) == 0
        assert "Traceroute completeness summary" in capsys.readouterr().out
        assert not any(entry.exists() for entry in stale)
        assert sorted(entry.name.split("-")[0] for entry in tmp_path.glob("v*/*.pkl")) == [
            "longterm", "platform",
        ]

    def test_runs_the_rebound_driver(self, monkeypatch, capsys):
        def patched_fig1(platform, dataset):
            return ExperimentResult("fig1", "patched")

        monkeypatch.setattr(experiments, "experiment_fig1", patched_fig1)
        assert main(["reproduce", "--scenario", "small", "--experiments", "fig1"]) == 0
        assert "== fig1: patched ==" in capsys.readouterr().out


class TestStreamCommand:
    """No command streams: ``reproduce`` has no streaming or service flags."""

    def test_checkpoint_flags_require_stream(self, capsys):
        for flag in (["--checkpoint-dir", "ckpt"], ["--resume"],
                     ["--serve-metrics"], ["--live-out", "live.jsonl"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["reproduce", *flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_service_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["service", "run", "--config", "svc.json"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'service'" in capsys.readouterr().err
