"""Tests for the ``python -m repro`` command-line interface."""

import argparse

import pytest

from repro.__main__ import build_parser, main


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
        assert main(["reproduce", "--experiments", "nope"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

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
