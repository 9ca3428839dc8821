"""Tests for the ``python -m repro`` command-line interface."""

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
        ):
            assert engine_option not in args

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
    """Streaming runs only behind ``service run``, which owns its flags."""

    def test_stream_flags_parse(self):
        args = build_parser().parse_args([
            "service", "run", "--config", "svc.json",
            "--checkpoint-dir", "ckpt", "--faults-config", "faults.json",
            "--faults-seed", "7",
        ])
        assert args.config == "svc.json"
        assert args.checkpoint_dir == "ckpt"
        assert args.faults_config == "faults.json" and args.faults_seed == 7

    def test_checkpoint_flags_require_stream(self, capsys):
        for flag in (["--checkpoint-dir", "ckpt"], ["--resume"]):
            with pytest.raises(SystemExit) as exit_info:
                main(["reproduce", *flag])
            assert exit_info.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestLivePlane:
    def test_live_flags_parse(self):
        args = build_parser().parse_args(["reproduce"])
        assert args.serve_metrics is None
        assert args.live_out is None and args.live_interval == 1.0

        args = build_parser().parse_args(["reproduce", "--serve-metrics"])
        assert args.serve_metrics == 9309  # bare flag uses the default port

        args = build_parser().parse_args([
            "reproduce", "--serve-metrics", "0",
            "--live-out", "live.jsonl", "--live-interval", "0.25",
        ])
        assert args.serve_metrics == 0
        assert args.live_out == "live.jsonl" and args.live_interval == 0.25

    def test_live_out_records_batch_run(self, capsys, tmp_path):
        import json

        live = tmp_path / "live.jsonl"
        assert main([
            "reproduce", "--scenario", "small", "--jobs", "2",
            "--experiments", "fig3", "--live-out", str(live),
            "--live-interval", "0.05",
        ]) == 0
        capsys.readouterr()
        samples = [json.loads(line) for line in live.read_text().splitlines()]
        assert samples, "no flight-recorder samples written"
        assert [s["seq"] for s in samples] == list(range(len(samples)))
        last = samples[-1]
        assert last["final"] is True and last["reason"] == "complete"
        assert last["status"]["run"]["mode"] == "batch"
        assert last["status"]["run"]["jobs"] == 2
        assert last["process"]["rss_mb"] > 0

    def test_serve_metrics_announces_endpoint(self, capsys):
        assert main([
            "reproduce", "--scenario", "small", "--experiments", "table1",
            "--serve-metrics", "0",
        ]) == 0
        err = capsys.readouterr().err
        assert "live telemetry at http://127.0.0.1:" in err
        assert "/metrics /status /health" in err

    def test_reports_byte_identical_with_live_plane(self, capsys, tmp_path):
        assert main([
            "reproduce", "--scenario", "small", "--experiments", "table1",
        ]) == 0
        plain = capsys.readouterr().out

        assert main([
            "reproduce", "--scenario", "small", "--experiments", "table1",
            "--live-out", str(tmp_path / "live.jsonl"),
            "--live-interval", "0.05", "--serve-metrics", "0",
        ]) == 0
        observed = capsys.readouterr().out
        assert observed == plain

    def test_stream_reports_byte_identical_with_live_plane(self, capsys, tmp_path):
        import json

        config = tmp_path / "service.json"
        config.write_text(json.dumps({
            "campaigns": [{
                "name": "mesh", "kind": "mesh", "cycles": 3,
                "rounds_per_cycle": 2, "shards": 2,
                "mesh": {"pairs": 512, "block_pairs": 128},
            }],
            "port": 0,
        }))
        argv = ["service", "run", "--config", str(config), "--time-scale", "0.001"]
        assert main(argv + ["--checkpoint-dir", str(tmp_path / "plain")]) == 0
        plain = capsys.readouterr().out

        assert main(argv + [
            "--checkpoint-dir", str(tmp_path / "live"),
            "--live-out", str(tmp_path / "live.jsonl"), "--live-interval", "0.05",
        ]) == 0
        observed = capsys.readouterr().out
        assert observed == plain
        assert (tmp_path / "live" / "results-mesh.json").read_bytes() == (
            tmp_path / "plain" / "results-mesh.json"
        ).read_bytes()
        assert (tmp_path / "live.jsonl").read_text().strip()
