"""Terminal dashboard: sparklines, frame rendering, follow/poll modes."""

import json

from repro.obs import top
from repro.obs.expo import MetricsServer
from repro.obs.live import FlightRecorder, RunStatus
from repro.obs.metrics import MetricsRegistry


def _sample(seq, mono, units, shards=(), final=False, **extra):
    record = {
        "schema": 1,
        "seq": seq,
        "unix": 1000.0 + mono,
        "mono": mono,
        "process": {"rss_mb": 120.0, "cpu_user_s": 1.5, "cpu_system_s": 0.2},
        "counters": {"stream.units": units},
        "gauges": {},
        "histograms": {},
        "status": {
            "run": {"scenario": "small", "seed": 0},
            "phase": "stream:longterm",
            "phase_age_s": 1.0,
            "elapsed_s": mono,
            "stream": {"shards": list(shards)},
        },
    }
    if final:
        record["final"] = True
        record["reason"] = "complete"
    for key, value in extra.items():
        record[key] = value
    return record


# ----------------------------------------------------------------------
# sparkline / rates
# ----------------------------------------------------------------------

def test_sparkline_scales_to_max():
    line = top.sparkline([0, 1, 2, 4])
    assert len(line) == 4
    assert line[0] == "▁" and line[-1] == "█"


def test_sparkline_empty_and_flat():
    assert top.sparkline([]) == ""
    assert top.sparkline([0, 0]) == "▁▁"
    assert top.sparkline(list(range(100)), width=10) == top.sparkline(
        list(range(90, 100)), width=10
    )


def test_shard_rows_units_and_rates():
    shards = [
        {"shard": 0, "units": 30, "heartbeat_age_s": 0.1},
        {"shard": 1, "units": 28, "heartbeat_age_s": 0.2},
    ]
    first = _sample(0, 10.0, 40, shards=shards)
    second = _sample(1, 12.0, 80, shards=shards)
    for sample, value in ((first, 10), (second, 30)):
        sample["counters"]["stream.shard_units{shard=0}"] = value
        sample["gauges"]["stream.queue_depth{shard=0}"] = 4
    rows = top.shard_rows([first, second])
    assert rows[0][0] == 0 and rows[0][1] == 30
    assert rows[0][2] == 10.0  # (30-10)/2s
    assert rows[0][3] == 4
    assert rows[1][2] == 0.0  # shard 1 has no counter history


# ----------------------------------------------------------------------
# frame rendering
# ----------------------------------------------------------------------

def test_render_frame_empty():
    assert "waiting for samples" in top.render_frame([])


def test_render_frame_full():
    shards = [{"shard": 0, "units": 54, "heartbeat_age_s": 0.05}]
    samples = [
        _sample(0, 10.0, 100, shards=shards),
        _sample(1, 11.0, 150, shards=shards),
        _sample(2, 12.0, 250, shards=shards, final=True),
    ]
    frame = top.render_frame(samples)
    assert "scenario small" in frame
    assert "stream:longterm" in frame
    assert "rss 120.0 MB" in frame
    assert "units 250" in frame
    assert "100.0" in frame  # last units/s: (250-150)/1s
    assert "ckpt" not in frame  # no campaign table, no run-level line
    assert "shard" in frame and "54" in frame
    assert "run ended (complete)" in frame


# ----------------------------------------------------------------------
# follow / poll plumbing
# ----------------------------------------------------------------------

def test_iter_follow_samples_tails_partial_lines(tmp_path):
    path = tmp_path / "live.jsonl"
    stream = top.iter_follow_samples(path, poll_seconds=0)
    assert next(stream) is None  # no file yet

    path.write_text(json.dumps(_sample(0, 1.0, 5)) + "\n")
    assert next(stream)["seq"] == 0
    assert next(stream) is None  # drained

    # A partially-written line is buffered until its newline arrives.
    full = json.dumps(_sample(1, 2.0, 6))
    with open(path, "a") as handle:
        handle.write(full[:10])
    assert next(stream) is None
    with open(path, "a") as handle:
        handle.write(full[10:] + "\n")
    assert next(stream)["seq"] == 1


def test_follow_once_renders_whole_file(tmp_path, capsys):
    path = tmp_path / "live.jsonl"
    shards = [{"shard": 0, "units": 9, "heartbeat_age_s": 0.1}]
    with open(path, "w") as handle:
        for seq in range(3):
            handle.write(
                json.dumps(_sample(seq, float(seq), 10 * (seq + 1), shards=shards))
                + "\n"
            )
    assert top.main(["--follow", str(path), "--once"]) == 0
    out = capsys.readouterr().out
    assert "units 30" in out  # newest sample, not the first one
    assert "\x1b" not in out  # --once never clears the screen


def test_poll_mode_against_live_server(capsys):
    registry = MetricsRegistry()
    registry.counter("stream.units").inc(12)
    status = RunStatus()
    status.begin_run(scenario="small", seed=0)
    recorder = FlightRecorder(registry=registry, status=status, interval_seconds=60)
    recorder.sample()
    server = MetricsServer(
        registry=registry, status=status, recorder=recorder, port=0
    ).start()
    try:
        sample = top.poll_status_sample(server.url)
        assert sample["counters"]["stream.units"] == 12
        assert top.main(["--url", server.url, "--once"]) == 0
        assert "units 12" in capsys.readouterr().out
    finally:
        server.close()


def test_poll_mode_errors_when_endpoint_never_answers(capsys):
    assert top.poll_status_sample("http://127.0.0.1:9") is None


def test_parser_requires_exactly_one_source():
    parser = top.build_parser()
    args = parser.parse_args(["--follow", "x.jsonl", "--interval", "0.5"])
    assert args.follow == "x.jsonl" and args.interval == 0.5
    try:
        parser.parse_args([])
    except SystemExit as exc:
        assert exc.code == 2
    else:  # pragma: no cover
        raise AssertionError("parser accepted no source")


# ----------------------------------------------------------------------
# campaign table
# ----------------------------------------------------------------------

def test_campaign_rows_take_latest_sample():
    first = _sample(0, 10.0, 10)
    second = _sample(1, 11.0, 20)
    second["status"]["campaigns"] = [
        {"name": "mesh", "state": "running"},
        "not-a-row",
    ]
    assert top.campaign_rows([]) == []
    assert top.campaign_rows([first]) == []
    assert top.campaign_rows([first, second]) == [
        {"name": "mesh", "state": "running"}
    ]


def test_render_frame_includes_campaign_table():
    sample = _sample(0, 10.0, 100)
    sample["status"]["campaigns"] = [
        {
            "name": "traceroute-mesh",
            "state": "running",
            "cycle": 4,
            "units_done": 12,
            "units_total": 64,
            "next_fire_s": 0.0,
            "fingerprint": "abcdef0123456789",
        },
        {"name": "pings", "state": "idle"},
    ]
    frame = top.render_frame([sample])
    assert "campaign" in frame and "next fire" in frame
    assert "traceroute-mesh" in frame
    assert "12/64" in frame
    assert "abcdef012345" in frame  # fingerprint clipped to 12 chars
    assert "abcdef0123456789" not in frame
    assert "pings" in frame
