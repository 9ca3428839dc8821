"""Flight recorder and run-status board: rings, streams, post-mortems."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.obs.live import (
    LIVE_SCHEMA,
    FlightRecorder,
    RunStatus,
    process_stats,
    refresh_derived_gauges,
)
from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# RunStatus
# ----------------------------------------------------------------------

def test_status_board_round_trip():
    status = RunStatus()
    status.begin_run(mode="stream", scenario="small", seed=7)
    status.set_phase("routing")
    status.set_shards(2)
    status.shard_unit(0)
    status.shard_unit(0)
    status.shard_unit(1, 5)
    board = status.as_dict()
    assert board["run"] == {"mode": "stream", "scenario": "small", "seed": 7}
    assert board["phase"] == "routing"
    assert board["phase_age_s"] >= 0
    assert board["elapsed_s"] >= 0
    assert [(s["shard"], s["units"]) for s in board["stream"]["shards"]] == [
        (0, 2), (1, 5)
    ]
    assert all(s["heartbeat_age_s"] >= 0 for s in board["stream"]["shards"])
    assert "checkpoint" not in board


def test_status_reset_blanks_everything():
    status = RunStatus()
    status.begin_run(mode="x")
    status.set_shards(3)
    status.reset()
    board = status.as_dict()
    assert board["run"] == {} and board["phase"] is None
    assert board["stream"]["shards"] == [] and board["campaigns"] == []


def test_set_shards_reinitializes_table():
    status = RunStatus()
    status.set_shards(2)
    status.shard_unit(0, 9)
    status.set_shards(1)
    board = status.as_dict()
    assert [(s["shard"], s["units"]) for s in board["stream"]["shards"]] == [(0, 0)]


def test_refresh_derived_gauges_projects_ages():
    registry = MetricsRegistry()
    status = RunStatus()
    status.set_phase("build")
    status.set_shards(1)
    refresh_derived_gauges(registry, status)
    gauges = registry.snapshot()["gauges"]
    assert gauges["live.phase_age_seconds"] >= 0
    assert "live.checkpoint_age_seconds" not in gauges
    assert gauges["live.shard_heartbeat_age_seconds{shard=0}"] >= 0


def test_process_stats_shape():
    stats = process_stats()
    assert stats["rss_mb"] > 0
    assert stats["cpu_user_s"] >= 0
    assert stats["threads"] >= 1


# ----------------------------------------------------------------------
# FlightRecorder
# ----------------------------------------------------------------------

def test_sample_shape_and_sequencing():
    registry = MetricsRegistry()
    registry.counter("stream.units").inc(4)
    registry.histogram("h").observe(0.5)
    recorder = FlightRecorder(registry=registry, status=RunStatus(), interval_seconds=60)
    first = recorder.sample()
    second = recorder.sample()
    assert first["schema"] == LIVE_SCHEMA
    assert (first["seq"], second["seq"]) == (0, 1)
    assert first["counters"]["stream.units"] == 4
    assert first["histograms"]["h"] == {"count": 1, "sum": 0.5}
    assert first["process"]["rss_mb"] > 0
    assert "final" not in first
    assert recorder.latest() is second


def test_ring_wraparound_keeps_newest():
    recorder = FlightRecorder(
        registry=MetricsRegistry(), status=RunStatus(),
        interval_seconds=60, capacity=3,
    )
    for _ in range(7):
        recorder.sample()
    kept = recorder.samples()
    assert len(kept) == 3
    assert [s["seq"] for s in kept] == [4, 5, 6]


def test_streaming_jsonl_and_final_sample(tmp_path):
    out = tmp_path / "live.jsonl"
    registry = MetricsRegistry()
    recorder = FlightRecorder(
        registry=registry, status=RunStatus(),
        interval_seconds=60, out_path=out,
    )
    recorder.sample()
    registry.counter("stream.units").inc()
    recorder.stop(reason="complete")
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line["seq"] for line in lines] == list(range(len(lines)))
    assert lines[-1]["final"] is True and lines[-1]["reason"] == "complete"
    assert lines[-1]["counters"]["stream.units"] == 1


def test_stop_is_idempotent_and_never_truncates(tmp_path):
    out = tmp_path / "live.jsonl"
    recorder = FlightRecorder(
        registry=MetricsRegistry(), status=RunStatus(),
        interval_seconds=60, out_path=out,
    )
    recorder.sample()
    recorder.stop(reason="sigterm")
    size = out.stat().st_size
    recorder.stop(reason="again")
    recorder.sample()  # post-stop samples must not reopen/truncate the file
    assert out.stat().st_size == size
    lines = out.read_text().splitlines()
    assert json.loads(lines[-1])["reason"] == "sigterm"


def test_sampling_thread_collects(tmp_path):
    recorder = FlightRecorder(
        registry=MetricsRegistry(), status=RunStatus(), interval_seconds=0.02
    )
    recorder.start()
    deadline = time.monotonic() + 5.0
    while len(recorder.samples()) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    final = recorder.stop()
    assert len(recorder.samples()) >= 3
    assert final["final"] is True


def test_dump_writes_whole_ring(tmp_path):
    recorder = FlightRecorder(
        registry=MetricsRegistry(), status=RunStatus(),
        interval_seconds=60, capacity=5,
    )
    for _ in range(3):
        recorder.sample()
    target = recorder.dump(tmp_path / "post" / "mortem.jsonl", reason="crash")
    lines = [json.loads(line) for line in target.read_text().splitlines()]
    assert len(lines) == 4  # three samples + the final one dump() takes
    assert lines[-1]["final"] is True and lines[-1]["reason"] == "crash"


def test_constructor_validation():
    with pytest.raises(ValueError, match="interval_seconds"):
        FlightRecorder(registry=MetricsRegistry(), interval_seconds=0)
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(registry=MetricsRegistry(), capacity=0)


def test_sigterm_leaves_fresh_final_sample(tmp_path):
    """A SIGTERM'd run's live file ends with a fresh ``final`` sample.

    Runs the CLI live plane in a subprocess and has it SIGTERM itself
    (external delivery, through the installed handler).
    """
    out = tmp_path / "live.jsonl"
    script = textwrap.dedent(
        f"""
        import argparse, os, signal, time
        from repro.__main__ import _live_plane

        args = argparse.Namespace(
            live_out={str(out)!r}, serve_metrics=None, live_interval=0.05
        )
        with _live_plane(args, mode="test"):
            time.sleep(0.2)
            os.kill(os.getpid(), signal.SIGTERM)
            time.sleep(5)
            raise SystemExit("handler did not fire")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in sys.path if p] or [""]
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == -signal.SIGTERM, result.stderr
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[-1]["final"] is True and lines[-1]["reason"] == "sigterm"
    if len(lines) >= 2:
        # freshness: the final sample trails the previous one by less
        # than two sampling intervals
        assert lines[-1]["mono"] - lines[-2]["mono"] < 2 * 0.05 + 0.5


# ----------------------------------------------------------------------
# Campaign board
# ----------------------------------------------------------------------

def test_campaign_rows_merge_and_sort():
    status = RunStatus()
    status.set_campaign("pings", state="running", cycle=3)
    status.set_campaign("mesh", state="idle")
    status.set_campaign("pings", units_done=7)  # merge, not replace
    board = status.as_dict()["campaigns"]
    assert [row["name"] for row in board] == ["mesh", "pings"]
    pings = board[1]
    assert pings["state"] == "running"
    assert pings["cycle"] == 3
    assert pings["units_done"] == 7
    assert pings["updated_age_s"] >= 0
    assert "updated_mono" not in pings


def test_drop_campaign_removes_row():
    status = RunStatus()
    status.set_campaign("mesh", state="running")
    status.drop_campaign("mesh")
    status.drop_campaign("never-there")  # harmless
    assert status.as_dict()["campaigns"] == []


def test_reset_clears_campaigns():
    status = RunStatus()
    status.set_campaign("mesh", state="running")
    status.reset()
    assert status.as_dict()["campaigns"] == []


def test_refresh_derived_gauges_projects_campaign_ages():
    registry = MetricsRegistry()
    status = RunStatus()
    status.set_campaign("mesh", state="running")
    refresh_derived_gauges(registry, status)
    gauges = registry.snapshot()["gauges"]
    assert gauges["live.campaign_update_age_seconds{campaign=mesh}"] >= 0
