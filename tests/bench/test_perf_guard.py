"""Perf guard: regression thresholds over pipeline benchmark summaries."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_guard",
    Path(__file__).resolve().parents[2] / "benchmarks" / "perf_guard.py",
)
perf_guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_guard)


def _summary(build_seconds=1.0):
    return {
        "benchmark": "pipeline",
        "schema": 3,
        "scenario": "default",
        "phases": {
            "serial": {"stage_seconds": {"longterm-build": build_seconds}},
        },
    }


def _run(tmp_path, baseline, candidate):
    base = tmp_path / "base.json"
    cand = tmp_path / "cand.json"
    base.write_text(json.dumps(baseline))
    cand.write_text(json.dumps(candidate))
    return perf_guard.main(
        ["--baseline", str(base), "--candidate", str(cand)]
    )


def test_passes_within_all_bounds(tmp_path, capsys):
    assert _run(tmp_path, _summary(), _summary()) == 0
    assert "perf-guard: OK" in capsys.readouterr().out


def test_fails_on_longterm_build_regression(tmp_path, capsys):
    assert _run(tmp_path, _summary(), _summary(build_seconds=2.5)) == 1
    assert "serial longterm-build" in capsys.readouterr().out


def test_missing_stream_phase_only_guards_build(tmp_path, capsys):
    # A baseline recorded while the summary still had a stream phase:
    # its stream wall and RSS ratio are ignored, only the build is guarded.
    baseline = _summary()
    baseline["phases"]["stream"] = {"wall_seconds": 20.0}
    baseline["memory"] = {"stream_vs_serial_rss": 0.4}
    assert _run(tmp_path, baseline, _summary()) == 0
    out = capsys.readouterr().out
    assert "stream" not in out and "perf-guard: OK" in out
    assert _run(tmp_path, baseline, _summary(build_seconds=2.5)) == 1


def test_scenario_mismatch_refuses(tmp_path):
    candidate = _summary()
    candidate["scenario"] = "large"
    with pytest.raises(SystemExit, match="scenario mismatch"):
        _run(tmp_path, _summary(), candidate)
