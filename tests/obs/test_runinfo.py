"""Run manifests: content, fingerprints, and the CLI end-to-end path."""

import json

import pytest

from repro.obs import runinfo
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def test_build_manifest_contents():
    from repro.harness.engine import config_fingerprint
    from repro.harness.scenarios import get_scenario

    registry = MetricsRegistry()
    registry.counter("cache.hit").inc(2)
    registry.counter("cache.miss").inc(1)
    tracer = Tracer()
    with tracer.span("reproduce"):
        with tracer.span("topology"):
            pass

    platform_config = get_scenario("small").platform_config(7)
    manifest = runinfo.build_manifest(
        scenario="small",
        seed=7,
        jobs=2,
        experiments=["table1"],
        configs={"platform": platform_config},
        registry=registry,
        tracer=tracer,
        extra={"note": "unit"},
    )

    assert manifest["schema"] == runinfo.MANIFEST_SCHEMA
    assert manifest["run"] == {
        "scenario": "small", "seed": 7, "jobs": 2, "experiments": ["table1"],
    }
    # Manifest fingerprints use the same keying as the artifact cache, so
    # a manifest can be matched against cache entries.
    assert manifest["config_fingerprints"]["platform"] == config_fingerprint(
        "platform", platform_config
    )
    assert manifest["metrics"]["counters"] == {"cache.hit": 2, "cache.miss": 1}
    assert manifest["spans"]["summary"]["topology"]["count"] == 1
    assert manifest["spans"]["total_seconds"] > 0
    assert manifest["environment"]["python"]
    assert manifest["extra"] == {"note": "unit"}
    json.dumps(manifest)  # JSON-ready throughout


def test_write_run_report_creates_parents(tmp_path):
    target = tmp_path / "deep" / "nested" / "run.json"
    written = runinfo.write_run_report(target, {"schema": 1})
    assert written == target
    assert json.loads(target.read_text()) == {"schema": 1}


class TestReproduceEndToEnd:
    @pytest.fixture()
    def run(self, tmp_path, capsys):
        """One small reproduce run with every observability output on."""
        from repro.__main__ import main
        from repro.harness import scenarios

        # Drop memoized builds so the run actually exercises (and spans)
        # the platform/dataset construction paths.
        scenarios.clear_cache()
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "run.json"
        code = main([
            "reproduce", "--scenario", "small", "--experiments", "table1",
            "--log-json", "--log-level", "info",
            "--trace-out", str(trace_path),
            "--run-report", str(report_path),
        ])
        captured = capsys.readouterr()
        assert code == 0
        return {
            "trace": json.loads(trace_path.read_text()),
            "manifest": json.loads(report_path.read_text()),
            "stdout": captured.out,
            "stderr": captured.err,
        }

    def test_reports_still_on_stdout(self, run):
        assert "Traceroute completeness summary" in run["stdout"]
        # No --timings flag: no timing table, even though spans recorded.
        assert "stage timings" not in run["stdout"]

    def test_json_log_lines_on_stderr(self, run):
        lines = [line for line in run["stderr"].splitlines() if line.strip()]
        assert lines, "expected JSON log lines on stderr"
        events = []
        for line in lines:
            payload = json.loads(line)  # every line is one JSON object
            for key in ("ts", "level", "logger", "event"):
                assert key in payload
            events.append(payload["event"])
        assert "reproduce.start" in events
        assert "reproduce.done" in events

    def test_chrome_trace_structure_and_coverage(self, run):
        events = run["trace"]["traceEvents"]
        names = [event["name"] for event in events]
        assert "reproduce" in names
        assert "experiment:table1" in names
        root = next(e for e in events if e["name"] == "reproduce")
        children = [
            e for e in events
            if e["args"].get("parent_id") == root["args"]["span_id"]
        ]
        assert children, "pipeline stages should nest under the root span"
        covered = sum(e["dur"] for e in children)
        assert covered >= 0.9 * root["dur"]

    def test_manifest_contents(self, run):
        manifest = run["manifest"]
        assert manifest["schema"] == 1
        assert manifest["run"]["scenario"] == "small"
        assert manifest["run"]["experiments"] == ["table1"]
        for name in ("platform", "longterm"):
            fingerprint = manifest["config_fingerprints"][name]
            assert isinstance(fingerprint, str) and len(fingerprint) == 32
        counters = manifest["metrics"]["counters"]
        for name in ("cache.hit", "cache.miss", "cache.corrupt", "cache.store"):
            assert name in counters  # always reported, even if zero
        assert counters["traceroute.samples"] > 0
        assert counters["dataset.longterm.pairs"] > 0
        summary = manifest["spans"]["summary"]
        assert "experiment:table1" in summary
        assert manifest["spans"]["coverage"] >= 0.9
