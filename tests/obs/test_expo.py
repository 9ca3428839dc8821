"""HTTP exposition: Prometheus text rendering and the live endpoints."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.expo import (
    CONTENT_TYPE_METRICS,
    LIVE_STATUS_SCHEMA,
    MetricsServer,
    escape_label_value,
    parse_metric_name,
    prometheus_text,
)
from repro.obs.live import FlightRecorder, RunStatus
from repro.obs.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Metric-name parsing and escaping
# ----------------------------------------------------------------------

def test_parse_metric_name_plain_and_labeled():
    assert parse_metric_name("stream.units") == ("stream.units", {})
    assert parse_metric_name("stream.queue_depth{shard=3}") == (
        "stream.queue_depth", {"shard": "3"}
    )
    assert parse_metric_name("x{a=1,b=two}") == ("x", {"a": "1", "b": "two"})


def test_parse_metric_name_malformed_kept_verbatim():
    # No closing brace, and a block without '=': both stay one name.
    assert parse_metric_name("x{a=1") == ("x{a=1", {})
    assert parse_metric_name("x{oops}") == ("x{oops}", {})


def test_escape_label_value():
    assert escape_label_value('a"b') == 'a\\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == "a\\nb"


def test_label_escaping_round_trips_into_exposition():
    snapshot = {"gauges": {'weird{path=a\\b"c}': 1.5}, "counters": {}, "histograms": {}}
    text = prometheus_text(snapshot)
    assert 'repro_weird{path="a\\\\b\\"c"} 1.5' in text


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------

def test_counter_rendering_gets_total_suffix_and_prefix():
    registry = MetricsRegistry()
    registry.counter("stream.units").inc(7)
    text = prometheus_text(registry.snapshot())
    assert "# TYPE repro_stream_units_total counter" in text
    assert "repro_stream_units_total 7" in text


def test_counter_monotonic_across_snapshots():
    registry = MetricsRegistry()
    counter = registry.counter("stream.units")
    values = []
    for increment in (1, 4, 2):
        counter.inc(increment)
        text = prometheus_text(registry.snapshot())
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_stream_units_total ")
        )
        values.append(float(line.split()[-1]))
    assert values == sorted(values)
    assert values == [1, 5, 7]


def test_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    text = prometheus_text(registry.snapshot())
    assert "# TYPE repro_latency histogram" in text
    assert 'repro_latency_bucket{le="0.1"} 1' in text
    assert 'repro_latency_bucket{le="1"} 3' in text
    assert 'repro_latency_bucket{le="+Inf"} 4' in text
    assert "repro_latency_count 4" in text
    assert "repro_latency_sum 6.05" in text


def test_labeled_series_share_one_type_line():
    registry = MetricsRegistry()
    registry.gauge("stream.queue_depth{shard=0}").set(2)
    registry.gauge("stream.queue_depth{shard=1}").set(5)
    text = prometheus_text(registry.snapshot())
    assert text.count("# TYPE repro_stream_queue_depth gauge") == 1
    assert 'repro_stream_queue_depth{shard="0"} 2' in text
    assert 'repro_stream_queue_depth{shard="1"} 5' in text


def test_name_sanitization():
    text = prometheus_text(
        {"gauges": {"weird-name.with spaces": 1}, "counters": {}, "histograms": {}}
    )
    assert "repro_weird_name_with_spaces 1" in text


def test_families_sorted_and_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.gauge("zzz").set(1)
    registry.counter("aaa").inc()
    text = prometheus_text(registry.snapshot())
    assert text.index("repro_aaa_total") < text.index("repro_zzz")

    conflicted = {
        "counters": {"x": 1},
        "gauges": {"x_total": 2},  # collides with the counter family
        "histograms": {},
    }
    with pytest.raises(ValueError, match="exposed as both"):
        prometheus_text(conflicted)


# ----------------------------------------------------------------------
# HTTP endpoints (ephemeral port)
# ----------------------------------------------------------------------

def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.headers, response.read().decode()


def test_http_endpoints_serve_metrics_status_health():
    registry = MetricsRegistry()
    registry.counter("stream.units").inc(3)
    status = RunStatus()
    status.begin_run(mode="test", scenario="small")
    status.set_phase("stream:longterm")
    status.set_shards(2)
    status.shard_unit(0, 5)
    recorder = FlightRecorder(registry=registry, status=status, interval_seconds=60)
    recorder.sample()
    server = MetricsServer(
        registry=registry, status=status, recorder=recorder, port=0
    ).start()
    try:
        code, headers, body = _get(server.url + "/metrics")
        assert code == 200
        assert headers["Content-Type"] == CONTENT_TYPE_METRICS
        assert "repro_stream_units_total 3" in body
        # derived gauges refreshed at scrape time
        assert 'repro_live_shard_heartbeat_age_seconds{shard="0"}' in body

        code, headers, body = _get(server.url + "/status")
        assert code == 200
        payload = json.loads(body)
        assert payload["schema"] == LIVE_STATUS_SCHEMA
        assert payload["run"] == {"mode": "test", "scenario": "small"}
        assert payload["phase"] == "stream:longterm"
        assert [s["shard"] for s in payload["stream"]["shards"]] == [0, 1]
        assert payload["stream"]["shards"][0]["units"] == 5
        assert payload["sample"]["counters"]["stream.units"] == 3

        code, _, body = _get(server.url + "/health")
        assert code == 200 and body == "ok\n"

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/nope")
        assert err.value.code == 404
    finally:
        server.close()


def test_server_close_is_idempotent_and_releases_port():
    server = MetricsServer(registry=MetricsRegistry(), port=0).start()
    url = server.url
    server.close()
    server.close()  # second close is a no-op
    with pytest.raises(OSError):
        urllib.request.urlopen(url + "/health", timeout=1)


# ----------------------------------------------------------------------
# Route table
# ----------------------------------------------------------------------

def test_live_status_schema_covers_campaigns():
    assert LIVE_STATUS_SCHEMA == 3  # v3 dropped the run-level checkpoint
    status = RunStatus()
    status.set_campaign("mesh", state="running", cycle=1)
    server = MetricsServer(
        registry=MetricsRegistry(), status=status, port=0
    ).start()
    try:
        _, _, body = _get(server.url + "/status")
        payload = json.loads(body)
        (row,) = payload["campaigns"]
        assert (row["name"], row["state"], row["cycle"]) == ("mesh", "running", 1)
    finally:
        server.close()


def _post(url):
    request = urllib.request.Request(url, method="POST")
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, response.read().decode()


def test_add_route_mounts_get_and_post_handlers():
    server = MetricsServer(registry=MetricsRegistry(), port=0)
    hits = []
    server.add_route("GET", "/custom", lambda: (200, "text/plain", "got\n"))
    server.add_route(
        "post", "/custom", lambda: (hits.append(1), (202, "text/plain", "did\n"))[1]
    )
    server.start()
    try:
        code, _, body = _get(server.url + "/custom")
        assert (code, body) == (200, "got\n")
        code, body = _post(server.url + "/custom")
        assert (code, body, hits) == (202, "did\n", [1])

        # POST to a GET-only built-in is unknown.
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(server.url + "/metrics")
        assert err.value.code == 404
    finally:
        server.close()


def test_route_exception_becomes_500():
    def exploding():
        raise RuntimeError("handler boom")

    server = MetricsServer(registry=MetricsRegistry(), port=0)
    server.add_route("GET", "/boom", exploding)
    server.start()
    try:
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(server.url + "/boom")
        assert err.value.code == 500
    finally:
        server.close()


def test_add_route_replaces_existing_handler():
    server = MetricsServer(registry=MetricsRegistry(), port=0)
    server.add_route("GET", "/v", lambda: (200, "text/plain", "one\n"))
    server.add_route("GET", "/v", lambda: (200, "text/plain", "two\n"))
    server.start()
    try:
        _, _, body = _get(server.url + "/v")
        assert body == "two\n"
    finally:
        server.close()
