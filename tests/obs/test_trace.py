"""Tracing spans: parentage, summaries, coverage, Chrome export."""

import time

import pytest

from repro.obs import trace
from repro.obs.trace import Tracer, get_tracer, use_tracer


def test_nested_spans_record_parentage():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner", items=3) as inner:
            pass
    assert outer.parent_id is None
    assert inner.parent_id == outer.span_id
    assert inner.attrs == {"items": 3}
    assert inner.duration_seconds <= outer.duration_seconds
    assert [item.name for item in tracer.spans] == ["outer", "inner"]
    assert tracer.roots() == [outer]


def test_duration_zero_while_open():
    tracer = Tracer()
    with tracer.span("open") as span:
        assert span.duration_seconds == 0.0
        assert tracer.current() is span
    assert span.duration_seconds >= 0.0
    assert tracer.current() is None


def _closed_span(tracer, name, seconds, **attrs):
    """A span under the current one, closed with a duration of ``seconds``."""
    with tracer.span(name, **attrs) as closed:
        pass
    closed.start = closed.end - seconds
    return closed


def test_summary_aggregates_by_name_in_first_seen_order():
    tracer = Tracer()
    _closed_span(tracer, "b", 1.0)
    _closed_span(tracer, "a", 2.0)
    _closed_span(tracer, "b", 3.0)
    summary = tracer.summary()
    assert list(summary) == ["b", "a"]
    assert summary["b"] == {"count": 2, "seconds": 4.0}
    assert summary["a"] == {"count": 1, "seconds": 2.0}


def test_coverage_of_instrumented_run():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("stage1"):
            time.sleep(0.02)
        with tracer.span("stage2"):
            time.sleep(0.02)
    coverage = tracer.coverage()
    assert coverage is not None
    assert coverage > 0.9  # almost no un-attributed root time


def test_coverage_none_without_closed_roots():
    tracer = Tracer()
    assert tracer.coverage() is None
    assert tracer.total_seconds() == 0.0


def test_chrome_trace_export_shape():
    tracer = Tracer()
    with tracer.span("root", scenario="small"):
        with tracer.span("child"):
            pass
    doc = tracer.to_chrome_trace()
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    assert len(events) == 2
    by_name = {event["name"]: event for event in events}
    root, child = by_name["root"], by_name["child"]
    for event in events:
        assert event["ph"] == "X"
        assert event["cat"] == "repro"
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
        assert event["pid"] == root["pid"]
        assert event["tid"] == 0
    assert root["args"]["scenario"] == "small"
    assert child["args"]["parent_id"] == root["args"]["span_id"]
    # The child interval is contained in the root's -- how viewers nest.
    assert child["ts"] >= root["ts"]
    assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-3


def test_use_tracer_swaps_and_restores():
    original = get_tracer()
    scoped = Tracer()
    with use_tracer(scoped):
        assert get_tracer() is scoped
        with trace.span("inside"):
            pass
    assert get_tracer() is original
    assert [item.name for item in scoped.spans] == ["inside"]
    assert all(item.name != "inside" for item in original.spans)


def test_stage_seconds_sum_root_children_in_first_seen_order():
    tracer = Tracer()
    with tracer.span("root"):
        _closed_span(tracer, "b", 1.0)
        with tracer.span("a"):
            _closed_span(tracer, "nested", 5.0)
        _closed_span(tracer, "b", 3.0)
    stages = tracer.stage_seconds()
    # Repeats sum; deeper spans fold into their stage; no root row.
    assert list(stages) == ["b", "a"]
    assert stages["b"] == pytest.approx(4.0)


def test_stage_seconds_keep_a_stage_that_raised():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("root"):
            with tracer.span("boom"):
                raise RuntimeError("x")
    assert all(item.end is not None for item in tracer.spans)
    assert tracer.current() is None
    assert list(tracer.stage_seconds()) == ["boom"]
