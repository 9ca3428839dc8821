"""Metrics registry: instrument semantics, snapshots, fork-delta merging, the at-fork hook."""

import os
import threading
import time

import pytest

from repro.obs import metrics
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("hits")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    assert registry.counter("hits") is counter  # get-or-create
    with pytest.raises(ValueError, match="cannot decrease"):
        counter.inc(-1)


def test_gauge_is_last_write_wins():
    registry = MetricsRegistry()
    gauge = registry.gauge("jobs")
    gauge.set(4)
    gauge.set(2)
    assert gauge.value == 2


def test_histogram_buckets_and_stats():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", buckets=(0.1, 1.0, 10.0))
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        hist.observe(value)
    stats = hist.stats()
    assert stats["count"] == 5
    assert stats["sum"] == pytest.approx(56.05)
    assert stats["min"] == 0.05
    assert stats["max"] == 50.0
    assert stats["bounds"] == [0.1, 1.0, 10.0]
    # One per bound bucket plus the +inf overflow slot.
    assert stats["counts"] == [1, 2, 1, 1]


def test_kind_clash_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError, match="is a Counter"):
        registry.gauge("x")


def test_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("c").inc(3)
    registry.gauge("g").set(7)
    registry.histogram("h").observe(0.2)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 3}
    assert snap["gauges"] == {"g": 7}
    assert snap["histograms"]["h"]["count"] == 1
    assert snap["histograms"]["h"]["bounds"] == list(DEFAULT_BUCKETS)


def test_delta_since_reports_only_changes():
    registry = MetricsRegistry()
    registry.counter("stable").inc(10)
    registry.counter("moving").inc(1)
    registry.histogram("h", buckets=(1.0,)).observe(0.5)
    baseline = registry.snapshot()

    registry.counter("moving").inc(2)
    registry.counter("fresh").inc(1)
    registry.histogram("h").observe(2.0)
    delta = registry.delta_since(baseline)

    assert delta["counters"] == {"moving": 2, "fresh": 1}
    assert "stable" not in delta["counters"]
    hist = delta["histograms"]["h"]
    assert hist["count"] == 1
    assert hist["sum"] == pytest.approx(2.0)
    assert hist["counts"] == [0, 1]  # only the new overflow observation


def test_merge_replays_delta_exactly():
    # Simulate the fork_map scheme: the "worker" inherits a copy of the
    # parent state, measures, and ships back a delta the parent merges.
    parent = MetricsRegistry()
    parent.counter("items").inc(5)
    parent.histogram("secs", buckets=(1.0, 10.0)).observe(0.5)

    worker = MetricsRegistry()
    worker.counter("items").inc(5)  # inherited pre-fork history
    worker.histogram("secs", buckets=(1.0, 10.0)).observe(0.5)
    baseline = worker.snapshot()
    worker.counter("items").inc(3)
    worker.histogram("secs").observe(20.0)
    worker.histogram("secs").observe(0.1)

    parent.merge(worker.delta_since(baseline))
    snap = parent.snapshot()
    assert snap["counters"]["items"] == 8
    hist = snap["histograms"]["secs"]
    assert hist["count"] == 3
    assert hist["sum"] == pytest.approx(20.6)
    assert hist["min"] == 0.1
    assert hist["max"] == 20.0
    assert hist["counts"] == [2, 0, 1]


def test_merge_rejects_changed_bounds():
    parent = MetricsRegistry()
    parent.histogram("h", buckets=(1.0, 2.0))
    delta = {
        "histograms": {
            "h": {"count": 1, "sum": 0.5, "min": 0.5, "max": 0.5,
                  "bounds": [5.0], "counts": [1, 0]}
        }
    }
    with pytest.raises(ValueError, match="bucket bounds changed"):
        parent.merge(delta)


def test_reset_empties_registry():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.reset()
    assert registry.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }


def _metrics_lock():
    return metrics.get_registry()._lock


def test_metrics_lock_outlives_reset():
    lock = _metrics_lock()
    metrics.get_registry().reset()
    assert _metrics_lock() is lock


def test_fork_hooks_take_the_metrics_lock_then_free_it():
    metrics._fork_acquire()
    try:
        assert _metrics_lock().locked()
    finally:
        metrics._fork_release()
    assert not _metrics_lock().locked()
    metrics._fork_release()  # releasing a free lock is harmless
    assert not _metrics_lock().locked()


def _fork_child_sees_free_lock() -> bool:
    pid = os.fork()
    if pid == 0:  # child: report and leave without running pytest's exit
        os._exit(1 if _metrics_lock().locked() else 0)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0


def test_forked_child_inherits_the_metrics_lock_free():
    assert _fork_child_sees_free_lock()


def test_fork_leaves_the_parent_free_to_record():
    # The after-fork hook frees the lock in the parent too, so the
    # parent keeps recording once the child is cloned.
    assert _fork_child_sees_free_lock()
    assert not _metrics_lock().locked()
    registry = metrics.get_registry()
    registry.counter("after-fork").inc()
    assert registry.snapshot()["counters"]["after-fork"] == 1


def test_fork_waits_for_a_thread_holding_the_metrics_lock():
    held = threading.Event()
    released = []

    def hold():
        with _metrics_lock():
            held.set()
            time.sleep(0.1)
            released.append(True)

    thread = threading.Thread(target=hold)
    thread.start()
    held.wait()
    try:
        # The before-fork hook blocks on the held lock, so the clone
        # happens only after the thread let go -- never with it held.
        assert _fork_child_sees_free_lock()
        assert released == [True]
    finally:
        thread.join()
