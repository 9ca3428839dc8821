"""The live telemetry plane: run status board + flight recorder.

Long streaming runs used to be black boxes: the metrics registry fills
up, but nothing reads it until the process exits and writes a manifest.
This module is the in-flight half of ``repro.obs``:

- :class:`RunStatus` -- a thread-safe board of *current* run state
  (phase, per-shard progress heartbeats, campaign rows) that the
  engines update as they go and the HTTP ``/status`` endpoint and the
  flight recorder read.  All timing is monotonic-clock based so ages
  survive wall-clock jumps.
- :class:`FlightRecorder` -- a daemon sampling thread that periodically
  projects the :class:`~repro.obs.metrics.MetricsRegistry`, process
  stats (RSS, CPU) and the status board into one schema-versioned JSON
  sample.  Samples land in a bounded ring buffer and, when an output
  path is attached, stream to a JSONL file one line per sample -- the
  file ``python -m repro.obs.top --follow`` tails.  :meth:`~FlightRecorder.stop`
  and :meth:`~FlightRecorder.dump` append a final sample, so a
  SIGTERM'd or crashed run still leaves a fresh post-mortem trail.
- :func:`refresh_derived_gauges` -- re-derives age gauges (phase age,
  per-shard heartbeat age, campaign update age) from the status board into
  the registry, so scrapes and samples expose them as plain numbers.

Everything here is stdlib-only and imports nothing outside ``repro.obs``.
"""

from __future__ import annotations

import collections
import json
import os
import resource
import threading
import time
from pathlib import Path
from typing import Deque, Dict, List, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

__all__ = [
    "LIVE_SCHEMA",
    "RunStatus",
    "FlightRecorder",
    "fork_guard",
    "get_status",
    "process_stats",
    "refresh_derived_gauges",
]

LIVE_SCHEMA = 1
"""Bump when the JSONL sample layout changes shape."""

_LOG = get_logger("repro.obs.live")

_PAGE_SIZE = resource.getpagesize()

# The rest of the pipeline forks worker processes (dataset builders,
# stream shards) while telemetry threads are live.  A child forked while
# the sampler or an HTTP handler holds the registry/status lock inherits
# that lock forever -- so every telemetry thread wraps its registry work
# in this guard, and fork itself takes the guard around the clone.
_fork_lock = threading.Lock()


def fork_guard() -> threading.Lock:
    """Lock that serializes telemetry threads against ``os.fork``.

    Any background thread about to read the metrics registry or the
    status board must hold this for the whole operation (``with
    fork_guard():``); :func:`os.register_at_fork` acquires it before
    every fork so children never inherit telemetry locks mid-flight.
    """
    return _fork_lock


def _fork_acquire() -> None:
    """Quiesce telemetry locks before a fork, in a fixed order.

    ``fork_guard`` first (parks the sampler and HTTP handler threads),
    then the default registry's instrument lock (an application thread
    -- e.g. a campaign executor -- may be mid-increment), then the
    status board's.  One ordered hook instead of several independent
    ones: ``os.register_at_fork`` runs ``before`` callbacks in reverse
    registration order, so split hooks could invert this order against
    the sampler (which nests fork-guard around registry reads) and
    deadlock.
    """
    _fork_lock.acquire()
    obs_metrics.registry_lock().acquire()
    _STATUS._lock.acquire()


def _fork_release() -> None:
    for lock in (_STATUS._lock, obs_metrics.registry_lock(), _fork_lock):
        try:
            lock.release()
        except RuntimeError:  # pragma: no cover - already free
            pass


os.register_at_fork(
    before=_fork_acquire,
    after_in_parent=_fork_release,
    after_in_child=_fork_release,
)


def process_stats() -> Dict[str, float]:
    """Current process stats: RSS (MB), CPU seconds, thread count.

    RSS is the *current* resident set from ``/proc/self/statm`` where
    available; platforms without procfs fall back to the peak RSS that
    ``getrusage`` reports (documented by the ``rss_peak`` flag).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    stats: Dict[str, float] = {
        "cpu_user_s": round(usage.ru_utime, 3),
        "cpu_system_s": round(usage.ru_stime, 3),
        "threads": float(threading.active_count()),
    }
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
        stats["rss_mb"] = round(resident_pages * _PAGE_SIZE / 2**20, 2)
        stats["rss_peak"] = 0.0
    except (OSError, IndexError, ValueError):
        # ru_maxrss is KiB on Linux, bytes on macOS; both are peaks.
        scale = 2**10 if os.uname().sysname == "Darwin" else 1
        stats["rss_mb"] = round(usage.ru_maxrss * scale / 2**10, 2)
        stats["rss_peak"] = 1.0
    return stats


class RunStatus:
    """Thread-safe board of what the run is doing *right now*.

    The engines write (cheap, lock-guarded assignments); the exposition
    endpoint, the flight recorder and :func:`refresh_derived_gauges`
    read.  ``as_dict()`` is JSON-ready and converts every stored
    monotonic timestamp into an age relative to "now".
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._run: Dict[str, object] = {}
        self._phase: Optional[str] = None
        self._phase_mono: Optional[float] = None
        self._shards: Dict[int, Dict[str, float]] = {}
        self._campaigns: Dict[str, Dict[str, object]] = {}
        self._started_mono: Optional[float] = None

    def reset(self) -> None:
        """Back to a blank board (tests and per-run isolation)."""
        with self._lock:
            self._run = {}
            self._phase = None
            self._phase_mono = None
            self._shards = {}
            self._campaigns = {}
            self._started_mono = None

    def begin_run(self, **fields: object) -> None:
        """Record the run's identity (scenario, seed, mode, ...)."""
        with self._lock:
            self._run = dict(fields)
            self._started_mono = time.monotonic()

    def set_phase(self, name: str) -> None:
        """Mark ``name`` as the active pipeline phase/stage."""
        with self._lock:
            self._phase = name
            self._phase_mono = time.monotonic()

    def set_shards(self, count: int) -> None:
        """(Re)initialize the shard table for a fan-out of ``count``."""
        with self._lock:
            self._shards = {
                shard: {
                    "units": 0.0,
                    "last_unit_mono": time.monotonic(),
                    "state": "ok",
                    "restarts": 0.0,
                }
                for shard in range(int(count))
            }

    def shard_unit(self, shard: int, units: int = 1) -> None:
        """Credit ``units`` received from ``shard`` (its heartbeat)."""
        with self._lock:
            entry = self._shards.setdefault(
                int(shard),
                {"units": 0.0, "last_unit_mono": 0.0,
                 "state": "ok", "restarts": 0.0},
            )
            entry["units"] += units
            entry["last_unit_mono"] = time.monotonic()

    def shard_state(
        self, shard: int, state: str, restarts: Optional[int] = None
    ) -> None:
        """Record a shard's supervision state (ok/restarting/quarantined)."""
        with self._lock:
            entry = self._shards.setdefault(
                int(shard),
                {"units": 0.0, "last_unit_mono": 0.0,
                 "state": "ok", "restarts": 0.0},
            )
            entry["state"] = str(state)
            if restarts is not None:
                entry["restarts"] = float(restarts)

    def set_campaign(self, name: str, **fields: object) -> None:
        """Merge ``fields`` into campaign ``name``'s board row.

        The campaign supervisor writes one row per named campaign
        (phase, cycle, units, next-fire countdown, checkpoint
        fingerprint); ``as_dict`` exposes the table to ``/status``,
        ``/campaigns`` and the dashboard with an ``updated_age_s``
        freshness stamp per row.
        """
        with self._lock:
            entry = self._campaigns.setdefault(str(name), {})
            entry.update(fields)
            entry["updated_mono"] = time.monotonic()

    def drop_campaign(self, name: str) -> None:
        """Remove campaign ``name``'s row (a campaign that finished)."""
        with self._lock:
            self._campaigns.pop(str(name), None)

    def shard_count(self) -> int:
        """Rows currently in the shard table."""
        with self._lock:
            return len(self._shards)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot; monotonic stamps become ``*_age_s`` fields."""
        now = time.monotonic()
        with self._lock:
            shards: List[Dict[str, object]] = [
                {
                    "shard": shard,
                    "units": int(entry["units"]),
                    "heartbeat_age_s": round(now - entry["last_unit_mono"], 3),
                    "state": entry.get("state", "ok"),
                    "restarts": int(entry.get("restarts", 0)),
                }
                for shard, entry in sorted(self._shards.items())
            ]
            campaigns: List[Dict[str, object]] = []
            for name in sorted(self._campaigns):
                row = {
                    key: value
                    for key, value in self._campaigns[name].items()
                    if key != "updated_mono"
                }
                row["name"] = name
                updated = self._campaigns[name].get("updated_mono")
                if updated is not None:
                    row["updated_age_s"] = round(now - float(updated), 3)
                campaigns.append(row)
            return {
                "run": dict(self._run),
                "phase": self._phase,
                "phase_age_s": (
                    round(now - self._phase_mono, 3)
                    if self._phase_mono is not None
                    else None
                ),
                "elapsed_s": (
                    round(now - self._started_mono, 3)
                    if self._started_mono is not None
                    else None
                ),
                "stream": {"shards": shards},
                "campaigns": campaigns,
            }


_STATUS = RunStatus()


def get_status() -> RunStatus:
    """The process-wide status board."""
    return _STATUS


def refresh_derived_gauges(
    registry: Optional[obs_metrics.MetricsRegistry] = None,
    status: Optional[RunStatus] = None,
) -> None:
    """Project the status board's ages into registry gauges.

    Run before every scrape/sample so ``/metrics`` and flight-recorder
    samples carry live ``live.phase_age_seconds``, per-shard
    ``live.shard_heartbeat_age_seconds{shard=N}`` and per-campaign
    ``live.campaign_update_age_seconds{campaign=NAME}`` values.
    """
    registry = registry if registry is not None else obs_metrics.get_registry()
    status = status if status is not None else get_status()
    board = status.as_dict()
    if board["phase_age_s"] is not None:
        registry.gauge("live.phase_age_seconds").set(board["phase_age_s"])
    for entry in board["stream"]["shards"]:
        registry.gauge(
            f'live.shard_heartbeat_age_seconds{{shard={entry["shard"]}}}'
        ).set(entry["heartbeat_age_s"])
    for row in board["campaigns"]:
        age = row.get("updated_age_s")
        if age is not None:
            registry.gauge(
                f'live.campaign_update_age_seconds{{campaign={row["name"]}}}'
            ).set(age)


class FlightRecorder:
    """A low-overhead sampling thread over registry + process + status.

    Samples are dicts shaped::

        {"schema": 1, "seq": 7, "unix": ..., "mono": ...,
         "process": {"rss_mb": ..., "cpu_user_s": ..., ...},
         "counters": {...}, "gauges": {...},
         "histograms": {name: {"count": ..., "sum": ...}},
         "status": <RunStatus.as_dict()>}

    The newest ``capacity`` samples stay in a ring buffer; with an
    ``out_path`` attached every sample also streams to disk as one JSONL
    line the moment it is taken, so a kill -9 loses at most one
    sampling interval.  ``stop()``/``dump()`` append a last sample
    tagged ``"final": true`` with the stop reason.
    """

    def __init__(
        self,
        registry: Optional[obs_metrics.MetricsRegistry] = None,
        status: Optional[RunStatus] = None,
        interval_seconds: float = 1.0,
        capacity: int = 720,
        out_path: Optional[Union[str, Path]] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.registry = registry if registry is not None else obs_metrics.get_registry()
        self.status = status if status is not None else get_status()
        self.interval_seconds = float(interval_seconds)
        self.out_path = Path(out_path) if out_path is not None else None
        self._ring: Deque[Dict[str, object]] = collections.deque(maxlen=capacity)
        self._seq = 0
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._handle = None
        self._stopped = False

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, final: bool = False, reason: Optional[str] = None) -> Dict[str, object]:
        """Take one sample now; ring-buffer it and stream it if attached."""
        with _fork_lock:
            return self._sample_locked(final=final, reason=reason)

    def _sample_locked(self, final: bool, reason: Optional[str]) -> Dict[str, object]:
        refresh_derived_gauges(self.registry, self.status)
        snapshot = self.registry.snapshot()
        with self._lock:
            record: Dict[str, object] = {
                "schema": LIVE_SCHEMA,
                "seq": self._seq,
                "unix": round(time.time(), 3),
                "mono": round(time.monotonic(), 3),
                "process": process_stats(),
                "counters": snapshot["counters"],
                "gauges": snapshot["gauges"],
                "histograms": {
                    name: {"count": stats["count"], "sum": round(stats["sum"], 6)}
                    for name, stats in snapshot["histograms"].items()
                },
                "status": self.status.as_dict(),
            }
            if final:
                record["final"] = True
                record["reason"] = reason or "stop"
            self._seq += 1
            self._ring.append(record)
            self._write(record)
        return record

    def _write(self, record: Dict[str, object]) -> None:
        if self.out_path is None:
            return
        if self._handle is None:
            if self._stopped:
                return  # never truncate a finished live file post-stop
            if self.out_path.parent != Path(""):
                self.out_path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.out_path, "w")
        self._handle.write(json.dumps(record, default=str) + "\n")
        self._handle.flush()

    def samples(self) -> List[Dict[str, object]]:
        """The ring buffer's contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def latest(self) -> Optional[Dict[str, object]]:
        """The newest sample, or ``None`` before the first one."""
        with self._lock:
            return self._ring[-1] if self._ring else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> "FlightRecorder":
        """Begin sampling on a daemon thread (one sample immediately)."""
        if self._thread is not None:
            raise RuntimeError("flight recorder already started")
        self.sample()
        self._thread = threading.Thread(
            target=self._loop, name="repro-flight-recorder", daemon=True
        )
        self._thread.start()
        _LOG.info(
            "live.recorder.started",
            interval_s=self.interval_seconds,
            out=str(self.out_path) if self.out_path else None,
        )
        return self

    def _loop(self) -> None:
        while not self._stop_event.wait(self.interval_seconds):
            try:
                self.sample()
            except Exception:  # sampling must never kill the run
                _LOG.warning("live.recorder.sample_failed")

    def stop(self, reason: str = "stop") -> Optional[Dict[str, object]]:
        """Stop the thread and append a final sample; idempotent."""
        if self._stopped:
            return self.latest()
        self._stopped = True
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=2 * self.interval_seconds + 1.0)
            self._thread = None
        final = self.sample(final=True, reason=reason)
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
        _LOG.info("live.recorder.stopped", reason=reason, samples=self._seq)
        return final

    def dump(self, path: Union[str, Path], reason: str = "dump") -> Path:
        """Write the whole ring (plus one final sample) to ``path``.

        The post-mortem entry point: unlike the streaming ``out_path``
        (already on disk), this rewrites everything the ring still
        holds -- crash handlers call it when no live file was attached.
        """
        self.sample(final=True, reason=reason)
        target = Path(path)
        if target.parent != Path(""):
            target.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            body = "".join(
                json.dumps(record, default=str) + "\n" for record in self._ring
            )
        target.write_text(body)
        _LOG.info("live.recorder.dumped", path=str(target), reason=reason)
        return target
