"""``python -m repro.obs.top`` -- a terminal top for streaming runs.

Renders a refreshing one-screen dashboard of a live ``reproduce`` run:
active phase, process RSS/CPU, total units/records throughput with
sparkline history, and a per-shard table (units, units/sec, queue
depth, heartbeat age).  Two data sources, same sample schema
(:data:`repro.obs.live.LIVE_SCHEMA`):

- ``--follow run.jsonl`` tails the flight recorder's ``--live-out``
  file, picking up new samples as the run appends them;
- ``--url http://127.0.0.1:9309`` polls a ``--serve-metrics`` run's
  ``/status`` endpoint, whose ``sample`` field is the same document.

``--once`` renders a single frame and exits (scripts, docs, tests);
``--frames N`` stops after N refreshes.  Plain ``print`` is fine here:
this module *is* a terminal UI, stdout is its product.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "sparkline",
    "shard_rows",
    "campaign_rows",
    "render_frame",
    "iter_follow_samples",
    "poll_status_sample",
    "main",
]

_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"

_CLEAR = "\x1b[2J\x1b[H"

_HISTORY = 64
"""Samples of history kept for rates and sparklines."""


def sparkline(values: Sequence[float], width: int = 24) -> str:
    """The last ``width`` values as a unicode block sparkline."""
    tail = [max(0.0, float(value)) for value in values][-width:]
    if not tail:
        return ""
    top = max(tail)
    if top <= 0:
        return _SPARK_GLYPHS[0] * len(tail)
    scale = len(_SPARK_GLYPHS) - 1
    return "".join(
        _SPARK_GLYPHS[min(scale, int(round(value / top * scale)))]
        for value in tail
    )


def _rate(
    samples: Sequence[Dict[str, object]], pick, newer: int = -1, older: int = -2
) -> Optional[float]:
    """Per-second rate of ``pick(sample)`` between two samples."""
    if len(samples) < 2:
        return None
    try:
        dt = float(samples[newer]["mono"]) - float(samples[older]["mono"])
        dv = float(pick(samples[newer]) or 0) - float(pick(samples[older]) or 0)
    except (KeyError, TypeError, ValueError):
        return None
    if dt <= 0:
        return None
    return dv / dt


def _counter(sample: Dict[str, object], name: str) -> float:
    return float(sample.get("counters", {}).get(name, 0) or 0)


def _gauge(sample: Dict[str, object], name: str) -> Optional[float]:
    value = sample.get("gauges", {}).get(name)
    return None if value is None else float(value)


def _fmt(value: Optional[float], suffix: str = "", precision: int = 1) -> str:
    if value is None:
        return "-"
    return f"{value:.{precision}f}{suffix}"


def shard_rows(
    samples: Sequence[Dict[str, object]],
) -> List[
    Tuple[int, int, Optional[float], Optional[float], Optional[float], str]
]:
    """Per-shard ``(shard, units, units_per_s, queue_depth,
    heartbeat_age_s, state)``.

    Units and supervision state come from the status board's shard
    table; rates from the per-shard receive counters across the sample
    history.  ``state`` folds the restart count in
    (``restarting*2`` after the second restart) so the dashboard shows
    flapping shards at a glance.
    """
    if not samples:
        return []
    latest = samples[-1]
    table = latest.get("status", {}).get("stream", {}).get("shards", [])
    rows = []
    for entry in table:
        shard = int(entry["shard"])
        rate = _rate(
            samples, lambda s, n=shard: _counter(s, f"stream.shard_units{{shard={n}}}")
        )
        state = str(entry.get("state", "ok"))
        restarts = int(entry.get("restarts", 0) or 0)
        if restarts and state != "quarantined":
            state = f"{state}*{restarts}"
        rows.append(
            (
                shard,
                int(entry.get("units", 0)),
                rate,
                _gauge(latest, f"stream.queue_depth{{shard={shard}}}"),
                entry.get("heartbeat_age_s"),
                state,
            )
        )
    return rows


def campaign_rows(
    samples: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """The latest sample's campaign board rows (sorted by name already).

    Each row is the service's :meth:`RunStatus.set_campaign` payload:
    name, state, cycle, units done/total for the running cycle,
    next-fire countdown and checkpoint fingerprint.
    """
    if not samples:
        return []
    rows = samples[-1].get("status", {}).get("campaigns", [])
    return [row for row in rows if isinstance(row, dict)]


def render_frame(samples: Sequence[Dict[str, object]], width: int = 78) -> str:
    """One dashboard frame from the sample history (newest last)."""
    if not samples:
        return "repro.obs.top -- waiting for samples...\n"
    latest = samples[-1]
    status = latest.get("status", {})
    run = status.get("run", {})
    process = latest.get("process", {})
    lines: List[str] = []

    title = "repro live telemetry"
    scenario = run.get("scenario")
    if scenario is not None:
        title += f" -- scenario {scenario} (seed {run.get('seed')})"
    lines.append(title[:width])
    lines.append("=" * min(width, len(lines[0])))

    phase = status.get("phase") or "-"
    lines.append(
        f"phase    {phase}  (for {_fmt(status.get('phase_age_s'), 's')}; "
        f"run {_fmt(status.get('elapsed_s'), 's')})"
    )
    lines.append(
        f"process  rss {_fmt(process.get('rss_mb'), ' MB')}   "
        f"cpu {_fmt(process.get('cpu_user_s'), 's user')} "
        f"+ {_fmt(process.get('cpu_system_s'), 's sys')}"
    )

    unit_rates = [
        rate
        for rate in (
            _rate(samples, lambda s: _counter(s, "stream.units"), i, i - 1)
            for i in range(-len(samples) + 1, 0)
        )
        if rate is not None
    ]
    lines.append(
        f"stream   units {int(_counter(latest, 'stream.units'))}  "
        f"units/s {_fmt(unit_rates[-1] if unit_rates else None)}  "
        f"{sparkline(unit_rates)}"
    )

    campaigns = campaign_rows(samples)
    if campaigns:
        lines.append("")
        lines.append(
            f"{'campaign':<18} {'state':<9} {'cycle':>5} {'units':>11} "
            f"{'next fire':>9} {'ckpt':<12}"
        )
        for row in campaigns:
            units_done = row.get("units_done")
            units_total = row.get("units_total")
            units = (
                f"{units_done}/{units_total}"
                if units_done is not None and units_total is not None
                else "-"
            )
            next_fire = row.get("next_fire_s")
            fingerprint = str(row.get("fingerprint", "-"))[:12]
            coverage = row.get("coverage")
            extra = ""
            if coverage is not None:
                extra = (
                    f"  cov {float(coverage) * 100:.1f}%"
                    f" (-{row.get('units_missing', '?')})"
                )
            if row.get("reason"):
                extra += f"  {row['reason']}"
            lines.append(
                f"{str(row.get('name', '-'))[:18]:<18} "
                f"{str(row.get('state', '-'))[:9]:<9} "
                f"{row.get('cycle', '-'):>5} {units:>11} "
                f"{_fmt(next_fire, 's'):>9} {fingerprint:<12}"
                f"{extra}"
            )

    rows = shard_rows(samples)
    if rows:
        lines.append("")
        lines.append(f"{'shard':>5} {'units':>8} {'units/s':>9} "
                     f"{'queue':>6} {'hb age':>8} {'state':<14}")
        for shard, units, rate, depth, age, state in rows:
            lines.append(
                f"{shard:>5} {units:>8} {_fmt(rate):>9} "
                f"{_fmt(depth, precision=0):>6} {_fmt(age, 's'):>8} "
                f"{state:<14}"
            )

    final = latest.get("final")
    if final:
        lines.append("")
        lines.append(f"run ended ({latest.get('reason', 'stop')})")
    return "\n".join(lines) + "\n"


def iter_follow_samples(path: Path, poll_seconds: float = 0.2) -> Iterator[Optional[dict]]:
    """Tail a live JSONL file forever, yielding parsed samples.

    Yields ``None`` whenever a poll finds no new complete line, so the
    caller owns the refresh cadence; a partially-written trailing line
    is left in the buffer until its newline arrives.
    """
    position = 0
    buffer = ""
    while True:
        if path.exists():
            with open(path) as handle:
                handle.seek(position)
                chunk = handle.read()
                position = handle.tell()
            buffer += chunk
            emitted = False
            while "\n" in buffer:
                line, _, buffer = buffer.partition("\n")
                if not line.strip():
                    continue
                try:
                    yield json.loads(line)
                    emitted = True
                except ValueError:
                    continue
            if emitted:
                continue
        yield None
        time.sleep(poll_seconds)


def poll_status_sample(url: str, timeout: float = 2.0) -> Optional[dict]:
    """The ``sample`` document from a ``/status`` endpoint, or ``None``."""
    target = url.rstrip("/") + "/status"
    try:
        with urllib.request.urlopen(target, timeout=timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError):
        return None
    sample = payload.get("sample")
    if isinstance(sample, dict):
        return sample
    return None


def build_parser() -> argparse.ArgumentParser:
    """The dashboard's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.top",
        description="terminal dashboard for a live reproduce run",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--follow", metavar="FILE",
        help="tail a flight-recorder JSONL file (reproduce --live-out)",
    )
    source.add_argument(
        "--url", metavar="URL",
        help="poll a --serve-metrics endpoint (e.g. http://127.0.0.1:9309)",
    )
    parser.add_argument(
        "--interval", type=float, default=1.0,
        help="refresh interval in seconds (default: 1.0)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit",
    )
    parser.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="exit after N rendered frames",
    )
    parser.add_argument(
        "--no-clear", action="store_true",
        help="print frames sequentially instead of clearing the screen",
    )
    return parser


def _run_follow(args: argparse.Namespace, frames_left: Optional[int]) -> int:
    path = Path(args.follow)
    samples: List[dict] = []
    last_render = 0.0
    for sample in iter_follow_samples(path, poll_seconds=min(0.2, args.interval)):
        if sample is not None:
            samples.append(sample)
            samples[:] = samples[-_HISTORY:]
            if args.once:
                continue  # drain everything already on disk first
        elif args.once:
            _emit(render_frame(samples), args)
            return 0
        now = time.monotonic()
        if samples and now - last_render >= args.interval:
            last_render = now
            _emit(render_frame(samples), args)
            if frames_left is not None:
                frames_left -= 1
                if frames_left <= 0:
                    return 0
        if samples and samples[-1].get("final") and sample is None:
            _emit(render_frame(samples), args)
            return 0
    return 0


def _run_poll(args: argparse.Namespace, frames_left: Optional[int]) -> int:
    samples: List[dict] = []
    misses = 0
    while True:
        sample = poll_status_sample(args.url)
        if sample is not None:
            misses = 0
            if not samples or sample.get("seq") != samples[-1].get("seq"):
                samples.append(sample)
                samples[:] = samples[-_HISTORY:]
        else:
            misses += 1
            if samples and misses >= 3:
                # The endpoint went away: the run finished.
                _emit(render_frame(samples), args)
                return 0
            if not samples and misses >= 10:
                print(f"repro.obs.top: no response from {args.url}",
                      file=sys.stderr)
                return 1
        if samples:
            _emit(render_frame(samples), args)
            if args.once:
                return 0
            if frames_left is not None:
                frames_left -= 1
                if frames_left <= 0:
                    return 0
        time.sleep(args.interval)


def _emit(frame: str, args: argparse.Namespace) -> None:
    if not args.no_clear and not args.once:
        sys.stdout.write(_CLEAR)
    sys.stdout.write(frame)
    sys.stdout.flush()


def main(argv: Optional[List[str]] = None) -> int:
    """Dashboard entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.interval <= 0:
        print("error: --interval must be positive", file=sys.stderr)
        return 2
    frames_left = args.frames
    try:
        if args.follow:
            return _run_follow(args, frames_left)
        return _run_poll(args, frames_left)
    except KeyboardInterrupt:
        print()
        return 0


if __name__ == "__main__":
    sys.exit(main())
