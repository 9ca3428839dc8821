"""Perf guard: fail CI when the pipeline regresses past its baseline.

Compares a freshly produced ``BENCH_pipeline.json``-style summary (the
*candidate*) against the committed one (the *baseline*).  The guarded
number is the serial ``longterm-build`` stage -- the hot path the
columnar record plane vectorizes -- which must not exceed
``--factor`` (default 2.0) times the baseline.  A generous factor
absorbs runner-to-runner noise while still catching an accidental
return to per-round Python loops, which is an order-of-magnitude cliff,
not a percentage.

Two service guards (schema 4 summaries; skipped when either side lacks
the ``service`` section) hold the campaign service's scale proof: the
mesh ingest rate must stay above ``1 / --service-rate-factor`` (default
2.0) times the baseline's when both ran the same mesh size, and service
peak RSS must stay under ``--service-rss-bound`` (default 1.0) times
serial peak RSS -- the O(1)-state property that lets the million-pair
mesh stream at bounded memory::

    PYTHONPATH=src python benchmarks/perf_guard.py \
        --baseline BENCH_pipeline.json --candidate /tmp/bench_new.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

MIN_SCHEMA = 2


def _load_summary(path: Path, label: str) -> dict:
    """Parse one summary file, validating the parts the guard reads."""
    try:
        summary = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"perf-guard: cannot read {label} {path}: {exc}")
    if not isinstance(summary, dict) or summary.get("benchmark") != "pipeline":
        raise SystemExit(f"perf-guard: {label} {path} is not a pipeline summary")
    if summary.get("schema", 0) < MIN_SCHEMA:
        raise SystemExit(
            f"perf-guard: {label} {path} schema {summary.get('schema')!r} "
            f"predates {MIN_SCHEMA}"
        )
    return summary


def _serial_longterm_build(summary: dict, label: str) -> float:
    stages = summary.get("phases", {}).get("serial", {}).get("stage_seconds", {})
    seconds = stages.get("longterm-build")
    if not isinstance(seconds, (int, float)) or seconds <= 0:
        raise SystemExit(
            f"perf-guard: {label} has no serial longterm-build timing"
        )
    return float(seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, type=Path,
                        help="committed BENCH_pipeline.json")
    parser.add_argument("--candidate", required=True, type=Path,
                        help="summary produced by this run")
    parser.add_argument("--factor", type=float, default=2.0,
                        help="failure threshold: candidate may take at most "
                             "FACTOR x baseline (default: 2.0)")
    parser.add_argument("--service-rate-factor", type=float, default=2.0,
                        help="failure threshold: service ingest rate may be "
                             "at worst baseline / FACTOR (default: 2.0)")
    parser.add_argument("--service-rss-bound", type=float, default=1.0,
                        help="failure threshold: service peak RSS may be at "
                             "most this fraction of serial peak RSS "
                             "(default: 1.0)")
    args = parser.parse_args(argv)

    baseline = _load_summary(args.baseline, "baseline")
    candidate = _load_summary(args.candidate, "candidate")
    if baseline.get("scenario") != candidate.get("scenario"):
        raise SystemExit(
            f"perf-guard: scenario mismatch "
            f"(baseline {baseline.get('scenario')!r}, "
            f"candidate {candidate.get('scenario')!r})"
        )

    base_build = _serial_longterm_build(baseline, "baseline")
    cand_build = _serial_longterm_build(candidate, "candidate")
    limit = args.factor * base_build
    ratio = cand_build / base_build
    print(f"serial longterm-build: baseline {base_build:.3f}s, "
          f"candidate {cand_build:.3f}s ({ratio:.2f}x, limit {args.factor}x)")

    failures = []
    if cand_build > limit:
        failures.append(
            f"serial longterm-build {cand_build:.3f}s exceeds "
            f"{args.factor}x baseline ({limit:.3f}s)"
        )

    base_service = baseline.get("service")
    cand_service = candidate.get("service")
    if (
        isinstance(base_service, dict)
        and isinstance(cand_service, dict)
        and base_service.get("mesh_pairs") == cand_service.get("mesh_pairs")
    ):
        base_rate = base_service.get("ingest_rate_per_s")
        cand_rate = cand_service.get("ingest_rate_per_s")
        if base_rate and cand_rate:
            floor = base_rate / args.service_rate_factor
            print(f"service ingest rate: baseline {base_rate:,.0f}/s, "
                  f"candidate {cand_rate:,.0f}/s "
                  f"(floor {floor:,.0f}/s at 1/{args.service_rate_factor}x)")
            if cand_rate < floor:
                failures.append(
                    f"service ingest rate {cand_rate:,.0f}/s below "
                    f"1/{args.service_rate_factor}x baseline ({floor:,.0f}/s)"
                )

    service_rss = candidate.get("memory", {}).get("service_vs_serial_rss")
    if isinstance(service_rss, (int, float)) and service_rss > 0:
        print(f"service peak RSS vs serial peak RSS: {service_rss:.3f} "
              f"(bound {args.service_rss_bound})")
        if service_rss > args.service_rss_bound:
            failures.append(
                f"service RSS ratio {service_rss:.3f} exceeds bound "
                f"{args.service_rss_bound}"
            )

    if failures:
        for failure in failures:
            print(f"perf-guard: FAIL -- {failure}")
        return 1
    print("perf-guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
