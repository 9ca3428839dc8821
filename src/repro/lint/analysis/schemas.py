"""Schema-compat checking: the engine behind SCH010.

Four serialized formats must never change shape silently, because old
artifacts outlive the code that wrote them:

- the **live telemetry sample**, versioned by ``repro.obs.live.LIVE_SCHEMA``;
- the **campaign checkpoint** payload, versioned by
  ``repro.service.checkpoint.CAMPAIGN_CHECKPOINT_SCHEMA``;
- the service's ``/campaigns`` **control document**, versioned by
  ``repro.service.api.CAMPAIGNS_SCHEMA``;
- the committed bench baseline ``BENCH_pipeline.json`` (its own
  ``schema`` key).

The engine extracts the *current* shape of each from the project
summaries (the dict literal serialized with a ``"schema"`` key whose
version value is the tracked constant, plus any later ``d[k] = ...``
additions in the same function) and for the bench baseline from the
JSON file itself, then diffs against the committed snapshot
(``schema_snapshot.json`` next to this package):

- fields changed, version unchanged  -> "bump the version constant";
- version or fields differ from the snapshot otherwise -> "refresh the
  snapshot" (``--update-schema-snapshot``), so the diff is reviewed in
  the same commit as the change.

Keys absent from the current run (module not linted) are skipped, so
linting a subtree never produces phantom schema findings.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.analysis.project import Project

__all__ = [
    "SNAPSHOT_SCHEMA",
    "TRACKED_SCHEMAS",
    "analyze_schemas",
    "current_schemas",
    "default_snapshot_path",
    "load_snapshot",
    "write_snapshot",
]

SNAPSHOT_SCHEMA = 1

# key -> (module holding the version constant, constant name)
TRACKED_SCHEMAS: Dict[str, Tuple[str, str]] = {
    "live-sample": ("repro.obs.live", "LIVE_SCHEMA"),
    "campaign-checkpoint": (
        "repro.service.checkpoint", "CAMPAIGN_CHECKPOINT_SCHEMA",
    ),
    "campaigns-status": ("repro.service.api", "CAMPAIGNS_SCHEMA"),
}

BENCH_KEY = "bench-summary"
BENCH_BASELINE = "BENCH_pipeline.json"


def default_snapshot_path() -> Path:
    return Path(__file__).resolve().parent.parent / "schema_snapshot.json"


def load_snapshot(path: Path) -> Optional[Dict[str, Dict[str, object]]]:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or payload.get("schema") != SNAPSHOT_SCHEMA:
        return None
    tracked = payload.get("tracked")
    return tracked if isinstance(tracked, dict) else None


def write_snapshot(path: Path, tracked: Dict[str, Dict[str, object]]) -> None:
    serializable = {
        key: {"version": entry["version"], "fields": sorted(entry["fields"])}
        for key, entry in sorted(tracked.items())
        if not key.startswith("_")
    }
    payload = {"schema": SNAPSHOT_SCHEMA, "tracked": serializable}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _find_bench_baseline(project: Project) -> Optional[Path]:
    """Walk up from any linted file to the repo root holding the baseline."""
    for summary in project.summaries.values():
        start = Path(str(summary["path"])).resolve().parent
        for candidate in (start, *start.parents):
            baseline = candidate / BENCH_BASELINE
            if baseline.is_file():
                return baseline
    return None


def current_schemas(
    project: Project, bench_path: Optional[Path] = None
) -> Dict[str, Dict[str, object]]:
    """The tracked schemas' current (version, fields, location) by key."""
    current: Dict[str, Dict[str, object]] = {}
    for key, (module, constant) in TRACKED_SCHEMAS.items():
        summary = project.summaries.get(module)
        if summary is None:
            continue
        constants = summary.get("int_constants", {})
        if constant not in constants:
            continue
        version = constants[constant]["value"]
        fields: set = set()
        line = int(constants[constant]["line"])
        for info in summary.get("functions", {}).values():
            for schema_dict in info.get("schema_dicts", ()):
                if schema_dict.get("version_name") == constant:
                    fields.update(schema_dict["keys"])
                    line = int(schema_dict["line"])
        if not fields:
            continue
        current[key] = {
            "version": version,
            "fields": sorted(fields),
            "_path": str(summary["path"]),
            "_line": line,
        }
    bench = bench_path if bench_path is not None else _find_bench_baseline(project)
    if bench is not None:
        try:
            payload = json.loads(bench.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            payload = None
        if isinstance(payload, dict) and "schema" in payload:
            current[BENCH_KEY] = {
                "version": payload["schema"],
                "fields": sorted(payload),
                "_path": str(bench),
                "_line": 1,
            }
    return current


def analyze_schemas(
    project: Project,
    snapshot_path: Optional[Path] = None,
    bench_path: Optional[Path] = None,
) -> Iterator[Dict[str, object]]:
    """Yield finding dicts: {path, line, col, message}, sorted."""
    path = snapshot_path if snapshot_path is not None else default_snapshot_path()
    snapshot = load_snapshot(path)
    current = current_schemas(project, bench_path=bench_path)
    if snapshot is None:
        if current:
            entry = sorted(current.values(), key=lambda e: str(e["_path"]))[0]
            yield {
                "path": str(entry["_path"]), "line": int(entry["_line"]), "col": 0,
                "message": (
                    f"no schema snapshot at {path}; commit one with "
                    "--update-schema-snapshot so serialized-format drift "
                    "is caught"
                ),
            }
        return
    found: List[Tuple[str, int, int, str]] = []
    for key in sorted(current):
        entry = current[key]
        recorded = snapshot.get(key)
        where = (str(entry["_path"]), int(entry["_line"]), 0)
        if recorded is None:
            found.append(
                (*where,
                 f"serialized schema '{key}' is not in the committed snapshot; "
                 "record it with --update-schema-snapshot")
            )
            continue
        fields_changed = sorted(entry["fields"]) != sorted(recorded.get("fields", ()))
        version_changed = entry["version"] != recorded.get("version")
        if fields_changed and not version_changed:
            added = sorted(set(entry["fields"]) - set(recorded.get("fields", ())))
            removed = sorted(set(recorded.get("fields", ())) - set(entry["fields"]))
            delta = "; ".join(
                part for part in (
                    f"added {', '.join(added)}" if added else "",
                    f"removed {', '.join(removed)}" if removed else "",
                ) if part
            )
            found.append(
                (*where,
                 f"serialized fields of '{key}' changed ({delta}) without a "
                 "version bump; old readers will mis-parse new artifacts -- "
                 "bump the version constant and refresh the snapshot")
            )
        elif fields_changed or version_changed:
            found.append(
                (*where,
                 f"schema snapshot for '{key}' is stale (version "
                 f"{recorded.get('version')} -> {entry['version']}); refresh "
                 "it with --update-schema-snapshot so the change is reviewed")
            )
    for path_, line, col, message in sorted(found):
        yield {"path": path_, "line": line, "col": col, "message": message}
