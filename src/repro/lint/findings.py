"""Finding and severity types plus the linter's two output renderers.

Mirrors the ``repro.obs`` conventions: the JSON document is versioned
with a top-level ``schema`` key (like run manifests) and the human
format is one compact line per event, ``path:line:col CODE message``.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

__all__ = [
    "REPORT_SCHEMA",
    "Severity",
    "Finding",
    "LintReport",
    "report_as_dict",
    "render_json",
    "render_human",
]

REPORT_SCHEMA = 3
"""Bump when the JSON report layout changes shape.

v2: ``summary.baselined`` and ``baseline_stale`` (``--baseline`` files).
v3: both removed with the baseline files.
"""


class Severity(enum.Enum):
    """How a finding affects the exit code.

    Errors always fail the run; warnings fail only under ``--strict``
    (which CI uses, so both block merges -- the split exists so local
    runs can distinguish hazards from hygiene).
    """

    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintReport:
    """Everything one lint pass produced, JSON-ready via :func:`report_as_dict`."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0

    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))

    def exit_code(self, strict: bool = False) -> int:
        if self.errors():
            return 1
        if strict and self.warnings():
            return 1
        return 0


def report_as_dict(report: LintReport) -> Dict[str, object]:
    """The report as a stable, schema-versioned JSON-ready dict."""
    return {
        "schema": REPORT_SCHEMA,
        "tool": "repro.lint",
        "files": report.files,
        "findings": [f.as_dict() for f in sorted(report.findings, key=Finding.sort_key)],
        "summary": {
            "findings": len(report.findings),
            "errors": len(report.errors()),
            "warnings": len(report.warnings()),
            "suppressed": report.suppressed,
            "by_rule": report.by_rule(),
        },
    }


def render_json(report: LintReport) -> str:
    return json.dumps(report_as_dict(report), indent=2) + "\n"


def render_human(report: LintReport) -> str:
    """One line per finding plus a summary tail line."""
    lines = [
        f"{f.path}:{f.line}:{f.col} {f.rule} [{f.severity.value}] {f.message}"
        for f in sorted(report.findings, key=Finding.sort_key)
    ]
    lines.append(
        f"{len(report.findings)} finding(s) "
        f"({len(report.errors())} error, {len(report.warnings())} warning) "
        f"in {report.files} file(s); {report.suppressed} suppressed"
    )
    return "\n".join(lines) + "\n"


def summarize_codes(findings: Sequence[Finding]) -> str:
    """``"DET001 x2, OBS001 x1"`` -- for log lines."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    return ", ".join(f"{code} x{n}" for code, n in sorted(counts.items()))
