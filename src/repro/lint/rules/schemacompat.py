"""SCH010: serialized-schema compatibility against the committed snapshot.

Campaign checkpoints outlive the code that wrote them.  SCH010
statically extracts their current field set and version constant and
diffs them against
``repro/lint/schema_snapshot.json``: fields changed without a version
bump is the error that corrupts old readers; a bumped version with a
stale snapshot is an unreviewed change.  ``python -m repro.lint
--update-schema-snapshot`` refreshes the snapshot (commit it with the
schema change).  The analysis lives in
:mod:`repro.lint.analysis.schemas`.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.analysis.schemas import analyze_schemas
from repro.lint.findings import Finding, Severity
from repro.lint.registry import ProjectRule, register

__all__ = ["SchemaCompat"]


@register
class SchemaCompat(ProjectRule):
    code = "SCH010"
    name = "schema-compat"
    severity = Severity.ERROR
    rationale = (
        "Checkpoint payloads are "
        "read by code older than the writer; changing their fields without "
        "bumping the version constant (and refreshing the committed "
        "snapshot) silently corrupts every old reader."
    )

    def check_project(self, project, options) -> Iterator[Finding]:
        for payload in analyze_schemas(project, options.schema_snapshot):
            yield self.finding_dict(payload)
