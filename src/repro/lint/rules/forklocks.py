"""FRK010: fork/thread lock-order analysis.

FRK001 protects worker bodies from mutating copy-on-write state; FRK010
protects the *spawn sites*: no fork (``os.fork``/``fork_map``/
``ShardedSource``/``Process``/``Pool``) may happen -- directly or down
the call chain -- while a shared lock is held, and no thread whose
target takes shared locks may be started in a forking program unless
those acquisitions route through :func:`repro.obs.metrics.fork_guard`.
The analysis lives in :mod:`repro.lint.analysis.locks`.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.analysis.locks import analyze_fork_locks
from repro.lint.findings import Finding, Severity
from repro.lint.registry import ProjectRule, register

__all__ = ["ForkLockOrder"]


@register
class ForkLockOrder(ProjectRule):
    code = "FRK010"
    name = "fork-lock-order"
    severity = Severity.ERROR
    rationale = (
        "A fork that happens while a shared lock is held -- or a thread "
        "that takes shared locks outside obs.metrics.fork_guard in a forking "
        "program -- hands children locks that no thread of theirs will "
        "release; hangs like that killed long telemetry runs before the "
        "fork guard existed."
    )

    def check_project(self, project, options) -> Iterator[Finding]:
        for payload in analyze_fork_locks(project):
            yield self.finding_dict(payload)
