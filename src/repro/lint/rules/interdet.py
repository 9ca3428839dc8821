"""DET010: interprocedural seed taint.

DET001 catches a magic literal handed straight to
``np.random.default_rng``; DET010 catches the same bug after it hides --
a literal or wall-clock value flowing through any chain of calls,
default arguments, or dataclass fields into ``Generator``/
``SeedSequence``/bit-generator/``fastseed`` construction.  The analysis
lives in :mod:`repro.lint.analysis.taint`; this module is the thin rule
adapter that turns engine output into findings.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.analysis.taint import analyze_seed_taint
from repro.lint.findings import Finding, Severity
from repro.lint.registry import ProjectRule, register

__all__ = ["InterproceduralSeedTaint"]


@register
class InterproceduralSeedTaint(ProjectRule):
    code = "DET010"
    name = "interprocedural-seed-taint"
    severity = Severity.ERROR
    rationale = (
        "A literal or wall-clock seed laundered through helpers, defaults, "
        "or config fields still breaks (scenario, seed) reproducibility; "
        "taint is tracked across the project call graph so the hiding "
        "places are gone."
    )

    def check_project(self, project) -> Iterator[Finding]:
        for payload in analyze_seed_taint(project):
            yield self.finding_dict(payload)
