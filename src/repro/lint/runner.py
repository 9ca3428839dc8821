"""The lint driver: discover files, run rules, apply suppression policy.

One serial pass in two phases:

1. **Per-file**: parse, run every file-scoped rule, apply noqa
   suppressions, audit them against the allowlist, and build the
   module's whole-program summary.  A file that cannot be read,
   decoded, or parsed produces one structured LNT001 finding and the
   run continues; a rule that crashes on a file produces LNT002.
2. **Project**: the summaries are assembled into a
   :class:`repro.lint.analysis.project.Project` and the project-scoped
   rule (DET010) runs over it.  Its findings honor the same noqa
   suppressions, kept from the per-file phase.

Orchestration only -- rules live in :mod:`repro.lint.rules`, policy data
in :mod:`repro.lint.allowlist`.  The public entry points are
:func:`lint_paths` (what the CLI and CI call) and :func:`lint_source`
(what rule tests call with fixture snippets).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.lint import allowlist as allowlist_mod
from repro.lint.analysis.project import Project
from repro.lint.analysis.summary import build_summary
from repro.lint.context import FileContext, Suppressions
from repro.lint.findings import Finding, LintReport, summarize_codes
from repro.lint.registry import Rule, all_rules, get_rule
from repro.obs.log import get_logger

# Importing the rules package populates the registry as a side effect.
import repro.lint.rules  # noqa: F401  (registration import)

__all__ = [
    "Linter",
    "lint_paths",
    "lint_source",
    "iter_python_files",
]

_PathLike = Union[str, Path]

_LOG = get_logger("repro.lint")


def iter_python_files(paths: Iterable[_PathLike]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, sorted, each yielded once."""
    seen = set()
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            candidates: Sequence[Path] = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            candidates = [root]
        else:
            raise FileNotFoundError(f"not a python file or directory: {root}")
        for path in candidates:
            if path not in seen:
                seen.add(path)
                yield path


@dataclass
class _FileResult:
    """One parsed file's per-file verdict and its input to the project phase."""

    noqa: Suppressions  # project-phase findings are filtered through it too
    summary: Dict[str, object]
    findings: List[Finding]
    suppressed: int


class Linter:
    """A configured lint pass: rule selection plus suppression policy.

    Args:
        select / ignore: Rule-code filters (both optional).
        enforce_allowlist: When true (the default, and what CI uses),
            every noqa comment must be covered by
            :data:`repro.lint.allowlist.SUPPRESSION_ALLOWLIST` or the
            runner emits LNT000 at the comment.  Rule tests disable this
            to exercise fixtures with undocumented suppressions.
    """

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        enforce_allowlist: bool = True,
    ) -> None:
        enabled = all_rules(select, ignore)
        self.rules: List[Rule] = [
            r for r in enabled if not r.synthetic and not r.project_scope
        ]
        self.project_rules: List[Rule] = [r for r in enabled if r.project_scope]
        self.enforce_allowlist = enforce_allowlist
        enabled_codes = {r.code for r in enabled}
        self._emit_lnt000 = "LNT000" in enabled_codes
        self._emit_lnt001 = "LNT001" in enabled_codes
        self._emit_lnt002 = "LNT002" in enabled_codes

    # -- public entry points --------------------------------------------

    def lint_source(self, source: str, path: _PathLike) -> LintReport:
        """Lint one in-memory source blob as if it lived at ``path``."""
        report = LintReport(files=1)
        result = self._check_file(Path(path), source, report)
        self._check_project(report, [] if result is None else [result])
        report.findings.sort(key=Finding.sort_key)
        return report

    def lint_paths(self, paths: Iterable[_PathLike]) -> LintReport:
        report = LintReport()
        self._check_project(report, self._check_paths(paths, report))
        report.findings.sort(key=Finding.sort_key)
        _LOG.info(
            "lint.done",
            files=report.files,
            findings=len(report.findings),
            suppressed=report.suppressed,
            codes=summarize_codes(report.findings),
        )
        return report

    # -- per-file phase --------------------------------------------------

    def _check_paths(
        self, paths: Iterable[_PathLike], report: LintReport
    ) -> List[_FileResult]:
        results: List[_FileResult] = []
        for path in iter_python_files(paths):
            report.files += 1
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as error:
                # One structured finding per unreadable file; never abort.
                self._lnt001(report, path, 1, f"file cannot be read: {error}")
                continue
            result = self._check_file(path, source, report)
            if result is not None:
                results.append(result)
        return results

    def _lnt001(self, report: LintReport, path: Path, line: int, message: str) -> None:
        if self._emit_lnt001:
            report.findings.append(
                get_rule("LNT001").finding_at(FileContextStub(path), line, 0, message)
            )

    def _check_file(
        self, path: Path, source: str, report: LintReport
    ) -> Optional[_FileResult]:
        """Per-file findings + summary; ``None`` (and LNT001) if it won't parse."""
        try:
            ctx = FileContext(path, source)
        except (SyntaxError, ValueError) as error:
            line = getattr(error, "lineno", None) or 1
            self._lnt001(report, path, line, f"file does not parse: {error}")
            return None
        findings: List[Finding] = []
        suppressed = 0
        for rule in self.rules:
            if not rule.applies(ctx):
                continue
            try:
                rule_findings = list(rule.check(ctx))
            except Exception as error:  # noqa: BLE001 -- any crash becomes LNT002
                if self._emit_lnt002:
                    findings.append(
                        get_rule("LNT002").finding_at(
                            ctx, 1, 0,
                            f"rule {rule.code} crashed on this file "
                            f"({error!r}); its invariant went unchecked here",
                        )
                    )
                continue
            for finding in rule_findings:
                if ctx.noqa.is_suppressed(finding.rule, finding.line):
                    suppressed += 1
                else:
                    findings.append(finding)
        if self.enforce_allowlist and self._emit_lnt000:
            findings.extend(self._audit_suppressions(ctx))
        return _FileResult(ctx.noqa, build_summary(ctx), findings, suppressed)

    def _audit_suppressions(self, ctx: FileContext) -> Iterator[Finding]:
        rule = get_rule("LNT000")
        for comment in ctx.suppression_comments():
            for code in comment.rules:
                if not allowlist_mod.is_allowlisted(ctx.path, code):
                    yield rule.finding_at(
                        ctx,
                        comment.line,
                        0,
                        f"suppression of {code} is not in the documented "
                        "allowlist (repro/lint/allowlist.py); add an entry "
                        "with a reason or fix the finding",
                    )

    # -- project phase ---------------------------------------------------

    def _check_project(
        self, report: LintReport, results: Sequence[_FileResult]
    ) -> None:
        for result in results:
            report.findings.extend(result.findings)
            report.suppressed += result.suppressed
        if not self.project_rules or not results:
            return
        noqa = {str(result.summary["path"]): result.noqa for result in results}
        project = Project([result.summary for result in results])
        for rule in self.project_rules:
            try:
                rule_findings = list(rule.check_project(project))
            except Exception as error:  # noqa: BLE001 -- any crash becomes LNT002
                if self._emit_lnt002:
                    crash = get_rule("LNT002")
                    report.findings.append(
                        Finding(
                            rule=crash.code,
                            severity=crash.severity,
                            path="<project>",
                            line=1,
                            col=0,
                            message=(
                                f"project rule {rule.code} crashed "
                                f"({error!r}); its invariant went unchecked"
                            ),
                        )
                    )
                continue
            for finding in rule_findings:
                table = noqa.get(finding.path)
                if table is not None and table.is_suppressed(finding.rule, finding.line):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)


class FileContextStub:
    """The minimal context surface :meth:`Rule.finding_at` needs.

    Used for files that fail to read or parse, where a real
    :class:`FileContext` cannot exist.
    """

    def __init__(self, path: Path) -> None:
        self.path = path


def lint_paths(
    paths: Iterable[_PathLike],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    enforce_allowlist: bool = True,
) -> LintReport:
    """Lint files/directories with the given rule selection; see :class:`Linter`."""
    return Linter(select, ignore, enforce_allowlist).lint_paths(paths)


def lint_source(
    source: str,
    path: _PathLike = "fixture.py",
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    enforce_allowlist: bool = False,
) -> LintReport:
    """Lint an in-memory snippet (fixture tests); allowlist off by default."""
    return Linter(select, ignore, enforce_allowlist).lint_source(source, path)
