"""The lint driver: discover files, run rules, apply suppression policy.

One serial pass, one file at a time: parse, run every rule that applies,
apply noqa suppressions, and audit them against the allowlist.  A file
that cannot be read, decoded, or parsed produces one structured LNT001
finding and the run continues; a rule that crashes on a file produces
LNT002.

Orchestration only -- rules live in :mod:`repro.lint.rules`, policy data
in :mod:`repro.lint.allowlist`.  The public entry points are
:func:`lint_paths` (what the CLI and CI call) and :func:`lint_source`
(what rule tests call with fixture snippets).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.lint import allowlist as allowlist_mod
from repro.lint.context import FileContext
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
        self.rules: List[Rule] = [r for r in enabled if not r.synthetic]
        self.enforce_allowlist = enforce_allowlist
        enabled_codes = {r.code for r in enabled}
        self._emit_lnt000 = "LNT000" in enabled_codes
        self._emit_lnt001 = "LNT001" in enabled_codes
        self._emit_lnt002 = "LNT002" in enabled_codes

    # -- public entry points --------------------------------------------

    def lint_source(self, source: str, path: _PathLike) -> LintReport:
        """Lint one in-memory source blob as if it lived at ``path``."""
        report = LintReport(files=1)
        self._check_file(Path(path), source, report)
        report.findings.sort(key=Finding.sort_key)
        return report

    def lint_paths(self, paths: Iterable[_PathLike]) -> LintReport:
        report = LintReport()
        for path in iter_python_files(paths):
            report.files += 1
            try:
                source = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as error:
                # One structured finding per unreadable file; never abort.
                self._lnt001(report, path, 1, f"file cannot be read: {error}")
                continue
            self._check_file(path, source, report)
        report.findings.sort(key=Finding.sort_key)
        _LOG.info(
            "lint.done",
            files=report.files,
            findings=len(report.findings),
            suppressed=report.suppressed,
            codes=summarize_codes(report.findings),
        )
        return report

    # -- one file ------------------------------------------------------

    def _lnt001(self, report: LintReport, path: Path, line: int, message: str) -> None:
        if self._emit_lnt001:
            report.findings.append(
                get_rule("LNT001").finding_at(FileContextStub(path), line, 0, message)
            )

    def _check_file(self, path: Path, source: str, report: LintReport) -> None:
        """Add one file's findings to ``report`` (LNT001 if it won't parse)."""
        try:
            ctx = FileContext(path, source)
        except (SyntaxError, ValueError) as error:
            line = getattr(error, "lineno", None) or 1
            self._lnt001(report, path, line, f"file does not parse: {error}")
            return
        for rule in self.rules:
            if not rule.applies(ctx):
                continue
            try:
                rule_findings = list(rule.check(ctx))
            except Exception as error:  # noqa: BLE001 -- any crash becomes LNT002
                if self._emit_lnt002:
                    report.findings.append(
                        get_rule("LNT002").finding_at(
                            ctx, 1, 0,
                            f"rule {rule.code} crashed on this file "
                            f"({error!r}); its invariant went unchecked here",
                        )
                    )
                continue
            for finding in rule_findings:
                if ctx.noqa.is_suppressed(finding.rule, finding.line):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)
        if self.enforce_allowlist and self._emit_lnt000:
            report.findings.extend(self._audit_suppressions(ctx))

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
