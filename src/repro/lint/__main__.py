"""CLI: ``python -m repro.lint [paths] [--format json] [--strict] ...``.

Exit codes (also under ``--help``): **0** when there are no error-level
findings -- warnings alone do *not* fail the run unless ``--strict`` is
given; **1** when there are errors, or warnings under ``--strict``;
**2** on usage errors (unknown rule code, missing path, unknown flag).
Findings go to stdout (human lines or one JSON document); logs go to
stderr via ``repro.obs`` so output stays pipeable.  Every run lints
every file: one serial per-file pass, no cache.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.findings import render_human, render_json
from repro.lint.registry import all_rules
from repro.lint.runner import Linter
from repro.obs import log


def _codes(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [code.strip().upper() for code in raw.split(",") if code.strip()]


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        kind = " (synthetic)" if rule.synthetic else ""
        lines.append(f"{rule.code} [{rule.severity.value}] {rule.name}{kind}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def _explain(code: str) -> Optional[str]:
    """The RULES.md section for ``code``, verbatim."""
    rules_md = Path(__file__).resolve().parent / "RULES.md"
    try:
        text = rules_md.read_text(encoding="utf-8")
    except OSError:
        return None
    pattern = re.compile(
        rf"^##\s+{re.escape(code)}\b.*?(?=^##\s|\Z)", re.MULTILINE | re.DOTALL
    )
    match = pattern.search(text)
    return None if match is None else match.group(0).rstrip() + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Per-file invariant linter: seeded randomness, "
        "fork-safe workers, telemetry hygiene, cache-fingerprint coverage.",
        epilog="exit codes: 0 no errors (warnings pass without --strict); "
        "1 errors, or warnings with --strict; 2 usage error",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: ./src if present, else .)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select", metavar="CODES", help="comma-separated rule codes to run exclusively"
    )
    parser.add_argument(
        "--ignore", metavar="CODES", help="comma-separated rule codes to skip"
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="warnings also fail the run (CI mode); errors fail regardless",
    )
    parser.add_argument(
        "--explain", metavar="RULE",
        help="print the RULES.md entry for a rule code and exit",
    )
    parser.add_argument("--list-rules", action="store_true", help="describe every rule")
    args = parser.parse_args(argv)

    log.configure()

    if args.list_rules:
        print(_list_rules())
        return 0

    if args.explain:
        code = args.explain.strip().upper()
        section = _explain(code)
        if section is None:
            print(f"error: no RULES.md entry for {code!r}", file=sys.stderr)
            return 2
        sys.stdout.write(section)
        return 0

    paths = args.paths or (["src"] if Path("src").is_dir() else ["."])
    try:
        report = Linter(
            select=_codes(args.select), ignore=_codes(args.ignore)
        ).lint_paths(paths)
    except (KeyError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    render = render_json if args.format == "json" else render_human
    sys.stdout.write(render(report))
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
