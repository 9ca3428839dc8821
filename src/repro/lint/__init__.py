"""repro.lint: the repo's AST-based invariant linter.

Off-the-shelf linters check style; this package checks the invariants
the reproduction's correctness rests on -- determinism (DET001/DET002),
fork-safe parallelism (FRK001), telemetry hygiene (OBS001), public API
annotations (API001), and cache-fingerprint coverage (CCH001).  Each
run is one serial pass that checks one file at a time; that each world
seed selects its own streams is checked by running two seeds
(``tests/integration/test_seed_provenance.py``), not by a lint rule.
See ``RULES.md`` next to this file for one paragraph per rule, and run::

    python -m repro.lint src                 # human output
    python -m repro.lint src --format json   # machine output (CI artifact)

Suppressions are ``# repro: noqa[RULE]`` comments backed by the
documented allowlist in :mod:`repro.lint.allowlist`; an undocumented
suppression is itself a finding (LNT000).
"""

from repro.lint.findings import (
    REPORT_SCHEMA,
    Finding,
    LintReport,
    Severity,
    render_human,
    render_json,
    report_as_dict,
)
from repro.lint.registry import Rule, all_rules, get_rule, rule_codes
from repro.lint.runner import Linter, iter_python_files, lint_paths, lint_source

__all__ = [
    "REPORT_SCHEMA",
    "Finding",
    "LintReport",
    "Severity",
    "Rule",
    "Linter",
    "all_rules",
    "get_rule",
    "rule_codes",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "render_human",
    "render_json",
    "report_as_dict",
]
