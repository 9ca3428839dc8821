"""The rule inventory is one set in three places.

The registry (what ``--list-rules`` and ``--select`` know), RULES.md's
``## CODE`` sections (what ``--explain`` prints) and the README's rule
table must name the same rules, so retiring or adding a rule cannot
leave a stale row or an undocumented code behind.
"""

import re
from pathlib import Path

from repro.lint import rule_codes
from repro.lint.__main__ import _explain

REPO = Path(__file__).resolve().parents[2]
CODE = r"[A-Z]{3}\d{3}"


def _rules_md_codes():
    text = (REPO / "src" / "repro" / "lint" / "RULES.md").read_text(encoding="utf-8")
    return re.findall(rf"^##\s+({CODE})\b", text, re.MULTILINE)


def _readme_table_codes():
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Static analysis", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^\|\s*({CODE})\s*\|", section, re.MULTILINE)


def test_rules_md_has_one_section_per_registered_rule():
    codes = _rules_md_codes()
    assert sorted(codes) == rule_codes()
    assert len(codes) == len(set(codes))


def test_explain_prints_every_registered_rule():
    for code in rule_codes():
        assert _explain(code).startswith(f"## {code} ")


def test_readme_table_has_one_row_per_registered_rule():
    codes = _readme_table_codes()
    assert sorted(codes) == rule_codes()
    assert len(codes) == len(set(codes))
