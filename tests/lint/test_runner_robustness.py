"""Runner robustness: a crash -- in a file or in a rule -- degrades to
one structured finding instead of aborting the run.
"""

import pytest

from repro.lint import lint_paths
from repro.lint.registry import get_rule

_DIRTY = "import numpy as np\nrng = np.random.default_rng()\n"


@pytest.fixture()
def tree(tmp_path):
    root = tmp_path / "tree" / "repro" / "core"
    root.mkdir(parents=True)
    (root / "bad.py").write_text(_DIRTY)
    (root / "ok.py").write_text("def double(x: int) -> int:\n    return 2 * x\n")
    return tmp_path / "tree"


def _boom(*args):
    raise RuntimeError("boom")


def test_syntax_error_is_one_finding_and_run_continues(tree):
    (tree / "repro" / "core" / "broken.py").write_text("def oops(:\n")
    report = lint_paths([tree], enforce_allowlist=False)
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    assert len(by_rule["LNT001"]) == 1
    assert "parse" in by_rule["LNT001"][0].message
    # The other files were still linted.
    assert len(by_rule["DET001"]) == 1
    assert report.files == 3


def test_undecodable_file_is_one_finding_and_run_continues(tree):
    (tree / "repro" / "core" / "binary.py").write_bytes(b"\xff\xfe\x00junk\x80")
    report = lint_paths([tree], enforce_allowlist=False)
    lnt = [finding for finding in report.findings if finding.rule == "LNT001"]
    assert len(lnt) == 1
    assert "read" in lnt[0].message
    assert any(finding.rule == "DET001" for finding in report.findings)


def test_crashing_rule_degrades_to_lnt002(tree, monkeypatch):
    # One crash finding per file the rule died on; everything else ran.
    monkeypatch.setattr(type(get_rule("DET001")), "check", _boom)
    report = lint_paths([tree], enforce_allowlist=False)
    assert {finding.rule for finding in report.findings} == {"LNT002"}
    assert len(report.findings) == 2
    crash = report.findings[0]
    assert "DET001" in crash.message and "boom" in crash.message
    assert "unchecked" in crash.message
