"""CLI surface: exit codes, JSON mode, rule listing, bad input handling."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.__main__ import main as lint_main

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
    )


@pytest.fixture(scope="module")
def dirty_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("dirty") / "repro" / "core"
    root.mkdir(parents=True)
    (root / "bad.py").write_text(
        "import numpy as np\nrng = np.random.default_rng()\n"
    )
    return root


def test_clean_src_exits_zero():
    result = run_cli(str(SRC), "--strict")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout


def test_lint_runs_without_numpy(tmp_path):
    # CI's lint job installs only ruff: `python -m repro.lint` must not
    # drag in the numpy-backed simulation stack via the package root.
    blocker = (
        "import runpy, sys\n"
        "class BlockNumpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' or name.startswith('numpy.'):\n"
        "            raise ModuleNotFoundError('numpy blocked')\n"
        "        return None\n"
        "sys.meta_path.insert(0, BlockNumpy())\n"
        "sys.argv = ['repro.lint', sys.argv[1], '--strict']\n"
        "runpy.run_module('repro.lint', run_name='__main__')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", blocker, str(SRC)],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout


def test_dirty_tree_exits_one_with_human_finding(dirty_tree):
    result = run_cli(str(dirty_tree))
    assert result.returncode == 1
    assert "DET001" in result.stdout
    assert "bad.py:2" in result.stdout


def test_json_mode_emits_schema_document(dirty_tree):
    result = run_cli(str(dirty_tree), "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["schema"] == 3
    assert payload["summary"]["by_rule"] == {"DET001": 1}


def test_select_filter_via_cli(dirty_tree):
    result = run_cli(str(dirty_tree), "--select", "OBS001")
    assert result.returncode == 0
    assert "0 finding(s)" in result.stdout


def test_list_rules_describes_every_rule():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for code in ("DET001", "DET002", "FRK001", "OBS001", "API001", "CCH001", "LNT000"):
        assert code in result.stdout


def test_unknown_rule_is_usage_error():
    result = run_cli(str(SRC), "--select", "NOPE99")
    assert result.returncode == 2
    assert "unknown rule" in result.stderr


def test_missing_path_is_usage_error():
    result = run_cli("does-not-exist.txt")
    assert result.returncode == 2


def test_explain_prints_rules_md_entry():
    result = run_cli("--explain", "CCH001")
    assert result.returncode == 0
    assert "config-outside-fingerprint" in result.stdout
    assert "object.__setattr__" in result.stdout  # the knob the rule resolves


def test_explain_unknown_rule_is_usage_error():
    result = run_cli("--explain", "NOPE99")
    assert result.returncode == 2


@pytest.mark.parametrize("code", ["FRK010", "SCH010", "DET010"])
@pytest.mark.parametrize("mode", ["explain", "select"])
def test_retired_rule_is_unknown(code, mode):
    # FRK010 left with the last thread, SCH010 with the schema snapshot
    # and DET010 with the whole-program engine; naming any of them is a
    # usage error, not a silently empty selection.
    args = ["--explain", code] if mode == "explain" else [str(SRC), "--select", code]
    result = run_cli(*args)
    assert result.returncode == 2
    assert code in result.stderr


def test_sarif_format_is_a_usage_error(dirty_tree, capsys):
    with pytest.raises(SystemExit) as exit_info:
        lint_main([str(dirty_tree), "--format", "sarif"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'sarif'" in capsys.readouterr().err


def test_warm_cache_run_matches_cold_byte_for_byte(dirty_tree):
    # The report is a pure function of the tree: two runs, same bytes.
    first = run_cli(str(dirty_tree), "--format", "json")
    second = run_cli(str(dirty_tree), "--format", "json")
    assert first.returncode == second.returncode == 1
    assert first.stdout == second.stdout


@pytest.mark.parametrize(
    "flag",
    [
        ["--jobs", "2"],
        ["--json"],
        ["--no-cache"],
        ["--refresh-cache"],
        ["--cache-dir", "lint-cache"],
        ["--baseline", "lint-baseline.json"],
        ["--write-baseline", "lint-baseline.json"],
        ["--no-allowlist"],
        ["--schema-snapshot", "schema_snapshot.json"],
        ["--update-schema-snapshot"],
    ],
    ids=lambda flag: flag[0],
)
def test_removed_flags_are_usage_errors(flag, dirty_tree, capsys):
    with pytest.raises(SystemExit) as exit_info:
        lint_main([str(dirty_tree), *flag])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
