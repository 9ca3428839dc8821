"""Machine-readable output contracts: JSON report schema and SARIF.

Golden-shape assertions pin the documents CI and code-scanning parse;
the SARIF document additionally validates against a vendored subset of
the OASIS 2.1.0 schema (``data/sarif-2.1.0-subset.schema.json``) so a
drifting emitter fails offline, without the upstream 14k-line schema or
network access.
"""

import json
from pathlib import Path

import pytest

from repro.lint import (
    REPORT_SCHEMA,
    all_rules,
    lint_source,
    render_json,
    report_as_dict,
)
from repro.lint.sarif import SARIF_VERSION, render_sarif, sarif_as_dict

DATA = Path(__file__).resolve().parent / "data"

_DIRTY = (
    "import numpy as np\n"
    "import time\n"
    "rng = np.random.default_rng()\n"
    "t0 = time.time()\n"
)


def _report():
    return lint_source(_DIRTY, path="src/repro/core/example.py")


# -- JSON report -----------------------------------------------------------


def test_json_report_golden_shape():
    payload = report_as_dict(_report())
    assert payload["schema"] == REPORT_SCHEMA == 3
    assert payload["tool"] == "repro.lint"
    assert payload["files"] == 1
    assert sorted(payload) == ["files", "findings", "schema", "summary", "tool"]
    assert sorted(payload["summary"]) == [
        "by_rule", "errors", "findings", "suppressed", "warnings",
    ]
    assert payload["summary"]["by_rule"] == {"DET001": 1, "DET002": 1}
    for finding in payload["findings"]:
        assert sorted(finding) == [
            "col", "line", "message", "path", "rule", "severity",
        ]


def test_json_report_round_trips():
    report = _report()
    first = render_json(report)
    decoded = json.loads(first)
    assert json.dumps(decoded, indent=2) + "\n" == first
    # Rendering is a pure function of the report: stable across calls.
    assert render_json(report) == first


# -- SARIF -----------------------------------------------------------------


def test_sarif_golden_shape():
    doc = sarif_as_dict(_report(), all_rules())
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    (run,) = doc["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    assert {"DET001", "DET010"} <= set(rule_ids)
    assert [r["ruleId"] for r in run["results"]] == ["DET001", "DET002"]
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_sarif_round_trips():
    report = _report()
    rendered = render_sarif(report, all_rules())
    assert json.loads(rendered) == sarif_as_dict(report, all_rules())


def test_sarif_validates_against_vendored_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DATA / "sarif-2.1.0-subset.schema.json").read_text())
    jsonschema.Draft7Validator.check_schema(schema)
    validator = jsonschema.Draft7Validator(schema)

    doc = sarif_as_dict(_report(), all_rules())
    errors = sorted(validator.iter_errors(doc), key=str)
    assert errors == [], "\n".join(str(e) for e in errors)


def test_sarif_empty_report_validates_too():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((DATA / "sarif-2.1.0-subset.schema.json").read_text())
    clean = lint_source("x = 1\n", path="src/repro/core/clean.py")
    doc = sarif_as_dict(clean, all_rules())
    assert doc["runs"][0]["results"] == []
    jsonschema.validate(doc, schema)
