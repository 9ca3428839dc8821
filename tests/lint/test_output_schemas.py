"""Machine-readable output contract: the JSON report schema.

Golden-shape assertions pin the document CI uploads and parses.
"""

import json

from repro.lint import REPORT_SCHEMA, lint_source, render_json, report_as_dict

_DIRTY = (
    "import numpy as np\n"
    "import time\n"
    "rng = np.random.default_rng()\n"
    "t0 = time.time()\n"
)


def _report():
    return lint_source(_DIRTY, path="src/repro/core/example.py")


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
