"""Whole-program rule fixtures: DET010, SCH010.

These rules run over the project layer (``repro.lint.analysis``) rather
than one AST at a time, so the positive fixtures exercise flows that the
per-file rules are structurally unable to see: a literal seed crossing a
call boundary, a schema edit that never bumped its version constant.
"""

import importlib
import json
from pathlib import Path

from repro.lint import lint_paths, lint_source
from repro.lint.analysis.schemas import current_schemas, write_snapshot
from repro.lint.runner import ProjectOptions, load_project


def codes(report):
    return [finding.rule for finding in report.findings]


# -- DET010: interprocedural seed taint ------------------------------------


def test_det010_literal_seed_through_helper():
    # The acceptance fixture: the literal lives two calls away from the
    # Generator construction, in a module that never imports numpy.
    report = lint_source(
        "import numpy as np\n"
        "def make_rng(seed):\n"
        "    return np.random.default_rng(np.random.SeedSequence(seed))\n"
        "def build_platform(seed):\n"
        "    return make_rng(seed)\n"
        "def entry():\n"
        "    return build_platform(42)\n",
        path="src/repro/measurement/helper_seed.py",
        select=["DET010"],
    )
    assert codes(report) == ["DET010"]
    finding = report.findings[0]
    assert finding.line == 7  # reported at the literal, not at the sink
    assert "42" in finding.message
    assert "build_platform" in finding.message


def test_det010_wall_clock_entropy_through_helper():
    report = lint_source(
        "import time\n"
        "import numpy as np\n"
        "def make_rng(entropy):\n"
        "    return np.random.default_rng(np.random.SeedSequence(entropy))\n"
        "def entry():\n"
        "    return make_rng(int(time.time()))\n",
        path="src/repro/measurement/helper_clock.py",
        select=["DET010"],
    )
    assert codes(report) == ["DET010"]
    assert "time.time" in report.findings[0].message


def test_det010_dataclass_field_default():
    report = lint_source(
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "@dataclass\n"
        "class Config:\n"
        "    window: int = 30\n"
        "    seed: int = 7\n"
        "def build(config: Config):\n"
        "    return np.random.default_rng(np.random.SeedSequence([config.seed, 1]))\n",
        path="src/repro/measurement/helper_field.py",
        select=["DET010"],
    )
    assert codes(report) == ["DET010"]
    finding = report.findings[0]
    assert finding.line == 6  # the field definition, not the call site
    assert "Config.seed" in finding.message


def test_det010_literal_default_on_sensitive_param():
    report = lint_source(
        "import numpy as np\n"
        "def make_rng(seed=123):\n"
        "    return np.random.default_rng(np.random.SeedSequence(seed))\n",
        path="src/repro/measurement/helper_default.py",
        select=["DET010"],
    )
    assert codes(report) == ["DET010"]
    assert "default" in report.findings[0].message


def test_det010_leaves_direct_literals_to_det001():
    # `default_rng(0)` is DET001's finding; DET010 must not double-report
    # the same expression just because it also sees the flow.
    source = "import numpy as np\nrng = np.random.default_rng(0)\n"
    report = lint_source(source, path="src/repro/core/example.py", select=["DET010"])
    assert codes(report) == []
    report = lint_source(source, path="src/repro/core/example.py", select=["DET001"])
    assert codes(report) == ["DET001"]


def test_det010_named_seed_registry_is_clean():
    report = lint_source(
        "import numpy as np\n"
        "from repro.seeds import PLATFORM_SEED\n"
        "def make_rng(seed=PLATFORM_SEED):\n"
        "    return np.random.default_rng(np.random.SeedSequence(seed))\n",
        path="src/repro/measurement/helper_named.py",
        select=["DET010"],
    )
    assert codes(report) == []


def test_det010_suppressed_by_noqa():
    report = lint_source(
        "import numpy as np\n"
        "def make_rng(seed):\n"
        "    return np.random.default_rng(np.random.SeedSequence(seed))\n"
        "def entry():\n"
        "    return make_rng(42)  # repro: noqa[DET010]\n",
        path="src/repro/measurement/helper_noqa.py",
        select=["DET010"],
    )
    assert codes(report) == []
    assert report.suppressed == 1


def test_tracked_schemas_name_integer_version_constants():
    from repro.lint.analysis.schemas import TRACKED_SCHEMAS

    assert sorted(TRACKED_SCHEMAS) == ["campaign-checkpoint"]
    for module, constant in TRACKED_SCHEMAS.values():
        assert isinstance(getattr(importlib.import_module(module), constant), int)


# -- SCH010: schema/version compatibility ----------------------------------

_CHECKPOINT_V2 = (
    "CAMPAIGN_CHECKPOINT_SCHEMA = 2\n"
    "def save(operator, cycle):\n"
    "    payload = {\n"
    "        'schema': CAMPAIGN_CHECKPOINT_SCHEMA,\n"
    "        'operator': operator,\n"
    "        'cycle': cycle,\n"
    "    }\n"
    "    return payload\n"
)


def _tree(tmp_path, checkpoint_source):
    root = tmp_path / "tree" / "repro" / "service"
    root.mkdir(parents=True)
    (root / "checkpoint.py").write_text(checkpoint_source)
    return tmp_path / "tree"


def _lint(tree, snapshot):
    return lint_paths(
        [tree],
        select=["SCH010"],
        enforce_allowlist=False,
        options=ProjectOptions(schema_snapshot=snapshot),
    )


def _snapshot_for(tmp_path, tree):
    # Build the snapshot from the tree itself, via the same extraction
    # `--update-schema-snapshot` uses.
    snapshot = tmp_path / "schema_snapshot.json"
    write_snapshot(snapshot, current_schemas(load_project([tree])))
    return snapshot


def test_sch010_clean_when_snapshot_matches(tmp_path):
    tree = _tree(tmp_path, _CHECKPOINT_V2)
    snapshot = _snapshot_for(tmp_path, tree)
    assert codes(_lint(tree, snapshot)) == []


def test_sch010_field_change_without_version_bump(tmp_path):
    tree = _tree(tmp_path, _CHECKPOINT_V2)
    snapshot = _snapshot_for(tmp_path, tree)
    (tree / "repro" / "service" / "checkpoint.py").write_text(
        _CHECKPOINT_V2.replace("'cycle': cycle,\n", "'cycle': cycle,\n        'units_done': 0,\n")
    )
    report = _lint(tree, snapshot)
    assert codes(report) == ["SCH010"]
    finding = report.findings[0]
    assert "version bump" in finding.message
    assert "units_done" in finding.message


def test_sch010_version_bump_requires_snapshot_refresh(tmp_path):
    tree = _tree(tmp_path, _CHECKPOINT_V2)
    snapshot = _snapshot_for(tmp_path, tree)
    (tree / "repro" / "service" / "checkpoint.py").write_text(
        _CHECKPOINT_V2.replace("CAMPAIGN_CHECKPOINT_SCHEMA = 2", "CAMPAIGN_CHECKPOINT_SCHEMA = 3")
    )
    report = _lint(tree, snapshot)
    assert codes(report) == ["SCH010"]
    assert "--update-schema-snapshot" in report.findings[0].message


def test_sch010_missing_snapshot_is_one_finding(tmp_path):
    tree = _tree(tmp_path, _CHECKPOINT_V2)
    report = _lint(tree, tmp_path / "does_not_exist.json")
    assert codes(report) == ["SCH010"]
    assert "snapshot" in report.findings[0].message


def test_sch010_snapshot_round_trips(tmp_path):
    tree = _tree(tmp_path, _CHECKPOINT_V2)
    snapshot = _snapshot_for(tmp_path, tree)
    payload = json.loads(snapshot.read_text())
    assert payload["schema"] == 1
    tracked = payload["tracked"]["campaign-checkpoint"]
    assert tracked["version"] == 2
    assert tracked["fields"] == ["cycle", "operator", "schema"]


def test_sch010_tracks_only_the_campaign_checkpoint():
    src = Path(importlib.import_module("repro").__file__).resolve().parent.parent
    assert set(current_schemas(load_project([src]))) == {"campaign-checkpoint"}
