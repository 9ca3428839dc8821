"""Whole-program rule fixtures: DET010, FRK010, SCH010.

These rules run over the project layer (``repro.lint.analysis``) rather
than one AST at a time, so the positive fixtures exercise flows that the
per-file rules are structurally unable to see: a literal seed crossing a
call boundary, a lock held at a transitive fork, a schema edit that
never bumped its version constant.
"""

import json

from repro.lint import lint_paths, lint_source
from repro.lint.analysis.schemas import write_snapshot
from repro.lint.runner import Linter, ProjectOptions


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


# -- FRK010: fork/thread lock order ----------------------------------------


def test_frk010_flags_fork_while_holding_lock():
    report = lint_source(
        "import threading\n"
        "from repro.datasets.parallel import fork_map\n"
        "_STATE_LOCK = threading.Lock()\n"
        "def build(items):\n"
        "    with _STATE_LOCK:\n"
        "        return fork_map(str, items, jobs=2)\n",
        path="src/repro/datasets/fork_lock.py",
        select=["FRK010"],
    )
    assert codes(report) == ["FRK010"]
    finding = report.findings[0]
    assert "fork_map" in finding.message
    assert "_STATE_LOCK" in finding.message


def test_frk010_flags_transitive_fork_under_lock():
    report = lint_source(
        "import threading\n"
        "from repro.datasets.parallel import fork_map\n"
        "_LOCK = threading.Lock()\n"
        "def fan_out(items):\n"
        "    return fork_map(str, items)\n"
        "def build(items):\n"
        "    with _LOCK:\n"
        "        return fan_out(items)\n",
        path="src/repro/datasets/fork_lock2.py",
        select=["FRK010"],
    )
    assert codes(report) == ["FRK010"]
    assert "fan_out" in report.findings[0].message


def test_frk010_local_lock_is_exempt():
    # A function-local lock cannot be the one a forked child would
    # inherit in a held state from another thread.
    report = lint_source(
        "import threading\n"
        "from repro.datasets.parallel import fork_map\n"
        "def build(items):\n"
        "    gate = threading.Lock()\n"
        "    with gate:\n"
        "        return fork_map(str, items)\n",
        path="src/repro/datasets/fork_local.py",
        select=["FRK010"],
    )
    assert codes(report) == []


def test_frk010_flags_unguarded_thread_lock_when_project_forks():
    report = lint_source(
        "import threading\n"
        "from repro.datasets.parallel import fork_map\n"
        "_LOCK = threading.Lock()\n"
        "def _loop():\n"
        "    with _LOCK:\n"
        "        pass\n"
        "def start():\n"
        "    threading.Thread(target=_loop, daemon=True).start()\n"
        "def build(items):\n"
        "    return fork_map(str, items)\n",
        path="src/repro/obs/thread_lock.py",
        select=["FRK010"],
    )
    assert codes(report) == ["FRK010"]
    finding = report.findings[0]
    assert finding.line == 8  # reported at the thread start
    assert "_loop" in finding.message


def test_frk010_fork_guard_routing_is_clean():
    report = lint_source(
        "import threading\n"
        "from repro.datasets.parallel import fork_map\n"
        "from repro.obs.live import fork_guard\n"
        "_LOCK = threading.Lock()\n"
        "def _loop():\n"
        "    with fork_guard():\n"
        "        with _LOCK:\n"
        "            pass\n"
        "def start():\n"
        "    threading.Thread(target=_loop, daemon=True).start()\n"
        "def build(items):\n"
        "    return fork_map(str, items)\n",
        path="src/repro/obs/thread_guarded.py",
        select=["FRK010"],
    )
    assert codes(report) == []


def test_frk010_thread_check_silent_without_fork_actions():
    # No fork anywhere in the project: a thread taking a module lock is
    # ordinary synchronization, not a fork-ordering hazard.
    report = lint_source(
        "import threading\n"
        "_LOCK = threading.Lock()\n"
        "def _loop():\n"
        "    with _LOCK:\n"
        "        pass\n"
        "def start():\n"
        "    threading.Thread(target=_loop, daemon=True).start()\n",
        path="src/repro/obs/thread_only.py",
        select=["FRK010"],
    )
    assert codes(report) == []


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
    from repro.lint.analysis.project import Project
    from repro.lint.analysis.schemas import current_schemas
    from repro.lint.runner import iter_python_files

    linter = Linter(select=[], enforce_allowlist=False)
    summaries = []
    for path in iter_python_files([tree]):
        result = linter._analyze_source(path, path.read_text(encoding="utf-8"))
        if result.get("summary"):
            summaries.append(result["summary"])
    snapshot = tmp_path / "schema_snapshot.json"
    write_snapshot(snapshot, current_schemas(Project(summaries)))
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
