"""DET001/DET002 fixtures: positive, negative, and suppressed snippets."""

import pytest

from repro.lint import lint_source


def codes(report):
    return [finding.rule for finding in report.findings]


# -- DET001 -----------------------------------------------------------------


def test_det001_flags_unseeded_default_rng():
    report = lint_source(
        "import numpy as np\n"
        "rng = np.random.default_rng()\n",
        path="src/repro/core/example.py",
        select=["DET001"],
    )
    assert codes(report) == ["DET001"]
    assert report.findings[0].line == 2


def test_det001_flags_magic_literal_seed():
    report = lint_source(
        "import numpy as np\n"
        "rng = np.random.default_rng(42)\n",
        path="src/repro/core/example.py",
        select=["DET001"],
    )
    assert codes(report) == ["DET001"]
    assert "repro.seeds" in report.findings[0].message


def test_det001_flags_magic_literal_seed_keyword():
    report = lint_source(
        "import numpy as np\n"
        "rng = np.random.default_rng(seed=42)\n",
        path="src/repro/core/example.py",
        select=["DET001"],
    )
    assert codes(report) == ["DET001"]
    assert "repro.seeds" in report.findings[0].message


def test_det001_allows_literal_seeds_in_seeds_module():
    report = lint_source(
        "import numpy as np\n"
        "rng = np.random.default_rng(42)\n"
        "rng2 = np.random.default_rng(seed=7)\n",
        path="src/repro/seeds.py",
        select=["DET001"],
    )
    assert codes(report) == []


def test_det001_allows_named_constant_and_threaded_rng():
    report = lint_source(
        "import numpy as np\n"
        "from repro.seeds import TOPOLOGY_SEED\n"
        "rng = np.random.default_rng(TOPOLOGY_SEED)\n"
        "rng2 = np.random.default_rng(derive_seed('topology'))\n",
        path="src/repro/core/example.py",
        select=["DET001"],
    )
    assert codes(report) == []


def test_det001_flags_legacy_numpy_globals_and_stdlib_random():
    report = lint_source(
        "import numpy as np\n"
        "import random\n"
        "x = np.random.uniform(0.0, 1.0)\n"
        "y = random.randint(1, 6)\n"
        "z = random.Random()\n",
        path="src/repro/datasets/example.py",
        select=["DET001"],
    )
    assert codes(report) == ["DET001", "DET001", "DET001"]


def test_det001_resolves_from_imports():
    report = lint_source(
        "from numpy.random import default_rng\n"
        "rng = default_rng()\n",
        path="src/repro/core/example.py",
        select=["DET001"],
    )
    assert codes(report) == ["DET001"]


def test_det001_ignores_local_names_shadowing_random():
    report = lint_source(
        "def run(random):\n"
        "    return random.choice([1, 2])\n",
        path="src/repro/core/example.py",
        select=["DET001"],
    )
    assert codes(report) == []


def test_det001_line_suppression():
    report = lint_source(
        "import numpy as np\n"
        "rng = np.random.default_rng()  # repro: noqa[DET001]\n",
        path="src/repro/core/example.py",
        select=["DET001"],
    )
    assert codes(report) == []
    assert report.suppressed == 1


# -- DET002 -----------------------------------------------------------------


def test_det002_flags_wall_clock_in_scoped_packages():
    report = lint_source(
        "import time\n"
        "from datetime import datetime\n"
        "def stamp():\n"
        "    return time.time(), datetime.now()\n",
        path="src/repro/routing/example.py",
        select=["DET002"],
    )
    assert codes(report) == ["DET002", "DET002"]


def test_det002_scope_covers_stream_package():
    report = lint_source(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n",
        path="src/repro/stream/example.py",
        select=["DET002"],
    )
    assert codes(report) == ["DET002"]


@pytest.mark.parametrize(
    "package, flagged",
    [("core", True), ("datasets", True), ("measurement", True),
     ("routing", True), ("topology", True), ("stream", True),
     ("service", True), ("obs", False), ("harness", False),
     ("faults", False)],
)
def test_det002_scope_is_the_result_producing_packages(package, flagged):
    report = lint_source(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n",
        path=f"src/repro/{package}/example.py",
        select=["DET002"],
    )
    assert codes(report) == (["DET002"] if flagged else [])


def test_det002_ignores_wall_clock_outside_scope():
    report = lint_source(
        "import time\n"
        "def stamp():\n"
        "    return time.time()\n",
        path="src/repro/obs/example.py",
        select=["DET002"],
    )
    assert codes(report) == []


def test_det002_allows_monotonic_telemetry_clocks():
    report = lint_source(
        "import time\n"
        "def measure():\n"
        "    return time.perf_counter() - time.monotonic()\n",
        path="src/repro/datasets/example.py",
        select=["DET002"],
    )
    assert codes(report) == []


def test_det002_flags_set_into_list_and_loop():
    report = lint_source(
        "def build(items):\n"
        "    seen = set(items)\n"
        "    out = list(seen)\n"
        "    for item in seen:\n"
        "        out.append(item)\n"
        "    return out\n",
        path="src/repro/core/example.py",
        select=["DET002"],
    )
    assert codes(report) == ["DET002", "DET002"]


def test_det002_flags_set_intersection_comprehension():
    report = lint_source(
        "def common(a, b):\n"
        "    joint = set(a) & set(b)\n"
        "    return [x for x in joint]\n",
        path="src/repro/core/example.py",
        select=["DET002"],
    )
    assert codes(report) == ["DET002"]


def test_det002_sorted_wrapping_is_clean():
    report = lint_source(
        "def build(items):\n"
        "    seen = set(items)\n"
        "    out = []\n"
        "    for item in sorted(seen):\n"
        "        out.append(item)\n"
        "    return out, len(seen), 3 in seen\n",
        path="src/repro/core/example.py",
        select=["DET002"],
    )
    assert codes(report) == []


def test_det002_membership_only_sets_are_clean():
    report = lint_source(
        "def dedupe(path):\n"
        "    seen = set()\n"
        "    for hop in path:\n"
        "        if hop in seen:\n"
        "            return True\n"
        "        seen.add(hop)\n"
        "    return False\n",
        path="src/repro/core/example.py",
        select=["DET002"],
    )
    assert codes(report) == []


def test_det002_tuple_rebinding_disqualifies_set_names():
    # `s, t = compute()` rebinds s to an unknown value; list(s) must not
    # be flagged just because an earlier binding of s was a set.
    report = lint_source(
        "def build(x, compute):\n"
        "    s = set(x)\n"
        "    s, t = compute()\n"
        "    return list(s)\n",
        path="src/repro/core/example.py",
        select=["DET002"],
    )
    assert codes(report) == []


def test_det002_file_scoped_suppression():
    report = lint_source(
        "# repro: noqa-file[DET002]\n"
        "def build(items):\n"
        "    seen = set(items)\n"
        "    return list(seen)\n",
        path="src/repro/core/example.py",
        select=["DET002"],
    )
    assert codes(report) == []
    assert report.suppressed == 1
