"""Whole-program rule fixtures: DET010.

The rule runs over the project layer (``repro.lint.analysis``) rather
than one AST at a time, so the positive fixtures exercise flows that the
per-file rules are structurally unable to see: a literal seed crossing a
call boundary.
"""

from repro.lint import lint_source


def codes(report):
    return [finding.rule for finding in report.findings]


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
