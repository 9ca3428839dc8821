"""The batch path imports none of the campaign, stream or HTTP machinery."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

BATCH_PATH = (
    "repro.__main__",
    "repro.harness.experiments",
    "repro.harness.engine",
    "repro.datasets.longterm",
    "repro.datasets.shortterm",
)

FORBIDDEN = ("http.server", "socketserver", "repro.service", "repro.stream")

RETIRED_MODULES = (
    "repro.faults",
    "repro.obs.live",
    "repro.obs.expo",
    "repro.obs.top",
    "repro.service.supervisor",
    "repro.service.api",
    "repro.datasets.mutation",
)


def _loaded_after_import(modules, forbidden):
    """The ``forbidden`` modules a fresh interpreter holds after
    importing ``modules``."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        f"import sys, {', '.join(modules)}; "
        f"forbidden = {tuple(forbidden)!r}; "
        "print(sorted(m for m in sys.modules "
        "if any(m == f or m.startswith(f + '.') for f in forbidden)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return result.stdout.strip()


def test_batch_path_loads_no_service_stream_or_http_module():
    assert _loaded_after_import(BATCH_PATH, FORBIDDEN) == "[]"


@pytest.mark.parametrize("module", BATCH_PATH + ("repro.obs",))
def test_each_batch_module_alone_loads_no_forbidden_module(module):
    assert _loaded_after_import([module], FORBIDDEN) == "[]"


def test_mesh_campaign_core_loads_no_http_server():
    loaded = _loaded_after_import(
        ["repro.service.campaign"], ("http.server", "socketserver")
    )
    assert loaded == "[]"


def test_mesh_campaign_core_loads_no_analysis_module():
    # The checkpoint fingerprint comes from repro.harness.engine; the
    # package around it must not drag in the batch pipeline.
    analysis = (
        "repro.core", "repro.datasets", "repro.measurement", "repro.routing",
        "repro.topology", "repro.harness.experiments", "repro.harness.scenarios",
    )
    assert _loaded_after_import(["repro.service.campaign"], analysis) == "[]"


@pytest.mark.parametrize("module", RETIRED_MODULES)
def test_retired_module_is_gone(module):
    assert importlib.util.find_spec(module) is None


def test_artifact_cache_imports_nothing_it_stores():
    # The cache pickles whatever a builder hands it; it needs neither
    # the dataset nor the measurement layer.
    source = Path(__file__).resolve().parents[2] / "src" / "repro" / "harness" / "engine.py"
    imported = set()
    for node in ast.walk(ast.parse(source.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not [name for name in imported
                if name.startswith(("repro.datasets", "repro.measurement"))]
