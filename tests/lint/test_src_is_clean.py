"""Meta-test: the shipped tree stays lint-clean.

This is the tier-1 regression guard behind `python -m repro.lint src`:
a change that reintroduces an unseeded RNG, a wall-clock read, a
fork-unsafe mutation, an undocumented suppression, or a thread fails
here, not in review.
"""

import ast
from pathlib import Path

import pytest

from repro.lint import lint_paths, render_human
from repro.lint.context import FileContext

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_has_no_findings():
    report = lint_paths([SRC], enforce_allowlist=True)
    assert report.files > 50  # the whole package was scanned, not a subset
    assert report.findings == [], "\n" + render_human(report)
    assert report.exit_code(strict=True) == 0


def test_src_suppressions_match_allowlist_inventory():
    # Exactly the documented suppression fires -- no drift in either
    # direction between noqa comments and the allowlist (DET002 in
    # core/ownership.py).
    report = lint_paths([SRC], enforce_allowlist=True)
    assert report.suppressed == 1


THREAD_STARTERS = frozenset(
    {
        "threading.Thread",
        "threading.Timer",
        "concurrent.futures.ThreadPoolExecutor",
        "_thread.start_new_thread",
    }
)


def _thread_starts(ctx):
    """Lines of ``ctx`` that call one of :data:`THREAD_STARTERS`."""
    return [
        node.lineno
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.Call)
        and ctx.resolve_imported(node.func) in THREAD_STARTERS
    ]


def test_src_starts_no_thread():
    # The pipeline runs in one thread, so fork/thread lock-order checking
    # was retired.  Any thread in src must bring that checking back.
    starts = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        ctx = FileContext(path, path.read_text())
        starts.extend(f"{path.relative_to(SRC)}:{line}" for line in _thread_starts(ctx))
    assert starts == [], (
        "src starts threads at " + ", ".join(starts) + "; thread/fork "
        "lock-order checking was retired with the last thread and must "
        "come back with any new one"
    )


@pytest.mark.parametrize(
    "source",
    [
        "import threading\nthreading.Thread(target=print).start()\n",
        "from threading import Thread\nThread(target=print)\n",
        "import threading as th\nth.Timer(1.0, print)\n",
        "import concurrent.futures\nconcurrent.futures.ThreadPoolExecutor(2)\n",
        "from concurrent.futures import ThreadPoolExecutor as Pool\nPool(1)\n",
        "import _thread\n_thread.start_new_thread(print, ())\n",
    ],
    ids=["thread", "from-import", "aliased-timer", "pool", "aliased-pool", "raw-thread"],
)
def test_thread_scan_finds_every_starter_spelling(source):
    ctx = FileContext(Path("src/repro/example.py"), source)
    assert _thread_starts(ctx) == [2]


@pytest.mark.parametrize(
    "source",
    [
        "import threading\nthreading.Lock()\n",
        "import multiprocessing\nmultiprocessing.Process(target=print)\n",
        "from concurrent.futures import ProcessPoolExecutor\nProcessPoolExecutor(1)\n",
        "class Thread:\n    pass\nThread()\n",
    ],
    ids=["lock", "process", "process-pool", "local-class"],
)
def test_thread_scan_ignores_locks_processes_and_local_names(source):
    ctx = FileContext(Path("src/repro/example.py"), source)
    assert _thread_starts(ctx) == []
