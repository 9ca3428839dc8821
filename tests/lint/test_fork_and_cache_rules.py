"""FRK001 and CCH001 fixtures: positive, negative, and suppressed snippets."""

from repro.lint import lint_source


def codes(report):
    return [finding.rule for finding in report.findings]


# -- FRK001 -----------------------------------------------------------------

_FORK_MUTATION = (
    "from repro.datasets.parallel import fork_map\n"
    "RESULTS = []\n"
    "def worker(item):\n"
    "    RESULTS.append(item * 2)\n"
    "    return item\n"
    "def build(items):\n"
    "    return fork_map(worker, items, jobs=4)\n"
)


def test_frk001_flags_module_list_append_in_worker():
    report = lint_source(_FORK_MUTATION, path="src/repro/datasets/example.py", select=["FRK001"])
    assert codes(report) == ["FRK001"]
    assert "RESULTS" in report.findings[0].message


def test_frk001_flags_global_rebinding_and_subscript_store():
    report = lint_source(
        "from repro.datasets.parallel import fork_map\n"
        "TOTAL = 0\n"
        "CACHE = {}\n"
        "def worker(item):\n"
        "    global TOTAL\n"
        "    TOTAL += 1\n"
        "    CACHE[item] = item\n"
        "    return item\n"
        "def build(items):\n"
        "    return fork_map(worker, items)\n",
        path="src/repro/datasets/example.py",
        select=["FRK001"],
    )
    # One finding at the `global` declaration (covering TOTAL's rebinds)
    # plus one at the module-dict subscript store.
    assert codes(report) == ["FRK001", "FRK001"]
    assert "global TOTAL" in report.findings[0].message
    assert "CACHE" in report.findings[1].message


def test_frk001_flags_lambda_workers():
    report = lint_source(
        "from repro.datasets.parallel import fork_map\n"
        "ACC = []\n"
        "def build(items):\n"
        "    return fork_map(lambda item: ACC.append(item), items)\n",
        path="src/repro/datasets/example.py",
        select=["FRK001"],
    )
    assert codes(report) == ["FRK001"]


def test_frk001_clean_worker_returning_results():
    report = lint_source(
        "from repro.datasets.parallel import fork_map\n"
        "from repro.obs import metrics as obs_metrics\n"
        "def build(platform, items):\n"
        "    def worker(item):\n"
        "        obs_metrics.get_registry().counter('built').inc()\n"
        "        local = []\n"
        "        local.append(item)\n"
        "        return local\n"
        "    return fork_map(worker, items, jobs=4)\n",
        path="src/repro/datasets/example.py",
        select=["FRK001"],
    )
    assert codes(report) == []


def test_frk001_mutation_outside_worker_is_clean():
    report = lint_source(
        "from repro.datasets.parallel import fork_map\n"
        "RESULTS = []\n"
        "def worker(item):\n"
        "    return item\n"
        "def build(items):\n"
        "    for result in fork_map(worker, items):\n"
        "        RESULTS.append(result)\n"
        "    return RESULTS\n",
        path="src/repro/datasets/example.py",
        select=["FRK001"],
    )
    assert codes(report) == []


def test_frk001_flags_process_target_keyword():
    report = lint_source(
        "import multiprocessing\n"
        "SEEN = []\n"
        "def _worker(queue):\n"
        "    SEEN.append(1)\n"
        "    queue.put('done')\n"
        "def spawn(queue):\n"
        "    context = multiprocessing.get_context('fork')\n"
        "    return context.Process(target=_worker, args=(queue,), daemon=True)\n",
        path="src/repro/stream/example.py",
        select=["FRK001"],
    )
    assert codes(report) == ["FRK001"]
    assert "SEEN" in report.findings[0].message
    assert "Process worker" in report.findings[0].message


def test_frk001_resolves_process_target_self_method():
    report = lint_source(
        "import multiprocessing\n"
        "MODE = 'idle'\n"
        "class Shard:\n"
        "    def _loop(self):\n"
        "        global MODE\n"
        "        MODE = 'running'\n"
        "    def start(self):\n"
        "        self._proc = multiprocessing.Process(target=self._loop)\n"
        "        self._proc.start()\n",
        path="src/repro/stream/example.py",
        select=["FRK001"],
    )
    assert codes(report) == ["FRK001"]
    assert "MODE" in report.findings[0].message
    assert "never reaches the parent process" in report.findings[0].message


def test_frk001_clean_process_worker_with_registry_delta():
    report = lint_source(
        "import multiprocessing\n"
        "from repro.obs import metrics as obs_metrics\n"
        "def _worker(source, queue):\n"
        "    registry = obs_metrics.get_registry()\n"
        "    baseline = registry.snapshot()\n"
        "    queue.put((source, registry.delta_since(baseline)))\n"
        "def spawn(source, queue):\n"
        "    context = multiprocessing.get_context('fork')\n"
        "    return context.Process(target=_worker, args=(source, queue))\n",
        path="src/repro/stream/example.py",
        select=["FRK001"],
    )
    assert codes(report) == []


def test_frk001_flags_process_target_global_rebinding():
    report = lint_source(
        "import multiprocessing\n"
        "STARTED = 0\n"
        "def _worker(queue):\n"
        "    global STARTED\n"
        "    STARTED += 1\n"
        "    queue.put(STARTED)\n"
        "def spawn(queue):\n"
        "    return multiprocessing.Process(target=_worker, args=(queue,))\n",
        path="src/repro/stream/example.py",
        select=["FRK001"],
    )
    assert codes(report) == ["FRK001"]
    assert "Process worker declares global STARTED" in report.findings[0].message


def test_frk001_flags_numpy_in_place_write_to_module_buffer():
    report = lint_source(
        "import numpy as np\n"
        "from repro.datasets.parallel import fork_map\n"
        "BUFFER = np.zeros(8)\n"
        "def worker(item):\n"
        "    BUFFER.fill(item)\n"
        "    return item\n"
        "def build(items):\n"
        "    return fork_map(worker, items)\n",
        path="src/repro/datasets/example.py",
        select=["FRK001"],
    )
    assert codes(report) == ["FRK001"]
    assert "'BUFFER'" in report.findings[0].message


def test_frk001_flags_attribute_store_on_module_object():
    report = lint_source(
        "import types\n"
        "from repro.datasets.parallel import fork_map\n"
        "STATE = types.SimpleNamespace(done=0)\n"
        "def worker(item):\n"
        "    STATE.done += 1\n"
        "    return item\n"
        "def build(items):\n"
        "    return fork_map(worker, items)\n",
        path="src/repro/datasets/example.py",
        select=["FRK001"],
    )
    assert codes(report) == ["FRK001"]
    assert "'STATE'" in report.findings[0].message


def test_frk001_plain_rebinding_without_global_is_clean():
    # Without `global`, `RESULTS = ...` binds a local: the module list is
    # untouched, so nothing is lost when the worker exits.
    report = lint_source(
        "from repro.datasets.parallel import fork_map\n"
        "RESULTS = []\n"
        "def worker(item):\n"
        "    RESULTS = [item]\n"
        "    return RESULTS\n"
        "def build(items):\n"
        "    return fork_map(worker, items)\n",
        path="src/repro/datasets/example.py",
        select=["FRK001"],
    )
    assert codes(report) == []


def test_frk001_suppressed():
    source = _FORK_MUTATION.replace(
        "    RESULTS.append(item * 2)\n",
        "    RESULTS.append(item * 2)  # repro: noqa[FRK001]\n",
    )
    report = lint_source(source, path="src/repro/datasets/example.py", select=["FRK001"])
    assert codes(report) == []
    assert report.suppressed == 1


# -- CCH001 -----------------------------------------------------------------


def test_cch001_flags_bare_class_attribute():
    report = lint_source(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class BuildConfig:\n"
        "    days: int = 16\n"
        "    retries = 3\n",
        path="src/repro/datasets/example.py",
        select=["CCH001"],
    )
    assert codes(report) == ["CCH001"]
    assert "retries" in report.findings[0].message


def test_cch001_flags_classvar_and_post_init_attribute():
    report = lint_source(
        "from dataclasses import dataclass\n"
        "from typing import ClassVar\n"
        "@dataclass\n"
        "class BuildConfig:\n"
        "    days: int = 16\n"
        "    mode: ClassVar[str] = 'fast'\n"
        "    def __post_init__(self):\n"
        "        self.window = self.days * 24\n",
        path="src/repro/datasets/example.py",
        select=["CCH001"],
    )
    assert codes(report) == ["CCH001", "CCH001"]


def test_cch001_clean_config_and_private_derived_state():
    report = lint_source(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class BuildConfig:\n"
        "    days: int = 16\n"
        "    def __post_init__(self):\n"
        "        self._window = self.days * 24\n"
        "    def validate(self):\n"
        "        self.days = int(self.days)\n",
        path="src/repro/datasets/example.py",
        select=["CCH001"],
    )
    assert codes(report) == []


def test_cch001_ignores_non_config_dataclasses_and_plain_classes():
    report = lint_source(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Record:\n"
        "    tag = 'not-a-config'\n"
        "class HelperConfig:\n"
        "    tag = 'not-a-dataclass'\n",
        path="src/repro/datasets/example.py",
        select=["CCH001"],
    )
    assert codes(report) == []


def test_cch001_suppressed():
    report = lint_source(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class BuildConfig:\n"
        "    days: int = 16\n"
        "    retries = 3  # repro: noqa[CCH001]\n",
        path="src/repro/datasets/example.py",
        select=["CCH001"],
    )
    assert codes(report) == []
    assert report.suppressed == 1
