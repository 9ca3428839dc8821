"""The seed recorder catches the seed leaks it is there to catch.

``test_seed_provenance.py`` passes only if ``seed_recorder.py`` sees
every way a stream can fail to follow the world seed.  Here the recorder
runs a small program, ``world.py``, whose every function seeds one
stream its own way: from a literal, through helpers, from a dataclass
field default, from a parameter default, from the wall clock, and from
the world seed.  The program runs at seeds 0 and 1 and at seed 0 once
more, and the records must flag each leak at its own site and leave the
world-derived streams alone.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from tests.integration import seed_recorder
from tests.integration.seed_recorder import shared_material

ROOT = Path(__file__).resolve().parents[2]

WORLD = textwrap.dedent('''\
    import time
    import zlib
    from dataclasses import dataclass

    import numpy as np


    def _platform_rng(seed):
        return np.random.default_rng(np.random.SeedSequence(seed))


    def _build_platform(seed):
        return _platform_rng(seed)


    def literal_through_helper(world_seed):
        return _build_platform(42)


    def direct_literal(world_seed):
        return np.random.default_rng(0)


    @dataclass
    class Config:
        window: int = 30
        seed: int = 7

        def rng(self):
            return np.random.default_rng(np.random.SeedSequence([self.seed, 1]))


    def field_default(world_seed):
        return Config(window=world_seed).rng()


    def defaulted_rng(seed=123):
        return np.random.default_rng(np.random.SeedSequence(seed))


    def literal_default(world_seed):
        return defaulted_rng()


    def clock_rng(entropy):
        return np.random.default_rng(np.random.SeedSequence(entropy))


    def wall_clock(world_seed):
        return clock_rng(time.time_ns())


    def world_streams(world_seed):
        for name in ("cdn", "loss"):
            sequence = np.random.SeedSequence([world_seed, zlib.crc32(name.encode())])
            np.random.default_rng(np.random.Generator(np.random.PCG64(sequence)))


    def build(world_seed):
        for case in (literal_through_helper, direct_literal, field_default,
                     literal_default, wall_clock, world_streams):
            case(world_seed)
''')

BOOTSTRAP = textwrap.dedent('''\
    import runpy
    import sys
    from pathlib import Path

    import numpy as np

    from tests.integration import seed_recorder

    world, out, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    seed_recorder.install(world.parent)
    runpy.run_path(str(world))["build"](seed)
    np.random.default_rng(seed)
    seed_recorder.dump(out)
''')

RUNS = {"seed 0": 0, "seed 1": 1, "seed 0 again": 0}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """``{run: record}`` for ``world.py`` recorded once per entry of RUNS."""
    root = tmp_path_factory.mktemp("seed-recorder")
    world = root / "world" / "world.py"
    world.parent.mkdir()
    world.write_text(WORLD)
    env = {
        "PYTHONPATH": f"{ROOT}:{ROOT / 'src'}",
        "PATH": "/usr/bin:/bin",
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    results = {}
    for index, (run, seed) in enumerate(RUNS.items()):
        out = root / f"record-{index}.json"
        done = subprocess.run(
            [sys.executable, "-c", BOOTSTRAP, str(world), str(out), str(seed)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        results[run] = json.loads(out.read_text())
    return results


@pytest.fixture(scope="module")
def across_seeds(records):
    return shared_material(records["seed 0"], records["seed 1"])


def test_literal_seed_through_helpers_is_shared_where_it_is_made(records, across_seeds):
    # Attributed to the innermost frame in the program, not to the
    # helpers the literal travelled through.
    assert across_seeds["world.py::_platform_rng"] == ["42"]
    sites = records["seed 0"]["sites"]
    assert "world.py::_build_platform" not in sites
    assert "world.py::literal_through_helper" not in sites


def test_direct_literal_is_shared(across_seeds):
    assert across_seeds["world.py::direct_literal"] == ["0"]


def test_dataclass_field_default_is_shared_at_the_qualified_method(across_seeds):
    assert across_seeds["world.py::Config.rng"] == ["[7, 1]"]


def test_literal_default_on_seed_parameter_is_shared(across_seeds):
    assert across_seeds["world.py::defaulted_rng"] == ["123"]


def test_wall_clock_entropy_differs_between_runs_of_one_seed(records):
    site = "world.py::clock_rng"
    first, again = (records[run]["sites"][site] for run in ("seed 0", "seed 0 again"))
    assert first != again


def test_world_derived_streams_are_disjoint_across_seeds_and_repeatable(records, across_seeds):
    site = "world.py::world_streams"
    assert site not in across_seeds
    assert records["seed 0"]["sites"][site] == records["seed 0 again"]["sites"][site]
    assert across_seeds.keys() == {
        "world.py::_platform_rng",
        "world.py::direct_literal",
        "world.py::Config.rng",
        "world.py::defaulted_rng",
    }


def test_derived_arguments_carry_no_material_of_their_own(records):
    # Each world stream goes SeedSequence -> PCG64 -> Generator ->
    # default_rng; only the SeedSequence's entropy is material.
    record = records["seed 1"]
    assert [len(material) for material in record["sites"]["world.py::world_streams"]] == [2, 2]
    assert record["fired"]["PCG64"] == 2
    # Sinks called outside the program's directory still count.
    assert record["sites"]["<outside repro>"] == [1]


def test_sink_stand_in_answers_isinstance_as_its_class():
    stand_in = seed_recorder._Sink("PCG64", np.random.PCG64)
    assert isinstance(np.random.PCG64(5), stand_in)
    assert not isinstance(np.random.Philox(5), stand_in)
