"""Run the ``repro`` CLI with numpy's seed sinks wrapped, and record the
seed material each construction site receives.

Usage::

    python tests/integration/seed_recorder.py OUT.json reproduce --scenario small --seed 1

The wrappers go in before ``repro`` is imported, so every module binds
them, whether it calls ``np.random.default_rng`` or imported the name.
Each call is attributed to its innermost frame inside the ``repro``
package, as ``<path under repro/>::<qualified function name>`` (the
code object's ``co_qualname``, so Python 3.11 or later).  The material
is what decides the stream:

- ``SeedSequence(entropy)``: the entropy, as given;
- ``default_rng(seed)`` and the bit-generator and ``RandomState``
  constructors: ``seed`` when it is raw (an int, a list of ints, or
  ``None`` for OS entropy); a ``SeedSequence``, bit generator or
  ``Generator`` argument carries material already recorded where it
  was made;
- ``fastseed.pcg64_states(base_seed, digests)``: ``base_seed``, the one
  input that differs between worlds (the digests hash stream names).
  It is wrapped before ``repro.datasets.columnar`` binds the name.

``OUT.json`` holds ``{"fired": {sink: calls}, "sites": {site: [material,
...]}}`` with materials as JSON values in call order.  The program's
stdout passes through unchanged.

:func:`install` and :func:`dump` record any other program the same way,
with its own directory standing in for the package.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import os
import runpy
import sys
from pathlib import Path

import numpy as np

_PACKAGE = Path(importlib.util.find_spec("repro").submodule_search_locations[0]).resolve()
_PREFIX = str(_PACKAGE) + os.sep
"""Calls are attributed to frames in files under this directory."""

_NUMPY_SINKS = (
    "SeedSequence",
    "default_rng",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
    "RandomState",
)
_DERIVED = (np.random.SeedSequence, np.random.BitGenerator, np.random.Generator)

fired: dict = {}
sites: dict = {}


def _material(value):
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_material(item) for item in value]
    return None if value is None else repr(value)


def _site() -> str:
    frame = sys._getframe(2)
    while frame is not None:
        path = frame.f_code.co_filename
        if path.startswith(_PREFIX):
            return f"{path[len(_PREFIX):].replace(os.sep, '/')}::{frame.f_code.co_qualname}"
        frame = frame.f_back
    return "<outside repro>"


def _record(sink: str, raw: bool, value) -> None:
    fired[sink] = fired.get(sink, 0) + 1
    if raw:
        sites.setdefault(_site(), []).append(_material(value))


class _Sink:
    """A callable stand-in for one numpy seed sink.

    numpy checks arguments with ``isinstance`` against the module's own
    names, so a wrapped class still answers ``isinstance`` as the class
    it stands in for.
    """

    def __init__(self, name: str, original) -> None:
        self.name = name
        self.original = original
        self.argument = "entropy" if name == "SeedSequence" else "seed"

    def __call__(self, *args, **kwargs):
        seed = args[0] if args else kwargs.get(self.argument)
        raw = self.name == "SeedSequence" or not isinstance(seed, _DERIVED)
        _record(self.name, raw, seed)
        return self.original(*args, **kwargs)

    def __instancecheck__(self, instance) -> bool:
        return isinstance(instance, self.original)


def _wrap_fastseed() -> None:
    from repro.measurement import fastseed

    assert "repro.datasets.columnar" not in sys.modules, "columnar bound pcg64_states first"
    original = fastseed.pcg64_states

    @functools.wraps(original)
    def pcg64_states(base_seed, digests):
        _record("pcg64_states", True, base_seed)
        return original(base_seed, digests)

    fastseed.pcg64_states = pcg64_states


def install(package: Path = _PACKAGE) -> None:
    """Wrap every seed sink, attributing calls to frames under ``package``."""
    global _PREFIX
    _PREFIX = str(Path(package).resolve()) + os.sep
    for name in _NUMPY_SINKS:
        setattr(np.random, name, _Sink(name, getattr(np.random, name)))
    _wrap_fastseed()


def dump(out) -> None:
    """Write what the sinks have recorded so far to ``out`` as JSON."""
    Path(out).write_text(json.dumps({"fired": fired, "sites": sites}))


def shared_material(first: dict, second: dict) -> dict:
    """``{site: [material, ...]}`` for the material two records both hold
    at the same site, sorted, with sites that share nothing left out."""
    shared = {}
    for site in sorted(set(first["sites"]) & set(second["sites"])):
        common = ({json.dumps(material) for material in first["sites"][site]}
                  & {json.dumps(material) for material in second["sites"][site]})
        if common:
            shared[site] = sorted(common)
    return shared


def main(argv) -> None:
    out, command = argv[0], argv[1:]
    install()
    sys.argv = ["repro", *command]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        dump(out)


if __name__ == "__main__":
    main(sys.argv[1:])
