"""repro.stream: bounded-memory streaming behind the mesh campaign.

The batch pipeline materializes every timeline before :mod:`repro.core`
runs; this package feeds the mesh campaign (:mod:`repro.service`) its
synthetic mesh one block at a time:

- :mod:`repro.stream.source` -- stream units and the sharded fan-out
  with bounded queues.
- :mod:`repro.stream.mesh` -- the counter-hash full-mesh source and its
  operator.
- :mod:`repro.stream.snapshot` -- checksummed, generation-rotated
  snapshot files behind the campaign checkpoint store.

Exports resolve lazily (PEP 562) following the package convention: the
stream stack needs numpy, and dependency-light tools must be able to
import ``repro`` without it.
"""

from __future__ import annotations

__all__ = [
    "StreamUnit",
    "ShardedSource",
]

_LAZY_EXPORTS = {
    "StreamUnit": "repro.stream.source",
    "ShardedSource": "repro.stream.source",
}


def __getattr__(name: str):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
