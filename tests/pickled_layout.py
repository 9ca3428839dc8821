"""The pickled layout of an object graph, for tests that pin a layout version.

Two on-disk formats unpickle with no compatibility branch: the artifact
cache (``CACHE_SCHEMA_VERSION``) and the campaign checkpoint
(``CAMPAIGN_CHECKPOINT_SCHEMA``).  Each is pinned by a test that builds
a real artifact and compares ``(version, pickled_layout(artifact))``
with a committed value, so a change to what a class pickles fails until
its version is bumped and the pin refreshed.
"""

from __future__ import annotations

import enum
import pickle


def pickled_layout(*roots):
    """Every package class reachable from ``roots``'s pickles, with the names it pickles."""
    layout = {}
    seen = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
            continue
        if not type(obj).__module__.startswith("repro.") or isinstance(obj, enum.Enum):
            continue
        state = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        parts = state if isinstance(state, tuple) else (state,)
        fields = {}
        for part in parts:
            fields.update(part or {})
        name = f"{type(obj).__module__}.{type(obj).__qualname__}"
        layout.setdefault(name, set()).update(fields)
        stack.extend(fields.values())
    return {name: tuple(sorted(fields)) for name, fields in sorted(layout.items())}
