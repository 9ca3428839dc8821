"""A dict that counts its own mutations, for cheap cache invalidation.

The dataset containers cache their sorted key order (``_ordered_keys``)
because the experiment harness re-reads it 16+ times per run.  Keying
that cache on ``len(dict)`` is subtly wrong: replacing an existing key's
value (same size) or a delete-then-insert of a different key (same size)
both slip past a length check.  :class:`VersionedDict` bumps a
monotonically increasing :attr:`version` on every mutating operation, so
``cache_key != dict.version`` is a sound staleness test.
"""

from __future__ import annotations

from typing import Dict, Tuple, TypeVar

__all__ = ["KeyOrderCached", "VersionedDict", "dict_version"]

_K = TypeVar("_K")
_V = TypeVar("_V")


class VersionedDict(Dict[_K, _V]):
    """A ``dict`` whose :attr:`version` increments on every mutation.

    Reads are plain ``dict`` reads (no overhead); every mutating method
    bumps the counter, including no-op-looking calls like ``update()``
    with an existing key, because distinguishing "same value" from
    "replaced value" costs more than an occasional spurious re-sort.
    """

    __slots__ = ("version",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        self.version = 0
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]

    def __reduce__(self):
        # The default dict-subclass protocol replays items through
        # __setitem__ on a __new__-created instance -- before the
        # version slot exists, so every unpickle would blow up (and an
        # artifact-cache load would read as corruption).  Route the
        # items through __init__ instead and carry the counter as state.
        return (self.__class__, (dict(self),), self.version)

    def __setstate__(self, state: int) -> None:
        self.version = int(state)

    def __setitem__(self, key: _K, value: _V) -> None:
        self.version += 1
        super().__setitem__(key, value)

    def __delitem__(self, key: _K) -> None:
        self.version += 1
        super().__delitem__(key)

    def update(self, *args: object, **kwargs: object) -> None:  # type: ignore[override]
        self.version += 1
        super().update(*args, **kwargs)  # type: ignore[arg-type]

    def pop(self, *args: object) -> _V:  # type: ignore[override]
        self.version += 1
        return super().pop(*args)  # type: ignore[arg-type]

    def popitem(self) -> Tuple[_K, _V]:  # type: ignore[override]
        self.version += 1
        return super().popitem()

    def clear(self) -> None:
        self.version += 1
        super().clear()

    def setdefault(self, key: _K, default: _V = None) -> _V:  # type: ignore[override, assignment]
        self.version += 1
        return super().setdefault(key, default)


def dict_version(mapping: Dict[object, object]) -> int:
    """The mutation counter of ``mapping``.

    Falls back to ``-1 - len(mapping)`` for plain dicts (callers that
    constructed a dataset with a literal dict), so a cache keyed on this
    value still invalidates on growth -- the legacy, weaker behaviour.
    """
    version = getattr(mapping, "version", None)
    if version is None:
        return -1 - len(mapping)
    return int(version)


class KeyOrderCached:
    """Dataset mixin: pickle without the cached key order.

    The key order is derived from the dataset's dict, so leaving it out
    makes a dataset pickle to the same bytes whether or not an analysis
    has filled the cache.  Subclasses name the cache attribute in
    ``_KEY_CACHE``, and any further caches derived from the dict (also
    pickled as ``None``) in ``_DERIVED_CACHES``.
    """

    _KEY_CACHE = "_key_cache"
    _DERIVED_CACHES: Tuple[str, ...] = ()

    def __getstate__(self) -> Dict[str, object]:
        # The caches go last, in a fixed order: a cache attribute enters
        # ``__dict__`` only when first filled, so its position there
        # depends on which analysis ran first.
        caches = (self._KEY_CACHE,) + self._DERIVED_CACHES
        state = {name: value for name, value in self.__dict__.items() if name not in caches}
        state.update(dict.fromkeys(caches))
        return state
