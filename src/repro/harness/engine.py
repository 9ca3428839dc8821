"""The dataset-generation engine: the on-disk artifact cache.

Building the paper's campaigns from scratch means simulating a 485-day
world; at the ``default`` scenario scale that takes tens of seconds, at
``large`` scale minutes.  :class:`ArtifactCache` persists built
platforms and long-term datasets on disk, keyed by a stable fingerprint
of their configs, so examples and benchmarks stop re-simulating
identical worlds.  :meth:`ArtifactCache.load_or_build` is the one
build-or-load path; the scenario builders
(:mod:`repro.harness.scenarios`) call it when given a cache.

Two things decide whether an entry is read:

- its *fingerprint* (:func:`config_fingerprint`): the configs and the
  package version, nothing else -- campaign checkpoints key on the same
  function;
- the *layout version* (:data:`CACHE_SCHEMA_VERSION`), which only names
  the directory the entry lives in, so a layout change leaves every
  older entry unread.

The cache directory defaults to ``~/.cache/repro`` and can be overridden
per call or via the ``REPRO_CACHE_DIR`` environment variable.  Loaded
artifacts are bit-identical to freshly built ones: construction is fully
deterministic under one seed, and pickling preserves every array.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
from pathlib import Path
from typing import Callable, Optional, Sequence, TypeVar, Union

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger

__all__ = [
    "ArtifactCache",
    "config_fingerprint",
    "default_cache_dir",
    "CACHE_SCHEMA_VERSION",
]

CACHE_SCHEMA_VERSION = 2
"""The pickled layout of cached artifacts; names the ``v<N>/`` directory.

Bump it whenever a cached class (a platform, a long-term dataset, or
anything they hold) changes what it pickles.  Entries of other versions
are never read, so unpickling has no compatibility branch.  It is not
part of :func:`config_fingerprint`: a bump leaves campaign checkpoints
alone.
"""

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_PathLike = Union[str, Path]
_T = TypeVar("_T")

_LOG = get_logger("repro.harness.engine")


def _canonical(value: object) -> object:
    """A stable, hashable projection of (possibly nested) config objects."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (spec.name, _canonical(getattr(value, spec.name)))
                for spec in dataclasses.fields(value)
            ),
        )
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.value)
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(
            sorted((repr(key), _canonical(item)) for key, item in value.items())
        )
    if isinstance(value, float):
        return repr(value)
    return value


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports the harness package, so a
    # module-level "from repro import __version__" could run against a
    # half-initialized package.
    import repro

    return getattr(repro, "__version__", "0")


def config_fingerprint(*parts: object) -> str:
    """A stable hex fingerprint of config objects (dataclasses welcome).

    Equal configs always fingerprint equal; any field change -- at any
    nesting depth -- changes it.  The package version is mixed in, so an
    upgrade invalidates old artifacts.
    """
    blob = repr(
        (_package_version(), tuple(_canonical(part) for part in parts))
    ).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


class ArtifactCache:
    """On-disk pickle store for expensive build artifacts.

    Entries live under ``<directory>/v<layout>/<kind>-<fingerprint>.pkl``,
    ``<layout>`` being :data:`CACHE_SCHEMA_VERSION`.
    Loads never raise on a bad entry -- a corrupt or unreadable pickle
    reads as a miss and the caller rebuilds.  Stores write to a temp file
    and rename, so concurrent readers never observe a partial entry.

    Every load/store outcome is counted in the metrics registry
    (``cache.hit`` / ``cache.miss`` / ``cache.corrupt`` / ``cache.store``)
    and logged, so run manifests account for exactly what the cache did.
    """

    def __init__(self, directory: Optional[_PathLike] = None) -> None:
        self.directory = Path(directory) if directory is not None else default_cache_dir()

    def path(self, kind: str, fingerprint: str) -> Path:
        """Where an artifact of ``kind`` with ``fingerprint`` lives."""
        return self.directory / f"v{CACHE_SCHEMA_VERSION}" / f"{kind}-{fingerprint}.pkl"

    def load(self, kind: str, fingerprint: str) -> Optional[object]:
        """The cached artifact, or ``None`` on miss/corruption."""
        path = self.path(kind, fingerprint)
        try:
            with open(path, "rb") as handle:
                artifact = pickle.load(handle)
        except FileNotFoundError:
            obs_metrics.counter("cache.miss").inc()
            _LOG.debug("cache.miss", kind=kind, fingerprint=fingerprint)
            return None
        except Exception:
            # Unreadable or truncated entry: pickle can raise
            # nearly anything on garbage bytes (ValueError, KeyError, ...),
            # so treat every failure as a miss, drop the entry and rebuild.
            try:
                path.unlink()
            except OSError:
                pass
            obs_metrics.counter("cache.corrupt").inc()
            _LOG.warning("cache.corrupt", kind=kind, fingerprint=fingerprint,
                         path=str(path))
            return None
        obs_metrics.counter("cache.hit").inc()
        _LOG.info("cache.hit", kind=kind, fingerprint=fingerprint)
        return artifact

    def store(self, kind: str, fingerprint: str, artifact: object) -> Path:
        """Persist an artifact atomically; returns its path."""
        path = self.path(kind, fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        scratch = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(scratch, "wb") as handle:
                pickle.dump(artifact, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(scratch, path)
        finally:
            if scratch.exists():
                try:
                    scratch.unlink()
                except OSError:
                    pass
        obs_metrics.counter("cache.store").inc()
        _LOG.info("cache.store", kind=kind, fingerprint=fingerprint,
                  bytes=path.stat().st_size)
        return path

    def load_or_build(
        self, kind: str, parts: Sequence[object], build: Callable[[], _T]
    ) -> _T:
        """The ``kind`` artifact of the configs ``parts``: loaded, or built and stored.

        The load runs in a ``<kind>-load`` span and the store in a
        ``<kind>-store`` span on the current tracer; ``build`` opens its
        own.  Worker counts and other knobs that do not change the
        artifact's bits stay out of ``parts``.
        """
        fingerprint = config_fingerprint(kind, *parts)
        with obs_trace.span(f"{kind}-load"):
            artifact = self.load(kind, fingerprint)
        if artifact is None:
            _LOG.info("cache.build", kind=kind, fingerprint=fingerprint)
            artifact = build()
            with obs_trace.span(f"{kind}-store"):
                self.store(kind, fingerprint, artifact)
        return artifact  # type: ignore[return-value]

    def clear(self) -> int:
        """Delete every entry, of every layout version; returns the count.

        Only ``v<N>/`` directories are layout directories: the cache
        directory may be shared, so other ``v*`` directories are left alone.
        """
        removed = 0
        for layout in self.directory.glob("v*"):
            if not layout.name[1:].isdigit():
                continue
            for entry in layout.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
