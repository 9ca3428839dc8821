"""The dataset-generation engine: the on-disk artifact cache.

Building the paper's campaigns from scratch means simulating a 485-day
world; at the ``default`` scenario scale that takes tens of seconds, at
``large`` scale minutes.  This module makes the pipeline *incremental*:

- :class:`ArtifactCache` persists built platforms and long-term datasets
  on disk, keyed by a stable fingerprint of their configs, so examples
  and benchmarks stop re-simulating identical worlds.  Entries are
  versioned -- a schema or package version bump invalidates them -- and
  written atomically.
- :func:`cached_platform` / :func:`cached_longterm` are the high-level
  entry points: build on miss (optionally in parallel), load on hit.
  Each load, build and store runs in a span on the current tracer
  (``platform-load``, ``platform-store``, ``longterm-load``,
  ``longterm-build``, ``longterm-store``).

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
from typing import Optional, Tuple, Union

from repro.datasets.longterm import LongTermConfig, LongTermDataset, build_longterm_dataset
from repro.measurement.platform import MeasurementPlatform, PlatformConfig
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.log import get_logger

__all__ = [
    "ArtifactCache",
    "config_fingerprint",
    "default_cache_dir",
    "cached_platform",
    "cached_longterm",
    "CACHE_SCHEMA_VERSION",
]

CACHE_SCHEMA_VERSION = 1
"""Bump when the pickled layout of platforms/datasets changes shape."""

CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_PathLike = Union[str, Path]

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
    nesting depth -- changes it.  The package version and cache schema
    version are mixed in, so upgrading either invalidates old artifacts.
    """
    blob = repr(
        (CACHE_SCHEMA_VERSION, _package_version(),
         tuple(_canonical(part) for part in parts))
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

    Entries live under ``<directory>/v<schema>/<kind>-<fingerprint>.pkl``.
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
            # Unreadable, truncated or stale-schema entry: pickle can raise
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

    def clear(self) -> int:
        """Delete every entry of the current schema; returns the count."""
        root = self.directory / f"v{CACHE_SCHEMA_VERSION}"
        removed = 0
        if root.is_dir():
            for entry in root.glob("*.pkl"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


def cached_platform(
    config: Optional[PlatformConfig] = None,
    cache: Optional[ArtifactCache] = None,
    jobs: int = 1,
) -> Tuple[MeasurementPlatform, bool]:
    """A measurement platform for ``config``, loaded from disk when possible.

    Args:
        config: Platform construction parameters.
        cache: Artifact store (the default cache directory otherwise).
        jobs: Workers for route computation on a miss.

    Returns:
        ``(platform, cache_hit)``.
    """
    config = config or PlatformConfig()
    cache = cache or ArtifactCache()
    fingerprint = config_fingerprint("platform", config)
    with obs_trace.span("platform-load"):
        artifact = cache.load("platform", fingerprint)
    if artifact is not None:
        return artifact, True
    _LOG.info("platform.build", fingerprint=fingerprint, jobs=jobs,
              clusters=config.cluster_count, seed=config.seed)
    platform = MeasurementPlatform(config, jobs=jobs)
    with obs_trace.span("platform-store"):
        cache.store("platform", fingerprint, platform)
    return platform, False


def cached_longterm(
    platform_config: PlatformConfig,
    longterm_config: Optional[LongTermConfig] = None,
    platform: Optional[MeasurementPlatform] = None,
    cache: Optional[ArtifactCache] = None,
    jobs: int = 1,
) -> Tuple[LongTermDataset, bool]:
    """The long-term dataset for a (platform, campaign) config pair.

    On a miss the platform is taken from ``platform`` when given (to avoid
    a duplicate build) or resolved through :func:`cached_platform`, then
    the dataset is built -- with ``jobs`` workers -- and stored.  Any
    ``jobs`` value yields the same bits, so it is *not* part of the key.

    Returns:
        ``(dataset, cache_hit)``.
    """
    longterm_config = longterm_config or LongTermConfig()
    cache = cache or ArtifactCache()
    fingerprint = config_fingerprint("longterm", platform_config, longterm_config)
    with obs_trace.span("longterm-load"):
        artifact = cache.load("longterm", fingerprint)
    if artifact is not None:
        return artifact, True
    if platform is None:
        platform, _ = cached_platform(platform_config, cache=cache, jobs=jobs)
    _LOG.info("longterm.build", fingerprint=fingerprint, jobs=jobs,
              days=longterm_config.days)
    with obs_trace.span("longterm-build"):
        dataset = build_longterm_dataset(platform, longterm_config, jobs=jobs)
    with obs_trace.span("longterm-store"):
        cache.store("longterm", fingerprint, dataset)
    return dataset, False
