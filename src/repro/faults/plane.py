"""Deterministic fault-injection plane.

Reproducing a measurement platform means reproducing its *failures*:
probe loss, dead vantage points, and torn snapshots are the normal
operating condition at CDN scale, and a robustness layer that can only
be exercised by real crashes cannot be tested deterministically.  This
module derives every injected fault from a named seed through the same
SplitMix64 counter-hash style as :mod:`repro.stream.mesh`, so a fault
schedule is a pure function of ``(seed, fault kind, unit index)`` --
bit-reproducible across shard counts, process restarts, and resumes.

Decisions are keyed on the *unit index*, never the shard id: the same
unit misbehaves identically whether the source runs 1, 2, or 4 shards,
which is what lets the chaos suite assert byte-identical figures at any
worker count.  Each injector is *attempt-gated*: a unit scheduled to
crash does so for its first ``crash_repeats`` attempts and then
succeeds, so bounded retry deterministically heals the run.

The plane is installed process-globally (:func:`install`) and inherited
by forked shard workers; code under test consults :func:`get_plane`
and does nothing when no plane is installed, so the production path
pays one ``None`` check per unit.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "FaultsConfig",
    "FaultSchedule",
    "InjectedFault",
    "RetryPolicy",
    "SupervisionPolicy",
    "backoff_delay",
    "faults_config_from_dict",
    "get_plane",
    "install",
    "load_faults_config",
    "retry_policy_from_dict",
    "supervision_policy_from_dict",
    "uninstall",
]

_MASK = (1 << 64) - 1
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB


def _mix64(value: int) -> int:
    """SplitMix64 finalizer over pure Python ints (wrapping uint64)."""
    z = (value + _MIX_A) & _MASK
    z = ((z ^ (z >> 30)) * _MIX_B) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_C) & _MASK
    return z ^ (z >> 31)


def _uniform01(word: int) -> float:
    """Map a 64-bit word onto [0, 1) with full 53-bit precision."""
    return (word >> 11) * (2.0 ** -53)


# Fixed integer tags per fault kind.  Python's ``hash()`` is salted per
# process (PYTHONHASHSEED), so kind tags must be literal constants for
# the schedule to reproduce across runs.
_KIND_CRASH = 0x11
_KIND_STALL = 0x22
_KIND_TRANSIENT = 0x33
_KIND_CORRUPT = 0x44
_KIND_SKEW = 0x55
_KIND_JITTER = 0x66


class InjectedFault(RuntimeError):
    """Raised (or simulated) by an injector; carries the fault kind."""

    def __init__(self, kind: str, detail: str):
        super().__init__(f"injected fault [{kind}]: {detail}")
        self.kind = kind


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def _check_positive_int(name: str, value: int) -> None:
    if not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _check_non_negative(name: str, value: float) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _index_tuple(name: str, value) -> Tuple[int, ...]:
    items = tuple(value)
    for item in items:
        if not isinstance(item, int) or item < 0:
            raise ValueError(
                f"{name} entries must be integers >= 0, got {item!r}"
            )
    return items


@dataclass(frozen=True)
class FaultsConfig:
    """Seeded fault schedule parameters.

    Each injector has a probabilistic knob (``*_rate``, hashed per unit
    index) and a targeted knob (``*_units`` / ``*_saves``, exact
    indices) -- targeted faults make tests and CI smoke runs exact
    rather than statistical.  ``*_repeats`` is how many attempts at a
    scheduled unit fail before the injector lets it through, which is
    what a bounded retry budget deterministically absorbs.
    """

    seed: int = 0
    # Worker crash (os._exit mid-unit) ------------------------------
    crash_rate: float = 0.0
    crash_units: Tuple[int, ...] = ()
    crash_repeats: int = 1
    # Queue stall (slow shard) --------------------------------------
    stall_rate: float = 0.0
    stall_units: Tuple[int, ...] = ()
    stall_s: float = 0.25
    stall_repeats: int = 1
    # Transient unit-build exception --------------------------------
    transient_rate: float = 0.0
    transient_units: Tuple[int, ...] = ()
    transient_repeats: int = 1
    # Checkpoint corruption/truncation ------------------------------
    corrupt_rate: float = 0.0
    corrupt_saves: Tuple[int, ...] = ()
    # Clock-skewed cadence ticks ------------------------------------
    skew_rate: float = 0.0
    skew_max_s: float = 0.0

    def __post_init__(self):
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        _check_rate("crash_rate", self.crash_rate)
        _check_rate("stall_rate", self.stall_rate)
        _check_rate("transient_rate", self.transient_rate)
        _check_rate("corrupt_rate", self.corrupt_rate)
        _check_rate("skew_rate", self.skew_rate)
        _check_positive_int("crash_repeats", self.crash_repeats)
        _check_positive_int("stall_repeats", self.stall_repeats)
        _check_positive_int("transient_repeats", self.transient_repeats)
        _check_non_negative("stall_s", self.stall_s)
        _check_non_negative("skew_max_s", self.skew_max_s)
        object.__setattr__(
            self, "crash_units", _index_tuple("crash_units", self.crash_units)
        )
        object.__setattr__(
            self, "stall_units", _index_tuple("stall_units", self.stall_units)
        )
        object.__setattr__(
            self, "transient_units",
            _index_tuple("transient_units", self.transient_units),
        )
        object.__setattr__(
            self, "corrupt_saves",
            _index_tuple("corrupt_saves", self.corrupt_saves),
        )

    @property
    def active(self) -> bool:
        """True when any injector can ever fire."""
        return bool(
            self.crash_rate or self.crash_units
            or self.stall_rate or self.stall_units
            or self.transient_rate or self.transient_units
            or self.corrupt_rate or self.corrupt_saves
            or (self.skew_rate and self.skew_max_s)
        )


class FaultSchedule:
    """Pure decision functions over a :class:`FaultsConfig`.

    Every method is deterministic: same config, same arguments, same
    answer -- in the parent, in a forked worker, and after a resume.
    """

    def __init__(self, config: FaultsConfig):
        self.config = config
        self._crash_units = frozenset(config.crash_units)
        self._stall_units = frozenset(config.stall_units)
        self._transient_units = frozenset(config.transient_units)
        self._corrupt_saves = frozenset(config.corrupt_saves)

    # -- internal hashing -------------------------------------------
    def _word(self, kind: int, value: int) -> int:
        z = _mix64((self.config.seed ^ (kind * _MIX_A)) & _MASK)
        return _mix64((z + value) & _MASK)

    def _word_str(self, kind: int, tag: str, value: int) -> int:
        z = _mix64((self.config.seed ^ (kind * _MIX_A)) & _MASK)
        for byte in tag.encode("utf-8"):
            z = _mix64((z + byte + 1) & _MASK)
        return _mix64((z + value) & _MASK)

    # -- injector decisions -----------------------------------------
    def crash(self, unit_index: int, attempt: int) -> bool:
        """Should attempt ``attempt`` (0-based) at this unit crash?"""
        cfg = self.config
        if attempt >= cfg.crash_repeats:
            return False
        if unit_index in self._crash_units:
            return True
        if cfg.crash_rate <= 0.0:
            return False
        return _uniform01(self._word(_KIND_CRASH, unit_index)) < cfg.crash_rate

    def stall_s_for(self, unit_index: int, attempt: int) -> float:
        """Seconds this attempt should stall (0.0 = no stall)."""
        cfg = self.config
        if attempt >= cfg.stall_repeats:
            return 0.0
        if unit_index in self._stall_units:
            return cfg.stall_s
        if cfg.stall_rate <= 0.0:
            return 0.0
        word = self._word(_KIND_STALL, unit_index)
        return cfg.stall_s if _uniform01(word) < cfg.stall_rate else 0.0

    def transient(self, unit_index: int, attempt: int) -> bool:
        """Should this attempt raise a transient build exception?"""
        cfg = self.config
        if attempt >= cfg.transient_repeats:
            return False
        if unit_index in self._transient_units:
            return True
        if cfg.transient_rate <= 0.0:
            return False
        word = self._word(_KIND_TRANSIENT, unit_index)
        return _uniform01(word) < cfg.transient_rate

    def corrupt(self, tag: str, save_ordinal: int) -> bool:
        """Should the ``save_ordinal``-th save of store ``tag`` corrupt?"""
        cfg = self.config
        if save_ordinal in self._corrupt_saves:
            return True
        if cfg.corrupt_rate <= 0.0:
            return False
        word = self._word_str(_KIND_CORRUPT, tag, save_ordinal)
        return _uniform01(word) < cfg.corrupt_rate

    def cadence_skew_s(self, name: str, cycle: int) -> float:
        """Signed cadence-tick skew in [-skew_max_s, +skew_max_s]."""
        cfg = self.config
        if cfg.skew_rate <= 0.0 or cfg.skew_max_s <= 0.0:
            return 0.0
        gate = self._word_str(_KIND_SKEW, name, cycle)
        if _uniform01(gate) >= cfg.skew_rate:
            return 0.0
        magnitude = self._word_str(_KIND_SKEW, name, cycle ^ _MASK)
        return (2.0 * _uniform01(magnitude) - 1.0) * cfg.skew_max_s


# -- process-global plane -------------------------------------------
_PLANE: Optional[FaultSchedule] = None


def install(config: FaultsConfig) -> FaultSchedule:
    """Install a fault plane process-wide (inherited by forked workers)."""
    global _PLANE
    _PLANE = FaultSchedule(config)
    return _PLANE


def get_plane() -> Optional[FaultSchedule]:
    """The installed fault plane, or None in production runs."""
    return _PLANE


def uninstall() -> None:
    """Remove the installed fault plane (tests)."""
    global _PLANE
    _PLANE = None


# -- recovery policies ----------------------------------------------
@dataclass(frozen=True)
class SupervisionPolicy:
    """How :class:`~repro.stream.source.ShardedSource` supervises shards.

    ``stall_timeout_s`` is measured from when the *merge* began waiting
    on a shard's next in-order unit, so a shard that is merely
    backpressured by a slow consumer is never misdiagnosed as hung.
    ``max_restarts`` bounds per-shard restarts before quarantine;
    ``unit_attempts`` bounds in-worker retries of a unit whose build
    raises before the unit is declared failed.
    """

    stall_timeout_s: float = 5.0
    poll_s: float = 0.05
    max_restarts: int = 2
    restart_backoff_s: float = 0.05
    backoff_ceiling_s: float = 2.0
    unit_attempts: int = 2

    def __post_init__(self):
        _check_positive("stall_timeout_s", self.stall_timeout_s)
        _check_positive("poll_s", self.poll_s)
        if not isinstance(self.max_restarts, int) or self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be an integer >= 0, got {self.max_restarts!r}"
            )
        _check_non_negative("restart_backoff_s", self.restart_backoff_s)
        _check_non_negative("backoff_ceiling_s", self.backoff_ceiling_s)
        _check_positive_int("unit_attempts", self.unit_attempts)


@dataclass(frozen=True)
class RetryPolicy:
    """Per-campaign cycle retry budget for the service supervisor.

    ``max_attempts`` consecutive cycle failures park the campaign in a
    ``degraded`` state (crash-loop detection) instead of killing the
    whole service; any successful cycle resets the count.
    """

    max_attempts: int = 3
    backoff_s: float = 1.0
    backoff_ceiling_s: float = 30.0

    def __post_init__(self):
        _check_positive_int("max_attempts", self.max_attempts)
        _check_non_negative("backoff_s", self.backoff_s)
        _check_non_negative("backoff_ceiling_s", self.backoff_ceiling_s)


def backoff_delay(
    base_s: float,
    ceiling_s: float,
    failures: int,
    seed: int,
    key: int,
) -> float:
    """Deterministic exponential backoff with hash-jitter.

    ``failures`` is 1-based (first retry waits ~``base_s``).  The
    jitter multiplier lives in [0.5, 1.5) and is a pure function of
    ``(seed, key, failures)``, so restart timing -- like everything
    else in this plane -- reproduces exactly.
    """
    if base_s <= 0:
        return 0.0
    exponent = max(0, failures - 1)
    # Cap the exponent so huge failure counts can't overflow floats.
    delay = base_s * (2.0 ** min(exponent, 32))
    if ceiling_s > 0:
        delay = min(delay, ceiling_s)
    word = _mix64((seed ^ (_KIND_JITTER * _MIX_A)) & _MASK)
    word = _mix64((word + key) & _MASK)
    word = _mix64((word + failures) & _MASK)
    return delay * (0.5 + _uniform01(word))


# -- strict JSON loaders --------------------------------------------
_FAULTS_FIELDS = frozenset(FaultsConfig.__dataclass_fields__)
_SUPERVISION_FIELDS = frozenset(SupervisionPolicy.__dataclass_fields__)
_RETRY_FIELDS = frozenset(RetryPolicy.__dataclass_fields__)


def _strict_kwargs(payload: dict, fields: frozenset, label: str) -> dict:
    if not isinstance(payload, dict):
        raise ValueError(f"{label} must be an object, got {payload!r}")
    unknown = sorted(set(payload) - fields)
    if unknown:
        raise ValueError(f"unknown {label} keys: {', '.join(unknown)}")
    return dict(payload)


def faults_config_from_dict(payload: dict) -> FaultsConfig:
    """Build a :class:`FaultsConfig` from parsed JSON, rejecting typos."""
    return FaultsConfig(
        **_strict_kwargs(payload, _FAULTS_FIELDS, "faults config")
    )


def supervision_policy_from_dict(payload: dict) -> SupervisionPolicy:
    """Build a :class:`SupervisionPolicy` from parsed JSON."""
    return SupervisionPolicy(
        **_strict_kwargs(payload, _SUPERVISION_FIELDS, "supervision policy")
    )


def retry_policy_from_dict(payload: dict) -> RetryPolicy:
    """Build a :class:`RetryPolicy` from parsed JSON."""
    return RetryPolicy(
        **_strict_kwargs(payload, _RETRY_FIELDS, "retry policy")
    )


def load_faults_config(path, seed: Optional[int] = None) -> FaultsConfig:
    """Load a faults config JSON file, optionally overriding its seed."""
    with open(path) as handle:
        payload = json.load(handle)
    config = faults_config_from_dict(payload)
    if seed is not None:
        config = dataclasses.replace(config, seed=seed)
    return config
