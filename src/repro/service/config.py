"""Declarative shapes of the campaign service.

A :class:`CampaignConfig` names one recurring synthetic-mesh campaign
-- how often a cycle fires (``cadence_s``), how many mesh rounds each
cycle covers (``rounds_per_cycle``), how many cycles it runs, and how
wide the stream fan-out runs.  A :class:`ServiceConfig` is the whole
service: the campaign list plus the durability/exposition knobs.
Counts must be integers and durations finite: a float count or a NaN
cadence fails here, not halfway through a campaign.

Both are frozen dataclasses so
:func:`repro.harness.engine.config_fingerprint` covers every field --
the campaign checkpoint fingerprint is derived from them, which is what
makes "resume against a changed config" structurally impossible (the
checkpoint reads as a miss and the campaign restarts).  CCH001 watches
this file for knobs that silently escape the fingerprint.

``time_scale`` compresses the clock for tests and CI smoke runs: a
15-minute cadence at ``time_scale=0.001`` fires every 0.9 s.  It
scales *scheduling* only -- mesh rounds and results are completely
unaffected, so a compressed run's output is byte-identical to a
real-time run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.faults.plane import (
    RetryPolicy,
    SupervisionPolicy,
    _check_positive,
    _check_positive_int,
    retry_policy_from_dict,
    supervision_policy_from_dict,
)
from repro.obs.expo import DEFAULT_METRICS_PORT
from repro.stream.mesh import MeshConfig

__all__ = [
    "CAMPAIGN_KINDS",
    "CampaignConfig",
    "ServiceConfig",
    "service_config_from_dict",
]

CAMPAIGN_KINDS = ("mesh",)
"""Supported campaign kinds: the synthetic million-pair mesh."""

_RETIRED_KINDS = ("trace", "ping")
"""Campaign kinds an older service ran over the simulated platform.
Their configs fail loudly rather than run as something else."""


@dataclass(frozen=True)
class CampaignConfig:
    """One named recurring mesh campaign.

    ``rounds_per_cycle`` mesh rounds are ingested per cycle; the
    campaign finishes after ``cycles`` cycles (the counter-hash grid
    is unbounded), and ``cycles=None`` means run until drained.  A
    ``mesh`` block's ``rounds_per_cycle`` must equal the campaign's.
    ``kind`` has the one value ``"mesh"``; it stays a field because
    the checkpoint fingerprint covers every field.
    """

    name: str
    kind: str = "mesh"
    cadence_s: float = 900.0
    rounds_per_cycle: int = 8
    cycles: Optional[int] = None
    shards: int = 1
    queue_units: int = 4
    checkpoint_every: int = 64
    mesh: Optional[MeshConfig] = None
    retry: Optional[RetryPolicy] = None
    """Cycle retry/crash-loop budget; ``None`` uses the supervisor's
    default :class:`~repro.faults.plane.RetryPolicy`.  Part of the
    checkpoint fingerprint (like every campaign knob): changing the
    retry budget restarts the campaign rather than resuming state that
    ran under different failure semantics."""

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in " /{}"):
            raise ValueError(f"invalid campaign name {self.name!r}")
        if self.kind in _RETIRED_KINDS:
            raise ValueError(
                f"campaign kind {self.kind!r} was retired; the service runs "
                f"only {CAMPAIGN_KINDS} campaigns"
            )
        if self.kind not in CAMPAIGN_KINDS:
            raise ValueError(
                f"unknown campaign kind {self.kind!r}; valid: {CAMPAIGN_KINDS}"
            )
        _check_positive("cadence_s", self.cadence_s)
        for name in ("rounds_per_cycle", "shards", "queue_units", "checkpoint_every"):
            _check_positive_int(name, getattr(self, name))
        if self.cycles is not None:
            _check_positive_int("cycles", self.cycles)
        if (
            self.mesh is not None
            and self.mesh.rounds_per_cycle != self.rounds_per_cycle
        ):
            raise ValueError(
                f"mesh rounds_per_cycle {self.mesh.rounds_per_cycle} "
                f"disagrees with the campaign's {self.rounds_per_cycle}"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """The whole service: campaigns plus durability and exposition."""

    campaigns: Tuple[CampaignConfig, ...]
    checkpoint_dir: str = "service-state"
    time_scale: float = 1.0
    host: str = "127.0.0.1"
    port: int = DEFAULT_METRICS_PORT
    live_interval_s: float = 1.0
    drain_after_s: Optional[float] = None
    """Automatic drain deadline on the monotonic clock (CI smoke runs);
    ``None`` means run until SIGTERM or a ``/drain`` request."""
    drain_grace_s: float = 30.0
    """How long a drain waits for an in-flight cycle before abandoning
    it and marking the campaign degraded (hung-cycle detection).  Scaled
    by ``time_scale`` like every other schedule knob."""
    supervision: Optional[SupervisionPolicy] = None
    """Shard supervision for every campaign's stream fan-out; ``None``
    keeps the unsupervised fail-fast path.  Service-wide (not per
    campaign) and deliberately *outside* the campaign checkpoint
    fingerprint: supervision changes recovery behavior, never results,
    so tightening a timeout must not orphan checkpoints."""

    def __post_init__(self) -> None:
        if not self.campaigns:
            raise ValueError("a service needs at least one campaign")
        names = [campaign.name for campaign in self.campaigns]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate campaign names in {names}")
        _check_positive("time_scale", self.time_scale)
        _check_positive("live_interval_s", self.live_interval_s)
        if self.drain_after_s is not None:
            _check_positive("drain_after_s", self.drain_after_s)
        _check_positive("drain_grace_s", self.drain_grace_s)


_CAMPAIGN_FIELDS = {f.name for f in CampaignConfig.__dataclass_fields__.values()}
_SERVICE_FIELDS = {
    f.name for f in ServiceConfig.__dataclass_fields__.values()
} - {"campaigns"}
_MESH_FIELDS = {f.name for f in MeshConfig.__dataclass_fields__.values()}


def service_config_from_dict(payload: Dict[str, object]) -> ServiceConfig:
    """A :class:`ServiceConfig` from a JSON document.

    Unknown keys fail loudly (a typo'd knob must not silently become a
    default); the ``mesh`` sub-document maps onto
    :class:`~repro.stream.mesh.MeshConfig`, taking the campaign's
    ``rounds_per_cycle`` when it names none.
    """
    if not isinstance(payload, dict):
        raise ValueError("service config must be a JSON object")
    campaigns = payload.get("campaigns")
    if not isinstance(campaigns, list):
        raise ValueError("service config needs a 'campaigns' list")
    built = []
    for entry in campaigns:
        if not isinstance(entry, dict):
            raise ValueError("each campaign must be a JSON object")
        unknown = set(entry) - _CAMPAIGN_FIELDS
        if unknown:
            raise ValueError(f"unknown campaign keys: {sorted(unknown)}")
        fields = dict(entry)
        mesh = fields.get("mesh")
        if mesh is not None:
            if not isinstance(mesh, dict):
                raise ValueError("'mesh' must be a JSON object")
            unknown = set(mesh) - _MESH_FIELDS
            if unknown:
                raise ValueError(f"unknown mesh keys: {sorted(unknown)}")
            mesh = dict(mesh)
            mesh.setdefault(
                "rounds_per_cycle",
                fields.get("rounds_per_cycle", CampaignConfig.rounds_per_cycle),
            )
            fields["mesh"] = MeshConfig(**mesh)
        retry = fields.get("retry")
        if retry is not None:
            fields["retry"] = retry_policy_from_dict(retry)
        built.append(CampaignConfig(**fields))
    service = {
        key: value for key, value in payload.items() if key != "campaigns"
    }
    unknown = set(service) - _SERVICE_FIELDS
    if unknown:
        raise ValueError(f"unknown service keys: {sorted(unknown)}")
    supervision = service.get("supervision")
    if supervision is not None:
        service["supervision"] = supervision_policy_from_dict(supervision)
    return ServiceConfig(campaigns=tuple(built), **service)
