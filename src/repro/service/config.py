"""Declarative shape of one mesh campaign.

A :class:`CampaignConfig` names one recurring synthetic-mesh campaign
-- how many mesh rounds each cycle covers (``rounds_per_cycle``), how
many cycles it runs, and how wide the stream fan-out runs.  Counts must
be integers and durations finite numbers: a float or ``bool`` count,
or a NaN or ``bool`` cadence, fails here, not halfway through a
campaign.

The config is a frozen dataclass so
:func:`repro.harness.engine.config_fingerprint` covers every field --
the campaign checkpoint fingerprint is derived from it, which is what
makes "resume against a changed config" structurally impossible (the
checkpoint reads as a miss and the campaign restarts).  CCH001 watches
this file for knobs that silently escape the fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.stream.mesh import MeshConfig, _check_positive_int

__all__ = ["CAMPAIGN_KINDS", "CampaignConfig"]

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
    is unbounded), and ``cycles=None`` means the caller decides when to
    stop.  A ``mesh`` block's ``rounds_per_cycle`` must equal the
    campaign's.  ``kind`` has the one value ``"mesh"``; it stays a
    field because the checkpoint fingerprint covers every field.
    """

    name: str
    kind: str = "mesh"
    cadence_s: float = 900.0
    """Seconds between cycles when an always-on scheduler ran them.
    Nothing schedules cycles any more; the field stays, validated, only
    because the checkpoint fingerprint covers every field, and it leaves
    together with the campaign core."""
    rounds_per_cycle: int = 8
    cycles: Optional[int] = None
    shards: int = 1
    queue_units: int = 4
    checkpoint_every: int = 64
    mesh: Optional[MeshConfig] = None
    retry: None = None
    """Once a cycle retry budget for the always-on scheduler; only
    ``None`` is accepted now.  It stays only because the checkpoint
    fingerprint covers every field, and it leaves together with the
    campaign core."""

    def __post_init__(self) -> None:
        if not self.name or any(c in self.name for c in " /{}"):
            raise ValueError(f"invalid campaign name {self.name!r}")
        if self.kind in _RETIRED_KINDS:
            raise ValueError(
                f"campaign kind {self.kind!r} was retired; campaigns "
                f"run only {CAMPAIGN_KINDS}"
            )
        if self.kind not in CAMPAIGN_KINDS:
            raise ValueError(
                f"unknown campaign kind {self.kind!r}; valid: {CAMPAIGN_KINDS}"
            )
        if (
            isinstance(self.cadence_s, bool)
            or not isinstance(self.cadence_s, (int, float))
            or not (math.isfinite(self.cadence_s) and self.cadence_s > 0)
        ):
            raise ValueError(
                f"cadence_s must be finite and > 0, got {self.cadence_s!r}"
            )
        for name in ("rounds_per_cycle", "shards", "queue_units", "checkpoint_every"):
            _check_positive_int(name, getattr(self, name))
        if self.cycles is not None:
            _check_positive_int("cycles", self.cycles)
        if self.retry is not None:
            raise ValueError(
                f"campaign retry policies were retired; retry must be None, "
                f"got {self.retry!r}"
            )
        if (
            self.mesh is not None
            and self.mesh.rounds_per_cycle != self.rounds_per_cycle
        ):
            raise ValueError(
                f"mesh rounds_per_cycle {self.mesh.rounds_per_cycle} "
                f"disagrees with the campaign's {self.rounds_per_cycle}"
            )
