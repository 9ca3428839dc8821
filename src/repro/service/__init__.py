"""The always-on measurement campaign service.

The paper's platform ran a 16-month always-on campaign: full-mesh
traceroutes every 3 hours, pings every 15 minutes, continuously.  The
paper's analyses run on the batch pipeline (``reproduce``); this
package is the always-on operational layer, run at scale over the
synthetic million-pair mesh (:mod:`repro.stream.mesh`):

- :mod:`repro.service.config` -- declarative campaign + service shapes
  (name, cadence, shard fan-out, cycle horizon).
- :mod:`repro.service.campaign` -- one named campaign as a durable unit
  of work: the mesh driver builds each cycle's source, the operator
  accumulates across cycles, and the versioned checkpoint store makes
  kill/restart resume byte-identical.
- :mod:`repro.service.supervisor` -- the asyncio scheduler that owns
  every campaign's fire times, runs cycles on executor threads over the
  sharded stream source, and drains cleanly on SIGTERM.
- :mod:`repro.service.api` -- the ``/campaigns`` + pause/resume/drain
  control routes mounted on the :class:`repro.obs.expo.MetricsServer`.
- :mod:`repro.service.checkpoint` -- fingerprint-keyed atomic campaign
  snapshots (schema-versioned, SCH010-guarded).

Entry point: ``python -m repro service run --config service.json``.
"""

from repro.service.api import CAMPAIGNS_SCHEMA, ServiceAPI
from repro.service.campaign import Campaign, driver_for
from repro.service.checkpoint import (
    CAMPAIGN_CHECKPOINT_SCHEMA,
    CampaignCheckpointStore,
    campaign_fingerprint,
)
from repro.service.config import CampaignConfig, ServiceConfig, service_config_from_dict
from repro.service.supervisor import ServiceSupervisor

__all__ = [
    "CAMPAIGNS_SCHEMA",
    "CAMPAIGN_CHECKPOINT_SCHEMA",
    "Campaign",
    "CampaignCheckpointStore",
    "CampaignConfig",
    "ServiceAPI",
    "ServiceConfig",
    "ServiceSupervisor",
    "campaign_fingerprint",
    "driver_for",
    "service_config_from_dict",
]
