"""The checkpointed, sharded synthetic-mesh campaign.

The paper's platform ran a 16-month always-on campaign: full-mesh
traceroutes every 3 hours, pings every 15 minutes, continuously.  The
paper's analyses run on the batch pipeline (``reproduce``); this
package keeps the campaign's durable core, run over the synthetic
million-pair mesh (:mod:`repro.stream.mesh`) by the benchmark's
``service-mesh`` workload:

- :mod:`repro.service.config` -- the declarative campaign shape
  (name, shard fan-out, cycle horizon).
- :mod:`repro.service.campaign` -- one named campaign as a durable unit
  of work: the mesh driver builds each cycle's source, the operator
  accumulates across cycles, and the versioned checkpoint store makes
  kill/restart resume byte-identical.
- :mod:`repro.service.completeness` -- the delivered/missing accounting
  every finished campaign reports.
- :mod:`repro.service.checkpoint` -- fingerprint-keyed atomic campaign
  snapshots (schema-versioned; a tier-1 test pins what they pickle to
  the version).

A caller drives a campaign with ``Campaign.restore()`` and
``Campaign.run_cycle()``; no command runs it.
"""

from repro.service.campaign import Campaign, driver_for
from repro.service.checkpoint import (
    CAMPAIGN_CHECKPOINT_SCHEMA,
    CampaignCheckpointStore,
    campaign_fingerprint,
)
from repro.service.completeness import DataCompleteness
from repro.service.config import CampaignConfig

__all__ = [
    "CAMPAIGN_CHECKPOINT_SCHEMA",
    "Campaign",
    "CampaignCheckpointStore",
    "CampaignConfig",
    "DataCompleteness",
    "campaign_fingerprint",
    "driver_for",
]
