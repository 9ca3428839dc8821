"""Durable campaign snapshots: one fingerprint-keyed file per campaign.

The service's durability contract in one sentence: **a killed service,
restarted against the same config, resumes every campaign from its last
checkpoint and finishes with byte-identical results.**  This module is
the mechanism -- an atomic temp-file-and-rename pickle store over the
checksummed framing of :mod:`repro.stream.snapshot`, keyed per campaign
and carrying the campaign's cycle position plus its incremental
operator wholesale.

The fingerprint covers the :class:`~repro.service.config.CampaignConfig`
(and, for platform campaigns, the platform config) together with
:data:`CAMPAIGN_CHECKPOINT_SCHEMA`; any config or layout change turns
old snapshots into clean misses, never wrong resumes.  SCH010 pins the
payload's field set against ``schema_snapshot.json``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.faults.plane import get_plane
from repro.harness.engine import config_fingerprint
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.stream.snapshot import (
    SnapshotCorrupt,
    corrupt_file,
    fallback_path,
    reap_stale_temps,
    read_snapshot,
    write_snapshot,
)

__all__ = [
    "CAMPAIGN_CHECKPOINT_SCHEMA",
    "campaign_fingerprint",
    "CampaignCheckpointStore",
]

CAMPAIGN_CHECKPOINT_SCHEMA = 2
"""Bump when the pickled campaign snapshot changes shape.

Version 2: snapshots moved to the checksummed, generation-rotated
framing of :mod:`repro.stream.snapshot`, and the payload carries the
campaign's :class:`~repro.faults.completeness.DataCompleteness` state
so a resumed degraded campaign still reports its exact deficit.

Part of the checkpoint fingerprint surface (CCH001's contract): bumping
it orphans every existing snapshot as a schema mismatch instead of
letting a new service version resume state it no longer understands.
"""

_LOG = get_logger("repro.service.checkpoint")


def campaign_fingerprint(*parts: object) -> str:
    """Fingerprint of everything one campaign's resume depends on.

    Callers pass the campaign config and whatever the driver measures
    against (the platform config for trace/ping, nothing extra for the
    self-describing mesh); the schema version is mixed in here.
    """
    return config_fingerprint(
        "campaign-checkpoint", CAMPAIGN_CHECKPOINT_SCHEMA, *parts
    )


class CampaignCheckpointStore:
    """Atomic on-disk snapshots of one campaign's progress.

    Writes go to a temp file in the same directory followed by an
    atomic rename, so a SIGKILL mid-save leaves the previous snapshot
    intact and a resume never observes a torn file.
    """

    def __init__(
        self, directory: Union[str, Path], name: str, fingerprint: str
    ) -> None:
        self.directory = Path(directory)
        self.name = name
        self.fingerprint = fingerprint
        self._saves = 0
        reaped = reap_stale_temps(
            self.directory, f"campaign-{name}-{fingerprint}"
        )
        if reaped:
            obs_metrics.counter(
                f"service.checkpoint.temps_reaped{{campaign={name}}}"
            ).inc(len(reaped))
            _LOG.info(
                "service.checkpoint.temps_reaped",
                campaign=name,
                count=len(reaped),
                paths=",".join(p.name for p in reaped),
            )

    @property
    def path(self) -> Path:
        """Where this campaign's snapshot lives."""
        return self.directory / f"campaign-{self.name}-{self.fingerprint}.ckpt"

    def save(
        self,
        cycle: int,
        units_done: int,
        operator_state: object,
        results: Optional[Dict[str, object]] = None,
        completeness: Optional[Dict[str, object]] = None,
    ) -> None:
        """Snapshot the campaign mid-cycle (or finished, with results).

        ``cycle`` is the cycle currently being ingested, ``units_done``
        how many of its units the operator has fully consumed;
        ``results`` is only present on the final snapshot of a finished
        campaign (the restart then re-serves them without re-ingesting).
        ``completeness`` carries the campaign's delivered/missing
        accounting so a degraded campaign's deficit survives restarts.
        """
        started = time.perf_counter()
        payload = {
            "schema": CAMPAIGN_CHECKPOINT_SCHEMA,
            "fingerprint": self.fingerprint,
            "campaign": self.name,
            "cycle": int(cycle),
            "units_done": int(units_done),
            "operator": operator_state,
            "results": results,
            "completeness": completeness,
        }
        write_snapshot(self.path, payload)
        plane = get_plane()
        if plane is not None and plane.corrupt(
            f"campaign-{self.name}", self._saves
        ):
            obs_metrics.counter("faults.injected").inc()
            obs_metrics.counter("faults.injected{kind=corrupt}").inc()
            _LOG.warning(
                "faults.injected", kind="corrupt",
                store=f"campaign-{self.name}", save=self._saves,
            )
            corrupt_file(self.path)
        self._saves += 1
        elapsed = time.perf_counter() - started
        obs_metrics.counter(
            f"service.checkpoint.saves{{campaign={self.name}}}"
        ).inc()
        obs_metrics.histogram("service.checkpoint_seconds").observe(elapsed)
        obs_live.get_status().set_campaign(
            self.name,
            fingerprint=self.fingerprint,
            cycle=int(cycle),
            units_done=int(units_done),
        )
        _LOG.debug(
            "service.checkpoint.saved",
            campaign=self.name,
            cycle=cycle,
            units_done=units_done,
            seconds=round(elapsed, 6),
        )

    def load(self) -> Optional[Dict[str, object]]:
        """The snapshot, or ``None`` when absent, corrupt, or mismatched.

        A corrupt or torn primary falls back to the previous generation
        (``.1``); replaying the few extra units from the older resume
        point is bit-identical, so recovery is always safe.
        """
        payload = None
        primary_corrupt = False
        try:
            payload = read_snapshot(self.path)
        except FileNotFoundError:
            pass
        except SnapshotCorrupt:
            primary_corrupt = True
            obs_metrics.counter("service.checkpoint.corrupt").inc()
            _LOG.warning("service.checkpoint.corrupt", path=str(self.path))
        if payload is None:
            fallback = fallback_path(self.path)
            try:
                payload = read_snapshot(fallback)
            except FileNotFoundError:
                return None
            except SnapshotCorrupt:
                if primary_corrupt:
                    _LOG.warning(
                        "service.checkpoint.fallback_corrupt",
                        path=str(fallback),
                    )
                return None
            obs_metrics.counter(
                f"service.checkpoint.recovered{{campaign={self.name}}}"
            ).inc()
            _LOG.warning(
                "service.checkpoint.recovered",
                campaign=self.name,
                path=str(fallback),
            )
        if not isinstance(payload, dict):
            obs_metrics.counter("service.checkpoint.corrupt").inc()
            return None
        if payload.get("schema") != CAMPAIGN_CHECKPOINT_SCHEMA:
            obs_metrics.counter("service.checkpoint.schema_mismatch").inc()
            _LOG.warning(
                "service.checkpoint.schema_mismatch",
                found=payload.get("schema"),
                expected=CAMPAIGN_CHECKPOINT_SCHEMA,
            )
            return None
        if payload.get("fingerprint") != self.fingerprint:
            obs_metrics.counter("service.checkpoint.fingerprint_mismatch").inc()
            return None
        obs_metrics.counter(
            f"service.checkpoint.loads{{campaign={self.name}}}"
        ).inc()
        return payload

    def clear(self) -> None:
        """Remove the snapshot, its fallback generation, and any temps."""
        for stale in (self.path, fallback_path(self.path)):
            try:
                stale.unlink()
            except FileNotFoundError:
                pass
        reap_stale_temps(
            self.directory, f"campaign-{self.name}-{self.fingerprint}"
        )
