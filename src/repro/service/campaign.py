"""One named campaign as a durable, resumable unit of work.

A campaign is a *driver* (how to build cycle ``c``'s source and how to
summarize the operator at the end) plus a :class:`Campaign` runtime
that owns the operator across cycles, checkpoints at unit boundaries,
and writes the final results as canonical JSON.

Determinism contract: cycle ``c`` of a campaign feeds the operator
exactly the mesh rounds ``[c*W, (c+1)*W)``, generated from a stateless
counter hash.  The operator carries its cross-cycle state internally
and absorbs units in order, so the concatenation of all cycles is
bit-identical to one uninterrupted feed -- and so is any kill/restart
replay from a checkpoint, which is the campaign's durability story.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.service.checkpoint import CampaignCheckpointStore, campaign_fingerprint
from repro.service.completeness import DataCompleteness
from repro.service.config import CampaignConfig
from repro.stream.mesh import (
    FoldedMeshSource,
    MeshConfig,
    MeshStatsOperator,
    SyntheticMeshSource,
    mesh_results,
)
from repro.stream.source import ShardedSource, StreamUnit

__all__ = ["Campaign", "driver_for", "MeshDriver"]

_LOG = get_logger("repro.service.campaign")


class MeshDriver:
    """Cycles over the synthetic mesh (unbounded grid, O(1) state).

    A cycle's units carry folded blocks: the fold runs where a block is
    built (in the shard, or inline with one shard), and the campaign's
    operator only absorbs them in unit order.
    """

    def __init__(self, config: CampaignConfig) -> None:
        self.config = config
        self.mesh = (
            config.mesh if config.mesh is not None
            else MeshConfig(rounds_per_cycle=config.rounds_per_cycle)
        )
        self.total_cycles: Optional[int] = config.cycles

    def fingerprint_parts(self) -> tuple:
        return (self.config,)

    def source_for_cycle(self, cycle: int) -> FoldedMeshSource:
        return FoldedMeshSource(
            SyntheticMeshSource(self.mesh, cycle=cycle), self.make_operator()
        )

    def make_operator(self) -> MeshStatsOperator:
        return MeshStatsOperator()

    def results(
        self, operator: MeshStatsOperator, cycles_done: int
    ) -> Dict[str, object]:
        return mesh_results(operator, cycles_done)


def driver_for(config: CampaignConfig) -> MeshDriver:
    """The driver of a campaign config (every campaign is a mesh)."""
    return MeshDriver(config)


class Campaign:
    """The durable runtime of one named campaign.

    The caller drives it one cycle at a time on one thread: a fresh
    campaign may first :meth:`restore` its last checkpoint, then each
    :meth:`run_cycle` ingests one cycle in unit order (fanned across
    forked shard workers when ``shards > 1``) and returns.  A cycle
    that raises leaves the last checkpoint as the resume point; a
    fresh campaign restored from it finishes byte-identically.
    """

    def __init__(self, config: CampaignConfig, driver, checkpoint_dir: Path) -> None:
        self.config = config
        self.driver = driver
        self.completeness = DataCompleteness()
        self.fingerprint = campaign_fingerprint(*driver.fingerprint_parts())
        self.store = CampaignCheckpointStore(
            checkpoint_dir, config.name, self.fingerprint
        )
        self.operator = driver.make_operator()
        self.cycle = 0
        self.units_done = 0
        self.results: Optional[Dict[str, object]] = None

    @property
    def done(self) -> bool:
        """Whether the campaign has produced its final results."""
        return self.results is not None

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def restore(self) -> bool:
        """Adopt the last checkpoint if one matches; ``True`` if resumed."""
        payload = self.store.load()
        if payload is None:
            return False
        self.cycle = int(payload["cycle"])
        self.units_done = int(payload["units_done"])
        self.operator = payload["operator"]
        self.completeness = DataCompleteness.from_state(payload.get("completeness"))
        self.results = payload.get("results")
        _LOG.info(
            "service.campaign.resumed_from_checkpoint",
            campaign=self.config.name,
            cycle=self.cycle,
            units_done=self.units_done,
            done=self.done,
        )
        return True

    @property
    def results_path(self) -> Path:
        """Where the finished campaign's canonical JSON results land."""
        return self.store.directory / f"results-{self.config.name}.json"

    def _write_results(self) -> None:
        self.store.directory.mkdir(parents=True, exist_ok=True)
        body = json.dumps(self.results, sort_keys=True, indent=2) + "\n"
        self.results_path.write_text(body)

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------

    def _units(self, source) -> Iterator[StreamUnit]:
        if self.config.shards > 1:
            sharded = ShardedSource(
                source, self.config.shards, self.config.queue_units
            )
            return sharded.iter_from(self.units_done)
        return (
            source.unit_at(index)
            for index in range(self.units_done, len(source))
        )

    def _save(self, cycle: int, units_done: int, **extra: object) -> None:
        self.store.save(
            cycle, units_done, self.operator,
            completeness=self.completeness.state(), **extra,
        )

    def run_cycle(self) -> str:
        """Ingest one cycle; returns ``completed|finished|skipped``.

        Resumes from ``self.units_done`` within the cycle (non-zero only
        right after a mid-cycle restore) and checkpoints every
        ``checkpoint_every`` units and at the cycle's end.
        """
        if self.done:
            return "skipped"
        name = self.config.name
        source = self.driver.source_for_cycle(self.cycle)
        total_units = len(source)
        units_counter = obs_metrics.counter(f"service.units{{campaign={name}}}")
        records_counter = obs_metrics.counter(f"service.records{{campaign={name}}}")
        iterator = self._units(source)
        try:
            for unit in iterator:
                self.operator.observe_columns(unit.columns)
                self.completeness.deliver()
                units_counter.inc()
                records_counter.inc(unit.record_count)
                self.units_done += 1
                if (
                    self.units_done % self.config.checkpoint_every == 0
                    and self.units_done < total_units
                ):
                    self._save(self.cycle, self.units_done)
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()  # drains shard workers deterministically

        self.cycle += 1
        self.units_done = 0
        obs_metrics.counter(f"service.cycles{{campaign={name}}}").inc()
        total = self.driver.total_cycles
        if total is not None and self.cycle >= total:
            self.results = self.driver.results(self.operator, self.cycle)
            # Every finished campaign reports its coverage: 1.0 with an
            # empty missing list, since a cycle delivers every unit or
            # raises.
            self.results["completeness"] = self.completeness.report()
            self._save(self.cycle, 0, results=self.results)
            self._write_results()
            _LOG.info(
                "service.campaign.finished", campaign=name, cycles=self.cycle
            )
            return "finished"
        self._save(self.cycle, 0)
        return "completed"
