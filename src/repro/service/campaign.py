"""One named campaign as a durable, resumable unit of work.

A campaign is a *driver* (how to build cycle ``c``'s source and how to
summarize the operator at the end) plus a :class:`Campaign` runtime
that owns the operator across cycles, gates every unit on pause/drain,
checkpoints at unit boundaries, and writes the final results as
canonical JSON.

Determinism contract: cycle ``c`` of a campaign feeds the operator
exactly the mesh rounds ``[c*W, (c+1)*W)``, generated from a stateless
counter hash.  The operator carries its cross-cycle state internally
and absorbs units in order, so the concatenation of all cycles is
bit-identical to one uninterrupted feed -- and so is any kill/restart
replay from a checkpoint, which is the service's durability story.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.faults.completeness import DataCompleteness, MissingUnit
from repro.faults.plane import SupervisionPolicy
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger
from repro.service.checkpoint import CampaignCheckpointStore, campaign_fingerprint
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

    Threading model: ``run_cycle`` executes on a supervisor executor
    thread; ``pause``/``resume``/``request_drain`` are called from HTTP
    handler threads and the signal path, and only touch
    :class:`threading.Event` flags that the cycle loop polls at unit
    boundaries.  The campaign never blocks mid-unit: pause stalls the
    consumer (bounded shard queues then stall the producers -- the
    backpressure made visible in ``/metrics``), drain checkpoints at
    the boundary and returns.
    """

    def __init__(
        self,
        config: CampaignConfig,
        driver,
        checkpoint_dir: Path,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> None:
        self.config = config
        self.driver = driver
        self.supervision = supervision
        self.completeness = DataCompleteness()
        self.fingerprint = campaign_fingerprint(*driver.fingerprint_parts())
        self.store = CampaignCheckpointStore(
            checkpoint_dir, config.name, self.fingerprint
        )
        self.operator = driver.make_operator()
        self.cycle = 0
        self.units_done = 0
        self.results: Optional[Dict[str, object]] = None
        self.state = "idle"
        self._pause = threading.Event()
        self._pause.set()  # set = running allowed
        self._drain = threading.Event()

    # ------------------------------------------------------------------
    # Control surface (HTTP handler / signal threads)
    # ------------------------------------------------------------------

    @property
    def paused(self) -> bool:
        """Whether the pause gate is closed."""
        return not self._pause.is_set()

    @property
    def done(self) -> bool:
        """Whether the campaign has produced its final results."""
        return self.results is not None

    def pause(self) -> None:
        """Close the unit gate; the running cycle stalls at the next unit."""
        self._pause.clear()
        self._set_board(state="paused" if self.state != "done" else "done")
        _LOG.info("service.campaign.paused", campaign=self.config.name)

    def resume(self) -> None:
        """Reopen the unit gate."""
        self._pause.set()
        if self.state == "paused":
            self._set_board(state="idle")
        _LOG.info("service.campaign.resumed", campaign=self.config.name)

    def request_drain(self) -> None:
        """Ask the cycle loop to checkpoint and stop at the next boundary."""
        self._drain.set()

    def mark_degraded(self, reason: str) -> None:
        """Park the campaign: crash-looping or hung, but not fatal.

        A degraded campaign stops being scheduled; its state (and the
        reason) is visible via ``GET /campaigns`` and ``top``, and the
        rest of the service keeps running.
        """
        obs_metrics.counter("campaign.degraded").inc()
        obs_metrics.counter(
            f"campaign.degraded{{campaign={self.config.name}}}"
        ).inc()
        self._set_board(state="degraded", reason=reason)
        _LOG.warning(
            "service.campaign.degraded",
            campaign=self.config.name,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def restore(self) -> bool:
        """Adopt the last checkpoint if one matches; ``True`` if resumed."""
        payload = self.store.load()
        if payload is None:
            self._set_board(state="idle", cycle=0, units_done=0)
            return False
        self.cycle = int(payload["cycle"])
        self.units_done = int(payload["units_done"])
        self.operator = payload["operator"]
        self.completeness.adopt(payload.get("completeness"))
        results = payload.get("results")
        if results is not None:
            self.results = results
            self.state = "done"
        self._set_board(
            state="done" if self.done else "idle",
            cycle=self.cycle,
            units_done=self.units_done,
        )
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
    # The cycle loop (executor thread)
    # ------------------------------------------------------------------

    def _set_board(self, **fields: object) -> None:
        if "state" in fields:
            self.state = str(fields["state"])
        obs_live.get_status().set_campaign(
            self.config.name, fingerprint=self.fingerprint, **fields
        )

    def _wait_gate(self) -> bool:
        """Block while paused; ``False`` when drain should win instead."""
        while not self._pause.is_set():
            if self._drain.is_set():
                return False
            self._pause.wait(0.05)
        return not self._drain.is_set()

    def _units(self, source) -> Iterator[StreamUnit]:
        if self.supervision is not None:
            # Supervised runs always fan out (even one shard forks), so
            # a crash kills a worker, never the campaign.  The offset
            # view maps this cycle's unit indices into the campaign-wide
            # range (cycle sources all have the same length).
            sharded = ShardedSource(
                source,
                max(1, self.config.shards),
                self.config.queue_units,
                supervision=self.supervision,
                completeness=self.completeness.offset_view(
                    self.cycle * len(source)
                ),
            )
            return sharded.iter_from(self.units_done)
        if self.config.shards > 1:
            sharded = ShardedSource(
                source, self.config.shards, self.config.queue_units
            )
            return sharded.iter_from(self.units_done)
        return (
            source.unit_at(index)
            for index in range(self.units_done, len(source))
        )

    def _coverage_fields(self) -> Dict[str, object]:
        """Board fields surfacing an incomplete campaign's coverage."""
        if self.completeness.complete:
            return {}
        return {
            "coverage": round(self.completeness.coverage(), 6),
            "units_missing": self.completeness.missing_count,
        }

    def run_cycle(self) -> str:
        """Ingest one cycle; returns ``completed|finished|drained|skipped``.

        Resumes from ``self.units_done`` within the cycle (non-zero only
        right after a mid-cycle restore), checkpoints every
        ``checkpoint_every`` units and always at the drain boundary.
        """
        if self.done:
            return "skipped"
        name = self.config.name
        source = self.driver.source_for_cycle(self.cycle)
        total_units = len(source)
        units_counter = obs_metrics.counter(f"service.units{{campaign={name}}}")
        records_counter = obs_metrics.counter(f"service.records{{campaign={name}}}")
        missing_counter = obs_metrics.counter(
            f"service.units_missing{{campaign={name}}}"
        )
        self._set_board(
            state="running",
            cycle=self.cycle,
            units_done=self.units_done,
            units_total=total_units,
        )
        iterator = self._units(source)
        try:
            while True:
                if not self._wait_gate():
                    self.store.save(
                        self.cycle, self.units_done, self.operator,
                        completeness=self.completeness.state(),
                    )
                    self._set_board(
                        state="drained", units_done=self.units_done,
                        **self._coverage_fields(),
                    )
                    _LOG.info(
                        "service.campaign.drained",
                        campaign=name,
                        cycle=self.cycle,
                        units_done=self.units_done,
                    )
                    return "drained"
                try:
                    unit = next(iterator)
                except StopIteration:
                    break
                if isinstance(unit, MissingUnit):
                    # A quarantined shard's slot: accounted by the
                    # completeness accountant, counted here, and the
                    # unit offset still advances so checkpoint/resume
                    # indices stay aligned with unit indices.
                    missing_counter.inc()
                else:
                    self.operator.observe_columns(unit.columns)
                    self.completeness.deliver(
                        self.cycle * total_units + self.units_done
                    )
                    units_counter.inc()
                    records_counter.inc(unit.record_count)
                self.units_done += 1
                if (
                    self.units_done % self.config.checkpoint_every == 0
                    and self.units_done < total_units
                ):
                    self.store.save(
                        self.cycle, self.units_done, self.operator,
                        completeness=self.completeness.state(),
                    )
                    self._set_board(
                        units_done=self.units_done, **self._coverage_fields()
                    )
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
            # Every finished campaign reports its coverage -- 1.0 with
            # an empty missing list on a clean (or fully recovered) run,
            # so a healed faulty run's results are byte-identical to the
            # fault-free run's, and the deficit is exact otherwise.
            self.results["completeness"] = self.completeness.report()
            self.store.save(
                self.cycle, 0, self.operator, results=self.results,
                completeness=self.completeness.state(),
            )
            self._write_results()
            self._set_board(
                state="done", cycle=self.cycle, units_done=0,
                **self._coverage_fields(),
            )
            _LOG.info(
                "service.campaign.finished", campaign=name, cycles=self.cycle
            )
            return "finished"
        self.store.save(
            self.cycle, 0, self.operator,
            completeness=self.completeness.state(),
        )
        self._set_board(
            state="idle", cycle=self.cycle, units_done=0,
            **self._coverage_fields(),
        )
        return "completed"
