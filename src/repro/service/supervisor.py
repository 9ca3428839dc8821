"""The asyncio campaign supervisor: scheduling, drain, exposition.

One async task per campaign sleeps until the campaign's next fire time,
then runs the (synchronous, possibly sharded) cycle on an executor
thread -- campaigns overlap freely, the event loop stays responsive for
HTTP control requests, and cadences compress uniformly under
``time_scale``.  All scheduling runs on the monotonic clock (DET002:
the service package is wall-clock free), so clock jumps can never
double-fire or starve a campaign.

Shutdown is a *drain*, never an abort: SIGTERM (or ``POST /drain``, or
the configured ``drain_after_s`` deadline) sets every campaign's drain
flag and wakes the sleepers; running cycles stop at the next unit
boundary, checkpoint, and the supervisor exits cleanly with every
worker process joined -- the restart then resumes each campaign from
exactly that boundary, byte-identically.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import signal
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.faults.plane import RetryPolicy, backoff_delay, get_plane
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs.expo import MetricsServer
from repro.obs.live import FlightRecorder
from repro.obs.log import get_logger
from repro.service.api import ServiceAPI
from repro.service.campaign import Campaign, driver_for
from repro.service.config import ServiceConfig

__all__ = ["ServiceSupervisor"]

_LOG = get_logger("repro.service.supervisor")


class ServiceSupervisor:
    """Owns every campaign's lifecycle from restore to drain.

    Construction is cheap and synchronous; :meth:`run` blocks until
    every campaign finishes or a drain request lands.  Tests drive
    :meth:`run` directly; the CLI adds the live-out flight recorder.
    """

    def __init__(
        self,
        config: ServiceConfig,
        recorder: Optional[FlightRecorder] = None,
        serve: bool = True,
    ) -> None:
        self.config = config
        checkpoint_dir = Path(config.checkpoint_dir)
        self.campaigns: List[Campaign] = [
            Campaign(
                entry,
                driver_for(entry),
                checkpoint_dir,
                supervision=config.supervision,
            )
            for entry in config.campaigns
        ]
        self.recorder = recorder
        self.server: Optional[MetricsServer] = None
        self.api: Optional[ServiceAPI] = None
        self._serve = serve
        self._started_mono: Optional[float] = None
        self._draining = False
        self._abandoned = False
        """A hung cycle was abandoned on the executor; shutdown must not
        wait for its thread (it may never return)."""
        self._drain_async: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=max(1, len(self.campaigns)),
            thread_name_prefix="repro-campaign",
        )

    # ------------------------------------------------------------------
    # Control surface (thread-safe: HTTP handlers, signals)
    # ------------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """Whether a drain has been requested."""
        return self._draining

    def uptime_s(self) -> Optional[float]:
        """Seconds since :meth:`run` started (monotonic)."""
        if self._started_mono is None:
            return None
        return round(time.monotonic() - self._started_mono, 3)

    def campaign(self, name: str) -> Optional[Campaign]:
        """The campaign named ``name``, if any."""
        for campaign in self.campaigns:
            if campaign.config.name == name:
                return campaign
        return None

    def request_drain(self, reason: str = "request") -> None:
        """Stop every campaign at its next unit boundary; idempotent.

        Safe from any thread: flips the campaign flags directly (the
        cycle loops poll them) and wakes the async sleepers through the
        loop's thread-safe call scheduler.
        """
        if self._draining:
            return
        self._draining = True
        _LOG.info("service.drain.requested", reason=reason)
        obs_metrics.counter("service.drains").inc()
        for campaign in self.campaigns:
            campaign.request_drain()
        loop, event = self._loop, self._drain_async
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:  # loop already closed: nothing left to wake
                pass

    # ------------------------------------------------------------------
    # The async core
    # ------------------------------------------------------------------

    def run(self) -> Dict[str, str]:
        """Restore, schedule, serve, drain; returns campaign outcomes."""
        return asyncio.run(self._main())

    async def _main(self) -> Dict[str, str]:
        self._loop = asyncio.get_running_loop()
        self._drain_async = asyncio.Event()
        self._started_mono = time.monotonic()
        status = obs_live.get_status()
        status.begin_run(
            mode="service",
            campaigns=[c.config.name for c in self.campaigns],
        )
        status.set_phase("service")
        for campaign in self.campaigns:
            campaign.restore()
        if self._serve:
            self.server = MetricsServer(
                recorder=self.recorder,
                host=self.config.host,
                port=self.config.port,
            )
            self.api = ServiceAPI(self, self.server)
            self.server.start()
            _LOG.info("service.serving", url=self.server.url)
        self._install_signal_handlers()
        try:
            if self.config.drain_after_s is not None:
                self._loop.call_later(
                    self.config.drain_after_s,
                    self.request_drain,
                    "drain_after_s",
                )
            outcomes = await asyncio.gather(
                *(self._campaign_loop(c) for c in self.campaigns)
            )
        finally:
            self._remove_signal_handlers()
            # A hung cycle's thread may never return; waiting on it
            # would turn "exit cleanly despite a hung campaign" into a
            # deadlock.  (Python keeps a non-daemon executor thread
            # alive until interpreter exit regardless -- tests unhang
            # their fakes; a real hang is an operator page.)
            self._executor.shutdown(wait=not self._abandoned)
            if self.server is not None:
                self.server.close()
        results = {
            campaign.config.name: outcome
            for campaign, outcome in zip(self.campaigns, outcomes)
        }
        _LOG.info("service.stopped", outcomes=results)
        return results

    def _install_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(
                    signum, self.request_drain, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread or exotic platform: /drain still works

    def _remove_signal_handlers(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.remove_signal_handler(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass

    async def _sleep_until(self, deadline_mono: float) -> None:
        """Sleep until the monotonic deadline, or until drain wakes us."""
        delay = deadline_mono - time.monotonic()
        if delay <= 0:
            return
        try:
            await asyncio.wait_for(self._drain_async.wait(), timeout=delay)
        except asyncio.TimeoutError:
            pass

    async def _await_cycle(self, campaign: Campaign, name: str) -> str:
        """One cycle on the executor; ``__failed__``/``__hung__`` on trouble.

        If a drain lands while the cycle runs, the cycle gets
        ``drain_grace_s`` (time-scaled) to reach its next unit boundary;
        a cycle that never returns -- a hung executor task -- is then
        *abandoned*: the campaign is reported hung and shutdown stops
        waiting for its thread, so the process still exits cleanly.
        """
        future = self._loop.run_in_executor(self._executor, campaign.run_cycle)
        drain_wait = asyncio.ensure_future(self._drain_async.wait())
        try:
            done, _ = await asyncio.wait(
                {future, drain_wait}, return_when=asyncio.FIRST_COMPLETED
            )
            if future not in done:
                grace = self.config.drain_grace_s * self.config.time_scale
                try:
                    return str(
                        await asyncio.wait_for(asyncio.shield(future), grace)
                    )
                except asyncio.TimeoutError:
                    self._abandoned = True
                    _LOG.warning(
                        "service.campaign.cycle_hung",
                        campaign=name,
                        grace_s=grace,
                    )
                    return "__hung__"
                except Exception as exc:
                    _LOG.warning(
                        "service.campaign.cycle_failed",
                        campaign=name,
                        error=repr(exc),
                    )
                    return "__failed__"
            try:
                return str(future.result())
            except Exception as exc:
                _LOG.warning(
                    "service.campaign.cycle_failed",
                    campaign=name,
                    error=repr(exc),
                )
                return "__failed__"
        finally:
            drain_wait.cancel()

    async def _campaign_loop(self, campaign: Campaign) -> str:
        """Fire cycles at the campaign's cadence until done or drained.

        Cycle failures are retried under the campaign's
        :class:`~repro.faults.plane.RetryPolicy` (deterministic
        exponential backoff with hash-jitter); ``max_attempts``
        *consecutive* failures are a crash loop, which parks the
        campaign as ``degraded`` instead of killing the service.  An
        installed fault plane may also skew cadence ticks --
        scheduling only, results unaffected.
        """
        name = campaign.config.name
        cadence = campaign.config.cadence_s * self.config.time_scale
        retry = campaign.config.retry or RetryPolicy()
        plane = get_plane()
        seed = plane.config.seed if plane is not None else 0
        jitter_key = sum(name.encode("utf-8"))
        failures = 0
        if campaign.done:
            return "done"
        next_fire = time.monotonic()  # first cycle fires immediately
        while True:
            if self._draining:
                return "drained"
            obs_live.get_status().set_campaign(
                name, next_fire_s=round(max(0.0, next_fire - time.monotonic()), 3)
            )
            await self._sleep_until(next_fire)
            if self._draining:
                return "drained"
            fired_at = time.monotonic()
            obs_live.get_status().set_campaign(name, next_fire_s=0.0)
            outcome = await self._await_cycle(campaign, name)
            if outcome == "__hung__":
                campaign.mark_degraded("hung-cycle")
                return "degraded"
            if outcome == "__failed__":
                failures += 1
                obs_metrics.counter(
                    f"service.cycle_failures{{campaign={name}}}"
                ).inc()
                if failures >= retry.max_attempts:
                    campaign.mark_degraded(
                        f"crash-loop: {failures} consecutive cycle failures"
                    )
                    return "degraded"
                delay = backoff_delay(
                    retry.backoff_s * self.config.time_scale,
                    retry.backoff_ceiling_s * self.config.time_scale,
                    failures, seed, jitter_key,
                )
                obs_live.get_status().set_campaign(
                    name, state="retrying", failures=failures
                )
                next_fire = time.monotonic() + delay
                continue
            failures = 0
            if outcome in ("finished", "skipped"):
                return "done"
            if outcome == "drained":
                return "drained"
            # Next fire keeps the cadence grid: a slow cycle fires the
            # next one immediately rather than drifting the schedule.
            next_fire = fired_at + cadence
            if plane is not None:
                skew = (
                    plane.cadence_skew_s(name, campaign.cycle)
                    * self.config.time_scale
                )
                if skew:
                    obs_metrics.counter("faults.injected").inc()
                    obs_metrics.counter("faults.injected{kind=skew}").inc()
                    next_fire = max(fired_at, next_fire + skew)
