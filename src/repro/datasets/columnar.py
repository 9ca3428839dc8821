"""The columnar record plane: packed sample buffers per block of timelines.

The batch builders ultimately need, per (pair, version), three parallel
arrays over the campaign grid -- RTT, outcome, path id -- plus the true
candidate's runs and an interned path table.  The
object path reaches them through per-epoch calls into
:mod:`repro.measurement.rttmodel` / :mod:`repro.measurement.traceroute`
that recompute everything epoch-independent (segment stretch, baseline
RTT, responsiveness products, congestion series) on every call.

This module hoists all of that into per-realization **kernels** and
samples a block of timelines (:data:`BLOCK_TIMELINES`) at a time, their
sampled epochs packed end to end into shared buffers.  The contract is
**bit-identity**: every random draw happens in exactly the order (and
with exactly the argument arrays) of the object path, every
floating-point expression keeps the object path's association, and the
interned path table is built in the same sequence -- so a columnar
timeline is indistinguishable, byte for byte, from an object-path one.
The equivalence suite in ``tests/datasets/test_columnar_equivalence.py``
holds this line.

Layout notes (change any of these and the bit-identity contract breaks):

- The per-epoch loop makes only the stream-ordered draws, each into its
  epoch's slice of a packed buffer, and the counts that decide a
  conditional draw: spikes, any loop, misses.  Every elementwise write
  (noise scale, spikes, baseline, congestion, NaN, outcome, path id)
  runs once per block over the packed samples, then each timeline's
  part is laid out on the grid.
- Gamma draws are unit-scale (``standard_gamma``) and scaled per
  sample afterwards: ``gamma(k, s, n)`` is ``standard_gamma(k, n) * s``
  bit for bit.  ``random(out=view)`` equals ``random(n)``, and one
  ``random(2n)`` draws the words of two ``random(n)`` calls, which is
  how an epoch's incomplete and loop uniforms share one call.
  ``TestDrawIdentities`` in ``tests/datasets/test_columnar.py`` pins
  these numpy identities.
- Congestion is cached as one float64 series per congested segment key
  over the *full* grid.  Each congested epoch sums the ``[low:high]``
  slices of its realization's series into a fresh zero window, in
  path-occurrence order; elementwise sums commute with slicing, so the
  window is bitwise what ``CongestionSchedule.path_series`` returns for
  it.  Epochs without congestion add ``0.0`` to a positive RTT, which
  leaves it unchanged.  No full-grid per-realization sum is ever held.
- Kernels live only as long as one block.  A kernel is keyed (pair,
  version, candidate) and every build task is one (pair, version), so no
  kernel would ever serve a second timeline; the baseline RTT, which
  does not depend on the grid, is memoized on the platform instead.
- The miss-hop weight vector is normalized once per kernel with the same
  expression the object path uses per epoch.
- Gamma / Bernoulli / exponential / choice draws keep the object path's
  conditional structure (a draw that the object path skips -- e.g. the
  loop-position draw on a short path -- must stay skipped here).  The
  one draw skipped here that the object path makes is an all-responding
  epoch's miss draw: it is the stream's last, and no uniform in
  ``[0, 1)`` reaches ``p_all_respond == 1.0``.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.timeline import (
    PATH_ID_DTYPE,
    PathTable,
    PingTimeline,
    TraceTimeline,
    epoch_runs,
    path_id_dtype,
)
from repro.measurement.fastseed import RecycledGenerator, pcg64_states
from repro.measurement.loss import LossModel
from repro.measurement.ping import DEFAULT_LOSS_PROBABILITY
from repro.measurement.platform import MeasurementPlatform
from repro.measurement.realization import UNKNOWN_ASN, PathRealization, SegmentKey
from repro.measurement.scheduler import CampaignGrid
from repro.measurement.traceroute import TraceOutcome, TracerouteFlavor, _loop_variant
from repro.net.ip import IPVersion
from repro.obs import metrics as obs_metrics
from repro.topology.cdn import Server

__all__ = ["RealizationKernel", "CampaignKernels", "BLOCK_TIMELINES", "task_blocks"]

_INCOMPLETE = int(TraceOutcome.INCOMPLETE)
_LOOP = int(TraceOutcome.LOOP)
_MISSING_IP = int(TraceOutcome.MISSING_IP)

_Window = Tuple[int, int, int, int]
"""One sampled routing epoch: ``(epoch_number, low, high, candidate)``."""

_Epoch = Tuple[int, int, int, int, "RealizationKernel"]
"""A sampled epoch whose candidate realizes: a window and its kernel."""

_Task = Tuple[Server, Server, IPVersion]

BLOCK_TIMELINES = 16
"""Timelines the builders sample as one block (:func:`task_blocks`).

Per-call numpy overhead is paid once per block; the block's packed
buffers take ~70 bytes per sample, ~4 MB for 16 long-term timelines."""


def task_blocks(tasks: Sequence[_Task]) -> List[List[_Task]]:
    """``tasks`` in order, cut into blocks of :data:`BLOCK_TIMELINES`."""
    return [
        list(tasks[start:start + BLOCK_TIMELINES])
        for start in range(0, len(tasks), BLOCK_TIMELINES)
    ]


class RealizationKernel:
    """Everything epoch-independent about sampling one realization.

    One kernel serves every epoch of one timeline that routes over the
    same realization.  A ping kernel (``trace=False``) holds only what
    the RTT needs; a trace kernel adds the artifact model's loop and
    responsiveness constants.  The baseline RTT comes from the
    platform's per-realization memo, so a realization sampled by both
    campaigns derives it once.
    """

    __slots__ = (
        "realization",
        "base_rtt",
        "congestion",
        "loop_classic",
        "loop_paris",
        "p_all_respond",
        "miss_threshold",
        "miss_cdf",
        "observed_complete",
        "clean_outcome",
        "miss_lut",
    )

    def __init__(
        self,
        realization: PathRealization,
        base_rtt: float,
        platform: MeasurementPlatform,
        congestion: Tuple[np.ndarray, ...],
        trace: bool = True,
    ) -> None:
        self.realization = realization
        self.base_rtt = base_rtt
        # Full-grid series of the congested segments, in path-occurrence
        # order (shared with the per-grid cache, never written).
        self.congestion = congestion
        if not trace:
            return
        engine = platform.engine
        self.loop_classic = engine._loop_probability(realization, TracerouteFlavor.CLASSIC)
        self.loop_paris = engine._loop_probability(realization, TracerouteFlavor.PARIS)
        respond = np.array([hop.respond_probability for hop in realization.hops])
        self.p_all_respond = float(np.prod(respond))
        # Normalized exactly as the object path does per epoch; ``None``
        # encodes the degenerate all-respond case where the object path
        # clears the miss mask without drawing.
        miss_weights = 1.0 - respond
        if miss_weights.sum() <= 0:
            self.miss_cdf: Optional[np.ndarray] = None
            # No uniform reaches 2.0: the timeline pass finds no miss.
            self.miss_threshold = 2.0
        else:
            miss_weights = miss_weights / miss_weights.sum()
            # ``Generator.choice(n, size, p)`` draws by building this CDF
            # and right-searchsorting uniforms into it; precomputing the
            # CDF and replaying that recipe per epoch consumes the same
            # random words and yields the same hops at a fraction of
            # choice()'s per-call overhead.
            cdf = miss_weights.cumsum()
            cdf /= cdf[-1]
            self.miss_cdf = cdf
            self.miss_threshold = self.p_all_respond
        self.observed_complete = realization.observed_path_complete
        self.clean_outcome = int(
            TraceOutcome.MISSING_AS
            if UNKNOWN_ASN in realization.observed_path_complete
            else TraceOutcome.COMPLETE
        )
        # Global path id of each hop's miss variant in the timeline being
        # built (-1 until interned); path ids are timeline-local, which is
        # one reason a kernel must not outlive its timeline.
        self.miss_lut = np.full(respond.size, -1, dtype=PATH_ID_DTYPE)

    def congestion_window(self, low: int, high: int) -> Optional[np.ndarray]:
        """Path congestion over grid samples ``[low:high]``, or ``None``.

        Summed into zeros in path-occurrence order, exactly as
        ``CongestionSchedule.path_series`` sums the whole path.
        """
        if not self.congestion:
            return None
        total = np.zeros(high - low)
        for series in self.congestion:
            total += series[low:high]
        return total


class CampaignKernels:
    """Per-grid stream plans and congestion caches for one platform.

    Owns the shared full-grid ``times`` array (one allocation instead of
    one per timeline), a lazily-filled per-segment congestion series
    cache and the planned RNG stream states.  Realization kernels are
    built per timeline and dropped with it.
    """

    def __init__(self, platform: MeasurementPlatform, grid: CampaignGrid) -> None:
        self.platform = platform
        self.grid = grid
        self.times = grid.times()
        self._congestion_series: Dict[SegmentKey, np.ndarray] = {}
        self._paris_cuts: Dict[float, int] = {}
        self._stream_plans: Dict[
            Tuple[str, int, int, int],
            Tuple[List[_Window], Dict[int, Tuple[int, int]]],
        ] = {}
        # One recycled generator serves every planned stream: the
        # builders fully consume one epoch's stream before requesting
        # the next, and forked workers each hold their own copy.
        self._recycled = RecycledGenerator()
        # The noise and artifact constants are the platform's, so they
        # hold for every kernel; the noise scale depends on the version.
        params = platform.delay_model.params
        scale = params.noise_scale_ms
        self._noise_scale = {
            IPVersion.V4: scale,
            IPVersion.V6: scale * params.ipv6_noise_factor,
        }
        self._noise_shape = params.noise_shape
        self._spike_probability = params.spike_probability
        self._spike_mean_ms = params.spike_mean_ms
        self._incomplete_probability = platform.engine.artifacts.incomplete_probability
        self._samples_counter = obs_metrics.counter("traceroute.samples")
        self._ping_counter = obs_metrics.counter("rtt.samples")

    def _sampled_epochs(
        self, src: Server, dst: Server, version: IPVersion
    ) -> List[_Window]:
        """``(epoch_number, low, high, candidate)`` of every epoch the grid samples.

        An epoch is sampled when it covers at least one grid point and
        routes somewhere (``candidate >= 0``); ``[low:high]`` is its grid
        window.  One vectorized search finds every epoch's bounds.
        """
        epochs = self.platform.epochs(src, dst, version)
        if not epochs:
            return []
        edges = self.times.searchsorted(
            [(epoch.start_hour, epoch.end_hour) for epoch in epochs], side="left"
        ).tolist()
        return [
            (number, low, high, epoch.candidate_index)
            for number, (epoch, (low, high)) in enumerate(zip(epochs, edges))
            if high > low and epoch.candidate_index >= 0
        ]

    def plan_streams(
        self, label: str, tasks: Iterable[Tuple[Server, Server, IPVersion]]
    ) -> None:
        """Precompute every sampled (pair, epoch) stream's PCG64 start state.

        Seeding through ``SeedSequence`` costs ~15us per stream, almost
        all of it per-instance Python overhead; batching the entropy-pool
        mixing over a whole build's streams (see
        :mod:`repro.measurement.fastseed`) brings it to ~2us.  Only the
        epochs :meth:`_sampled_epochs` lists get a stream.  Builders call
        this once with the full task list before fanning out -- workers
        inherit the read-only plan through the fork.  Unplanned pairs
        seed through
        :meth:`~repro.measurement.platform.MeasurementPlatform.rng_factory`
        unchanged -- the reference path a fastseed self-check failure
        downgrades the whole plan to: bit-identity never rides on trust.
        """
        platform = self.platform
        keys: List[Tuple[str, int, int, int]] = []
        windows: List[List[_Window]] = []
        digests: List[int] = []
        for src, dst, version in tasks:
            digester = platform.stream_digester(
                label, src.server_id, dst.server_id, int(version)
            )
            sampled = self._sampled_epochs(src, dst, version)
            keys.append((label, src.server_id, dst.server_id, int(version)))
            windows.append(sampled)
            digests.extend(digester(number) for number, _, _, _ in sampled)
        states = iter(pcg64_states(platform.config.seed, digests))
        for key, sampled in zip(keys, windows):
            plan = {number: next(states) for number, _, _, _ in sampled}
            self._stream_plans[key] = (sampled, plan)

    def _epoch_streams(
        self, label: str, src: Server, dst: Server, version: IPVersion
    ) -> Tuple[List[_Window], Callable[[int], np.random.Generator]]:
        """A timeline's sampled epochs and its per-epoch generator factory.

        Planned pairs reuse the plan's epoch windows and states, and
        asking for an epoch the plan skipped raises; unplanned pairs
        search their windows here and seed through the reference path.
        """
        key = (label, src.server_id, dst.server_id, int(version))
        planned = self._stream_plans.get(key)
        if planned is None:
            return self._sampled_epochs(src, dst, version), self.platform.rng_factory(
                label, src.server_id, dst.server_id, int(version)
            )
        windows, plan = planned
        recycled = self._recycled

        def make(epoch_number: int) -> np.random.Generator:
            state = plan.get(epoch_number)
            if state is None:
                raise LookupError(f"epoch {epoch_number} of stream {key} was not planned")
            return recycled.set(*state)

        return windows, make

    def _paris_cut(self, paris_start_hour: float) -> int:
        """First grid index at or past the Paris cutover."""
        cut = self._paris_cuts.get(paris_start_hour)
        if cut is None:
            cut = int(self.times.searchsorted(paris_start_hour, side="left"))
            self._paris_cuts[paris_start_hour] = cut
        return cut

    def _congestion_for(self, key: SegmentKey) -> np.ndarray:
        series = self._congestion_series.get(key)
        if series is None:
            series = self.platform.congestion.series(key, self.times)
            self._congestion_series[key] = series
        return series

    def kernel(
        self,
        src: Server,
        dst: Server,
        version: IPVersion,
        candidate: int,
        trace: bool = True,
    ) -> Optional[RealizationKernel]:
        """A fresh kernel for one (pair, version, candidate), or ``None``."""
        platform = self.platform
        realization = platform.realization(src, dst, version, candidate)
        if realization is None:
            return None
        congestion = platform.congestion
        events = congestion.events if congestion is not None else {}
        return RealizationKernel(
            realization,
            platform.base_rtt(src, dst, version, candidate),
            platform,
            tuple(
                self._congestion_for(key)
                for key in realization.segment_keys
                if key in events
            ),
            trace,
        )

    def _timeline_epochs(
        self, label: str, src: Server, dst: Server, version: IPVersion, trace: bool
    ) -> Tuple[List[_Epoch], Callable[[int], np.random.Generator]]:
        """A timeline's sampled epochs with their kernels, and its streams.

        Epochs whose candidate does not realize are dropped.  Each
        candidate's kernel is built once and dies with the returned list,
        so a build leaves no kernel (nor its realization) behind.
        """
        windows, make_rng = self._epoch_streams(label, src, dst, version)
        built: Dict[int, Optional[RealizationKernel]] = {}
        epochs: List[_Epoch] = []
        for number, low, high, candidate in windows:
            if candidate not in built:
                built[candidate] = self.kernel(src, dst, version, candidate, trace)
            kernel = built[candidate]
            if kernel is not None:
                epochs.append((number, low, high, candidate, kernel))
        return epochs, make_rng

    # ------------------------------------------------------------------
    # Timeline samplers
    # ------------------------------------------------------------------

    def _draw_noise(
        self,
        rng: np.random.Generator,
        noise: np.ndarray,
        spiked: np.ndarray,
        spike_draws: List[np.ndarray],
    ) -> None:
        """One epoch's queueing-noise draws, in the object path's order.

        ``noise`` receives the unit-scale gamma draws and ``spiked``
        whether each sample spikes; the spike sizes, drawn only when the
        epoch has a spike, are appended to ``spike_draws``.
        :meth:`_finish_rtt` turns the packed draws into RTTs.
        """
        rng.standard_gamma(self._noise_shape, out=noise)
        np.less(rng.random(noise.size), self._spike_probability, out=spiked)
        spikes = int(np.count_nonzero(spiked))
        if spikes:
            spike_draws.append(rng.exponential(self._spike_mean_ms, size=spikes))

    def _finish_rtt(
        self,
        block: _Block,
        noise: np.ndarray,
        spiked: np.ndarray,
        spike_draws: List[np.ndarray],
    ) -> Optional[np.ndarray]:
        """Turn a block's packed noise draws into packed RTTs, in place.

        Per sample this is the object path's ``(base + gamma(shape, scale)
        [+ spike]) + congestion``: ``gamma(k, s)`` is ``standard_gamma(k)
        * s`` bit for bit, IEEE addition commutes, and an epoch without
        congestion adds ``0.0`` to a positive RTT, which leaves it as is.
        Returns the packed congestion (zeros where an epoch has none), or
        ``None`` when no epoch is congested.
        """
        noise *= block.per_sample(
            [self._noise_scale[version] for version in block.epoch_versions]
        )
        if spike_draws:
            noise[spiked] += np.concatenate(spike_draws)
        noise += block.per_sample([kernel.base_rtt for *_, kernel in block.epochs])
        congestion: Optional[np.ndarray] = None
        for (_, low, high, _, kernel), offset in zip(block.epochs, block.offsets.tolist()):
            if kernel.congestion:
                if congestion is None:
                    congestion = np.zeros(noise.size)
                congestion[offset:offset + high - low] = kernel.congestion_window(low, high)
        if congestion is not None:
            noise += congestion
        return congestion

    def build_trace_timelines(self, tasks: Sequence[_Task]) -> List[TraceTimeline]:
        """Long-term trace timelines of a block of tasks, sampled into columns.

        Bit-identical to :func:`repro.datasets.longterm._build_timeline`:
        epochs visit in schedule order, each epoch draws from the same
        named RNG stream, and paths intern directly into the timeline's
        global table in the order the object path's per-epoch remap
        would insert them.

        The block's epochs are packed end to end.  The per-epoch loop
        makes only the stream-ordered draws and the counts that decide a
        conditional draw (spikes, any loop, misses); the RTT, NaN,
        outcome and path-id writes then run once over the whole block.
        """
        block = _Block(self, "longterm", tasks, trace=True)
        size = block.size
        noise = np.empty(size)
        spiked = np.empty(size, dtype=bool)
        # Each epoch's incomplete uniforms, then its loop uniforms: one
        # ``random(2 * n)`` call draws the words of two ``random(n)`` calls.
        paired_u = np.empty(2 * size)
        miss_u = np.empty(size)
        # The per-sample verdicts, each written through its epoch's slice.
        incomplete = np.empty(size, dtype=bool)
        looped = np.empty(size, dtype=bool)
        # Epochs that skip the miss draw keep no miss.
        missed = np.zeros(size, dtype=bool)
        spike_draws: List[np.ndarray] = []
        miss_ids: List[np.ndarray] = []
        complete_ids: List[int] = []
        loop_ids: List[int] = []
        tables: List[PathTable] = []
        p_incomplete = self._incomplete_probability
        times = self.times
        offset = 0
        for (src, dst, version), (epochs, make_rng) in zip(tasks, block.timelines):
            table = PathTable((src.server_id, dst.server_id))
            tables.append(table)
            intern = table.intern
            paris_start = (
                self.platform.config.paris_start_hour if version is IPVersion.V4 else None
            )
            paris_cut = None if paris_start is None else self._paris_cut(paris_start)
            for number, low, high, _, kernel in epochs:
                n = high - low
                end = offset + n
                rng = make_rng(number)
                self._draw_noise(rng, noise[offset:end], spiked[offset:end], spike_draws)
                complete_ids.append(intern(kernel.observed_complete))
                pair = paired_u[2 * offset:2 * end]
                rng.random(out=pair)
                epoch_incomplete = np.less(pair[:n], p_incomplete, out=incomplete[offset:end])
                # A routing epoch straddles the Paris cutover at most once,
                # so almost every epoch compares against one scalar
                # probability -- element for element what the object
                # path's np.where array does.
                if paris_cut is None or high <= paris_cut:
                    chance: object = kernel.loop_classic
                elif low >= paris_cut:
                    chance = kernel.loop_paris
                else:
                    classic = times[low:high] < paris_start
                    chance = np.where(classic, kernel.loop_classic, kernel.loop_paris)
                epoch_looped = np.less(pair[n:], chance, out=looped[offset:end])
                loop_id = -1
                if np.count_nonzero(epoch_looped):
                    # ``a > b`` on booleans is ``a & ~b``: loops of samples
                    # that reached the destination.
                    np.greater(epoch_looped, epoch_incomplete, out=epoch_looped)
                    if np.count_nonzero(epoch_looped):
                        loop_id = intern(_loop_variant(kernel.observed_complete, rng))
                loop_ids.append(loop_id)
                # The miss draw is the stream's last; when every hop answers
                # (``p_all_respond == 1.0``) no uniform reaches it, so it is
                # skipped rather than drawn and thrown away.
                if kernel.p_all_respond < 1.0:
                    miss_view = miss_u[offset:end]
                    rng.random(out=miss_view)
                    misses = np.greater_equal(
                        miss_view, kernel.miss_threshold, out=missed[offset:end]
                    )
                    if np.count_nonzero(misses):
                        np.greater(misses, epoch_incomplete, out=misses)
                        if loop_id >= 0:
                            np.greater(misses, epoch_looped, out=misses)
                        n_misses = int(np.count_nonzero(misses))
                        if n_misses:
                            miss_ids.append(self._miss_ids(kernel, rng, n_misses, intern))
                offset = end
        if size:
            self._samples_counter.inc(size)

        self._finish_rtt(block, noise, spiked, spike_draws)
        np.putmask(noise, incomplete, np.nan)
        outcomes = block.per_sample(
            [kernel.clean_outcome for *_, kernel in block.epochs], np.uint8
        )
        np.putmask(outcomes, incomplete, _INCOMPLETE)
        ids = block.per_sample(complete_ids, PATH_ID_DTYPE)
        np.putmask(ids, incomplete, -1)
        if max(loop_ids, default=-1) >= 0:
            np.putmask(outcomes, looped, _LOOP)
            np.putmask(ids, looped, block.per_sample(loop_ids, PATH_ID_DTYPE))
        if miss_ids:
            np.putmask(outcomes, missed, _MISSING_IP)
            ids[missed] = np.concatenate(miss_ids)

        timelines: List[TraceTimeline] = []
        for (src, dst, version), table, (epochs, _), span in zip(
            tasks, tables, block.timelines, block.spans
        ):
            count = times.size
            rtt = block.to_grid(span, noise, np.float32, np.nan)
            outcome = block.to_grid(span, outcomes, np.uint8, _INCOMPLETE)
            path_id = block.to_grid(span, ids, path_id_dtype(len(table.paths)), -1)
            timelines.append(
                TraceTimeline(
                    src_server_id=src.server_id,
                    dst_server_id=dst.server_id,
                    version=version,
                    times_hours=times,
                    rtt_ms=rtt,
                    outcome=outcome,
                    path_id=path_id,
                    paths=table.paths,
                    true_candidate=epoch_runs(
                        count, [(low, high, candidate) for _, low, high, candidate, _ in epochs]
                    ),
                )
            )
        return timelines

    @staticmethod
    def _miss_ids(
        kernel: RealizationKernel,
        rng: np.random.Generator,
        n_misses: int,
        intern: Callable[[Tuple[int, ...]], int],
    ) -> np.ndarray:
        """Draw the missing hop of each of an epoch's misses; their path ids."""
        chosen_hops = kernel.miss_cdf.searchsorted(rng.random(n_misses), side="right")
        miss_lut = kernel.miss_lut
        ids = miss_lut[chosen_hops]
        if ids.min() < 0:
            # The object path interns each hop's miss variant at its
            # first appearance; visiting the unique hops in
            # first-appearance order preserves that sequence.
            uniq, first_index = np.unique(chosen_hops, return_index=True)
            for rank in np.argsort(first_index, kind="stable"):
                hop_index = int(uniq[rank])
                if miss_lut[hop_index] < 0:
                    miss_lut[hop_index] = intern(
                        kernel.realization.observed_path_with_miss(hop_index)
                    )
            ids = miss_lut[chosen_hops]
        return ids

    def build_ping_timelines(
        self, tasks: Sequence[_Task], coupled_loss: bool
    ) -> List[PingTimeline]:
        """Ping timelines of a block of tasks, bit-identical to the object path.

        Packed like :meth:`build_trace_timelines`: the per-epoch loop only
        draws, and the RTT and loss writes run once per block.  The loss
        uniforms are each epoch's last draw; the congestion-coupled loss
        chance is elementwise, so it is computed over the packed
        congestion in one call.
        """
        block = _Block(self, "ping", tasks, trace=False)
        size = block.size
        noise = np.empty(size)
        spiked = np.empty(size, dtype=bool)
        loss_u = np.empty(size)
        spike_draws: List[np.ndarray] = []
        loss_model = LossModel() if coupled_loss else None
        lossy = loss_model is not None or DEFAULT_LOSS_PROBABILITY > 0.0
        offset = 0
        for epochs, make_rng in block.timelines:
            for number, low, high, _, _ in epochs:
                end = offset + high - low
                rng = make_rng(number)
                self._draw_noise(rng, noise[offset:end], spiked[offset:end], spike_draws)
                if lossy:
                    rng.random(out=loss_u[offset:end])
                offset = end
        if size:
            self._ping_counter.inc(size)

        congestion = self._finish_rtt(block, noise, spiked, spike_draws)
        if loss_model is not None:
            lift = congestion if congestion is not None else np.zeros(size)
            np.putmask(noise, loss_u < loss_model.probabilities(lift), np.nan)
        elif lossy:
            np.putmask(noise, loss_u < DEFAULT_LOSS_PROBABILITY, np.nan)
        return [
            PingTimeline(
                src_server_id=src.server_id,
                dst_server_id=dst.server_id,
                version=version,
                times_hours=self.times,
                rtt_ms=block.to_grid(span, noise, np.float32, np.nan),
            )
            for (src, dst, version), span in zip(tasks, block.spans)
        ]


class _Block:
    """A block of timelines whose sampled epochs are packed end to end.

    Every epoch whose candidate realizes takes ``[offset:offset +
    length]`` of the block's packed buffers, timeline after timeline, so
    the samplers write each column of the whole block with one numpy
    call instead of one per timeline.
    """

    def __init__(
        self,
        kernels: CampaignKernels,
        label: str,
        tasks: Sequence[_Task],
        trace: bool,
    ) -> None:
        self.grid_size = kernels.times.size
        self.timelines = [
            kernels._timeline_epochs(label, src, dst, version, trace)
            for src, dst, version in tasks
        ]
        self.epochs: List[_Epoch] = [
            epoch for epochs, _ in self.timelines for epoch in epochs
        ]
        self.epoch_versions = [
            version
            for (_, _, version), (epochs, _) in zip(tasks, self.timelines)
            for _ in epochs
        ]
        self.lengths = np.array(
            [high - low for _, low, high, _, _ in self.epochs], dtype=np.intp
        )
        self.offsets = np.cumsum(self.lengths) - self.lengths
        self.size = int(self.lengths.sum())
        # Each timeline's ``(start, end)`` in the packed buffers.
        ends = list(accumulate(
            sum(high - low for _, low, high, _, _ in epochs) for epochs, _ in self.timelines
        ))
        self.spans: List[Tuple[int, int]] = list(zip([0] + ends[:-1], ends))
        self._grid_index: Optional[np.ndarray] = None

    def per_sample(self, values: Sequence[object], dtype: object = None) -> np.ndarray:
        """One value per epoch, repeated over the epoch's packed samples."""
        return np.repeat(np.array(values, dtype=dtype), self.lengths)

    def to_grid(
        self,
        span: Tuple[int, int],
        packed: np.ndarray,
        dtype: object,
        fill: object,
    ) -> np.ndarray:
        """One timeline's part of a packed column, laid out on the grid.

        Samples outside the timeline's sampled epochs hold ``fill``.
        """
        start, end = span
        if end - start == self.grid_size:
            # Disjoint windows that fill the grid cover all of it.
            return packed[start:end].astype(dtype)
        column = np.full(self.grid_size, fill, dtype=dtype)
        if end > start:
            if self._grid_index is None:
                lows = np.array([low for _, low, _, _, _ in self.epochs], dtype=np.intp)
                self._grid_index = np.arange(self.size) + np.repeat(
                    lows - self.offsets, self.lengths
                )
            column[self._grid_index[start:end]] = packed[start:end]
        return column
