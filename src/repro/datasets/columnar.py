"""The columnar record plane: preallocated column buffers per campaign.

The batch builders ultimately need, per (pair, version), three parallel
arrays over the campaign grid -- RTT, outcome, path id -- plus the true
candidate's runs and an interned path table.  The
object path reaches them through per-epoch calls into
:mod:`repro.measurement.rttmodel` / :mod:`repro.measurement.traceroute`
that recompute everything epoch-independent (segment stretch, baseline
RTT, responsiveness products, congestion series) on every call.

This module hoists all of that into per-realization **kernels** and
samples each epoch directly into preallocated full-grid columns.  The
contract is **bit-identity**: every random draw happens in exactly the
order (and with exactly the argument arrays) of the object path, every
floating-point expression keeps the object path's association, and the
interned path table is built in the same sequence -- so a columnar
timeline is indistinguishable, byte for byte, from an object-path one.
The equivalence suite in ``tests/datasets/test_columnar_equivalence.py``
holds this line.

Layout notes (change any of these and the bit-identity contract breaks):

- Congestion is cached as one float64 series per congested segment key
  over the *full* grid.  Each epoch sums the ``[low:high]`` slices of its
  realization's series into a fresh zero window, in path-occurrence
  order; elementwise sums commute with slicing, so the window is bitwise
  what ``CongestionSchedule.path_series`` returns for it.  No full-grid
  per-realization sum is ever held.
- Kernels live only as long as one ``build_*_timeline`` call.  A kernel
  is keyed (pair, version, candidate) and every build task is one
  (pair, version), so no kernel would ever serve a second timeline.
- The miss-hop weight vector is normalized once per kernel with the same
  expression the object path uses per epoch.
- Gamma / Bernoulli / exponential / choice draws keep the object path's
  conditional structure (a draw that the object path skips -- e.g. the
  loop-position draw on a short path -- must stay skipped here).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.datasets.timeline import (
    PATH_ID_DTYPE,
    PathTable,
    PingTimeline,
    TraceTimeline,
    epoch_runs,
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

__all__ = ["RealizationKernel", "CampaignKernels"]

_INCOMPLETE = int(TraceOutcome.INCOMPLETE)
_LOOP = int(TraceOutcome.LOOP)
_MISSING_IP = int(TraceOutcome.MISSING_IP)

_Window = Tuple[int, int, int, int]
"""One sampled routing epoch: ``(epoch_number, low, high, candidate)``."""


class RealizationKernel:
    """Everything epoch-independent about sampling one realization.

    One kernel serves every epoch of one timeline that routes over the
    same realization; building it costs one pass of the delay/artifact
    precomputation the object path repeats per epoch.
    """

    __slots__ = (
        "realization",
        "base_rtt",
        "noise_shape",
        "noise_scale",
        "spike_probability",
        "spike_mean_ms",
        "incomplete_probability",
        "loop_classic",
        "loop_paris",
        "respond",
        "p_all_respond",
        "miss_weights",
        "miss_cdf",
        "congestion",
        "observed_complete",
        "clean_outcome",
        "miss_lut",
    )

    def __init__(
        self,
        realization: PathRealization,
        platform: MeasurementPlatform,
        congestion: Tuple[np.ndarray, ...],
    ) -> None:
        engine = platform.engine
        delay = platform.delay_model
        params = delay.params
        artifacts = engine.artifacts

        self.realization = realization
        self.base_rtt = delay.base_rtt(realization)
        self.noise_shape = params.noise_shape
        scale = params.noise_scale_ms
        if realization.version is IPVersion.V6:
            scale *= params.ipv6_noise_factor
        self.noise_scale = scale
        self.spike_probability = params.spike_probability
        self.spike_mean_ms = params.spike_mean_ms
        self.incomplete_probability = artifacts.incomplete_probability
        self.loop_classic = engine._loop_probability(realization, TracerouteFlavor.CLASSIC)
        self.loop_paris = engine._loop_probability(realization, TracerouteFlavor.PARIS)
        self.respond = np.array([hop.respond_probability for hop in realization.hops])
        self.p_all_respond = float(np.prod(self.respond))
        # Normalized exactly as the object path does per epoch; ``None``
        # encodes the degenerate all-respond case where the object path
        # clears the miss mask without drawing.
        miss_weights = 1.0 - self.respond
        if miss_weights.sum() <= 0:
            self.miss_weights: Optional[np.ndarray] = None
            self.miss_cdf: Optional[np.ndarray] = None
        else:
            self.miss_weights = miss_weights / miss_weights.sum()
            # ``Generator.choice(n, size, p)`` draws by building this CDF
            # and right-searchsorting uniforms into it; precomputing the
            # CDF and replaying that recipe per epoch consumes the same
            # random words and yields the same hops at a fraction of
            # choice()'s per-call overhead.
            cdf = self.miss_weights.cumsum()
            cdf /= cdf[-1]
            self.miss_cdf = cdf
        # Full-grid series of the congested segments, in path-occurrence
        # order (shared with the per-grid cache, never written).
        self.congestion = congestion
        self.observed_complete = realization.observed_path_complete
        self.clean_outcome = int(
            TraceOutcome.MISSING_AS
            if UNKNOWN_ASN in realization.observed_path_complete
            else TraceOutcome.COMPLETE
        )
        # Global path id of each hop's miss variant in the timeline being
        # built (-1 until interned); path ids are timeline-local, which is
        # one reason a kernel must not outlive its timeline.
        self.miss_lut = np.full(self.respond.size, -1, dtype=PATH_ID_DTYPE)

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
        self, src: Server, dst: Server, version: IPVersion, candidate: int
    ) -> Optional[RealizationKernel]:
        """A fresh kernel for one (pair, version, candidate), or ``None``."""
        realization = self.platform.realization(src, dst, version, candidate)
        if realization is None:
            return None
        congestion = self.platform.congestion
        events = congestion.events if congestion is not None else {}
        return RealizationKernel(
            realization,
            self.platform,
            tuple(
                self._congestion_for(key)
                for key in realization.segment_keys
                if key in events
            ),
        )

    def _timeline_kernels(
        self, src: Server, dst: Server, version: IPVersion
    ) -> Callable[[int], Optional[RealizationKernel]]:
        """Per-candidate kernel lookup for one timeline build.

        The kernels it builds die with the lookup, so a build leaves no
        kernel (nor its realization) behind.
        """
        built: Dict[int, Optional[RealizationKernel]] = {}

        def kernel_for(candidate: int) -> Optional[RealizationKernel]:
            if candidate not in built:
                built[candidate] = self.kernel(src, dst, version, candidate)
            return built[candidate]

        return kernel_for

    # ------------------------------------------------------------------
    # Column samplers
    # ------------------------------------------------------------------

    def _rtt_base(
        self,
        kernel: RealizationKernel,
        count: int,
        congestion: Optional[np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Baseline + queueing noise + the epoch's congestion window.

        The object path computes ``(base + noise) + congestion``; this
        computes ``(noise + base) + congestion`` -- bitwise equal because
        IEEE addition is commutative (the association is unchanged) --
        which saves allocating a baseline array per epoch.
        """
        series = rng.gamma(kernel.noise_shape, kernel.noise_scale, size=count)
        spikes = rng.random(count) < kernel.spike_probability
        n_spikes = int(np.count_nonzero(spikes))
        if n_spikes:
            series[spikes] += rng.exponential(kernel.spike_mean_ms, size=n_spikes)
        series += kernel.base_rtt
        if congestion is not None:
            series += congestion
        return series

    def sample_trace_epoch(
        self,
        kernel: RealizationKernel,
        low: int,
        high: int,
        rng: np.random.Generator,
        paris_start_hour: Optional[float],
        rtt: np.ndarray,
        outcome: np.ndarray,
        path_id: np.ndarray,
        intern: Callable[[Tuple[int, ...]], int],
    ) -> None:
        """Sample one routing epoch's traceroutes into the columns.

        ``intern`` maps a path tuple into the timeline's global path
        table; it is called in exactly the order the object path's
        per-epoch table would be remapped, so the table is identical.
        """
        count = high - low
        series = self._rtt_base(kernel, count, kernel.congestion_window(low, high), rng)
        complete_id = intern(kernel.observed_complete)
        # The outcome/path columns are written fully for this window, so
        # slice views stand in for the object path's temporaries.
        out = outcome[low:high]
        out[:] = kernel.clean_outcome
        gid = path_id[low:high]
        gid[:] = complete_id

        # One draw covers the incomplete and loop uniforms: consecutive
        # ``random(count)`` calls consume the same random words as one
        # ``random(2 * count)`` call split in half.
        u = rng.random(2 * count)
        incomplete = u[:count] < kernel.incomplete_probability
        series[incomplete] = np.nan
        out[incomplete] = _INCOMPLETE
        gid[incomplete] = -1

        # A routing epoch straddles the Paris cutover at most once, so
        # almost every epoch compares against one scalar probability --
        # element-for-element what the object path's np.where array does.
        if paris_start_hour is None or high <= self._paris_cut(paris_start_hour):
            loop_probability: object = kernel.loop_classic
        elif low >= self._paris_cut(paris_start_hour):
            loop_probability = kernel.loop_paris
        else:
            classic = self.times[low:high] < paris_start_hour
            loop_probability = np.where(classic, kernel.loop_classic, kernel.loop_paris)
        looped = (~incomplete) & (u[count:] < loop_probability)
        if np.count_nonzero(looped):
            loop_path = _loop_variant(kernel.observed_complete, rng)
            loop_id = intern(loop_path)
            out[looped] = _LOOP
            gid[looped] = loop_id

        normal = ~(incomplete | looped)
        misses = normal & (rng.random(count) >= kernel.p_all_respond)
        n_misses = int(np.count_nonzero(misses))
        if n_misses:
            if kernel.miss_cdf is None:
                misses[:] = False
            else:
                chosen_hops = kernel.miss_cdf.searchsorted(
                    rng.random(n_misses), side="right"
                )
                miss_lut = kernel.miss_lut
                ids = miss_lut[chosen_hops]
                if np.count_nonzero(ids < 0):
                    # The object path interns each hop's miss variant at
                    # its first appearance; visiting the unique hops in
                    # first-appearance order preserves that sequence.
                    uniq, first_index = np.unique(chosen_hops, return_index=True)
                    for rank in np.argsort(first_index, kind="stable"):
                        hop_index = int(uniq[rank])
                        if miss_lut[hop_index] < 0:
                            miss_lut[hop_index] = intern(
                                kernel.realization.observed_path_with_miss(hop_index)
                            )
                    ids = miss_lut[chosen_hops]
                out[misses] = _MISSING_IP
                gid[misses] = ids

        rtt[low:high] = series

    def sample_ping_epoch(
        self,
        kernel: RealizationKernel,
        low: int,
        high: int,
        rng: np.random.Generator,
        loss_model: LossModel,
        loss_probability: float,
        rtt: np.ndarray,
    ) -> None:
        """Sample one routing epoch's pings into the RTT column."""
        count = high - low
        congestion = kernel.congestion_window(low, high)
        series = self._rtt_base(kernel, count, congestion, rng)
        if loss_model is not None:
            lift = congestion if congestion is not None else np.zeros(count)
            series[loss_model.sample_losses(rng, lift)] = np.nan
        elif loss_probability > 0.0:
            lost = rng.random(count) < loss_probability
            series[lost] = np.nan
        rtt[low:high] = series

    # ------------------------------------------------------------------
    # Timeline builders
    # ------------------------------------------------------------------

    def build_trace_timeline(
        self, src: Server, dst: Server, version: IPVersion
    ) -> TraceTimeline:
        """One pair's long-term trace timeline, sampled into columns.

        Bit-identical to :func:`repro.datasets.longterm._build_timeline`:
        epochs visit in schedule order, each epoch draws from the same
        named RNG stream, and paths intern directly into the timeline's
        global table in the order the object path's per-epoch remap
        would insert them.
        """
        platform = self.platform
        times = self.times
        count = times.size
        rtt = np.full(count, np.nan, dtype=np.float32)
        outcome = np.full(count, int(TraceOutcome.INCOMPLETE), dtype=np.uint8)
        path_id = np.full(count, -1, dtype=PATH_ID_DTYPE)
        epochs: List[Tuple[int, int, int]] = []
        table = PathTable((src.server_id, dst.server_id))

        paris_start = (
            platform.config.paris_start_hour if version is IPVersion.V4 else None
        )
        windows, make_rng = self._epoch_streams("longterm", src, dst, version)
        kernel_for = self._timeline_kernels(src, dst, version)
        sampled = 0
        for epoch_number, low, high, candidate in windows:
            kernel = kernel_for(candidate)
            if kernel is None:
                continue
            self.sample_trace_epoch(
                kernel,
                low,
                high,
                make_rng(epoch_number),
                paris_start,
                rtt,
                outcome,
                path_id,
                table.intern,
            )
            epochs.append((low, high, candidate))
            sampled += high - low
        if sampled:
            self._samples_counter.inc(sampled)

        return TraceTimeline(
            src_server_id=src.server_id,
            dst_server_id=dst.server_id,
            version=version,
            times_hours=times,
            rtt_ms=rtt,
            outcome=outcome,
            path_id=path_id,
            paths=table.paths,
            true_candidate=epoch_runs(count, epochs),
        )

    def build_ping_timeline(
        self, src: Server, dst: Server, version: IPVersion, coupled_loss: bool
    ) -> PingTimeline:
        """One pair's ping timeline, bit-identical to the object path."""
        times = self.times
        rtt = np.full(times.size, np.nan, dtype=np.float32)
        loss_model = LossModel() if coupled_loss else None
        windows, make_rng = self._epoch_streams("ping", src, dst, version)
        kernel_for = self._timeline_kernels(src, dst, version)
        sampled = 0
        for epoch_number, low, high, candidate in windows:
            kernel = kernel_for(candidate)
            if kernel is None:
                continue
            self.sample_ping_epoch(
                kernel,
                low,
                high,
                make_rng(epoch_number),
                loss_model,
                DEFAULT_LOSS_PROBABILITY,
                rtt,
            )
            sampled += high - low
        if sampled:
            self._ping_counter.inc(sampled)
        return PingTimeline(
            src_server_id=src.server_id,
            dst_server_id=dst.server_id,
            version=version,
            times_hours=times,
            rtt_ms=rtt,
        )
