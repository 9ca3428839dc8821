"""The RTT model: propagation, queueing noise, spikes, and congestion.

A probe's RTT decomposes exactly as the paper's Section 3 example does:

- a **baseline** set by fiber propagation over the realized router path
  (great-circle distance per segment, times a stable per-segment stretch
  factor for cable detours) plus small per-hop processing delays;
- **queueing noise**, a small gamma-distributed jitter on every sample;
- occasional **spikes**, the isolated large values "typical of repeated
  measurements";
- **congestion**, the diurnal contribution of any congested segment on the
  path (supplied by a :class:`~repro.measurement.congestionmodel.CongestionSchedule`).

Level shifts emerge without any extra machinery: a routing change swaps the
realization, and with it the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.measurement.congestionmodel import CongestionSchedule
from repro.measurement.realization import PathRealization, segment_seed
from repro.net.geo import FIBER_REFRACTION_FACTOR, SPEED_OF_LIGHT_KM_PER_MS
from repro.net.ip import IPVersion

__all__ = ["DelayParams", "DelayModel"]


@dataclass
class DelayParams:
    """Calibration of the delay model.

    The stretch range plus the fiber refraction factor put median
    RTT-inflation over cRTT near the paper's observed ~3.0 (Figure 10b).
    """

    per_hop_processing_ms: float = 0.08
    min_segment_one_way_ms: float = 0.03
    stretch_min: float = 1.02
    stretch_max: float = 1.35
    noise_shape: float = 2.0
    noise_scale_ms: float = 1.4
    spike_probability: float = 0.01
    spike_mean_ms: float = 45.0
    ipv6_noise_factor: float = 1.1
    """IPv6 probes see slightly larger jitter (less-tuned v6 paths)."""

    def validate(self) -> None:
        """Raise :class:`ValueError` on inconsistent settings."""
        if self.stretch_min < 1.0 or self.stretch_max < self.stretch_min:
            raise ValueError("invalid stretch range")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError("spike_probability must be a probability")
        if self.noise_shape <= 0 or self.noise_scale_ms < 0:
            raise ValueError("invalid noise parameters")


class DelayModel:
    """Turns path realizations into RTT baselines and sampled series."""

    def __init__(self, params: Optional[DelayParams] = None) -> None:
        self.params = params or DelayParams()
        self.params.validate()
        self._stretch_cache: dict = {}

    def _stretch(self, realization: PathRealization, index: int) -> float:
        """Stable per-segment path-stretch factor (same for v4 and v6)."""
        key = realization.hops[index].segment_key
        cached = self._stretch_cache.get(key)
        if cached is None:
            rng = np.random.default_rng(segment_seed(key, "stretch"))
            cached = float(rng.uniform(self.params.stretch_min, self.params.stretch_max))
            self._stretch_cache[key] = cached
        return cached

    def segment_one_way_ms(self, realization: PathRealization) -> np.ndarray:
        """One-way propagation delay of each segment, in path order.

        Vectorized ``max(min_one_way, 0.5 * fiber_rtt_ms(d, stretch))``:
        the elementwise expression keeps :func:`fiber_rtt_ms`'s exact
        association (``2.0 * d * stretch / speed``), so every delay is
        bitwise what the scalar loop produced.
        """
        params = self.params
        hops = realization.hops
        distances = np.array([hop.distance_km for hop in hops])
        if distances.size and float(distances.min()) < 0.0:
            raise ValueError("distance must be non-negative")
        stretches = np.array(
            [self._stretch(realization, index) for index in range(len(hops))]
        )
        speed = SPEED_OF_LIGHT_KM_PER_MS * FIBER_REFRACTION_FACTOR
        return np.maximum(
            params.min_segment_one_way_ms,
            0.5 * (2.0 * distances * stretches / speed),
        )

    def base_rtt_to_hops(self, realization: PathRealization) -> np.ndarray:
        """Baseline RTT from the source to each hop (ms)."""
        one_way = self.segment_one_way_ms(realization)
        hop_indices = np.arange(1, len(one_way) + 1)
        return 2.0 * np.cumsum(one_way) + self.params.per_hop_processing_ms * hop_indices

    def base_rtt(self, realization: PathRealization) -> float:
        """Baseline end-to-end RTT (ms): ``base_rtt_to_hops(...)[-1]``.

        Computed in scalar floats with the array path's operations and
        association (the cumulative sum adds left to right), so the value
        is bitwise the same without building the per-hop arrays.
        """
        params = self.params
        speed = SPEED_OF_LIGHT_KM_PER_MS * FIBER_REFRACTION_FACTOR
        hops = realization.hops
        if not hops:
            raise ValueError("a realization has at least one hop")
        total = 0.0
        for index, hop in enumerate(hops):
            if hop.distance_km < 0.0:
                raise ValueError("distance must be non-negative")
            stretch = self._stretch(realization, index)
            # ``0.0 + d == d`` for the first delay: it is never ``-0.0``.
            total += max(
                params.min_segment_one_way_ms,
                0.5 * (2.0 * hop.distance_km * stretch / speed),
            )
        return 2.0 * total + params.per_hop_processing_ms * len(hops)

    def noise_series(
        self, rng: np.random.Generator, count: int, version: IPVersion
    ) -> np.ndarray:
        """Queueing jitter plus spikes for ``count`` samples."""
        params = self.params
        scale = params.noise_scale_ms
        if version is IPVersion.V6:
            scale *= params.ipv6_noise_factor
        noise = rng.gamma(params.noise_shape, scale, size=count)
        spikes = rng.random(count) < params.spike_probability
        if spikes.any():
            noise[spikes] += rng.exponential(params.spike_mean_ms, size=int(spikes.sum()))
        return noise

    def rtt_series(
        self,
        realization: PathRealization,
        times_hours: np.ndarray,
        rng: np.random.Generator,
        congestion: Optional[CongestionSchedule] = None,
    ) -> np.ndarray:
        """End-to-end RTT samples at the given times (ms)."""
        times_hours = np.asarray(times_hours, dtype=float)
        series = np.full(times_hours.shape, self.base_rtt(realization))
        series += self.noise_series(rng, times_hours.size, realization.version)
        if congestion is not None:
            series += congestion.path_series(realization.segment_keys, times_hours)
        return series

    def hop_rtt_matrix(
        self,
        realization: PathRealization,
        times_hours: np.ndarray,
        rng: np.random.Generator,
        congestion: Optional[CongestionSchedule] = None,
    ) -> np.ndarray:
        """Per-hop RTT samples: shape ``(n_hops, n_times)``.

        Row ``i`` is the RTT time series of the traceroute segment ending at
        hop ``i`` -- the series the localization analysis (Section 5.2)
        correlates with the end-to-end signal.  Each row carries its own
        queueing jitter (probes to different hops are distinct packets).
        """
        times_hours = np.asarray(times_hours, dtype=float)
        base = self.base_rtt_to_hops(realization)
        n_hops = len(realization.hops)
        matrix = np.empty((n_hops, times_hours.size))
        for index in range(n_hops):
            matrix[index] = base[index] + self.noise_series(
                rng, times_hours.size, realization.version
            )
        if congestion is not None:
            matrix += congestion.segment_matrix(realization.segment_keys, times_hours)
        return matrix
