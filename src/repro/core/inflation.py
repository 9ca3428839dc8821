"""RTT inflation over the speed-of-light bound (Section 6, Figure 10b).

For each endpoint pair, inflation is ``median RTT / cRTT`` where ``cRTT``
is the round-trip time of light in free space over the great-circle
distance between the servers' (ground truth) locations.  The paper reports
median inflation around 3.0 (IPv4) / 3.1 (IPv6), with US-US pairs more
inflated than pairs whose path involves transcontinental links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ecdf import ECDF, partition_median
from repro.datasets.longterm import LongTermDataset
from repro.net.geo import crtt_ms
from repro.net.ip import IPVersion

__all__ = ["inflation_ratio", "PairInflation", "pair_inflation", "InflationStudy"]

MIN_CRTT_MS = 1.5
"""Pairs closer than this round-trip bound (sub-225 km) are skipped: the
ratio explodes and says nothing about the core."""


def inflation_ratio(median_rtt_ms: float, crtt: float) -> Optional[float]:
    """``median RTT / cRTT``; ``None`` when cRTT is below the floor."""
    if not np.isfinite(median_rtt_ms) or crtt < MIN_CRTT_MS:
        return None
    return float(median_rtt_ms / crtt)


@dataclass(frozen=True)
class PairInflation:
    """Inflation of one directed pair under one protocol."""

    src_server_id: int
    dst_server_id: int
    version: IPVersion
    median_rtt_ms: float
    crtt_ms: float
    ratio: float
    us_to_us: bool
    transcontinental: bool


@dataclass
class InflationStudy:
    """All pair inflations plus the Figure 10b groupings."""

    pairs: List[PairInflation]

    def ecdf(
        self,
        version: IPVersion,
        us_only: bool = False,
        transcontinental_only: bool = False,
    ) -> ECDF:
        """ECDF of inflation ratios for one protocol and grouping."""
        values = [
            pair.ratio
            for pair in self.pairs
            if pair.version is version
            and (not us_only or pair.us_to_us)
            and (not transcontinental_only or pair.transcontinental)
        ]
        return ECDF(values)

    def median(self, version: IPVersion) -> float:
        """Median inflation for one protocol."""
        return self.ecdf(version).quantile(0.5)


def pair_inflation(dataset: LongTermDataset) -> InflationStudy:
    """Compute per-pair inflation over a long-term dataset.

    Server ground-truth locations come from the dataset's server index; the
    cRTT uses free-space light speed, exactly as the paper defines it.
    """
    results: List[PairInflation] = []
    cache: Dict[Tuple[int, int], float] = {}

    for (src_id, dst_id, version), timeline in dataset.timelines.items():
        src = dataset.servers.get(src_id)
        dst = dataset.servers.get(dst_id)
        if src is None or dst is None:
            continue
        key = (min(src_id, dst_id), max(src_id, dst_id))
        if key not in cache:
            cache[key] = crtt_ms(src.city, dst.city)
        crtt = cache[key]
        rtts = timeline.rtt_ms.compress(timeline.usable_rtt_mask())
        if rtts.size == 0:
            continue
        median_rtt = partition_median(rtts)
        ratio = inflation_ratio(median_rtt, crtt)
        if ratio is None:
            continue
        results.append(
            PairInflation(
                src_server_id=src_id,
                dst_server_id=dst_id,
                version=version,
                median_rtt_ms=median_rtt,
                crtt_ms=crtt,
                ratio=ratio,
                us_to_us=src.city.country == "US" and dst.city.country == "US",
                transcontinental=src.city.continent != dst.city.continent,
            )
        )
    return InflationStudy(pairs=results)
