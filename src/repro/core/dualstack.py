"""IPv4 vs IPv6 paired comparison (Section 6, Figure 10a).

Whenever a pair was measured over both protocols in the same round, the
paper computes ``RTTv4 - RTTv6``.  Two populations are reported: all paired
traceroutes, and the subset whose observed AS paths agree across protocols
("Same AS-paths").  Positive values mean IPv6 was faster; the tails beyond
+/-50 ms quantify how much a dual-stack deployment can save by switching
protocols per destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.ecdf import ECDF
from repro.datasets.longterm import LongTermDataset
from repro.datasets.timeline import TraceTimeline
from repro.net.ip import IPVersion

__all__ = ["DualStackComparison", "paired_rtt_differences"]


@dataclass
class DualStackComparison:
    """The Figure 10a populations.

    Attributes:
        all_diffs: ECDF of ``RTTv4 - RTTv6`` over all paired traceroutes.
        same_path_diffs: Same, restricted to rounds where the observed AS
            paths match across protocols.
        per_pair_median: Median difference per server pair, for per-pair
            tail statistics ("for 3.7% of the endpoint pairs ...").
        paired_samples / same_path_samples: Population sizes.
    """

    all_diffs: ECDF
    same_path_diffs: ECDF
    per_pair_median: Dict[Tuple[int, int], float]
    paired_samples: int
    same_path_samples: int

    def within_band_fraction(self, band_ms: float = 10.0) -> float:
        """Fraction of paired traceroutes with |diff| <= band (the shaded
        region of Figure 10a)."""
        if len(self.all_diffs) == 0:
            return float("nan")
        return self.all_diffs.at(band_ms) - self.all_diffs.at(-band_ms - 1e-9)

    def v6_saves_fraction(self, threshold_ms: float = 50.0) -> float:
        """Fraction of pairs where switching to IPv6 saves >= threshold."""
        values = np.array(list(self.per_pair_median.values()))
        if values.size == 0:
            return float("nan")
        return float(np.mean(values >= threshold_ms))

    def v4_saves_fraction(self, threshold_ms: float = 50.0) -> float:
        """Fraction of pairs where switching to IPv4 saves >= threshold."""
        values = np.array(list(self.per_pair_median.values()))
        if values.size == 0:
            return float("nan")
        return float(np.mean(values <= -threshold_ms))


def _same_path_matrix(v4: TraceTimeline, v6: TraceTimeline) -> np.ndarray:
    """``[i, j]`` is whether IPv4 path ``i`` equals IPv6 path ``j``."""
    matrix = np.zeros((len(v4.paths), len(v6.paths)), dtype=bool)
    for i, path_v4 in enumerate(v4.paths):
        for j, path_v6 in enumerate(v6.paths):
            matrix[i, j] = path_v4 == path_v6
    return matrix


def paired_rtt_differences(dataset: LongTermDataset) -> DualStackComparison:
    """Compute the paired IPv4/IPv6 comparison over a long-term dataset.

    Raises:
        ValueError: A usable sample carries a negative path id.
    """
    all_diffs: List[np.ndarray] = []
    same_path_diffs: List[np.ndarray] = []
    per_pair: Dict[Tuple[int, int], float] = {}

    for src, dst in dataset.pairs():
        key_v4 = (src, dst, IPVersion.V4)
        key_v6 = (src, dst, IPVersion.V6)
        if key_v4 not in dataset.timelines or key_v6 not in dataset.timelines:
            continue
        v4 = dataset.timelines[key_v4]
        v6 = dataset.timelines[key_v6]
        both = (
            v4.usable_mask()
            & v6.usable_mask()
            & np.isfinite(v4.rtt_ms)
            & np.isfinite(v6.rtt_ms)
        )
        if not both.any():
            continue
        diffs = (v4.rtt_ms[both] - v6.rtt_ms[both]).astype(float)
        all_diffs.append(diffs)
        per_pair[(src, dst)] = float(np.median(diffs))

        # Same-AS-path subset: compare observed paths per round.
        v4_ids = v4.path_id[both]
        v6_ids = v6.path_id[both]
        if v4_ids.min() < 0 or v6_ids.min() < 0:
            raise ValueError(f"usable sample without a path id for pair {(src, dst)}")
        same = _same_path_matrix(v4, v6)[v4_ids, v6_ids]
        if same.any():
            same_path_diffs.append(diffs[same])

    all_values = np.concatenate(all_diffs) if all_diffs else np.empty(0)
    same_values = np.concatenate(same_path_diffs) if same_path_diffs else np.empty(0)
    return DualStackComparison(
        all_diffs=ECDF(all_values),
        same_path_diffs=ECDF(same_values),
        per_pair_median=per_pair,
        paired_samples=int(all_values.size),
        same_path_samples=int(same_values.size),
    )
