"""IPv4 vs IPv6 paired comparison (Section 6, Figure 10a).

Whenever a pair was measured over both protocols in the same round, the
paper computes ``RTTv4 - RTTv6``.  Two populations are reported: all paired
traceroutes, and the subset whose observed AS paths agree across protocols
("Same AS-paths").  Positive values mean IPv6 was faster; the tails beyond
+/-50 ms quantify how much a dual-stack deployment can save by switching
protocols per destination.

The two populations are ~1.4M and ~1.0M values on the default scenario,
two of the largest transients of a run.  So the comparison keeps only
the paired timelines and per-pair medians; each population is built,
read and dropped in turn (:class:`DualStackComparison`), and a pair's
round masks are recomputed for each population rather than held.  A
population is a float32 buffer: the differences are float32 already,
and an ECDF over a float32 buffer reads bit for bit as the float64
ECDF of the widened values (:mod:`repro.core.ecdf`), at half the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.ecdf import ECDF
from repro.datasets.longterm import LongTermDataset
from repro.datasets.timeline import TraceTimeline
from repro.net.ip import IPVersion

__all__ = ["DualStackComparison", "paired_rtt_differences"]


_Pair = Tuple[Tuple[int, int], TraceTimeline, TraceTimeline]
"""One pair with paired rounds: ``(pair, v4, v6)``."""


@dataclass(eq=False)
class DualStackComparison:
    """The Figure 10a populations.

    The comparison keeps the paired timelines, not the populations nor
    their round masks: :attr:`all_diffs` and :attr:`same_path_diffs`
    build their ECDF on every read (one float32 buffer, filled and
    sorted in place) and do not cache it.  A caller that holds one
    population while it needs it, and drops it before reading the
    other, never holds both buffers at once.

    Attributes:
        pairs: Per pair with paired rounds, in pair order: the pair and
            its two timelines.
        per_pair_median: Median difference per server pair, for per-pair
            tail statistics ("for 3.7% of the endpoint pairs ...").
        paired_samples / same_path_samples: Population sizes.
    """

    pairs: List[_Pair]
    per_pair_median: Dict[Tuple[int, int], float]
    paired_samples: int
    same_path_samples: int

    @property
    def all_diffs(self) -> ECDF:
        """ECDF of ``RTTv4 - RTTv6`` over all paired traceroutes (built per read)."""
        return self._population(same_path=False)

    @property
    def same_path_diffs(self) -> ECDF:
        """Same, restricted to rounds where the observed AS paths match
        across protocols (built per read)."""
        return self._population(same_path=True)

    def _population(self, same_path: bool) -> ECDF:
        size = self.same_path_samples if same_path else self.paired_samples
        values = np.empty(size, dtype=np.float32)
        end = 0
        for _, v4, v6 in self.pairs:
            both = _paired_mask(v4, v6)
            diffs = _paired_diffs(v4, v6, both)
            if same_path:
                diffs = diffs[_same_path_mask(v4, v6, both)]
            start, end = end, end + diffs.size
            values[start:end] = diffs
        values.sort()
        return ECDF._adopt_sorted(values)

    def within_band_fraction(
        self, band_ms: float = 10.0, all_diffs: Optional[ECDF] = None
    ) -> float:
        """Fraction of paired traceroutes with |diff| <= band (the shaded
        region of Figure 10a).

        ``all_diffs`` is :attr:`all_diffs` if the caller holds it already;
        otherwise it is built for this call.
        """
        if all_diffs is None:
            all_diffs = self.all_diffs
        if len(all_diffs) == 0:
            return float("nan")
        return all_diffs.at(band_ms) - all_diffs.at(-band_ms - 1e-9)

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


def _paired_mask(v4: TraceTimeline, v6: TraceTimeline) -> np.ndarray:
    """The rounds both protocols measured usably, with a finite RTT."""
    return (
        v4.usable_mask()
        & v6.usable_mask()
        & np.isfinite(v4.rtt_ms)
        & np.isfinite(v6.rtt_ms)
    )


def _paired_diffs(v4: TraceTimeline, v6: TraceTimeline, both: np.ndarray) -> np.ndarray:
    """``RTTv4 - RTTv6`` over the paired rounds ``both``, in float32.

    One subtraction over the whole grid and one selection cost less than
    selecting each column first, and give the same values.
    """
    return (v4.rtt_ms - v6.rtt_ms).compress(both)


def _same_path_mask(v4: TraceTimeline, v6: TraceTimeline, both: np.ndarray) -> np.ndarray:
    """Over the paired rounds ``both``: whether the observed AS paths match.

    Raises:
        ValueError: A paired round carries a negative path id.
    """
    v4_ids = v4.path_id.compress(both)
    v6_ids = v6.path_id.compress(both)
    if v4_ids.min() < 0 or v6_ids.min() < 0:
        raise ValueError(f"usable sample without a path id for pair {v4.pair}")
    # Name each path by its first v6 id (-1: no v6 path equals it), so
    # the rounds compare ids instead of paths.
    first_v6: Dict[Tuple[int, ...], int] = {}
    for index, path in enumerate(v6.paths):
        first_v6.setdefault(path, index)
    v4_names = np.array([first_v6.get(path, -1) for path in v4.paths], dtype=np.intp)
    v6_names = np.array([first_v6[path] for path in v6.paths], dtype=np.intp)
    return v4_names.take(v4_ids) == v6_names.take(v6_ids)


def paired_rtt_differences(dataset: LongTermDataset) -> DualStackComparison:
    """Compute the paired IPv4/IPv6 comparison over a long-term dataset.

    One pass finds each pair's paired rounds and same-path subset,
    counts both populations and takes each pair's median difference.
    The populations themselves are built when read
    (:attr:`DualStackComparison.all_diffs`), so this call makes no
    population-sized array.

    Raises:
        ValueError: A usable sample carries a negative path id.
    """
    pairs: List[_Pair] = []
    per_pair: Dict[Tuple[int, int], float] = {}
    paired_count = 0
    same_count = 0
    for src, dst in dataset.pairs():
        key_v4 = (src, dst, IPVersion.V4)
        key_v6 = (src, dst, IPVersion.V6)
        if key_v4 not in dataset.timelines or key_v6 not in dataset.timelines:
            continue
        v4 = dataset.timelines[key_v4]
        v6 = dataset.timelines[key_v6]
        both = _paired_mask(v4, v6)
        if not both.any():
            continue
        same = _same_path_mask(v4, v6, both)
        pairs.append(((src, dst), v4, v6))
        # The median of the widened differences, as in the populations.
        diffs = _paired_diffs(v4, v6, both).astype(np.float64)
        per_pair[(src, dst)] = float(np.median(diffs))
        paired_count += diffs.size
        same_count += int(np.count_nonzero(same))
    return DualStackComparison(
        pairs=pairs,
        per_pair_median=per_pair,
        paired_samples=paired_count,
        same_path_samples=same_count,
    )
