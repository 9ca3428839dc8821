"""Lifetime x RTT-increase decile heatmaps (Figures 4 and 5).

Both axes are binned by the *deciles of the pooled distributions*: the
X axis by AS-path lifetime, the Y axis by the increase in the chosen RTT
percentile over the best path.  Each cell holds the percentage of all
(sub-optimal path, timeline) points falling in it, so all cells sum to
100%.  The paper's headline readings -- short-lived paths dominate the
large-increase rows -- come straight from the cell table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.routechange import path_lifetimes
from repro.core.rttstats import memoize_percentiles, rtt_increase_from_best
from repro.datasets.timeline import TraceTimeline

__all__ = ["DecileHeatmap", "collect_lifetime_increase_points", "build_heatmap"]


@dataclass
class DecileHeatmap:
    """A decile-binned 2D histogram.

    Attributes:
        x_edges / y_edges: Bin edges (length ``bins + 1``), from the pooled
            decile computation.
        cells: Percentages, shape ``(y_bins, x_bins)``; row 0 is the lowest
            increase decile (the paper's heatmaps draw it at the bottom).
    """

    x_edges: np.ndarray
    y_edges: np.ndarray
    cells: np.ndarray

    def row_sums(self) -> np.ndarray:
        """Percentage of points per increase decile (sums along rows)."""
        return self.cells.sum(axis=1)

    def column_sums(self) -> np.ndarray:
        """Percentage of points per lifetime decile."""
        return self.cells.sum(axis=0)

    def tail_increase_percent(self, row_from: int) -> float:
        """Total percentage in increase-decile rows ``row_from`` and above."""
        return float(self.cells[row_from:, :].sum())


def collect_lifetime_increase_points(
    timelines: Iterable[TraceTimeline], q: float
) -> List[Tuple[float, float]]:
    """Pool (lifetime, RTT increase) points over many timelines.

    One point per sub-optimal AS path per timeline; timelines with a single
    path contribute nothing (there is no sub-optimal path to speak of).
    """
    timelines = list(timelines)
    memoize_percentiles(timelines, q)
    points: List[Tuple[float, float]] = []
    for timeline in timelines:
        increases = rtt_increase_from_best(timeline, q=q)
        if not increases:
            continue
        lifetimes = path_lifetimes(timeline)
        for path_id, increase in increases.items():
            lifetime = lifetimes.get(path_id)
            if lifetime is None:
                continue
            points.append((lifetime, max(0.0, increase)))
    return points


def _decile_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Unique quantile edges; duplicate quantiles collapse bins, as in the
    paper's Figure 4 where the first two lifetime deciles coincide."""
    quantiles = np.linspace(0.0, 1.0, bins + 1)
    edges = np.unique(np.quantile(values, quantiles))
    if edges.size < 2:
        # All values identical: a single degenerate bin still needs two
        # edges (the caller widens the top edge to be inclusive).
        edges = np.array([edges[0], edges[0]])
    return edges


def build_heatmap(
    points: Sequence[Tuple[float, float]], bins: int = 10
) -> DecileHeatmap:
    """Bin pooled points into a decile heatmap.

    Raises:
        ValueError: On an empty point set.
    """
    if not points:
        raise ValueError("cannot build a heatmap from zero points")
    data = np.asarray(points, dtype=float)
    x_edges = _decile_edges(data[:, 0], bins)
    y_edges = _decile_edges(data[:, 1], bins)
    # Make the top edges inclusive.
    x_edges[-1] = np.nextafter(x_edges[-1], np.inf)
    y_edges[-1] = np.nextafter(y_edges[-1], np.inf)
    histogram, _, _ = np.histogram2d(data[:, 1], data[:, 0], bins=(y_edges, x_edges))
    cells = 100.0 * histogram / data.shape[0]
    return DecileHeatmap(x_edges=x_edges, y_edges=y_edges, cells=cells)
