"""Empirical cumulative distribution functions.

Every other figure in the paper is an ECDF; this tiny class standardizes
how they are computed, evaluated and rendered across the analyses,
benchmarks and reports.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["ECDF", "sorted_quantiles"]


def sorted_quantiles(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray, fraction: float
) -> np.ndarray:
    """The ``fraction``-quantile of many sorted float segments at once.

    Segment ``k`` is ``values[starts[k]:starts[k] + counts[k]]``, sorted
    ascending; each quantile is read off it by index, so nothing is
    copied or sorted.  ``0 <= fraction <= 1``.  Each result is bit for
    bit ``np.quantile(segment, fraction)`` with numpy's ``linear`` rule
    and a Python-float ``fraction``: the weight is a Python float there,
    so numpy interpolates in the values' dtype (float32 segments in
    float32).  Empty segments give NaN.
    """
    counts = np.asarray(counts)
    result = np.full(counts.shape, np.nan, dtype=values.dtype)
    filled = counts > 0
    if not filled.any():
        return result
    starts, counts = np.asarray(starts)[filled], counts[filled]
    virtual = (counts - 1) * fraction
    previous = np.floor(virtual)
    low = starts + np.minimum(previous, counts - 1).astype(np.intp)
    high = starts + np.minimum(previous + 1, counts - 1).astype(np.intp)
    weight = virtual - previous
    below, above = values[low], values[high]
    step = above - below
    lerp = below + step * weight.astype(values.dtype)
    upper = weight >= 0.5
    lerp[upper] = (above - step * (1 - weight).astype(values.dtype))[upper]
    result[filled] = lerp
    return result


class ECDF:
    """An empirical CDF over a finite sample.

    NaNs in the input are dropped.  Evaluation uses the right-continuous
    convention: ``F(x) = P(X <= x)``.  The input is never modified.
    """

    def __init__(self, values: Iterable[float]) -> None:
        if not isinstance(values, np.ndarray):
            values = list(values)
        data = np.asarray(values, dtype=float)
        nan = np.isnan(data)
        if nan.any():
            data = data[~nan]
        self._sorted = np.sort(data)

    @classmethod
    def _adopt_sorted(cls, values: np.ndarray) -> "ECDF":
        """An ECDF that takes over ``values`` without copying.

        ``values`` must be a float64 array, sorted ascending, with no
        NaN; the caller hands it over and must not touch it afterwards.
        """
        ecdf = cls.__new__(cls)
        ecdf._sorted = values
        return ecdf

    def __len__(self) -> int:
        return int(self._sorted.size)

    @property
    def values(self) -> np.ndarray:
        """The sorted sample."""
        return self._sorted

    def at(self, x: float) -> float:
        """``P(X <= x)``; NaN for an empty sample."""
        if self._sorted.size == 0:
            return float("nan")
        return float(np.searchsorted(self._sorted, x, side="right") / self._sorted.size)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``); NaN for an empty sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        size = self._sorted.size
        if size == 0:
            return float("nan")
        return float(sorted_quantiles(self._sorted, np.zeros(1, np.intp),
                                      np.full(1, size), q)[0])

    def tail_fraction(self, x: float) -> float:
        """``P(X >= x)``; NaN for an empty sample."""
        if self._sorted.size == 0:
            return float("nan")
        return float(
            (self._sorted.size - np.searchsorted(self._sorted, x, side="left"))
            / self._sorted.size
        )

    def points(self, max_points: int = 200) -> List[Tuple[float, float]]:
        """Down-sampled ``(x, F(x))`` points for plotting or reporting."""
        if self._sorted.size == 0:
            return []
        count = self._sorted.size
        positions = np.unique(
            np.linspace(0, count - 1, num=min(max_points, count)).astype(int)
        )
        return [
            (float(self._sorted[position]), float((position + 1) / count))
            for position in positions
        ]
