"""Empirical cumulative distribution functions.

Every other figure in the paper is an ECDF; this tiny class standardizes
how they are computed, evaluated and rendered across the analyses,
benchmarks and reports.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

__all__ = ["ECDF"]


class ECDF:
    """An empirical CDF over a finite sample.

    NaNs in the input are dropped.  Evaluation uses the right-continuous
    convention: ``F(x) = P(X <= x)``.
    """

    def __init__(self, values: Iterable[float]) -> None:
        if not isinstance(values, np.ndarray):
            values = list(values)
        data = np.asarray(values, dtype=float)
        data = data[~np.isnan(data)]
        self._sorted = np.sort(data)

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
        if self._sorted.size == 0:
            return float("nan")
        return float(np.quantile(self._sorted, q))

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
