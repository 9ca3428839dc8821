"""Empirical cumulative distribution functions.

Every other figure in the paper is an ECDF; this tiny class standardizes
how they are computed, evaluated and rendered across the analyses,
benchmarks and reports.

An ECDF built from values holds them as float64.  One that adopts a
sorted float32 buffer (:meth:`ECDF._adopt_sorted`) holds half the bytes
and answers every read bit for bit as the float64 ECDF of the widened
sample would: quantiles widen their two order statistics and interpolate
in float64, and a probe is rounded to the float32 that selects the same
samples as the probe itself (down for ``at``, up for ``tail_fraction``).

Both hold ``-0.0`` as ``0.0``: a sort leaves equal signed zeros in no
fixed order, and a quantile must not depend on it.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

__all__ = ["ECDF", "partition_median", "sorted_quantiles"]


def sorted_quantiles(
    values: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    fraction: Union[float, np.ndarray],
    dtype: Optional[np.dtype] = None,
) -> np.ndarray:
    """The ``fraction``-quantile of many sorted float segments at once.

    Segment ``k`` is ``values[starts[k]:starts[k] + counts[k]]``, sorted
    ascending; each quantile is read off it by index, so nothing is
    copied or sorted.  ``0 <= fraction <= 1``, one for all segments or
    a float64 array of one per segment.  Each result is bit for bit
    ``np.quantile(segment, fraction)`` with numpy's ``linear`` rule and
    a Python-float ``fraction``: the weight is a Python float there, so
    numpy interpolates in the values' dtype (float32 segments in
    float32).  Empty segments give NaN.

    ``dtype`` interpolates in another float dtype instead: the order
    statistics are widened first, so float32 segments with ``dtype``
    float64 give bit for bit ``np.quantile`` of the widened segments.
    """
    dtype = values.dtype if dtype is None else np.dtype(dtype)
    counts = np.asarray(counts)
    result = np.full(counts.shape, np.nan, dtype=dtype)
    filled = counts > 0
    if not filled.any():
        return result
    starts, counts = np.asarray(starts)[filled], counts[filled]
    if np.ndim(fraction):
        fraction = np.asarray(fraction)[filled]
    virtual = (counts - 1) * fraction
    previous = np.floor(virtual)
    low = starts + np.minimum(previous, counts - 1).astype(np.intp)
    high = starts + np.minimum(previous + 1, counts - 1).astype(np.intp)
    weight = virtual - previous
    below, above = values[low].astype(dtype), values[high].astype(dtype)
    step = above - below
    lerp = below + step * weight.astype(dtype)
    upper = weight >= 0.5
    lerp[upper] = (above - step * (1 - weight).astype(dtype))[upper]
    result[filled] = lerp
    return result


def partition_median(values: np.ndarray) -> float:
    """``np.median(values)``, bit for bit, partitioning ``values`` in place.

    ``values`` is a non-empty 1-D float array without NaN, which the
    caller hands over.  One partition around the upper middle places it;
    the lower middle, for an even size, is the largest value below it.
    numpy's median is the mean of the middle element or pair: their sum
    from ``+0.0`` (so a zero median is ``+0.0``) in the array's dtype,
    over their count, and halving is exact.
    """
    half = values.size // 2
    values.partition(half)
    upper = values[half]
    if values.size % 2:
        return float(upper + 0.0)
    return float((values[:half].max() + upper + 0.0) / 2)


def _unsigned_zeros(values: np.ndarray) -> np.ndarray:
    """``values`` (sorted) with its run of zeros set to ``+0.0`` in place."""
    zero = values.dtype.type(0)
    start = np.searchsorted(values, zero, side="left")
    end = np.searchsorted(values, zero, side="right")
    if end > start:
        values[start:end] = zero
    return values


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
        self._sorted = _unsigned_zeros(np.sort(data))

    @classmethod
    def _adopt_sorted(cls, values: np.ndarray) -> "ECDF":
        """An ECDF that takes over ``values`` without copying.

        ``values`` must be a float64 or float32 array, sorted ascending,
        with no NaN; the caller hands it over and must not touch it
        afterwards.  A float32 buffer reads as the float64 ECDF of its
        widened values would.
        """
        ecdf = cls.__new__(cls)
        ecdf._sorted = _unsigned_zeros(values)
        return ecdf

    def __len__(self) -> int:
        return int(self._sorted.size)

    @property
    def values(self) -> np.ndarray:
        """The sorted sample (float32 if adopted as float32)."""
        return self._sorted

    def _probe(self, x: float, upward: bool) -> float:
        """``x`` as a probe of the sorted buffer.

        Against float32 samples, ``x`` becomes the largest float32 ``<= x``
        (``upward``: the smallest ``>= x``).  No float32 lies strictly
        between the two, so the probe selects the same samples as ``x``
        itself; and numpy never widens the buffer to compare it with a
        float64 probe.
        """
        if self._sorted.dtype != np.float32:
            return x
        with np.errstate(over="ignore"):
            rounded = np.float32(x)
        widened = float(rounded)
        if widened > x and not upward:
            rounded = np.nextafter(rounded, np.float32(-np.inf))
        elif widened < x and upward:
            rounded = np.nextafter(rounded, np.float32(np.inf))
        return rounded

    def at(self, x: float) -> float:
        """``P(X <= x)``; NaN for an empty sample."""
        if self._sorted.size == 0:
            return float("nan")
        position = np.searchsorted(self._sorted, self._probe(x, upward=False), side="right")
        return float(position / self._sorted.size)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``); NaN for an empty sample."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        size = self._sorted.size
        if size == 0:
            return float("nan")
        return float(sorted_quantiles(self._sorted, np.zeros(1, np.intp),
                                      np.full(1, size), q, np.float64)[0])

    def tail_fraction(self, x: float) -> float:
        """``P(X >= x)``; NaN for an empty sample."""
        if self._sorted.size == 0:
            return float("nan")
        position = np.searchsorted(self._sorted, self._probe(x, upward=True), side="left")
        return float((self._sorted.size - position) / self._sorted.size)

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
