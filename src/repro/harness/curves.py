"""Text-mode curve rendering: ECDF plots and RTT timelines.

The paper's figures are ECDFs and time series; these renderers draw them
as character grids so a terminal-only reproduction can still *show* the
curves, not just quantiles.  Used by the examples and available to any
report that wants a visual.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ecdf import ECDF
from repro.datasets.timeline import TraceTimeline

__all__ = ["plot_ecdfs", "plot_timeline"]

_MARKS = "#*o+x%@&"


def _format_axis_value(value: float) -> str:
    if abs(value) >= 100:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.1f}"
    return f"{value:.2f}"


def plot_ecdfs(
    curves: Sequence[Tuple[str, ECDF]],
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    log_x: bool = False,
) -> str:
    """Draw one or more ECDFs on a shared character grid.

    Args:
        curves: ``(label, ecdf)`` pairs; empty ECDFs are skipped.
        width / height: Grid size in characters.
        x_label: Axis caption appended below the grid.
        log_x: Log-scale the x axis (the paper does for path counts).

    Returns:
        A multi-line string: the grid, an x-axis line, and a legend.
    """
    drawable = [(label, ecdf) for label, ecdf in curves if len(ecdf) > 0]
    if not drawable:
        return "(no data)"
    lows = [ecdf.values[0] for _, ecdf in drawable]
    highs = [ecdf.values[-1] for _, ecdf in drawable]
    x_min, x_max = min(lows), max(highs)
    if log_x:
        x_min = max(x_min, 1e-9)
        x_max = max(x_max, x_min * 10)
    if x_max <= x_min:
        x_max = x_min + 1.0

    def x_position(value: float) -> int:
        if log_x:
            fraction = (np.log10(max(value, x_min)) - np.log10(x_min)) / (
                np.log10(x_max) - np.log10(x_min)
            )
        else:
            fraction = (value - x_min) / (x_max - x_min)
        return min(width - 1, max(0, int(round(fraction * (width - 1)))))

    grid = [[" "] * width for _ in range(height)]
    for curve_index, (_, ecdf) in enumerate(drawable):
        mark = _MARKS[curve_index % len(_MARKS)]
        for column in range(width):
            if log_x:
                x = 10 ** (
                    np.log10(x_min)
                    + column / (width - 1) * (np.log10(x_max) - np.log10(x_min))
                )
            else:
                x = x_min + column / (width - 1) * (x_max - x_min)
            probability = ecdf.at(x)
            row = height - 1 - min(
                height - 1, max(0, int(round(probability * (height - 1))))
            )
            if grid[row][column] == " ":
                grid[row][column] = mark

    lines: List[str] = []
    for row_index, row in enumerate(grid):
        probability = 1.0 - row_index / (height - 1)
        prefix = f"{probability:4.2f} |" if row_index % 5 == 0 else "     |"
        lines.append(prefix + "".join(row))
    lines.append("     +" + "-" * width)
    left = _format_axis_value(x_min)
    right = _format_axis_value(x_max)
    axis = f"      {left}" + " " * max(1, width - len(left) - len(right) - 1) + right
    lines.append(axis)
    if x_label:
        lines.append(f"      x: {x_label}" + ("  (log scale)" if log_x else ""))
    legend = "  ".join(
        f"{_MARKS[index % len(_MARKS)]} {label}"
        for index, (label, _) in enumerate(drawable)
    )
    lines.append("      " + legend)
    return "\n".join(lines)


def plot_timeline(
    timeline: TraceTimeline,
    width: int = 72,
    height: int = 14,
    title: Optional[str] = None,
) -> str:
    """Draw one trace timeline's RTT series, marking path changes.

    RTT samples render as ``.``; columns where the observed AS path differs
    from the previous column's get a ``|`` marker on the top row -- the
    level-shift view of the paper's Figure 1a.
    """
    usable = timeline.usable_rtt_mask()
    if not usable.any():
        return "(no usable samples)"
    times = timeline.times_hours
    rtts = np.where(usable, timeline.rtt_ms, np.nan)
    buckets = np.array_split(np.arange(times.size), width)

    column_rtt = np.full(width, np.nan)
    column_path = np.full(width, -1, dtype=int)
    for index, bucket in enumerate(buckets):
        if bucket.size == 0:
            continue
        values = rtts[bucket]
        finite = values[np.isfinite(values)]
        if finite.size:
            column_rtt[index] = float(np.median(finite))
        ids = timeline.path_id[bucket]
        ids = ids[ids >= 0]
        if ids.size:
            column_path[index] = int(np.bincount(ids).argmax())

    finite = column_rtt[np.isfinite(column_rtt)]
    low, high = float(finite.min()), float(finite.max())
    if high <= low:
        high = low + 1.0

    grid = [[" "] * width for _ in range(height)]
    previous_path = -1
    for column in range(width):
        if column_path[column] >= 0:
            if previous_path >= 0 and column_path[column] != previous_path:
                grid[0][column] = "|"
            previous_path = column_path[column]
        value = column_rtt[column]
        if not np.isfinite(value):
            continue
        fraction = (value - low) / (high - low)
        row = height - 1 - min(height - 1, max(0, int(round(fraction * (height - 2)))))
        grid[row][column] = "."

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{_format_axis_value(high):>8} ms")
    lines.extend("     " + "".join(row) for row in grid)
    lines.append(f"{_format_axis_value(low):>8} ms   "
                 f"[{times[0]:.0f}h .. {times[-1]:.0f}h]   '|' = AS-path change")
    return "\n".join(lines)
