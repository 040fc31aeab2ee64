"""ASCII line charts for sweep results.

The paper's figures are line plots; for a terminal-only environment we
render them as character rasters — one mark per algorithm, shared axes,
a legend — so ``python -m repro sweep --plot`` and the examples can
show the *shape* of a result, not just its table.

Pure string manipulation; no dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

#: Marks assigned to series in order.
SERIES_MARKS = "*o+x#@%&"


def _scale(value: float, low: float, high: float, size: int) -> int:
    """Map value in [low, high] to a raster coordinate in [0, size-1]."""
    if high <= low:
        return 0
    position = (value - low) / (high - low)
    return min(size - 1, max(0, round(position * (size - 1))))


def ascii_chart(series: Dict[str, Sequence[Tuple[float, float]]],
                width: int = 64, height: int = 18,
                title: Optional[str] = None,
                y_label: str = "", x_label: str = "") -> str:
    """Render ``{name: [(x, y), ...]}`` as an ASCII chart.

    Points are plotted with per-series marks and joined by linear
    interpolation along x.  Collisions show the later series' mark.
    """
    if not series:
        raise ValueError("nothing to plot")
    if width < 16 or height < 6:
        raise ValueError("raster too small to be legible")
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        raise ValueError("every series is empty")
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    if y_low == y_high:
        y_low, y_high = y_low - 1.0, y_high + 1.0

    raster = [[" "] * width for _ in range(height)]

    def plot(col: int, row: int, mark: str) -> None:
        raster[height - 1 - row][col] = mark

    legend: List[str] = []
    for index, (name, pts) in enumerate(series.items()):
        mark = SERIES_MARKS[index % len(SERIES_MARKS)]
        legend.append(f"{mark} {name}")
        ordered = sorted(pts)
        # interpolate along the x raster between consecutive points
        for (x0, y0), (x1, y1) in zip(ordered, ordered[1:]):
            c0 = _scale(x0, x_low, x_high, width)
            c1 = _scale(x1, x_low, x_high, width)
            for col in range(c0, c1 + 1):
                if c1 == c0:
                    y = y1
                else:
                    fraction = (col - c0) / (c1 - c0)
                    y = y0 + fraction * (y1 - y0)
                plot(col, _scale(y, y_low, y_high, height), mark)
        for x, y in ordered:  # end markers win over line fills
            plot(_scale(x, x_low, x_high, width),
                 _scale(y, y_low, y_high, height), mark)

    gutter = max(len(f"{y_high:.0f}"), len(f"{y_low:.0f}"))
    lines: List[str] = []
    if title:
        lines.append(title)
    top_label = f"{y_high:.0f}".rjust(gutter)
    bottom_label = f"{y_low:.0f}".rjust(gutter)
    for row_index, row in enumerate(raster):
        if row_index == 0:
            label = top_label
        elif row_index == height - 1:
            label = bottom_label
        else:
            label = " " * gutter
        lines.append(f"{label} |{''.join(row)}")
    axis = " " * gutter + " +" + "-" * width
    lines.append(axis)
    x_axis = (f"{x_low:g}".ljust(width // 2)
              + f"{x_high:g}".rjust(width - width // 2))
    lines.append(" " * (gutter + 2) + x_axis)
    if x_label or y_label:
        lines.append(" " * (gutter + 2)
                     + f"x: {x_label}   y: {y_label}".strip())
    lines.append("  ".join(legend))
    return "\n".join(lines)


def chart_sweep(sweep, metric: str = "makespan_minutes",
                schedulers: Optional[Sequence[str]] = None,
                **kwargs) -> str:
    """ASCII chart of a :class:`~repro.exp.sweep.SweepResult` metric."""
    names = list(schedulers) if schedulers else list(sweep.schedulers)
    series = {
        name: [(float(x), float(y)) for x, y in sweep.series(name, metric)]
        for name in names
    }
    kwargs.setdefault("x_label", sweep.field)
    kwargs.setdefault("y_label", metric)
    return ascii_chart(series, **kwargs)
