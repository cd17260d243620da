"""ASCII charts for terminal experiment reports.

The benchmark harness prints the paper's series as tables; for the
figures whose *shape* is the claim (trade-off curves, scaling curves),
an inline chart makes the shape reviewable without plotting tools.
No external dependencies — pure text.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.utils.validation import check_positive


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 40,
    unit: str = "",
) -> str:
    """Horizontal bars, labels left, values right."""
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels vs {len(values)} values")
    if not labels:
        raise ValueError("no data")
    check_positive("width", width)
    peak = max(float(v) for v in values)
    if peak <= 0:
        raise ValueError("bar chart needs a positive maximum")
    label_width = max(len(str(label)) for label in labels)
    lines = []
    for label, value in zip(labels, values):
        filled = int(round(width * float(value) / peak))
        bar = "█" * filled
        lines.append(
            f"{str(label).ljust(label_width)} |{bar.ljust(width)}| "
            f"{float(value):g}{unit}"
        )
    return "\n".join(lines)


def scatter(
    points: Sequence[Tuple[float, float]],
    width: int = 56,
    height: int = 14,
    markers: Optional[Sequence[str]] = None,
    log_x: bool = False,
) -> str:
    """A character-grid scatter plot (one marker per series point).

    ``markers`` assigns a character per point (e.g. per method in a
    trade-off plot); defaults to ``*``.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if not pts:
        raise ValueError("no points")
    check_positive("width", width)
    check_positive("height", height)
    marks: List[str] = list(markers) if markers is not None else ["*"] * len(pts)
    if len(marks) != len(pts):
        raise ValueError(f"{len(marks)} markers vs {len(pts)} points")

    def tx(x: float) -> float:
        if not log_x:
            return x
        if x <= 0:
            raise ValueError("log_x requires positive x values")
        return math.log10(x)

    xs = [tx(x) for x, _ in pts]
    ys = [y for _, y in pts]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for (x, y), mark in zip(zip(xs, ys), marks):
        col = int((x - x_low) / x_span * (width - 1))
        row = height - 1 - int((y - y_low) / y_span * (height - 1))
        grid[row][col] = mark[0]

    lines = ["".join(row).rstrip() for row in grid]
    frame = [f"{y_high:10.3g} ┤" + lines[0]]
    frame += ["           │" + line for line in lines[1:-1]]
    frame.append(f"{y_low:10.3g} ┤" + lines[-1])
    frame.append("           └" + "─" * width)
    frame.append(
        f"            {x_low if not log_x else 10**x_low:<10.3g}"
        + " " * max(0, width - 22)
        + f"{x_high if not log_x else 10**x_high:>10.3g}"
    )
    return "\n".join(frame)
