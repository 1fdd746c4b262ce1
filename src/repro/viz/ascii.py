"""Minimal ASCII plotting for figure regeneration in the terminal."""

from __future__ import annotations

import numpy as np

_SERIES_GLYPHS = "*o+x#@%&"


def _scale(values: np.ndarray, lo: float, hi: float, size: int) -> np.ndarray:
    """Map values in [lo, hi] to integer cells [0, size-1]."""
    if hi == lo:
        return np.zeros(values.shape, dtype=int)
    frac = (values - lo) / (hi - lo)
    return np.clip((frac * (size - 1)).round().astype(int), 0, size - 1)


def ascii_line_plot(
    x: np.ndarray,
    series: dict[str, np.ndarray],
    width: int = 72,
    height: int = 18,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render one or more series over a shared x axis.

    Args:
        x: shared x values.
        series: name → y values (aligned with ``x``); non-finite points
            are skipped.
        width: plot width in characters.
        height: plot height in rows.
        title: optional heading.
        x_label: optional x-axis caption.
        y_label: optional y-axis caption.

    Returns:
        Multi-line string.
    """
    xs = np.asarray(x, dtype=np.float64)
    if not series:
        raise ValueError("at least one series is required")
    all_y = np.concatenate(
        [np.asarray(v, dtype=np.float64)[np.isfinite(v)] for v in series.values()]
    )
    if all_y.size == 0:
        raise ValueError("all series are empty or non-finite")
    y_lo, y_hi = float(all_y.min()), float(all_y.max())
    x_lo, x_hi = float(xs.min()), float(xs.max())

    grid = [[" "] * width for _ in range(height)]
    for s_idx, (name, values) in enumerate(series.items()):
        ys = np.asarray(values, dtype=np.float64)
        if ys.shape != xs.shape:
            raise ValueError(f"series {name!r} does not align with x")
        glyph = _SERIES_GLYPHS[s_idx % len(_SERIES_GLYPHS)]
        finite = np.isfinite(ys)
        cols = _scale(xs[finite], x_lo, x_hi, width)
        rows = _scale(ys[finite], y_lo, y_hi, height)
        for col, row in zip(cols, rows):
            grid[height - 1 - row][col] = glyph

    lines = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(f"[y: {y_label}]  range {y_lo:.4g} .. {y_hi:.4g}")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    footer = f"x: {x_lo:.4g} .. {x_hi:.4g}"
    if x_label:
        footer += f"  [{x_label}]"
    lines.append(footer)
    legend = "  ".join(
        f"{_SERIES_GLYPHS[i % len(_SERIES_GLYPHS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append("legend: " + legend)
    return "\n".join(lines)


def ascii_histogram(
    values: np.ndarray,
    bins: int = 24,
    width: int = 50,
    title: str = "",
) -> str:
    """Horizontal-bar histogram of scalar values."""
    vals = np.asarray(values, dtype=np.float64)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        raise ValueError("no finite values to plot")
    counts, edges = np.histogram(vals, bins=bins)
    peak = counts.max() if counts.max() else 1
    lines = [title] if title else []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(count / peak * width))
        lines.append(f"{lo:>10.4g} .. {hi:<10.4g} |{bar} {count}")
    return "\n".join(lines)
