"""Standalone SVG heatmaps for saliency grids — no plotting dependencies.

Values are mapped linearly onto a perceptually-ordered dark-to-bright ramp
(brighter = larger), with row/column labels, a title line, and a vertical
color bar.  Output is deterministic: fixed float formatting, no timestamps.
"""

from __future__ import annotations

from html import escape
from typing import Sequence

import numpy as np

# Dark-violet to bright-yellow ramp, sampled from a perceptually uniform map.
RAMP = (
    "#440154",
    "#472d7b",
    "#3b528b",
    "#2c728e",
    "#21918c",
    "#28ae80",
    "#5ec962",
    "#addc30",
    "#fde725",
)

_MISSING = "#cccccc"
# Edge of one grid cell, in SVG pixels.
CELL = 26


def _rgb(spec: str) -> tuple[int, int, int]:
    return int(spec[1:3], 16), int(spec[3:5], 16), int(spec[5:7], 16)


_ANCHORS = tuple(_rgb(c) for c in RAMP)


def ramp_color(unit: float) -> str:
    """Interpolate the ramp at ``unit`` in [0, 1] (clipped)."""
    x = min(max(float(unit), 0.0), 1.0) * (len(_ANCHORS) - 1)
    i = min(int(x), len(_ANCHORS) - 2)
    t = x - i
    lo, hi = _ANCHORS[i], _ANCHORS[i + 1]
    channels = (round(a + (b - a) * t) for a, b in zip(lo, hi))
    return "#" + "".join(f"{int(c):02x}" for c in channels)


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def svg_heatmap(
    values: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    title: str,
    subtitle: str = "",
) -> str:
    """Render a labeled matrix as a self-contained SVG document string."""
    values = np.asarray(values, dtype=np.float64)
    rows, cols = values.shape
    finite = values[np.isfinite(values)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    span = vmax - vmin

    left = 16 + 7 * max((len(r) for r in row_labels), default=0)
    top = 52
    bottom = 18 + 6 * max((len(c) for c in col_labels), default=0)
    bar_x = left + cols * CELL + 20
    width = bar_x + 14 + 64
    height = top + max(rows * CELL, 64) + bottom

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="10" y="20" font-size="13" font-weight="bold">'
        f"{escape(title)}</text>",
    ]
    if subtitle:
        parts.append(
            f'<text x="10" y="38" font-size="10" fill="#555555">'
            f"{escape(subtitle)}</text>"
        )

    for i in range(rows):
        for j in range(cols):
            v = values[i, j]
            if not np.isfinite(v):
                color = _MISSING
            elif span == 0:
                color = ramp_color(0.5)
            else:
                color = ramp_color((v - vmin) / span)
            x, y = left + j * CELL, top + i * CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
                f'fill="{color}"><title>{escape(row_labels[i])} / '
                f"{escape(col_labels[j])}: {_fmt(v)}</title></rect>"
            )

    for i, label in enumerate(row_labels):
        y = top + i * CELL + CELL - 8
        parts.append(
            f'<text x="{left - 6}" y="{y}" font-size="10" '
            f'text-anchor="end">{escape(label)}</text>'
        )
    base = top + rows * CELL
    for j, label in enumerate(col_labels):
        x = left + j * CELL + CELL // 2 + 3
        parts.append(
            f'<text x="{x}" y="{base + 10}" font-size="10" text-anchor="end" '
            f'transform="rotate(-55 {x} {base + 10})">{escape(label)}</text>'
        )

    bar_h = max(rows * CELL, 64)
    steps = 32
    for k in range(steps):
        frac = 1.0 - (k + 0.5) / steps
        y = top + k * bar_h / steps
        parts.append(
            f'<rect x="{bar_x}" y="{y:.1f}" width="14" '
            f'height="{bar_h / steps + 0.5:.1f}" fill="{ramp_color(frac)}"/>'
        )
    parts.append(
        f'<text x="{bar_x + 18}" y="{top + 9}" font-size="10">{_fmt(vmax)}</text>'
    )
    parts.append(
        f'<text x="{bar_x + 18}" y="{top + bar_h}" font-size="10">'
        f"{_fmt(vmin)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
