"""Minimal static SVG plots (no external plotting dependency).

Two kinds are enough here: score-versus-alpha polylines for sweeps and a
scatter matrix for measure comparisons. Output is deterministic: fixed float
formatting, no timestamps, colors cycled from a fixed palette.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

# canvas size of a sweep plot and side of one scatter-matrix panel, in px
_SWEEP_WIDTH, _SWEEP_HEIGHT = 640, 420
_PANEL = 150


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    """text safe as SVG element content."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def sweep_plot(alphas: Sequence[float], labels: Sequence[str], scores: np.ndarray) -> str:
    """Polyline per vertex of score (y) against alpha (x), on a
    _SWEEP_WIDTH x _SWEEP_HEIGHT canvas.

    scores has shape (len(labels), len(alphas)).
    """
    width, height = _SWEEP_WIDTH, _SWEEP_HEIGHT
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(labels), len(alphas)):
        raise ValueError("scores must be (vertices x alphas)")
    ml, mr, mt, mb = 56, 16, 16, 44
    pw, ph = width - ml - mr, height - mt - mb
    a_lo, a_hi = min(alphas), max(alphas)
    s_lo, s_hi = 0.0, float(scores.max()) * 1.05 or 1.0

    def sx(a: float) -> float:
        return ml + (a - a_lo) / (a_hi - a_lo or 1.0) * pw

    def sy(s: float) -> float:
        return mt + ph - (s - s_lo) / (s_hi - s_lo or 1.0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
    ]
    for t in _axis_ticks(a_lo, a_hi):
        x = sx(t)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{mt + ph}" x2="{_fmt(x)}" y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{mt + ph + 18}" font-size="11" text-anchor="middle">{t:.2f}</text>'
        )
    for t in _axis_ticks(s_lo, s_hi):
        y = sy(t)
        parts.append(
            f'<line x1="{ml - 5}" y1="{_fmt(y)}" x2="{ml}" y2="{_fmt(y)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{_fmt(y + 4)}" font-size="11" text-anchor="end">{t:.3f}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.0f}" y="{height - 8}" font-size="12" text-anchor="middle">alpha</text>'
    )
    for row, label in enumerate(labels):
        color = _PALETTE[row % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(sx(a))},{_fmt(sy(scores[row, col]))}" for col, a in enumerate(alphas)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{points}">'
            f"<title>{_escape(label)}</title></polyline>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_matrix(names: Sequence[str], vectors: Sequence[np.ndarray]) -> str:
    """Grid of pairwise score scatter plots, one _PANEL-wide panel per measure pair."""
    panel = _PANEL
    k = len(names)
    if k != len(vectors):
        raise ValueError("names and vectors differ in length")
    margin = 40
    width = height = margin + k * panel + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    mins = [float(np.min(v)) for v in vectors]
    maxs = [float(np.max(v)) for v in vectors]
    for row in range(k):
        for col in range(k):
            x0, y0 = margin + col * panel, margin + row * panel
            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{panel - 8}" height="{panel - 8}" '
                f'fill="none" stroke="#999"/>'
            )
            if row == col:
                parts.append(
                    f'<text x="{x0 + (panel - 8) / 2:.0f}" y="{y0 + panel / 2:.0f}" '
                    f'font-size="12" text-anchor="middle">{_escape(names[row])}</text>'
                )
                continue
            vx, vy = vectors[col], vectors[row]
            spanx = (maxs[col] - mins[col]) or 1.0
            spany = (maxs[row] - mins[row]) or 1.0
            for px, py in zip(vx, vy):
                cx = x0 + 4 + (px - mins[col]) / spanx * (panel - 16)
                cy = y0 + panel - 12 - (py - mins[row]) / spany * (panel - 16)
                parts.append(
                    f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="1.5" fill="#1f77b4" '
                    f'fill-opacity="0.6"/>'
                )
    for i, name in enumerate(names):
        parts.append(
            f'<text x="{margin + i * panel + (panel - 8) / 2:.0f}" y="{margin - 10}" '
            f'font-size="12" text-anchor="middle">{_escape(name)}</text>'
        )
        parts.append(
            f'<text x="{margin - 10}" y="{margin + i * panel + (panel - 8) / 2:.0f}" '
            f'font-size="12" text-anchor="end">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
