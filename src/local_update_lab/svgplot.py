"""Hand-emitted SVG plots (no plotting dependency).

Enough for frontier polylines on the unit square: axes labelled rho and
delta, 0.1-spaced ticks with grid lines, one polyline per series, and a
legend. Output is plain markup with fixed numeric formatting, so identical
inputs give byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_PALETTE = ("#1f6fb2", "#d95f02", "#2ca02c", "#7570b3", "#a6611a", "#c51b7d")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def unit_square_plot(series: list[tuple[str, np.ndarray]], title: str = "") -> str:
    """SVG of polylines in [0, 1]^2 with 0.1 ticks and a legend.

    series is a list of (label, points) with points an (n, 2) array of
    (rho, delta) values inside the unit square.
    """
    if not series:
        raise InvalidInputError("need at least one series")
    size, margin = 480, 56  # pixels: the image's side, and the space around the plotting area
    span = size - 2 * margin

    def sx(x: float) -> float:
        return margin + x * span

    def sy(y: float) -> float:
        return size - margin - y * span

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    )
    out.append(f'<rect x="0" y="0" width="{size}" height="{size}" fill="white"/>')
    if title:
        out.append(
            f'<text x="{size / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_esc(title)}</text>'
        )
    # grid and ticks at 0.1 intervals
    for i in range(11):
        v = i / 10.0
        x = sx(v)
        y = sy(v)
        out.append(
            f'<line x1="{x:.2f}" y1="{sy(0):.2f}" x2="{x:.2f}" y2="{sy(1):.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{sx(0):.2f}" y1="{y:.2f}" x2="{sx(1):.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{sy(0) + 18:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{v:.1f}</text>'
        )
        out.append(
            f'<text x="{sx(0) - 8:.2f}" y="{y + 3:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{v:.1f}</text>'
        )
    # axes
    out.append(
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(0):.2f}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(0):.2f}" y2="{sy(1):.2f}" '
        'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{sx(0.5):.2f}" y="{size - margin / 4:.2f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">rho</text>'
    )
    out.append(
        f'<text x="{margin / 4:.2f}" y="{sy(0.5):.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 {margin / 4:.2f} {sy(0.5):.2f})">delta</text>'
    )
    # series
    for index, (label, points) in enumerate(series):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or points.shape[0] == 0:
            raise InvalidInputError(f"series {label!r} must be a nonempty (n, 2) array")
        color = _PALETTE[index % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in points)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        for x, y in points:
            out.append(
                f'<circle cx="{sx(x):.3f}" cy="{sy(y):.3f}" r="2.2" fill="{color}"/>'
            )
    # legend
    lx = sx(1.0) - 150
    ly = sy(1.0) + 10
    for index, (label, _) in enumerate(series):
        color = _PALETTE[index % len(_PALETTE)]
        y = ly + 16 * index
        out.append(
            f'<line x1="{lx:.1f}" y1="{y:.1f}" x2="{lx + 22:.1f}" y2="{y:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 28:.1f}" y="{y + 4:.1f}" font-family="sans-serif" '
            f'font-size="11">{_esc(label)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def frontier_svg(frontier, title: str = "") -> str:
    """One polyline per optimizer series of a frontier."""
    series = []
    for kind in frontier.spec.optimizers:
        pts = frontier.coordinates(kind)
        if pts.shape[0]:
            series.append((kind, pts))
    return unit_square_plot(series, title=title)
