"""Minimal self-contained SVG error-vs-cost plot (no rendering dependency)."""

from __future__ import annotations

import math
from typing import Sequence

_W, _H = 640, 480
_MARGIN = 60


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi == lo:
        hi = lo + 1.0
    return [out_lo + (v - lo) * (out_hi - out_lo) / (hi - lo) for v in vals]


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def loglog_plot(x: Sequence[float], y: Sequence[float], guide_y: Sequence[float],
                guide_label: str) -> str:
    """Log-log scatter of error y against cost x with a dashed guide curve
    (guide_y at the same x), as an SVG string."""
    lx = [math.log10(v) for v in x]
    ly = [math.log10(v) for v in y]
    gy = [math.log10(v) for v in guide_y]
    xlo, xhi = min(lx), max(lx)
    ylo, yhi = min(ly + gy), max(ly + gy)
    pad_x = 0.05 * (xhi - xlo or 1.0)
    pad_y = 0.05 * (yhi - ylo or 1.0)
    xlo, xhi, ylo, yhi = xlo - pad_x, xhi + pad_x, ylo - pad_y, yhi + pad_y

    def sx(vals):
        return _scale(vals, xlo, xhi, _MARGIN, _W - _MARGIN // 2)

    def sy(vals):
        return _scale(vals, ylo, yhi, _H - _MARGIN, _MARGIN // 2)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" font-size="14">error vs cost</text>',
        f'<line x1="{_MARGIN}" y1="{_H - _MARGIN}" x2="{_W - _MARGIN // 2}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN // 2}" x2="{_MARGIN}" '
        f'y2="{_H - _MARGIN}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 15}" text-anchor="middle" font-size="12">cost_n</text>',
        f'<text x="15" y="{_H // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {_H // 2})">|theta_bar - theta*|</text>',
    ]
    for t in _ticks(xlo, xhi):
        px = sx([t])[0]
        parts.append(f'<line x1="{px:.1f}" y1="{_H - _MARGIN}" x2="{px:.1f}" '
                     f'y2="{_H - _MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H - _MARGIN + 18}" text-anchor="middle" '
                     f'font-size="10">1e{t:.1f}</text>')
    for t in _ticks(ylo, yhi):
        py = sy([t])[0]
        parts.append(f'<line x1="{_MARGIN - 5}" y1="{py:.1f}" x2="{_MARGIN}" '
                     f'y2="{py:.1f}" stroke="black"/>')
        parts.append(f'<text x="{_MARGIN - 8}" y="{py + 3:.1f}" text-anchor="end" '
                     f'font-size="10">1e{t:.1f}</text>')
    gpx, gpy = sx(lx), sy(gy)
    pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(gpx, gpy))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="gray" '
                 f'stroke-dasharray="6,4" stroke-width="1.5"/>')
    parts.append(f'<text x="{_W - _MARGIN // 2 - 5}" y="{_MARGIN // 2 + 12}" text-anchor="end" '
                 f'font-size="11" fill="gray">{guide_label}</text>')
    for a, b in zip(sx(lx), sy(ly)):
        parts.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    return "\n".join(parts)
