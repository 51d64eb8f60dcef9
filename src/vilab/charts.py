"""Minimal self-contained SVG log-log charts (no rendering dependencies)."""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 36, 50


def _ticks(lo: float, hi: float):
    a, b = math.floor(lo), math.ceil(hi)
    return [t for t in range(a, b + 1)]


def log_log_chart(series, title: str = "", xlabel: str = "n", ylabel: str = "value") -> str:
    """Render series (dicts with keys label, x, y and optional line=True) on
    decade-gridded log axes; returns the SVG document as a string."""
    xs = [math.log10(v) for s in series for v in s["x"] if v > 0]
    ys = [math.log10(v) for s in series for v in s["y"] if v > 0]
    if not xs or not ys:
        raise ValueError("chart needs positive data")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-9:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x, pad_y = 0.04 * (x_hi - x_lo), 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    def px(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">']
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    if title:
        out.append(f'<text x="{_W / 2}" y="20" text-anchor="middle" '
                   f'font-size="14">{title}</text>')
    # frame and decade grid
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
               f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            out.append(f'<line x1="{px(t):.1f}" y1="{_MT}" x2="{px(t):.1f}" '
                       f'y2="{_H - _MB}" stroke="#ddd"/>')
            out.append(f'<text x="{px(t):.1f}" y="{_H - _MB + 16}" '
                       f'text-anchor="middle">1e{t}</text>')
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            out.append(f'<line x1="{_ML}" y1="{py(t):.1f}" x2="{_W - _MR}" '
                       f'y2="{py(t):.1f}" stroke="#ddd"/>')
            out.append(f'<text x="{_ML - 6}" y="{py(t) + 4:.1f}" '
                       f'text-anchor="end">1e{t}</text>')
    out.append(f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{_H / 2}" text-anchor="middle" '
               f'transform="rotate(-90 16 {_H / 2})">{ylabel}</text>')

    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [(px(math.log10(x)), py(math.log10(y)))
               for x, y in zip(s["x"], s["y"]) if x > 0 and y > 0]
        if not pts:
            continue
        if s.get("line"):
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        else:
            for x, y in pts:
                out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')
        out.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 16 * idx}" '
                   f'text-anchor="end" fill="{color}">{s["label"]}</text>')
    out.append("</svg>")
    return "\n".join(out)
