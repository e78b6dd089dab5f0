"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: identical data must yield identical bytes, which
rules out plotting libraries with environment-dependent output.  Standalone
files, no external references.
"""

from __future__ import annotations

import math
import sys

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_LOG10_MAX = math.log10(sys.float_info.max)
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _widen(lo: float, hi: float) -> tuple:
    """The axis range of values from lo to hi, never empty: (lo, lo + 1) for
    a single value, or that value and 0 where adding 1 does not change it."""
    if hi != lo:
        return lo, hi
    if lo + 1.0 != lo:
        return lo, lo + 1.0
    return min(lo, 0.0), max(lo, 0.0)


def _ticks(lo: float, hi: float, n: int = 6):
    span = hi - lo
    # a non-finite span, or one of a few subnormals, has no power-of-ten step
    step = 10.0 ** math.floor(math.log10(span / n)) if 0.0 < span / n < math.inf else 0.0
    if not step:
        return [lo]
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= n:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(t)
        if t + step == t:  # a step below the resolution of t never advances
            break
        t += step
    return out


def render_lines(series, title: str = "", log_y: bool = False) -> str:
    """series: list of (name, xs, ys); returns the SVG document text."""
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    pts = []
    for _, xs, ys in series:
        for x, y in zip(xs, ys):
            if log_y and y <= 0:
                continue
            pts.append((float(x), float(y)))
    body = []
    body.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    body.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    body.append(
        f'<text x="{_W // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>'
    )
    axis = (
        f'<path d="M {_ML} {_MT} V {_MT + plot_h} H {_ML + plot_w}" '
        f'fill="none" stroke="black"/>'
    )
    body.append(axis)
    if pts:
        x_lo, x_hi = _widen(min(p[0] for p in pts), max(p[0] for p in pts))
        ys = [math.log10(p[1]) if log_y else p[1] for p in pts]
        y_lo, y_hi = _widen(min(ys), max(ys))

        def sx(x):
            return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

        def sy(y):
            yy = math.log10(y) if log_y else y
            return _MT + plot_h - (yy - y_lo) / (y_hi - y_lo) * plot_h

        for t in _ticks(x_lo, x_hi):
            body.append(
                f'<text x="{_fmt(sx(t))}" y="{_H - 28}" text-anchor="middle" '
                f'font-family="monospace" font-size="11">{_fmt(t)}</text>'
            )
        for t in _ticks(y_lo, y_hi):
            if log_y and t > _LOG10_MAX:
                continue  # the tick's value 10^t is beyond the float range
            label = 10.0**t if log_y else t
            ypix = _MT + plot_h - (t - y_lo) / (y_hi - y_lo) * plot_h
            body.append(
                f'<text x="{_ML - 6}" y="{_fmt(ypix + 4)}" text-anchor="end" '
                f'font-family="monospace" font-size="11">{_fmt(label)}</text>'
            )
        for idx, (name, xs, ys_raw) in enumerate(series):
            color = _COLORS[idx % len(_COLORS)]
            coords = " ".join(
                f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}"
                for x, y in zip(xs, ys_raw)
                if not (log_y and y <= 0)
            )
            if coords:
                body.append(
                    f'<polyline points="{coords}" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
            body.append(
                f'<text x="{_ML + plot_w - 6}" y="{_MT + 16 + 16 * idx}" '
                f'text-anchor="end" font-family="monospace" font-size="12" '
                f'fill="{color}">{name}</text>'
            )
    body.append("</svg>")
    return "\n".join(body) + "\n"


def write_svg(path, series, title: str = "", log_y: bool = False):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(render_lines(series, title=title, log_y=log_y))
