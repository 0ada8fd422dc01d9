"""Deterministic SVG plots of a correlation series.

The plot is drawn from the series values in memory (entry N is c_N);
`koopman.CorrelationSeries.to_csv_text` alone writes the CSV.  Every
coordinate is formatted with a fixed "%.6g" so identical values produce
identical output bytes; no timestamps, no randomness, no external
assets.  The layout is two panels: |c_N| on a log axis and the
running quadratic average A_N = (1/N) sum |c_n|^2 on a linear axis.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-16

_W, _H = 840, 320
_PANEL_W, _PANEL_H = 330, 220
_LEFT1, _LEFT2, _TOP = 60, 475, 50


def _fmt(v: float) -> str:
    out = f"{float(v):.6g}"
    return "0" if out == "-0" else out


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / 4 for i in range(5)]  # five ticks per axis


def _panel(x0: float, title: str, xs, ys, y_lo: float, y_hi: float,
           x_max: float, marker_class: str) -> list[str]:
    out = [f'<g font-family="monospace" font-size="11">']
    out.append(f'<rect x="{_fmt(x0)}" y="{_fmt(_TOP)}" width="{_fmt(_PANEL_W)}" '
               f'height="{_fmt(_PANEL_H)}" fill="none" stroke="#444"/>')
    out.append(f'<text x="{_fmt(x0 + _PANEL_W / 2)}" y="{_fmt(_TOP - 14)}" '
               f'text-anchor="middle" font-size="13">{title}</text>')

    def px(n):
        return x0 + _PANEL_W * (n / x_max if x_max > 0 else 0.5)

    def py(v):
        return _TOP + _PANEL_H * (1.0 - (v - y_lo) / (y_hi - y_lo))

    for tv in _ticks(y_lo, y_hi):
        y = py(tv)
        out.append(f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(y)}" x2="{_fmt(x0)}" '
                   f'y2="{_fmt(y)}" stroke="#444"/>')
        out.append(f'<text x="{_fmt(x0 - 8)}" y="{_fmt(y + 4)}" '
                   f'text-anchor="end">{_fmt(tv)}</text>')
    for tn in _ticks(0.0, x_max):
        x = px(tn)
        out.append(f'<line x1="{_fmt(x)}" y1="{_fmt(_TOP + _PANEL_H)}" x2="{_fmt(x)}" '
                   f'y2="{_fmt(_TOP + _PANEL_H + 4)}" stroke="#444"/>')
        out.append(f'<text x="{_fmt(x)}" y="{_fmt(_TOP + _PANEL_H + 18)}" '
                   f'text-anchor="middle">{_fmt(round(tn))}</text>')
    out.append(f'<text x="{_fmt(x0 + _PANEL_W / 2)}" y="{_fmt(_TOP + _PANEL_H + 36)}" '
               f'text-anchor="middle">N</text>')

    if len(xs):
        # each coordinate formatted once, for the polyline and the circles
        cx = map(_fmt, np.broadcast_to(px(np.asarray(xs)), np.shape(xs)).tolist())
        coords = list(zip(cx, map(_fmt, py(np.asarray(ys)).tolist())))
        if len(xs) > 1:
            pts = " ".join(map(",".join, coords))
            out.append(f'<polyline points="{pts}" fill="none" stroke="#1f6feb" '
                       f'stroke-width="1.2"/>')
        for x, y in coords:
            out.append(f'<circle class="{marker_class}" cx="{x}" cy="{y}" r="2.6" '
                       f'fill="#1f6feb"/>')
    else:
        out.append(f'<text x="{_fmt(x0 + _PANEL_W / 2)}" '
                   f'y="{_fmt(_TOP + _PANEL_H / 2)}" text-anchor="middle" '
                   f'fill="#888">no entries</text>')
    out.append("</g>")
    return out


def render_series_svg(values, title: str = "") -> str:
    """Two-panel SVG (log10 |c_N|, linear A_N) of the series c_0..c_Nmax."""
    mags = np.abs(np.asarray(values))
    ns = np.arange(mags.size)
    x_max = float(max(mags.size - 1, 1))

    logs = np.log10(np.maximum(mags, LOG_FLOOR))
    lo = float(np.floor(np.min(logs)))
    hi = float(np.ceil(np.max(logs)))
    if hi <= lo:
        hi = lo + 1.0

    a_ns = ns[1:]
    avg = np.cumsum(mags[1:] ** 2) / np.arange(1, a_ns.size + 1)
    a_hi = max(float(np.max(avg)) * 1.1, 1e-12) if a_ns.size else 1.0

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W // 2}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{_escape(title)}</text>',
    ]
    parts += _panel(_LEFT1, "log10 |c_N|", ns, logs, lo, hi, x_max, "pt-mag")
    parts += _panel(_LEFT2, "running average A_N", a_ns, avg, 0.0, a_hi, x_max, "pt-avg")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def emit_plot(series, svg_path, title: str = "") -> None:
    """Write the SVG of a `koopman.CorrelationSeries` to svg_path."""
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_series_svg(series.values, title=title))
