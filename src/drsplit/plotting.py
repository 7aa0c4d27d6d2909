"""Minimal standalone SVG emitter for residual-decay plots.

Values are drawn on a log10 vertical axis; nonpositive or non-finite
values are silently dropped since they have no logarithm.  No plotting
dependency is involved: the output is a self-contained SVG document.
"""

from pathlib import Path

import numpy as np

__all__ = ["render_rate_plot"]

_WIDTH, _HEIGHT = 800, 500
_ML, _MR, _MT, _MB = 70, 20, 42, 48


def _esc(text):
    return (str(text).replace("&", "&amp;")
            .replace("<", "&lt;").replace(">", "&gt;"))


def render_rate_plot(path, label, ks, values, guide=None, title=None):
    """Render one residual series as SVG, write it to path and return it.

    guide: optional (rate, label) drawing a dashed reference line whose
    log-slope is log10(rate), anchored at the first plotted point.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = np.isfinite(ks) & np.isfinite(values) & (values > 0.0)
    ks, ys = ks[keep], np.log10(values[keep])
    if len(ks) == 0:
        x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, -1.0, 1.0
    else:
        x_lo, x_hi = float(np.min(ks)), float(np.max(ks))
        y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad = 0.04 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad
    # y ticks at whole decades; a range inside one decade widens to its ends
    lo_dec, hi_dec = int(np.ceil(y_lo)), int(np.floor(y_hi))
    if lo_dec > hi_dec:
        lo_dec, hi_dec = hi_dec, lo_dec
        y_lo, y_hi = float(lo_dec), float(hi_dec)

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def px(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_esc(title)}</text>')

    step = max(1, int(np.ceil((hi_dec - lo_dec + 1) / 8.0)))
    for dec in range(lo_dec, hi_dec + 1, step):
        yy = py(float(dec))
        parts.append(
            f'<line x1="{_ML}" y1="{yy:.2f}" x2="{_WIDTH - _MR}" '
            f'y2="{yy:.2f}" stroke="#ddd" stroke-width="1"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{dec}</text>')

    # x ticks
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        xx = px(xv)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{_HEIGHT - _MB}" x2="{xx:.2f}" '
            f'y2="{_HEIGHT - _MB + 5}" stroke="#444" stroke-width="1"/>')
        parts.append(
            f'<text x="{xx:.2f}" y="{_HEIGHT - _MB + 20}" '
            f'text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{xv:.0f}</text>')
    parts.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'font-size="12">iteration</text>')

    if guide is not None and len(ks) and guide[0] > 0.0:
        slope = np.log10(float(guide[0]))
        k_anchor, y_anchor = float(ks[0]), float(ys[0])
        k_end = x_hi
        if slope < 0.0:
            k_end = min(x_hi, k_anchor + (y_lo - y_anchor) / slope)
        y_end = y_anchor + slope * (k_end - k_anchor)
        parts.append(
            f'<polyline id="theory-guide" fill="none" stroke="#555" '
            f'stroke-width="1.5" stroke-dasharray="6,4" points="'
            f'{px(k_anchor):.2f},{py(y_anchor):.2f} '
            f'{px(k_end):.2f},{py(y_end):.2f}"/>')
        parts.append(
            f'<text x="{px(k_end) - 4:.2f}" y="{py(y_end) - 6:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="#555">{_esc(guide[1])}</text>')

    if len(ks):
        points = " ".join(f"{px(k):.2f},{py(y):.2f}" for k, y in zip(ks, ys))
        parts.append(
            f'<polyline fill="none" stroke="#1f77b4" '
            f'stroke-width="1.5" points="{points}"/>')
    parts.append(
        f'<text x="{_ML + 10}" y="{_MT + 16}" font-family="sans-serif" '
        f'font-size="12" fill="#1f77b4">{_esc(label)}</text>')

    parts.append("</svg>")
    text = "\n".join(parts)
    Path(path).write_text(text)
    return text
