"""Minimal static SVG line charts (no plotting dependencies)."""

from __future__ import annotations

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_WIDTH, _HEIGHT, _XLABEL = 640, 420, "t"


def render_lines_svg(series: dict, path, title: str = "", ylabel: str = "") -> None:
    """Write an SVG polyline chart; ``series`` maps label -> (xs, ys)."""
    width, height, margin = _WIDTH, _HEIGHT, 56
    pw, ph = width - 2 * margin, height - 2 * margin
    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [y for _, ys in series.values() for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + pw * (x - x0) / (x1 - x0)

    def sy(y):
        return margin + ph * (1.0 - (y - y0) / (y1 - y0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#999"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="{margin / 2:.1f}" text-anchor="middle" '
            f'font-size="14">{title}</text>'
        )
    out.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle">{_XLABEL}</text>'
    )
    if ylabel:
        out.append(
            f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>'
        )
    for frac in (0.0, 0.5, 1.0):
        xv = x0 + frac * (x1 - x0)
        yv = y0 + frac * (y1 - y0)
        out.append(
            f'<text x="{sx(xv):.1f}" y="{margin + ph + 16}" text-anchor="middle">'
            f"{xv:g}</text>"
        )
        out.append(
            f'<text x="{margin - 6}" y="{sy(yv) + 4:.1f}" text-anchor="end">{yv:g}</text>'
        )
    for idx, (label, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin + 16 + 16 * idx
        out.append(
            f'<line x1="{margin + pw - 130}" y1="{ly - 4}" x2="{margin + pw - 110}" '
            f'y2="{ly - 4}" stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(f'<text x="{margin + pw - 104}" y="{ly}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out))
        fh.write("\n")
