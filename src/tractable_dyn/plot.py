"""Minimal deterministic SVG rendering of piecewise-linear systems.

No plotting dependency: the graph of g is a single polyline through the fine
vertices (g is affine between them, so this is exact), terminal-class
supports are shaded bands, and everything is emitted with fixed-precision
coordinates so identical inputs give byte-identical files.
"""

from __future__ import annotations

from .simplicial1d import PLReport, SimplicialSystem1D, class_support

WIDTH = 640
HEIGHT = 640
MARGIN = 64

# Colour-blind safe fills for the shaded supports.
_FILLS = ("#a6cee3", "#fdbf6f", "#b2df8a", "#cab2d6", "#fb9a99", "#ffff99")


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def system_svg(system: SimplicialSystem1D,
               report: PLReport | None = None) -> str:
    """SVG of the graph of g; with a report, terminal supports are shaded."""
    lo, hi = float(system.k.lo), float(system.k.hi)
    span = hi - lo

    def sx(x: float) -> float:
        return MARGIN + (x - lo) / span * (WIDTH - 2 * MARGIN)

    def sy(y: float) -> float:
        return HEIGHT - MARGIN - (y - lo) / span * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    if report is not None:
        decomp = report.analysis.correspondence.base_decomposition
        for pos, c in enumerate(decomp.terminal_classes()):
            fill = _FILLS[pos % len(_FILLS)]
            for a, b in class_support(system, decomp.classes[c]):
                x0, x1 = sx(float(a)), sx(float(b))
                parts.append(
                    f'<rect x="{_fmt(x0)}" y="{MARGIN}" '
                    f'width="{_fmt(x1 - x0)}" '
                    f'height="{HEIGHT - 2 * MARGIN}" fill="{fill}" '
                    f'fill-opacity="0.45"/>')
            labels = ",".join(decomp.class_labels(c))
            anchor = sx(float(sum(class_support(
                system, decomp.classes[c])[0]) / 2))
            parts.append(
                f'<text x="{_fmt(anchor)}" y="{MARGIN - 10}" '
                f'font-family="monospace" font-size="13" '
                f'text-anchor="middle" fill="#333333">{labels}</text>')

    # Frame, coarse gridlines, diagonal.
    frame = (f'M {sx(lo):.2f} {sy(lo):.2f} L {sx(hi):.2f} {sy(lo):.2f} '
             f'L {sx(hi):.2f} {sy(hi):.2f} L {sx(lo):.2f} {sy(hi):.2f} Z')
    parts.append(f'<path d="{frame}" fill="none" stroke="#000000"/>')
    for v in system.k.vertices[1:-1]:
        xv = sx(float(v))
        yv = sy(float(v))
        parts.append(
            f'<line x1="{_fmt(xv)}" y1="{MARGIN}" x2="{_fmt(xv)}" '
            f'y2="{HEIGHT - MARGIN}" stroke="#bbbbbb" stroke-width="0.5"/>')
        parts.append(
            f'<line x1="{MARGIN}" y1="{_fmt(yv)}" x2="{WIDTH - MARGIN}" '
            f'y2="{_fmt(yv)}" stroke="#bbbbbb" stroke-width="0.5"/>')
    parts.append(
        f'<line x1="{_fmt(sx(lo))}" y1="{_fmt(sy(lo))}" '
        f'x2="{_fmt(sx(hi))}" y2="{_fmt(sy(hi))}" stroke="#999999" '
        f'stroke-width="0.5" stroke-dasharray="4 3"/>')

    # Graph of g through the fine vertices (exact: g is affine in between).
    points = " ".join(
        f"{_fmt(sx(float(w)))},{_fmt(sy(float(system.image_value(j))))}"
        for j, w in enumerate(system.kstar.vertices))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f3bb3" '
        f'stroke-width="2"/>')
    for j, w in enumerate(system.kstar.vertices):
        parts.append(
            f'<circle cx="{_fmt(sx(float(w)))}" '
            f'cy="{_fmt(sy(float(system.image_value(j))))}" r="2.5" '
            f'fill="#1f3bb3"/>')

    # Axis labels at coarse vertices.
    for v in system.k.vertices:
        xv = sx(float(v))
        parts.append(
            f'<text x="{_fmt(xv)}" y="{HEIGHT - MARGIN + 18}" '
            f'font-family="monospace" font-size="12" text-anchor="middle" '
            f'fill="#000000">{v}</text>')
        yv = sy(float(v))
        parts.append(
            f'<text x="{MARGIN - 8}" y="{_fmt(yv + 4)}" '
            f'font-family="monospace" font-size="12" text-anchor="end" '
            f'fill="#000000">{v}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
