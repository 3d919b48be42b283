"""Minimal static SVG renderings for the CLI's optional figure output.

Deliberately tiny: results are data-first (CSV); these files are read-only
visual summaries, so no plotting dependency is pulled in.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

MARGIN = 40
WIDTH = 640
HEIGHT = 400


def _color(i: int) -> str:
    return f"hsl({(i * 47) % 360},65%,55%)"


def histogram_svg(filename, labels, values, reference_line=None, title=""):
    """Bar chart of relative frequencies with an optional dashed reference."""
    n = max(len(values), 1)
    vmax = max(list(values) + ([reference_line] if reference_line else [])) or 1.0
    plot_w, plot_h = WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN
    bar_w = plot_w / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">'
        f"{escape(title)}</text>",
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>',
    ]
    for i, (label, value) in enumerate(zip(labels, values)):
        h = plot_h * value / vmax
        x = MARGIN + i * bar_w
        y = HEIGHT - MARGIN - h
        parts.append(
            f'<rect x="{x + 1:.1f}" y="{y:.1f}" width="{bar_w - 2:.1f}" '
            f'height="{h:.1f}" fill="{_color(i)}"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{HEIGHT - MARGIN + 12}" '
            f'text-anchor="middle" font-size="7">{escape(str(label))}</text>'
        )
    if reference_line:
        y = HEIGHT - MARGIN - plot_h * reference_line / vmax
        parts.append(
            f'<line x1="{MARGIN}" y1="{y:.1f}" x2="{WIDTH - MARGIN}" y2="{y:.1f}" '
            f'stroke="black" stroke-dasharray="6,4"/>'
        )
    parts.append("</svg>")
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def voronoi_svg(filename, points, s, coords, rows, title=""):
    """Partition map: one colored square per grid cell, owning seeds as dots.

    `coords` are the grid coordinates on either axis, `rows` one list per gx
    of the owners of the cells (gx, gy) as indices into `points`, the curve's
    affine points sorted by (x, y); colors key on the owner.
    """
    owners = sorted(set().union(*rows))
    color = {k: _color(i) for i, k in enumerate(owners)}
    side = WIDTH - 2 * MARGIN
    cell_px = side / len(coords)
    scale = side / s
    size = f"{cell_px + 0.5:.1f}"
    ys = [f"{WIDTH - MARGIN - (gy * scale) - cell_px:.1f}" for gy in coords]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{WIDTH}">',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="14">'
        f"{escape(title)}</text>",
    ]
    for gx, row in zip(coords, rows):
        x = f"{MARGIN + gx * scale:.1f}"
        parts += [f'<rect x="{x}" y="{y}" width="{size}" height="{size}" fill="{color[k]}"/>'
                  for y, k in zip(ys, row)]
    for k in owners:
        x = MARGIN + points[k].x * scale
        y = WIDTH - MARGIN - points[k].y * scale
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="black"/>')
    parts.append("</svg>")
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
