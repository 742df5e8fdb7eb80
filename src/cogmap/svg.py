"""Static SVG scatter plots of 2-D projections, one color per category.

The map is drawn from one `fileio.LabeledPoints` record, whose rows are the words'
positions, so the words and the points line up by construction; it has no clock.
"""

import colorsys

from .fileio import replacing

CANVAS = 800
MARGIN = 80
POINT_RADIUS = 7.0
PALETTE = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02"]
RING_COLOR = "#d62728"


def render_svg(coordinates, out_path):
    """Write a square, axis-free scatter map of the (x, y) rows of a `LabeledPoints` record.

    One circle per point, filled by category; validation points carry a
    distinct ring stroke. The legend lists the categories in order of first
    appearance in the labels. The bytes are a function of the record alone: no clock,
    so `cogmap project` on a run's predictions rewrites that run's map byte for byte.
    """
    lex = coordinates.lex
    xs = [float(c[0]) for c in coordinates.points]
    ys = [float(c[1]) for c in coordinates.points]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    scale = (CANVAS - 2 * MARGIN) / span if span > 0.0 else 1.0
    cx = (max(xs) + min(xs)) / 2.0
    cy = (max(ys) + min(ys)) / 2.0

    def place(x, y):
        # y flipped: SVG y grows downward
        return (CANVAS / 2.0 + (x - cx) * scale, CANVAS / 2.0 - (y - cy) * scale)

    categories = list(dict.fromkeys(lex.labels))
    hues = [(i + 0.5) / len(categories) for i in range(len(categories))]
    fills = PALETTE if len(categories) <= len(PALETTE) else [  # one evenly spaced hue each
        "#" + bytes(round(255 * c) for c in colorsys.hsv_to_rgb(h, 0.85, 0.75)).hex() for h in hues]
    color = dict(zip(categories, fills))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
    ]
    for word, label, split, x, y in zip(lex.words, lex.labels, lex.splits, xs, ys):
        px, py = place(x, y)
        ring = f' stroke="{RING_COLOR}" stroke-width="2.5"' if split == "validation" else ""
        lines.append(
            f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{POINT_RADIUS}" '
            f'fill="{color[label]}" fill-opacity="0.85"{ring}>'
            f"<title>{_escape(word)}</title></circle>"
        )

    y0 = 24
    for i, cat in enumerate(categories):
        y = y0 + 22 * i
        lines.append(f'<rect x="16" y="{y - 11}" width="14" height="14" fill="{color[cat]}"/>')
        lines.append(f'<text x="38" y="{y}" font-family="sans-serif" font-size="14">{_escape(cat)}</text>')
    y = y0 + 22 * len(categories)
    lines.append(f'<rect x="16" y="{y - 11}" width="14" height="14" fill="white" '
                 f'stroke="{RING_COLOR}" stroke-width="2.5"/>')
    lines.append(f'<text x="38" y="{y}" font-family="sans-serif" font-size="14">validation</text>')
    lines.append("</svg>")

    with replacing(out_path) as fh:
        fh.write("\n".join(lines) + "\n")


def _escape(text):
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
