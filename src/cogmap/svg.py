"""Static SVG scatter plots of 2-D projections, one color per category."""

from datetime import datetime, timezone

from .errors import InputError
from .fileio import replacing

CANVAS = 800
MARGIN = 80
POINT_RADIUS = 7.0
PALETTE = ["#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02"]
RING_COLOR = "#d62728"


def render_svg(coordinates, words, labels, splits, categories, out_path, timestamp=None):
    """Write a square, axis-free scatter map.

    One circle per point, filled by category; validation points carry a
    distinct ring stroke. Output is deterministic for fixed input except for
    the ISO-8601 timestamp comment.
    """
    n = len(coordinates)
    if n == 0:
        raise InputError("cannot render an empty projection")
    if not (len(words) == len(labels) == len(splits) == n):
        raise InputError("coordinates, words, labels, and splits must have equal length")
    if not categories:
        raise InputError("category list is empty")
    for label in labels:
        if label not in categories:
            raise InputError(f"point category {label!r} is not in the category list")
    for cat in categories:
        if cat not in labels:
            raise InputError(f"category {cat!r} has no points")

    xs = [float(c[0]) for c in coordinates]
    ys = [float(c[1]) for c in coordinates]
    span = max(max(xs) - min(xs), max(ys) - min(ys))
    scale = (CANVAS - 2 * MARGIN) / span if span > 0.0 else 1.0
    cx = (max(xs) + min(xs)) / 2.0
    cy = (max(ys) + min(ys)) / 2.0

    def place(x, y):
        # y flipped: SVG y grows downward
        return (CANVAS / 2.0 + (x - cx) * scale, CANVAS / 2.0 - (y - cy) * scale)

    color = {cat: PALETTE[i % len(PALETTE)] for i, cat in enumerate(categories)}
    ts = timestamp if timestamp is not None else datetime.now(timezone.utc).isoformat(timespec="seconds")

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f"<!-- generated {ts} -->",
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
    ]
    for word, label, split, x, y in zip(words, labels, splits, xs, ys):
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
