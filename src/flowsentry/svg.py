"""Minimal deterministic SVG emission for analyst-facing plots.

Hand-rolled on purpose: output bytes depend only on the input data, with no
renderer metadata or timestamps, so repeated runs are byte-identical. Each
element function returns or yields text pieces that end every element with a
newline, and ``document`` writes them to an open file as they come: a plot of
many points never holds more than one block of them as text.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN = 60

# Scatter and polyline format this many points at a time. On the live link (40,320
# minutes, seed 12, 4 weeks) ``plot``'s peak RSS was 38.4 MiB at 2**8 to 2**12 and 41.0 MiB
# at 2**14, against 43.9 MiB rendering whole documents, in about the same time (0.18-0.24 s).
_POINT_BLOCK = 2**10


def _fmt(x: float) -> str:
    return f"{x:.2f}"


@dataclass
class Frame:
    """Linear data-to-pixel mapping with a fixed margin; ``x`` and ``y`` map a value or an array."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    # A value far outside a frame whose span is tiny maps past the float range: the
    # pixel is +-inf, as Python floats give it, rather than a warning from numpy.
    def x(self, v: float) -> float:
        span = self.x_max - self.x_min or 1.0
        with np.errstate(over="ignore"):
            return MARGIN + (v - self.x_min) / span * (WIDTH - 2 * MARGIN)

    def y(self, v: float) -> float:
        span = self.y_max - self.y_min or 1.0
        with np.errstate(over="ignore"):
            return HEIGHT - MARGIN - (v - self.y_min) / span * (HEIGHT - 2 * MARGIN)


def document(handle, title: str, *parts) -> None:
    """Write an SVG document to the open text ``handle``: the head, then each part's
    pieces in order, then the closing tag. A part is an iterable of text pieces whose
    elements each end in a newline, so a part is written as it is formatted."""
    handle.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">\n'
        f'<title>{title}</title>\n'
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
    )
    for part in parts:
        handle.writelines(part)
    handle.write("</svg>\n")


def axes(frame: Frame, x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    out = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>\n',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>\n',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 15}" text-anchor="middle" font-size="14">{x_label}</text>\n',
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{y_label}</text>\n',
    ]
    for t in (0.0, 0.5, 1.0):
        xv = frame.x_min + t * (frame.x_max - frame.x_min)
        yv = frame.y_min + t * (frame.y_max - frame.y_min)
        out.append(
            f'<text x="{_fmt(frame.x(xv))}" y="{y0 + 18}" text-anchor="middle" font-size="11">{xv:.3g}</text>\n'
        )
        out.append(
            f'<text x="{x0 - 6}" y="{_fmt(frame.y(yv))}" text-anchor="end" font-size="11">{yv:.3g}</text>\n'
        )
    return out


def _pixel_blocks(frame: Frame, xs, ys):
    """The pixels of the points, ``_POINT_BLOCK`` points at a time, as (x list, y list) pairs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    for lo in range(0, xs.size, _POINT_BLOCK):
        yield frame.x(xs[lo : lo + _POINT_BLOCK]).tolist(), frame.y(ys[lo : lo + _POINT_BLOCK]).tolist()


def scatter(frame: Frame, xs, ys, *, fill: str = "steelblue", radius: float = 1.2, css: str = "sample"):
    """One circle element per point, formatted a block of points at a time."""
    circle = f'<circle class="{css}" cx="{{:.2f}}" cy="{{:.2f}}" r="{radius}" fill="{fill}"/>\n'
    for px, py in _pixel_blocks(frame, xs, ys):
        yield "".join(map(circle.format, px, py))


def closed_path(frame: Frame, polygon) -> str:
    vertices = np.asarray(polygon, dtype=float)[:-1]
    blocks = (" L ".join(map("{:.2f} {:.2f}".format, px, py)) for px, py in _pixel_blocks(frame, *vertices.T))
    return f'<path class="region" d="M {" L ".join(blocks)} Z" fill="none" stroke="crimson" stroke-width="1.5"/>\n'


def polyline(frame: Frame, xs, ys):
    """One polyline element through the points, formatted a block of points at a time."""
    yield '<polyline class="series" points="'
    separator = ""
    for px, py in _pixel_blocks(frame, xs, ys):
        yield separator + " ".join(map("{:.2f},{:.2f}".format, px, py))
        separator = " "
    yield '" fill="none" stroke="steelblue" stroke-width="1"/>\n'


def bars(frame: Frame, edges, counts) -> list[str]:
    out = []
    base = frame.y(0.0)
    for k, count in enumerate(counts):
        x_left = frame.x(edges[k])
        x_right = frame.x(edges[k + 1])
        top = frame.y(count)
        out.append(
            f'<rect class="bar" data-count="{int(count)}" x="{_fmt(x_left)}" y="{_fmt(top)}" '
            f'width="{_fmt(max(x_right - x_left - 1.0, 0.5))}" height="{_fmt(max(base - top, 0.0))}" '
            'fill="steelblue"/>\n'
        )
    return out
