"""Minimal deterministic SVG emission for analyst-facing plots.

Hand-rolled on purpose: output bytes depend only on the input data, with no
renderer metadata or timestamps, so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WIDTH = 800
HEIGHT = 600
MARGIN = 60


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


def document(body: list[str], title: str) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<title>{title}</title>',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def axes(frame: Frame, x_label: str, y_label: str) -> list[str]:
    x0, y0 = MARGIN, HEIGHT - MARGIN
    x1, y1 = WIDTH - MARGIN, MARGIN
    out = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 15}" text-anchor="middle" font-size="14">{x_label}</text>',
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{y_label}</text>',
    ]
    for t in (0.0, 0.5, 1.0):
        xv = frame.x_min + t * (frame.x_max - frame.x_min)
        yv = frame.y_min + t * (frame.y_max - frame.y_min)
        out.append(
            f'<text x="{_fmt(frame.x(xv))}" y="{y0 + 18}" text-anchor="middle" font-size="11">{xv:.3g}</text>'
        )
        out.append(
            f'<text x="{x0 - 6}" y="{_fmt(frame.y(yv))}" text-anchor="end" font-size="11">{yv:.3g}</text>'
        )
    return out


def _pixels(frame: Frame, xs, ys) -> tuple[list[float], list[float]]:
    return frame.x(np.asarray(xs, dtype=float)).tolist(), frame.y(np.asarray(ys, dtype=float)).tolist()


def scatter(frame: Frame, xs, ys, *, fill: str = "steelblue", radius: float = 1.2, css: str = "sample") -> list[str]:
    circle = f'<circle class="{css}" cx="{{:.2f}}" cy="{{:.2f}}" r="{radius}" fill="{fill}"/>'
    return list(map(circle.format, *_pixels(frame, xs, ys)))


def closed_path(frame: Frame, polygon, *, stroke: str = "crimson", css: str = "region") -> str:
    parts = [f"M {_fmt(frame.x(polygon[0][0]))} {_fmt(frame.y(polygon[0][1]))}"]
    for x, y in polygon[1:-1]:
        parts.append(f"L {_fmt(frame.x(x))} {_fmt(frame.y(y))}")
    parts.append("Z")
    return f'<path class="{css}" d="{" ".join(parts)}" fill="none" stroke="{stroke}" stroke-width="1.5"/>'


def polyline(frame: Frame, xs, ys, *, stroke: str = "steelblue", css: str = "series") -> str:
    pts = " ".join(map("{:.2f},{:.2f}".format, *_pixels(frame, xs, ys)))
    return f'<polyline class="{css}" points="{pts}" fill="none" stroke="{stroke}" stroke-width="1"/>'


def bars(frame: Frame, edges, counts, *, fill: str = "steelblue", css: str = "bar") -> list[str]:
    out = []
    base = frame.y(0.0)
    for k, count in enumerate(counts):
        x_left = frame.x(edges[k])
        x_right = frame.x(edges[k + 1])
        top = frame.y(count)
        out.append(
            f'<rect class="{css}" data-count="{int(count)}" x="{_fmt(x_left)}" y="{_fmt(top)}" '
            f'width="{_fmt(max(x_right - x_left - 1.0, 0.5))}" height="{_fmt(max(base - top, 0.0))}" fill="{fill}"/>'
        )
    return out
