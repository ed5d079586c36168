"""Test helpers shared by the region tests: one way to build a KDE grid, and
per-point loop oracles for the array region queries in ``flowsentry.levelset``.

The oracles call nothing from the library, so a fault in the fast path cannot
hide in them.
"""

import math

import numpy as np

from flowsentry import kde


def density_grid(samples, resolution=(256, 256)):
    """The normal-reference KDE grid of ``samples`` that ``fit_typical_region`` takes."""
    pts = np.asarray(samples, dtype=float)
    return kde.evaluate_grid(kde.fit(pts, kde.select_bandwidth(pts)), resolution=resolution)


def winding_number_inside(point, polygon):
    """Nonzero winding number means inside."""
    wn = 0
    px, py = point
    for (ax, ay), (bx, by) in zip(polygon[:-1], polygon[1:]):
        is_left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        if ay <= py:
            if by > py and is_left > 0:
                wn += 1
        elif by <= py and is_left < 0:
            wn -= 1
    return wn != 0


def exact_segment_distance(point, polygon):
    """Exact point-to-segment projection distance over all edges."""
    p = np.asarray(point, dtype=float)
    best = math.inf
    for a, b in zip(polygon[:-1], polygon[1:]):
        a = np.asarray(a, dtype=float)
        d = np.asarray(b, dtype=float) - a
        if not d.any():
            continue  # a repeated vertex adds no edge
        t = np.clip(np.dot(p - a, d) / np.dot(d, d), 0.0, 1.0)
        best = min(best, float(np.hypot(*(p - a - t * d))))
    return best


def exit_side_oracle(point, polygon):
    """Side of the offset from the first nearest point over all edges."""
    px, py = point
    best, offset = math.inf, None
    for (ax, ay), (bx, by) in zip(polygon[:-1], polygon[1:]):
        dx, dy = bx - ax, by - ay
        if dx == 0.0 and dy == 0.0:
            continue
        t = min(max(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0), 1.0)
        ox, oy = px - ax - t * dx, py - ay - t * dy
        if ox * ox + oy * oy < best:
            best, offset = ox * ox + oy * oy, (ox, oy)
    return "left" if offset[0] <= 0.0 and offset[1] >= 0.0 else "right"
