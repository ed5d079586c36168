"""Test helpers shared by the region tests: one way to build a KDE grid, one
raster overlap of two regions, and per-point loop oracles for the array region
queries in ``flowsentry.levelset``.

The oracles call nothing from the library, so a fault in the fast path cannot
hide in them.
"""

import math

import numpy as np

from flowsentry import kde
from flowsentry.levelset import TypicalRegion, contains_many


def density_grid(samples, resolution=(256, 256)):
    """The normal-reference KDE grid of ``samples`` that ``fit_typical_region`` takes."""
    pts = np.asarray(samples, dtype=float)
    return kde.evaluate_grid(kde.fit(pts, kde.select_bandwidth(pts)), resolution=resolution)


def region_overlap(region_a: TypicalRegion, region_b: TypicalRegion, resolution: int = 256) -> tuple[float, float]:
    """(symmetric-difference area, union area) via rasterised membership."""
    pts = np.vstack([*region_a.polygons, *region_b.polygons])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    dx, dy = (hi - lo) / resolution
    x = lo[0] + (np.arange(resolution) + 0.5) * dx
    y = lo[1] + (np.arange(resolution) + 0.5) * dy
    cells = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1).reshape(-1, 2)
    in_a = contains_many(region_a, cells)
    in_b = contains_many(region_b, cells)
    return float((in_a ^ in_b).sum() * dx * dy), float((in_a | in_b).sum() * dx * dy)


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
