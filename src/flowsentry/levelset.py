"""Level height search, contour extraction, and typical-region geometry.

The typical region is the superlevel set of the fitted density surface at the
height z*, the largest grid value whose superlevel set encloses at least
1 - alpha of the probability mass. Its boundary is extracted with marching
squares on the evaluation grid and small components are dropped. Each region
query has one array function, run exactly against the edges of the retained
polygons: ``contains_many`` for membership, and ``distances_and_sides`` for
the boundary distance and exit side. A single point is a one-row array.
Distances are measured in axis-scaled coordinates (each axis divided by its
training interquartile range) so severities are unitless and comparable
across links. A region file carries ``schema_version``, which ``from_json``
checks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .ingest import quantiles

if TYPE_CHECKING:
    from .kde import DensityGrid

# Region queries work on (points x edges) blocks of about this many elements, so that
# each query's working set stays fixed whatever the number of points. Measured against
# the 1,073-vertex region of the seed-11 3-week link on the 40,320 minutes of the live
# link (seed 12, 4 weeks, bimodal) on a 2-vCPU Xeon, medians of 7 calls in 7 processes:
# membership took 18-29 ms (median 19 ms) in blocks of 2**13 against 17-25 ms (23 ms) in
# blocks of 2**16, and ``detect``'s peak RSS fell from 45.2 to 38.8 MiB, as its ~15 live
# temporaries shrank from 512 to 64 KiB each.
_CONTAINS_BLOCK = 2**13
# Membership looks points up in the slab index this many at a time, so that the per-point
# arrays (candidates, slabs, counts and their running sum, 32 bytes a point, 1.3 MB on the
# live link) stay at 128 KiB. Each point block adds a partial block of pairs, about 0.1 ms:
# on the live link, medians of 100 alternated in-process calls took 16.7 ms at 2**12 and
# 16.0 ms at 2**14, and 2**14 raised detect's peak by 0.4 MiB.
_POINT_BLOCK = 2**12
# A distance block holds only _DISTANCE_BLOCK // edges points (15 above), so its size
# trades Python overhead against cache: the 2,716 exterior points took 36-48 ms at 2**14,
# 60-66 ms at 2**12 and 49-73 ms at 2**16.
_DISTANCE_BLOCK = 2**14

# The layout of the region file that ``TypicalRegion.to_json`` writes and ``from_json`` reads.
REGION_SCHEMA_VERSION = 1

# Contour components enclosing less than this share of the total area are dropped.
MIN_COMPONENT_AREA_FRACTION = 0.05


class TruncatedGridError(ValueError):
    """The grid does not hold enough mass to enclose 1 - alpha."""


class EmptyContourError(ValueError):
    """No grid cell crosses the requested level."""


def mass_above(grid: DensityGrid, z: float) -> float:
    """Trapezoidal integral of the grid restricted to cells at or above z."""
    if z < 0:
        raise ValueError(f"level {z} must be nonnegative")
    masked = np.where(grid.values >= z, grid.values, 0.0)
    inner = np.trapezoid(masked, grid.f_centers, axis=1)
    return float(np.trapezoid(inner, grid.rho_centers))


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    """Node weights w such that sum(w * y) is the trapezoid rule over nodes x."""
    half = 0.5 * np.diff(x)
    weights = np.zeros_like(x)
    weights[:-1] += half
    weights[1:] += half
    return weights


def find_level(grid: DensityGrid, alpha: float) -> float:
    """Largest grid value whose superlevel set holds at least 1 - alpha of mass.

    The discrete highest-density-region construction (Hyndman 1996): rank the
    cells by value, accumulate their trapezoid-weighted mass from the top, and
    stop at the first cell that brings the total to 1 - alpha. Every higher
    grid value encloses less than 1 - alpha.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha} outside (0, 1)")
    values = grid.values.ravel()
    weights = np.outer(_trapezoid_weights(grid.rho_centers), _trapezoid_weights(grid.f_centers)).ravel()
    order = np.argsort(values)[::-1]
    ranked = values[order]
    mass = np.cumsum(ranked * weights[order])
    target = 1.0 - alpha
    if mass[-1] < target:
        raise TruncatedGridError(
            f"grid mass {mass[-1]:.4f} is below 1 - alpha = {target:.4f}; widen the grid bounds"
        )
    return float(ranked[np.searchsorted(mass, target)])


def extract_contour(grid: DensityGrid, z_star: float) -> list[np.ndarray]:
    """Marching-squares isolines of the grid at z_star, as closed polylines.

    Nodes of the marching lattice are the grid cell centres. Crossing points
    are linearly interpolated along lattice edges; saddle cells are resolved
    by the cell-centre value (centre >= z* joins the high regions). Each
    polyline is closed: its first and last vertices coincide.
    """
    values = grid.values
    if not 0.0 < z_star <= float(values.max()):
        raise EmptyContourError(f"level {z_star} outside (0, max grid value]")
    xs, ys = grid.rho_centers, grid.f_centers
    inside = values >= z_star
    if inside.all() or not inside.any():
        raise EmptyContourError(f"no cell crosses level {z_star}")

    # cells whose four corners disagree are the only contour carriers
    corner_sum = (
        inside[:-1, :-1].astype(np.int8)
        + inside[1:, :-1]
        + inside[:-1, 1:]
        + inside[1:, 1:]
    )
    cells = np.argwhere((corner_sum > 0) & (corner_sum < 4))

    def interp(i0, j0, i1, j1):
        a = values[i0, j0]
        b = values[i1, j1]
        t = (z_star - a) / (b - a)
        return (
            xs[i0] + t * (xs[i1] - xs[i0]),
            ys[j0] + t * (ys[j1] - ys[j0]),
        )

    # edge keys: ("r", i, j) spans nodes (i,j)-(i+1,j); ("f", i, j) spans (i,j)-(i,j+1)
    segments: list[tuple[tuple, tuple]] = []
    points: dict[tuple, tuple[float, float]] = {}

    def edge_point(kind, i, j):
        key = (kind, i, j)
        if key not in points:
            if kind == "r":
                points[key] = interp(i, j, i + 1, j)
            else:
                points[key] = interp(i, j, i, j + 1)
        return key

    for i, j in cells:
        a = inside[i, j]  # (i, j)
        b = inside[i + 1, j]  # (i+1, j)
        c = inside[i + 1, j + 1]  # (i+1, j+1)
        d = inside[i, j + 1]  # (i, j+1)
        ab = ("r", i, j) if a != b else None
        bc = ("f", i + 1, j) if b != c else None
        cd = ("r", i, j + 1) if d != c else None
        da = ("f", i, j) if a != d else None
        crossed = [e for e in (ab, bc, cd, da) if e is not None]
        if len(crossed) == 2:
            segments.append((edge_point(*crossed[0]), edge_point(*crossed[1])))
        elif len(crossed) == 4:
            center_high = 0.25 * (values[i, j] + values[i + 1, j] + values[i + 1, j + 1] + values[i, j + 1]) >= z_star
            # diagonal corners share state; cut off the two isolated corners
            isolate_b_d = center_high == bool(a)
            if isolate_b_d:
                segments.append((edge_point(*ab), edge_point(*bc)))
                segments.append((edge_point(*cd), edge_point(*da)))
            else:
                segments.append((edge_point(*ab), edge_point(*da)))
                segments.append((edge_point(*bc), edge_point(*cd)))

    if not segments:
        raise EmptyContourError(f"no cell crosses level {z_star}")
    return _stitch_loops(segments, points)


def _stitch_loops(segments, points) -> list[np.ndarray]:
    """Chain segments that share lattice-edge keys into closed polylines."""
    adjacency: dict[tuple, list[int]] = {}
    for idx, (p, q) in enumerate(segments):
        adjacency.setdefault(p, []).append(idx)
        adjacency.setdefault(q, []).append(idx)
    used = [False] * len(segments)
    loops = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        first, cursor = segments[start]
        chain = [first, cursor]
        while True:
            candidates = [k for k in adjacency[cursor] if not used[k]]
            if not candidates:
                break
            nxt = candidates[0]
            used[nxt] = True
            p, q = segments[nxt]
            cursor = q if p == cursor else p
            chain.append(cursor)
        coords = np.array([points[k] for k in chain])
        if chain[0] != chain[-1]:
            coords = np.vstack([coords, coords[:1]])  # open chain (grid border); close it
        loops.append(coords)
    return loops


def polygon_area(polygon: np.ndarray) -> float:
    """Absolute shoelace area of a closed polyline."""
    x = polygon[:, 0]
    y = polygon[:, 1]
    return 0.5 * abs(float(np.sum(x[:-1] * y[1:]) - np.sum(x[1:] * y[:-1])))


def filter_components(polylines: list[np.ndarray], min_fraction: float) -> list[np.ndarray]:
    """Drop closed components smaller than min_fraction of the total area.

    Never drops everything: if all components fall under the cut, the largest
    one is kept.
    """
    if not polylines:
        raise ValueError("no contour components to filter")
    areas = np.array([polygon_area(p) for p in polylines])
    cut = min_fraction * areas.sum()
    keep = [p for p, a in zip(polylines, areas) if a >= cut]
    if not keep:
        keep = [polylines[int(np.argmax(areas))]]
    return keep


@dataclass(frozen=True)
class TypicalRegion:
    """Retained boundary polygons plus everything needed for queries.

    ``scale_rho`` / ``scale_f`` are the training interquartile ranges used to
    make distances unitless. ``max_training_distance`` stays None until the
    severity normaliser has been calibrated against training data.
    """

    z_star: float
    alpha: float
    polygons: tuple[np.ndarray, ...]
    scale_rho: float
    scale_f: float
    max_training_distance: float | None = None

    def __post_init__(self):
        if not self.polygons:
            raise ValueError("region needs at least one polygon")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1)")
        positive = {"z_star": self.z_star, "scale_rho": self.scale_rho, "scale_f": self.scale_f}
        if self.max_training_distance is not None:
            positive["max_training_distance"] = self.max_training_distance
        for name, value in positive.items():
            if not 0.0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{name} {value} must be positive and finite")
        polys = tuple(np.asarray(p, dtype=float) for p in self.polygons)
        for p in polys:
            if p.ndim != 2 or p.shape[1] != 2 or p.shape[0] < 4:
                raise ValueError("polygons must be closed (N>=4, 2 columns)")
            if not np.isfinite(p).all():
                raise ValueError("polygon coordinates must be finite")
            if not np.array_equal(p[0], p[-1]):
                raise ValueError("polygons must be explicitly closed (first row == last row)")
            if not np.diff(p, axis=0).any():
                raise ValueError("polygons need at least one edge of nonzero length")
        object.__setattr__(self, "polygons", polys)

    def to_json(self) -> str:
        payload = {
            "schema_version": REGION_SCHEMA_VERSION,
            "alpha": self.alpha,
            "z_star": self.z_star,
            "scale_rho": self.scale_rho,
            "scale_f": self.scale_f,
            "max_training_distance": self.max_training_distance,
            "polygons": [p.tolist() for p in self.polygons],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "TypicalRegion":
        payload = json.loads(text)
        version = payload.get("schema_version") if isinstance(payload, dict) else None
        if type(version) is not int or version != REGION_SCHEMA_VERSION:
            found = "no schema_version" if version is None else f"schema_version {version!r}"
            raise ValueError(f"{found}; this version reads schema_version {REGION_SCHEMA_VERSION}")
        return cls(
            z_star=payload["z_star"],
            alpha=payload["alpha"],
            polygons=tuple(np.array(p, dtype=float) for p in payload["polygons"]),
            scale_rho=payload["scale_rho"],
            scale_f=payload["scale_f"],
            max_training_distance=payload["max_training_distance"],
        )


def _point_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (M, 2)")
    return pts


def contains_many(region: TypicalRegion, points) -> np.ndarray:
    """Vectorised membership for many points (inside any retained polygon).

    Crossing-number parity, with points on an edge counted as inside. Only the
    (point, edge) pairs of the point's y-slab are tested (Hormann & Agathos,
    *The point in polygon problem for arbitrary polygons*, 2001): an edge can
    hold a point or cross its rightward ray only if the point's y lies in the
    edge's closed y-range, and every such edge is filed under that y's slab.
    """
    pts = _point_array(points)
    result = np.zeros(pts.shape[0], dtype=bool)
    for poly in region.polygons:
        result |= _polygon_contains(poly, pts)
    return result


def _polygon_contains(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Membership in one closed polygon, testing each point against its y-slab's edges.
    The slab index is built once; the points are looked up in it a block at a time."""
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    bx, by = poly[1:, 0], poly[1:, 1]
    dx, dy = bx - ax, by - ay
    ylo, yhi = np.minimum(ay, by), np.maximum(ay, by)
    y0, y1, rise = ylo.min(), yhi.max(), np.abs(dy).sum()
    # slabs about as tall as the mean edge rise keep the index at O(edges) entries; when
    # every edge spans the full height this is one slab, i.e. brute force. A flat polygon
    # has no rise, and coordinates near the float limit can overflow it.
    n_slabs = int(np.clip(ay.size * (y1 - y0) / rise, 1, ay.size)) if 0.0 < rise < np.inf else 1
    floors = y0 + (y1 - y0) / n_slabs * np.arange(1, n_slabs)  # ascending: the slab of y is monotone in y
    lo_slab = np.searchsorted(floors, ylo, side="right")
    spans = np.searchsorted(floors, yhi, side="right") - lo_slab + 1
    entry_slab = _concat_ranges(lo_slab, spans)
    slab_edges = np.repeat(np.arange(ay.size), spans)[np.argsort(entry_slab, kind="stable")]
    slab_start = np.concatenate([[0], np.cumsum(np.bincount(entry_slab, minlength=n_slabs))])

    inside = np.zeros(pts.shape[0], dtype=bool)
    for first in range(0, pts.shape[0], _POINT_BLOCK):
        ys = pts[first : first + _POINT_BLOCK, 1]
        candidates = first + np.flatnonzero((ys >= y0) & (ys <= y1))
        if candidates.size == 0:
            continue
        slab = np.searchsorted(floors, pts[candidates, 1], side="right")
        counts = slab_start[slab + 1] - slab_start[slab]
        ends = np.cumsum(counts)
        cuts = np.searchsorted(ends, np.arange(_CONTAINS_BLOCK, ends[-1], _CONTAINS_BLOCK), side="right")
        bounds = [0, *cuts[np.diff(cuts, prepend=-1) != 0].tolist(), candidates.size]  # distinct: cuts are sorted
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            point = np.repeat(np.arange(hi - lo), counts[lo:hi])
            edge = slab_edges[_concat_ranges(slab_start[slab[lo:hi]], counts[lo:hi])]
            px, py = pts[candidates[lo:hi]][point].T
            ex, ey, edx, edy = ax[edge], ay[edge], dx[edge], dy[edge]
            # An infinite point gives a NaN cross (inf * 0, inf - inf), which compares unequal
            # to 0: no finite segment holds it. An overflow to +-inf is not 0 either.
            with np.errstate(invalid="ignore", over="ignore"):
                cross = edx * (py - ey) - (px - ex) * edy
            # a point on an edge's line lies on the edge when it is in the edge's box; few
            # pairs are on the line, so only they are boxed
            online = np.flatnonzero(cross == 0.0)
            e, x, y = edge[online], px[online], py[online]
            on_seg = online[
                (x >= np.minimum(ax[e], bx[e])) & (x <= np.maximum(ax[e], bx[e])) & (y >= ylo[e]) & (y <= yhi[e])
            ]
            straddles = (ey > py) != (by[edge] > py)
            # an overflow to +-inf still compares right with px
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x_at_y = ex + (py - ey) * edx / edy
            hits = straddles & (px < x_at_y)
            parity = np.bincount(point[hits], minlength=hi - lo) % 2 == 1
            inside[candidates[lo:hi]] = parity | (np.bincount(point[on_seg], minlength=hi - lo) > 0)
    return inside


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + lengths[i] - 1, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def distances_and_sides(region: TypicalRegion, points) -> tuple[np.ndarray, np.ndarray]:
    """Exact distance to the nearest boundary point, and the side it lies on.

    Both come from one projection of each point onto every boundary edge, in
    axis-scaled coordinates. The side is "left" when the offset from the
    nearest boundary point to the point has d_rho <= 0 and d_f >= 0 (density
    at or below, flow at or above the boundary): atypically good conditions,
    never flagged downstream. Otherwise it is "right". Ties between equally
    near edges go to the first edge in polygon order.
    """
    scale = np.array([region.scale_rho, region.scale_f])
    pts = _point_array(points) / scale
    scaled = [p / scale for p in region.polygons]
    starts = np.vstack([p[:-1] for p in scaled])
    deltas = np.vstack([np.diff(p, axis=0) for p in scaled])
    # contours at a grid value pass through lattice nodes and can repeat a vertex
    keep = deltas.any(axis=1)
    ax, ay = starts[keep, 0], starts[keep, 1]
    dx, dy = deltas[keep, 0], deltas[keep, 1]
    length2 = dx * dx + dy * dy
    offsets = np.empty_like(pts)
    step = max(1, _DISTANCE_BLOCK // ax.size)
    for lo in range(0, pts.shape[0], step):
        chunk = pts[lo : lo + step]
        rx = chunk[:, 0][:, None] - ax
        ry = chunk[:, 1][:, None] - ay
        t = np.clip((rx * dx + ry * dy) / length2, 0.0, 1.0)
        rx -= t * dx
        ry -= t * dy
        nearest = np.argmin(rx * rx + ry * ry, axis=1)
        rows = np.arange(chunk.shape[0])
        offsets[lo : lo + step, 0] = rx[rows, nearest]
        offsets[lo : lo + step, 1] = ry[rows, nearest]
    left = (offsets[:, 0] <= 0.0) & (offsets[:, 1] >= 0.0)
    return np.hypot(offsets[:, 0], offsets[:, 1]), np.where(left, "left", "right")


def distances_to_boundary(region: TypicalRegion, points) -> np.ndarray:
    """The distances of ``distances_and_sides``; ``perfbench/tracer.py`` names it."""
    return distances_and_sides(region, points)[0]


def exit_sides(region: TypicalRegion, points) -> np.ndarray:
    """The sides of ``distances_and_sides``; ``perfbench/tracer.py`` names it."""
    return distances_and_sides(region, points)[1]


def fit_typical_region(samples, grid: DensityGrid, alpha: float = 0.05) -> TypicalRegion:
    """The region of a KDE grid of ``samples``: level search, contour, component filter,
    and the samples' interquartile ranges as axis scales."""
    pts = np.asarray(samples, dtype=float)
    z_star = find_level(grid, alpha)
    polygons = filter_components(extract_contour(grid, z_star), MIN_COMPONENT_AREA_FRACTION)
    iqr = np.array([q75 - q25 for q25, q75 in (quantiles(column, (0.25, 0.75)) for column in pts.T)])
    if np.any(iqr <= 0):
        raise ValueError("training data has zero interquartile range on an axis")
    return TypicalRegion(
        z_star=z_star,
        alpha=alpha,
        polygons=tuple(polygons),
        scale_rho=float(iqr[0]),
        scale_f=float(iqr[1]),
    )


def with_normalizer(region: TypicalRegion, max_training_distance: float) -> TypicalRegion:
    return replace(region, max_training_distance=max_training_distance)
