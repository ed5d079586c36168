"""Level height search, contour extraction, and typical-region geometry.

The typical region is the superlevel set of the fitted density surface at the
height z*, the largest grid value whose superlevel set encloses at least
1 - alpha of the probability mass. Its boundary is extracted with marching
squares on the evaluation grid, small components are dropped, and
membership / distance / exit-side queries run exactly against the edges of
the retained polygons. Distances are measured in axis-scaled coordinates
(each axis divided by its training interquartile range) so severities are
unitless and comparable across links.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import kde
from .kde import DensityGrid, DensityModel

# Region queries work on (points x edges) blocks of this many elements, small
# enough for a block's temporaries to stay in a core's L2 cache. Blocks of 2**21
# elements ran 1.9x (membership) to 2.5x (distance) slower against a
# 1,073-vertex region on a Xeon with 2 MiB of L2 per core.
_QUERY_BLOCK = 2**16

# Contour components enclosing less than this share of the total area are dropped.
MIN_COMPONENT_AREA_FRACTION = 0.05


class TruncatedGridError(ValueError):
    """The grid does not hold enough mass to enclose 1 - alpha."""


class EmptyContourError(ValueError):
    """No grid cell crosses the requested level."""


@dataclass(frozen=True)
class RegionConfig:
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha {self.alpha} outside (0, 1)")


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
    return 0.5 * abs(float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1])))


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
        if self.scale_rho <= 0 or self.scale_f <= 0:
            raise ValueError("axis scales must be positive")
        if self.max_training_distance is not None and self.max_training_distance <= 0:
            raise ValueError("max_training_distance must be positive once calibrated")
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


def contains(region: TypicalRegion, point) -> bool:
    """Ray-casting membership test; the boundary counts as inside."""
    return bool(contains_many(region, np.asarray(point, dtype=float).reshape(1, 2))[0])


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
    """Membership in one closed polygon, testing each point against its y-slab's edges."""
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
    candidates = np.flatnonzero((pts[:, 1] >= y0) & (pts[:, 1] <= y1))
    if candidates.size == 0:
        return inside
    slab = np.searchsorted(floors, pts[candidates, 1], side="right")
    counts = slab_start[slab + 1] - slab_start[slab]
    ends = np.cumsum(counts)
    cuts = np.searchsorted(ends, np.arange(_QUERY_BLOCK, ends[-1], _QUERY_BLOCK), side="right")
    cuts = cuts[np.diff(cuts, prepend=-1) != 0]  # distinct: cuts are sorted
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, candidates.size]):
        point = np.repeat(np.arange(hi - lo), counts[lo:hi])
        edge = slab_edges[_concat_ranges(slab_start[slab[lo:hi]], counts[lo:hi])]
        px, py = pts[candidates[lo:hi]][point].T
        ex, ey, edx, edy = ax[edge], ay[edge], dx[edge], dy[edge]
        # An infinite point gives a NaN cross (inf * 0, inf - inf), which compares unequal
        # to 0: no finite segment holds it. An overflow to +-inf is not 0 either.
        with np.errstate(invalid="ignore", over="ignore"):
            cross = edx * (py - ey) - (px - ex) * edy
        on_seg = (
            (cross == 0.0)
            & (px >= np.minimum(ex, bx[edge]))
            & (px <= np.maximum(ex, bx[edge]))
            & (py >= ylo[edge])
            & (py <= yhi[edge])
        )
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
    step = max(1, _QUERY_BLOCK // ax.size)
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


def distance_to_boundary(region: TypicalRegion, point) -> float:
    """Scaled Euclidean distance to the nearest boundary point."""
    return float(distances_to_boundary(region, np.asarray(point, dtype=float).reshape(1, 2))[0])


def distances_to_boundary(region: TypicalRegion, points) -> np.ndarray:
    """Vectorised distance_to_boundary."""
    return distances_and_sides(region, points)[0]


def exit_side(region: TypicalRegion, point) -> str:
    """Which side of the boundary an exterior point left through (see distances_and_sides)."""
    if contains(region, point):
        raise ValueError("exit_side is defined only for exterior points")
    return str(exit_sides(region, np.asarray(point, dtype=float).reshape(1, 2))[0])


def exit_sides(region: TypicalRegion, points) -> np.ndarray:
    """Vectorised exit_side; callers must pass exterior points only."""
    return distances_and_sides(region, points)[1]


def fit_typical_region(
    samples,
    config: RegionConfig = RegionConfig(),
    *,
    bandwidth_method: str = "normal_reference",
    resolution: tuple[int, int] = kde.GRID_RESOLUTION,
    model: DensityModel | None = None,
    grid: DensityGrid | None = None,
) -> TypicalRegion:
    """Full pipeline: KDE fit, grid, level search, contour, component filter."""
    pts = np.asarray(samples, dtype=float)
    if model is None:
        model = kde.fit(pts, kde.select_bandwidth(pts, bandwidth_method))
    if grid is None:
        grid = kde.evaluate_grid(model, resolution=resolution)
    z_star = find_level(grid, config.alpha)
    polygons = filter_components(extract_contour(grid, z_star), MIN_COMPONENT_AREA_FRACTION)
    q25, q75 = np.percentile(pts, [25, 75], axis=0)
    iqr = q75 - q25
    if np.any(iqr <= 0):
        raise ValueError("training data has zero interquartile range on an axis")
    return TypicalRegion(
        z_star=z_star,
        alpha=config.alpha,
        polygons=tuple(polygons),
        scale_rho=float(iqr[0]),
        scale_f=float(iqr[1]),
    )


def with_normalizer(region: TypicalRegion, max_training_distance: float) -> TypicalRegion:
    return replace(region, max_training_distance=max_training_distance)
