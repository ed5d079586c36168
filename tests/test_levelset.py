import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowsentry import kde, levelset
from flowsentry.kde import DensityGrid
from flowsentry.levelset import (
    EmptyContourError,
    TruncatedGridError,
    TypicalRegion,
    contains_many,
    distances_and_sides,
    extract_contour,
    filter_components,
    find_level,
    fit_region,
    mass_above,
    polygon_area,
)
from region_helpers import exact_segment_distance, exit_side_oracle, region_overlap, winding_number_inside


def analytic_normal_grid(half_width=6.0, resolution=512):
    """Standard bivariate normal density sampled at grid cell centres."""
    d = 2 * half_width / resolution
    x = -half_width + (np.arange(resolution) + 0.5) * d
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    values = np.exp(-0.5 * r2) / (2 * math.pi)
    return DensityGrid(-half_width, half_width, -half_width, half_width, values)


GRID = analytic_normal_grid()


def square_region(lo=0.0, hi=1.0, **kwargs):
    poly = np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi], [lo, lo]])
    defaults = dict(z_star=0.5, alpha=0.05, polygons=(poly,), scale_rho=1.0, scale_f=1.0, max_training_distance=1.0)
    defaults.update(kwargs)
    return TypicalRegion(**defaults)


# --- mass and level height ------------------------------------------------------


def test_mass_above_zero_is_total_mass():
    assert mass_above(GRID, 0.0) == pytest.approx(1.0, abs=1e-3)


def test_mass_above_peak_is_zero():
    assert mass_above(GRID, GRID.values.max() * 1.0001) == 0.0


@pytest.mark.parametrize("z_frac", [0.1, 0.3, 0.5, 0.8])
def test_mass_above_matches_closed_form(z_frac):
    # level z of the standard normal encloses mass 1 - 2*pi*z above it
    z = z_frac / (2 * math.pi)
    assert mass_above(GRID, z) == pytest.approx(1.0 - z_frac, abs=5e-3)


def test_mass_above_nonincreasing():
    zs = np.linspace(0, GRID.values.max(), 25)
    masses = [mass_above(GRID, z) for z in zs]
    assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))


def test_find_level_alpha_05():
    z = find_level(GRID, 0.05)
    assert z == pytest.approx(0.05 / (2 * math.pi), rel=0.02)


def test_find_level_alpha_half():
    z = find_level(GRID, 0.5)
    assert z == pytest.approx(0.5 / (2 * math.pi), rel=0.02)


def test_find_level_alpha_near_one_hits_peak():
    z = find_level(GRID, 0.999)
    assert z >= 0.9 * GRID.values.max()


def tied_grid():
    """Random integer-valued grid: many cells share each value."""
    values = np.random.default_rng(3).integers(0, 50, (128, 128)).astype(float)
    return DensityGrid(0.0, 1.0, 0.0, 1.0, values / 25.0)


@pytest.mark.parametrize("grid", [GRID, tied_grid()], ids=["normal", "tied"])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.9])
def test_find_level_is_largest_grid_value_enclosing_target(grid, alpha):
    z = find_level(grid, alpha)
    assert z in grid.values
    assert mass_above(grid, z) >= 1.0 - alpha
    next_value = grid.values[grid.values > z].min()
    assert mass_above(grid, next_value) < 1.0 - alpha


def test_find_level_truncated_grid_errors():
    clipped = analytic_normal_grid(half_width=0.5, resolution=128)  # grid mass 0.1445
    with pytest.raises(TruncatedGridError, match=r"smallest alpha this grid holds is 1 - grid mass, 0\.86 rounded up"):
        find_level(clipped, 0.05)
    find_level(clipped, 0.86)
    with pytest.raises(TruncatedGridError):
        find_level(clipped, 0.85)


# --- contour extraction ---------------------------------------------------------


def test_contour_radius_matches_closed_form():
    z = 0.05 / (2 * math.pi)
    loops = extract_contour(GRID, z)
    assert len(loops) == 1
    loop = loops[0]
    np.testing.assert_array_equal(loop[0], loop[-1])
    radii = np.hypot(loop[:, 0], loop[:, 1])
    expected = math.sqrt(2 * math.log(20))
    assert radii.mean() == pytest.approx(expected, rel=0.02)
    # and it is close to a circle
    assert radii.std() < 0.02 * expected


def test_contour_two_components_for_bimodal_mixture():
    d = 12.0 / 256
    x = -6.0 + (np.arange(256) + 0.5) * d
    r2a = (x[:, None] - 3.0) ** 2 + x[None, :] ** 2
    r2b = (x[:, None] + 3.0) ** 2 + x[None, :] ** 2
    values = 0.5 * (np.exp(-0.5 * r2a / 0.25) + np.exp(-0.5 * r2b / 0.25)) / (2 * math.pi * 0.25)
    grid = DensityGrid(-6, 6, -6, 6, values)
    z = find_level(grid, 0.05)
    loops = extract_contour(grid, z)
    assert len(loops) == 2


def test_contour_above_peak_errors():
    with pytest.raises(EmptyContourError):
        extract_contour(GRID, GRID.values.max() * 2)


def test_contour_encloses_target_mass():
    # shoelace area of the alpha=0.05 contour vs the analytic disc area
    z = find_level(GRID, 0.05)
    loops = extract_contour(GRID, z)
    area = sum(polygon_area(p) for p in loops)
    expected = math.pi * 2 * math.log(1.0 / (2 * math.pi * z))
    assert area == pytest.approx(expected, rel=0.02)


@st.composite
def small_grids(draw):
    """A grid of up to 6 x 6 nodes with values 0 to 3 and a level between two of them, so
    that no node lies on a contour; its level set often meets an edge or a corner."""
    n_rho, n_f = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    values = np.array(draw(st.lists(st.integers(0, 3), min_size=n_rho * n_f, max_size=n_rho * n_f)), dtype=float)
    z_star = draw(st.sampled_from([0.5, 1.5, 2.5]))
    assume(values.max() >= z_star)
    rho_min, f_min = draw(st.floats(-100, 100)), draw(st.floats(-100, 100))
    rho_width, f_width = draw(st.floats(0.1, 100)), draw(st.floats(0.1, 100))
    grid = DensityGrid(rho_min, rho_min + rho_width, f_min, f_min + f_width, values.reshape(n_rho, n_f))
    return grid, z_star


def grid_of(rows, z_star=0.5):
    return DensityGrid(0.0, 1.0, 0.0, 1.0, np.array(rows, dtype=float)), z_star


@settings(max_examples=300, deadline=None)
@given(case=small_grids())
@example(case=grid_of([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))  # the whole grid
@example(case=grid_of([[1, 0, 0], [0, 0, 0], [0, 0, 1]]))  # two corners
@example(case=grid_of([[0, 1, 0], [0, 1, 0], [0, 1, 0]]))  # a band from one edge to the other
@example(case=grid_of([[1, 1, 1], [1, 0, 1], [1, 1, 1]]))  # a hole in a set that fills the frame
@example(case=grid_of([[3, 0, 3], [0, 3, 0], [3, 0, 3]], 1.5))  # saddles
def test_contours_close_and_hold_exactly_the_nodes_at_or_above_the_level(case):
    grid, z_star = case
    loops = extract_contour(grid, z_star)
    for loop in loops:
        np.testing.assert_array_equal(loop[0], loop[-1])
        assert loop.shape[0] >= 5
        assert (loop[:, 0] >= grid.rho_min).all() and (loop[:, 0] <= grid.rho_max).all()
        assert (loop[:, 1] >= grid.f_min).all() and (loop[:, 1] <= grid.f_max).all()
    # the loops are simple, so the parity of the loops around a node is its even-odd membership
    nodes = [(x, y) for x in grid.rho_centers for y in grid.f_centers]
    held = np.array([sum(winding_number_inside(node, loop) for loop in loops) % 2 for node in nodes])
    np.testing.assert_array_equal(held.reshape(grid.values.shape), grid.values >= z_star)


# --- component filtering --------------------------------------------------------


def unit_square_at(cx, cy, side):
    h = side / 2
    return np.array([[cx - h, cy - h], [cx + h, cy - h], [cx + h, cy + h], [cx - h, cy + h], [cx - h, cy - h]])


def test_filter_keeps_single_component():
    poly = unit_square_at(0, 0, 2.0)
    assert filter_components([poly], 0.05) == [poly]


def test_filter_drops_small_component():
    big = unit_square_at(0, 0, 10.0)  # area 100
    small = unit_square_at(20, 20, 2.0)  # area 4 < 0.05 * 104
    kept = filter_components([big, small], 0.05)
    assert len(kept) == 1
    assert polygon_area(kept[0]) == pytest.approx(100.0)


def test_filter_keeps_component_at_threshold():
    big = unit_square_at(0, 0, 10.0)  # area 100
    ok = unit_square_at(20, 20, math.sqrt(6.0))  # area 6 >= 0.05 * 106
    assert len(filter_components([big, ok], 0.05)) == 2


def test_filter_never_drops_everything():
    tiny = unit_square_at(0, 0, 1.0)
    smaller = unit_square_at(5, 5, 0.5)
    kept = filter_components([tiny, smaller], 0.99)
    assert len(kept) == 1
    assert polygon_area(kept[0]) == pytest.approx(1.0)


def test_filter_idempotent():
    polys = [unit_square_at(0, 0, 10.0), unit_square_at(20, 20, 3.0)]
    once = filter_components(polys, 0.05)
    twice = filter_components(once, 0.05)
    assert len(once) == len(twice)
    for a, b in zip(once, twice):
        np.testing.assert_array_equal(a, b)


def test_filter_empty_input_errors():
    with pytest.raises(ValueError):
        filter_components([], 0.05)


# --- membership -----------------------------------------------------------------


def inside(region, point):
    return bool(contains_many(region, [point])[0])


def distance(region, point):
    return float(distances_and_sides(region, [point])[0][0])


def side(region, point):
    return str(distances_and_sides(region, [point])[1][0])


def test_unit_square_membership():
    region = square_region()
    assert inside(region, (0.5, 0.5))
    assert not inside(region, (2.0, 2.0))


def test_boundary_counts_as_inside():
    region = square_region()
    assert inside(region, (0.0, 0.0))  # vertex
    assert inside(region, (0.5, 0.0))  # edge midpoint


def random_simple_polygon(rng, n_vertices=20):
    """Star-shaped polygon around the origin: simple by construction."""
    angles = np.sort(rng.uniform(0, 2 * math.pi, n_vertices))
    radii = rng.uniform(0.5, 2.0, n_vertices)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    return np.vstack([pts, pts[:1]])


def test_membership_matches_winding_oracle():
    rng = np.random.default_rng(123)
    poly = random_simple_polygon(rng)
    region = region_of(poly)
    points = rng.uniform(-2.5, 2.5, size=(1000, 2))
    ours = contains_many(region, points)
    oracle = np.array([winding_number_inside(p, poly) for p in points])
    np.testing.assert_array_equal(ours, oracle)


def brute_force_contains_many(region, points):
    """Oracle: crossing-number parity plus on-edge test of every point against every edge."""
    pts = np.asarray(points, dtype=float)
    px = pts[:, 0][:, None]
    py = pts[:, 1][:, None]
    inside = np.zeros(pts.shape[0], dtype=bool)
    on_edge = np.zeros(pts.shape[0], dtype=bool)
    for poly in region.polygons:
        ax, ay = poly[:-1, 0][None, :], poly[:-1, 1][None, :]
        bx, by = poly[1:, 0][None, :], poly[1:, 1][None, :]
        dx = bx - ax
        dy = by - ay
        # a NaN cross (an infinite point) or an infinite one (an overflow) is not 0: off the segment
        with np.errstate(invalid="ignore", over="ignore"):
            cross = dx * (py - ay) - (px - ax) * dy
        on_seg = (
            (cross == 0.0)
            & (px >= np.minimum(ax, bx))
            & (px <= np.maximum(ax, bx))
            & (py >= np.minimum(ay, by))
            & (py <= np.maximum(ay, by))
        )
        on_edge |= on_seg.any(axis=1)
        straddles = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_at_y = ax + (py - ay) * dx / dy
        hits = straddles & (px < x_at_y)
        inside |= (hits.sum(axis=1) % 2).astype(bool)
    return inside | on_edge


def region_of(*polygons):
    return TypicalRegion(
        z_star=1.0, alpha=0.05, polygons=polygons, scale_rho=1.0, scale_f=1.0, max_training_distance=1.0
    )


@st.composite
def star_polygons(draw, center=(0.0, 0.0)):
    """Star-shaped polygons, some with y snapped to a lattice (horizontal edges, shared
    vertex y-levels) and some with repeated vertices (zero-length edges)."""
    n = draw(st.integers(3, 40))
    angles = np.sort(draw(st.lists(st.floats(0.0, 2 * math.pi, exclude_max=True), min_size=n, max_size=n)))
    radii = np.array(draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n)))
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]) + np.asarray(center)
    if draw(st.booleans()):
        pts[:, 1] = np.round(pts[:, 1] * 4) / 4
    repeats = draw(st.lists(st.integers(0, n - 1), max_size=3))
    pts = np.insert(pts, repeats, pts[repeats], axis=0) if repeats else pts
    scale = np.array([draw(st.sampled_from([1.0, 30.0])), draw(st.sampled_from([1.0, 0.01]))])
    poly = np.vstack([pts, pts[:1]]) * scale
    assume(np.diff(poly, axis=0).any())
    return poly


def probe_points(polygons, seed):
    """Vertices, edge midpoints, points on vertex y-levels, points above and below the
    y-range, random points around the region, and non-finite points."""
    rng = np.random.default_rng(seed)
    vertices = np.vstack([p[:-1] for p in polygons])
    midpoints = np.vstack([(p[:-1] + p[1:]) / 2 for p in polygons])
    lo, hi = vertices.min(axis=0), vertices.max(axis=0)
    span = hi - lo
    level_xs = np.concatenate(
        [rng.uniform(lo[0] - span[0], hi[0] + span[0], len(vertices)), rng.permutation(vertices[:, 0])]
    )
    on_levels = np.column_stack([level_xs, np.tile(vertices[:, 1], 2)])
    beyond_ys = [lo[1] - span[1], lo[1] - 1e-9, hi[1] + 1e-9, hi[1] + span[1]]
    beyond = np.column_stack([rng.uniform(lo[0], hi[0], 4), beyond_ys])
    around = rng.uniform(lo - span / 2, hi + span / 2, size=(200, 2))
    odd = np.array(
        [[np.nan, lo[1]], [lo[0], np.nan], [np.nan, np.nan], [-np.inf, hi[1]], [np.inf, lo[1]], [lo[0], np.inf]]
    )
    return np.vstack([vertices, midpoints, on_levels, beyond, around, odd])


@settings(max_examples=150, deadline=None)
@given(poly=star_polygons(), seed=st.integers(0, 2**32 - 1))
def test_contains_many_equals_brute_force_on_star_polygons(poly, seed):
    region = region_of(poly)
    points = probe_points(region.polygons, seed)
    np.testing.assert_array_equal(contains_many(region, points), brute_force_contains_many(region, points))


@settings(max_examples=80, deadline=None)
@given(first=star_polygons(), second=star_polygons(center=(1.5, 0.5)), seed=st.integers(0, 2**32 - 1))
def test_contains_many_equals_brute_force_on_two_polygons(first, second, seed):
    region = region_of(first, second)
    points = probe_points(region.polygons, seed)
    np.testing.assert_array_equal(contains_many(region, points), brute_force_contains_many(region, points))


@settings(max_examples=40, deadline=None)
@given(teeth=st.integers(1, 30), height=st.floats(0.5, 100.0), seed=st.integers(0, 2**32 - 1))
def test_contains_many_equals_brute_force_on_comb(teeth, height, seed):
    # every edge but the closing one spans the full height, so the index is one slab
    xs = np.arange(2 * teeth + 1) * 0.5
    ys = np.where(np.arange(2 * teeth + 1) % 2 == 1, height, 0.0)
    comb = np.vstack([np.column_stack([xs, ys]), [[0.0, 0.0]]])
    region = region_of(comb)
    points = probe_points(region.polygons, seed)
    np.testing.assert_array_equal(contains_many(region, points), brute_force_contains_many(region, points))


@pytest.mark.parametrize(
    "block, n_points", [(1, 300), (7, 3_000), (levelset._CONTAINS_BLOCK, 20_000), (2**16, 20_000)]
)
def test_contains_many_blocks_agree_with_brute_force(block, n_points):
    rng = np.random.default_rng(31)
    region = region_of(random_simple_polygon(rng, 200), random_simple_polygon(rng, 50) + 2.0)
    points = np.vstack([rng.uniform(-3, 5, size=(n_points, 2)), *(p[:-1] for p in region.polygons)])
    with mock.patch.object(levelset, "_CONTAINS_BLOCK", block):
        ours = contains_many(region, points)
    np.testing.assert_array_equal(ours, brute_force_contains_many(region, points))


@pytest.mark.parametrize("block, n_points", [(1, 300), (7, 3_000), (levelset._POINT_BLOCK, 20_000)])
def test_contains_many_point_blocks_agree_with_brute_force(block, n_points):
    rng = np.random.default_rng(41)
    region = region_of(random_simple_polygon(rng, 200), random_simple_polygon(rng, 50) + 2.0)
    points = np.vstack([rng.uniform(-3, 5, size=(n_points, 2)), *(p[:-1] for p in region.polygons)])
    with mock.patch.object(levelset, "_POINT_BLOCK", block):
        ours = contains_many(region, points)
    np.testing.assert_array_equal(ours, brute_force_contains_many(region, points))


# 52 edges: one point per block, 9 per block, and the default's 315
@pytest.mark.parametrize("block, n_points", [(1, 100), (2**9, 300), (levelset._DISTANCE_BLOCK, 1_000)])
def test_distances_and_sides_blocks_agree_with_loop_oracles(block, n_points):
    rng = np.random.default_rng(37)
    region = region_of(random_simple_polygon(rng, 40), random_simple_polygon(rng, 12) + 2.0)
    points = np.vstack([rng.uniform(-3, 5, size=(n_points, 2)), *(p[:-1] + 1e-3 for p in region.polygons)])
    with mock.patch.object(levelset, "_DISTANCE_BLOCK", block):
        distances, sides = distances_and_sides(region, points)
    for p, d, side in zip(points, distances, sides):
        nearest = min(region.polygons, key=lambda poly: exact_segment_distance(p, poly))
        assert abs(d - exact_segment_distance(p, nearest)) <= 1e-12
        assert side == exit_side_oracle(p, nearest)


@pytest.mark.parametrize(
    "scale, points, expected",
    [
        # an infinite point on the line of a horizontal edge: inf * 0 in the cross product
        (1.0, [[np.inf, 0.0], [-np.inf, 1.0], [0.5, 0.5]], [False, False, True]),
        # huge coordinates: the cross product overflows
        (1e200, [[0.5e200, 0.5e200], [2e200, 0.5e200], [1e200, 1e200]], [True, False, True]),
    ],
)
def test_contains_many_raises_no_floating_point_warning(scale, points, expected):
    region = region_of(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]) * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = contains_many(region, np.array(points))
    np.testing.assert_array_equal(inside, expected)


def test_region_rejects_non_finite_polygon():
    poly = np.array([[0.0, 0.0], [1.0, np.nan], [1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        region_of(poly)


# --- distance -------------------------------------------------------------------


def test_distance_zero_on_vertex():
    region = square_region()
    assert distance(region, (0.0, 0.0)) == 0.0


def test_distance_above_square():
    region = square_region()
    assert distance(region, (0.5, 1.5)) == pytest.approx(0.5, abs=1e-12)


def test_distance_zero_implies_contains():
    region = square_region()
    for p in [(0.0, 0.5), (1.0, 1.0), (0.25, 0.0)]:
        if distance(region, p) == 0.0:
            assert inside(region, p)


def test_distance_matches_projection_oracle():
    rng = np.random.default_rng(7)
    poly = random_simple_polygon(rng, n_vertices=17)
    region = region_of(poly)
    for p in rng.uniform(-3, 3, size=(100, 2)):
        assert abs(distance(region, p) - exact_segment_distance(p, poly)) <= 1e-12


@pytest.mark.parametrize("repeat_vertex", [False, True], ids=["simple", "repeated_vertex"])
@pytest.mark.parametrize("scale", [(1.0, 1.0), (3.0, 0.25)], ids=["unit", "scaled"])
def test_distances_and_sides_match_loop_oracles(repeat_vertex, scale):
    rng = np.random.default_rng(17)
    scale = np.array(scale)
    for _ in range(5):
        poly = random_simple_polygon(rng) * scale
        if repeat_vertex:
            poly = np.insert(poly, 5, poly[5], axis=0)  # a zero-length edge
        region = TypicalRegion(
            z_star=1.0, alpha=0.05, polygons=(poly,), scale_rho=scale[0], scale_f=scale[1], max_training_distance=1.0
        )
        # points just off each vertex, where a side tolerance would show
        nudges = 1e-4 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
        near = (poly[:-1, None, :] / scale + nudges).reshape(-1, 2)
        points = np.vstack([rng.uniform(-3, 3, size=(300, 2)), near]) * scale
        exterior = ~contains_many(region, points)
        distances, sides = distances_and_sides(region, points)
        for p, d in zip(points, distances):
            assert abs(d - exact_segment_distance(p / scale, poly / scale)) <= 1e-12
        oracle_sides = [exit_side_oracle(p / scale, poly / scale) for p in points[exterior]]
        assert list(sides[exterior]) == oracle_sides
        assert {"left", "right"} <= set(oracle_sides)


def test_distance_uses_axis_scales():
    region = square_region(scale_rho=2.0, scale_f=1.0)
    # point 1.0 to the right of the right edge: scaled gap is 0.5
    assert distance(region, (2.0, 0.5)) == pytest.approx(0.5, abs=1e-12)


# --- exit side ------------------------------------------------------------------


def test_exit_side_rules():
    region = square_region()
    assert side(region, (-0.5, 1.5)) == "left"  # above-left of nearest corner
    assert side(region, (1.5, 0.5)) == "right"  # density beyond the boundary
    assert side(region, (0.5, -0.5)) == "right"  # below: flow lower than boundary


# --- fitted regions -------------------------------------------------------------


@pytest.fixture(scope="module")
def fitted_region_and_samples():
    rng = np.random.default_rng(99)
    pts = rng.standard_normal((20_000, 2)) @ np.array([[3.0, 0.0], [1.0, 40.0]]).T + np.array([30.0, 2000.0])
    return fit_region(pts)[0], pts


def test_fitted_region_mass_check(fitted_region_and_samples):
    region, pts = fitted_region_and_samples
    frac = contains_many(region, pts).mean()
    assert 0.93 <= frac <= 0.97


def test_fitted_region_json_round_trip_bit_identical(fitted_region_and_samples):
    region, pts = fitted_region_and_samples
    back = TypicalRegion.from_json(region.to_json())
    probes = np.random.default_rng(5).uniform([10, 1000], [60, 3500], size=(200, 2))
    np.testing.assert_array_equal(contains_many(region, probes), contains_many(back, probes))
    for a, b in zip(distances_and_sides(region, probes), distances_and_sides(back, probes)):
        np.testing.assert_array_equal(a, b)


def test_region_rejects_polygon_without_extent():
    point = np.zeros((4, 2))
    with pytest.raises(ValueError, match="nonzero length"):
        region_of(point)


def test_region_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        fit_region(np.random.default_rng(0).standard_normal((100, 2)), alpha=1.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", 0.0),
        ("alpha", 1.0),
        ("z_star", 0.0),
        ("z_star", math.nan),
        ("scale_rho", math.inf),
        ("scale_f", -1.0),
        ("max_training_distance", math.nan),
        ("max_training_distance", 0.0),
        ("max_training_distance", None),
    ],
)
def test_region_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        square_region(**{field: value})


def test_region_file_carries_schema_version():
    text = square_region(max_training_distance=0.5).to_json()
    assert json.loads(text)["schema_version"] == levelset.REGION_SCHEMA_VERSION == 1
    assert TypicalRegion.from_json(text).to_json() == text


@pytest.mark.parametrize("version", [None, 0, 2, "1", 1.0, True])
def test_region_file_rejects_missing_or_unknown_schema_version(version):
    payload = json.loads(square_region().to_json())
    if version is None:
        del payload["schema_version"]
    else:
        payload["schema_version"] = version
    with pytest.raises(ValueError, match="schema_version"):
        TypicalRegion.from_json(json.dumps(payload))


def test_region_overlap_identical_region(fitted_region_and_samples):
    region, _ = fitted_region_and_samples
    sym, union = region_overlap(region, region)
    assert sym == 0.0
    assert union > 0.0
