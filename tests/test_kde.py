import math
import os
import platform
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from flowsentry import kde, simgen
from flowsentry.kde import (
    BandwidthMatrix,
    DegenerateDataError,
    DensityGrid,
    InsufficientDataError,
)


def gaussian_cloud(n, seed=0, cov=None):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 2))
    if cov is not None:
        pts = pts @ np.linalg.cholesky(cov).T
    return pts


# --- bandwidth selection ------------------------------------------------------


def test_univariate_amise_matches_numerical_minimum():
    # Oracle: minimise R(k)/(n s) + s^4/4 * m2^2 * R(p'') numerically and
    # compare against the closed form used by the selector.
    n = 5000
    std = 2.3
    r_k = 1.0 / (2.0 * math.sqrt(math.pi))
    r_curv = 3.0 / (8.0 * math.sqrt(math.pi) * std**5)
    amise = lambda s: r_k / (n * s) + 0.25 * s**4 * r_curv
    res = minimize_scalar(amise, bounds=(1e-3, 10.0), method="bounded", options={"xatol": 1e-12})
    expected = (4.0 / 3.0) ** 0.2 * std * n**-0.2
    assert res.x == pytest.approx(expected, rel=1e-6)
    assert kde.amise_optimal_scale(n, r_curv) == pytest.approx(expected, rel=1e-12)


def test_normal_reference_is_scaled_covariance():
    pts = gaussian_cloud(400, seed=3)
    bw = kde.select_bandwidth(pts)
    np.testing.assert_allclose(bw.matrix, 400 ** (-1 / 3) * np.cov(pts, rowvar=False), rtol=1e-12)


def test_identical_samples_degenerate():
    pts = np.ones((100, 2))
    with pytest.raises(DegenerateDataError):
        kde.select_bandwidth(pts)


def test_sample_floor_enforced():
    with pytest.raises(InsufficientDataError):
        kde.select_bandwidth(gaussian_cloud(10))


def test_plug_in_positive_definite_and_sane():
    pts = gaussian_cloud(800, seed=5)
    bw = kde.select_bandwidth(pts, "plug_in")
    eigs = np.linalg.eigvalsh(bw.matrix)
    assert np.all(eigs > 0)
    # for Gaussian data the plug-in scale should land near the reference rule
    ref = kde.select_bandwidth(pts, "normal_reference")
    ratio = np.sqrt(np.diag(bw.matrix) / np.diag(ref.matrix))
    assert np.all(ratio > 0.5) and np.all(ratio < 2.0)


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown bandwidth method"):
        kde.select_bandwidth(gaussian_cloud(100), "cross_validation")


def test_plug_in_matches_eigendecomposition_root():
    # Oracle: the covariance's square root from numpy's eigendecomposition, applied with solve and @
    pts = gaussian_cloud(800, seed=5, cov=np.array([[3.0, -1.2], [-1.2, 1.0]]))
    vals, vecs = np.linalg.eigh(np.cov(pts, rowvar=False))
    root = (vecs * np.sqrt(vals)) @ vecs.T
    sphered = np.linalg.solve(root, pts.T).T
    scales = [kde._univariate_two_stage_scale(sphered[:, k]) for k in range(2)]
    expected = root @ np.diag(np.square(scales)) @ root
    np.testing.assert_allclose(kde.select_bandwidth(pts, "plug_in").matrix, expected, rtol=1e-10)


@pytest.mark.parametrize("matrix", [[[2.0, 0.3], [0.3, 0.5]], [[1e-6, -4e-7], [-4e-7, 3e-6]], [[4e4, 1.9e2], [1.9e2, 1.0]]])
def test_bandwidth_inverse_and_det_match_linalg(matrix):
    bw = BandwidthMatrix(np.array(matrix))
    assert bw.det == pytest.approx(np.linalg.det(matrix), rel=1e-12)
    np.testing.assert_allclose(bw.inverse, np.linalg.inv(matrix), rtol=1e-12)


CORE_TYPE_PROBE = """
import numpy as np
from flowsentry import kde, levelset

rng = np.random.default_rng(2024)
z = rng.standard_normal((1500, 2))
pts = np.column_stack([40.0 + 9.0 * z[:, 0], 1500.0 + 300.0 * (0.6 * z[:, 0] + 0.8 * z[:, 1])])
angle = np.sort(rng.uniform(0.0, 2.0 * np.pi, 2000))
radius = 1.0 + 0.3 * rng.uniform(size=2000)
polygon = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
polygon = np.vstack([polygon, polygon[:1]])
for method in ("normal_reference", "plug_in"):
    print(kde.select_bandwidth(pts, method).matrix.tobytes().hex())
print(levelset.polygon_area(polygon).hex())
"""


def openblas_haswell_kernels_run_here():
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]["name"]
    simd = config["SIMD Extensions"]
    features = {*simd["baseline"], *simd["found"]}
    return "openblas" in blas and platform.machine() in ("x86_64", "AMD64") and bool(features & {"AVX2", "X86_V3"})


@pytest.mark.skipif(not openblas_haswell_kernels_run_here(), reason="needs OpenBLAS on an x86-64 CPU with AVX2")
def test_bandwidth_and_polygon_area_bytes_do_not_depend_on_openblas_core_type():
    # OpenBLAS picks its kernels by core type at load time, and its kernels sum in different orders;
    # the variable is set only in each child's environment
    outputs = []
    for core in ("Haswell", "Prescott"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_CORETYPE": core}
        run = subprocess.run([sys.executable, "-c", CORE_TYPE_PROBE], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]


# --- model construction -------------------------------------------------------


def test_fit_reports_sample_count():
    model = kde.fit(gaussian_cloud(100), np.eye(2))
    assert model.n == 100


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 0.0], [0.0, -0.5]],
        [[1.0, 2.0], [2.0, 1.0]],  # positive diagonal, negative determinant
        [[1.0, 2.0], [2.0, 4.0]],  # zero determinant
        [[1.0, 0.0], [0.0, 1e-320]],  # positive determinant, but the inverse overflows
        [[math.nan, 0.0], [0.0, 1.0]],
        [[1.0, math.nan], [math.nan, 1.0]],
        [[math.inf, 0.0], [0.0, 1.0]],
        [[1.0, -math.inf], [-math.inf, 1.0]],
    ],
    ids=["negative-eigenvalue", "negative-det", "zero-det", "inverse-overflow", "nan", "nan-off-diagonal", "inf", "-inf"],
)
def test_fit_rejects_indefinite_bandwidth(matrix):
    with pytest.raises(ValueError, match="finite|positive definite"):
        kde.fit(gaussian_cloud(10), np.array(matrix))


def test_fit_rejects_empty():
    with pytest.raises(InsufficientDataError):
        kde.fit(np.empty((0, 2)), np.eye(2))


def test_bandwidth_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        BandwidthMatrix(np.array([[1.0, 0.2], [0.0, 1.0]]))


# --- point evaluation ---------------------------------------------------------


def test_single_kernel_peak_value():
    model = kde.fit([[0.0, 0.0]], np.eye(2))
    assert kde.evaluate_many(model, [(0.0, 0.0)])[0] == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_two_sample_hand_value():
    model = kde.fit([[0.0, 0.0], [2.0, 0.0]], np.eye(2))
    expected = (1.0 / (2.0 * math.pi)) * math.exp(-0.5)
    assert kde.evaluate_many(model, [(1.0, 0.0)])[0] == pytest.approx(expected, rel=1e-12)


def test_symmetry_of_symmetric_samples():
    pts = gaussian_cloud(500, seed=7)
    sym = np.vstack([pts, -pts])
    model = kde.fit(sym, kde.select_bandwidth(sym))
    probes = np.array([(0.3, 1.2), (-2.0, 0.5), (1.7, -1.7)])
    a, b = kde.evaluate_many(model, probes), kde.evaluate_many(model, -probes)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(a, b))


def test_translation_equivariance():
    pts = gaussian_cloud(400, seed=11)
    bw = kde.select_bandwidth(pts)
    shift = np.array([57.0, -123.0])
    base = kde.fit(pts, bw)
    moved = kde.fit(pts + shift, bw)
    probes = np.array([(0.0, 0.0), (1.1, -0.4), (-2.5, 2.5)])
    a, b = kde.evaluate_many(base, probes), kde.evaluate_many(moved, probes + shift)
    assert np.all(np.abs(a - b) <= 1e-9 * np.maximum(np.maximum(a, np.abs(b)), 1e-300))


def test_evaluate_nonnegative_everywhere():
    model = kde.fit(gaussian_cloud(50, seed=2), np.eye(2) * 0.1)
    probes = np.random.default_rng(1).uniform(-10, 10, size=(50, 2))
    assert np.all(kde.evaluate_many(model, probes) >= 0)


# --- grid evaluation ----------------------------------------------------------


def test_grid_integral_near_one():
    pts = gaussian_cloud(10_000, seed=13)
    model = kde.fit(pts, kde.select_bandwidth(pts))
    grid = kde.evaluate_grid(model, resolution=(256, 256))
    assert 0.99 <= grid.integral() <= 1.01


def test_grid_matches_scalar_evaluation():
    pts = gaussian_cloud(2_000, seed=17, cov=np.array([[2.0, 0.8], [0.8, 1.0]]))
    model = kde.fit(pts, kde.select_bandwidth(pts))
    grid = kde.evaluate_grid(model, resolution=(128, 128))
    rc, fc = grid.rho_centers, grid.f_centers
    idx = [(0, 0), (64, 64), (20, 100), (127, 127)]
    for i, j in idx:
        direct = kde.evaluate_many(model, [(rc[i], fc[j])])[0]
        assert grid.values[i, j] == pytest.approx(direct, rel=1e-9, abs=1e-300)


@pytest.mark.parametrize(
    "bandwidth, tiles",
    [
        # the old tiling stopped short of 32 tiles on a 128-cell axis
        (np.array([[1e-4, 4e-5], [4e-5, 2e-4]]), (32, 32)),
        # one-cell tiles: the factorisation has no grid term left
        (np.eye(2) * 1e-6, (128, 128)),
    ],
    ids=["fine-tiles", "one-cell-tiles"],
)
def test_tiny_bandwidth_tiles_finely_and_matches_written_out_gaussian_sum(bandwidth, tiles):
    bounds = (-1.0, 11.0, -1.0, 11.0)
    centres = -1.0 + (np.arange(128) + 0.5) * 12.0 / 128
    samples = np.column_stack([centres[[10, 40, 41, 90, 127]] + 0.005, centres[[5, 60, 61, 100, 0]] - 0.007])
    model = kde.fit(samples, bandwidth)
    inv = np.linalg.inv(bandwidth)
    assert kde._tile_counts(12.0, 12.0, 128, 128, inv[0, 0], inv[0, 1], inv[1, 1]) == tiles
    grid = kde.evaluate_grid(model, bounds, resolution=(128, 128))

    cells = np.stack(np.meshgrid(centres, centres, indexing="ij"), axis=-1).reshape(-1, 2)
    diff = cells[:, None, :] - samples[None, :, :]
    quad = np.einsum("mni,ij,mnj->mn", diff, inv, diff)
    expected = np.exp(-0.5 * quad).mean(axis=1) / (2 * math.pi * math.sqrt(np.linalg.det(bandwidth)))
    expected = expected.reshape(128, 128)
    np.testing.assert_allclose(grid.values, expected, rtol=1e-9, atol=1e-12 * expected.max())
    assert (expected > 1e-12 * expected.max()).sum() >= 5


def test_grid_refinement_converges():
    pts = gaussian_cloud(2_000, seed=19)
    model = kde.fit(pts, kde.select_bandwidth(pts))
    bounds = kde.default_bounds(model)
    coarse = kde.evaluate_grid(model, bounds, resolution=(128, 128))
    fine = kde.evaluate_grid(model, bounds, resolution=(256, 256))
    # doubled resolution nests two fine cells per coarse cell; compare the
    # coarse value with the mean of the overlapping fine values
    merged = 0.25 * (
        fine.values[0::2, 0::2] + fine.values[1::2, 0::2] + fine.values[0::2, 1::2] + fine.values[1::2, 1::2]
    )
    peak = coarse.values.max()
    assert np.abs(merged - coarse.values).max() < 0.01 * peak


def test_grid_inverted_bounds_error():
    model = kde.fit(gaussian_cloud(100), np.eye(2))
    with pytest.raises(ValueError, match="inverted"):
        kde.evaluate_grid(model, (2.0, -2.0, -2.0, 2.0), resolution=(128, 128))


def test_grid_warns_when_bounds_clip_samples():
    model = kde.fit(gaussian_cloud(100, seed=23), np.eye(2) * 0.05)
    with pytest.warns(UserWarning, match="truncated"):
        kde.evaluate_grid(model, (-0.5, 0.5, -0.5, 0.5), resolution=(128, 128))


def test_grid_resolution_floor():
    model = kde.fit(gaussian_cloud(100), np.eye(2))
    with pytest.raises(ValueError, match="floor"):
        kde.evaluate_grid(model, resolution=(64, 64))


def test_peak_decreases_with_wider_bandwidth():
    pts = gaussian_cloud(500, seed=29) * 0.3
    base = kde.select_bandwidth(pts)
    grid1 = kde.evaluate_grid(model := kde.fit(pts, base), resolution=(128, 128))
    grid2 = kde.evaluate_grid(kde.fit(pts, base.matrix * 4.0), grid_bounds(grid1), resolution=(128, 128))
    assert grid2.values.max() < grid1.values.max()


def grid_bounds(grid: DensityGrid):
    return (grid.rho_min, grid.rho_max, grid.f_min, grid.f_max)


def test_grid_deterministic():
    pts = gaussian_cloud(1_000, seed=37)
    model = kde.fit(pts, kde.select_bandwidth(pts))
    a = kde.evaluate_grid(model, resolution=(128, 128))
    b = kde.evaluate_grid(model, resolution=(128, 128))
    assert a.values.tobytes() == b.values.tobytes()


# --- tile selection -----------------------------------------------------------


def capped_tile_counts(width_x, width_y, n_x, n_y, a, b, c):
    """The tiling loop that gave up, with (None, None), once a tile count would pass 1/8 of its axis."""
    tx = ty = 1
    while True:
        hx = 0.5 * width_x / tx
        hy = 0.5 * width_y / ty
        if a * hx * hx + 2.0 * abs(b) * hx * hy + c * hy * hy <= 2.0 * kde._MAX_TILE_LOG:
            return tx, ty
        if tx * 8 > n_x or ty * 8 > n_y:
            return None, None
        if a * hx * hx >= c * hy * hy:
            tx *= 2
        else:
            ty *= 2


@settings(max_examples=500, deadline=None)
@given(
    width=st.tuples(st.floats(0.1, 1e4), st.floats(0.1, 1e4)),
    cells=st.tuples(st.sampled_from([128, 200, 256, 512]), st.sampled_from([128, 200, 256, 512])),
    sd=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    corr=st.floats(-0.99, 0.99),
)
def test_tile_counts_keep_every_capped_tiling_and_always_tile(width, cells, sd, corr):
    cov = np.array([[sd[0] ** 2, corr * sd[0] * sd[1]], [corr * sd[0] * sd[1], sd[1] ** 2]])
    a, b, c = BandwidthMatrix(cov).inverse.flat[[0, 1, 3]]
    capped = capped_tile_counts(*width, *cells, a, b, c)
    tx, ty = kde._tile_counts(*width, *cells, a, b, c)
    if capped != (None, None):
        assert (tx, ty) == capped
    else:
        assert tx * 8 > cells[0] or ty * 8 > cells[1]
    assert 1 <= tx <= cells[0] and 1 <= ty <= cells[1]


def quadratic(dx, dy, a, b, c):
    return a * dx * dx + 2.0 * b * dx * dy + c * dy * dy


def box_min_by_edges(px, py, x_lo, x_hi, y_lo, y_hi, a, b, c):
    """Minimum over the box of q(cell - p), from the inside case and the four clamped edge minima."""
    if x_lo <= px <= x_hi and y_lo <= py <= y_hi:
        return 0.0
    best = math.inf
    for dx in (x_lo - px, x_hi - px):
        dy = min(max(-b * dx / c, y_lo - py), y_hi - py)
        best = min(best, quadratic(dx, dy, a, b, c))
    for dy in (y_lo - py, y_hi - py):
        dx = min(max(-b * dy / a, x_lo - px), x_hi - px)
        best = min(best, quadratic(dx, dy, a, b, c))
    return best


@st.composite
def boxes_and_points(draw):
    sd = draw(st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)))
    corr = draw(st.floats(-0.95, 0.95))
    cov = np.array([[sd[0] ** 2, corr * sd[0] * sd[1]], [corr * sd[0] * sd[1], sd[1] ** 2]])
    lo = draw(st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)))
    step = draw(st.tuples(st.floats(0.01, 5.0), st.floats(0.01, 5.0)))
    cells = draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    xs = lo[0] + step[0] * np.arange(cells[0])
    ys = lo[1] + step[1] * np.arange(cells[1])
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    span = np.array([xs[-1] - xs[0], ys[-1] - ys[0]])
    reach = np.maximum(span, 4.0 * np.array(sd))
    outside = np.array([xs[0], ys[0]]) + rng.uniform(-2.0, 3.0, size=(40, 2)) * reach
    inside = np.array([xs[0], ys[0]]) + rng.uniform(0.0, 1.0, size=(20, 2)) * span
    corners = np.array([[x, y] for x in (xs[0], xs[-1]) for y in (ys[0], ys[-1])])
    return np.linalg.inv(cov), xs, ys, np.vstack([outside, inside, corners])


@settings(max_examples=300, deadline=None)
@given(case=boxes_and_points())
def test_box_min_quadratic_bounds_every_cell_centre(case):
    inv, xs, ys, pts = case
    a, b, c = inv[0, 0], inv[0, 1], inv[1, 1]
    got = kde._box_min_quadratic(pts[:, 0], pts[:, 1], xs[0], xs[-1], ys[0], ys[-1], a, b, c)

    dx = xs[None, :, None] - pts[:, 0, None, None]
    dy = ys[None, None, :] - pts[:, 1, None, None]
    terms = (np.abs(a * dx * dx) + np.abs(2.0 * b * dx * dy) + np.abs(c * dy * dy)).reshape(len(pts), -1)
    q = quadratic(dx, dy, a, b, c).reshape(len(pts), -1)
    at = (np.arange(len(pts)), q.argmin(axis=1))
    # never above q at any cell centre: no sample that reaches a cell is dropped
    assert np.all(got <= q[at] + 1e-12 * terms[at])

    inside = (pts[:, 0] >= xs[0]) & (pts[:, 0] <= xs[-1]) & (pts[:, 1] >= ys[0]) & (pts[:, 1] <= ys[-1])
    assert np.all(got[inside] == 0.0)

    # and the exact minimum over the box, not a looser lower bound
    exact = np.array([box_min_by_edges(px, py, xs[0], xs[-1], ys[0], ys[-1], a, b, c) for px, py in pts])
    assert np.all(np.abs(got - exact) <= 1e-12 * terms.max(axis=1))


def widened(bounds, factor):
    cx, cy = 0.5 * (bounds[0] + bounds[1]), 0.5 * (bounds[2] + bounds[3])
    hx, hy = 0.5 * factor * (bounds[1] - bounds[0]), 0.5 * factor * (bounds[3] - bounds[2])
    return cx - hx, cx + hx, cy - hy, cy + hy


def simulated_link(stride):
    stream, _ = simgen.generate(simgen.ScenarioConfig(seed=11, weeks=1, incidents=simgen.plan_incidents(2, 1, 11)))
    return stream.points[::stride]


GRID_CASES = pytest.mark.parametrize(
    "make_samples, widen, min_tiles",
    [
        (lambda: simulated_link(10), 1.0, 4),
        # wide bounds around a correlated cloud: many tiles, the corner ones reached by no sample
        (lambda: gaussian_cloud(1_000, seed=41, cov=np.array([[4.0, 1.8], [1.8, 1.0]])), 2.5, 8),
        (lambda: gaussian_cloud(1_000, seed=43, cov=np.array([[1.0, -2.7], [-2.7, 9.0]])), 2.5, 8),
    ],
    ids=["link", "cloud+0.9", "cloud-0.9"],
)


def grid_case(method, make_samples, widen):
    """A model, its widened default bounds and its tiling at 128x128."""
    pts = make_samples()
    model = kde.fit(pts, kde.select_bandwidth(pts, method))
    bounds = widened(kde.default_bounds(model), widen)
    inv = model.bandwidth.inverse
    tiles = kde._tile_counts(bounds[1] - bounds[0], bounds[3] - bounds[2], 128, 128, *inv.flat[[0, 1, 3]])
    return model, bounds, tiles


def assert_grid_matches_direct_evaluation(model, bounds):
    grid = kde.evaluate_grid(model, bounds, resolution=(128, 128))
    cells = np.stack(np.meshgrid(grid.rho_centers, grid.f_centers, indexing="ij"), axis=-1).reshape(-1, 2)
    direct = kde.evaluate_many(model, cells).reshape(grid.values.shape)
    err = np.abs(grid.values - direct)
    peak = direct.max()
    assert err.max() <= 1e-13 * peak
    above = direct > 1e-40 * peak
    assert np.all(err[above] <= 1e-12 * direct[above])


@pytest.mark.parametrize("method", ["normal_reference", "plug_in"])
@GRID_CASES
def test_tiled_grid_matches_direct_evaluation(method, make_samples, widen, min_tiles):
    model, bounds, (tiles_x, tiles_y) = grid_case(method, make_samples, widen)
    assert tiles_x * tiles_y >= min_tiles
    assert_grid_matches_direct_evaluation(model, bounds)


@pytest.mark.parametrize("rows", [1, 7, 64])
@GRID_CASES
def test_grid_summed_in_blocks_of_rows_matches_direct_evaluation(monkeypatch, rows, make_samples, widen, min_tiles):
    model, bounds, (tiles_x, tiles_y) = grid_case("normal_reference", make_samples, widen)
    # a block holds _BLOCK_ELEMENTS // (a tile's cells along x + along y) kept samples;
    # tile counts are powers of two, so every tile here has 128 // tiles cells per axis
    monkeypatch.setattr(kde, "_BLOCK_ELEMENTS", rows * (128 // tiles_x + 128 // tiles_y))
    assert_grid_matches_direct_evaluation(model, bounds)


def full_scan_reached_tiles(model, x_centers, y_centers, x_edges, y_edges, a, b, c):
    """Each reached tile's kept samples from the exact box minimum over every sample."""
    sx, sy = model.samples[:, 0], model.samples[:, 1]
    reached = []
    for xi in range(x_edges.size - 1):
        xs = slice(x_edges[xi], x_edges[xi + 1])
        for yi in range(y_edges.size - 1):
            ys = slice(y_edges[yi], y_edges[yi + 1])
            box = (x_centers[xs][0], x_centers[xs][-1], y_centers[ys][0], y_centers[ys][-1])
            kept = np.flatnonzero(kde._box_min_quadratic(sx, sy, *box, a, b, c) <= kde._TILE_REACH_Q)
            if kept.size:
                reached.append((xs, ys, kept))
    return reached


def assert_reach_matches_full_scan(model, bounds, resolution=(128, 128)):
    (n_x, n_y), inv = resolution, model.bandwidth.inverse
    a, b, c = inv.flat[[0, 1, 3]]
    x_centers = bounds[0] + (np.arange(n_x) + 0.5) * (bounds[1] - bounds[0]) / n_x
    y_centers = bounds[2] + (np.arange(n_y) + 0.5) * (bounds[3] - bounds[2]) / n_y
    tiles_x, tiles_y = kde._tile_counts(bounds[1] - bounds[0], bounds[3] - bounds[2], n_x, n_y, a, b, c)
    x_edges = np.linspace(0, n_x, tiles_x + 1).astype(int)
    y_edges = np.linspace(0, n_y, tiles_y + 1).astype(int)
    geometry = (model, x_centers, y_centers, x_edges, y_edges, a, b, c)
    ours = list(kde._reached_tiles(*geometry))
    oracle = full_scan_reached_tiles(*geometry)
    assert [(xs, ys) for xs, ys, _ in ours] == [(xs, ys) for xs, ys, _ in oracle]
    for (_, _, kept), (_, _, expected) in zip(ours, oracle):
        np.testing.assert_array_equal(kept, expected)  # the same samples, in ascending order


@pytest.mark.parametrize("reach_block", [7, kde._REACH_BLOCK])
@pytest.mark.parametrize("method", ["normal_reference", "plug_in"])
@GRID_CASES
def test_reach_prefilter_keeps_the_full_scan_sets(monkeypatch, reach_block, method, make_samples, widen, min_tiles):
    model, bounds, _ = grid_case(method, make_samples, widen)
    monkeypatch.setattr(kde, "_REACH_BLOCK", reach_block)
    assert_reach_matches_full_scan(model, bounds)


@settings(max_examples=60, deadline=None)
@given(
    sd=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    corr=st.floats(-0.99, 0.99),
    scale=st.floats(1e-3, 1.0),
    widen=st.floats(1.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
    reach_block=st.sampled_from([7, 64, kde._REACH_BLOCK]),
)
def test_reach_prefilter_keeps_the_full_scan_sets_for_any_bandwidth(sd, corr, scale, widen, seed, reach_block):
    cov = np.array([[sd[0] ** 2, corr * sd[0] * sd[1]], [corr * sd[0] * sd[1], sd[1] ** 2]])
    model = kde.fit(gaussian_cloud(300, seed=seed, cov=cov), scale * cov)
    with mock.patch.object(kde, "_REACH_BLOCK", reach_block):
        assert_reach_matches_full_scan(model, widened(kde.default_bounds(model), widen))


def test_grid_scratch_memory_does_not_grow_with_samples():
    peaks = []
    for n in (5_000, 50_000):
        pts = gaussian_cloud(n, seed=47)
        model = kde.fit(pts, kde.select_bandwidth(pts))
        tracemalloc.start()
        try:
            kde.evaluate_grid(model, resolution=(128, 128))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2**20, [f"{p / 2**20:.2f} MiB" for p in peaks]


@pytest.mark.parametrize("budget", [1, 999, 2**12])
def test_evaluate_many_values_do_not_depend_on_the_block(monkeypatch, budget):
    pts = gaussian_cloud(1_000, seed=53)
    model = kde.fit(pts, kde.select_bandwidth(pts))
    probes = 1.5 * gaussian_cloud(300, seed=59)
    expected = kde.evaluate_many(model, probes)
    monkeypatch.setattr(kde, "_BLOCK_ELEMENTS", budget)
    assert kde.evaluate_many(model, probes).tobytes() == expected.tobytes()
