import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from flowsentry import kde
from flowsentry.kde import (
    BandwidthMatrix,
    DegenerateDataError,
    DensityGrid,
    InsufficientDataError,
    normal_reference_scale,
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
    assert normal_reference_scale(std, n) == pytest.approx(expected, rel=1e-12)


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


# --- model construction -------------------------------------------------------


def test_fit_reports_sample_count():
    model = kde.fit(gaussian_cloud(100), np.eye(2))
    assert model.n == 100


def test_fit_rejects_indefinite_bandwidth():
    with pytest.raises(ValueError, match="positive definite"):
        kde.fit(gaussian_cloud(10), np.array([[1.0, 0.0], [0.0, -0.5]]))


def test_fit_rejects_empty():
    with pytest.raises(InsufficientDataError):
        kde.fit(np.empty((0, 2)), np.eye(2))


def test_bandwidth_must_be_symmetric():
    with pytest.raises(ValueError, match="symmetric"):
        BandwidthMatrix(np.array([[1.0, 0.2], [0.0, 1.0]]))


# --- point evaluation ---------------------------------------------------------


def test_single_kernel_peak_value():
    model = kde.fit([[0.0, 0.0]], np.eye(2))
    assert kde.evaluate(model, (0.0, 0.0)) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-12)


def test_two_sample_hand_value():
    model = kde.fit([[0.0, 0.0], [2.0, 0.0]], np.eye(2))
    expected = (1.0 / (2.0 * math.pi)) * math.exp(-0.5)
    assert kde.evaluate(model, (1.0, 0.0)) == pytest.approx(expected, rel=1e-12)


def test_symmetry_of_symmetric_samples():
    pts = gaussian_cloud(500, seed=7)
    sym = np.vstack([pts, -pts])
    model = kde.fit(sym, kde.select_bandwidth(sym))
    for probe in [(0.3, 1.2), (-2.0, 0.5), (1.7, -1.7)]:
        a = kde.evaluate(model, probe)
        b = kde.evaluate(model, (-probe[0], -probe[1]))
        assert abs(a - b) <= 1e-12 * max(a, b)


def test_translation_equivariance():
    pts = gaussian_cloud(400, seed=11)
    bw = kde.select_bandwidth(pts)
    shift = np.array([57.0, -123.0])
    base = kde.fit(pts, bw)
    moved = kde.fit(pts + shift, bw)
    for probe in [(0.0, 0.0), (1.1, -0.4), (-2.5, 2.5)]:
        a = kde.evaluate(base, probe)
        b = kde.evaluate(moved, np.asarray(probe) + shift)
        assert abs(a - b) <= 1e-9 * max(a, abs(b), 1e-300)


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
        direct = kde.evaluate(model, (rc[i], fc[j]))
        assert grid.values[i, j] == pytest.approx(direct, rel=1e-9, abs=1e-300)


def test_grid_direct_path_matches_written_out_gaussian_sum():
    # a bandwidth tiny relative to the bounds leaves no overflow-safe tiling
    bandwidth = np.array([[1e-4, 4e-5], [4e-5, 2e-4]])
    bounds = (-1.0, 11.0, -1.0, 11.0)
    centres = -1.0 + (np.arange(128) + 0.5) * 12.0 / 128
    samples = np.column_stack([centres[[10, 40, 41, 90, 127]] + 0.005, centres[[5, 60, 61, 100, 0]] - 0.007])
    model = kde.fit(samples, bandwidth)
    inv = np.linalg.inv(bandwidth)
    assert kde._tile_counts(12.0, 12.0, 128, 128, inv[0, 0], inv[0, 1], inv[1, 1]) == (None, None)
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


def test_grid_json_round_trip_bit_exact():
    pts = gaussian_cloud(300, seed=31)
    model = kde.fit(pts, kde.select_bandwidth(pts))
    grid = kde.evaluate_grid(model, resolution=(128, 128))
    back = DensityGrid.from_json(grid.to_json())
    assert back.values.tobytes() == grid.values.tobytes()
    assert (back.rho_min, back.rho_max, back.f_min, back.f_max) == (
        grid.rho_min,
        grid.rho_max,
        grid.f_min,
        grid.f_max,
    )
    # decimal payload, not binary
    payload = json.loads(grid.to_json())
    assert isinstance(payload["values"][0], float)


def test_grid_deterministic():
    pts = gaussian_cloud(1_000, seed=37)
    model = kde.fit(pts, kde.select_bandwidth(pts))
    a = kde.evaluate_grid(model, resolution=(128, 128))
    b = kde.evaluate_grid(model, resolution=(128, 128))
    assert a.values.tobytes() == b.values.tobytes()
