"""Bivariate Gaussian kernel density estimation of the density-flow distribution.

The estimate at x is the mean of Gaussian kernels centred on the samples,
with a single positive-definite 2x2 bandwidth matrix shared by all kernels.
Grid evaluation has no tree or FFT approximation. Each tile of the grid sums
the samples whose kernel reaches above e^-145 of its peak somewhere on the
tile, found from an exact per-sample minimum of the kernel's quadratic form
over the tile; every other sample is below that level on the whole tile, the
level the factorisation may lose to underflow anyway. Only the samples whose
x lies within the kernel's reach of a column of tiles are tested for them.
The sum is organised as a per-tile rank-1 factorisation so the bulk of the
arithmetic runs through matrix products, one per block of a fixed number of
kept samples (``_BLOCK_ELEMENTS``), added into the tile in ascending sample
order. Working memory is therefore fixed for a given grid, whatever the
number of samples, and so is ``evaluate_many``'s, which splits its points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

GAUSS_KERNEL_ROUGHNESS = 1.0 / (2.0 * math.sqrt(math.pi))  # integral of k^2 for the standard normal
GAUSS_KERNEL_SECOND_MOMENT = 1.0

# exp underflow guard: a tile may scale per-sample weights up to e^MAX_TILE_LOG,
# so tile half-diagonals are chosen to keep every factor finite in float64.
_MAX_TILE_LOG = 600.0
# A tile sums a sample only when its kernel quadratic q = d' H^-1 d falls to this on the
# tile: beyond it, exp(-q/2) is below e^-(underflow - _MAX_TILE_LOG), about e^-145 of the
# kernel peak, which the factorisation's scaled factors underflow to zero anyway.
_TILE_REACH_Q = 2.0 * (-math.log(np.finfo(float).smallest_subnormal) - _MAX_TILE_LOG)

# Working-memory budget, in float64 elements: a grid tile sums its kept samples in blocks
# of rows whose two factor buffers hold this many elements together, and ``evaluate_many``
# splits its points so that each (points x samples) temporary holds at most this many.
# On the seed-11 3-week link (30,240 samples, 4x2 tiles of 128x256 cells, 2-vCPU Xeon with
# 2 MiB of L2 per core) the normal-reference grid took 0.40-0.43 s at 2**18, 0.43-0.48 s at
# 2**16 and 0.38-0.42 s at 2**19, against 0.45-0.50 s summing each tile's samples at once;
# ``fit``'s peak RSS fell from 128 to 50 MiB.
_BLOCK_ELEMENTS = 2**18
# Samples tested at a time for reaching a tile (~10 temporaries of 32 KiB). The plug-in grid
# of that link took 0.47-0.48 s at 2**12, 0.53-0.57 s at 2**10 and 0.45-0.50 s at 2**16, but a
# 128x128 grid's scratch grew 0.8 MiB from 5,000 to 50,000 samples at 2**12 and 5.2 MiB at 2**16.
_REACH_BLOCK = 2**12

MIN_BANDWIDTH_SAMPLES = 50  # fewest samples a bandwidth is selected from
BOUNDS_MARGIN_SD = 3.0  # default grid bounds pad the sample hull by this many marginal bandwidth sds
GRID_RESOLUTION = (512, 512)
MIN_GRID_RESOLUTION = 128  # per axis


class InsufficientDataError(ValueError):
    """Too few samples for the requested operation."""


class DegenerateDataError(ValueError):
    """Samples carry no usable spread (singular covariance)."""


@dataclass(frozen=True)
class BandwidthMatrix:
    """Symmetric positive-definite 2x2 bandwidth (squared length scales), with its
    determinant m00*m11 - m01^2 and inverse (the adjugate over it) written out, free of BLAS."""

    matrix: np.ndarray
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"bandwidth matrix must be 2x2, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("bandwidth matrix must be finite")
        if not np.allclose(m, m.T, rtol=1e-12, atol=0.0):
            raise ValueError("bandwidth matrix must be symmetric")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        m00, m01, m11 = float(m[0, 0]), float(m[0, 1]), float(m[1, 1])
        det = m00 * m11 - m01 * m01
        if not (m00 > 0.0 and 0.0 < det < math.inf):  # Sylvester's criterion
            raise ValueError("bandwidth matrix must be positive definite")
        inverse = np.array([[m11 / det, -m01 / det], [-m01 / det, m00 / det]])
        if not np.all(np.isfinite(inverse)):
            raise ValueError("bandwidth matrix must be positive definite (its inverse overflows)")
        inverse.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "det", det)

    @property
    def marginal_sd(self) -> np.ndarray:
        """Per-axis kernel standard deviations (sqrt of the diagonal)."""
        return np.sqrt(np.diag(self.matrix))


@dataclass(frozen=True)
class DensityModel:
    """Fitted KDE: the samples, the bandwidth, and nothing else."""

    samples: np.ndarray  # (N, 2) finite
    bandwidth: BandwidthMatrix

    def __post_init__(self):
        pts = np.asarray(self.samples, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"samples must have shape (N, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "samples", pts)

    @property
    def n(self) -> int:
        return self.samples.shape[0]


def _cell_centers(lo: float, hi: float, n: int) -> np.ndarray:
    """The centres of ``n`` equal cells over [lo, hi]: the grid's nodes on one axis."""
    return lo + (np.arange(n) + 0.5) * ((hi - lo) / n)


@dataclass(frozen=True)
class DensityGrid:
    """KDE evaluated at the centres of a regular grid over rectangular bounds."""

    rho_min: float
    rho_max: float
    f_min: float
    f_max: float
    values: np.ndarray  # (n_rho, n_f), row-major over rho

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("grid values must be 2-D")
        if np.any(vals < 0):
            raise ValueError("grid values must be nonnegative")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def rho_centers(self) -> np.ndarray:
        return _cell_centers(self.rho_min, self.rho_max, self.values.shape[0])

    @property
    def f_centers(self) -> np.ndarray:
        return _cell_centers(self.f_min, self.f_max, self.values.shape[1])

    def integral(self) -> float:
        """Trapezoidal integral of the grid over its bounds."""
        inner = np.trapezoid(self.values, self.f_centers, axis=1)
        return float(np.trapezoid(inner, self.rho_centers))


def amise_optimal_scale(n: int, curvature_roughness: float) -> float:
    """Closed-form minimiser of the univariate asymptotic MISE for a Gaussian kernel."""
    if curvature_roughness <= 0:
        raise ValueError("curvature roughness must be positive")
    return (GAUSS_KERNEL_ROUGHNESS / (GAUSS_KERNEL_SECOND_MOMENT**2 * curvature_roughness)) ** 0.2 * n**-0.2


def select_bandwidth(samples, method: str = "normal_reference") -> BandwidthMatrix:
    """Pick a bandwidth matrix from the data.

    ``normal_reference`` is the bivariate Gaussian-reference AMISE minimiser,
    N^(-1/3) times the sample covariance. ``plug_in`` replaces the reference
    curvature with a two-stage pilot estimate computed per coordinate after
    sphering the data, then maps the per-axis scales back through the sample
    covariance.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"samples must have shape (N, 2), got {pts.shape}")
    n = pts.shape[0]
    if n < MIN_BANDWIDTH_SAMPLES:
        raise InsufficientDataError(f"need at least {MIN_BANDWIDTH_SAMPLES} samples, got {n}")
    dx, dy = (pts - pts.mean(axis=0)).T
    sxy = np.sum(dx * dy)
    try:
        cov = BandwidthMatrix(np.array([[np.sum(dx * dx), sxy], [sxy, np.sum(dy * dy)]]) / (n - 1))
    except ValueError:
        raise DegenerateDataError("sample covariance is singular") from None
    if method == "normal_reference":
        return BandwidthMatrix(n ** (-1.0 / 3.0) * cov.matrix)
    if method == "plug_in":
        return _plug_in_bandwidth(pts, cov)
    raise ValueError(f"unknown bandwidth method {method!r}")


def _plug_in_bandwidth(pts: np.ndarray, cov: BandwidthMatrix) -> BandwidthMatrix:
    """Sphere with the covariance's root R = (M + sI) / sqrt(tr M + 2s), s = sqrt(det M),
    scale each axis, and map the squared scales S^2 back as R S^2 R."""
    (m00, m01), (_, m11) = cov.matrix
    s = math.sqrt(cov.det)
    t = math.sqrt(m00 + m11 + 2.0 * s)
    r00, r01, r11 = (m00 + s) / t, m01 / t, (m11 + s) / t
    (i00, i01), (_, i11) = BandwidthMatrix([[r00, r01], [r01, r11]]).inverse
    x, y = pts[:, 0], pts[:, 1]
    h0, h1 = (_univariate_two_stage_scale(z) ** 2 for z in (i00 * x + i01 * y, i01 * x + i11 * y))
    s01 = r00 * r01 * h0 + r01 * r11 * h1
    return BandwidthMatrix([[r00 * r00 * h0 + r01 * r01 * h1, s01], [s01, r01 * r01 * h0 + r11 * r11 * h1]])


def _phi4(x: np.ndarray) -> np.ndarray:
    return (x**4 - 6.0 * x**2 + 3.0) * np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)


def _phi6(x: np.ndarray) -> np.ndarray:
    return (x**6 - 15.0 * x**4 + 45.0 * x**2 - 15.0) * np.exp(-0.5 * x**2) / math.sqrt(2.0 * math.pi)


def _pairwise_functional(x: np.ndarray, g: float, deriv) -> float:
    """(1/(n^2 g^(r+1))) * sum_ij deriv((xi-xj)/g), chunked to bound memory."""
    n = x.size
    total = 0.0
    step = max(1, 2**18 // max(n, 1))
    for lo in range(0, n, step):
        block = (x[lo : lo + step, None] - x[None, :]) / g
        total += float(np.sum(deriv(block)))
    return total


def _univariate_two_stage_scale(x: np.ndarray) -> float:
    """Direct two-stage plug-in scale for one (already sphered) coordinate.

    Stage one estimates the sixth-derivative functional with a normal-reference
    pilot; stage two feeds it into a pilot for the curvature functional R(p''),
    which is substituted into the AMISE minimiser. Pairwise sums use a strided
    subsample of about 2000 points above 2000; the estimate stays deterministic.
    """
    n_full = x.size
    if n_full > 2000:
        x = x[:: max(1, n_full // 2000)]
    n = x.size
    s = float(np.std(x, ddof=1))
    if s <= 0:
        raise DegenerateDataError("coordinate has zero spread")
    psi8 = 105.0 / (32.0 * math.sqrt(math.pi) * s**9)
    g1 = (30.0 / (math.sqrt(2.0 * math.pi) * psi8 * n)) ** (1.0 / 9.0)
    psi6 = _pairwise_functional(x, g1, _phi6) / (n**2 * g1**7)
    if psi6 >= 0:  # pilot failed; true psi6 is negative
        psi6 = -15.0 / (16.0 * math.sqrt(math.pi) * s**7)
    g2 = (-6.0 / (math.sqrt(2.0 * math.pi) * psi6 * n)) ** (1.0 / 7.0)
    psi4 = _pairwise_functional(x, g2, _phi4) / (n**2 * g2**5)
    if psi4 <= 0:  # fall back to the Gaussian-reference curvature
        psi4 = 3.0 / (8.0 * math.sqrt(math.pi) * s**5)
    return amise_optimal_scale(n_full, psi4)


def fit(samples, bandwidth: BandwidthMatrix | np.ndarray) -> DensityModel:
    """Build a density model from the samples and a bandwidth (``BandwidthMatrix`` holds its inverse)."""
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        raise InsufficientDataError("no samples")
    if not isinstance(bandwidth, BandwidthMatrix):
        bandwidth = BandwidthMatrix(bandwidth)
    return DensityModel(pts, bandwidth)


def evaluate_many(model: DensityModel, points) -> np.ndarray:
    """Exact KDE values at each row of ``points``, in blocks of points whose
    (points x samples) temporaries hold at most ``_BLOCK_ELEMENTS`` elements each
    (one point per block when the samples alone exceed it). Every point's sum runs
    over all samples at once, so the values do not depend on the block size."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (M, 2)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    inv = model.bandwidth.inverse
    norm = 1.0 / (2.0 * math.pi * math.sqrt(model.bandwidth.det))
    out = np.zeros(pts.shape[0])
    step = max(1, _BLOCK_ELEMENTS // model.n)
    for lo in range(0, pts.shape[0], step):
        dx = pts[lo : lo + step, 0, None] - model.samples[None, :, 0]  # (m, N)
        dy = pts[lo : lo + step, 1, None] - model.samples[None, :, 1]
        quad = _quadratic(dx, dy, inv[0, 0], inv[0, 1], inv[1, 1])
        out[lo : lo + step] = np.exp(-0.5 * quad).sum(axis=1)
    return out * (norm / model.n)


def default_bounds(model: DensityModel) -> tuple[float, float, float, float]:
    """Sample hull padded by ``BOUNDS_MARGIN_SD`` marginal bandwidth standard deviations."""
    sd = model.bandwidth.marginal_sd
    lo = model.samples.min(axis=0) - BOUNDS_MARGIN_SD * sd
    hi = model.samples.max(axis=0) + BOUNDS_MARGIN_SD * sd
    return float(lo[0]), float(hi[0]), float(lo[1]), float(hi[1])


def evaluate_grid(
    model: DensityModel,
    bounds: tuple[float, float, float, float] | None = None,
    resolution: tuple[int, int] = GRID_RESOLUTION,
) -> DensityGrid:
    """Evaluate the KDE at the cell centres of a regular grid.

    Each tile sums the samples whose kernel reaches above e^-145 of its peak
    somewhere on the tile (``_box_min_quadratic``); every sample left out
    contributes less than that at every cell of the tile. The kept samples'
    kernels are factorised as exp(-q/2) = exp(-G/2) * w_i * F_i(u) * H_i(v),
    which is algebraically identical to the direct sum and lets the
    accumulation over samples run as matrix products, one per fixed-size
    block of kept samples, added into the tile in sample order. Tiles are
    sized so no factor overflows; a factor can underflow only for a
    contribution below e^-145 of the kernel peak, the level the selection
    drops, so every contribution above that level is summed.
    """
    n_rho, n_f = resolution
    if n_rho < MIN_GRID_RESOLUTION or n_f < MIN_GRID_RESOLUTION:
        raise ValueError(f"resolution {resolution} below the {MIN_GRID_RESOLUTION}x{MIN_GRID_RESOLUTION} floor")
    if bounds is None:
        bounds = default_bounds(model)
    rho_min, rho_max, f_min, f_max = (float(b) for b in bounds)
    if rho_min >= rho_max or f_min >= f_max:
        raise ValueError(f"inverted bounds {bounds}")
    lo = model.samples.min(axis=0)
    hi = model.samples.max(axis=0)
    if rho_min > lo[0] or rho_max < hi[0] or f_min > lo[1] or f_max < hi[1]:
        warnings.warn("grid bounds do not cover all samples; mass will be truncated", stacklevel=2)

    x_centers = _cell_centers(rho_min, rho_max, n_rho)
    y_centers = _cell_centers(f_min, f_max, n_f)

    inv = model.bandwidth.inverse
    a, b, c = inv[0, 0], inv[0, 1], inv[1, 1]

    tiles_x, tiles_y = _tile_counts(rho_max - rho_min, f_max - f_min, n_rho, n_f, a, b, c)
    values = _grid_tiled(model, x_centers, y_centers, a, b, c, tiles_x, tiles_y)
    values *= 1.0 / (model.n * 2.0 * math.pi * math.sqrt(model.bandwidth.det))
    return DensityGrid(rho_min, rho_max, f_min, f_max, values)


def _tile_counts(width_x, width_y, n_x, n_y, a, b, c):
    """Smallest per-axis tile counts keeping the factorisation overflow-safe.

    The grid-only quadratic G(u, v) over a tile is bounded by
    a*hx^2 + 2|b|*hx*hy + c*hy^2, which respects anisotropic bandwidths. One-cell
    tiles have no grid term (h = 0), so the doubling always ends.
    """
    b = abs(b)
    tx = ty = 1
    while True:
        hx = 0.5 * width_x / tx if tx < n_x else 0.0
        hy = 0.5 * width_y / ty if ty < n_y else 0.0
        if a * hx * hx + 2.0 * b * hx * hy + c * hy * hy <= 2.0 * _MAX_TILE_LOG:
            return tx, ty
        if a * hx * hx >= c * hy * hy:
            tx = min(2 * tx, n_x)
        else:
            ty = min(2 * ty, n_y)


def _box_min_quadratic(sx, sy, x_lo, x_hi, y_lo, y_hi, a, b, c):
    """Each sample's minimum over the box [x_lo, x_hi] x [y_lo, y_hi] of
    q(d) = a*dx^2 + 2b*dx*dy + c*dy^2, with d = point - sample.

    At the minimiser d of the convex q over a box that excludes d = 0,
    d . grad q = q(d) > 0, so d_k * dq/dd_k > 0 on some axis k; the box's
    optimality conditions then put d_k at the bound nearest 0 on that axis. So
    the minimum is the smaller of the minima along dx = (the dx nearest 0) and
    along dy = (the dy nearest 0), each found by clamping the other coordinate's
    1-D minimiser to the box. A sample inside the box gets d = 0, exactly 0.
    """
    dx_lo, dx_hi = x_lo - sx, x_hi - sx
    dy_lo, dy_hi = y_lo - sy, y_hi - sy
    near_dx = np.clip(0.0, dx_lo, dx_hi)
    near_dy = np.clip(0.0, dy_lo, dy_hi)
    along_dx = _quadratic(near_dx, np.clip(near_dx * (-b / c), dy_lo, dy_hi), a, b, c)
    along_dy = _quadratic(np.clip(near_dy * (-b / a), dx_lo, dx_hi), near_dy, a, b, c)
    return np.minimum(along_dx, along_dy, out=along_dx)


def _quadratic(dx, dy, a, b, c):
    """a*dx^2 + 2b*dx*dy + c*dy^2, elementwise."""
    return dx * (a * dx + 2.0 * b * dy) + c * dy * dy


def _reached_tiles(model, x_centers, y_centers, x_edges, y_edges, a, b, c):
    """Each tile that some sample reaches, one at a time, as (x slice, y slice, ascending
    indices of the samples that reach it).

    A sample reaches a tile when the minimum of its kernel quadratic over the tile's box
    (``_box_min_quadratic``) is at most ``_TILE_REACH_Q``. That bounds |dx| by
    sqrt(_TILE_REACH_Q * H_xx), so only the samples whose x lies that near a column's
    x-range are tested for its tiles (the slack covers rounding in q), ``_REACH_BLOCK``
    at a time.
    """
    sx = model.samples[:, 0]
    sy = model.samples[:, 1]
    reach = math.sqrt(_TILE_REACH_Q * model.bandwidth.matrix[0, 0]) * (1.0 + 1e-6)
    order = np.argsort(sx, kind="stable")
    reaches = np.empty(sx.size, dtype=bool)
    for xi in range(x_edges.size - 1):
        xs = slice(x_edges[xi], x_edges[xi + 1])
        x_lo, x_hi = x_centers[xs][[0, -1]]
        lo, hi = np.searchsorted(sx, (x_lo - reach, x_hi + reach), sorter=order)
        near = order[lo:hi]
        for yi in range(y_edges.size - 1):
            ys = slice(y_edges[yi], y_edges[yi + 1])
            y_lo, y_hi = y_centers[ys][[0, -1]]
            for start in range(0, near.size, _REACH_BLOCK):
                block = near[start : start + _REACH_BLOCK]
                q_min = _box_min_quadratic(sx[block], sy[block], x_lo, x_hi, y_lo, y_hi, a, b, c)
                np.less_equal(q_min, _TILE_REACH_Q, out=reaches[start : start + block.size])
            kept = near[reaches[: near.size]]
            if kept.size:
                kept.sort()
                yield xs, ys, kept


def _grid_tiled(model, x_centers, y_centers, a, b, c, tiles_x, tiles_y):
    """The unnormalised grid sum: each reached tile sums its kept samples ``rows`` at a time
    into the tile, then applies the grid-only factor once."""
    sx = model.samples[:, 0]
    sy = model.samples[:, 1]
    n_x, n_y = x_centers.size, y_centers.size
    values = np.zeros((n_x, n_y))
    x_edges = np.linspace(0, n_x, tiles_x + 1).astype(int)
    y_edges = np.linspace(0, n_y, tiles_y + 1).astype(int)
    width_x, width_y = int(np.diff(x_edges).max()), int(np.diff(y_edges).max())
    rows = max(1, _BLOCK_ELEMENTS // (width_x + width_y))
    buf_x = np.empty((rows, width_x))
    buf_y = np.empty((rows, width_y))
    buf_tile = np.empty((width_x, width_y))
    for xs, ys, kept in _reached_tiles(model, x_centers, y_centers, x_edges, y_edges, a, b, c):
        tile_x, tile_y = x_centers[xs], y_centers[ys]
        cx = 0.5 * (tile_x[0] + tile_x[-1])
        cy = 0.5 * (tile_y[0] + tile_y[-1])
        u = tile_x - cx
        v = tile_y - cy
        hx = float(np.abs(u).max())
        hy = float(np.abs(v).max())
        tile = values[xs, ys]
        product = buf_tile[: u.size, : v.size]
        for lo in range(0, kept.size, rows):
            block = kept[lo : lo + rows]
            px = sx[block] - cx
            py = sy[block] - cy

            alpha = a * px + b * py
            beta = b * px + c * py
            s_i = a * px * px + 2.0 * b * px * py + c * py * py
            shift_x = hx * np.abs(alpha)
            shift_y = hy * np.abs(beta)
            w = np.exp(-0.5 * s_i + shift_x + shift_y)

            fx = buf_x[: block.size, : u.size]
            np.multiply(alpha[:, None], u[None, :], out=fx)
            fx -= shift_x[:, None]
            np.exp(fx, out=fx)
            fx *= w[:, None]
            fy = buf_y[: block.size, : v.size]
            np.multiply(beta[:, None], v[None, :], out=fy)
            fy -= shift_y[:, None]
            np.exp(fy, out=fy)

            np.matmul(fx.T, fy, out=product)
            tile += product
        g_uv = a * u[:, None] ** 2 + 2.0 * b * np.outer(u, v) + c * v[None, :] ** 2
        tile *= np.exp(-0.5 * g_uv)
    return values
