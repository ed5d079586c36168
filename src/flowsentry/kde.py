"""Bivariate Gaussian kernel density estimation of the density-flow distribution.

The estimate at x is the mean of Gaussian kernels centred on the samples,
with a single positive-definite 2x2 bandwidth matrix shared by all kernels.
Grid evaluation sums over every sample exactly (no tree or FFT
approximation); it is organised as a per-tile rank-1 factorisation so the
bulk of the arithmetic runs through matrix products, which keeps a 10^5
sample x 512^2 grid fit to a few seconds.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

GAUSS_KERNEL_ROUGHNESS = 1.0 / (2.0 * math.sqrt(math.pi))  # integral of k^2 for the standard normal
GAUSS_KERNEL_SECOND_MOMENT = 1.0

# exp underflow guard: a tile may scale per-sample weights up to e^MAX_TILE_LOG,
# so tile half-diagonals are chosen to keep every factor finite in float64.
_MAX_TILE_LOG = 600.0

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
    """Symmetric positive-definite 2x2 bandwidth (squared length scales)."""

    matrix: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False, compare=False)
    inverse: np.ndarray = field(init=False, repr=False, compare=False)
    det: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"bandwidth matrix must be 2x2, got {m.shape}")
        if not np.allclose(m, m.T, rtol=1e-12, atol=0.0):
            raise ValueError("bandwidth matrix must be symmetric")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            raise ValueError("bandwidth matrix must be positive definite") from None
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "cholesky", chol)
        object.__setattr__(self, "inverse", np.linalg.inv(m))
        object.__setattr__(self, "det", float(np.linalg.det(m)))

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
    def resolution(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def cell_size(self) -> tuple[float, float]:
        n_rho, n_f = self.values.shape
        return (self.rho_max - self.rho_min) / n_rho, (self.f_max - self.f_min) / n_f

    @property
    def rho_centers(self) -> np.ndarray:
        d_rho, _ = self.cell_size
        return self.rho_min + (np.arange(self.values.shape[0]) + 0.5) * d_rho

    @property
    def f_centers(self) -> np.ndarray:
        _, d_f = self.cell_size
        return self.f_min + (np.arange(self.values.shape[1]) + 0.5) * d_f

    def integral(self) -> float:
        """Trapezoidal integral of the grid over its bounds."""
        inner = np.trapezoid(self.values, self.f_centers, axis=1)
        return float(np.trapezoid(inner, self.rho_centers))

    def to_json(self) -> str:
        payload = {
            "bounds": [self.rho_min, self.rho_max, self.f_min, self.f_max],
            "resolution": list(self.values.shape),
            "values": self.values.ravel().tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "DensityGrid":
        payload = json.loads(text)
        n_rho, n_f = payload["resolution"]
        values = np.array(payload["values"], dtype=float).reshape(n_rho, n_f)
        rho_min, rho_max, f_min, f_max = payload["bounds"]
        return cls(rho_min, rho_max, f_min, f_max, values)


def normal_reference_scale(std: float, n: int) -> float:
    """Univariate Gaussian-reference bandwidth (4/3)^(1/5) * s * n^(-1/5)."""
    return (4.0 / 3.0) ** 0.2 * std * n ** -0.2


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
    cov = np.cov(pts, rowvar=False)
    if not np.all(np.isfinite(cov)) or np.linalg.det(cov) <= 0:
        raise DegenerateDataError("sample covariance is singular")
    if method == "normal_reference":
        return BandwidthMatrix(n ** (-1.0 / 3.0) * cov)
    if method == "plug_in":
        return _plug_in_bandwidth(pts, cov)
    raise ValueError(f"unknown bandwidth method {method!r}")


def _sym_sqrt(matrix: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matrix)
    if np.any(vals <= 0):
        raise DegenerateDataError("sample covariance is singular")
    return (vecs * np.sqrt(vals)) @ vecs.T


def _plug_in_bandwidth(pts: np.ndarray, cov: np.ndarray) -> BandwidthMatrix:
    root = _sym_sqrt(cov)
    sphered = np.linalg.solve(root, pts.T).T
    scales = [_univariate_two_stage_scale(sphered[:, k]) for k in range(2)]
    sigma = root @ np.diag(np.square(scales)) @ root
    return BandwidthMatrix(sigma)


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
    """Build a density model from the samples and a bandwidth (``BandwidthMatrix`` holds its Cholesky factor)."""
    pts = np.asarray(samples, dtype=float)
    if pts.size == 0:
        raise InsufficientDataError("no samples")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"samples must have shape (N, 2), got {pts.shape}")
    if not isinstance(bandwidth, BandwidthMatrix):
        bandwidth = BandwidthMatrix(bandwidth)
    return DensityModel(pts, bandwidth)


def evaluate(model: DensityModel, point) -> float:
    """Exact KDE value at one point: mean of the N kernel contributions."""
    return float(evaluate_many(model, np.asarray(point, dtype=float).reshape(1, 2))[0])


def evaluate_many(model: DensityModel, points) -> np.ndarray:
    """Exact KDE values at each row of ``points``, chunked over samples."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (M, 2)")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    chol = model.bandwidth.cholesky
    norm = 1.0 / (2.0 * math.pi * math.sqrt(model.bandwidth.det))
    out = np.zeros(pts.shape[0])
    step = max(1, 2**22 // max(model.n, 1))
    for lo in range(0, pts.shape[0], step):
        diff = pts[lo : lo + step, None, :] - model.samples[None, :, :]  # (m, N, 2)
        w = _solve_lower(chol, diff)
        quad = np.einsum("mnk,mnk->mn", w, w)
        out[lo : lo + step] = np.exp(-0.5 * quad).sum(axis=1)
    return out * (norm / model.n)


def _solve_lower(chol: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Apply L^-1 to the trailing axis of ``diff`` for lower-triangular 2x2 L."""
    l00, l10, l11 = chol[0, 0], chol[1, 0], chol[1, 1]
    y0 = diff[..., 0] / l00
    y1 = (diff[..., 1] - l10 * y0) / l11
    return np.stack([y0, y1], axis=-1)


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

    The summation over samples is exact: the kernel is factorised per tile as
    exp(-q/2) = exp(-G/2) * w_i * F_i(u) * H_i(v), which is algebraically
    identical to the direct sum and lets the accumulation over samples run as
    one matrix product per tile. Tiles are sized so no factor overflows;
    factors that underflow correspond to contributions below e^-145 of the
    kernel peak and round to zero either way.
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

    d_rho = (rho_max - rho_min) / n_rho
    d_f = (f_max - f_min) / n_f
    x_centers = rho_min + (np.arange(n_rho) + 0.5) * d_rho
    y_centers = f_min + (np.arange(n_f) + 0.5) * d_f

    inv = model.bandwidth.inverse
    a, b, c = inv[0, 0], inv[0, 1], inv[1, 1]

    tiles_x, tiles_y = _tile_counts(rho_max - rho_min, f_max - f_min, n_rho, n_f, a, b, c)
    if tiles_x is None:
        cells = np.stack(np.meshgrid(x_centers, y_centers, indexing="ij"), axis=-1).reshape(-1, 2)
        values = evaluate_many(model, cells).reshape(n_rho, n_f)
    else:
        values = _grid_tiled(model, x_centers, y_centers, a, b, c, tiles_x, tiles_y)
        values *= 1.0 / (model.n * 2.0 * math.pi * math.sqrt(model.bandwidth.det))
        np.maximum(values, 0.0, out=values)
    return DensityGrid(rho_min, rho_max, f_min, f_max, values)


def _tile_counts(width_x, width_y, n_x, n_y, a, b, c):
    """Smallest per-axis tile counts keeping the factorisation overflow-safe.

    The grid-only quadratic G(u, v) over a tile is bounded by
    a*hx^2 + 2|b|*hx*hy + c*hy^2, which respects anisotropic bandwidths.
    """
    b = abs(b)
    tx = ty = 1
    while True:
        hx = 0.5 * width_x / tx
        hy = 0.5 * width_y / ty
        if a * hx * hx + 2.0 * b * hx * hy + c * hy * hy <= 2.0 * _MAX_TILE_LOG:
            return tx, ty
        if tx * 8 > n_x or ty * 8 > n_y:
            return None, None  # bandwidth tiny relative to the grid; go direct
        if a * hx * hx >= c * hy * hy:
            tx *= 2
        else:
            ty *= 2


def _grid_tiled(model, x_centers, y_centers, a, b, c, tiles_x, tiles_y):
    sx = model.samples[:, 0]
    sy = model.samples[:, 1]
    n = sx.size
    n_x, n_y = x_centers.size, y_centers.size
    values = np.empty((n_x, n_y))
    x_edges = np.linspace(0, n_x, tiles_x + 1).astype(int)
    y_edges = np.linspace(0, n_y, tiles_y + 1).astype(int)
    buf_x = np.empty((n, int(np.diff(x_edges).max())))
    buf_y = np.empty((n, int(np.diff(y_edges).max())))
    for xi in range(tiles_x):
        xs = x_centers[x_edges[xi] : x_edges[xi + 1]]
        cx = 0.5 * (xs[0] + xs[-1])
        u = xs - cx
        hx = float(np.abs(u).max())
        px = sx - cx
        for yi in range(tiles_y):
            ys = y_centers[y_edges[yi] : y_edges[yi + 1]]
            cy = 0.5 * (ys[0] + ys[-1])
            v = ys - cy
            hy = float(np.abs(v).max())
            py = sy - cy

            alpha = a * px + b * py
            beta = b * px + c * py
            s_i = a * px * px + 2.0 * b * px * py + c * py * py
            shift_x = hx * np.abs(alpha)
            shift_y = hy * np.abs(beta)
            w = np.exp(-0.5 * s_i + shift_x + shift_y)

            fx = buf_x[:, : u.size]
            np.multiply(alpha[:, None], u[None, :], out=fx)
            fx -= shift_x[:, None]
            np.exp(fx, out=fx)
            fx *= w[:, None]
            fy = buf_y[:, : v.size]
            np.multiply(beta[:, None], v[None, :], out=fy)
            fy -= shift_y[:, None]
            np.exp(fy, out=fy)

            tile = fx.T @ fy
            g_uv = a * u[:, None] ** 2 + 2.0 * b * np.outer(u, v) + c * v[None, :] ** 2
            tile *= np.exp(-0.5 * g_uv)
            values[x_edges[xi] : x_edges[xi + 1], y_edges[yi] : y_edges[yi + 1]] = tile
    return values
