"""Detector scoring (DR / FAR / MTTD / PI), calibration, and paired tests.

Alarms, flags and labels reach a score as one interval type, ``Intervals``: a
pair of int64 arrays ``(start_us, end_us)`` of epoch microseconds, one entry
per interval (``intervals_us`` builds it from labels or flag rows).

Metric conventions: an event counts as detected when any flag interval
overlaps it, ends included; the false alarm rate counts flagged minutes
outside every label, per detector application (see ``applications``), where
an interval covers the minutes from the floor minute of its start to the
floor minute of its end (``covered_minutes``); detection lag is clamped at
zero for flags that predate the event.

Scoring takes many flag sets at once: ``score_flag_sets`` scores every set of
a batch against one set of labels, each flag tagged with its set, and
``score_detector`` is its one-set case. A calibration sweep detects the flags
of its whole grid in one batch (``baselines.snd_detect_grid``,
``baselines.mcmaster_detect_grid``, one ``detector.annotate`` for DFTB),
scores them in one call, and ``calibrate`` takes the argmin over the scores;
the result keeps the score of every grid point.

Wilcoxon p-values follow the convention most reference implementations use:
the exact signed-rank distribution when no zero differences were discarded
and no ranks are tied (up to 25 effective pairs), otherwise a normal
approximation with tie-corrected variance and continuity correction. The
sign test is always exact binomial.

The p-values need only numpy and the standard library. The t test's is the
regularised incomplete beta function, by its continued fraction; the Wilcoxon
normal approximation's is ``math.erfc``; the sign test's is an exact integer
sum of binomial coefficients, rounded once. The McMaster seed fit is an exact
vertex descent in numpy.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .baselines import McMasterParams, mcmaster_detect_grid, snd_detect_grid
from .ingest import US_PER_MINUTE, EventLabel, LinkSeries, _median, open_text, quantiles

EPS_DR = 1.01
EPS_FAR = 0.001

DFTB_THRESHOLD_GRID = tuple(round(0.05 * k, 2) for k in range(1, 41))  # 0.05 .. 2.00
SND_C_GRID = tuple(round(0.1 * k, 1) for k in range(0, 51))  # 0.0 .. 5.0
MCMASTER_SEED_QUANTILE = 0.05  # the flow quantile the McMaster lower bound is seeded at
MCMASTER_SEED_MAX_POINTS = 3000  # the seed fit strides a larger training set down to at most this many

_MAX_PIVOTS = 1000  # guards the vertex descent against cycling in floating point; seed fits take about 10
_DESCENT_TOL = 1e-12  # an edge descends when its slope per unit of sum(|u|) is below minus this
_ON_CURVE_ULPS = 32  # residuals within this many ulps of the terms' magnitude count as on the curve

_CF_MAX_TERMS = 1000  # the t test's fraction took at most 55 terms for 10 to 10^7 degrees of freedom
_CF_EPS = 1e-15  # it has converged when a term changes the fraction by less than this, relatively
_CF_TINY = 1e-300  # Lentz's method moves a zero denominator to this

Intervals = tuple[np.ndarray, np.ndarray]  # (start_us, end_us): int64 epoch microseconds
_NO_FLAG = np.iinfo(np.int64).max


class UndefinedMetricError(ValueError):
    """A metric has no defined value (no labels, no detections, ...)."""


class DegenerateTestError(ValueError):
    """A paired test cannot run (all differences zero, zero variance, ...)."""


class InsufficientPairsError(ValueError):
    """Too few effective pairs for the requested test."""


def intervals_us(rows: Iterable) -> Intervals:
    """The ``(start_us, end_us)`` pair of rows with ``start_us`` and ``end_us`` fields,
    such as event labels or flag rows."""
    us = np.array([(r.start_us, r.end_us) for r in rows], dtype=np.int64).reshape(-1, 2)
    return us[:, 0], us[:, 1]


def covered_minutes(start_us: np.ndarray, end_us: np.ndarray) -> np.ndarray:
    """The sorted distinct epoch minutes that intervals cover: each covers every minute
    from the floor minute of its start to the floor minute of its end."""
    first, last = start_us // US_PER_MINUTE, end_us // US_PER_MINUTE
    count = last - first + 1
    within = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    minutes = np.sort(np.repeat(first, count) + within)
    return minutes[np.diff(minutes, prepend=minutes[:1] - 1) != 0]


def applications(stream: LinkSeries, detector: str) -> int:
    """Minutes a detector is applied to: those with a speed for SND, those with a
    density for DFTB and McMaster."""
    if detector == "snd":
        return int(np.count_nonzero(~np.isnan(stream.speed)))
    if detector in ("dftb", "mcmaster"):
        return int(stream.usable.sum())
    raise ValueError(f"unknown detector {detector!r}")


def _unlabelled_minutes(flags: Intervals, owner: np.ndarray, n_sets: int, labelled: np.ndarray) -> np.ndarray:
    """For each of ``n_sets`` flag sets, the number of distinct minutes its flags cover
    (the rule of ``covered_minutes``) that are not in the sorted minutes ``labelled``.

    Each set's intervals are merged into disjoint pieces of whole minutes, so the count
    takes one search per piece, not one entry per covered minute. The sets are merged
    together, each offset into its own range of keys.
    """
    first, last = flags[0] // US_PER_MINUTE, flags[1] // US_PER_MINUTE
    counts = np.zeros(n_sets, dtype=np.int64)
    if not first.size:
        return counts
    base = first.min()
    span = last.max() - base + 1
    lo = owner * span + (first - base)
    order = np.argsort(lo, kind="stable")
    lo, reach = lo[order], np.maximum.accumulate((owner * span + (last - base))[order])
    # a piece opens at an interval that starts after every earlier interval of its set ends
    opens = np.flatnonzero(np.r_[True, lo[1:] > reach[:-1]])
    owner_of = lo[opens] // span
    start = lo[opens] - owner_of * span + base
    stop = reach[np.r_[opens[1:] - 1, lo.size - 1]] - owner_of * span + base
    inside = np.searchsorted(labelled, stop, side="right") - np.searchsorted(labelled, start, side="left")
    np.add.at(counts, owner_of, stop - start + 1 - inside)
    return counts


def performance_index(dr: float, far: float, mttd: float) -> float:
    """(1.01 - DR/100) * (FAR/100 + 0.001) * MTTD."""
    return (EPS_DR - dr / 100.0) * (far / 100.0 + EPS_FAR) * mttd


@dataclass(frozen=True)
class DetectorScore:
    dr: float
    far: float
    mttd: float | None

    @property
    def pi(self) -> float | None:
        if self.mttd is None:
            return None
        return performance_index(self.dr, self.far, self.mttd)


def score_detector(flags: Intervals, labels: Intervals, n_applications: int) -> DetectorScore:
    """DR, FAR and MTTD of flag intervals against label intervals: the one-set case of
    ``score_flag_sets``."""
    return score_flag_sets(flags, np.zeros(flags[0].size, dtype=np.intp), 1, labels, n_applications)[0]


def score_flag_sets(
    flags: Intervals, owner: np.ndarray, n_sets: int, labels: Intervals, n_applications: int
) -> list[DetectorScore]:
    """DR, FAR and MTTD of each of ``n_sets`` flag sets against one set of labels, where
    flag k belongs to set ``owner[k]``. Flags may come in any order and may overlap.

    A label's lag is the minutes from its start to the start of the earliest flag
    of the set that overlaps it, clamped at 0; MTTD, their mean, is None when no
    label is detected. DR and MTTD come from one labels x flags overlap over every
    set, and the labels' covered minutes are found once.
    """
    label_start, label_end = labels
    if not label_start.size:
        raise UndefinedMetricError("detection rate undefined with zero labels")
    if n_applications <= 0:
        raise UndefinedMetricError("false alarm rate undefined with zero applications")
    start_us, end_us = flags
    label, flag = np.nonzero((start_us <= label_end[:, None]) & (end_us >= label_start[:, None]))
    detected = np.zeros((label_start.size, n_sets), dtype=bool)
    detected[label, owner[flag]] = True
    first_us = np.where(detected, _NO_FLAG, label_start[:, None])  # labels x sets; undetected lag 0
    np.minimum.at(first_us, (label, owner[flag]), start_us[flag])
    # to seconds, then minutes: both divisions round as timedelta.total_seconds() / 60.0 does
    lags = np.maximum(first_us - label_start[:, None], 0) / 1e6 / 60.0
    unlabelled = _unlabelled_minutes(flags, owner, n_sets, covered_minutes(*labels))
    scores = []
    detections = detected.sum(axis=0).tolist()
    for hits, minutes, set_lags, set_detected in zip(detections, unlabelled.tolist(), lags.T, detected.T):
        lag = set_lags[set_detected]
        mttd = float(np.mean(lag)) if lag.size else None
        scores.append(DetectorScore(100.0 * hits / label_start.size, 100.0 * minutes / n_applications, mttd))
    return scores


@dataclass(frozen=True)
class CalibrationResult:
    parameter: object
    score: DetectorScore
    sweep: tuple = ()  # (stage, parameter, score) of every grid point scored, in grid order


def calibrate(parameters: Sequence, scores: Sequence[DetectorScore], stage: str = "") -> CalibrationResult:
    """Exhaustive grid argmin of PI over the score of every grid point.

    Ties break toward higher DR, then lower FAR, then the smaller parameter
    (grid order decides when parameters are not comparable). Grid points with
    undefined PI are skipped; if every point is undefined, that is an error.
    ``stage`` names the grid in the result's sweep.
    """
    if not parameters:
        raise ValueError("empty parameter grid")
    best: tuple | None = None
    for order, (param, s) in enumerate(zip(parameters, scores, strict=True)):
        pi = s.pi
        if pi is None:
            continue
        key = (pi, -s.dr, s.far, order)
        if best is None or key < best[0]:
            best = (key, param, s)
    if best is None:
        raise UndefinedMetricError("no grid point produced a defined performance index")
    return CalibrationResult(best[1], best[2], tuple((stage, p, s) for p, s in zip(parameters, scores)))


# --- paired statistical tests ------------------------------------------------------


@dataclass(frozen=True)
class PairedTestResult:
    test: str
    statistic: float
    p_value: float
    n_effective: int
    method: str = "exact"


def _differences(pairs: Sequence[tuple[float, float]]) -> np.ndarray:
    if len(pairs) == 0:
        raise InsufficientPairsError("no pairs to test")
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be (first, second) tuples")
    return arr[:, 1] - arr[:, 0]


def paired_t_test(pairs: Sequence[tuple[float, float]]) -> PairedTestResult:
    """Two-sided paired t test on second - first differences."""
    d = _differences(pairs)
    n = d.size
    if n < 2:
        raise InsufficientPairsError("paired t test needs at least 2 pairs")
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise DegenerateTestError("differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(n))
    return PairedTestResult("paired_t", t, _t_two_sided_p(t, n - 1), n)


def _t_two_sided_p(t: float, nu: int) -> float:
    """P(|T| >= |t|) for Student's t with ``nu`` degrees of freedom: the regularised
    incomplete beta I_x(nu/2, 1/2) at x = nu / (nu + t^2).

    1 - x is taken as t^2 / (nu + t^2), not by subtraction, and x^(nu/2) as
    exp(-nu/2 log1p(t^2 / nu)), which keeps its relative accuracy for x near 1.
    B(nu/2, 1/2) comes from its recurrence B(a + 1, 1/2) = B(a, 1/2) a / (a + 1/2),
    starting from B(1/2, 1/2) = pi or B(1, 1/2) = 2.
    """
    if t == 0.0:
        return 1.0
    t2 = t * t
    x, y = nu / (nu + t2), t2 / (nu + t2)
    a = nu / 2
    start, beta = (0.5, math.pi) if nu % 2 else (1.0, 2.0)
    for k in range((nu - 1) // 2):
        beta *= (start + k) / (start + k + 0.5)
    front = math.exp(-a * math.log1p(t2 / nu)) * math.sqrt(y) / beta
    # the continued fraction converges fast below (a + 1) / (a + b + 2); above it, use
    # I_x(a, b) = 1 - I_(1-x)(b, a)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_continued_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_continued_fraction(0.5, a, y) / 0.5


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) / (x^a (1 - x)^b / (a B(a, b))), by Lentz's
    method (Numerical Recipes' ``betacf``)."""

    def nonzero(v):
        return v if abs(v) >= _CF_TINY else _CF_TINY

    c, d = 1.0, 1.0 / nonzero(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 / nonzero(1.0 + aa * d)
            c = nonzero(1.0 + aa / c)
            h *= d * c
        if abs(d * c - 1.0) < _CF_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge in {_CF_MAX_TERMS} terms")


def wilcoxon_signed_rank(pairs: Sequence[tuple[float, float]]) -> PairedTestResult:
    """Two-sided Wilcoxon signed-rank test; zero differences are discarded.

    The statistic is the signed rank sum W = sum(sign(d_i) * R_i). Ties in
    |d| get average ranks. See the module docstring for when the exact
    distribution is used instead of the corrected normal approximation.
    """
    d = _differences(pairs)
    nonzero = d[d != 0.0]
    had_zeros = nonzero.size != d.size
    n = nonzero.size
    if n == 0:
        raise DegenerateTestError("all differences are zero")
    if n < 6:
        raise InsufficientPairsError(f"need at least 6 nonzero pairs, got {n}")
    ranks, counts = _average_ranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w = float(np.sum(np.sign(nonzero) * ranks))
    has_ties = counts.size != n

    if n <= 25 and not had_zeros and not has_ties:
        p = _exact_signed_rank_p(int(round(w_plus)), n)
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        tie_term = float(np.sum(counts**3 - counts)) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        if var <= 0:
            raise DegenerateTestError("zero variance after tie correction")
        z = (w_plus - mean - 0.5 * np.sign(w_plus - mean)) / math.sqrt(var)
        p = 2.0 * _normal_sf(abs(z))
        method = "normal_approx"
    return PairedTestResult("wilcoxon_signed_rank", w, min(p, 1.0), n, method)


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 1-based ranks of ``values``, tied values sharing the mean of their ranks, and
    the size of each run of tied values in ascending order."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[first, values.size])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks, counts


def _normal_sf(z: float) -> float:
    """P(Z > z) for a standard normal Z."""
    return 0.5 * math.erfc(z / math.sqrt(2))


def _exact_signed_rank_p(w_plus: int, n: int) -> float:
    """Two-sided p from the exact null distribution of the positive rank sum."""
    max_sum = n * (n + 1) // 2
    counts = np.zeros(max_sum + 1, dtype=float)
    counts[0] = 1.0
    for rank in range(1, n + 1):
        counts[rank:] += counts[:-rank].copy()
    total = counts.sum()
    cdf_low = counts[: w_plus + 1].sum() / total
    cdf_high = counts[w_plus:].sum() / total
    return min(1.0, 2.0 * min(cdf_low, cdf_high))


def sign_test(pairs: Sequence[tuple[float, float]]) -> PairedTestResult:
    """Exact two-sided binomial sign test; tied pairs are dropped."""
    d = _differences(pairs)
    nonzero = d[d != 0.0]
    n = nonzero.size
    if n == 0:
        raise DegenerateTestError("all pairs are tied")
    s = int((nonzero > 0).sum())
    p = min(1.0, 2.0 * min(_binomial_tails(s, n)))
    return PairedTestResult("sign", float(s), p, n)


def _binomial_tails(s: int, n: int) -> tuple[float, float]:
    """P(X <= s) and P(X >= s) for X ~ Binomial(n, 1/2): integer sums of binomial
    coefficients, each divided once by 2^n and so correctly rounded."""
    low = sum(math.comb(n, k) for k in range(s + 1))
    return low / 2**n, (2**n - low + math.comb(n, s)) / 2**n


# --- aggregation -------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateStats:
    mean: float
    median: float
    std: float
    iqr: float


def summarize(values: Sequence[float]) -> AggregateStats:
    """Mean, median, sample std dev, and linear-interpolation IQR."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        raise ValueError("need at least 2 links to aggregate")
    q25, q75 = quantiles(arr, (0.25, 0.75))
    return AggregateStats(float(arr.mean()), _median(arr.copy()), float(arr.std(ddof=1)), float(q75 - q25))


# --- embedded reference fixture ------------------------------------------------------

FIXTURE_METRICS = ("snd_dr", "dftb_dr", "snd_far", "dftb_far", "snd_mttd", "dftb_mttd")


@dataclass(frozen=True)
class FixtureRow:
    location: str
    length_km: float
    snd_dr: float
    dftb_dr: float
    snd_far: float
    dftb_far: float
    snd_mttd: float
    dftb_mttd: float


def load_table1() -> list[FixtureRow]:
    """The embedded 17-link reference benchmark (per-link DR/FAR/MTTD pairs)."""
    import importlib.resources

    text = importlib.resources.files("flowsentry.data").joinpath("table1.csv").read_text(encoding="utf-8")
    reader = csv.DictReader(text.splitlines())
    rows = []
    for rec in reader:
        rows.append(
            FixtureRow(
                rec["location"],
                float(rec["length_km"]),
                *(float(rec[m]) for m in FIXTURE_METRICS),
            )
        )
    return rows


def fixture_report(rows: Sequence[FixtureRow]) -> dict:
    """Aggregates, paired differences, and both nonparametric tests per metric."""
    columns = {m: [getattr(r, m) for r in rows] for m in FIXTURE_METRICS}
    aggregates = {m: summarize(v) for m, v in columns.items()}
    report: dict = {"aggregates": aggregates, "differences": {}, "tests": {}}
    for metric in ("dr", "far", "mttd"):
        pairs = list(zip(columns[f"snd_{metric}"], columns[f"dftb_{metric}"]))
        diffs = _differences(pairs)
        report["differences"][metric] = {
            "mean": float(diffs.mean()),
            "median": _median(diffs.copy()),
        }
        report["tests"][metric] = {
            "wilcoxon_signed_rank": wilcoxon_signed_rank(pairs),
            "sign": sign_test(pairs),
        }
    return report


def write_report_csv(rows: Sequence[FixtureRow], aggregates: dict[str, AggregateStats], sink) -> None:
    """Per-link metric table plus the four aggregate footer rows of ``aggregates``,
    ``fixture_report``'s aggregates of ``rows``."""
    with open_text(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["location", "length_km", *FIXTURE_METRICS])
        for r in rows:
            writer.writerow([r.location, r.length_km, *(getattr(r, m) for m in FIXTURE_METRICS)])
        for stat in ("mean", "median", "std", "iqr"):
            writer.writerow([stat, "", *(round(getattr(aggregates[m], stat), 3) for m in FIXTURE_METRICS)])


# --- McMaster calibration grid -------------------------------------------------------


def quantile_regression_quadratic(density: np.ndarray, flow: np.ndarray) -> tuple[float, float, float]:
    """``MCMASTER_SEED_QUANTILE`` quantile regression of flow on (1, rho, rho^2) (Koenker & Bassett 1978).

    Returns the coefficients (a, b, c) of the curve a + b rho + c rho^2 that minimises
    sum(rho_tau(flow - curve)), found exactly by vertex descent (Barrodale & Roberts 1973):
    a vertex is a curve through 3 points of distinct density, and each pivot moves along
    the steepest descending edge to the weighted median of its kinks, where the next
    point enters. The descent stops at a vertex from which no edge descends, which is the
    optimality condition. A training set larger than ``MCMASTER_SEED_MAX_POINTS`` is
    strided down to at most that many points first.

    Raises RuntimeError when fewer than 3 distinct densities are given, or when the
    descent has not converged within ``_MAX_PIVOTS`` pivots.
    """
    n = density.size
    if n > MCMASTER_SEED_MAX_POINTS:  # deterministic stride subsample
        step = n // MCMASTER_SEED_MAX_POINTS + 1
        density = density[::step]
        flow = flow[::step]
    tau = MCMASTER_SEED_QUANTILE
    basis = _start_basis(density)
    for _ in range(_MAX_PIVOTS + 1):  # up to _MAX_PIVOTS pivots, each followed by an optimality check
        p, q = density[basis], flow[basis]
        terms = [q[j] * _lagrange(density, p, j) for j in range(3)]
        residual = flow - (terms[0] + terms[1] + terms[2])  # exactly 0 on the basis and its duplicates
        scale = np.abs(flow) + np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
        on_curve = np.abs(residual) <= _ON_CURVE_ULPS * np.finfo(float).eps * scale
        edge = _steepest_edge(density, residual, on_curve, tau)
        if edge is None:
            return _monomial(p, q)
        keep, direction, slope = edge
        basis = [*keep, _entering_point(residual, on_curve, direction, slope)]
    raise RuntimeError(f"quantile regression did not converge within {_MAX_PIVOTS} pivots")


def _start_basis(density: np.ndarray) -> list[int]:
    """The lowest and highest density points and the inner point nearest their midrange."""
    lo, hi = int(np.argmin(density)), int(np.argmax(density))
    inner = np.flatnonzero((density > density[lo]) & (density < density[hi]))
    if not inner.size:
        raise RuntimeError("quantile regression needs at least 3 distinct densities")
    mid = inner[np.argmin(np.abs(density[inner] - 0.5 * (density[lo] + density[hi])))]
    return [lo, int(mid), hi]


def _lagrange(density: np.ndarray, p: np.ndarray, j: int) -> np.ndarray:
    """The quadratic through 1 at ``p[j]`` and 0 at the other two basis densities."""
    k, m = (j + 1) % 3, (j + 2) % 3
    return ((density - p[k]) / (p[j] - p[k])) * ((density - p[m]) / (p[j] - p[m]))


def _monomial(p: np.ndarray, q: np.ndarray) -> tuple[float, float, float]:
    """(a, b, c) of the quadratic through the 3 points (p, q): the 3x3 Vandermonde system
    solved in closed form, each point weighted by q_j / prod_k (p_j - p_k)."""
    a = b = c = 0.0
    for j in range(3):
        k, m = (j + 1) % 3, (j + 2) % 3
        w = q[j] / ((p[j] - p[k]) * (p[j] - p[m]))
        a += w * (p[k] * p[m])
        b -= w * (p[k] + p[m])
        c += w
    return float(a), float(b), float(c)


def _steepest_edge(density, residual, on_curve, tau):
    """The edge of the current vertex with the most negative directional derivative of the
    objective per unit of sum(|change in fitted flow|), or None when none descends.

    An edge keeps 2 on-curve points of distinct density on the curve, so the fitted flow
    changes by t * u with u = (rho - rho_a)(rho - rho_b). On data in general position the
    curve holds 3 distinct densities and the vertex has 6 edges; when more points lie on
    it, every pair of them spans an edge, and no descending edge is still the optimality
    condition. Returns the kept pair, the direction u and its slope.
    """
    on = np.flatnonzero(on_curve)
    _, first = np.unique(density[on], return_index=True)
    weight = np.where(residual > 0, -tau, 1.0 - tau)  # d rho_tau(r - t u)/dt = weight * u off the curve
    weight[on_curve] = 0.0
    best = None
    for a, b in combinations(on[first].tolist(), 2):
        u = (density - density[a]) * (density - density[b])
        linear = np.sum(weight * u)
        u_on = u[on_curve]
        norm = np.sum(np.abs(u))
        for direction, slope in (
            (u, linear + np.sum(np.maximum((1.0 - tau) * u_on, -tau * u_on))),
            (-u, -linear + np.sum(np.maximum(-(1.0 - tau) * u_on, tau * u_on))),
        ):
            if slope < -_DESCENT_TOL * norm and (best is None or slope / norm < best[0]):
                best = (slope / norm, (a, b), direction, slope)
    return None if best is None else best[1:]


def _entering_point(residual, on_curve, direction, slope) -> int:
    """The exact line search along an edge: the objective's slope rises by |u_i| as the
    step passes each kink r_i / u_i ahead, and the point where it turns non-negative
    (the weighted median of the kinks) enters the basis."""
    ahead = np.flatnonzero(~on_curve & (residual * direction > 0))
    order = np.argsort(residual[ahead] / direction[ahead], kind="stable")
    reached = np.flatnonzero(slope + np.cumsum(np.abs(direction[ahead[order]])) >= 0)
    if not reached.size:
        raise RuntimeError("quantile regression line search found no minimum")
    return int(ahead[order[reached[0]]])


# --- detector-family calibration -----------------------------------------------------


def dftb_score_fn(stream: LinkSeries, region, labels: Sequence[EventLabel]):
    """Score function over a grid of severity thresholds: the stream's excursions are
    found once, and every threshold's flags come from them."""
    from .detector import annotate

    found = annotate(stream, region)
    end_us = found.at_us[found.last]
    label_us = intervals_us(labels)
    n_applications = applications(stream, "dftb")

    def score(thresholds: Sequence[float]) -> list[DetectorScore]:
        point, flagged, onset = found.onsets(thresholds)
        return score_flag_sets((found.at_us[onset], end_us[flagged]), point, len(thresholds), label_us, n_applications)

    return score


def calibrate_dftb(stream: LinkSeries, region, labels: Sequence[EventLabel]) -> CalibrationResult:
    """Sweep of ``DFTB_THRESHOLD_GRID`` severity thresholds minimising PI against the training labels."""
    return calibrate(DFTB_THRESHOLD_GRID, dftb_score_fn(stream, region, labels)(DFTB_THRESHOLD_GRID))


def snd_score_fn(stream: LinkSeries, profile, labels: Sequence[EventLabel]):
    """Score function over a grid of SND multipliers c."""
    label_us = intervals_us(labels)
    n_applications = applications(stream, "snd")

    def score(cs: Sequence[float]) -> list[DetectorScore]:
        start_us, end_us, point = snd_detect_grid(stream, profile, cs)
        return score_flag_sets((start_us, end_us), point, len(cs), label_us, n_applications)

    return score


def calibrate_snd(stream: LinkSeries, profile, labels: Sequence[EventLabel]) -> CalibrationResult:
    """Sweep of the robust threshold multiplier c over ``SND_C_GRID`` minimising PI."""
    return calibrate(SND_C_GRID, snd_score_fn(stream, profile, labels)(SND_C_GRID))


def mcmaster_score_fn(stream: LinkSeries, labels: Sequence[EventLabel]):
    """Score function over a grid of ``McMasterParams``."""
    label_us = intervals_us(labels)
    n_applications = applications(stream, "mcmaster")

    def score(grid: Sequence[McMasterParams]) -> list[DetectorScore]:
        start_us, end_us, point = mcmaster_detect_grid(stream, grid)
        return score_flag_sets((start_us, end_us), point, len(grid), label_us, n_applications)

    return score


def calibrate_mcmaster(stream: LinkSeries, labels: Sequence[EventLabel]) -> CalibrationResult:
    """Coarse-to-fine PI minimisation over the 5 segmentation parameters; the sweep holds
    the coarse grid's points, then the fine grid's."""
    score = mcmaster_score_fn(stream, labels)
    grid = _mcmaster_grid(stream, intervals_us(labels))
    coarse = calibrate(grid, score(grid), "coarse")
    seed: McMasterParams = coarse.parameter
    fine = [seed]
    for rho_scale in (0.9, 1.0, 1.1):
        for f_scale in (0.9, 1.0, 1.1):
            for lud_scale in (0.9, 1.0, 1.1):
                curve = (seed.a, seed.b, seed.c)
                fine.append(_scaled_bound(curve, lud_scale, seed.rho_crit * rho_scale, seed.f_crit * f_scale))
    result = calibrate(fine, score(fine), "fine")
    return CalibrationResult(result.parameter, result.score, coarse.sweep + result.sweep)


def mcmaster_parameter_grid(samples, labels: Sequence[EventLabel]) -> list[McMasterParams]:
    """Coarse grid around a quantile-regression seed of the lower uncongested bound.

    Uncongested training data is every usable minute outside the labels; the
    seed quadratic is its 5th-percentile flow curve, and the grid perturbs
    the curve multiplicatively while sweeping the critical density and flow
    over empirical quantiles.
    """
    return _mcmaster_grid(LinkSeries.from_samples(samples), intervals_us(labels))


def _mcmaster_grid(stream: LinkSeries, label_us: Intervals) -> list[McMasterParams]:
    stream.require_minute_cadence()
    usable = stream.usable
    free = usable & ~np.isin(stream.minutes, covered_minutes(*label_us))
    if np.count_nonzero(free) < 100:
        raise ValueError("not enough uncongested training data for a seed fit")
    rho = stream.density[free]
    flow = stream.flow[free]
    fit_mask = rho <= quantiles(rho, [0.98])[0]
    curve = quantile_regression_quadratic(rho[fit_mask], flow[fit_mask])
    f_crits = quantiles(stream.flow[usable], (0.3, 0.5, 0.7)).tolist()
    return [
        _scaled_bound(curve, scale, rho_crit, f_crit)
        for rho_crit in quantiles(stream.density[usable], (0.90, 0.95, 0.99)).tolist()
        for f_crit in f_crits
        for scale in (0.6, 0.8, 1.0, 1.2)
    ]


def _scaled_bound(curve: tuple[float, float, float], scale: float, rho_crit: float, f_crit: float) -> McMasterParams:
    """The lower uncongested bound a + b rho + c rho^2 of ``curve`` (a, b, c) scaled by
    ``scale``, with ``rho_crit`` and ``f_crit``. The slope b is floored at 0 and c raised
    where needed so that b + 2 c rho_crit >= 0: the bound is nondecreasing up to rho_crit."""
    a, b, c = (scale * term for term in curve)
    b = max(b, 0.0)
    if b + 2.0 * c * rho_crit < 0:
        c = -b / (2.0 * rho_crit)
        while -math.inf < b + 2.0 * c * rho_crit < 0:  # c rounded low; McMasterParams rejects an overflow
            c = math.nextafter(c, math.inf)
    return McMasterParams(a, b, c, rho_crit, f_crit)
