"""Detector scoring (DR / FAR / MTTD / PI), calibration, and paired tests.

Metric conventions: an event counts as detected when any flag interval
overlaps it; the false alarm rate counts flagged minutes outside every label,
per detector application (see ``applications``); detection lag is clamped at
zero for flags that predate the event.

Wilcoxon p-values follow the convention most reference implementations use:
the exact signed-rank distribution when no zero differences were discarded
and no ranks are tied (up to 25 effective pairs), otherwise a normal
approximation with tie-corrected variance and continuity correction. The
sign test is always exact binomial.

scipy is imported inside the functions that use it, after their input
checks, so that a command which never reaches it does not pay for loading it.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Callable, Iterable, Sequence

import numpy as np

from .baselines import McMasterParams
from .ingest import EventLabel, LinkSeries, datetimes, open_text

EPS_DR = 1.01
EPS_FAR = 0.001

DFTB_THRESHOLD_GRID = tuple(round(0.05 * k, 2) for k in range(1, 41))  # 0.05 .. 2.00
SND_C_GRID = tuple(round(0.1 * k, 1) for k in range(0, 51))  # 0.0 .. 5.0
MCMASTER_SEED_QUANTILE = 0.05  # the flow quantile the McMaster lower bound is seeded at

Interval = tuple[datetime, datetime]


class UndefinedMetricError(ValueError):
    """A metric has no defined value (no labels, no detections, ...)."""


class DegenerateTestError(ValueError):
    """A paired test cannot run (all differences zero, zero variance, ...)."""


class InsufficientPairsError(ValueError):
    """Too few effective pairs for the requested test."""


def _minute(ts: datetime) -> int:
    return int(ts.timestamp() // 60)


def interval_minutes(intervals: Iterable[Interval]) -> set[int]:
    out: set[int] = set()
    for start, end in intervals:
        out.update(range(_minute(start), _minute(end) + 1))
    return out


def _detection_lags(flags: Sequence[Interval], labels: Sequence[EventLabel]) -> list[float | None]:
    """Minutes from each label's start to its first flagged minute (clamped at 0), or None when no flag overlaps it."""
    lags = []
    for lab in labels:
        starts = [f[0] for f in flags if f[0] <= lab.end and f[1] >= lab.start]
        lags.append((max(min(starts), lab.start) - lab.start).total_seconds() / 60.0 if starts else None)
    return lags


def _detection_rate(lags: list[float | None]) -> float:
    if not lags:
        raise UndefinedMetricError("detection rate undefined with zero labels")
    return 100.0 * sum(1 for lag in lags if lag is not None) / len(lags)


def _mean_time_to_detect(lags: list[float | None]) -> float:
    detected = [lag for lag in lags if lag is not None]
    if not detected:
        raise UndefinedMetricError("mean time to detect undefined with zero detected events")
    return float(np.mean(detected))


def applications(stream: LinkSeries, detector: str) -> int:
    """Minutes a detector is applied to: those with a speed for SND, those with a
    density for DFTB and McMaster."""
    if detector == "snd":
        return int(np.count_nonzero(~np.isnan(stream.speed)))
    if detector in ("dftb", "mcmaster"):
        return int(stream.usable.sum())
    raise ValueError(f"unknown detector {detector!r}")


def false_alarm_rate(flags: Sequence[Interval], labels: Sequence[EventLabel], n_applications: int) -> float:
    """Percent of applications whose flagged minute overlaps no label."""
    if n_applications <= 0:
        raise UndefinedMetricError("false alarm rate undefined with zero applications")
    flagged = interval_minutes(flags)
    labelled = interval_minutes([(lab.start, lab.end) for lab in labels])
    return 100.0 * len(flagged - labelled) / n_applications


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


def score_detector(flags: Sequence[Interval], labels: Sequence[EventLabel], n_applications: int) -> DetectorScore:
    lags = _detection_lags(flags, labels)
    dr = _detection_rate(lags)
    far = false_alarm_rate(flags, labels, n_applications)
    try:
        mttd = _mean_time_to_detect(lags)
    except UndefinedMetricError:
        mttd = None
    return DetectorScore(dr, far, mttd)


@dataclass(frozen=True)
class CalibrationResult:
    parameter: object
    score: DetectorScore


def calibrate(parameters: Sequence, score_fn: Callable[[object], DetectorScore]) -> CalibrationResult:
    """Exhaustive grid argmin of PI.

    Ties break toward higher DR, then lower FAR, then the smaller parameter
    (grid order decides when parameters are not comparable). Grid points with
    undefined PI are skipped; if every point is undefined, that is an error.
    """
    if not parameters:
        raise ValueError("empty parameter grid")
    best: tuple | None = None
    for order, param in enumerate(parameters):
        s = score_fn(param)
        pi = s.pi
        if pi is None:
            continue
        key = (pi, -s.dr, s.far, order)
        if best is None or key < best[0]:
            best = (key, param, s)
    if best is None:
        raise UndefinedMetricError("no grid point produced a defined performance index")
    return CalibrationResult(best[1], best[2])


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
    from scipy.stats import t as student_t

    t = float(d.mean()) / (sd / math.sqrt(n))
    p = 2.0 * float(student_t.sf(abs(t), n - 1))
    return PairedTestResult("paired_t", t, min(p, 1.0), n)


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
    from scipy.stats import norm, rankdata

    ranks = rankdata(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w = float(np.sum(np.sign(nonzero) * ranks))
    has_ties = np.unique(np.abs(nonzero)).size != n

    if n <= 25 and not had_zeros and not has_ties:
        p = _exact_signed_rank_p(int(round(w_plus)), n)
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        _, counts = np.unique(ranks, return_counts=True)
        tie_term = float(np.sum(counts**3 - counts)) / 48.0
        var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term
        if var <= 0:
            raise DegenerateTestError("zero variance after tie correction")
        z = (w_plus - mean - 0.5 * np.sign(w_plus - mean)) / math.sqrt(var)
        p = 2.0 * float(norm.sf(abs(z)))
        method = "normal_approx"
    return PairedTestResult("wilcoxon_signed_rank", w, min(p, 1.0), n, method)


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
    from scipy.stats import binom

    s = int((nonzero > 0).sum())
    p_low = float(binom.cdf(s, n, 0.5))
    p_high = float(binom.sf(s - 1, n, 0.5))
    p = min(1.0, 2.0 * min(p_low, p_high))
    return PairedTestResult("sign", float(s), p, n)


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
    q25, q75 = np.percentile(arr, [25, 75])
    return AggregateStats(float(arr.mean()), float(np.median(arr)), float(arr.std(ddof=1)), float(q75 - q25))


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
            "median": float(np.median(diffs)),
        }
        report["tests"][metric] = {
            "wilcoxon_signed_rank": wilcoxon_signed_rank(pairs),
            "sign": sign_test(pairs),
        }
    return report


def write_report_csv(rows: Sequence[FixtureRow], sink) -> None:
    """Per-link metric table plus the four aggregate footer rows."""
    with open_text(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["location", "length_km", *FIXTURE_METRICS])
        for r in rows:
            writer.writerow([r.location, r.length_km, *(getattr(r, m) for m in FIXTURE_METRICS)])
        columns = {m: [getattr(r, m) for r in rows] for m in FIXTURE_METRICS}
        aggregates = {m: summarize(v) for m, v in columns.items()}
        for stat in ("mean", "median", "std", "iqr"):
            writer.writerow([stat, "", *(round(getattr(aggregates[m], stat), 3) for m in FIXTURE_METRICS)])


# --- McMaster calibration grid -------------------------------------------------------


def quantile_regression_quadratic(density: np.ndarray, flow: np.ndarray) -> tuple[float, float, float]:
    """``MCMASTER_SEED_QUANTILE`` quantile regression of flow on (1, rho, rho^2) via the standard LP form."""
    from scipy import sparse
    from scipy.optimize import linprog

    n = density.size
    if n > 3000:  # deterministic stride subsample keeps the LP small
        step = n // 3000 + 1
        density = density[::step]
        flow = flow[::step]
        n = density.size
    design = np.column_stack([np.ones(n), density, density**2])
    # minimise tau*u + (1-tau)*v  s.t.  X beta + u - v = y
    tau = MCMASTER_SEED_QUANTILE
    c = np.concatenate([np.zeros(6), tau * np.ones(n), (1 - tau) * np.ones(n)])
    # beta is split into positive and negative parts to keep variables >= 0
    a_eq = sparse.hstack([design, -design, sparse.eye(n), -sparse.eye(n)], format="csc")
    res = linprog(c, A_eq=a_eq, b_eq=flow, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"quantile regression failed: {res.message}")
    beta = res.x[:3] - res.x[3:6]
    return float(beta[0]), float(beta[1]), float(beta[2])


# --- detector-family calibration -----------------------------------------------------


def dftb_score_fn(stream: LinkSeries, region, labels: Sequence[EventLabel]):
    """Score function over severity thresholds; the stream is annotated and segmented once."""
    from .detector import annotate, segment

    series = annotate(stream, region)
    found = segment(series)
    exterior_at = np.array(datetimes(series.epoch_us[found.rows]), dtype=object)
    end = np.array(datetimes(series.epoch_us[found.end]), dtype=object)
    n_applications = applications(stream, "dftb")

    def score(threshold: float) -> DetectorScore:
        flagged, onset = found.onsets(threshold)
        return score_detector(list(zip(exterior_at[onset], end[flagged])), labels, n_applications)

    return score


def calibrate_dftb(stream: LinkSeries, region, labels: Sequence[EventLabel]) -> CalibrationResult:
    """Sweep of ``DFTB_THRESHOLD_GRID`` severity thresholds minimising PI against the training labels."""
    return calibrate(list(DFTB_THRESHOLD_GRID), dftb_score_fn(stream, region, labels))


def snd_score_fn(stream: LinkSeries, profile, labels: Sequence[EventLabel]):
    from .baselines import snd_detect

    stream.require_minute_cadence()
    n_applications = applications(stream, "snd")

    def score(c: float) -> DetectorScore:
        return score_detector(snd_detect(stream, profile, c), labels, n_applications)

    return score


def calibrate_snd(stream: LinkSeries, profile, labels: Sequence[EventLabel]) -> CalibrationResult:
    """Sweep of the robust threshold multiplier c over ``SND_C_GRID`` minimising PI."""
    return calibrate(list(SND_C_GRID), snd_score_fn(stream, profile, labels))


def calibrate_mcmaster(stream: LinkSeries, labels: Sequence[EventLabel]) -> CalibrationResult:
    """Coarse-to-fine PI minimisation over the 5 segmentation parameters."""
    from .baselines import mcmaster_detect

    n_applications = applications(stream, "mcmaster")

    def score(params: McMasterParams) -> DetectorScore:
        return score_detector(mcmaster_detect(stream, params), labels, n_applications)

    coarse = calibrate(_mcmaster_grid(stream, labels), score)
    seed: McMasterParams = coarse.parameter
    fine = [seed]
    for rho_scale in (0.9, 1.0, 1.1):
        for f_scale in (0.9, 1.0, 1.1):
            for lud_scale in (0.9, 1.0, 1.1):
                b = max(seed.b * lud_scale, 0.0)
                c = seed.c * lud_scale
                rho_crit = seed.rho_crit * rho_scale
                if b + 2.0 * c * rho_crit < 0:
                    c = -b / (2.0 * rho_crit)
                fine.append(McMasterParams(seed.a * lud_scale, b, c, rho_crit, seed.f_crit * f_scale))
    return calibrate(fine, score)


def mcmaster_parameter_grid(samples, labels: Sequence[EventLabel]) -> list[McMasterParams]:
    """Coarse grid around a quantile-regression seed of the lower uncongested bound.

    Uncongested training data is every usable minute outside the labels; the
    seed quadratic is its 5th-percentile flow curve, and the grid perturbs
    the curve multiplicatively while sweeping the critical density and flow
    over empirical quantiles.
    """
    return _mcmaster_grid(LinkSeries.from_samples(samples), labels)


def _mcmaster_grid(stream: LinkSeries, labels: Sequence[EventLabel]) -> list[McMasterParams]:
    stream.require_minute_cadence()
    labelled = np.fromiter(interval_minutes([(lab.start, lab.end) for lab in labels]), dtype=np.int64)
    usable = stream.usable
    free = usable & ~np.isin(stream.minutes, labelled)
    if np.count_nonzero(free) < 100:
        raise ValueError("not enough uncongested training data for a seed fit")
    rho = stream.density[free]
    flow = stream.flow[free]
    rho_hi = float(np.percentile(rho, 98))
    fit_mask = rho <= rho_hi
    a0, b0, c0 = quantile_regression_quadratic(rho[fit_mask], flow[fit_mask])
    rho_all = stream.density[usable]
    flow_all = stream.flow[usable]
    grid = []
    for rho_q in (0.90, 0.95, 0.99):
        rho_crit = float(np.quantile(rho_all, rho_q))
        for f_q in (0.3, 0.5, 0.7):
            f_crit = float(np.quantile(flow_all, f_q))
            for scale in (0.6, 0.8, 1.0, 1.2):
                b = max(b0 * scale, 0.0)
                c = c0 * scale
                if b + 2.0 * c * rho_crit < 0:  # keep the bound nondecreasing
                    c = -b / (2.0 * rho_crit)
                grid.append(McMasterParams(a0 * scale, b, c, rho_crit, f_crit))
    return grid
