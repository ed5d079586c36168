"""Comparison detectors: robust SND speed thresholds and a McMaster-style
segmentation of the density-flow plane.

SND builds per-window speed statistics over a week of 15-minute bins (672
bins) and alarms when speed stays below min(cap, median - c * IQR) for at
least 3 consecutive minutes. The McMaster detector classifies each minute as
congested from a quadratic lower bound of uncongested data plus critical
density and flow, with the same 3-minute persistence; occupancy is proxied by
density because the feed is link-level (no loop occupancy), which is a
documented deviation from the loop-level original.

Both detectors return their alarm intervals as a pair of int64 arrays
``(start_us, end_us)``, the timestamps of each interval's first and last
alarming minute in epoch microseconds: the type ``evaluation.score_detector``
takes. ``snd_detect_grid`` and ``mcmaster_detect_grid`` return the intervals of a
whole calibration grid at once, with the grid point of each one, and the single
detectors are their one-point case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ingest import US_PER_MINUTE, LinkSeries, _lerp, _order_positions

BIN_MINUTES = 15
BINS_PER_DAY = 24 * 60 // BIN_MINUTES
BINS_PER_WEEK = 7 * BINS_PER_DAY  # 672
MIN_BIN_OBSERVATIONS = 8
SPEED_CAP_KMH = 45 * 1.609344  # exactly 72.42048
PERSISTENCE_MIN = 3  # consecutive alarming minutes both baselines need to raise an alarm
_GRID_BLOCK_CELLS = 2**19  # minutes x grid points in one block of a grid's hits

GridAlarms = tuple[np.ndarray, np.ndarray, np.ndarray]  # (start_us, end_us, grid point of each interval)


_STATS = ("count", "mean", "median", "sd", "iqr", "mad")


@dataclass(frozen=True, eq=False)
class SndProfile:
    """Per weekly-bin speed statistics, one column of ``BINS_PER_WEEK`` values per
    statistic (a count of 0 and NaN elsewhere for a bin with no speed)."""

    count: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    sd: np.ndarray
    iqr: np.ndarray
    mad: np.ndarray
    tz_offset_min: int = 0

    def __post_init__(self):
        for name in _STATS:
            column = np.asarray(getattr(self, name), dtype=np.int64 if name == "count" else float)
            if column.shape != (BINS_PER_WEEK,):
                raise ValueError(f"profile must have {BINS_PER_WEEK} bins, got {column.size}")
            object.__setattr__(self, name, column)

    @property
    def usable(self) -> np.ndarray:
        return self.count >= MIN_BIN_OBSERVATIONS

    def to_json(self) -> str:
        filled = np.flatnonzero(self.count > 0)
        rows = zip(filled.tolist(), *(getattr(self, name)[filled].tolist() for name in _STATS))
        payload = {
            "cap_kmh": SPEED_CAP_KMH,
            "tz_offset_min": self.tz_offset_min,
            "bins": {str(i): stats for i, *stats in rows},
        }
        return json.dumps(payload)


# Epoch minute 0 (1970-01-01 00:00 UTC) was a Thursday, three days after a Monday 00:00.
EPOCH_MINUTES_AFTER_MONDAY = 3 * 24 * 60
MINUTES_PER_WEEK = 7 * 24 * 60


def weekly_bins(minutes, tz_offset_min: int = 0):
    """15-minute bin index 0..671 of epoch minutes in local time (Monday 00:00 is bin 0)."""
    return (minutes + tz_offset_min + EPOCH_MINUTES_AFTER_MONDAY) % MINUTES_PER_WEEK // BIN_MINUTES


def snd_fit(stream: LinkSeries, tz_offset_min: int = 0) -> SndProfile:
    """Robust per-bin speed statistics over every training occurrence of each bin.

    Each statistic is the value numpy gives for one bin's speeds: linear-interpolation
    quartiles, ``np.median`` of the absolute deviations from the median, ``mean`` and
    ``std(ddof=1)`` (0 for a single speed). Bins of equal count are computed together,
    as the rows of one block: the mean and the standard deviation reduce the rows of
    time-ordered speeds, which sums each row in the same order as the 1-D reduction
    does, and the order statistics come from the sorted rows.
    """
    stream.require_minute_cadence()
    span_us = int(stream.epoch_us[-1] - stream.epoch_us[0])
    if span_us < (MINUTES_PER_WEEK - 1) * US_PER_MINUTE:
        raise ValueError(f"SND needs at least one week of data, got {span_us / US_PER_MINUTE:g} minutes")
    has_speed = ~np.isnan(stream.speed)
    bins = weekly_bins(stream.minutes[has_speed], tz_offset_min)
    count = np.bincount(bins, minlength=BINS_PER_WEEK)
    by_time = stream.speed[has_speed][np.argsort(bins, kind="stable")]  # each bin's speeds in time order
    first = np.cumsum(count) - count
    stats = np.full((len(_STATS) - 1, BINS_PER_WEEK), np.nan)
    for n in (np.flatnonzero(np.bincount(count)[1:]) + 1).tolist():  # every count a bin has, but 0
        group = np.flatnonzero(count == n)
        stats[:, group] = _bin_stats(by_time[first[group, None] + np.arange(n)])
    return SndProfile(count, *stats, tz_offset_min=tz_offset_min)


def _bin_stats(block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mean, median, sd, IQR and MAD of each row of time-ordered speeds."""
    n = block.shape[1]
    ordered = np.sort(block, axis=1)
    lo, hi, t = _order_positions(n, _QUARTILES)
    q25, median, q75 = (_lerp(ordered[:, i], ordered[:, j], w) for i, j, w in zip(lo, hi, t))
    deviation = np.sort(np.abs(ordered - median[:, None]), axis=1)
    if n % 2:
        mad = deviation[:, n // 2]
    else:  # np.median: the mean of the two middle values
        mad = (deviation[:, n // 2 - 1] + deviation[:, n // 2]) / 2
    sd = block.std(axis=1, ddof=1) if n > 1 else np.zeros(len(block))
    return block.mean(axis=1), median, sd, q75 - q25, mad


_QUARTILES = (0.25, 0.5, 0.75)


def snd_thresholds(profile: SndProfile, c) -> np.ndarray:
    """min(cap, median - c * IQR) per weekly bin, NaN where the bin is unusable; a 1-D
    array of c gives one row of thresholds per value."""
    c = np.asarray(c, dtype=float)
    if (c < 0).any():
        raise ValueError("c must be nonnegative")
    return np.where(profile.usable, np.minimum(SPEED_CAP_KMH, profile.median - c[..., None] * profile.iqr), np.nan)


def snd_detect(stream: LinkSeries, profile: SndProfile, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Alarm intervals ``(start_us, end_us)``: speed below the bin threshold for at least
    ``PERSISTENCE_MIN`` minutes.

    The alarm is backdated to the first minute of the qualifying run and
    persists until a minute at or above threshold (or with no speed or no
    usable threshold) ends the run.
    """
    return snd_detect_grid(stream, profile, [c])[:2]


def snd_detect_grid(stream: LinkSeries, profile: SndProfile, cs: Sequence[float]) -> GridAlarms:
    """``snd_detect``'s alarm intervals for every c, with the index in ``cs`` of each one's c."""
    stream.require_minute_cadence()
    thresholds = snd_thresholds(profile, cs)
    bins = weekly_bins(stream.minutes, profile.tz_offset_min)

    def hits(points: range, rows: np.ndarray) -> None:
        for k, row in zip(points, rows):
            np.less(stream.speed, thresholds[k].take(bins), out=row)

    return _grid_alarms(stream.epoch_us, len(thresholds), hits)


def _grid_alarms(epoch_us: np.ndarray, n_points: int, hits: Callable[[range, np.ndarray], None]) -> GridAlarms:
    """The first and the last timestamp of every run of at least ``PERSISTENCE_MIN`` hits,
    for each of ``n_points`` grid points, in grid order and then time order.

    ``hits(points, rows)`` writes the hits of a block of grid points into the rows of a
    block of about ``_GRID_BLOCK_CELLS`` cells, and the runs of every row of the block
    are found in one pass.
    """
    n = epoch_us.size
    per_block = max(1, _GRID_BLOCK_CELLS // (n + 1))
    none = np.zeros(0, dtype=np.int64)
    parts = [(none, none, none)]
    for lo in range(0, n_points, per_block):
        points = range(lo, min(lo + per_block, n_points))
        # one False before the first row and after every row, so that no run joins two rows
        cells = np.zeros(len(points) * (n + 1) + 1, dtype=bool)
        hits(points, cells[1:].reshape(len(points), n + 1)[:, :n])
        edges = np.flatnonzero(cells[1:] != cells[:-1])
        rise, fall = edges[0::2], edges[1::2]  # a run's first cell and the cell after its last
        keep = fall - rise >= PERSISTENCE_MIN
        row, first = np.divmod(rise[keep], n + 1)
        parts.append((epoch_us[first], epoch_us[first + fall[keep] - rise[keep] - 1], row + lo))
    return tuple(np.concatenate(column) for column in zip(*parts))


@dataclass(frozen=True)
class McMasterParams:
    """Quadratic lower bound of uncongested data plus critical density/flow.

    The lower bound must be nondecreasing on [0, rho_crit] (flow grows with
    density below the critical point); this keeps the classifier monotone in
    density at fixed flow.
    """

    a: float
    b: float
    c: float
    rho_crit: float
    f_crit: float

    def __post_init__(self):
        if self.rho_crit <= 0 or self.f_crit <= 0:
            raise ValueError("critical density and flow must be positive")
        if self.b < 0 or self.b + 2.0 * self.c * self.rho_crit < 0:
            raise ValueError("lower bound must be nondecreasing on [0, rho_crit]")

    def lud(self, density: float) -> float:
        return self.a + self.b * density + self.c * density * density


def mcmaster_detect(stream: LinkSeries, params: McMasterParams) -> tuple[np.ndarray, np.ndarray]:
    """Alarm intervals ``(start_us, end_us)`` from persistent congested minutes.

    A minute is congested when its density exceeds the critical density, or
    when its flow is below both the lower uncongested bound and the critical
    flow; minutes without density are uncongested.
    """
    return mcmaster_detect_grid(stream, [params])[:2]


def mcmaster_detect_grid(stream: LinkSeries, grid: Sequence[McMasterParams]) -> GridAlarms:
    """``mcmaster_detect``'s alarm intervals for every grid point, with the index in
    ``grid`` of each one's point. A lower bound shared by points of a block is evaluated once."""
    stream.require_minute_cadence()
    rho, flow = stream.density, stream.flow

    def hits(points: range, rows: np.ndarray) -> None:
        below = {}
        for k, row in zip(points, rows):
            p = grid[k]
            bound = (p.a, p.b, p.c)
            if bound not in below:
                below[bound] = flow < p.lud(rho)
            np.less(flow, p.f_crit, out=row)
            row &= below[bound]
            row |= rho > p.rho_crit

    return _grid_alarms(stream.epoch_us, len(grid), hits)
