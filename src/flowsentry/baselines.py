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
takes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .ingest import US_PER_MINUTE, LinkSeries

BIN_MINUTES = 15
BINS_PER_DAY = 24 * 60 // BIN_MINUTES
BINS_PER_WEEK = 7 * BINS_PER_DAY  # 672
MIN_BIN_OBSERVATIONS = 8
SPEED_CAP_KMH = 45 * 1.609344  # exactly 72.42048
PERSISTENCE_MIN = 3  # consecutive alarming minutes both baselines need to raise an alarm


@dataclass(frozen=True)
class BinStats:
    count: int
    mean: float
    median: float
    sd: float
    iqr: float
    mad: float

    @property
    def usable(self) -> bool:
        return self.count >= MIN_BIN_OBSERVATIONS


@dataclass(frozen=True)
class SndProfile:
    """Per weekly-bin speed statistics plus the cap speed."""

    bins: tuple[BinStats, ...]
    cap_kmh: float = SPEED_CAP_KMH
    tz_offset_min: int = 0

    def __post_init__(self):
        if len(self.bins) != BINS_PER_WEEK:
            raise ValueError(f"profile must have {BINS_PER_WEEK} bins, got {len(self.bins)}")

    def to_json(self) -> str:
        payload = {
            "cap_kmh": self.cap_kmh,
            "tz_offset_min": self.tz_offset_min,
            "bins": {
                str(i): [b.count, b.mean, b.median, b.sd, b.iqr, b.mad]
                for i, b in enumerate(self.bins)
                if b.count > 0
            },
        }
        return json.dumps(payload)


# Epoch minute 0 (1970-01-01 00:00 UTC) was a Thursday, three days after a Monday 00:00.
EPOCH_MINUTES_AFTER_MONDAY = 3 * 24 * 60
MINUTES_PER_WEEK = 7 * 24 * 60


def weekly_bins(minutes, tz_offset_min: int = 0):
    """15-minute bin index 0..671 of epoch minutes in local time (Monday 00:00 is bin 0)."""
    return (minutes + tz_offset_min + EPOCH_MINUTES_AFTER_MONDAY) % MINUTES_PER_WEEK // BIN_MINUTES


def snd_fit(stream: LinkSeries, tz_offset_min: int = 0) -> SndProfile:
    """Robust per-bin speed statistics over every training occurrence of each bin."""
    stream.require_minute_cadence()
    span_us = int(stream.epoch_us[-1] - stream.epoch_us[0])
    if span_us < (MINUTES_PER_WEEK - 1) * US_PER_MINUTE:
        raise ValueError(f"SND needs at least one week of data, got {span_us / US_PER_MINUTE:g} minutes")
    has_speed = ~np.isnan(stream.speed)
    bins = weekly_bins(stream.minutes[has_speed], tz_offset_min)
    speeds = stream.speed[has_speed]
    order = np.argsort(bins, kind="stable")
    groups = np.split(speeds[order], np.cumsum(np.bincount(bins, minlength=BINS_PER_WEEK))[:-1])
    return SndProfile(tuple(_bin_stats(v) for v in groups), tz_offset_min=tz_offset_min)


def _bin_stats(arr: np.ndarray) -> BinStats:
    if not arr.size:
        return BinStats(0, float("nan"), float("nan"), float("nan"), float("nan"), float("nan"))
    q25, median, q75 = np.percentile(arr, [25, 50, 75])  # linear-interpolation quartiles
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    mad = float(np.median(np.abs(arr - median)))
    return BinStats(arr.size, float(arr.mean()), float(median), sd, float(q75 - q25), mad)


def snd_thresholds(profile: SndProfile, c: float) -> np.ndarray:
    """min(cap, median - c * IQR) per weekly bin, NaN where the bin is unusable."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    median = np.array([b.median for b in profile.bins])
    iqr = np.array([b.iqr for b in profile.bins])
    usable = np.array([b.usable for b in profile.bins])
    return np.where(usable, np.minimum(profile.cap_kmh, median - c * iqr), np.nan)


def snd_detect(stream: LinkSeries, profile: SndProfile, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Alarm intervals ``(start_us, end_us)``: speed below the bin threshold for at least
    ``PERSISTENCE_MIN`` minutes.

    The alarm is backdated to the first minute of the qualifying run and
    persists until a minute at or above threshold (or with no speed or no
    usable threshold) ends the run.
    """
    stream.require_minute_cadence()
    thresholds = snd_thresholds(profile, c)[weekly_bins(stream.minutes, profile.tz_offset_min)]
    return _persistence_intervals(stream.epoch_us, stream.speed < thresholds)


def _persistence_intervals(epoch_us: np.ndarray, hits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first and the last timestamp, as int64 epoch microseconds, of every run of at
    least ``PERSISTENCE_MIN`` hits."""
    edges = np.flatnonzero(np.diff(np.concatenate(([0], hits.astype(np.int8), [0]))))
    starts, stops = edges[0::2], edges[1::2]
    keep = stops - starts >= PERSISTENCE_MIN
    return epoch_us[starts[keep]], epoch_us[stops[keep] - 1]


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
    stream.require_minute_cadence()
    rho, flow = stream.density, stream.flow
    hits = (rho > params.rho_crit) | ((flow < params.lud(rho)) & (flow < params.f_crit))
    return _persistence_intervals(stream.epoch_us, hits)
