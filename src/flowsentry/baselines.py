"""Comparison detectors: robust SND speed thresholds and a McMaster-style
segmentation of the density-flow plane.

SND builds per-window speed statistics over a week of 15-minute bins (672
bins) and alarms when speed stays below min(cap, location - c * scale) for at
least 3 consecutive minutes. The McMaster variant classifies each minute as
congested from a quadratic lower bound of uncongested data plus critical
density and flow, with the same 3-minute persistence; occupancy is proxied by
density because the feed is link-level (no loop occupancy), which is a
documented deviation from the loop-level original.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from .ingest import TrafficSample

BIN_MINUTES = 15
BINS_PER_DAY = 24 * 60 // BIN_MINUTES
BINS_PER_WEEK = 7 * BINS_PER_DAY  # 672
MIN_BIN_OBSERVATIONS = 8
SPEED_CAP_KMH = 45 * 1.609344  # exactly 72.42048

SND_VARIANTS = ("mean_sd", "median_iqr", "median_mad")


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

    @classmethod
    def from_json(cls, text: str) -> "SndProfile":
        payload = json.loads(text)
        empty = BinStats(0, float("nan"), float("nan"), float("nan"), float("nan"), float("nan"))
        bins = [empty] * BINS_PER_WEEK
        for key, row in payload["bins"].items():
            bins[int(key)] = BinStats(int(row[0]), *row[1:])
        return cls(tuple(bins), payload["cap_kmh"], payload["tz_offset_min"])


def weekly_bin(ts: datetime, tz_offset_min: int = 0) -> int:
    """15-minute bin index 0..671 in local time (Monday 00:00 is bin 0)."""
    local = ts.astimezone(timezone.utc) + timedelta(minutes=tz_offset_min)
    return local.weekday() * BINS_PER_DAY + (local.hour * 60 + local.minute) // BIN_MINUTES


def snd_fit(samples: Sequence[TrafficSample], tz_offset_min: int = 0) -> SndProfile:
    """Robust per-bin speed statistics over every training occurrence of each bin."""
    if not samples:
        raise ValueError("no training samples")
    span = samples[-1].timestamp - samples[0].timestamp
    if span < timedelta(days=7) - timedelta(minutes=1):
        raise ValueError(f"SND needs at least one week of data, got {span}")
    speeds: list[list[float]] = [[] for _ in range(BINS_PER_WEEK)]
    for s in samples:
        if s.speed is None:
            continue
        speeds[weekly_bin(s.timestamp, tz_offset_min)].append(s.speed)
    bins = [_bin_stats(v) for v in speeds]
    return SndProfile(tuple(bins), tz_offset_min=tz_offset_min)


def _bin_stats(values: list[float]) -> BinStats:
    if not values:
        return BinStats(0, float("nan"), float("nan"), float("nan"), float("nan"), float("nan"))
    arr = np.asarray(values, dtype=float)
    q25, median, q75 = np.percentile(arr, [25, 50, 75])  # linear-interpolation quartiles
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    mad = float(np.median(np.abs(arr - median)))
    return BinStats(arr.size, float(arr.mean()), float(median), sd, float(q75 - q25), mad)


def snd_threshold(profile: SndProfile, bin_index: int, c: float, variant: str = "median_iqr") -> float | None:
    """min(cap, location - c * scale); None when the bin is unusable."""
    if c < 0:
        raise ValueError("c must be nonnegative")
    if variant not in SND_VARIANTS:
        raise ValueError(f"unknown SND variant {variant!r}")
    stats = profile.bins[bin_index]
    if not stats.usable:
        return None
    if variant == "mean_sd":
        location, scale = stats.mean, stats.sd
    elif variant == "median_iqr":
        location, scale = stats.median, stats.iqr
    else:
        location, scale = stats.median, stats.mad
    return min(profile.cap_kmh, location - c * scale)


def snd_detect(
    stream: Sequence[TrafficSample],
    profile: SndProfile,
    c: float,
    variant: str = "median_iqr",
    persistence_min: int = 3,
) -> list[tuple[datetime, datetime]]:
    """Alarm intervals: speed below the bin threshold for >= persistence minutes.

    The alarm is backdated to the first minute of the qualifying run and
    persists until a minute at or above threshold (or with no usable
    threshold) ends the run.
    """
    below = []
    for s in stream:
        if s.speed is None:
            below.append(False)
            continue
        thr = snd_threshold(profile, weekly_bin(s.timestamp, profile.tz_offset_min), c, variant)
        below.append(thr is not None and s.speed < thr)
    return _persistence_intervals([s.timestamp for s in stream], below, persistence_min)


def _persistence_intervals(
    timestamps: Sequence[datetime], hits: Sequence[bool], persistence_min: int
) -> list[tuple[datetime, datetime]]:
    intervals = []
    run_start = None
    run_len = 0
    prev = None
    for ts, hit in zip(timestamps, hits):
        if prev is not None and ts <= prev:
            raise ValueError("stream not time-ordered")
        prev = ts
        if hit:
            if run_start is None:
                run_start = ts
            run_len += 1
            run_end = ts
        else:
            if run_start is not None and run_len >= persistence_min:
                intervals.append((run_start, run_end))
            run_start = None
            run_len = 0
    if run_start is not None and run_len >= persistence_min:
        intervals.append((run_start, run_end))
    return intervals


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


def mcmaster_classify(sample: TrafficSample, params: McMasterParams) -> str:
    """"congested" or "uncongested"; samples without density are uncongested."""
    if not sample.has_density:
        return "uncongested"
    rho = sample.density
    if rho > params.rho_crit:
        return "congested"
    if sample.flow < params.lud(rho) and sample.flow < params.f_crit:
        return "congested"
    return "uncongested"


def mcmaster_detect(
    stream: Sequence[TrafficSample],
    params: McMasterParams,
    persistence_min: int = 3,
) -> list[tuple[datetime, datetime]]:
    """Alarm intervals from persistent congested classifications."""
    hits = [mcmaster_classify(s, params) == "congested" for s in stream]
    return _persistence_intervals([s.timestamp for s in stream], hits, persistence_min)
