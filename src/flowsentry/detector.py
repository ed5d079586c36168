"""Excursion segmentation, severity scoring, and DFTB flag emission.

One stream covers one link, in strictly increasing time order. A sample is
usable when its density proxy exists. ``annotate`` gives every usable minute
its membership, exit side and severity; ``segment`` splits the usable
exterior minutes into excursions once, as arrays, and flags of either mode
are reductions over those excursions. Unusable minutes never start or end an
excursion on their own, but once the run of missing minutes between two
usable minutes reaches the gap-termination length, an excursion ends at its
last observed minute.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from math import ceil
from typing import Iterable, Sequence

import numpy as np

from .ingest import LinkSeries, TrafficSample, datetimes, format_timestamp, open_text, parse_timestamp
from .levelset import (
    TypicalRegion,
    contains,
    contains_many,
    distance_to_boundary,
    distances_and_sides,
    distances_to_boundary,
    with_normalizer,
)

GAP_TERMINATION_MIN = 2

FLAGS_HEADER = ["link_id", "start", "end", "duration_min", "max_severity", "exit_side", "flagged"]


class UncalibratedRegionError(ValueError):
    """The region has no severity normaliser yet."""


@dataclass(frozen=True)
class DetectorConfig:
    """Exactly one thresholding mode is active at a time."""

    mode: str  # "duration_threshold" or "severity_threshold"
    duration_threshold_min: float | None = None
    severity_threshold: float | None = None
    gap_termination_min: int = GAP_TERMINATION_MIN

    def __post_init__(self):
        if self.mode == "duration_threshold":
            if self.duration_threshold_min is None or self.severity_threshold is not None:
                raise ValueError("duration_threshold mode needs duration_threshold_min only")
            if self.duration_threshold_min < 0:
                raise ValueError("duration threshold must be nonnegative")
        elif self.mode == "severity_threshold":
            if self.severity_threshold is None or self.duration_threshold_min is not None:
                raise ValueError("severity_threshold mode needs severity_threshold only")
            if self.severity_threshold < 0:
                raise ValueError("severity threshold must be nonnegative")
        else:
            raise ValueError(f"unknown detector mode {self.mode!r}")
        if self.gap_termination_min < 1:
            raise ValueError("gap termination must be at least one minute")


@dataclass(frozen=True)
class ExcursionRecord:
    """One contiguous atypical episode on a single side of the boundary."""

    link_id: str
    start: datetime
    end: datetime
    duration_min: int
    max_severity: float
    exit_side: str

    def __post_init__(self):
        if self.duration_min < 1:
            raise ValueError("excursion duration must be at least one minute")
        if self.max_severity <= 0:
            raise ValueError("excursion max severity must be positive")
        if self.exit_side not in ("left", "right"):
            raise ValueError(f"bad exit side {self.exit_side!r}")


@dataclass(frozen=True)
class DftbFlag:
    """A raised deviation-from-typical-behaviour flag (right-side only)."""

    link_id: str
    timestamp: datetime  # first flagged minute
    end: datetime  # flag persists to excursion close
    severity: float  # severity at emission
    flagged_min: int
    excursion: ExcursionRecord

    def __post_init__(self):
        if self.severity <= 0:
            raise ValueError("flag severity must be positive")
        if self.excursion.exit_side != "right":
            raise ValueError("flags are only emitted for right-side excursions")


def severity(point, region: TypicalRegion) -> float:
    """0 inside the region, else boundary distance over the training maximum."""
    if region.max_training_distance is None:
        raise UncalibratedRegionError("region has no max_training_distance; calibrate first")
    if contains(region, point):
        return 0.0
    return distance_to_boundary(region, point) / region.max_training_distance


def calibrate_normalizer(region: TypicalRegion, points: np.ndarray) -> TypicalRegion:
    """Set the severity normaliser to the worst training excursion distance."""
    if points.shape[0] == 0:
        raise ValueError("no usable training samples")
    outside = ~contains_many(region, points)
    if not outside.any():
        raise ValueError("no training sample falls outside the region; cannot calibrate severity")
    worst = float(distances_to_boundary(region, points[outside]).max())
    return with_normalizer(region, worst)


@dataclass(frozen=True)
class SeveritySeries:
    """Per-sample annotations for one link, aligned with the input order."""

    link_id: str
    epoch_us: np.ndarray  # the stream's exact timestamps, as in LinkSeries
    usable: np.ndarray  # density present
    exterior: np.ndarray  # outside the region (False wherever unusable)
    side: np.ndarray  # "left"/"right" for exterior minutes, "" otherwise
    severity: np.ndarray  # 0 inside, scaled distance outside


def annotate(stream: LinkSeries, region: TypicalRegion) -> SeveritySeries:
    """Batch-compute membership, side, and severity for one link's minute stream."""
    stream.require_minute_cadence()
    if region.max_training_distance is None:
        raise UncalibratedRegionError("region has no max_training_distance; calibrate first")
    n = len(stream)
    exterior = np.zeros(n, dtype=bool)
    side = np.full(n, "", dtype=object)
    sev = np.zeros(n, dtype=float)
    pts = stream.points
    outside = ~contains_many(region, pts)
    ext_idx = np.flatnonzero(stream.usable)[outside]
    exterior[ext_idx] = True
    if ext_idx.size:
        distances, sides = distances_and_sides(region, pts[outside])
        sev[ext_idx] = distances / region.max_training_distance
        side[ext_idx] = sides
    return SeveritySeries(stream.link_id, stream.epoch_us, stream.usable, exterior, side, sev)


def track(
    samples: Sequence[TrafficSample],
    region: TypicalRegion,
    config: DetectorConfig,
) -> tuple[list[ExcursionRecord], list[DftbFlag]]:
    """Excursions and flags of a stream; see ``segment`` and ``track_annotated``."""
    return track_annotated(annotate(LinkSeries.from_samples(samples), region), config)


@dataclass(frozen=True)
class Excursions:
    """One stream's excursions as parallel arrays, in time order.

    ``rows`` are the usable exterior rows of the stream and ``severity`` their
    severities; excursion k covers ``rows[first[k]:first[k] + duration[k]]``.
    """

    rows: np.ndarray
    severity: np.ndarray
    first: np.ndarray
    duration: np.ndarray
    max_severity: np.ndarray
    right: np.ndarray  # exit side is "right"

    @property
    def start(self) -> np.ndarray:
        return self.rows[self.first]

    @property
    def end(self) -> np.ndarray:
        return self.rows[self.first + self.duration - 1]

    def onsets(self, threshold: float) -> tuple[np.ndarray, np.ndarray]:
        """Right-side excursions that reach ``threshold`` and the position in ``rows``
        of each one's first minute at or above it."""
        hit = np.where(self.severity >= threshold, np.arange(self.rows.size), self.rows.size)
        onset = np.minimum.reduceat(hit, self.first) if self.first.size else self.first
        flagged = np.flatnonzero(self.right & (onset < self.first + self.duration))
        return flagged, onset[flagged]


def segment(series: SeveritySeries, gap_termination_min: int) -> Excursions:
    """Split the usable exterior minutes into excursions.

    A usable exterior minute starts a new excursion when the previous usable
    minute was interior (or there is none), when its exit side differs from
    that minute's, or when the missing run between the two, measured on the
    exact timestamps, is at least ``gap_termination_min`` minutes. Unusable
    minutes count only through that gap, so durations count usable exterior
    minutes, not the wall-clock span.
    """
    usable = np.flatnonzero(series.usable)
    position = np.flatnonzero(series.exterior[usable])  # among the usable minutes
    rows = usable[position]
    right = series.side[rows] == "right"
    joined = np.flatnonzero((np.diff(position) == 1) & (right[1:] == right[:-1])) + 1
    waited_us = series.epoch_us[rows[joined]] - series.epoch_us[rows[joined - 1]]
    continues = np.zeros(rows.size, dtype=bool)
    continues[joined] = waited_us / 1e6 / 60.0 - 1.0 < gap_termination_min
    first = np.flatnonzero(~continues)
    severity = series.severity[rows]
    duration = np.diff(np.append(first, rows.size))
    max_severity = np.maximum.reduceat(severity, first) if first.size else severity
    return Excursions(rows, severity, first, duration, max_severity, right[first])


def track_annotated(series: SeveritySeries, config: DetectorConfig) -> tuple[list[ExcursionRecord], list[DftbFlag]]:
    """Excursion records of an annotated stream and the flags ``config`` raises.

    Left-side excursions are recorded but never flagged. In severity mode a
    flag opens at the first minute at or above the threshold and persists to
    the excursion's end; in duration mode the flag is retroactive and covers
    the whole excursion when it lasted long enough.
    """
    found = segment(series, config.gap_termination_min)
    link, at = series.link_id, series.epoch_us
    columns = (found.duration, found.max_severity, found.right)
    excursions = [
        ExcursionRecord(link, a, b, d, m, "right" if r else "left")
        for a, b, d, m, r in zip(datetimes(at[found.start]), datetimes(at[found.end]), *(c.tolist() for c in columns))
    ]
    if config.mode == "duration_threshold":
        chosen = np.flatnonzero(found.right & (found.duration >= config.duration_threshold_min))
        return excursions, [
            DftbFlag(link, e.start, e.end, e.max_severity, e.duration_min, e) for e in (excursions[k] for k in chosen)
        ]
    flagged, onset = found.onsets(config.severity_threshold)
    columns = (flagged, found.severity[onset], found.first[flagged] + found.duration[flagged] - onset)
    flags = [
        DftbFlag(link, ts, excursions[k].end, sev, minutes, excursions[k])
        for ts, k, sev, minutes in zip(datetimes(at[found.rows[onset]]), *(c.tolist() for c in columns))
    ]
    return excursions, flags


def duration_threshold_from_percentile(durations: Sequence[float], percentile: float) -> float:
    """Empirical nearest-rank percentile of training excursion durations."""
    if len(durations) < 10:
        raise ValueError(f"need at least 10 training excursions, got {len(durations)}")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile {percentile} outside [0, 100]")
    ordered = sorted(durations)
    rank = max(1, ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class FlagRow:
    """One row of the shared excursion/flag CSV schema."""

    link_id: str
    start: datetime
    end: datetime
    duration_min: int
    max_severity: float
    exit_side: str
    flagged: bool


def write_excursions_csv(excursions: Iterable[ExcursionRecord], flags: Iterable[DftbFlag], sink) -> None:
    """Per-excursion rows; ``flagged`` marks excursions that raised a flag."""
    flagged = {id(f.excursion) for f in flags}
    rows = [
        FlagRow(e.link_id, e.start, e.end, e.duration_min, e.max_severity, e.exit_side, id(e) in flagged)
        for e in excursions
    ]
    _write_rows(rows, sink)


def write_flags_csv(flags: Iterable[DftbFlag], sink) -> None:
    """Per-flag rows; ``start`` is the flag onset, not the excursion start."""
    rows = [
        FlagRow(f.link_id, f.timestamp, f.end, f.flagged_min, f.excursion.max_severity, "right", True)
        for f in flags
    ]
    _write_rows(rows, sink)


def _write_rows(rows: list[FlagRow], sink) -> None:
    with open_text(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FLAGS_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.link_id,
                    format_timestamp(r.start),
                    format_timestamp(r.end),
                    r.duration_min,
                    repr(r.max_severity),
                    r.exit_side,
                    "true" if r.flagged else "false",
                ]
            )


def read_flags_csv(source) -> list[FlagRow]:
    with open_text(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != FLAGS_HEADER:
            raise ValueError(f"unexpected flags header {header!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            rows.append(
                FlagRow(
                    link_id=row[0],
                    start=parse_timestamp(row[1]),
                    end=parse_timestamp(row[2]),
                    duration_min=int(row[3]),
                    max_severity=float(row[4]),
                    exit_side=row[5],
                    flagged=row[6] == "true",
                )
            )
        return rows
