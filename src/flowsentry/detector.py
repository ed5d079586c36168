"""Streaming excursion tracking, severity scoring, and DFTB flag emission.

One detector instance covers one link; samples must arrive in strictly
increasing time order. A sample is usable when its density proxy exists;
unusable samples never change state on their own, but once the run of
missing minutes between usable samples reaches the gap-termination length,
any open excursion is closed at its last observed minute.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime
from math import ceil
from typing import Iterable, Sequence

import numpy as np

from .ingest import LinkSeries, TrafficSample, format_timestamp, open_text, parse_timestamp
from .levelset import (
    TypicalRegion,
    contains,
    contains_many,
    distance_to_boundary,
    distances_and_sides,
    distances_to_boundary,
    with_normalizer,
)

FLAGS_HEADER = ["link_id", "start", "end", "duration_min", "max_severity", "exit_side", "flagged"]


class UncalibratedRegionError(ValueError):
    """The region has no severity normaliser yet."""


@dataclass(frozen=True)
class DetectorConfig:
    """Exactly one thresholding mode is active at a time."""

    mode: str  # "duration_threshold" or "severity_threshold"
    duration_threshold_min: float | None = None
    severity_threshold: float | None = None
    gap_termination_min: int = 2

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
    timestamps: tuple[datetime, ...]
    usable: np.ndarray  # density present
    exterior: np.ndarray  # outside the region (False wherever unusable)
    side: np.ndarray  # "left"/"right" for exterior minutes, "" otherwise
    severity: np.ndarray  # 0 inside, scaled distance outside


def annotate(stream: LinkSeries, region: TypicalRegion) -> SeveritySeries:
    """Batch-compute membership, side, and severity for one link's stream."""
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
    return SeveritySeries(stream.link_id, stream.timestamps, stream.usable, exterior, side, sev)


def track(
    samples: Sequence[TrafficSample],
    region: TypicalRegion,
    config: DetectorConfig,
) -> tuple[list[ExcursionRecord], list[DftbFlag]]:
    """Run the excursion state machine over a stream.

    An excursion opens at the first exterior minute, extends while the side
    stays the same, and closes at the first interior minute, at a side flip,
    at a long-enough data gap, or at the end of the stream. Left-side
    excursions are recorded but never flagged. In severity mode a flag opens
    at the first minute at or above the threshold and persists to excursion
    close; in duration mode the flag is retroactive and covers the whole
    excursion when it lasted long enough.
    """
    return track_annotated(annotate(LinkSeries.from_samples(samples), region), config)


def track_annotated(series: SeveritySeries, config: DetectorConfig) -> tuple[list[ExcursionRecord], list[DftbFlag]]:
    excursions: list[ExcursionRecord] = []
    flags: list[DftbFlag] = []

    open_side: str | None = None
    start_idx = end_idx = -1
    minute_count = 0
    max_sev = 0.0
    flag_idx: int | None = None
    flag_sev = 0.0
    flag_minutes = 0
    last_usable: datetime | None = None
    ts = series.timestamps

    def close():
        nonlocal open_side, start_idx, end_idx, minute_count, max_sev, flag_idx, flag_sev, flag_minutes
        record = ExcursionRecord(
            link_id=series.link_id,
            start=ts[start_idx],
            end=ts[end_idx],
            duration_min=minute_count,
            max_severity=max_sev,
            exit_side=open_side,
        )
        excursions.append(record)
        if open_side == "right":
            if config.mode == "severity_threshold" and flag_idx is not None:
                flags.append(
                    DftbFlag(series.link_id, ts[flag_idx], ts[end_idx], flag_sev, flag_minutes, record)
                )
            elif config.mode == "duration_threshold" and minute_count >= config.duration_threshold_min:
                flags.append(
                    DftbFlag(series.link_id, ts[start_idx], ts[end_idx], max_sev, minute_count, record)
                )
        open_side = None
        flag_idx = None
        flag_sev = 0.0
        flag_minutes = 0

    for i in range(len(ts)):
        if not series.usable[i]:
            continue
        if open_side is not None and last_usable is not None:
            missing_run = (ts[i] - last_usable).total_seconds() / 60.0 - 1.0
            if missing_run >= config.gap_termination_min:
                close()
        last_usable = ts[i]
        if series.exterior[i]:
            this_side = series.side[i]
            if open_side is not None and this_side != open_side:
                close()
            if open_side is None:
                open_side = this_side
                start_idx = i
                minute_count = 0
                max_sev = 0.0
            end_idx = i
            minute_count += 1
            max_sev = max(max_sev, float(series.severity[i]))
            if (
                open_side == "right"
                and config.mode == "severity_threshold"
                and flag_idx is None
                and series.severity[i] >= config.severity_threshold
            ):
                flag_idx = i
                flag_sev = float(series.severity[i])
            if flag_idx is not None:
                flag_minutes += 1
        else:
            if open_side is not None:
                close()
    if open_side is not None:
        close()
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
