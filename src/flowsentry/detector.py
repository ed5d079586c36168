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
import math
from dataclasses import dataclass, replace
from datetime import datetime
from typing import Iterable, Sequence

import numpy as np

from .ingest import LinkSeries, ParseError, TrafficSample, datetimes, format_timestamp, open_text, parse_timestamp
from .levelset import (
    TypicalRegion,
    contains,
    contains_many,
    distance_to_boundary,
    distances_and_sides,
    distances_to_boundary,
    with_normalizer,
)

# A missing run of at least this many minutes ends an excursion.
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


@dataclass(frozen=True)
class FlagRow:
    """One row of the excursion/flag CSV schema.

    An excursion row is one atypical episode on a single side of the boundary,
    ``flagged`` if it raised a flag. A flag row is its excursion's row with the
    flag onset as ``start`` and the flagged minutes as ``duration_min``.
    """

    link_id: str
    start: datetime
    end: datetime
    duration_min: int
    max_severity: float
    exit_side: str
    flagged: bool

    def __post_init__(self):
        if not self.link_id:
            raise ValueError("link_id is empty")
        if self.duration_min < 1:
            raise ValueError(f"duration {self.duration_min} must be at least one minute")
        if not 0.0 < self.max_severity < math.inf:
            raise ValueError(f"max severity {self.max_severity} must be positive and finite")
        if self.exit_side not in ("left", "right"):
            raise ValueError(f"bad exit side {self.exit_side!r}")
        if self.flagged and self.exit_side != "right":
            raise ValueError("flags are only raised for right-side excursions")
        if self.end < self.start:
            raise ValueError(f"end {format_timestamp(self.end)} precedes start {format_timestamp(self.start)}")


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
) -> tuple[list[FlagRow], list[FlagRow]]:
    """Excursion and flag rows of a stream; see ``segment`` and ``track_annotated``."""
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

    def onsets(self, thresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (threshold, excursion) pair where a right-side excursion reaches the
        threshold: the index of the threshold, the excursion, and the position in
        ``rows`` of its first minute at or above the threshold; by threshold, then time."""
        if not self.first.size:
            return self.first, self.first, self.first
        at_or_above = self.severity >= np.asarray(thresholds, dtype=float)[:, None]
        hit = np.where(at_or_above, np.arange(self.rows.size), self.rows.size)
        onset = np.minimum.reduceat(hit, self.first, axis=1)
        point, flagged = np.nonzero(self.right & (onset < self.first + self.duration))
        return point, flagged, onset[point, flagged]


def segment(series: SeveritySeries) -> Excursions:
    """Split the usable exterior minutes into excursions.

    A usable exterior minute starts a new excursion when the previous usable
    minute was interior (or there is none), when its exit side differs from
    that minute's, or when the missing run between the two, measured on the
    exact timestamps, is at least ``GAP_TERMINATION_MIN`` minutes. Unusable
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
    continues[joined] = waited_us / 1e6 / 60.0 - 1.0 < GAP_TERMINATION_MIN
    first = np.flatnonzero(~continues)
    severity = series.severity[rows]
    duration = np.diff(np.append(first, rows.size))
    max_severity = np.maximum.reduceat(severity, first) if first.size else severity
    return Excursions(rows, severity, first, duration, max_severity, right[first])


def track_annotated(series: SeveritySeries, config: DetectorConfig) -> tuple[list[FlagRow], list[FlagRow]]:
    """Excursion rows of an annotated stream and the flag rows ``config`` raises.

    Left-side excursions are recorded but never flagged. In severity mode a
    flag opens at the first minute at or above the threshold and persists to
    the excursion's end; in duration mode the flag is retroactive and covers
    the whole excursion when it lasted long enough.
    """
    found = segment(series)
    if config.mode == "duration_threshold":
        chosen = np.flatnonzero(found.right & (found.duration >= config.duration_threshold_min))
        onset = found.first[chosen]
    else:
        _, chosen, onset = found.onsets([config.severity_threshold])
    raised = np.zeros(found.first.size, dtype=bool)
    raised[chosen] = True
    at = series.epoch_us
    columns = (c.tolist() for c in (found.duration, found.max_severity, found.right, raised))
    excursions = [
        FlagRow(series.link_id, a, b, d, m, "right" if r else "left", f)
        for a, b, d, m, r, f in zip(datetimes(at[found.start]), datetimes(at[found.end]), *columns)
    ]
    flagged_min = found.first[chosen] + found.duration[chosen] - onset
    flags = [
        replace(excursions[k], start=a, duration_min=m)
        for k, a, m in zip(chosen.tolist(), datetimes(at[found.rows[onset]]), flagged_min.tolist())
    ]
    return excursions, flags


def duration_threshold_from_percentile(durations: Sequence[float], percentile: float) -> float:
    """Empirical nearest-rank percentile of training excursion durations."""
    if len(durations) < 10:
        raise ValueError(f"need at least 10 training excursions, got {len(durations)}")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError(f"percentile {percentile} outside [0, 100]")
    ordered = sorted(durations)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def write_excursions_csv(rows: Iterable[FlagRow], sink) -> None:
    """Write excursion or flag rows in the shared CSV schema."""
    with open_text(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(FLAGS_HEADER)
        writer.writerows(
            (r.link_id, format_timestamp(r.start), format_timestamp(r.end), r.duration_min, repr(r.max_severity),
             r.exit_side, "true" if r.flagged else "false")
            for r in rows
        )


def write_flags_csv(rows: Iterable[FlagRow], sink) -> None:
    """The flag file ``detect`` writes: ``write_excursions_csv`` of the flag rows."""
    write_excursions_csv(rows, sink)


def read_flags_csv(source) -> list[FlagRow]:
    """The rows of an excursion or flag CSV. A malformed row, or one that breaks a ``FlagRow``
    invariant, raises ``ParseError`` naming it (the header is row 1 and blank rows count)."""
    with open_text(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != FLAGS_HEADER:
            raise ParseError(f"unexpected flags header {header!r}", 1)
        rows = []
        for row_no, cells in enumerate(reader, start=2):
            if cells:
                try:
                    rows.append(_flag_row(cells))
                except ValueError as exc:
                    raise ParseError(str(exc), row_no) from None
        return rows


def _flag_row(cells: list[str]) -> FlagRow:
    if len(cells) != len(FLAGS_HEADER):
        raise ValueError(f"expected {len(FLAGS_HEADER)} fields, got {len(cells)}")
    link_id, start, end, minutes, peak, exit_side, flag = cells
    if flag not in ("true", "false"):
        raise ValueError(f"flagged {flag!r} is neither 'true' nor 'false'")
    try:
        numbers = int(minutes), float(peak)
    except ValueError:
        raise ValueError(f"duration_min {minutes!r} must be an integer, max_severity {peak!r} a number") from None
    return FlagRow(link_id, parse_timestamp(start), parse_timestamp(end), *numbers, exit_side, flag == "true")
