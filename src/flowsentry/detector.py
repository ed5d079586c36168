"""Excursion segmentation, severity scoring, and DFTB flag emission.

One stream covers one link, in strictly increasing time order, and is scored
against a region from ``levelset.fit_region``, whose normaliser divides every
boundary distance into a severity. A sample is usable when its density proxy
exists. ``annotate`` queries the region once for the usable minutes and
returns the stream's excursions as arrays: the timestamps, severities and
sides of the usable exterior minutes, split into runs. Flags of either mode
are reductions over those excursions. Unusable minutes never start or end an
excursion on their own, but once the run of missing minutes between two
usable minutes reaches the gap-termination length, an excursion ends at its
last observed minute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .ingest import LinkSeries, ParseError, format_stamps, format_timestamp, parse_timestamp, read_table, write_table
from .levelset import TypicalRegion, contains_many, distances_and_sides

# A missing run of at least this many minutes ends an excursion.
GAP_TERMINATION_MIN = 2

FLAGS_HEADER = ["link_id", "start", "end", "duration_min", "max_severity", "exit_side", "flagged"]


@dataclass(frozen=True)
class DetectorConfig:
    """One flag rule: ``mode`` is ``"severity"`` or ``"duration"``, and ``threshold`` the
    severity or the number of minutes an excursion must reach to raise a flag."""

    mode: str
    threshold: float

    def __post_init__(self):
        if self.mode not in ("severity", "duration"):
            raise ValueError(f"unknown detector mode {self.mode!r}")
        if not self.threshold >= 0:
            raise ValueError(f"{self.mode} threshold must be nonnegative")


@dataclass(frozen=True)
class FlagRow:
    """One row of the excursion/flag CSV schema.

    An excursion row is one atypical episode on a single side of the boundary,
    ``flagged`` if it raised a flag. A flag row is its excursion's row with the
    flag onset as ``start_us`` and the flagged minutes as ``duration_min``. Both
    instants are epoch microseconds.
    """

    link_id: str
    start_us: int
    end_us: int
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
        if self.end_us < self.start_us:
            raise ValueError(f"end {format_timestamp(self.end_us)} precedes start {format_timestamp(self.start_us)}")


@dataclass(frozen=True)
class Excursions:
    """One link's excursions as parallel arrays, in time order.

    ``at_us`` are the timestamps of the stream's usable exterior minutes and
    ``severity`` their severities; excursion k covers
    ``at_us[first[k]:first[k] + duration[k]]``.
    """

    link_id: str
    at_us: np.ndarray
    severity: np.ndarray
    first: np.ndarray
    duration: np.ndarray
    max_severity: np.ndarray
    right: np.ndarray  # exit side is "right"

    @property
    def last(self) -> np.ndarray:
        """The position in ``at_us`` of each excursion's last minute."""
        return self.first + self.duration - 1

    def onsets(self, thresholds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every (threshold, excursion) pair where a right-side excursion reaches the
        threshold: the index of the threshold, the excursion, and the position in
        ``at_us`` of its first minute at or above the threshold; by threshold, then time."""
        if not self.first.size:
            return self.first, self.first, self.first
        at_or_above = self.severity >= np.asarray(thresholds, dtype=float)[:, None]
        hit = np.where(at_or_above, np.arange(self.at_us.size), self.at_us.size)
        onset = np.minimum.reduceat(hit, self.first, axis=1)
        point, flagged = np.nonzero(self.right & (onset < self.first + self.duration))
        return point, flagged, onset[point, flagged]


def annotate(stream: LinkSeries, region: TypicalRegion) -> Excursions:
    """The excursions of one link's minute stream outside ``region``.

    A usable exterior minute starts a new excursion when the previous usable
    minute was interior (or there is none), when its exit side differs from
    that minute's, or when the missing run between the two, measured on the
    exact timestamps, is at least ``GAP_TERMINATION_MIN`` minutes. Unusable
    minutes count only through that gap, so durations count usable exterior
    minutes, not the wall-clock span.
    """
    stream.require_minute_cadence()
    usable = stream.usable
    points = stream.points
    position = np.flatnonzero(~contains_many(region, points))  # among the usable minutes
    distances, sides = distances_and_sides(region, points[position])
    del points
    severity = distances / region.max_training_distance
    right = sides == "right"
    at_us = stream.epoch_us[usable][position]
    joined = np.flatnonzero((np.diff(position) == 1) & (right[1:] == right[:-1])) + 1
    continues = np.zeros(position.size, dtype=bool)
    continues[joined] = (at_us[joined] - at_us[joined - 1]) / 1e6 / 60.0 - 1.0 < GAP_TERMINATION_MIN
    first = np.flatnonzero(~continues)
    duration = np.diff(np.append(first, position.size))
    max_severity = np.maximum.reduceat(severity, first) if first.size else severity
    return Excursions(stream.link_id, at_us, severity, first, duration, max_severity, right[first])


def track_annotated(found: Excursions, config: DetectorConfig) -> tuple[list[FlagRow], list[FlagRow]]:
    """Excursion rows of a stream's excursions and the flag rows ``config`` raises.

    Left-side excursions are recorded but never flagged. In severity mode a
    flag opens at the first minute at or above the threshold and persists to
    the excursion's end; in duration mode the flag is retroactive and covers
    the whole excursion when it lasted long enough.
    """
    if config.mode == "duration":
        chosen = np.flatnonzero(found.right & (found.duration >= config.threshold))
        onset = found.first[chosen]
    else:
        _, chosen, onset = found.onsets([config.threshold])
    raised = np.zeros(found.first.size, dtype=bool)
    raised[chosen] = True
    at = found.at_us
    columns = (c.tolist() for c in (found.duration, found.max_severity, found.right, raised))
    excursions = [
        FlagRow(found.link_id, a, b, d, m, "right" if r else "left", f)
        for a, b, d, m, r, f in zip(at[found.first].tolist(), at[found.last].tolist(), *columns)
    ]
    flagged_min = found.first[chosen] + found.duration[chosen] - onset
    flags = [
        replace(excursions[k], start_us=a, duration_min=m)
        for k, a, m in zip(chosen.tolist(), at[onset].tolist(), flagged_min.tolist())
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
    rows = list(rows)
    starts = format_stamps([r.start_us for r in rows])
    ends = format_stamps([r.end_us for r in rows])
    cells = (
        (r.link_id, a, b, r.duration_min, repr(r.max_severity), r.exit_side, "true" if r.flagged else "false")
        for r, a, b in zip(rows, starts, ends)
    )
    write_table(sink, FLAGS_HEADER, cells)


def read_flags_csv(source) -> list[FlagRow]:
    """The rows of an excursion or flag CSV (see ``read_table``). A row that breaks a
    ``FlagRow`` invariant raises ``ParseError`` naming it."""
    flags = []
    for row, cells in read_table(source, FLAGS_HEADER):
        try:
            flags.append(_flag_row(cells))
        except ValueError as exc:
            raise ParseError(str(exc), row) from None
    return flags


def _flag_row(cells: list[str]) -> FlagRow:
    link_id, start, end, minutes, peak, exit_side, flag = cells
    if flag not in ("true", "false"):
        raise ValueError(f"flagged {flag!r} is neither 'true' nor 'false'")
    try:
        numbers = int(minutes), float(peak)
    except ValueError:
        raise ValueError(f"duration_min {minutes!r} must be an integer, max_severity {peak!r} a number") from None
    return FlagRow(link_id, parse_timestamp(start), parse_timestamp(end), *numbers, exit_side, flag == "true")
