"""Canonical data model and CSV parsing for link time series and event labels.

All timestamps are stored timezone-aware in UTC. Density is a derived proxy
(flow divided by speed) and is marked missing whenever speed is zero or an
input is missing, so downstream consumers never see an infinite density.
"""

from __future__ import annotations

import csv
import io
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

SPEED_MAX_KMH = 250.0
FLOW_MAX_VPH = 12000.0

EVENT_CATEGORIES = frozenset(
    {
        "accident",
        "obstruction",
        "breakdown",
        "deviation_from_profile",
        "roadworks",
        "weather",
        "other",
    }
)

# Categories that do not count as non-recurrent congestion events.
RECURRENT_CATEGORIES = frozenset({"roadworks", "weather"})

SERIES_HEADER = ["link_id", "timestamp", "speed_kmh", "flow_vph", "travel_time_s"]
EVENTS_HEADER = ["link_id", "category", "start", "end"]


class ParseError(ValueError):
    """Malformed input; carries the 1-based row number when applicable."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class TrafficSample:
    """One minute-resolution link observation.

    ``density`` (veh/km) is derived as flow/speed when speed is positive and
    both inputs are present, otherwise it is None ("missing").
    """

    link_id: str
    timestamp: datetime
    speed: float | None
    flow: float | None
    travel_time: float | None = None
    density: float | None = field(init=False, default=None)

    def __post_init__(self):
        if self.timestamp.tzinfo is None:
            raise ValueError("timestamp must be timezone-aware")
        object.__setattr__(self, "timestamp", self.timestamp.astimezone(timezone.utc))
        if self.speed is not None and not 0.0 <= self.speed <= SPEED_MAX_KMH:
            raise ValueError(f"speed {self.speed} outside [0, {SPEED_MAX_KMH}] km/h")
        if self.flow is not None and not 0.0 <= self.flow <= FLOW_MAX_VPH:
            raise ValueError(f"flow {self.flow} outside [0, {FLOW_MAX_VPH}] veh/h")
        if self.travel_time is not None and self.travel_time < 0:
            raise ValueError(f"travel_time {self.travel_time} negative")
        if self.speed is not None and self.flow is not None and self.speed > 0:
            object.__setattr__(self, "density", self.flow / self.speed)

    @property
    def has_density(self) -> bool:
        return self.density is not None


@dataclass(frozen=True)
class LinkSeries:
    """One link's stream as columns: whole epoch minutes (the floor of each UTC
    timestamp), and float columns that hold NaN where the sample's value is missing."""

    link_id: str
    timestamps: tuple[datetime, ...]
    minutes: np.ndarray
    speed: np.ndarray
    flow: np.ndarray
    density: np.ndarray
    travel_time: np.ndarray

    @classmethod
    def from_samples(cls, samples: Sequence[TrafficSample]) -> "LinkSeries":
        """Columns of a non-empty, single-link, strictly time-ordered stream."""
        if not samples:
            raise ValueError("empty stream")
        link_id = samples[0].link_id
        timestamps = tuple(s.timestamp for s in samples)
        for s, prev in zip(samples[1:], timestamps):
            if s.link_id != link_id:
                raise ValueError(f"stream mixes links {link_id!r} and {s.link_id!r}")
            if s.timestamp <= prev:
                raise ValueError(f"stream not time-ordered at {format_timestamp(s.timestamp)}")
        minutes = (np.array([ts.timestamp() for ts in timestamps]) // 60).astype(np.int64)
        names = ("speed", "flow", "density", "travel_time")
        columns = [np.array([getattr(s, name) for s in samples], dtype=float) for name in names]
        return cls(link_id, timestamps, minutes, *columns)

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def usable(self) -> np.ndarray:
        """Minutes with a density proxy."""
        return ~np.isnan(self.density)

    @property
    def points(self) -> np.ndarray:
        """(density, flow) of the usable minutes, shape (n_usable, 2)."""
        usable = self.usable
        return np.column_stack([self.density[usable], self.flow[usable]])


@dataclass(frozen=True)
class LinkMeta:
    """Static link attributes; lengths outside the expected range warn."""

    link_id: str
    length_m: float
    location_label: str = ""

    def __post_init__(self):
        if self.length_m <= 0:
            raise ValueError(f"link length {self.length_m} must be positive")
        if not 200.0 <= self.length_m <= 10000.0:
            warnings.warn(
                f"link {self.link_id}: length {self.length_m} m outside the expected 200-10000 m range",
                stacklevel=2,
            )


@dataclass(frozen=True)
class EventLabel:
    """A labelled event interval on a link."""

    link_id: str
    category: str
    start: datetime
    end: datetime

    def __post_init__(self):
        if self.category not in EVENT_CATEGORIES:
            raise ValueError(f"unknown event category {self.category!r}")
        if self.start.tzinfo is None or self.end.tzinfo is None:
            raise ValueError("event instants must be timezone-aware")
        object.__setattr__(self, "start", self.start.astimezone(timezone.utc))
        object.__setattr__(self, "end", self.end.astimezone(timezone.utc))
        if self.end < self.start:
            raise ValueError(f"event end {self.end.isoformat()} precedes start {self.start.isoformat()}")

    @property
    def duration_minutes(self) -> float:
        return (self.end - self.start).total_seconds() / 60.0


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    return ts.astimezone(timezone.utc)


def format_timestamp(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


@contextmanager
def open_text(target, mode: str = "r") -> Iterator[IO[str]]:
    """A UTF-8 text handle on ``target``, without newline translation.

    A path is opened with ``mode`` and closed on exit. When reading, bytes and
    binary file-like objects are decoded; any other handle is used as is and
    left open.
    """
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding="utf-8", newline="") as handle:
            yield handle
    elif mode == "r" and isinstance(target, bytes):
        yield io.StringIO(target.decode("utf-8"))
    elif mode == "r" and not isinstance(target, io.TextIOBase):
        yield io.TextIOWrapper(target, encoding="utf-8", newline="")
    else:
        yield target


def _optional_float(text: str, what: str, row: int) -> float | None:
    text = text.strip()
    if text == "":
        return None
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not numeric", row) from None
    return value


def parse_series(source) -> list[TrafficSample]:
    """Parse a link time-series CSV into samples.

    The header must be ``link_id,timestamp,speed_kmh,flow_vph`` with an
    optional trailing ``travel_time_s`` column. Empty speed/flow cells mark
    missing readings. Timestamps must be strictly increasing per link;
    duplicates are rejected with the offending row number. Gaps are kept as
    gaps (no imputation).
    """
    with open_text(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input, expected a header row", 1)
        header = [h.strip() for h in header]
        if header not in (SERIES_HEADER, SERIES_HEADER[:4]):
            raise ParseError(f"unexpected header {header!r}", 1)
        has_tt = len(header) == 5

        samples: list[TrafficSample] = []
        last_seen: dict[str, datetime] = {}
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", row_no)
            link_id = row[0].strip()
            if not link_id:
                raise ParseError("empty link_id", row_no)
            try:
                ts = parse_timestamp(row[1])
            except ValueError as exc:
                raise ParseError(str(exc), row_no) from None
            speed = _optional_float(row[2], "speed", row_no)
            flow = _optional_float(row[3], "flow", row_no)
            travel_time = _optional_float(row[4], "travel_time", row_no) if has_tt else None
            prev = last_seen.get(link_id)
            if prev is not None:
                if ts == prev:
                    raise ParseError(f"duplicate timestamp {format_timestamp(ts)} for link {link_id}", row_no)
                if ts < prev:
                    raise ParseError(
                        f"non-monotone timestamp {format_timestamp(ts)} for link {link_id}", row_no
                    )
            last_seen[link_id] = ts
            try:
                samples.append(TrafficSample(link_id, ts, speed, flow, travel_time))
            except ValueError as exc:
                raise ParseError(str(exc), row_no) from None
        return samples


def write_series(samples: Iterable[TrafficSample], sink) -> None:
    """Write samples in the canonical series CSV schema (UTF-8, RFC 3339)."""
    with open_text(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SERIES_HEADER)
        for s in samples:
            writer.writerow(
                [
                    s.link_id,
                    format_timestamp(s.timestamp),
                    _format_value(s.speed),
                    _format_value(s.flow),
                    _format_value(s.travel_time),
                ]
            )


def _format_value(value: float | None) -> str:
    if value is None:
        return ""
    return repr(value)


def parse_events(source) -> list[EventLabel]:
    """Parse an event-label CSV; unknown categories map to ``other`` with a warning."""
    with open_text(source) as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty input, expected a header row", 1)
        if [h.strip() for h in header] != EVENTS_HEADER:
            raise ParseError(f"unexpected header {header!r}", 1)
        labels: list[EventLabel] = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 fields, got {len(row)}", row_no)
            link_id = row[0].strip()
            category = row[1].strip().lower()
            if category not in EVENT_CATEGORIES:
                warnings.warn(f"row {row_no}: unknown category {category!r} mapped to 'other'", stacklevel=2)
                category = "other"
            try:
                start = parse_timestamp(row[2])
                end = parse_timestamp(row[3])
                labels.append(EventLabel(link_id, category, start, end))
            except ValueError as exc:
                raise ParseError(str(exc), row_no) from None
        return labels


def write_events(labels: Iterable[EventLabel], sink) -> None:
    with open_text(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(EVENTS_HEADER)
        for label in labels:
            writer.writerow(
                [label.link_id, label.category, format_timestamp(label.start), format_timestamp(label.end)]
            )


def nonrecurrent_filter(labels: Sequence[EventLabel]) -> list[EventLabel]:
    """Drop roadworks and weather labels, which are not non-recurrent congestion."""
    return [label for label in labels if label.category not in RECURRENT_CATEGORIES]


def by_link(samples: Iterable[TrafficSample]) -> dict[str, list[TrafficSample]]:
    """Group samples by link, preserving the per-link time order."""
    grouped: dict[str, list[TrafficSample]] = {}
    for s in samples:
        grouped.setdefault(s.link_id, []).append(s)
    return grouped
