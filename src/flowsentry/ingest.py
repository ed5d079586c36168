"""Canonical data model and CSV parsing for link time series and event labels.

All timestamps are stored timezone-aware in UTC. Density is a derived proxy
(flow divided by speed) and is marked missing whenever speed is zero or an
input is missing, so downstream consumers never see an infinite density.

``read_series`` is the one series reader. It converts the CSV into per-link
``LinkSeries`` columns a chunk of whole lines at a time. A chunk that plain
comma splitting reads as ``csv.reader`` would (no quote, carriage return or NUL,
and every line with one field per column) is split in bulk; from the first other
chunk on, ``csv.reader`` splits the rest of the file. Both splitters feed one
routine that applies every input check as an array operation over the chunk;
``parse_series`` is a row view over it.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, islice, repeat
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

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
US_PER_MINUTE = 60_000_000
_MICROSECOND = timedelta(microseconds=1)

# Characters of whole lines the reader takes from the file at a time: a chunk's lines and
# cells are all the per-row Python objects alive at once, so a long file is never held as
# rows. Larger chunks save little time and raise each command's peak memory.
_CHUNK_CHARS = 1 << 18
# Rows the reader turns into columns at a time once csv.reader splits the file.
_ROW_BLOCK = 8192


class ParseError(ValueError):
    """Malformed input; carries the 1-based row number when applicable."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class CadenceError(ValueError):
    """A stream whose median sample spacing is not one minute."""


def _range_error(speed: float | None, flow: float | None, travel_time: float | None) -> str | None:
    """Why a reading is out of range, checking speed, flow, travel time and the density
    flow/speed in that order; None if all hold."""
    if speed is not None and not 0.0 <= speed <= SPEED_MAX_KMH:
        return f"speed {speed} outside [0, {SPEED_MAX_KMH}] km/h"
    if flow is not None and not 0.0 <= flow <= FLOW_MAX_VPH:
        return f"flow {flow} outside [0, {FLOW_MAX_VPH}] veh/h"
    if travel_time is not None and not 0.0 <= travel_time < math.inf:
        return f"travel_time {travel_time} not finite and nonnegative"
    if speed is not None and flow is not None and speed > 0 and flow / speed == math.inf:
        return f"density {flow}/{speed} is not finite"
    return None


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
        problem = _range_error(self.speed, self.flow, self.travel_time)
        if problem is not None:
            raise ValueError(problem)
        if self.speed is not None and self.flow is not None and self.speed > 0:
            object.__setattr__(self, "density", self.flow / self.speed)

    @property
    def has_density(self) -> bool:
        return self.density is not None


def to_epoch_us(ts: datetime) -> int:
    """Exact microseconds since the Unix epoch of an aware datetime."""
    return (ts - _EPOCH) // _MICROSECOND


def datetimes(epoch_us) -> list[datetime]:
    """Aware UTC datetimes of integer epoch microseconds (the inverse of ``to_epoch_us``)."""
    return [_EPOCH + timedelta(microseconds=us) for us in np.asarray(epoch_us).tolist()]


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty integer array, as a float: the middle value, or the
    mean of the two middle values. numpy's own call loads ``numpy.ma``."""
    n = values.size
    ordered = np.partition(values, [(n - 1) // 2, n // 2])
    return (float(ordered[(n - 1) // 2]) + float(ordered[n // 2])) / 2


@dataclass(frozen=True)
class LinkSeries:
    """One link's stream as columns, strictly increasing in time.

    ``epoch_us`` holds the exact UTC timestamps as integer microseconds since
    the Unix epoch. The float columns hold NaN where a reading is missing, and
    ``density`` follows from them by the density rule. ``spacing_min`` is the
    median spacing between consecutive samples in minutes (1 for a single
    sample), computed once so that ``require_minute_cadence`` costs nothing.
    """

    link_id: str
    epoch_us: np.ndarray
    speed: np.ndarray
    flow: np.ndarray
    travel_time: np.ndarray
    density: np.ndarray = field(init=False)
    spacing_min: float = field(init=False)

    def __post_init__(self):
        if not len(self.epoch_us):
            raise ValueError("empty stream")
        steps = np.diff(self.epoch_us)
        backwards = np.flatnonzero(steps <= 0)
        if backwards.size:
            at = datetimes(self.epoch_us[[backwards[0] + 1]])[0]
            raise ValueError(f"stream not time-ordered at {format_timestamp(at)}")
        density = np.full(len(self.epoch_us), np.nan)
        with np.errstate(over="ignore"):  # a tiny positive speed overflows; rejected below
            np.divide(self.flow, self.speed, out=density, where=self.speed > 0)
        if np.isinf(density).any():
            raise ValueError(f"link {self.link_id}: flow/speed overflows to an infinite density")
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "spacing_min", _median(steps) / US_PER_MINUTE if steps.size else 1.0)

    @classmethod
    def from_samples(cls, samples: Sequence[TrafficSample]) -> "LinkSeries":
        """Columns of a non-empty, single-link, strictly time-ordered stream."""
        if not samples:
            raise ValueError("empty stream")
        link_id = samples[0].link_id
        for s in samples:
            if s.link_id != link_id:
                raise ValueError(f"stream mixes links {link_id!r} and {s.link_id!r}")
        epoch_us = np.array([to_epoch_us(s.timestamp) for s in samples], dtype=np.int64)
        names = ("speed", "flow", "travel_time")
        return cls(link_id, epoch_us, *(np.array([getattr(s, name) for s in samples], dtype=float) for name in names))

    def __len__(self) -> int:
        return len(self.epoch_us)

    @property
    def minutes(self) -> np.ndarray:
        """Whole epoch minutes: the floor of each timestamp."""
        return self.epoch_us // US_PER_MINUTE

    @property
    def usable(self) -> np.ndarray:
        """Minutes with a density proxy."""
        return ~np.isnan(self.density)

    @property
    def points(self) -> np.ndarray:
        """(density, flow) of the usable minutes, shape (n_usable, 2)."""
        usable = self.usable
        return np.column_stack([self.density[usable], self.flow[usable]])

    def require_minute_cadence(self) -> None:
        """Durations, the gap rule and the false alarm rate count samples as minutes: reject other cadences."""
        if self.spacing_min != 1.0:
            raise CadenceError(f"link {self.link_id}: median sample spacing is {self.spacing_min:g} minutes, not 1")


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


def parse_timestamp(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    raw = text.strip()
    if raw.endswith(("Z", "z")):
        raw = raw[:-1] + "+00:00"
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    try:
        return ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is outside years 1-9999 in UTC") from None


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


# Character positions of the digits and separators of YYYY-MM-DDTHH:MM:SSZ.
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATORS = {4: "-", 7: "-", 10: "T", 13: ":", 16: ":"}


def _parse_stamps(texts: Sequence[str], chars: np.ndarray | None = None) -> tuple[np.ndarray, dict[int, str]]:
    """Epoch microseconds of timestamp fields, and ``parse_timestamp``'s error for each one it rejects.

    A field of the form YYYY-MM-DDTHH:MM:SSZ (or z) that names a valid date and time
    is converted as arrays; any other field goes through ``parse_timestamp``. ``chars``,
    when given, holds the (n, 20) UTF-8 bytes of fields that are all 20 bytes long,
    taken straight from the file.
    """
    n = len(texts)
    if chars is None:
        stripped = list(map(str.strip, texts))
        fast = np.fromiter(map(len, stripped), np.intp, n) == 20
        if fast.any():
            chars = np.array(list(compress(stripped, fast))).view(np.uint32).reshape(-1, 20)
    else:
        fast = np.ones(n, dtype=bool)
    epoch_us = np.zeros(n, dtype=np.int64)
    candidates = np.flatnonzero(fast)
    if candidates.size:
        chars = chars.astype(np.int32)  # code points fit; days below are int64
        digits = chars[:, _DIGITS] - ord("0")
        ok = ((digits >= 0) & (digits <= 9)).all(axis=1)
        for at, separator in _SEPARATORS.items():
            ok &= chars[:, at] == ord(separator)
        ok &= (chars[:, 19] == ord("Z")) | (chars[:, 19] == ord("z"))
        digits[~ok] = 0  # keeps the date arithmetic below in range
        pairs = digits[:, 0::2] * 10 + digits[:, 1::2]  # century, year, month, day, hour, minute, second
        year = pairs[:, 0] * 100 + pairs[:, 1]
        month, day, hour, minute, second = pairs[:, 2:].T
        first_of_month = ((year - 1970) * 12 + month - 1).astype("datetime64[M]").astype("datetime64[D]")
        month_days = ((first_of_month.astype("datetime64[M]") + 1).astype("datetime64[D]") - first_of_month).astype(int)
        ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
        ok &= (hour <= 23) & (minute <= 59) & (second <= 59)
        days = first_of_month.astype(np.int64) + day - 1
        epoch_us[candidates[ok]] = ((((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000)[ok]
        fast[candidates] = ok
    problems = {}
    for i in np.flatnonzero(~fast).tolist():
        try:
            epoch_us[i] = to_epoch_us(parse_timestamp(texts[i]))
        except ValueError as exc:
            problems[i] = str(exc)
    return epoch_us, problems


def _parse_floats(texts: Sequence[str], what: str) -> tuple[np.ndarray, np.ndarray, dict[int, str]]:
    """Values of one numeric field (NaN where the cell is blank), which cells are not blank,
    and the error of each cell that is not a number."""
    n = len(texts)
    try:  # float strips the whitespace str.strip does, and rejects a blank cell
        return np.fromiter(map(float, texts), float, n), np.ones(n, dtype=bool), {}
    except ValueError:
        pass
    stripped = list(map(str.strip, texts))
    present = np.fromiter(map(len, stripped), np.intp, n) > 0
    values = np.full(n, np.nan)
    problems = {}
    try:
        values[present] = np.fromiter(map(float, compress(stripped, present)), float, int(present.sum()))
    except ValueError:
        for i in np.flatnonzero(present).tolist():
            try:
                values[i] = float(stripped[i])
            except ValueError:
                problems[i] = f"{what} {stripped[i]!r} is not numeric"
    return values, present, problems


def _mask(rows: Iterable[int], n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[list(rows)] = True
    return mask


class _SeriesReader:
    """Converts a series CSV one chunk of rows at a time, carrying each link's last
    timestamp from chunk to chunk for the duplicate and monotonicity checks."""

    def __init__(self, width: int):
        self.width = width
        self.links: dict[str, int] = {}  # link id -> code, in order of first appearance
        self.last_us = np.zeros(0, dtype=np.int64)
        self.seen = np.zeros(0, dtype=bool)

    def bulk(self, text: str, first_row: int) -> list[np.ndarray] | None:
        """The columns of whole lines split at every comma, or None when ``csv.reader``
        could split them otherwise: a quote, carriage return or NUL, a line without one
        field per column (a blank line, a wrong field count or no final newline), or a
        field longer than csv's field size limit."""
        if text[-1:] != "\n" or '"' in text or "\r" in text or "\0" in text:
            return None
        data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))  # the separator after each field
        if ends.size % self.width:
            return None
        newline = (data[ends] == ord("\n")).reshape(-1, self.width)
        if newline[:, :-1].any() or not newline[:, -1].all():
            return None
        if np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit():  # UTF-8 bytes, never fewer than characters
            return None
        ends = ends.reshape(-1, self.width)
        stamp_chars = None
        if (ends[:, 1] - ends[:, 0] == 21).all():  # every timestamp field is 20 bytes
            stamp_chars = data[ends[:, :1] + np.arange(1, 21)]
        cells = text[:-1].replace("\n", ",").split(",")
        fields = [cells[k :: self.width] for k in range(self.width)]
        return self.columns(fields, first_row + np.arange(len(ends)), stamp_chars)

    def rows(self, rows: list[list[str]], first_row: int) -> list[np.ndarray]:
        """The columns of rows split by ``csv.reader``, whose blank rows are skipped but keep
        their row numbers; a row with the wrong field count fails after the rows before it."""
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        nonblank = np.flatnonzero(lengths)
        wrong_width = np.flatnonzero(lengths[nonblank] != self.width)
        at = nonblank[: wrong_width[0]] if wrong_width.size else nonblank  # rows before it are checked first
        fields = list(zip(*map(rows.__getitem__, at.tolist()))) or [()] * self.width
        columns = self.columns(fields, first_row + at)
        if wrong_width.size:
            row = int(nonblank[wrong_width[0]])
            raise ParseError(f"expected {self.width} fields, got {lengths[row]}", first_row + row)
        return columns

    def columns(
        self, fields: Sequence[Sequence[str]], rows: np.ndarray, stamp_chars: np.ndarray | None = None
    ) -> list[np.ndarray]:
        """(link code, epoch_us, speed, flow, travel_time) of the cells of each field, or a
        ParseError at the earliest bad one, naming its file row (``rows``) and first failed
        check. ``stamp_chars`` is ``_parse_stamps``'s ``chars``."""
        n = rows.size
        ids = fields[0]
        epoch_us, stamp_problems = _parse_stamps(fields[1], stamp_chars)
        numbers = [_parse_floats(texts, what) for texts, what in zip(fields[2:], ("speed", "flow", "travel_time"))]
        if self.width == 4:
            numbers.append((np.full(n, np.nan), np.zeros(n, dtype=bool), {}))
        (speed, has_speed, _), (flow, has_flow, _), (travel_time, has_tt, _) = numbers

        if n and ids[0] and ids[0] == ids[0].strip() and ids.count(ids[0]) == n:  # one unpadded link
            blank_id = np.zeros(n, dtype=bool)
            code = np.full(n, self.links.setdefault(ids[0], len(self.links)), dtype=np.intp)
        else:
            ids = list(map(str.strip, ids))
            blank_id = np.fromiter(map(len, ids), np.intp, n) == 0
            for link in dict.fromkeys(ids):
                self.links.setdefault(link, len(self.links))
            code = np.fromiter(map(self.links.__getitem__, ids), np.intp, n)
        grow = len(self.links) - self.last_us.size
        self.last_us = np.append(self.last_us, np.zeros(grow, dtype=np.int64))
        self.seen = np.append(self.seen, np.zeros(grow, dtype=bool))
        order = np.argsort(code, kind="stable")
        c, t = code[order], epoch_us[order]
        first = np.ones(n, dtype=bool)
        first[1:] = c[1:] != c[:-1]
        prev = np.empty_like(t)
        prev[1:] = t[:-1]
        prev[first] = self.last_us[c[first]]
        has_prev = ~first
        has_prev[first] = self.seen[c[first]]
        step = np.empty_like(t)
        step[order] = t - prev
        follows = np.empty(n, dtype=bool)
        follows[order] = has_prev

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            infinite_density = (speed > 0.0) & (flow / speed == np.inf)
        out_of_range = (
            (has_speed & ~((speed >= 0.0) & (speed <= SPEED_MAX_KMH)))
            | (has_flow & ~((flow >= 0.0) & (flow <= FLOW_MAX_VPH)))
            | (has_tt & ~((travel_time >= 0.0) & (travel_time < np.inf)))
            | infinite_density
        )

        def stamp(i: int) -> str:
            return format_timestamp(datetimes(epoch_us[i : i + 1])[0])

        def range_error(i: int) -> str | None:
            return _range_error(*(values[i].item() if present[i] else None for values, present, _ in numbers))

        checks = [  # in the order a row's checks apply
            (blank_id, lambda i: "empty link_id"),
            (_mask(stamp_problems, n), stamp_problems.get),
            *((_mask(problems, n), problems.get) for _, _, problems in numbers),
            (follows & (step == 0), lambda i: f"duplicate timestamp {stamp(i)} for link {ids[i]}"),
            (follows & (step < 0), lambda i: f"non-monotone timestamp {stamp(i)} for link {ids[i]}"),
            (out_of_range, range_error),
        ]
        failing = np.logical_or.reduce([mask for mask, _ in checks])
        if failing.any():
            i = int(np.argmax(failing))
            raise ParseError(next(describe(i) for mask, describe in checks if mask[i]), int(rows[i]))

        last = np.ones(n, dtype=bool)
        last[:-1] = first[1:]
        self.last_us[c[last]] = t[last]
        self.seen[c[last]] = True
        return [code, epoch_us, speed, flow, travel_time]


def _read_columns(source) -> tuple[list[str], list[np.ndarray]]:
    """Link ids in order of first appearance, and the (link code, epoch_us, speed, flow,
    travel_time) columns of the data rows in file order."""
    with open_text(source) as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise ParseError("empty input, expected a header row", 1)
        header = [h.strip() for h in header]
        if header not in (SERIES_HEADER, SERIES_HEADER[:4]):
            raise ParseError(f"unexpected header {header!r}", 1)
        state = _SeriesReader(len(header))
        blocks = []
        first_row = 2
        # readlines splits lines as the handle does (a newline="" file also at a lone \r),
        # so csv.reader gets the same lines from a chunk as from the handle itself
        while lines := handle.readlines(_CHUNK_CHARS):
            block = state.bulk("".join(lines), first_row)
            if block is None:
                reader = csv.reader(chain(lines, handle))
                while rows := list(islice(reader, _ROW_BLOCK)):
                    blocks.append(state.rows(rows, first_row))
                    first_row += len(rows)
                break
            blocks.append(block)
            first_row += len(lines)
    if not blocks:
        blocks.append(state.rows([], first_row))
    return list(state.links), [np.concatenate(parts) for parts in zip(*blocks)]


def read_series(source) -> dict[str, LinkSeries]:
    """Parse a link time-series CSV into one ``LinkSeries`` per link, in order of first appearance.

    The header must be ``link_id,timestamp,speed_kmh,flow_vph`` with an
    optional trailing ``travel_time_s`` column. Empty cells mark missing
    readings. Timestamps are RFC 3339 with a UTC offset and must be strictly
    increasing per link. Gaps are kept as gaps (no imputation). A malformed
    input raises ``ParseError`` naming its earliest bad row (the header is row
    1 and blank rows count) and that row's first failed check, in the order:
    field count, link id, timestamp, speed, flow and travel time numeric,
    duplicate and non-monotone timestamp, then value ranges.

    The file is read as chunks of whole lines of about ``_CHUNK_CHARS``
    characters. A chunk with no quote, carriage return, NUL or blank line, and
    one field per column on every line, is split at its commas in bulk; from the
    first other chunk on, ``csv.reader`` splits the rest. Either way the columns,
    the error and its row are those ``csv.reader`` alone would give.
    """
    links, (code, *columns) = _read_columns(source)
    order = np.argsort(code, kind="stable")
    counts = np.bincount(code, minlength=len(links))
    ends = np.cumsum(counts)
    starts = ends - counts
    return {
        link: LinkSeries(link, *(column[order[a:b]] for column in columns))
        for link, a, b in zip(links, starts.tolist(), ends.tolist())
    }


def parse_series(source) -> list[TrafficSample]:
    """The rows of a link time-series CSV as samples, in file order.

    ``read_series`` reads and checks the file; blank cells become None.
    """
    links, (code, epoch_us, *values) = _read_columns(source)
    cells = [[None if v != v else v for v in column.tolist()] for column in values]
    return [
        TrafficSample(links[c], ts, speed, flow, travel_time)
        for c, ts, speed, flow, travel_time in zip(code.tolist(), datetimes(epoch_us), *cells)
    ]


def _format_stamps(epoch_us: np.ndarray) -> np.ndarray:
    """``format_timestamp`` of each epoch microsecond value."""
    at = epoch_us.astype("datetime64[us]")
    whole = epoch_us % 1_000_000 == 0  # isoformat leaves out a zero fraction
    return np.char.add(np.where(whole, np.datetime_as_string(at, unit="s"), np.datetime_as_string(at, unit="us")), "Z")


def write_series(stream: LinkSeries, sink) -> None:
    """Write one link's stream in the canonical series CSV schema (UTF-8, RFC 3339);
    NaN readings are written as empty cells."""
    cells = []
    for column in (stream.speed, stream.flow, stream.travel_time):
        text = list(map(repr, column.tolist()))
        for i in np.flatnonzero(np.isnan(column)).tolist():
            text[i] = ""
        cells.append(text)
    # Only the link id can need quoting: repr floats, RFC 3339 stamps and empty cells never
    # do in a row of several fields. csv quotes it as the first cell of such a row.
    link = io.StringIO()
    csv.writer(link, lineterminator="\n").writerow([stream.link_id, ""])
    link_cell = link.getvalue()[:-1]  # with its comma
    stamps = _format_stamps(stream.epoch_us).tolist()
    with open_text(sink, "w") as handle:
        handle.write(",".join(SERIES_HEADER) + "\n")
        handle.writelines(map("{}{},{},{},{}\n".format, repeat(link_cell), stamps, *cells))


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
