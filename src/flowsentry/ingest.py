"""Canonical data model and CSV parsing for link time series and small tables.

Every instant is an int of microseconds since the Unix epoch, from the text a
reader parses (``parse_timestamp``) to the text a writer formats
(``format_stamps``). Density is a derived proxy (flow divided by speed) and is
marked missing whenever speed is zero or an input is missing, so downstream
consumers never see an infinite density.

``read_series`` is the one series reader. It converts the CSV into per-link
``LinkSeries`` columns a chunk of whole lines at a time. A chunk that plain
comma splitting reads as ``csv.reader`` would (no quote, lone carriage return
or NUL, and every line with one field per column) is split in bulk; from the
first other chunk on, ``csv.reader`` splits the rest of the file. Both splitters
feed one routine that applies every input check as an array operation over the
chunk and writes its values straight into the output columns, so a read holds
the columns and one chunk; ``parse_series`` is a row view over it. Readers
skip a byte order mark that opens a file, and write nothing.

``read_table`` and ``write_table`` are the one reader and writer of every other
table: event labels, excursions and flags, calibration sweeps, Table 1 and its report.

``write_sidecar`` and ``read_sidecar`` hold ``read_series``' columns in the
binary file that the command line keeps beside a series file, so that it parses
the same bytes once.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
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
# rows. Measured on a 2-vCPU Xeon (Python 3.11, numpy 2.4, no bytecode cache): what a read
# of the 40,320-minute live link adds to the resident set after imports, the highest peak
# of the five operating commands on that link, and the median in-process read of the live
# and the 6-week (60,480-row) links, alternated 40 and 30 times with the reader that
# concatenated blocks (2^18 chunks: 7.3 MiB, 39.2 MiB, 67 and 140 ms):
#
#   chunk   read adds   command peak   live read   6-week read
#   2^15    2.5 MiB     35.5 MiB       77 ms       171 ms
#   2^16    2.9 MiB     35.6 MiB       70 ms       154 ms
#   2^17    3.6 MiB     35.9 MiB       65 ms       142 ms
#   2^18    4.7 MiB     37.3 MiB       64 ms       124 ms
#
# 2^17 is the smallest chunk that reads no slower than that reader.
_CHUNK_CHARS = 1 << 17
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
    """One minute-resolution link observation at ``epoch_us`` (epoch microseconds).

    ``density`` (veh/km) is derived as flow/speed when speed is positive and
    both inputs are present, otherwise it is None ("missing").
    """

    link_id: str
    epoch_us: int
    speed: float | None
    flow: float | None
    travel_time: float | None = None
    density: float | None = field(init=False, default=None)

    def __post_init__(self):
        problem = _range_error(self.speed, self.flow, self.travel_time)
        if problem is not None:
            raise ValueError(problem)
        if self.speed is not None and self.flow is not None and self.speed > 0:
            object.__setattr__(self, "density", self.flow / self.speed)

    @property
    def has_density(self) -> bool:
        return self.density is not None


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty integer or float array, as a float: the middle value,
    or (a + b) / 2 of the two middle values, as numpy takes their mean. ``values`` is
    partitioned in place, which saves a copy; numpy's own call loads ``numpy.ma``."""
    n = values.size
    values.partition([(n - 1) // 2, n // 2])
    return (float(values[(n - 1) // 2]) + float(values[n // 2])) / 2


def _order_positions(n: int, quantiles) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order statistics numpy's linear method interpolates between for each quantile of
    n values, and the weight of the upper one: (n - 1) q, its floor and fractional part."""
    virtual = (n - 1) * np.asarray(quantiles, dtype=float)
    lo = np.floor(virtual).astype(np.intp)
    return lo, np.minimum(lo + 1, n - 1), virtual - lo


def _lerp(a, b, t):
    """numpy's interpolation between neighbouring order statistics, which switches to
    counting back from the upper one at t >= 0.5."""
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i], ..., starts[i] + lengths[i] - 1, concatenated."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def quantiles(values: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """``np.quantile(values, q)`` (linear method) of finite values for each q, from one
    partition. numpy's own call loads ``numpy.ma``, which costs more than the quantiles."""
    lo, hi, t = _order_positions(values.size, qs)
    ordered = np.partition(values, np.concatenate((lo, hi)))
    return _lerp(ordered[lo], ordered[hi], t)


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
            raise ValueError(f"stream not time-ordered at {format_timestamp(self.epoch_us[backwards[0] + 1])}")
        object.__setattr__(self, "spacing_min", _median(steps) / US_PER_MINUTE if steps.size else 1.0)
        del steps  # before the density column takes its room
        density = np.full(len(self.epoch_us), np.nan)
        with np.errstate(over="ignore"):  # a tiny positive speed overflows; rejected below
            np.divide(self.flow, self.speed, out=density, where=self.speed > 0)
        if np.isinf(density).any():
            raise ValueError(f"link {self.link_id}: flow/speed overflows to an infinite density")
        object.__setattr__(self, "density", density)

    @classmethod
    def from_samples(cls, samples: Sequence[TrafficSample]) -> "LinkSeries":
        """Columns of a non-empty, single-link, strictly time-ordered stream."""
        if not samples:
            raise ValueError("empty stream")
        link_id = samples[0].link_id
        for s in samples:
            if s.link_id != link_id:
                raise ValueError(f"stream mixes links {link_id!r} and {s.link_id!r}")
        epoch_us = np.array([s.epoch_us for s in samples], dtype=np.int64)
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
    """A labelled event interval on a link, from ``start_us`` to ``end_us`` (epoch microseconds)."""

    link_id: str
    category: str
    start_us: int
    end_us: int

    def __post_init__(self):
        if self.category not in EVENT_CATEGORIES:
            raise ValueError(f"unknown event category {self.category!r}")
        if self.end_us < self.start_us:
            end, start = format_stamps([self.end_us, self.start_us])
            raise ValueError(f"event end {end} precedes start {start}")


def parse_timestamp(text: str) -> int:
    """Epoch microseconds of an RFC 3339 date-time, which must carry a UTC offset and
    fall within years 1-9999 in UTC; fraction digits past the sixth are dropped.

    The shape is matched here, not by ``datetime.fromisoformat``, whose accepted forms
    differ between Python versions; the ``datetime`` constructor checks the ranges.
    """
    shape = re.fullmatch(
        r"([0-9]{4})-([0-9]{2})-([0-9]{2})[Tt ]([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.([0-9]+))?"
        r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?",
        text.strip(),
    )
    if shape is None:
        raise ValueError(f"timestamp {text!r} is not an RFC 3339 date-time")
    *fields, fraction, offset = shape.groups()
    if offset is None:
        raise ValueError(f"timestamp {text!r} lacks a UTC offset")
    minutes = 0 if offset in ("Z", "z") else int(offset[0] + "1") * (60 * int(offset[1:3]) + int(offset[4:]))
    micro = int((fraction or "").ljust(6, "0")[:6])
    ts = datetime(*map(int, fields), micro, tzinfo=timezone(timedelta(minutes=minutes)))
    try:
        return (ts.astimezone(timezone.utc) - _EPOCH) // _MICROSECOND
    except OverflowError:
        raise ValueError(f"timestamp {text!r} is outside years 1-9999 in UTC") from None


def format_stamps(epoch_us) -> list[str]:
    """The RFC 3339 text of each epoch microsecond value, in UTC with a ``Z``: whole
    seconds, or six fraction digits when the fraction is not zero (as ``isoformat``)."""
    epoch_us = np.asarray(epoch_us, dtype=np.int64)
    at = epoch_us.astype("datetime64[us]")
    seconds = np.datetime_as_string(at, unit="s", timezone="UTC")
    whole = epoch_us % 1_000_000 == 0
    if not whole.all():
        seconds = np.where(whole, seconds, np.datetime_as_string(at, unit="us", timezone="UTC"))
    return seconds.tolist()


def format_timestamp(epoch_us: int) -> str:
    """``format_stamps`` of one value."""
    return format_stamps([epoch_us])[0]


@contextmanager
def open_text(target, mode: str = "r") -> Iterator[IO[str]]:
    """A UTF-8 text handle on ``target``, without newline translation.

    A path is opened with ``mode`` and closed on exit. When reading, paths,
    bytes and binary file-like objects are decoded as ``utf-8-sig``, which
    drops one byte order mark at the start (spreadsheets write one); bytes are
    read through a binary handle on them, so they read as a file of the same
    bytes does. A binary handle is detached from its decoder on exit, and any
    other handle is used as is: either is left open. Writers never write the
    mark.
    """
    encoding = "utf-8-sig" if mode == "r" else "utf-8"
    if isinstance(target, (str, Path)):
        with open(target, mode, encoding=encoding, newline="") as handle:
            yield handle
    elif mode == "r" and not isinstance(target, io.TextIOBase):
        binary = io.BytesIO(target) if isinstance(target, bytes) else target
        text = io.TextIOWrapper(binary, encoding=encoding, newline="")
        try:
            yield text
        finally:
            text.detach()  # a dropped wrapper would close the handle it wraps
    else:
        yield target


# Character positions of the digits and separators of YYYY-MM-DDTHH:MM:SSZ, and the
# separators' code points. The zone letter is compared with its ASCII case bit set, which
# maps only "Z" and "z" to "z".
_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_SEPARATORS = [4, 7, 10, 13, 16, 19]
_SEPARATOR_CODES = np.frombuffer(b"--T::z", dtype=np.uint8)
_CASE_BIT = np.array([0, 0, 0, 0, 0, 0x20], dtype=np.uint8)
# The lowest and highest century, year, month, day, hour, minute and second.
_FIELD_LOW = np.array([0, 0, 1, 1, 0, 0, 0])
_FIELD_HIGH = np.array([99, 99, 12, 31, 23, 59, 59])


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
    if chars is not None:
        # The fields are checked here rather than by numpy's cast of the strings to
        # datetime64: numpy 2.4.6 raises ValueError for an invalid date (such as month
        # 00) among 500 strings, but crashes the process (SIGSEGV) among 600 or more.
        digits = chars[:, _DIGITS] - ord("0")  # unsigned: a code point below "0" wraps above 9
        ok = (digits <= 9).all(axis=1) & ((chars[:, _SEPARATORS] | _CASE_BIT) == _SEPARATOR_CODES).all(axis=1)
        pairs = (digits[:, 0::2] * 10 + digits[:, 1::2]).astype(np.int64)  # century, year, month, ...
        pairs[~ok] = 0  # keeps the date arithmetic below in range
        ok &= ((pairs >= _FIELD_LOW) & (pairs <= _FIELD_HIGH)).all(axis=1)
        year, day = pairs[:, 0] * 100 + pairs[:, 1], pairs[:, 3]
        month = (year - 1970) * 12 + pairs[:, 2] - 1  # since January 1970
        low = month.min()
        # the epoch day of the first of each month from the earliest to one past the latest
        firsts = np.arange(low, month.max() + 2).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
        first_day = firsts[month - low]
        ok &= (year >= 1) & (day <= firsts[month - low + 1] - first_day)
        seconds = (((first_day + day - 1) * 24 + pairs[:, 4]) * 60 + pairs[:, 5]) * 60 + pairs[:, 6]
        epoch_us[fast] = np.where(ok, seconds * 1_000_000, 0)
        fast[fast] = ok
    problems = {}
    for i in np.flatnonzero(~fast).tolist():
        try:
            epoch_us[i] = parse_timestamp(texts[i])
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


def _write(column: np.ndarray, at: int, values: np.ndarray) -> None:
    """Writes values into a column from row ``at`` on. A column too short for them grows in
    place (realloc extends it where the allocator can) to a quarter more than it needs, so
    that reallocations stay few and the unused tail of the four value columns stays within
    the room the density column takes later."""
    end = at + values.size
    if end > column.size:
        column.resize(end + end // 4, refcheck=False)
    column[at:end] = values


class _SeriesReader:
    """Converts a series CSV one chunk of rows at a time into output columns (epoch_us,
    speed, flow, travel_time, and each row's link code once a second link appears),
    carrying each link's last timestamp from chunk to chunk for the duplicate and
    monotonicity checks."""

    def __init__(self, width: int):
        self.width = width
        self.links: dict[str, int] = {}  # link id -> code, in order of first appearance
        self.last_us = np.zeros(0, dtype=np.int64)
        self.seen = np.zeros(0, dtype=bool)
        # what csv.reader ends each field of a plain line with, as UTF-8 bytes
        self.separators = np.array([ord(",")] * (width - 1) + [ord("\n")], dtype=np.uint8)
        self.size = 0  # rows written to the output columns
        self.out = [np.empty(0, dtype=dtype) for dtype in (np.int64, float, float, float)]
        self.code: np.ndarray | None = None

    def bulk(self, text: str, first_row: int) -> bool:
        """Whether whole lines were split at every comma and their columns kept. They are
        not when ``csv.reader`` could split them otherwise: a quote, NUL or lone carriage
        return (a \\r\\n line end is read as \\n), a line without one field per column (a blank
        line, a wrong field count or no final newline), or a field longer than csv's field
        size limit."""
        if text[-1:] != "\n" or '"' in text or "\0" in text:
            return False
        if "\r" in text:
            if text.count("\r") != text.count("\r\n"):
                return False
            text = text.replace("\r\n", "\n")
        data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        ends = np.flatnonzero((data == ord(",")) | (data == ord("\n")))  # the separator after each field
        if ends.size % self.width or (data[ends].reshape(-1, self.width) != self.separators).any():
            return False
        limit = csv.field_size_limit()  # in characters; UTF-8 bytes are never fewer
        if data.size - 1 > limit and np.diff(ends, prepend=-1).max() - 1 > limit:
            return False
        ends = ends.reshape(-1, self.width)
        rows = first_row + np.arange(len(ends))
        wide_stamps = (ends[:, 1] - ends[:, 0] == 21).all()  # every timestamp field is 20 bytes
        del data, ends  # the split below sets the chunk's peak
        cells = text[:-1].replace("\n", ",").split(",")
        del text
        fields = [cells[k :: self.width] for k in range(self.width)]
        stamp_chars = None
        if wide_stamps:
            stamp_chars = np.frombuffer("".join(fields[1]).encode("utf-8"), dtype=np.uint8).reshape(-1, 20)
        self.columns(fields, rows, stamp_chars)
        return True

    def rows(self, rows: list[list[str]], first_row: int) -> None:
        """Keeps the columns of rows split by ``csv.reader``, whose blank rows are skipped but
        keep their row numbers; a row with the wrong field count fails after the rows before it."""
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        nonblank = np.flatnonzero(lengths)
        wrong_width = np.flatnonzero(lengths[nonblank] != self.width)
        at = nonblank[: wrong_width[0]] if wrong_width.size else nonblank  # rows before it are checked first
        if at.size:
            self.columns(list(zip(*map(rows.__getitem__, at.tolist()))), first_row + at)
        if wrong_width.size:
            row = int(nonblank[wrong_width[0]])
            raise ParseError(f"expected {self.width} fields, got {lengths[row]}", first_row + row)

    def columns(self, fields: Sequence[Sequence[str]], rows: np.ndarray, stamp_chars: np.ndarray | None = None) -> None:
        """Keeps the (epoch_us, speed, flow, travel_time, link code) of the cells of each
        field, or raises a ParseError at the earliest bad one, naming its file row (``rows``)
        and first failed check. ``stamp_chars`` is ``_parse_stamps``'s ``chars``."""
        n = rows.size
        ids = fields[0]
        epoch_us, stamp_problems = _parse_stamps(fields[1], stamp_chars)
        numbers = [_parse_floats(texts, what) for texts, what in zip(fields[2:], ("speed", "flow", "travel_time"))]
        if self.width == 4:
            numbers.append((np.full(n, np.nan), np.zeros(n, dtype=bool), {}))
        (speed, has_speed, _), (flow, has_flow, _), (travel_time, has_tt, _) = numbers

        order = None  # the rows in link order, when they are not already
        if ids[0] and ids[0] == ids[0].strip() and ids.count(ids[0]) == n:  # one unpadded link
            blank_id = np.zeros(n, dtype=bool)
            code = np.full(n, self.links.setdefault(ids[0], len(self.links)), dtype=np.intp)
            c, t = code, epoch_us
        else:
            ids = list(map(str.strip, ids))
            blank_id = np.fromiter(map(len, ids), np.intp, n) == 0
            for link in dict.fromkeys(ids):
                self.links.setdefault(link, len(self.links))
            code = np.fromiter(map(self.links.__getitem__, ids), np.intp, n)
            order = np.argsort(code, kind="stable")
            c, t = code[order], epoch_us[order]
        if grow := len(self.links) - self.last_us.size:
            self.last_us = np.append(self.last_us, np.zeros(grow, dtype=np.int64))
            self.seen = np.append(self.seen, np.zeros(grow, dtype=bool))
        first = np.ones(n, dtype=bool)
        first[1:] = c[1:] != c[:-1]
        prev = np.empty_like(t)
        prev[1:] = t[:-1]
        prev[first] = self.last_us[c[first]]
        has_prev = ~first
        has_prev[first] = self.seen[c[first]]
        if order is None:
            step, follows = t - prev, has_prev
        else:
            step, follows = np.empty_like(t), np.empty(n, dtype=bool)
            step[order], follows[order] = t - prev, has_prev

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            infinite_density = (speed > 0.0) & (flow / speed == np.inf)
        out_of_range = (
            (has_speed & ~((speed >= 0.0) & (speed <= SPEED_MAX_KMH)))
            | (has_flow & ~((flow >= 0.0) & (flow <= FLOW_MAX_VPH)))
            | (has_tt & ~((travel_time >= 0.0) & (travel_time < np.inf)))
            | infinite_density
        )
        listed = [stamp_problems, *(problems for _, _, problems in numbers)]  # rows -> error
        if any(listed) or (blank_id | (follows & (step <= 0)) | out_of_range).any():

            def stamp(i: int) -> str:
                return format_timestamp(epoch_us[i])

            def range_error(i: int) -> str | None:
                return _range_error(*(values[i].item() if present[i] else None for values, present, _ in numbers))

            checks = [  # in the order a row's checks apply
                (blank_id, lambda i: "empty link_id"),
                *((_mask(problems, n), problems.get) for problems in listed),
                (follows & (step == 0), lambda i: f"duplicate timestamp {stamp(i)} for link {ids[i]}"),
                (follows & (step < 0), lambda i: f"non-monotone timestamp {stamp(i)} for link {ids[i]}"),
                (out_of_range, range_error),
            ]
            i = int(np.argmax(np.logical_or.reduce([mask for mask, _ in checks])))
            raise ParseError(next(describe(i) for mask, describe in checks if mask[i]), int(rows[i]))

        last = np.ones(n, dtype=bool)
        last[:-1] = first[1:]
        self.last_us[c[last]] = t[last]
        self.seen[c[last]] = True
        for out, values in zip(self.out, (epoch_us, speed, flow, travel_time)):
            _write(out, self.size, values)
        if len(self.links) > 1:
            if self.code is None:  # the rows so far are all the first link's
                self.code = np.zeros(self.size, dtype=np.intp)
            _write(self.code, self.size, code)
        self.size += n

    def finish(self) -> tuple[list[str], np.ndarray | None, list[np.ndarray]]:
        """Link ids in order of first appearance, each row's link code (None when there is
        one link or none), and the (epoch_us, speed, flow, travel_time) columns, trimmed to
        the rows kept."""
        columns = self.out if self.code is None else [*self.out, self.code]
        for column in columns:
            column.resize(self.size, refcheck=False)
        return list(self.links), self.code, self.out


def _read_columns(source) -> tuple[list[str], np.ndarray | None, list[np.ndarray]]:
    """``_SeriesReader.finish`` of the data rows, in file order."""
    with open_text(source) as handle:
        header = next(csv.reader(handle), None)
        if header is None:
            raise ParseError("empty input, expected a header row", 1)
        header = [h.strip() for h in header]
        if header not in (SERIES_HEADER, SERIES_HEADER[:4]):
            raise ParseError(f"unexpected header {header!r}", 1)
        state = _SeriesReader(len(header))
        first_row = 2
        # a chunk is whole lines: it ends where the handle ends the line it reaches into
        while text := handle.read(_CHUNK_CHARS):
            if text[-1] != "\n":
                text += handle.readline()
            if not state.bulk(text, first_row):
                # the chunk's lines as the handle splits them: a lone \r ends a line only in a
                # handle that reads universal newlines, which has then seen one
                lines = io.StringIO(text, newline="" if handle.newlines else "\n")
                reader = csv.reader(chain(lines, handle))
                while rows := list(islice(reader, _ROW_BLOCK)):
                    state.rows(rows, first_row)
                    first_row += len(rows)
                break
            first_row += text.count("\n")
    return state.finish()


def read_series(source) -> dict[str, LinkSeries]:
    """Parse a link time-series CSV into one ``LinkSeries`` per link, in order of first appearance.

    The header must be ``link_id,timestamp,speed_kmh,flow_vph`` with an
    optional trailing ``travel_time_s`` column. Empty cells mark missing
    readings. Timestamps are RFC 3339 with a UTC offset and must be strictly
    increasing per link. Gaps are kept as gaps (no imputation). A malformed
    input raises ``ParseError`` naming its earliest bad row (the header is row
    1 and blank rows count) and that row's first failed check, in the order:
    field count, link id, timestamp, speed, flow and travel time numeric,
    duplicate and non-monotone timestamp, then value ranges. A byte order mark
    before the header is skipped, and lines may end in \\n or \\r\\n.

    The file is read as chunks of whole lines of about ``_CHUNK_CHARS``
    characters. A chunk with no quote, lone carriage return, NUL or blank line,
    and one field per column on every line, is split at its commas in bulk;
    from the first other chunk on, ``csv.reader`` splits the rest. Either way
    the columns, the error and its row are those ``csv.reader`` alone would
    give. The chunks' columns are written straight into the output columns, and
    a link whose rows are one run in the file (as every single-link file's are)
    keeps a slice of them rather than a copy.
    """
    links, code, columns = _read_columns(source)
    if code is None:
        return {link: LinkSeries(link, *columns) for link in links}
    if (code[1:] < code[:-1]).any():  # sort interleaved links into runs
        order = np.argsort(code, kind="stable")
        for k, column in enumerate(columns):  # one column at a time, freeing each unsorted one
            columns[k] = column[order]
    counts = np.bincount(code, minlength=len(links))
    ends = np.cumsum(counts)
    return {
        link: LinkSeries(link, *(column[a:b] for column in columns))
        for link, a, b in zip(links, (ends - counts).tolist(), ends.tolist())
    }


def parse_series(source) -> list[TrafficSample]:
    """The rows of a link time-series CSV as samples, in file order.

    ``read_series`` reads and checks the file; blank cells become None.
    """
    links, code, (epoch_us, *values) = _read_columns(source)
    if code is None:
        code = np.zeros(len(epoch_us), dtype=np.intp)
    cells = [[None if v != v else v for v in column.tolist()] for column in values]
    return [
        TrafficSample(links[c], ts, speed, flow, travel_time)
        for c, ts, speed, flow, travel_time in zip(code.tolist(), epoch_us.tolist(), *cells)
    ]


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
    rows = zip(repeat(link.getvalue()[:-2]), format_stamps(stream.epoch_us), *cells)
    with open_text(sink, "w") as handle:
        handle.write(",".join(SERIES_HEADER) + "\n")
        handle.write("\n".join(map(",".join, rows)))
        handle.write("\n")


# The columns sidecar: what ``read_series`` made of a series file's bytes, kept so that the
# command line reads those bytes once (see ``cli._read_series``). A magic line, a JSON line
# with the SHA-256 of the series bytes, of this module's source and of the body, and each
# link's id and rows, then the body: per link in ``read_series``' order, its epoch_us as
# little-endian int64 and its speed, flow and travel_time as little-endian float64.
# hashlib is imported where a digest is taken, so that importing this module does not load
# OpenSSL: 4.5 ms and 3.4 MiB of resident set a process on a 2-vCPU Xeon, which only the
# command line's reads need (``cli`` imports hashlib with itself).
SIDECAR_MAGIC = b"flowsentry columns 1\n"
_SIDECAR_COLUMNS = (("epoch_us", "<i8"), ("speed", "<f8"), ("flow", "<f8"), ("travel_time", "<f8"))


def _reader_sha256() -> str:
    """The SHA-256 of this module's source: columns another reader made are not this one's."""
    import hashlib

    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()


def write_sidecar(streams: dict[str, LinkSeries], sink: IO[bytes], series_sha256: str) -> None:
    """Write ``read_series``' streams of series bytes whose SHA-256 is ``series_sha256``
    as a sidecar. The columns are written as they are held, without a copy."""
    import hashlib

    columns = [
        np.ascontiguousarray(getattr(stream, name), dtype=dtype)
        for stream in streams.values()
        for name, dtype in _SIDECAR_COLUMNS
    ]
    body = hashlib.sha256()
    for column in columns:
        body.update(column)
    header = {
        "series_sha256": series_sha256,
        "reader_sha256": _reader_sha256(),
        "links": [[link, len(stream)] for link, stream in streams.items()],
        "body_sha256": body.hexdigest(),
    }
    sink.write(SIDECAR_MAGIC + json.dumps(header).encode("ascii") + b"\n")
    for column in columns:
        sink.write(column)


def read_sidecar(source: IO[bytes], series_sha256: str) -> dict[str, LinkSeries] | None:
    """The streams of a sidecar written for series bytes whose SHA-256 is
    ``series_sha256`` by this reader, or None when it holds no such streams: another magic,
    a header that is not the JSON ``write_sidecar`` writes, another series or reader digest,
    a body of another size or digest, or columns ``LinkSeries`` rejects."""
    import hashlib

    if source.readline(len(SIDECAR_MAGIC)) != SIDECAR_MAGIC:
        return None
    try:
        header = json.loads(source.readline())
        links = [(link, rows) for link, rows in header["links"]]
        digests = header["series_sha256"], header["reader_sha256"], header["body_sha256"]
    except (ValueError, KeyError, TypeError):  # UnicodeDecodeError is a ValueError
        return None
    if digests[:2] != (series_sha256, _reader_sha256()):
        return None
    if not all(type(link) is str and type(rows) is int and rows > 0 for link, rows in links):
        return None
    width = 8 * len(_SIDECAR_COLUMNS)  # bytes a row takes in the body
    size = width * sum(rows for _, rows in links)
    start = source.tell()
    if len(dict(links)) != len(links) or source.seek(0, io.SEEK_END) - start != size:
        return None
    source.seek(start)
    body = np.empty(size, dtype=np.uint8)
    if source.readinto(body) != size or hashlib.sha256(body).hexdigest() != digests[2]:
        return None
    streams, at = {}, 0
    try:
        for link, rows in links:
            parts = body[at : at + width * rows].reshape(len(_SIDECAR_COLUMNS), -1)
            streams[link] = LinkSeries(link, *(part.view(dtype) for part, (_, dtype) in zip(parts, _SIDECAR_COLUMNS)))
            at += width * rows
    except ValueError:
        return None
    return streams


def read_table(source, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """The data rows of a CSV table whose header row is ``header``, each with its number:
    the header is row 1, and blank rows are skipped but counted. The header's cells are
    compared stripped. An empty input, another header or a row of another field count
    raises ``ParseError`` naming its row when the rows before it have been taken."""
    with open_text(source) as handle:
        reader = csv.reader(handle)
        found = next(reader, None)
        if found is None:
            raise ParseError("empty input, expected a header row", 1)
        if [cell.strip() for cell in found] != header:
            raise ParseError(f"unexpected header {found!r}", 1)
        for row, cells in enumerate(reader, start=2):
            if cells:
                if len(cells) != len(header):
                    raise ParseError(f"expected {len(header)} fields, got {len(cells)}", row)
                yield row, cells


def write_table(sink, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table: the header row, then ``rows``, each line ended with \\n."""
    with open_text(sink, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_events(source) -> list[EventLabel]:
    """Parse an event-label CSV; unknown categories map to ``other`` with a warning."""
    labels: list[EventLabel] = []
    for row, (link_id, category, start, end) in read_table(source, EVENTS_HEADER):
        category = category.strip().lower()
        if category not in EVENT_CATEGORIES:
            warnings.warn(f"row {row}: unknown category {category!r} mapped to 'other'", stacklevel=2)
            category = "other"
        try:
            labels.append(EventLabel(link_id.strip(), category, parse_timestamp(start), parse_timestamp(end)))
        except ValueError as exc:
            raise ParseError(str(exc), row) from None
    return labels


def write_events(labels: Iterable[EventLabel], sink) -> None:
    labels = list(labels)
    starts = format_stamps([label.start_us for label in labels])
    ends = format_stamps([label.end_us for label in labels])
    rows = ((label.link_id, label.category, a, b) for label, a, b in zip(labels, starts, ends))
    write_table(sink, EVENTS_HEADER, rows)


def nonrecurrent_filter(labels: Sequence[EventLabel]) -> list[EventLabel]:
    """Drop roadworks and weather labels, which are not non-recurrent congestion."""
    return [label for label in labels if label.category not in RECURRENT_CATEGORIES]
