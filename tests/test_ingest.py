import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowsentry import detector, ingest, simgen
from flowsentry.ingest import (
    SERIES_HEADER,
    EventLabel,
    LinkSeries,
    ParseError,
    TrafficSample,
    format_stamps,
    format_timestamp,
    nonrecurrent_filter,
    parse_events,
    parse_series,
    parse_timestamp,
    read_series,
    write_events,
    write_series,
)
from time_helpers import instant, iso, us

T0 = datetime(2017, 4, 7, tzinfo=timezone.utc)


def make_series_csv(rows, header="link_id,timestamp,speed_kmh,flow_vph"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def finite_density(speed, flow):
    """Whether flow/speed stays finite; a tiny positive speed makes it overflow, and such a
    reading is out of range (see test_overflowing_density_is_out_of_range)."""
    return not (speed and flow and flow / speed == math.inf)


def test_parse_row_derives_density():
    samples = parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,100,2000"]))
    assert len(samples) == 1
    assert samples[0].density == pytest.approx(20.0)
    assert samples[0].epoch_us == us(T0)


def test_zero_speed_marks_density_missing():
    samples = parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,0,0"]))
    assert samples[0].density is None
    assert not samples[0].has_density


def test_missing_inputs_mark_density_missing():
    samples = parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,,2000", "L1,2017-04-07T00:01:00Z,100,"]))
    assert samples[0].density is None
    assert samples[1].density is None


def test_duplicate_timestamp_names_row():
    rows = [f"L1,2017-04-07T00:{m:02d}:00Z,100,2000" for m in range(9)]
    rows.append("L1,2017-04-07T00:05:00Z,90,1800")
    with pytest.raises(ParseError, match="row 11"):
        parse_series(make_series_csv(rows))


def test_non_monotone_timestamps_rejected():
    rows = ["L1,2017-04-07T00:05:00Z,100,2000", "L1,2017-04-07T00:04:00Z,100,2000"]
    with pytest.raises(ParseError, match="non-monotone"):
        parse_series(make_series_csv(rows))


def test_monotonicity_is_per_link():
    rows = [
        "L1,2017-04-07T00:05:00Z,100,2000",
        "L2,2017-04-07T00:00:00Z,90,1500",
        "L1,2017-04-07T00:06:00Z,100,2000",
    ]
    grouped = by_link(parse_series(make_series_csv(rows)))
    assert set(grouped) == {"L1", "L2"}
    assert len(grouped["L1"]) == 2


def test_malformed_row_reports_row_number():
    with pytest.raises(ParseError, match="row 3"):
        parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,100,2000", "L1,2017-04-07T00:01:00Z,abc,2000"]))


def test_out_of_range_values_rejected():
    with pytest.raises(ParseError, match="speed"):
        parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,300,2000"]))
    with pytest.raises(ParseError, match="flow"):
        parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,100,13000"]))


def test_travel_time_column_optional():
    csv5 = make_series_csv(
        ["L1,2017-04-07T00:00:00Z,100,2000,120.5"],
        header="link_id,timestamp,speed_kmh,flow_vph,travel_time_s",
    )
    assert parse_series(csv5)[0].travel_time == pytest.approx(120.5)


def test_density_speed_flow_identity():
    samples = parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,97.3,1841.27"]))
    s = samples[0]
    assert abs(s.density * s.speed - s.flow) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    speed=st.one_of(st.none(), st.floats(0, 250, allow_nan=False)),
    flow=st.one_of(st.none(), st.floats(0, 12000, allow_nan=False)),
    travel=st.one_of(st.none(), st.floats(0, 86400, allow_nan=False)),
    minutes=st.integers(0, 500000),
)
def test_series_round_trip(speed, flow, travel, minutes):
    assume(finite_density(speed, flow))
    sample = TrafficSample("L9", us(T0 + timedelta(minutes=minutes)), speed, flow, travel)
    buf = io.StringIO()
    write_series(LinkSeries.from_samples([sample]), buf)
    back = parse_series(io.StringIO(buf.getvalue()))[0]
    assert back == sample


def write_series_oracle(samples, sink):
    """The per-sample writer ``write_series`` replaced."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(SERIES_HEADER)
    for s in samples:
        cells = ["" if v is None else repr(v) for v in (s.speed, s.flow, s.travel_time)]
        writer.writerow([s.link_id, iso(s.epoch_us), *cells])


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(1, 10**7),
            st.sampled_from([0, 0, 1, 500_000, 999_999]),
            st.one_of(st.none(), st.floats(0, 250)),
            st.one_of(st.none(), st.floats(0, 12000)),
            st.one_of(st.none(), st.floats(0, 86400)),
        ),
        min_size=1,
        max_size=30,
    ),
    start=st.integers(-2 * 10**9, 10**9),  # from 1953 on, so some epochs are negative
)
@example(rows=[(60, 0, 50.0, 1000.0, 30.0), (60, 0, None, None, None), (1, 0, 0.0, 0.0, 0.0)], start=0)  # whole seconds
@example(rows=[(60, 0, 50.0, 1000.0, 30.0), (60, 1, 60.5, 900.0, None)], start=-61)
def test_write_series_matches_row_writer(rows, start):
    assume(all(finite_density(speed, flow) for _, _, speed, flow, _ in rows))
    samples, t = [], T0 + timedelta(seconds=start)
    for step_s, micros, speed, flow, travel in rows:
        t += timedelta(seconds=step_s, microseconds=micros)
        samples.append(TrafficSample("L,7", us(t), speed, flow, travel))
    ours, theirs = io.StringIO(), io.StringIO()
    write_series(LinkSeries.from_samples(samples), ours)
    write_series_oracle(samples, theirs)
    assert ours.getvalue() == theirs.getvalue()


def test_link_series_rejects_empty_stream():
    with pytest.raises(ValueError, match="empty stream"):
        LinkSeries.from_samples([])


def test_link_series_rejects_mixed_links():
    samples = [TrafficSample("L1", us(T0), 90.0, 1000.0), TrafficSample("L2", us(T0) + 60_000_000, 90.0, 1000.0)]
    with pytest.raises(ValueError, match="mixes links 'L1' and 'L2'"):
        LinkSeries.from_samples(samples)


@pytest.mark.parametrize("offset_min", [0, -1])
def test_link_series_rejects_unordered_stream(offset_min):
    samples = [
        TrafficSample("L1", us(T0), 90.0, 1000.0),
        TrafficSample("L1", us(T0 + timedelta(minutes=1)), 90.0, 1000.0),
        TrafficSample("L1", us(T0 + timedelta(minutes=1 + offset_min)), 90.0, 1000.0),
    ]
    with pytest.raises(ValueError, match="not time-ordered at"):
        LinkSeries.from_samples(samples)


def _column(values):
    return np.array([np.nan if v is None else v for v in values], dtype=float)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(1, 90),
            st.one_of(st.none(), st.floats(0, 250)),
            st.one_of(st.none(), st.floats(0, 12000)),
            st.one_of(st.none(), st.floats(0, 86400)),
        ),
        min_size=1,
        max_size=40,
    ),
    seconds=st.integers(0, 59),
)
def test_link_series_columns_match_samples(rows, seconds):
    assume(all(finite_density(speed, flow) for _, speed, flow, _ in rows))
    samples, times = [], []
    t = T0 + timedelta(seconds=seconds)
    for gap, speed, flow, travel in rows:
        t += timedelta(minutes=gap)
        times.append(t)
        samples.append(TrafficSample("L3", us(t), speed, flow, travel))
    series = LinkSeries.from_samples(samples)
    assert len(series) == len(samples)
    assert series.link_id == "L3"
    assert list(map(instant, series.epoch_us.tolist())) == times
    assert series.minutes.tolist() == [int(t.timestamp() // 60) for t in times]
    for name in ("speed", "flow", "density", "travel_time"):
        np.testing.assert_array_equal(getattr(series, name), _column([getattr(s, name) for s in samples]))
    assert series.usable.tolist() == [s.has_density for s in samples]
    expected_points = np.array([(s.density, s.flow) for s in samples if s.has_density]).reshape(-1, 2)
    np.testing.assert_array_equal(series.points, expected_points)


def test_events_round_trip_and_duration():
    text = io.StringIO("link_id,category,start,end\nL1,accident,2017-04-07T08:00:00Z,2017-04-07T09:40:00Z\n")
    labels = parse_events(text)
    assert labels[0].start_us == us(T0 + timedelta(hours=8))
    assert labels[0].end_us - labels[0].start_us == 100 * 60_000_000
    buf = io.StringIO()
    write_events(labels, buf)
    assert parse_events(io.StringIO(buf.getvalue())) == labels


def test_unknown_event_category_warns_and_maps_to_other():
    text = io.StringIO("link_id,category,start,end\nL1,alien,2017-04-07T08:00:00Z,2017-04-07T09:00:00Z\n")
    with pytest.warns(UserWarning, match="alien"):
        labels = parse_events(text)
    assert labels[0].category == "other"


def test_event_end_before_start_rejected():
    text = io.StringIO("link_id,category,start,end\nL1,accident,2017-04-07T09:00:00.5+01:00,2017-04-07T08:00:00Z\n")
    with pytest.raises(ParseError) as raised:
        parse_events(text)
    assert str(raised.value) == "row 2: event end 2017-04-07T08:00:00Z precedes start 2017-04-07T08:00:00.500000Z"


# --- the time codec against datetime -------------------------------------------------

FIRST_US = us(datetime(1, 1, 1, tzinfo=timezone.utc))
LAST_US = us(datetime(9999, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone.utc))
WHOLE_SECONDS = st.integers(FIRST_US // 1_000_000, LAST_US // 1_000_000).map(lambda s: s * 1_000_000)
# any instant of years 1-9999, whole seconds among them, and many near the epoch on both sides
INSTANTS = WHOLE_SECONDS | st.integers(FIRST_US, LAST_US) | st.integers(-(10**15), 10**15)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(INSTANTS, max_size=30))
@example(values=[FIRST_US, LAST_US, -1, 0, 1, -1_000_000, 999_999, -(10**15)])
@example(values=[FIRST_US, 0, -60_000_000])  # whole seconds only
@example(values=[])
def test_format_stamps_matches_isoformat(values):
    assert format_stamps(values) == [iso(v) for v in values]
    assert format_stamps(np.array(values, dtype=np.int64)) == [iso(v) for v in values]
    for v in values[:5]:
        assert format_timestamp(v) == iso(v)


OFFSET_ZONES = [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=14)),
                timezone(timedelta(hours=-8)), timezone(timedelta(hours=-12, minutes=-45))]


@settings(max_examples=300, deadline=None)
@given(ts=st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30), timezones=st.sampled_from(OFFSET_ZONES)))
@example(ts=datetime(1969, 12, 31, 23, 59, 59, 999_999, tzinfo=timezone.utc))
@example(ts=datetime(1970, 1, 1, 5, 29, 59, 1, tzinfo=OFFSET_ZONES[1]))
def test_parse_timestamp_matches_datetime_arithmetic(ts):
    expected = (ts - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)
    assert parse_timestamp(ts.isoformat()) == expected
    assert parse_timestamp(ts.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")) == expected


@pytest.mark.parametrize(
    "text, same_as",
    [
        ("2017-04-03T00:00:00.5Z", "2017-04-03T00:00:00.500000Z"),
        ("2017-04-03T00:00:00.123456789Z", "2017-04-03T00:00:00.123456Z"),  # digits past the sixth are dropped
        ("1969-12-31T23:59:59.9999999Z", "1969-12-31T23:59:59.999999Z"),
        ("2017-04-03 05:30:00.25+05:30", "2017-04-03T00:00:00.250000Z"),
        ("2017-04-02t16:00:00-08:00", "2017-04-03T00:00:00Z"),
    ],
)
def test_parse_timestamp_reads_each_rfc_3339_form(text, same_as):
    expected = us(datetime.fromisoformat(same_as.replace("Z", "+00:00")))
    assert parse_timestamp(text) == parse_timestamp(same_as) == expected


def round_trip(write, read, rows):
    """What ``write`` makes of ``rows``, after checking that ``read`` gives them back and that
    writing those again gives the same text."""
    first = io.StringIO()
    write(rows, first)
    back = read(io.StringIO(first.getvalue()))
    assert back == rows
    second = io.StringIO()
    write(back, second)
    assert second.getvalue() == first.getvalue()
    return first.getvalue()


# lengths of whole minutes, whole seconds or any microseconds, up to about 4 months
LENGTHS = (
    st.integers(0, 10**4).map(lambda m: m * 60_000_000)
    | st.integers(0, 10**7).map(lambda s: s * 1_000_000)
    | st.integers(0, 10**13)
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(sorted(ingest.EVENT_CATEGORIES)), INSTANTS, LENGTHS), max_size=20))
@example(rows=[("accident", -1_500_000, 0), ("weather", FIRST_US, 1), ("other", LAST_US - 5, 5)])
def test_events_csv_round_trips_byte_for_byte(rows):
    assume(all(start + length <= LAST_US for _, start, length in rows))
    labels = [EventLabel("L,1", category, start, start + length) for category, start, length in rows]
    text = round_trip(write_events, parse_events, labels)
    cells = [row[2:] for row in csv.reader(io.StringIO(text))][1:]
    assert cells == [[iso(label.start_us), iso(label.end_us)] for label in labels]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(INSTANTS, LENGTHS, st.integers(1, 10**4), st.floats(1e-300, 1e300), st.booleans(), st.booleans()),
        max_size=20,
    )
)
@example(rows=[(-1_500_000, 0, 1, 0.5, True, True), (FIRST_US, 1, 2, 1e-300, False, False)])
def test_flags_csv_round_trips_byte_for_byte(rows):
    assume(all(start + length <= LAST_US for start, length, *_ in rows))
    flags = [
        detector.FlagRow("L1", start, start + length, minutes, sev, "right" if right else "left", right and flagged)
        for start, length, minutes, sev, right, flagged in rows
    ]
    text = round_trip(detector.write_excursions_csv, detector.read_flags_csv, flags)
    cells = [row[1:3] for row in csv.reader(io.StringIO(text))][1:]
    assert cells == [[iso(flag.start_us), iso(flag.end_us)] for flag in flags]


def make_label(category, minute=0):
    start = us(T0 + timedelta(minutes=minute))
    return EventLabel("L1", category, start, start + 10 * 60_000_000)


def test_nonrecurrent_filter_drops_roadworks_and_weather():
    labels = [make_label("accident"), make_label("weather", 20)]
    assert nonrecurrent_filter(labels) == [labels[0]]
    assert nonrecurrent_filter([]) == []
    triple = [make_label("roadworks"), make_label("deviation_from_profile", 20), make_label("obstruction", 40)]
    assert nonrecurrent_filter(triple) == triple[1:]


# --- read_series against the row-by-row parser it replaced -----------------------------


def _optional_float_oracle(text, what, row):
    text = text.strip()
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{what} {text!r} is not numeric", row) from None


def parse_series_oracle(source):
    """The row-by-row parser ``read_series`` replaced: one sample per row, checked in turn."""
    reader = csv.reader(source)
    header = next(reader, None)
    if header is None:
        raise ParseError("empty input, expected a header row", 1)
    header = [h.strip() for h in header]
    if header not in (SERIES_HEADER, SERIES_HEADER[:4]):
        raise ParseError(f"unexpected header {header!r}", 1)
    has_tt = len(header) == 5
    samples = []
    last_seen = {}
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
        speed = _optional_float_oracle(row[2], "speed", row_no)
        flow = _optional_float_oracle(row[3], "flow", row_no)
        travel_time = _optional_float_oracle(row[4], "travel_time", row_no) if has_tt else None
        prev = last_seen.get(link_id)
        if prev is not None:
            if ts == prev:
                raise ParseError(f"duplicate timestamp {format_timestamp(ts)} for link {link_id}", row_no)
            if ts < prev:
                raise ParseError(f"non-monotone timestamp {format_timestamp(ts)} for link {link_id}", row_no)
        last_seen[link_id] = ts
        try:
            samples.append(TrafficSample(link_id, ts, speed, flow, travel_time))
        except ValueError as exc:
            raise ParseError(str(exc), row_no) from None
    return samples


def by_link(samples):
    """Samples grouped by link, each link's in their order."""
    grouped = {}
    for s in samples:
        grouped.setdefault(s.link_id, []).append(s)
    return grouped


def column_bytes(streams):
    """Each link's columns as bytes, so that NaNs compare bit for bit."""
    names = ("epoch_us", "speed", "flow", "travel_time", "density")
    return [(link, *(getattr(s, name).tobytes() for name in names)) for link, s in streams.items()]


def read_outcome(text, newline="\n"):
    """read_series's per-link columns of text on a StringIO, or its error and row."""
    try:
        return column_bytes(read_series(io.StringIO(text, newline=newline)))
    except ParseError as exc:
        return str(exc), exc.row


def oracle_series(source):
    """The row parser's samples grouped into per-link columns."""
    return {link: LinkSeries.from_samples(rows) for link, rows in by_link(parse_series_oracle(source)).items()}


def oracle_outcome(text, newline="\n"):
    """The row parser's per-link columns, or its error and row."""
    try:
        return column_bytes(oracle_series(io.StringIO(text, newline=newline)))
    except ParseError as exc:
        return str(exc), exc.row


def rows_view(samples):
    """Samples as tuples, NaN readings as None (the row view reads NaN cells as missing)."""
    def cell(v):
        return None if v is None or v != v else v
    return [(s.link_id, s.epoch_us, cell(s.speed), cell(s.flow), cell(s.travel_time)) for s in samples]


OFFSETS = {"Z": timezone.utc, "z": timezone.utc, "+00:00": timezone.utc,
           "+05:30": timezone(timedelta(hours=5, minutes=30)), "-08:00": timezone(timedelta(hours=-8))}
BAD_STAMPS = [
    "2017-02-29T00:00:00Z", "1900-02-29T00:00:00Z", "2017-04-31T00:00:00Z", "2017-13-01T00:00:00Z",
    "2017-00-10T00:00:00Z", "0000-01-01T00:00:00Z", "2017-04-07T24:00:00Z", "2017-04-07T00:60:00Z",
    "2017-04-07T00:00:60Z", "2017-04-07T00:00:00", "2017-04-07", "2017-04-07T00:00:00ZZ", "",
    "x", "2017-04-07T00:00:00Ż", "２017-04-07T00:00:00Z", "2017/04/07T00:00:00Z", "2017-04-07T00:00:0aZ",
    "0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00",
    # not RFC 3339, though datetime.fromisoformat reads each of them from Python 3.11 on
    "20170403T000000Z", "2017-W14-1T00:00:00Z", "2017-04-03X00:00:00Z", "2017-04-03T00Z", "2017-04-03T00:00Z",
    "2017-04-03T00:00:00+01", "2017-04-03T00:00:00+01:00:30", "2017-04-03T00:00:00,5Z",
    "2017-04-03T00:00:00,123456789Z", "2017-04-03T00:00:00.Z", "2017-04-03T00:00:00+05:60",
]
GOOD_ODD_STAMPS = ["2000-02-29T23:59:59Z", "2016-02-29T12:00:00z", "1969-12-31T23:59:59Z", "9999-12-31T23:59:59Z",
                   "2017-04-07 00:00:00Z", " 2017-04-07T00:00:00Z ", "2017-04-07t00:00:00.5-08:00",
                   "2017-04-07T00:00:00.123456789Z"]
BAD_NUMBERS = ["abc", "nan", "NaN", "inf", "-inf", "300", "12001", "-1", "-1e-300", "1,5", "--1", "0x10", "1e3"]
ODD_NUMBERS = ["", " ", "-0.0", "0", "1e2", "1_0", " 2.5 ", "+7", "1E1", "5e-324"]
FAULTS = ["blank_link", "stamp", "odd_stamp", "speed", "flow", "travel_time", "width", "duplicate", "backwards"]


@st.composite
def series_texts(draw, max_rows=40):
    """A series CSV of valid rows, with now and then one that a check rejects:
    interleaved links, blank lines, quoted and padded fields, Z/z and +hh:mm offsets,
    fractional seconds, empty cells and nan/inf/-0.0 strings, either header."""
    width = draw(st.sampled_from([4, 5]))
    header = SERIES_HEADER[:width]
    if draw(st.booleans()):
        header = [f" {h} " for h in header]
    clocks = {}
    lines = []
    for _ in range(draw(st.integers(0, max_rows))):
        fault = draw(st.integers(0, 199))
        fault = FAULTS[fault] if fault < len(FAULTS) else None
        if draw(st.integers(0, 11)) == 0:
            lines.append([])
            continue
        link = draw(st.sampled_from(["L1", "L1", "L2", " L2 ", "L,3"]))
        if fault == "blank_link":
            link = draw(st.sampled_from(["", "  "]))
        clock = clocks.get(link.strip(), datetime(2017, 4, 3, tzinfo=timezone.utc))
        step = {"duplicate": 0, "backwards": -1}.get(fault, draw(st.sampled_from([1, 1, 1, 2, 90])))
        clock += timedelta(minutes=step, microseconds=0 if step < 1 else draw(st.sampled_from([0, 0, 1, 500_000])))
        clocks[link.strip()] = clock
        offset = draw(st.sampled_from(sorted(OFFSETS)))
        local = clock.astimezone(OFFSETS[offset])
        stamp = local.strftime("%Y-%m-%dT%H:%M:%S")
        if local.microsecond:
            stamp += f".{local.microsecond:06d}" if local.microsecond % 1000 else f".{local.microsecond // 1000:03d}"
        stamp += offset
        if fault in ("stamp", "odd_stamp"):
            stamp = draw(st.sampled_from(BAD_STAMPS if fault == "stamp" else GOOD_ODD_STAMPS))
        if draw(st.integers(0, 9)) == 0:
            stamp = f" {stamp} "
        values = []
        for what, top in (("speed", 250.0), ("flow", 12000.0), ("travel_time", 86400.0))[: width - 2]:
            text = draw(st.floats(0.0, top).map(repr) | st.sampled_from(ODD_NUMBERS))
            values.append(draw(st.sampled_from(BAD_NUMBERS)) if fault == what else text)
        row = [link, stamp, *values]
        if fault == "width":
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(row)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n", quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(lines)
    return buffer.getvalue()


@pytest.mark.parametrize("block", [1, 7, ingest._ROW_BLOCK])
@settings(max_examples=150, deadline=None)
@given(text=series_texts())
@example(text="link_id,timestamp,speed_kmh,flow_vph\n\nL1,2017-04-03T00:00:00Z,-0.0,nan\n")
@example(text='link_id,timestamp,speed_kmh,flow_vph\n"L1","2017-04-03T00:00:00Z","1","2"\n\nL1,x,y,z\n')
@example(text="link_id,timestamp,speed_kmh,flow_vph,travel_time_s\nL1,2017-04-03T00:00:00Z,1,2,nan\n")
@example(text="link_id,timestamp,speed_kmh,flow_vph,travel_time_s\nL1,2017-04-03T00:00:00Z,1,2,-inf\n")
@example(text="link_id,timestamp,speed_kmh,flow_vph\n")
@example(text="")
@example(text="\nlink_id,timestamp,speed_kmh,flow_vph\n")
def test_read_series_matches_row_parser(block, text):
    with mock.patch.object(ingest, "_ROW_BLOCK", block):
        assert read_outcome(text) == oracle_outcome(text)
        try:
            rows = rows_view(parse_series_oracle(io.StringIO(text)))
        except ParseError as exc:
            with pytest.raises(ParseError) as raised:
                parse_series(io.StringIO(text))
            assert (str(raised.value), raised.value.row) == (str(exc), exc.row)
        else:
            assert rows_view(parse_series(io.StringIO(text))) == rows


def two_link_rows(n):
    """n valid rows of two interleaved links, a blank line after every 97th."""
    stamps = format_stamps(simgen.SERIES_START_US + np.arange(n) * ingest.US_PER_MINUTE)
    lines = []
    for k in range(n):
        link = "L1" if k % 3 else "L2"
        lines.append(f"{link},{stamps[k]},{k % 120}.5,{k % 4000}")
        if k % 97 == 96:
            lines.append("")
    return lines


BAD_ROWS = {
    "duplicate": lambda lines, k: next(line for line in reversed(lines[:k]) if line),
    "backwards": lambda lines, k: "L2,2017-04-02T23:59:00Z,1,1",
    "speed": lambda lines, k: "L1,2099-01-01T00:00:00Z,251,1",
    "numeric": lambda lines, k: "L1,2099-01-01T00:00:00Z,1,x",
    "width": lambda lines, k: "L1,2099-01-01T00:00:00Z,1",
    "link": lambda lines, k: " ,2099-01-01T00:00:00Z,1,1",
    "stamp": lambda lines, k: "L1,2099-02-29T00:00:00Z,1,1",
}


@pytest.mark.parametrize("block", [1, 7, ingest._ROW_BLOCK])
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(BAD_ROWS)), offset=st.integers(0, 40), later=st.sampled_from(sorted(BAD_ROWS)))
@example(kind="duplicate", offset=0, later="width")
@example(kind="backwards", offset=0, later="duplicate")
def test_read_series_reports_a_bad_row_in_the_second_block(block, kind, offset, later):
    lines = two_link_rows(block + 60)
    k = min(block + offset, len(lines) - 2)  # data line k is file row k + 2, in the second block
    lines[k] = BAD_ROWS[kind](lines, k)
    lines[k + 1] = BAD_ROWS[later](lines, k + 1)
    text = "\n".join(["link_id,timestamp,speed_kmh,flow_vph", *lines]) + "\n"
    expected = oracle_outcome(text)
    assert expected[1] == k + 2
    with mock.patch.object(ingest, "_ROW_BLOCK", block):
        assert read_outcome(text) == expected


def test_read_series_groups_links_across_blocks():
    text = "\n".join(["link_id,timestamp,speed_kmh,flow_vph", *two_link_rows(3 * 7 + 5)]) + "\n"
    with mock.patch.object(ingest, "_ROW_BLOCK", 7):
        streams = read_series(io.StringIO(text))
    assert list(streams) == ["L2", "L1"]
    assert read_outcome(text) == oracle_outcome(text)
    assert [len(s) for s in streams.values()] == [9, 17]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32), st.integers(0, 24),
                          st.integers(0, 60), st.integers(0, 60), st.sampled_from("Zz")), min_size=1, max_size=30))
def test_array_timestamps_match_parse_timestamp(fields):
    # stamps of any years in one block, as text and as the file's bytes
    texts = [f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{sec:02d}{z}" for y, mo, d, h, mi, sec, z in fields]
    chars = np.frombuffer("".join(texts).encode("utf-8"), dtype=np.uint8).reshape(-1, 20)
    for given in (None, chars):
        epoch_us, problems = ingest._parse_stamps(texts, given)
        for i, text in enumerate(texts):
            try:
                expected = parse_timestamp(text)
            except ValueError as exc:
                assert problems[i] == str(exc)
            else:
                assert i not in problems and epoch_us[i] == expected


@pytest.mark.parametrize("stamp", BAD_STAMPS + GOOD_ODD_STAMPS + ["2017-04-07T00:00:00Z", "2017-04-07T00:00:00z"])
def test_read_series_parses_each_timestamp_as_the_row_parser(stamp):
    text = f"link_id,timestamp,speed_kmh,flow_vph\nL1,{stamp},1,1\n"
    assert read_outcome(text) == oracle_outcome(text)


# Canonical-shaped stamps that name no instant. numpy's cast of 600 or more strings to
# datetime64 crashes the process on one of them, so the test reads in a child process.
INVALID_CANONICAL_STAMPS = ["2017-00-05T10:00:00Z", "2017-13-05T10:00:00Z", "2017-04-31T10:00:00Z",
                            "2017-02-29T10:00:00Z", "2017-04-05T24:00:00Z", "2017-04-05T10:60:00Z",
                            "2017-04-05T10:00:60Z", "0000-04-05T10:00:00Z"]
READ_IN_CHILD = """
import json, sys
from flowsentry.ingest import ParseError, read_series
errors = []
for path in sys.argv[1:]:
    try:
        read_series(path)
    except ParseError as exc:
        errors.append([exc.row, str(exc)])
    else:
        errors.append(None)
print(json.dumps(errors))
"""


def test_many_canonical_stamps_with_invalid_fields_name_the_first_bad_row(tmp_path):
    rows = [f"L1,{format_timestamp(us(T0) + k * ingest.US_PER_MINUTE)},80.0,1200.0" for k in range(1500)]
    paths, expected = [], []
    for k, stamp in enumerate(INVALID_CANONICAL_STAMPS):
        bad = list(rows)
        first = 700 + k
        for i, text in zip(range(first, first + 3), (stamp, *INVALID_CANONICAL_STAMPS[:2])):
            bad[i] = f"L1,{text},80.0,1200.0"
        paths.append(tmp_path / f"series{k}.csv")
        paths[-1].write_text("\n".join(["link_id,timestamp,speed_kmh,flow_vph", *bad]) + "\n")
        with pytest.raises(ValueError) as raised:
            parse_timestamp(stamp)
        expected.append([first + 2, f"row {first + 2}: {raised.value}"])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run([sys.executable, "-c", READ_IN_CHILD, *map(str, paths)], env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == expected


@pytest.mark.parametrize(
    "row",
    [
        "L1,2017-04-03T00:00:00Z,300,1,1",  # duplicate and speed range
        "L1,2017-04-02T00:00:00Z,1,13000,1",  # non-monotone and flow range
        "L1,2017-04-02T00:00:00Z,1,1,-1",  # non-monotone and travel time range
        "L1,2017-04-03T00:00:00Z,x,1,1",  # duplicate and speed numeric
        "L1,2017-04-03T00:00:00Z,1,1,x",  # duplicate and travel time numeric
        "L1,garbage,x,1,1",  # timestamp and speed numeric
        " ,garbage,1,1,1",  # link and timestamp
        ",garbage,x",  # field count and everything else
        "L1,2017-04-03T00:01:00Z,300,13000,-1",  # speed, flow and travel time ranges
        "L1,2017-04-03T00:01:00Z,1,13000,-1",  # flow and travel time ranges
        "L1,2017-04-03T00:01:00Z,x,y,z",  # speed, flow and travel time numeric
        "L1,2017-04-03T00:01:00Z,1,y,z",  # flow and travel time numeric
        "L1,2017-04-03T00:01:00Z,nan,1,x",  # travel time numeric and speed range
        "L1,2017-04-03T00:01:00Z,1,1,nan",  # travel time range: it must be finite
        "L1,2017-04-03T00:01:00Z,1,1,inf",
        "L1,2017-04-03T00:01:00Z,1,1,-inf",
    ],
)
def test_read_series_reports_a_rows_first_failed_check(row):
    text = "\n".join([",".join(SERIES_HEADER), "L1,2017-04-03T00:00:00Z,1,1,1", row]) + "\n"
    assert read_outcome(text) == oracle_outcome(text)
    assert read_outcome(text)[1] == 3


@pytest.mark.parametrize("stamp", ["0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"])
def test_timestamp_outside_utc_years_names_the_series_row(stamp):
    text = f"link_id,timestamp,speed_kmh,flow_vph\n\nL1,{stamp},1,1\n"
    expected = (f"row 3: timestamp {stamp!r} is outside years 1-9999 in UTC", 3)
    assert read_outcome(text) == oracle_outcome(text) == expected


def test_timestamp_outside_utc_years_names_the_events_row():
    text = "link_id,category,start,end\nL1,accident,0001-01-01T00:00:00+01:00,2017-04-07T08:00:00Z\n"
    with pytest.raises(ParseError, match="^row 2: timestamp '0001-01-01T00:00:00\\+01:00' is outside years"):
        parse_events(io.StringIO(text))


def test_overflowing_density_is_out_of_range():
    text = "link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:00Z,1,2\nL1,2017-04-03T00:01:00Z,5e-324,1\n"
    assert read_outcome(text) == oracle_outcome(text) == ("row 3: density 1.0/5e-324 is not finite", 3)
    with pytest.raises(ValueError, match="infinite density"):
        LinkSeries("L1", np.array([0], dtype=np.int64), np.array([5e-324]), np.array([1.0]), np.array([np.nan]))


# --- the bulk splitter against the row parser --------------------------------------------

# Chunk budgets in characters: one line per chunk, two, several, and the whole text (any
# budget longer than the text, the reader's own included, reads it as one chunk).
CHUNKS = [1, 64, 256, 2**18]
# Timestamps 20 UTF-8 bytes long that are not 20 ASCII characters.
WIDE_STAMPS = ["2017-04-07T00:00:0Ż", "2017-04-07T00:0é:0Z"]


@contextmanager
def csv_rows_seen():
    """The rows csv.reader hands to ingest while the block runs, header rows included."""
    seen, reader = [], csv.reader

    def spy(*args, **kwargs):
        for row in reader(*args, **kwargs):
            seen.append(row)
            yield row

    with mock.patch.object(ingest.csv, "reader", spy):
        yield seen


@st.composite
def canonical_series_texts(draw, max_rows=40):
    """A series CSV as csv.writer writes it under QUOTE_MINIMAL, with no blank line and no
    id that needs quoting, so that plain comma splitting reads it: interleaved and non-ASCII
    link ids, either header, and now and then a row that a check rejects."""
    width = draw(st.sampled_from([4, 5]))
    clocks = {}
    lines = [",".join(SERIES_HEADER[:width])]
    for _ in range(draw(st.integers(0, max_rows))):
        fault = draw(st.integers(0, 199))
        fault = FAULTS[fault] if fault < len(FAULTS) else None
        link = draw(st.sampled_from(["L1", "L1", "L1", "L2", " L2 ", "Łódź", "東京"]))
        if fault == "blank_link":
            link = draw(st.sampled_from(["", "  "]))
        clock = clocks.get(link.strip(), datetime(2017, 4, 3, tzinfo=timezone.utc))
        step = {"duplicate": 0, "backwards": -1}.get(fault, draw(st.sampled_from([1, 1, 1, 2, 90])))
        clock += timedelta(minutes=step, microseconds=0 if step < 1 else draw(st.sampled_from([0, 0, 0, 1])))
        clocks[link.strip()] = clock
        stamp = iso(us(clock))
        if fault in ("stamp", "odd_stamp"):
            stamp = draw(st.sampled_from(BAD_STAMPS + WIDE_STAMPS if fault == "stamp" else GOOD_ODD_STAMPS))
        values = []
        for what, top in (("speed", 250.0), ("flow", 12000.0), ("travel_time", 86400.0))[: width - 2]:
            text = draw(st.floats(0.0, top).map(repr) | st.sampled_from(ODD_NUMBERS))
            values.append(draw(st.sampled_from(BAD_NUMBERS)) if fault == what else text)
        row = [link, stamp, *values]
        if fault == "width":
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerow(row)
        lines.append(buffer.getvalue()[:-1])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=100, deadline=None)
@given(text=canonical_series_texts())
@example(text="link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:00Z,1,2\nL1,2017-04-03T00:00:00Z,1,2\n")
@example(text="link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:0Ż,1,2\n")
@example(text="link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:00Z, 1 ,\n")
@example(text="link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:00Z,1,2\nL1")
@example(text="link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:00Z,1\nL1,2017-04-03T00:01:00Z,1,2,3\n")
def test_read_series_splits_plain_lines_as_the_row_parser(chunk, text):
    lines = text.splitlines()
    plain = '"' not in text and all(line.count(",") == lines[0].count(",") for line in lines)
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk), csv_rows_seen() as seen:
        outcome = read_outcome(text)
    assert outcome == oracle_outcome(text)
    if plain:  # csv.reader splits the header alone
        assert len(seen) == 1


SWITCHES = {  # a line from which csv.reader splits the rest of the file
    "quote": lambda lines, k: lines.__setitem__(k, '"' + lines[k].replace(",", '",', 1)),
    "blank": lambda lines, k: lines.insert(k, ""),
    "width": lambda lines, k: lines.__setitem__(k, lines[k] + ",1,1"),
}
ENDINGS = {"no_final_newline": "", "bare_last_line": "\nL1"}  # the file's last line has no \n


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=40, deadline=None)
@given(
    switch=st.sampled_from(sorted(SWITCHES) + sorted(ENDINGS)),
    at=st.integers(5, 40),
    later=st.sampled_from(sorted(BAD_ROWS) + [None]),
    gap=st.integers(0, 6),
)
@example(switch="blank", at=5, later="duplicate", gap=1)
@example(switch="quote", at=40, later="width", gap=6)
def test_read_series_hands_the_rest_to_csv_after_a_plain_chunk(chunk, switch, at, later, gap):
    lines = two_link_rows(48)
    if later is not None:
        lines[at + gap] = BAD_ROWS[later](lines, at + gap)
    if switch in SWITCHES:
        SWITCHES[switch](lines, at)
    text = "\n".join(["link_id,timestamp,speed_kmh,flow_vph", *lines]) + ENDINGS.get(switch, "\n")
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk), csv_rows_seen() as seen:
        outcome = read_outcome(text)
    assert outcome == oracle_outcome(text)
    if later is None or switch in SWITCHES:  # no bad row comes before the switch
        assert len(seen) > 1


def simulated_series_text():
    """A simulated week of one link, and its series CSV as ``write_series`` writes it."""
    stream, _ = simgen.generate(simgen.ScenarioConfig(seed=3, weeks=1))
    buffer = io.StringIO()
    write_series(stream, buffer)
    return stream, buffer.getvalue()


def test_read_series_splits_a_simulated_series_without_csv():
    stream, text = simulated_series_text()
    with csv_rows_seen() as seen, mock.patch.object(ingest, "parse_timestamp", side_effect=parse_timestamp) as slow:
        outcome = read_outcome(text)
    assert seen == [SERIES_HEADER]
    assert not slow.called  # every stamp is converted from the chunk's bytes
    assert outcome == oracle_outcome(text) == column_bytes({stream.link_id: stream})


@pytest.mark.parametrize("length", [40, 41])
def test_read_series_keeps_csvs_field_size_limit(length):
    text = f"link_id,timestamp,speed_kmh,flow_vph\n{'L' * length},2017-04-03T00:00:00Z,1,2\n"
    limit = csv.field_size_limit(40)
    try:
        if length > 40:
            with pytest.raises(csv.Error, match="field larger than field limit"):
                parse_series_oracle(io.StringIO(text))
            with pytest.raises(csv.Error, match="field larger than field limit"):
                read_series(io.StringIO(text))
        else:
            assert read_outcome(text) == oracle_outcome(text)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("newline", ["", "\n"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_read_series_splits_a_lone_carriage_return_as_its_handle(chunk, newline):
    # a newline="" handle (a file opened by path) ends a line at a lone \r; a StringIO does not
    lines = two_link_rows(30)
    lines[20] += "\r" + lines.pop(21)
    text = "\n".join(["link_id,timestamp,speed_kmh,flow_vph", *lines]) + "\n"

    def outcome(read):
        try:
            return column_bytes(read(io.StringIO(text, newline=newline)))
        except csv.Error as exc:
            return str(exc)

    expected = outcome(oracle_series)
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
        assert outcome(read_series) == expected
    assert isinstance(expected, str) == (newline == "\n")


@pytest.mark.parametrize("chunk", CHUNKS)
def test_read_series_ends_a_line_at_a_lone_carriage_return_in_a_file(tmp_path, chunk):
    # a file's text handle reports the newlines it has seen only once it decodes them; bytes
    # and a binary handle read as the file of the same bytes does
    lines = two_link_rows(30)
    lines[20] += "\r" + lines.pop(21)
    text = "\n".join(["link_id,timestamp,speed_kmh,flow_vph", *lines]) + "\r"
    path = tmp_path / "series.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = column_bytes(oracle_series(io.StringIO(text, newline="")))
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
        for source in (path, path.read_bytes(), io.BytesIO(path.read_bytes())):
            assert column_bytes(read_series(source)) == expected


@pytest.mark.parametrize(
    "read, text",
    [
        (lambda source: column_bytes(read_series(source)), make_series_csv(two_link_rows(300)).getvalue()),
        (parse_events, "link_id,category,start,end\nL1,accident,2017-04-07T08:00:00Z,2017-04-07T09:00:00Z\n"),
        (
            detector.read_flags_csv,
            ",".join(detector.FLAGS_HEADER) + "\nL1,2017-04-07T08:00:00Z,2017-04-07T08:09:00Z,10,1.5,right,true\n",
        ),
    ],
    ids=["series", "events", "flags"],
)
def test_a_read_leaves_a_binary_handle_open_to_read_again(read, text):
    handle = io.BytesIO(text.encode("utf-8"))
    first = read(handle)
    gc.collect()  # a text wrapper left on the handle would close it when collected
    assert not handle.closed
    handle.seek(0)
    assert read(handle) == first


@pytest.mark.parametrize("layout", ["runs", "interleaved"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_read_series_reads_two_links_in_runs_or_interleaved(chunk, layout):
    stamps = format_stamps(simgen.SERIES_START_US + np.arange(300) * ingest.US_PER_MINUTE)
    rows = {
        link: [f"{link},{stamps[k]},{k % 120}.5,{k % 4000}" for k in range(n)]
        for link, n in (("L1", 300), ("L2", 200))
    }
    if layout == "runs":
        lines = rows["L1"] + rows["L2"]
    else:
        lines = [line for pair in zip(rows["L1"], rows["L2"]) for line in pair] + rows["L1"][200:]
    text = "\n".join(["link_id,timestamp,speed_kmh,flow_vph", *lines]) + "\n"
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk):
        outcome = read_outcome(text)
    assert outcome == oracle_outcome(text)
    assert [link for link, *_ in outcome] == ["L1", "L2"]


def one_link_series(n):
    rng = np.random.default_rng(5)
    epoch_us = (np.arange(n) + 24_768_000) * ingest.US_PER_MINUTE
    values = (rng.uniform(20, 120, n).round(1), rng.uniform(0, 3000, n).round(), rng.uniform(30, 300, n).round(2))
    return LinkSeries("L1", epoch_us, *values)


def read_scratch(path):
    """tracemalloc's peak while ``read_series`` reads a file, less the bytes of the columns it returns."""
    tracemalloc.start()
    try:
        streams = read_series(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    names = ("epoch_us", "speed", "flow", "travel_time", "density")
    return peak - sum(getattr(stream, name).nbytes for stream in streams.values() for name in names)


def test_read_scratch_memory_does_not_grow_with_rows(tmp_path):
    # one chunk's scratch: 1.41 and 1.07 MiB here; concatenating per-chunk blocks and then
    # gathering each link's rows took 3.9 and 6.1 MiB
    scratch = []
    for n in (5_000, 100_000):
        path = tmp_path / f"series{n}.csv"
        write_series(one_link_series(n), path)
        scratch.append(read_scratch(path))
    assert scratch[1] - scratch[0] < 2**18, scratch


@pytest.mark.parametrize("newline", ["", "\n"])
@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=60, deadline=None)
@given(text=canonical_series_texts(), data=st.data())
@example(text="link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:00Z,1,\nL1,2017-04-03T00:01:00Z,,2\n",
         data=None)
def test_read_series_splits_crlf_lines_in_bulk(chunk, newline, text, data):
    # any mix of \n and \r\n line ends, the header's included; a chunk of one line (chunk 1)
    # ends at every \r\n
    lines = text[:-1].split("\n")
    crlf = data.draw(st.lists(st.booleans(), min_size=len(lines), max_size=len(lines))) if data else [True] * len(lines)
    text = "".join(line + ("\r\n" if end else "\n") for line, end in zip(lines, crlf))
    plain = '"' not in text and all(line.count(",") == lines[0].count(",") for line in lines)
    with mock.patch.object(ingest, "_CHUNK_CHARS", chunk), csv_rows_seen() as seen:
        outcome = read_outcome(text, newline)
    assert outcome == oracle_outcome(text, newline)
    if plain:  # csv.reader splits the header alone
        assert len(seen) == 1


BOM = "\ufeff"


@pytest.mark.parametrize("bom", ["", BOM])
def test_read_series_splits_a_crlf_file_without_csv(tmp_path, bom):
    # about 6 chunks of the default size and 100 of the decoder's 8 KiB buffer, each
    # buffer boundary at a different place in a \r\n line
    stream, text = simulated_series_text()
    path = tmp_path / "series.csv"
    path.write_bytes((bom + text.replace("\n", "\r\n")).encode("utf-8"))
    with csv_rows_seen() as seen:
        streams = read_series(path)
    assert seen == [SERIES_HEADER]
    assert column_bytes(streams) == column_bytes({stream.link_id: stream})


def test_a_byte_order_mark_opening_an_input_is_skipped(tmp_path):
    _, series = simulated_series_text()
    events = "link_id,category,start,end\nL1,accident,2017-04-07T08:00:00Z,2017-04-07T09:00:00Z\n"
    flags = ",".join(detector.FLAGS_HEADER) + "\nL1,2017-04-07T08:00:00Z,2017-04-07T08:09:00Z,10,1.5,right,true\n"
    readers = [(series, lambda source: column_bytes(read_series(source))), (series, parse_series),
               (events, parse_events), (flags, detector.read_flags_csv)]
    for k, (text, read) in enumerate(readers):
        expected = read(io.StringIO(text))
        for bom in ("", BOM):
            data = (bom + text).encode("utf-8")
            path = tmp_path / f"input{k}{len(bom)}.csv"
            path.write_bytes(data)
            for source in (path, data, io.BytesIO(data)):
                assert read(source) == expected


HEADER = "link_id,timestamp,speed_kmh,flow_vph\n"


@pytest.mark.parametrize(
    "text, error",
    [
        (BOM + HEADER, "row 1: unexpected header ['\\ufefflink_id', "),  # one mark is skipped, not two
        (HEADER + f"L1,{BOM}2017-04-03T00:00:00Z,1,2\n", "row 2: timestamp '\\ufeff2017-"),
        (HEADER + f"L1,2017-04-03T00:00:00Z,{BOM}1,2\n", "row 2: speed '\\ufeff1' is not numeric"),
    ],
)
def test_a_byte_order_mark_elsewhere_is_still_an_error(tmp_path, text, error):
    path = tmp_path / "series.csv"
    path.write_bytes((BOM + text).encode("utf-8"))
    with pytest.raises(ParseError) as raised:
        read_series(path)
    assert str(raised.value).startswith(error)


def test_a_text_handle_keeps_its_byte_order_mark():
    with pytest.raises(ParseError, match="^row 1: unexpected header"):
        read_series(io.StringIO(BOM + HEADER))
