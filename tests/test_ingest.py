import io
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry.ingest import (
    EventLabel,
    LinkMeta,
    LinkSeries,
    ParseError,
    TrafficSample,
    by_link,
    nonrecurrent_filter,
    parse_events,
    parse_series,
    write_events,
    write_series,
)

T0 = datetime(2017, 4, 7, tzinfo=timezone.utc)


def make_series_csv(rows, header="link_id,timestamp,speed_kmh,flow_vph"):
    return io.StringIO(header + "\n" + "\n".join(rows) + "\n")


def test_parse_row_derives_density():
    samples = parse_series(make_series_csv(["L1,2017-04-07T00:00:00Z,100,2000"]))
    assert len(samples) == 1
    assert samples[0].density == pytest.approx(20.0)
    assert samples[0].timestamp == T0


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
    sample = TrafficSample("L9", T0 + timedelta(minutes=minutes), speed, flow, travel)
    buf = io.StringIO()
    write_series([sample], buf)
    back = parse_series(io.StringIO(buf.getvalue()))[0]
    assert back == sample


def test_link_series_rejects_empty_stream():
    with pytest.raises(ValueError, match="empty stream"):
        LinkSeries.from_samples([])


def test_link_series_rejects_mixed_links():
    samples = [TrafficSample("L1", T0, 90.0, 1000.0), TrafficSample("L2", T0 + timedelta(minutes=1), 90.0, 1000.0)]
    with pytest.raises(ValueError, match="mixes links 'L1' and 'L2'"):
        LinkSeries.from_samples(samples)


@pytest.mark.parametrize("offset_min", [0, -1])
def test_link_series_rejects_unordered_stream(offset_min):
    samples = [
        TrafficSample("L1", T0, 90.0, 1000.0),
        TrafficSample("L1", T0 + timedelta(minutes=1), 90.0, 1000.0),
        TrafficSample("L1", T0 + timedelta(minutes=1 + offset_min), 90.0, 1000.0),
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
    samples = []
    t = T0 + timedelta(seconds=seconds)
    for gap, speed, flow, travel in rows:
        t += timedelta(minutes=gap)
        samples.append(TrafficSample("L3", t, speed, flow, travel))
    series = LinkSeries.from_samples(samples)
    assert len(series) == len(samples)
    assert series.link_id == "L3"
    assert series.timestamps == tuple(s.timestamp for s in samples)
    assert series.minutes.tolist() == [int(s.timestamp.timestamp() // 60) for s in samples]
    for name in ("speed", "flow", "density", "travel_time"):
        np.testing.assert_array_equal(getattr(series, name), _column([getattr(s, name) for s in samples]))
    assert series.usable.tolist() == [s.has_density for s in samples]
    expected_points = np.array([(s.density, s.flow) for s in samples if s.has_density]).reshape(-1, 2)
    np.testing.assert_array_equal(series.points, expected_points)


def test_events_round_trip_and_duration():
    text = io.StringIO("link_id,category,start,end\nL1,accident,2017-04-07T08:00:00Z,2017-04-07T09:40:00Z\n")
    labels = parse_events(text)
    assert labels[0].duration_minutes == pytest.approx(100.0)
    buf = io.StringIO()
    write_events(labels, buf)
    assert parse_events(io.StringIO(buf.getvalue())) == labels


def test_unknown_event_category_warns_and_maps_to_other():
    text = io.StringIO("link_id,category,start,end\nL1,alien,2017-04-07T08:00:00Z,2017-04-07T09:00:00Z\n")
    with pytest.warns(UserWarning, match="alien"):
        labels = parse_events(text)
    assert labels[0].category == "other"


def test_event_end_before_start_rejected():
    text = io.StringIO("link_id,category,start,end\nL1,accident,2017-04-07T09:00:00Z,2017-04-07T08:00:00Z\n")
    with pytest.raises(ParseError, match="precedes"):
        parse_events(text)


def make_label(category, minute=0):
    start = T0 + timedelta(minutes=minute)
    return EventLabel("L1", category, start, start + timedelta(minutes=10))


def test_nonrecurrent_filter_drops_roadworks_and_weather():
    labels = [make_label("accident"), make_label("weather", 20)]
    assert nonrecurrent_filter(labels) == [labels[0]]
    assert nonrecurrent_filter([]) == []
    triple = [make_label("roadworks"), make_label("deviation_from_profile", 20), make_label("obstruction", 40)]
    assert nonrecurrent_filter(triple) == triple[1:]


def test_link_meta_length_warning():
    with pytest.warns(UserWarning, match="outside"):
        LinkMeta("L1", 150.0)
    LinkMeta("L2", 700.0)  # no warning
    with pytest.raises(ValueError):
        LinkMeta("L3", -5.0)
