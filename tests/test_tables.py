"""The small CSV tables: events, excursions and flags, calibration sweeps, the Table 1 report.

Every table is read by ``ingest.read_table`` and written by ``ingest.write_table``. The
writers are held to the bytes that each one's own ``csv.writer`` code wrote before the
tables shared a writer (kept here as the reference), and the readers to one contract.
"""

import ast
import csv
import io
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import flowsentry
from flowsentry import cli, detector, ingest
from flowsentry import evaluation as ev
from flowsentry.baselines import McMasterParams
from flowsentry.ingest import EVENTS_HEADER, EventLabel, ParseError, format_stamps, parse_events, read_table

# cells a writer has to quote: commas, quotes, line ends, padding and non-ASCII letters
AWKWARD = st.text(st.sampled_from(list(',"\n\r abé東')), min_size=1, max_size=8)
INSTANTS = st.integers(-(10**15), 10**15)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def reference_table(header, rows):
    """What each table writer wrote with its own csv.writer."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def written(write, *args):
    buffer = io.StringIO()
    write(*args, buffer)
    return buffer.getvalue()


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(AWKWARD, st.sampled_from(sorted(ingest.EVENT_CATEGORIES)), INSTANTS, INSTANTS)))
def test_events_are_written_as_before(rows):
    labels = [EventLabel(link, category, min(a, b), max(a, b)) for link, category, a, b in rows]
    starts = format_stamps([label.start_us for label in labels])
    ends = format_stamps([label.end_us for label in labels])
    expected = reference_table(
        EVENTS_HEADER, [(label.link_id, label.category, a, b) for label, a, b in zip(labels, starts, ends)]
    )
    assert written(ingest.write_events, labels) == expected


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(AWKWARD, INSTANTS, INSTANTS, st.integers(1, 10**6), st.floats(1e-300, 1e300), st.booleans(),
                  st.booleans())
    )
)
def test_excursions_and_flags_are_written_as_before(rows):
    flags = [
        detector.FlagRow(link, min(a, b), max(a, b), minutes, peak, "right" if right else "left", right and flagged)
        for link, a, b, minutes, peak, right, flagged in rows
    ]
    starts = format_stamps([r.start_us for r in flags])
    ends = format_stamps([r.end_us for r in flags])
    expected = reference_table(
        detector.FLAGS_HEADER,
        [
            (r.link_id, a, b, r.duration_min, repr(r.max_severity), r.exit_side, "true" if r.flagged else "false")
            for r, a, b in zip(flags, starts, ends)
        ],
    )
    assert written(detector.write_excursions_csv, flags) == expected


SCORES = st.builds(ev.DetectorScore, FINITE, FINITE, st.none() | FINITE)
MCMASTER = st.builds(
    McMasterParams, FINITE, st.floats(0, 1e6), st.just(0.0), st.floats(1e-3, 1e3), st.floats(1e-3, 1e4)
)


@settings(max_examples=100, deadline=None)
@given(
    detector_name=st.sampled_from(["dftb", "snd", "mcmaster"]),
    data=st.data(),
)
@example(detector_name="snd", data=None)
def test_sweeps_are_written_as_before(detector_name, data):
    if data is None:  # every point's MTTD and PI undefined
        sweep = [("", 0.5, ev.DetectorScore(10.0, 0.5, None)), ("", 1.0, ev.DetectorScore(0.0, 0.0, None))]
    else:
        parameter = MCMASTER if detector_name == "mcmaster" else FINITE
        stage = st.sampled_from(["coarse", "fine"]) if detector_name == "mcmaster" else st.just("")
        sweep = data.draw(st.lists(st.tuples(stage, parameter, SCORES), min_size=1, max_size=12))
    result = ev.CalibrationResult(sweep[0][1], sweep[0][2], tuple(sweep))
    rows = []
    for stage, parameter, s in sweep:
        values = [stage, *astuple(parameter)] if detector_name == "mcmaster" else [parameter]
        rows.append([*values, s.dr, s.far, s.mttd, s.pi])
    expected = reference_table([*cli._SWEEP_PARAMETERS[detector_name], "dr", "far", "mttd", "pi"], rows)
    buffer = io.StringIO()
    cli._write_sweep(result, detector_name, buffer)
    assert buffer.getvalue() == expected
    if data is None:
        assert expected.splitlines()[1:] == ["0.5,10.0,0.5,,", "1.0,0.0,0.0,,"]


STATS = st.builds(ev.AggregateStats, FINITE, FINITE, FINITE, FINITE)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.builds(ev.FixtureRow, AWKWARD, *([FINITE] * 7)), max_size=6),
    stats=st.fixed_dictionaries({m: STATS for m in ev.FIXTURE_METRICS}),
)
def test_the_table1_report_is_written_as_before(rows, stats):
    lines = [[r.location, r.length_km, *(getattr(r, m) for m in ev.FIXTURE_METRICS)] for r in rows]
    for stat in ("mean", "median", "std", "iqr"):
        lines.append([stat, "", *(round(getattr(stats[m], stat), 3) for m in ev.FIXTURE_METRICS)])
    expected = reference_table(["location", "length_km", *ev.FIXTURE_METRICS], lines)
    assert written(ev.write_report_csv, rows, stats) == expected


# --- the reading contract ------------------------------------------------------------------

EVENT_ROW = ["L1", "accident", "2017-04-07T08:00:00Z", "2017-04-07T09:00:00Z"]
FLAG_ROW = ["L1", "2017-04-07T08:00:00Z", "2017-04-07T08:09:00Z", "10", "1.5", "right", "true"]
TABLES = {  # a table's reader, header and one good row
    "events": (parse_events, EVENTS_HEADER, EVENT_ROW),
    "flags": (detector.read_flags_csv, detector.FLAGS_HEADER, FLAG_ROW),
}


def table_text(header, rows, end="\n"):
    return "".join(",".join(cells) + end for cells in [header, *rows])


@pytest.mark.parametrize("table", sorted(TABLES))
def test_read_table_numbers_rows_and_skips_blank_ones(table):
    _, header, good = TABLES[table]
    text = table_text([f" {cell}\t" for cell in header], [[], good, [], [], good])  # padded header cells
    assert list(read_table(io.StringIO(text), header)) == [(3, good), (6, good)]


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("layout", ["bom", "crlf", "bom_crlf", "lone_cr", "padded_header"])
def test_every_table_reads_the_same_from_any_line_end_mark_or_padding(tmp_path, table, layout):
    read, header, good = TABLES[table]
    expected = read(io.StringIO(table_text(header, [good, [], good])))
    if layout == "padded_header":
        header = [f" {cell} " for cell in header]
    text = table_text(header, [good, [], good], "\r" if layout == "lone_cr" else "\r\n" if "crlf" in layout else "\n")
    data = (("\ufeff" if "bom" in layout else "") + text).encode("utf-8")
    path = tmp_path / "table.csv"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data), data):  # each read with newline="": a lone \r ends a line
        assert read(source) == expected


@pytest.mark.parametrize("table", sorted(TABLES))
def test_a_lone_carriage_return_inside_a_line_of_a_text_handle_is_csvs_error(table):
    read, header, good = TABLES[table]
    text = table_text(header, [good]).replace("\n", "\r", 1)
    with pytest.raises(csv.Error, match="new-line character seen in unquoted field"):
        read(io.StringIO(text))


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize(
    "case, row, message",
    [
        ("empty", 1, "empty input, expected a header row"),
        ("other_header", 1, "unexpected header ["),
        ("short_row", 5, "expected {width} fields, got {short}"),
        ("long_row", 5, "expected {width} fields, got {long}"),
        ("bad_stamp", 5, "timestamp '2017-04-07T08:00:00' lacks a UTC offset"),
    ],
)
def test_every_table_names_the_row_it_rejects(table, case, row, message):
    read, header, good = TABLES[table]
    bad = {"short_row": good[:-1], "long_row": [*good, "x"], "bad_stamp": [c.rstrip("Z") for c in good]}.get(case, good)
    rows = [good, [], good, bad, good[:1]]  # the blank line is row 3; a later short row is never reached
    text = "" if case == "empty" else table_text(header[:-1] if case == "other_header" else header, rows)
    message = message.format(width=len(header), short=len(header) - 1, long=len(header) + 1)
    with pytest.raises(ParseError) as raised:
        read(io.StringIO(text))
    assert raised.value.row == row
    assert str(raised.value).startswith(f"row {row}: {message}")


def test_the_flags_header_error_is_the_events_one():
    header = [*detector.FLAGS_HEADER[:-1], "flag"]
    with pytest.raises(ParseError, match=r"^row 1: unexpected header \['link_id', .*'flag'\]$"):
        detector.read_flags_csv(io.StringIO(table_text(header, [])))


# --- one module holds the table format -----------------------------------------------------

CSV_CONSTRUCTORS = {"reader", "writer", "DictReader", "DictWriter"}


def test_only_ingest_constructs_csv_readers_and_writers():
    package = Path(flowsentry.__file__).parent
    found = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "ingest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                found += [f"{path.name}:{node.lineno}" for name in node.names if name.name in CSV_CONSTRUCTORS]
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
                and node.attr in CSV_CONSTRUCTORS
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], "read and write tables through ingest.read_table and ingest.write_table"
