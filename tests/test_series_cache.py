"""The columns sidecar behind the command line's series reads (``cli._read_series``).

A cold read parses the file and leaves ``.<name>.flowsentry`` beside it; a warm read
of the same bytes loads the columns without reaching the parser. Either read gives the
columns ``ingest.read_series`` gives, bit for bit. A sidecar that does not match the
file's bytes or the reader, or cannot be read whole, is parsed over and rewritten.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsentry import cli, ingest
from flowsentry.cli import main
from test_ingest import BOM, canonical_series_texts, column_bytes, series_texts, simulated_series_text


def sidecar_of(path):
    return path.with_name(f".{path.name}.flowsentry")


def outcome(read, path):
    """The per-link columns a reader gives for a file, or its error and row."""
    try:
        return column_bytes(read(path))
    except ingest.ParseError as exc:
        return str(exc), exc.row


def cli_read(path):
    """``cli._read_series``, with a file of no samples read as no streams."""
    try:
        return cli._read_series(str(path))
    except cli.UsageError as exc:
        assert str(exc) == f"no samples in {path}"
        return {}


@contextmanager
def parses_counted():
    """The number of times the parser runs while the block does."""
    calls, parse = [], ingest._read_columns

    def counted(source):
        calls.append(source)
        return parse(source)

    with mock.patch.object(ingest, "_read_columns", counted):
        yield calls


@contextmanager
def parser_unreachable():
    def fail(source):
        raise AssertionError("a warm read reached the parser")

    with mock.patch.object(ingest, "_read_columns", fail):
        yield


def check_cold_and_warm(path):
    expected = outcome(ingest.read_series, path)
    assert not sidecar_of(path).exists()  # library reads write none
    assert outcome(cli_read, path) == expected
    if isinstance(expected, tuple):  # a malformed file leaves no sidecar
        assert not sidecar_of(path).exists()
        return
    with parser_unreachable():
        assert outcome(cli_read, path) == expected


@settings(max_examples=120, deadline=None)
@given(text=canonical_series_texts() | series_texts(), crlf=st.booleans(), bom=st.booleans())
@example(text="link_id,timestamp,speed_kmh,flow_vph\n", crlf=False, bom=False)
@example(text="link_id,timestamp,speed_kmh,flow_vph\nL1,2017-04-03T00:00:00Z,,\nL1,2017-04-03T00:01:00Z,0,\n",
         crlf=True, bom=True)
def test_cli_reads_give_the_parsers_columns_cold_and_warm(text, crlf, bom):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "series.csv"
        if crlf:
            text = text.replace("\n", "\r\n")
        path.write_bytes(((BOM if bom else "") + text).encode("utf-8"))
        check_cold_and_warm(path)


def interleaved(text):
    """The simulated link's rows, each followed by the same row of a second link."""
    header, rows = text.split("\n", 1)
    lines = rows.splitlines()
    link = lines[0].split(",", 1)[0]
    return "\n".join([header, *(f"{row}\n{row.replace(link, 'L2', 1)}" for row in lines)]) + "\n"


def four_columns(text):
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def blank_cells(text):
    """Every seventh row's speed blank and every fifth row's flow blank."""
    header, *lines = text.splitlines()
    rows = [line.split(",") for line in lines]
    for k, row in enumerate(rows):
        if k % 7 == 0:
            row[2] = ""
        if k % 5 == 0:
            row[3] = ""
    return "\n".join([header, *map(",".join, rows)]) + "\n"


SHAPES = {
    "one link": lambda text: text,
    "interleaved links": interleaved,
    "four columns": four_columns,
    "blank cells": blank_cells,
    "bom and crlf": lambda text: BOM + text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_cli_reads_a_simulated_week_as_the_parser_cold_and_warm(tmp_path, shape):
    _, text = simulated_series_text()
    path = tmp_path / "series.csv"
    path.write_bytes(SHAPES[shape](text).encode("utf-8"))
    check_cold_and_warm(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == [".series.csv.flowsentry", "series.csv"]


def test_the_sidecar_is_keyed_by_the_bytes_parsed_and_the_readers_source(tmp_path):
    _, text = simulated_series_text()
    path = tmp_path / "series.csv"
    path.write_text(interleaved(text))
    streams = cli._read_series(str(path))
    magic, header, body = sidecar_of(path).read_bytes().split(b"\n", 2)
    header = json.loads(header)
    source = Path(ingest.__file__).read_bytes()
    assert magic + b"\n" == ingest.SIDECAR_MAGIC
    assert header == {
        "series_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
        "reader_sha256": hashlib.sha256(source).hexdigest(),
        "links": [[link, len(stream)] for link, stream in streams.items()],
        "body_sha256": hashlib.sha256(body).hexdigest(),
    }
    assert len(body) == 32 * sum(map(len, streams.values()))


def corrupt_header(key, value):
    def corrupt(data):
        magic, header, body = data.split(b"\n", 2)
        header = json.loads(header)
        header[key] = value(header[key])
        return b"\n".join([magic, json.dumps(header).encode(), body])

    return corrupt


CORRUPTIONS = {
    "empty": lambda data: b"",
    "truncated in the header": lambda data: data[:40],
    "truncated in the body": lambda data: data[:-8],
    "longer body": lambda data: data + bytes(32),
    "garbage": lambda data: bytes(range(256)) * 64,
    "unknown magic": lambda data: data.replace(ingest.SIDECAR_MAGIC, b"flowsentry columns 2\n", 1),
    "header not JSON": lambda data: data.replace(b'{"series', b'{series', 1),
    "wrong series digest": corrupt_header("series_sha256", lambda digest: "0" * 64),
    "wrong reader digest": corrupt_header("reader_sha256", lambda digest: "0" * 64),
    "wrong body digest": corrupt_header("body_sha256", lambda digest: "0" * 64),
    "flipped body byte": lambda data: data[:-1] + bytes([data[-1] ^ 1]),
    "more rows than the body": corrupt_header("links", lambda links: [[links[0][0], links[0][1] + 1]]),
    "fewer rows than the body": corrupt_header("links", lambda links: [[links[0][0], links[0][1] - 1]]),
    "no rows": corrupt_header("links", lambda links: [[links[0][0], 0]]),
    "links not pairs": corrupt_header("links", lambda links: [[links[0][0]]]),
}


def check_reparsed_and_rewritten(path):
    """A read parses the file once, gives the parser's columns and leaves a sidecar that
    the next read loads."""
    expected = column_bytes(ingest.read_series(path))
    with parses_counted() as calls:
        assert column_bytes(cli._read_series(str(path))) == expected
    assert len(calls) == 1
    with parser_unreachable():
        assert column_bytes(cli._read_series(str(path))) == expected


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_a_sidecar_that_does_not_match_is_parsed_over_and_rewritten(tmp_path, corruption):
    _, text = simulated_series_text()
    path = tmp_path / "series.csv"
    path.write_text(text)
    cli._read_series(str(path))
    sidecar = sidecar_of(path)
    sidecar.write_bytes(CORRUPTIONS[corruption](sidecar.read_bytes()))
    check_reparsed_and_rewritten(path)


def test_a_series_rewritten_with_the_same_size_and_time_is_read_anew(tmp_path):
    _, text = simulated_series_text()
    path = tmp_path / "series.csv"
    path.write_text(text)
    before = cli._read_series(str(path))
    stat = path.stat()
    header, first, rest = text.split("\n", 2)
    cells = first.split(",")
    digit = int(cells[2][0])
    cells[2] = str(digit - 1 if digit else 1) + cells[2][1:]  # the first speed's first digit, within range
    path.write_text("\n".join([header, ",".join(cells), rest]))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    check_reparsed_and_rewritten(path)
    after = cli._read_series(str(path))
    assert column_bytes(after) != column_bytes(before)
    assert after[cells[0]].speed[0] == float(cells[2])


def test_a_pipe_is_parsed_without_a_sidecar(tmp_path):
    _, text = simulated_series_text()
    path = tmp_path / "series.csv"
    os.mkfifo(path)

    def feed():
        with open(path, "w") as handle:
            handle.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        streams = cli._read_series(str(path))
    finally:
        writer.join(timeout=30)
    (tmp_path / "plain.csv").write_text(text)
    assert column_bytes(streams) == column_bytes(ingest.read_series(tmp_path / "plain.csv"))
    assert not sidecar_of(path).exists()


@pytest.fixture(scope="module")
def region(tmp_path_factory):
    root = tmp_path_factory.mktemp("region")
    assert main(["simulate", "--out", str(root / "sim"), "--seed", "3", "--weeks", "1", "--incidents", "3"]) == 0
    assert main(["fit", "--series", str(root / "sim" / "series.csv"), "--out", str(root / "fit")]) == 0
    return root / "fit" / "region.json"


def detect_argv(series, region, out):
    return ["detect", "--series", str(series), "--region", str(region), "--mode", "severity", "--threshold", "0.2",
            "--out", str(out)]


OUTPUTS = ("excursions.csv", "flags.csv")


def test_a_malformed_series_exits_2_on_every_run_and_leaves_no_sidecar(tmp_path, region, capsys):
    _, text = simulated_series_text()
    path = tmp_path / "series.csv"
    lines = text.split("\n")
    lines[40] = lines[40].replace(",", ",x", 2)  # row 41's timestamp
    path.write_text("\n".join(lines))
    try:
        ingest.read_series(path)
    except ingest.ParseError as exc:
        message = f"error: {exc}\n"
    assert message.startswith("error: row 41: ")
    for _ in range(2):
        assert main(detect_argv(path, region, tmp_path / "det")) == 2
        assert capsys.readouterr().err == message
        assert sorted(p.name for p in tmp_path.iterdir()) == ["series.csv"]


def test_a_sidecar_that_cannot_be_written_is_skipped(tmp_path, region, monkeypatch):
    # os.replace stands in for a read-only directory, which does not stop root writing
    _, text = simulated_series_text()
    for name in ("cached", "unwritable"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "series.csv").write_text(text)
    assert main(detect_argv(tmp_path / "cached" / "series.csv", region, tmp_path / "out_cached")) == 0

    def fail(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(os, "replace", fail)
    for run in range(2):
        out = tmp_path / f"out_unwritable{run}"
        assert main(detect_argv(tmp_path / "unwritable" / "series.csv", region, out)) == 0
        for name in OUTPUTS:
            assert (out / name).read_bytes() == (tmp_path / "out_cached" / name).read_bytes()
        assert [p.name for p in (tmp_path / "unwritable").iterdir()] == ["series.csv"]


def test_concurrent_cold_reads_agree_and_leave_one_sidecar(tmp_path, region):
    # more processes than this machine's 2 vCPUs, all parsing and writing the sidecar at once
    _, text = simulated_series_text()
    path = tmp_path / "live" / "series.csv"
    path.parent.mkdir()
    path.write_text(text)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    children = [
        subprocess.Popen([sys.executable, "-m", "flowsentry.cli", *detect_argv(path, region, tmp_path / f"out{k}")],
                         env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for k in range(4)
    ]
    try:
        results = [child.communicate(timeout=120) for child in children]
    finally:
        for child in children:
            child.kill()
            child.wait()
    assert [child.returncode for child in children] == [0] * 4, results
    assert len(set(results)) == 1
    for name in OUTPUTS:
        assert len({(tmp_path / f"out{k}" / name).read_bytes() for k in range(4)}) == 1
    assert sorted(p.name for p in path.parent.iterdir()) == [".series.csv.flowsentry", "series.csv"]
    with open(sidecar_of(path), "rb") as handle:
        cached = ingest.read_sidecar(handle, hashlib.sha256(path.read_bytes()).hexdigest())
    assert column_bytes(cached) == column_bytes(ingest.read_series(path))
