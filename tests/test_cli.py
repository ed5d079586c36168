import csv
import gc
import json
import math
import os
import re
import subprocess
import sys

import pytest

from flowsentry import levelset
from flowsentry.cli import main, run
from time_helpers import us


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One simulate -> fit -> detect chain shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["simulate", "--out", str(root / "sim"), "--seed", "5", "--weeks", "4", "--incidents", "6"]) == 0
    assert main(["fit", "--series", str(root / "sim" / "series.csv"), "--out", str(root / "fit")]) == 0
    assert (
        main(
            [
                "detect",
                "--series",
                str(root / "sim" / "series.csv"),
                "--region",
                str(root / "fit" / "region.json"),
                "--out",
                str(root / "det"),
                "--mode",
                "severity",
                "--threshold",
                "0.2",
            ]
        )
        == 0
    )
    return root


def test_simulate_is_deterministic(workspace, tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "again"), "--seed", "5", "--weeks", "4", "--incidents", "6"]) == 0
    a = (workspace / "sim" / "series.csv").read_bytes()
    b = (tmp_path / "again" / "series.csv").read_bytes()
    assert a == b


def test_detect_reads_a_region_file_that_opens_with_a_byte_order_mark(workspace, tmp_path):
    region = tmp_path / "region.json"
    region.write_bytes(b"\xef\xbb\xbf" + (workspace / "fit" / "region.json").read_bytes())
    argv = ["detect", "--series", str(workspace / "sim" / "series.csv"), "--region", str(region),
            "--out", str(tmp_path / "det"), "--mode", "severity", "--threshold", "0.2"]
    assert main(argv) == 0
    for name in ("excursions.csv", "flags.csv"):
        assert (tmp_path / "det" / name).read_bytes() == (workspace / "det" / name).read_bytes()


@pytest.mark.parametrize("option, value", [("--weeks", "0"), ("--incidents", "-2"), ("--seed", "-5")])
def test_simulate_rejects_an_out_of_range_option(tmp_path, capsys, monkeypatch, option, value):
    # checked before any work: neither the incident plan nor the generator runs
    def fail(*args, **kwargs):
        raise AssertionError("simulate worked on a rejected option")

    monkeypatch.setattr("flowsentry.simgen.plan_incidents", fail)
    monkeypatch.setattr("flowsentry.simgen.generate", fail)
    options = {"--weeks": "1", "--incidents": "1", "--seed": "1", option: value}
    argv = ["simulate", "--out", str(tmp_path / "out")] + [word for pair in options.items() for word in pair]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {option} must be at least")
    assert not (tmp_path / "out").exists()


def test_fit_report_mass_check(tmp_path, capsys):
    # the canonical scenario: three weeks of training data, alpha 0.05
    assert main(["simulate", "--out", str(tmp_path / "sim3"), "--seed", "5", "--weeks", "3", "--incidents", "0"]) == 0
    assert main(["fit", "--series", str(tmp_path / "sim3" / "series.csv"), "--out", str(tmp_path / "fit3")]) == 0
    report = capsys.readouterr().out
    frac = float(re.search(r"in_region_fraction: ([0-9.]+)", report).group(1))
    assert 0.93 <= frac <= 0.97
    assert "z_star" in report


def test_fit_plug_in_bandwidth(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "sim"), "--seed", "11", "--weeks", "1", "--incidents", "2"]) == 0
    argv = ["fit", "--series", str(tmp_path / "sim" / "series.csv"), "--out", str(tmp_path / "fit"),
            "--bandwidth-method", "plug_in"]
    assert main(argv) == 0
    frac = float(re.search(r"in_region_fraction: ([0-9.]+)", capsys.readouterr().out).group(1))
    assert abs(frac - 0.95) <= 0.01
    text = (tmp_path / "fit" / "region.json").read_text()
    assert levelset.TypicalRegion.from_json(text).to_json() == text


def test_fit_too_few_samples_leaves_no_out(workspace, tmp_path, capsys):
    short = tmp_path / "short.csv"
    short.write_text("\n".join((workspace / "sim" / "series.csv").read_text().splitlines()[:11]) + "\n")
    assert main(["fit", "--series", str(short), "--out", str(tmp_path / "fit")]) == 1
    assert "need at least 50 samples, got 10" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_fit_missing_input_exit_2(tmp_path, capsys):
    code = main(["fit", "--series", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_fit_bad_alpha_exit_2(workspace):
    code = main(
        ["fit", "--series", str(workspace / "sim" / "series.csv"), "--out", str(workspace / "x"), "--alpha", "1.5"]
    )
    assert code == 2


def test_detect_deterministic(workspace, tmp_path):
    args = [
        "detect",
        "--series",
        str(workspace / "sim" / "series.csv"),
        "--region",
        str(workspace / "fit" / "region.json"),
        "--mode",
        "severity",
        "--threshold",
        "0.2",
    ]
    assert main(args + ["--out", str(tmp_path / "d1")]) == 0
    assert main(args + ["--out", str(tmp_path / "d2")]) == 0
    assert (tmp_path / "d1" / "flags.csv").read_bytes() == (tmp_path / "d2" / "flags.csv").read_bytes()
    assert (workspace / "det" / "flags.csv").read_bytes() == (tmp_path / "d1" / "flags.csv").read_bytes()


def test_detect_zero_threshold_flags_every_right_exterior_minute(workspace, tmp_path):
    from flowsentry.detector import read_flags_csv

    assert (
        main(
            [
                "detect",
                "--series",
                str(workspace / "sim" / "series.csv"),
                "--region",
                str(workspace / "fit" / "region.json"),
                "--out",
                str(tmp_path / "d0"),
                "--mode",
                "severity",
                "--threshold",
                "0",
            ]
        )
        == 0
    )
    excursions = read_flags_csv(tmp_path / "d0" / "excursions.csv")
    right = [r for r in excursions if r.exit_side == "right"]
    assert right and all(r.flagged for r in right)
    flags = read_flags_csv(tmp_path / "d0" / "flags.csv")
    # threshold 0 means the flag opens at the first exterior minute
    by_start = {r.start_us for r in right}
    assert all(f.start_us in by_start for f in flags)


def test_detect_empty_flags_file_has_header(workspace, tmp_path):
    # impossible threshold: no flags, file still carries the schema header
    assert (
        main(
            [
                "detect",
                "--series",
                str(workspace / "sim" / "series.csv"),
                "--region",
                str(workspace / "fit" / "region.json"),
                "--out",
                str(tmp_path / "dn"),
                "--mode",
                "severity",
                "--threshold",
                "1e9",
            ]
        )
        == 0
    )
    text = (tmp_path / "dn" / "flags.csv").read_text()
    assert text.splitlines()[0] == "link_id,start,end,duration_min,max_severity,exit_side,flagged"
    assert len(text.splitlines()) == 1


def test_duration_mode_with_percentile(workspace, tmp_path, capsys):
    assert (
        main(
            [
                "detect",
                "--series",
                str(workspace / "sim" / "series.csv"),
                "--region",
                str(workspace / "fit" / "region.json"),
                "--out",
                str(tmp_path / "dd"),
                "--mode",
                "duration",
                "--percentile",
                "80",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "duration threshold from percentile 80" in out


def test_duration_percentile_annotates_once(workspace, tmp_path, capsys, monkeypatch):
    from flowsentry import detector, ingest, levelset

    calls = []
    annotate = detector.annotate
    monkeypatch.setattr(detector, "annotate", lambda *args: calls.append(1) or annotate(*args))
    series = workspace / "sim" / "series.csv"
    region_path = workspace / "fit" / "region.json"
    args = ["detect", "--series", str(series), "--region", str(region_path), "--mode", "duration"]
    assert main(args + ["--percentile", "80", "--out", str(tmp_path / "dp")]) == 0
    assert len(calls) == 1
    printed = re.search(r"duration threshold from percentile [0-9.]+: ([0-9.]+) min", capsys.readouterr().out)

    # replay of the two-pass flow: a full track for the durations, then one with the threshold
    monkeypatch.setattr(detector, "annotate", annotate)
    samples = ingest.parse_series(series)
    region = levelset.TypicalRegion.from_json(region_path.read_text())
    probe = detector.DetectorConfig("duration_threshold", duration_threshold_min=float("inf"))
    durations = [e.duration_min for e in detector.track(samples, region, probe)[0]]
    minutes = detector.duration_threshold_from_percentile(durations, 80)
    assert float(printed.group(1)) == minutes
    excursions, flags = detector.track(
        samples, region, detector.DetectorConfig("duration_threshold", duration_threshold_min=minutes)
    )
    detector.write_excursions_csv(excursions, tmp_path / "excursions.csv")
    detector.write_flags_csv(flags, tmp_path / "flags.csv")
    for name in ("excursions.csv", "flags.csv"):
        assert (tmp_path / "dp" / name).read_bytes() == (tmp_path / name).read_bytes()


def detect_argv(workspace, out, *options):
    return ["detect", "--series", str(workspace / "sim" / "series.csv"), "--region",
            str(workspace / "fit" / "region.json"), "--out", str(out), *options]


@pytest.mark.parametrize("mode, threshold", [("duration", "5"), ("severity", "0.2")])
def test_detect_threshold_and_percentile_exclude_each_other(workspace, tmp_path, capsys, mode, threshold):
    argv = detect_argv(workspace, tmp_path / "d", "--mode", mode, "--threshold", threshold, "--percentile", "95")
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "argument --percentile: not allowed with argument --threshold" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_detect_severity_mode_rejects_percentile(workspace, tmp_path, capsys):
    assert main(detect_argv(workspace, tmp_path / "d", "--mode", "severity", "--percentile", "95")) == 2
    assert capsys.readouterr().err == "error: severity mode takes --threshold, not --percentile\n"
    assert not (tmp_path / "d" / "flags.csv").exists()


def test_detect_option_checks_come_before_the_inputs(tmp_path, capsys):
    # severity mode without --threshold is rejected before the (missing) inputs are read
    argv = ["detect", "--series", str(tmp_path / "none.csv"), "--region", str(tmp_path / "none.json"),
            "--mode", "severity", "--out", str(tmp_path / "d")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: severity mode needs --threshold\n"
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "mode, option, value, problem",
    [
        ("severity", "--threshold", "-1", "--threshold must be nonnegative, got -1.0"),
        ("severity", "--threshold", "nan", "--threshold must be nonnegative, got nan"),
        ("duration", "--threshold", "-1", "--threshold must be nonnegative, got -1.0"),
        ("duration", "--threshold", "nan", "--threshold must be nonnegative, got nan"),
        ("duration", "--percentile", "150", "--percentile must be in [0, 100], got 150.0"),
        ("duration", "--percentile", "-5", "--percentile must be in [0, 100], got -5.0"),
        ("duration", "--percentile", "nan", "--percentile must be in [0, 100], got nan"),
    ],
)
def test_detect_option_values_are_checked_before_the_inputs(tmp_path, capsys, mode, option, value, problem):
    # the (missing) inputs are never read: a bad value is a usage error, not a late failure or no flags
    argv = ["detect", "--series", str(tmp_path / "none.csv"), "--region", str(tmp_path / "none.json"),
            "--mode", mode, option, value, "--out", str(tmp_path / "d")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {problem}\n"
    assert not (tmp_path / "d").exists()


def test_detect_infinite_duration_threshold_flags_nothing(workspace, tmp_path, capsys):
    assert main(detect_argv(workspace, tmp_path / "d", "--mode", "duration", "--threshold", "inf")) == 0
    assert capsys.readouterr().out.endswith("flags: 0\n")


def test_detect_severity_mode_without_threshold_leaves_no_out(workspace, tmp_path, capsys):
    assert main(detect_argv(workspace, tmp_path / "d", "--mode", "severity")) == 2
    assert capsys.readouterr().err == "error: severity mode needs --threshold\n"
    assert not (tmp_path / "d").exists()


def test_calibrate_dftb_without_region_leaves_no_out(workspace, tmp_path, capsys):
    argv = ["calibrate", "--series", str(workspace / "sim" / "series.csv"), "--events",
            str(workspace / "sim" / "events.csv"), "--detector", "dftb", "--out", str(tmp_path / "c")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: dftb calibration needs --region\n"
    assert not (tmp_path / "c").exists()


def calibrate_argv(workspace, detector, out, events=None):
    return ["calibrate", "--series", str(workspace / "sim" / "series.csv"), "--events",
            str(events or workspace / "sim" / "events.csv"), "--region", str(workspace / "fit" / "region.json"),
            "--detector", detector, "--out", str(out)]


@pytest.mark.parametrize("detector", ["dftb", "snd", "mcmaster"])
def test_calibrate_without_labels_for_the_link_exit_1_before_fitting(workspace, tmp_path, capsys, monkeypatch,
                                                                     detector):
    # a roadworks label is recurrent, and OTHER is not the series' link
    events = tmp_path / "events.csv"
    events.write_text("link_id,category,start,end\n"
                      "OTHER,accident,2017-04-05T10:59:00Z,2017-04-05T11:24:00Z\n"
                      "SIM1,roadworks,2017-04-06T10:59:00Z,2017-04-06T11:24:00Z\n")

    def fit(*args, **kwargs):
        raise AssertionError("fitted before the labels were checked")

    monkeypatch.setattr("flowsentry.baselines.snd_fit", fit)
    monkeypatch.setattr("flowsentry.detector.annotate", fit)
    monkeypatch.setattr("flowsentry.evaluation.quantile_regression_quadratic", fit)
    assert main(calibrate_argv(workspace, detector, tmp_path / "c", events)) == 1
    assert capsys.readouterr().err == "error: no non-recurrent labels for link 'SIM1'; detection rate undefined\n"
    assert not (tmp_path / "c").exists()


SWEEP_SIZES = {"dftb": 40, "snd": 51, "mcmaster": 36 + 28}


@pytest.mark.parametrize("detector", ["dftb", "snd", "mcmaster"])
def test_calibrate_writes_every_grid_point_to_the_sweep(workspace, tmp_path, detector):
    out = tmp_path / "c"
    assert main(calibrate_argv(workspace, detector, out)) == 0
    payload = json.loads((out / "calibration.json").read_text())
    with open(out / "sweep.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == SWEEP_SIZES[detector]
    for row in rows:
        for key in ("dr", "far", "mttd", "pi"):
            row[key] = float(row[key]) if row[key] else None
        assert (row["mttd"] is None) == (row["pi"] is None)
    if detector == "mcmaster":
        assert [row.pop("stage") for row in rows] == ["coarse"] * 36 + ["fine"] * 28
        rows = rows[36:]  # the fine grid around the coarse argmin
    defined = [row for row in rows if row["pi"] is not None]
    best = min(defined, key=lambda row: (row["pi"], -row["dr"], row["far"]))  # the first of equals
    assert {key: best.pop(key) for key in ("dr", "far", "mttd", "pi")} == payload["training_score"]
    parameters = {key: float(value) for key, value in best.items()}
    assert parameters == payload.get("params", {k: payload[k] for k in ("c", "severity_threshold") if k in payload})


def test_calibrate_mcmaster_where_the_rounded_clamp_falls_short(tmp_path):
    # a coarse grid point of this bimodal link clamps c to -b / (2 rho_crit), which rounds
    # so that b + 2 c rho_crit is a rounding error below 0
    sim, out = tmp_path / "sim", tmp_path / "cal"
    assert main(["simulate", "--out", str(sim), "--seed", "13", "--weeks", "4", "--incidents", "8", "--bimodal"]) == 0
    argv = ["calibrate", "--series", str(sim / "series.csv"), "--events", str(sim / "events.csv"),
            "--detector", "mcmaster", "--out", str(out)]
    assert main(argv) == 0
    params = json.loads((out / "calibration.json").read_text())["params"]
    assert params["b"] + 2.0 * params["c"] * params["rho_crit"] >= 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + SWEEP_SIZES["mcmaster"]


def test_five_minute_cadence_exit_2(workspace, tmp_path, capsys):
    lines = (workspace / "sim" / "series.csv").read_text().splitlines()
    coarse = tmp_path / "coarse.csv"
    coarse.write_text("\n".join([lines[0]] + lines[1::5]) + "\n")
    code = main(
        [
            "detect",
            "--series",
            str(coarse),
            "--region",
            str(workspace / "fit" / "region.json"),
            "--mode",
            "duration",
            "--threshold",
            "15",
            "--out",
            str(tmp_path / "d5"),
        ]
    )
    assert code == 2
    assert "median sample spacing is 5 minutes" in capsys.readouterr().err
    code = main(
        [
            "evaluate",
            "--series",
            str(coarse),
            "--events",
            str(workspace / "sim" / "events.csv"),
            "--flags",
            str(workspace / "det" / "flags.csv"),
            "--out",
            str(tmp_path / "e5"),
        ]
    )
    assert code == 2
    assert "median sample spacing is 5 minutes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mangle, problem",
    [
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "z_star"}), "missing key 'z_star'"),
        (lambda text: "not json", "Expecting value"),
        (lambda text: text.replace('{"schema_version": 1, ', "{", 1), "no schema_version"),
        (lambda text: text.replace('"schema_version": 1', '"schema_version": 2', 1), "schema_version 2"),
    ],
    ids=["no_z_star", "not_json", "no_schema_version", "schema_version_2"],
)
def test_detect_bad_region_file_exit_2(workspace, tmp_path, capsys, mangle, problem):
    bad = tmp_path / "region.json"
    bad.write_text(mangle((workspace / "fit" / "region.json").read_text()))
    code = main(
        [
            "detect",
            "--series",
            str(workspace / "sim" / "series.csv"),
            "--region",
            str(bad),
            "--mode",
            "severity",
            "--threshold",
            "0.2",
            "--out",
            str(tmp_path / "d"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad region file {bad}" in err
    assert problem in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("scale_rho", math.nan),
        ("scale_rho", math.inf),
        ("max_training_distance", math.nan),
        ("max_training_distance", math.inf),
        ("max_training_distance", None),
        ("alpha", 7),
        ("z_star", -1),
    ],
)
def test_detect_region_field_out_of_range_exit_2(workspace, tmp_path, capsys, field, value):
    payload = json.loads((workspace / "fit" / "region.json").read_text())
    payload[field] = value
    bad = tmp_path / "region.json"
    bad.write_text(json.dumps(payload))
    argv = ["detect", "--series", str(workspace / "sim" / "series.csv"), "--region", str(bad),
            "--mode", "severity", "--threshold", "0.2", "--out", str(tmp_path / "d")]
    assert main(argv) == 2
    assert f"bad region file {bad}: {field} " in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def mangle_row(path, row, column, value):
    """A copy of a CSV file with one cell replaced; ``row`` is 1-based, the header is row 1."""
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[column] = value
    lines[row - 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_malformed_series_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "series.csv"
    bad.write_text(mangle_row(workspace / "sim" / "series.csv", 5, 2, "abc"))
    assert main(["fit", "--series", str(bad), "--out", str(tmp_path / "fit")]) == 2
    assert "row 5: speed 'abc' is not numeric" in capsys.readouterr().err


def test_malformed_events_exit_2(workspace, tmp_path, capsys):
    bad = tmp_path / "events.csv"
    bad.write_text(mangle_row(workspace / "sim" / "events.csv", 3, 2, "yesterday"))
    series = str(workspace / "sim" / "series.csv")
    code = main(["calibrate", "--series", series, "--events", str(bad), "--detector", "snd", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: row 3: ") and "'yesterday'" in err


@pytest.mark.parametrize("kind", ["series", "events", "flags"])
def test_field_over_csvs_size_limit_exit_2(workspace, tmp_path, capsys, kind):
    series, events = str(workspace / "sim" / "series.csv"), str(workspace / "sim" / "events.csv")
    long_field = "L" * (csv.field_size_limit() + 1)
    bad = tmp_path / f"{kind}.csv"
    if kind == "series":
        bad.write_text(f"link_id,timestamp,speed_kmh,flow_vph\n{long_field},2017-04-03T00:00:00Z,1,2\n")
        argv = ["fit", "--series", str(bad)]
    elif kind == "events":
        header = (workspace / "sim" / "events.csv").read_text().splitlines()[0]
        bad.write_text(f"{header}\n{long_field}\n")
        argv = ["calibrate", "--series", series, "--events", str(bad), "--detector", "snd"]
    else:
        from flowsentry.detector import FLAGS_HEADER

        bad.write_text(",".join(FLAGS_HEADER) + f"\n{long_field}\n")
        argv = ["evaluate", "--series", series, "--events", events, "--flags", str(bad)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: field larger than field limit ({csv.field_size_limit()})\n"
    assert not (tmp_path / "out").exists()


FLAG_ROW = ["SIM1", "2017-04-03T14:32:00Z", "2017-04-03T14:50:00Z", "19", "0.83", "right", "true"]
BAD_FLAG_CELLS = {  # column -> replacement, each breaking the row
    "short_row": (6, None),
    "duration_not_integer": (3, "2.5"),
    "severity_nan": (4, "nan"),
    "severity_zero": (4, "0"),
    "severity_negative": (4, "-0.5"),
    "unknown_side": (5, "up"),
    "flagged_left": (5, "left"),
    "flagged_capitalised": (6, "True"),
    "end_before_start": (2, "2017-04-03T14:31:00Z"),
    "bad_timestamp": (1, "2017-04-03T14:32:00"),
    "empty_link_id": (0, ""),
}


@pytest.mark.parametrize("case", ["bad_header", *BAD_FLAG_CELLS])
def test_malformed_flags_exit_2(workspace, tmp_path, capsys, case):
    from flowsentry.detector import FLAGS_HEADER, read_flags_csv
    from flowsentry.ingest import ParseError

    rows = [FLAGS_HEADER, FLAG_ROW, [], list(FLAG_ROW)]  # the blank line is row 3
    if case == "bad_header":
        rows[0], row = FLAGS_HEADER[:-1], 1
    else:
        column, value = BAD_FLAG_CELLS[case]
        rows[3][column:column + 1] = [] if value is None else [value]
        row = 4
    bad = tmp_path / "flags.csv"
    bad.write_text("\n".join(",".join(cells) for cells in rows) + "\n")
    with pytest.raises(ParseError, match=f"^row {row}: ") as raised:
        read_flags_csv(bad)
    assert raised.value.row == row
    series = str(workspace / "sim" / "series.csv")
    for argv in (
        ["evaluate", "--series", series, "--events", str(workspace / "sim" / "events.csv"), "--flags", str(bad)],
        ["plot", "--series", series, "--region", str(workspace / "fit" / "region.json"), "--flags", str(bad)],
    ):
        assert main(argv + ["--out", str(tmp_path / argv[0])]) == 2
        assert capsys.readouterr().err == f"error: {raised.value}\n"


@pytest.mark.parametrize("option", ["--flags", "--flags-b"])
def test_evaluate_flags_for_unknown_link_exit_2(workspace, tmp_path, capsys, option):
    flags = workspace / "det" / "flags.csv"
    rows = len(flags.read_text().splitlines())
    assert rows > 2  # the header and at least two flags
    other = tmp_path / "other.csv"
    other.write_text(mangle_row(flags, rows, 0, "OTHER"))
    series = workspace / "sim" / "series.csv"
    argv = ["evaluate", "--series", str(series), "--events", str(workspace / "sim" / "events.csv"),
            "--flags", str(flags), "--flags-b", str(flags), "--out", str(tmp_path / "ev")]
    argv[argv.index(option) + 1] = str(other)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {other} has flags for link 'OTHER', not in {series}\n"
    assert not (tmp_path / "ev" / "evaluation.json").exists()


def test_cadence_check_passes_short_and_minute_links():
    from datetime import datetime, timedelta, timezone

    from flowsentry.ingest import LinkSeries, TrafficSample

    t0 = datetime(2017, 4, 3, tzinfo=timezone.utc)
    LinkSeries.from_samples([TrafficSample("L1", us(t0), 90.0, 1000.0)]).require_minute_cadence()
    # one 10-minute hole does not move the median off 1 minute
    minutes = [0, 1, 2, 12, 13]
    stream = LinkSeries.from_samples(
        [TrafficSample("L1", us(t0 + timedelta(minutes=m)), 90.0, 1000.0) for m in minutes]
    )
    stream.require_minute_cadence()


def test_evaluate_fixture_reproduces_benchmark(tmp_path):
    assert main(["evaluate", "--fixture", "table1", "--out", str(tmp_path / "ev")]) == 0
    payload = json.loads((tmp_path / "ev" / "tests.json").read_text())
    assert payload["differences"]["dr"]["median"] == pytest.approx(-3.278, abs=1e-3)
    assert payload["tests"]["far"]["sign"]["p_value"] == pytest.approx(0.0127, abs=5e-4)
    report = (tmp_path / "ev" / "report.csv").read_text().splitlines()
    assert len(report) == 22  # header + 17 links + 4 aggregate rows


def test_evaluate_zero_labels_exit_1(workspace, tmp_path):
    empty = tmp_path / "none.csv"
    empty.write_text("link_id,category,start,end\n")
    code = main(
        [
            "evaluate",
            "--series",
            str(workspace / "sim" / "series.csv"),
            "--events",
            str(empty),
            "--flags",
            str(workspace / "det" / "flags.csv"),
            "--out",
            str(tmp_path / "ev"),
        ]
    )
    assert code == 1


def test_evaluate_header_only_series_exit_2(tmp_path, capsys):
    series, flags = tmp_path / "series.csv", tmp_path / "flags.csv"
    series.write_text("link_id,timestamp,speed_kmh,flow_vph,travel_time_s\n")
    flags.write_text("link_id,start,end,duration_min,max_severity,exit_side,flagged\n")
    events = tmp_path / "events.csv"
    events.write_text("link_id,category,start,end\nSIM1,accident,2017-04-05T10:59:00Z,2017-04-05T11:24:00Z\n")
    argv = ["evaluate", "--series", str(series), "--events", str(events), "--flags", str(flags),
            "--out", str(tmp_path / "ev")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: no samples in {series}\n"
    assert not (tmp_path / "ev").exists()


def test_evaluate_no_labelled_link_exit_1(workspace, tmp_path, capsys):
    # labels exist, but none for the series' link: nothing would be scored
    events = tmp_path / "events.csv"
    events.write_text("link_id,category,start,end\nOTHER,accident,2017-04-05T10:59:00Z,2017-04-05T11:24:00Z\n")
    argv = ["evaluate", "--series", str(workspace / "sim" / "series.csv"), "--events", str(events),
            "--flags", str(workspace / "det" / "flags.csv"), "--out", str(tmp_path / "ev")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: no non-recurrent labels for link 'SIM1'; detection rate undefined\n"
    )
    assert not (tmp_path / "ev").exists()


def test_evaluate_notes_labels_for_links_not_in_the_series(workspace, tmp_path, capsys):
    events = (workspace / "sim" / "events.csv").read_text()
    extra = tmp_path / "events.csv"
    extra.write_text(events + "OTHER,accident,2017-04-05T10:59:00Z,2017-04-05T11:24:00Z\n"
                     "WET,weather,2017-04-05T10:59:00Z,2017-04-05T11:24:00Z\n"
                     "ALSO,breakdown,2017-04-06T10:59:00Z,2017-04-06T11:24:00Z\n")
    series = workspace / "sim" / "series.csv"
    argv = ["evaluate", "--series", str(series), "--events", str(workspace / "sim" / "events.csv"),
            "--flags", str(workspace / "det" / "flags.csv"), "--out", str(tmp_path / "ev")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    argv[argv.index("--events") + 1], argv[-1] = str(extra), str(tmp_path / "ev_extra")
    assert main(argv) == 0
    # a weather label is recurrent, never scored on any link, so WET goes unnamed
    assert capsys.readouterr().err == f"note: labels for links not in {series} are not scored: 'ALSO', 'OTHER'\n"
    assert (tmp_path / "ev_extra" / "evaluation.json").read_bytes() == (tmp_path / "ev" / "evaluation.json").read_bytes()


def test_evaluate_single_link_reports_insufficient_n(workspace, tmp_path):
    code = main(
        [
            "evaluate",
            "--series",
            str(workspace / "sim" / "series.csv"),
            "--events",
            str(workspace / "sim" / "events.csv"),
            "--flags",
            str(workspace / "det" / "flags.csv"),
            "--flags-b",
            str(workspace / "det" / "flags.csv"),
            "--out",
            str(tmp_path / "ev"),
        ]
    )
    assert code == 0
    payload = json.loads((tmp_path / "ev" / "evaluation.json").read_text())
    for metric in ("dr", "far", "mttd"):
        tests = payload["tests"][metric]
        assert tests["n_pairs"] == 1
        # one link cannot feed a paired test
        assert set(tests) == {"n_pairs", "wilcoxon_signed_rank", "sign", "paired_t"}
        assert all("skipped" in tests[name] for name in ("wilcoxon_signed_rank", "sign", "paired_t"))
    assert payload["tests"]["dr"]["sign"] == {"skipped": "sign test needs at least 2 pairs, got 1"}


def test_evaluate_flags_b_without_mttd_skips_its_tests(workspace, tmp_path):
    no_flags = tmp_path / "no_flags.csv"
    no_flags.write_text("link_id,start,end,duration_min,max_severity,exit_side,flagged\n")
    code = main(
        [
            "evaluate",
            "--series",
            str(workspace / "sim" / "series.csv"),
            "--events",
            str(workspace / "sim" / "events.csv"),
            "--flags",
            str(workspace / "det" / "flags.csv"),
            "--flags-b",
            str(no_flags),
            "--out",
            str(tmp_path / "ev"),
        ]
    )
    assert code == 0
    mttd = json.loads((tmp_path / "ev" / "evaluation.json").read_text())["tests"]["mttd"]
    assert mttd["n_pairs"] == 0  # the second flag set detects nothing, so it has no MTTD
    for name in ("wilcoxon_signed_rank", "sign", "paired_t"):
        assert "skipped" in mttd[name]


def test_plot_emits_expected_structure(workspace, tmp_path):
    assert (
        main(
            [
                "plot",
                "--series",
                str(workspace / "sim" / "series.csv"),
                "--region",
                str(workspace / "fit" / "region.json"),
                "--flags",
                str(workspace / "det" / "flags.csv"),
                "--out",
                str(tmp_path / "plots"),
            ]
        )
        == 0
    )
    scatter = (tmp_path / "plots" / "scatter.svg").read_text()
    from flowsentry.levelset import TypicalRegion

    region = TypicalRegion.from_json((workspace / "fit" / "region.json").read_text())
    assert scatter.count('class="region"') == len(region.polygons)
    durations = (tmp_path / "plots" / "durations.svg").read_text()
    counts = [int(m) for m in re.findall(r'data-count="(\d+)"', durations)]
    from flowsentry.detector import read_flags_csv

    flags = read_flags_csv(workspace / "det" / "flags.csv")
    assert sum(counts) == len(flags)


def test_plot_without_flags_has_no_markers(workspace, tmp_path):
    assert (
        main(
            [
                "plot",
                "--series",
                str(workspace / "sim" / "series.csv"),
                "--region",
                str(workspace / "fit" / "region.json"),
                "--out",
                str(tmp_path / "plots"),
            ]
        )
        == 0
    )
    travel = (tmp_path / "plots" / "travel_time.svg").read_text()
    assert 'class="flag"' not in travel


def test_plot_of_a_series_without_travel_time_draws_the_unit_frame(workspace, tmp_path):
    # four columns: no minute has a travel time, so the travel-time plot has no points and
    # spans [0, 1] on both axes
    rows = (workspace / "sim" / "series.csv").read_text().splitlines()
    series = tmp_path / "four.csv"
    series.write_text("".join(",".join(row.split(",")[:4]) + "\n" for row in rows))
    argv = ["plot", "--series", str(series), "--region", str(workspace / "fit" / "region.json"),
            "--flags", str(workspace / "det" / "flags.csv"), "--out", str(tmp_path / "plots")]
    assert main(argv) == 0
    travel = (tmp_path / "plots" / "travel_time.svg").read_text()
    assert '<polyline class="series" points=""' in travel and 'class="flag"' not in travel
    assert re.findall(r'font-size="11">([^<]*)<', travel) == ["0", "0", "0.5", "0.5", "1", "1"]


def test_plot_deterministic(workspace, tmp_path):
    args = [
        "plot",
        "--series",
        str(workspace / "sim" / "series.csv"),
        "--region",
        str(workspace / "fit" / "region.json"),
        "--flags",
        str(workspace / "det" / "flags.csv"),
    ]
    assert main(args + ["--out", str(tmp_path / "p1")]) == 0
    assert main(args + ["--out", str(tmp_path / "p2")]) == 0
    for name in ("scatter.svg", "travel_time.svg", "durations.svg"):
        assert (tmp_path / "p1" / name).read_bytes() == (tmp_path / "p2" / name).read_bytes()


def as_link(csv_text, link):
    """The data rows of a series or flags CSV text, moved from link SIM1 to ``link``."""
    return csv_text.split("\n", 1)[1].replace("SIM1,", f"{link},")


def test_plot_flags_for_unknown_link_exit_2(workspace, tmp_path, capsys):
    flags_text = (workspace / "det" / "flags.csv").read_text()
    other = tmp_path / "other.csv"
    other.write_text(flags_text.split("\n", 1)[0] + "\n" + as_link(flags_text, "OTHER"))
    series = workspace / "sim" / "series.csv"
    argv = ["plot", "--series", str(series), "--region", str(workspace / "fit" / "region.json"),
            "--flags", str(other), "--out", str(tmp_path / "p")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {other} has flags for link 'OTHER', not in {series}\n"
    assert not (tmp_path / "p").exists()


def test_plot_paints_only_the_plotted_links_flags(workspace, tmp_path):
    series_text = (workspace / "sim" / "series.csv").read_text()
    series = tmp_path / "two_links.csv"
    series.write_text(series_text + as_link(series_text, "OTHER"))
    own = workspace / "det" / "flags.csv"
    flags_text = own.read_text()
    mixed, other = tmp_path / "mixed.csv", tmp_path / "other.csv"
    mixed.write_text(flags_text + as_link(flags_text, "OTHER"))
    other.write_text(flags_text.split("\n", 1)[0] + "\n" + as_link(flags_text, "OTHER"))

    def plot(flags, out):
        argv = ["plot", "--series", str(series), "--region", str(workspace / "fit" / "region.json"),
                "--link", "SIM1", "--out", str(tmp_path / out)]
        assert main(argv + (["--flags", str(flags)] if flags else [])) == 0
        return [(tmp_path / out / name).read_text() for name in ("travel_time.svg", "durations.svg")]

    painted = plot(own, "own")
    assert 'class="flag"' in painted[0]
    assert plot(mixed, "mixed") == painted
    assert plot(other, "other") == plot(None, "none")


IMPORT_GUARD = """
import sys
from flowsentry import cli

assert cli.main(sys.argv[1:]) == 0, sys.argv
assert "scipy" not in sys.modules, sys.argv
print(*sorted(name for name in sys.modules if name.startswith("flowsentry.")))
"""

# the flowsentry modules each command loads besides cli: those it calls, and what they import
BASELINE_SET = {"ingest", "baselines", "evaluation"}
EVALUATE_SET = BASELINE_SET | {"levelset", "detector"}
LOADED_BY = {
    "simulate": {"ingest", "simgen"},
    "fit": {"ingest", "kde", "levelset", "detector"},
    "detect": {"ingest", "levelset", "detector"},
    "calibrate snd": BASELINE_SET,
    "calibrate mcmaster": BASELINE_SET,
    "calibrate dftb": BASELINE_SET | {"levelset", "detector"},
    "evaluate": EVALUATE_SET,
    "evaluate two links": EVALUATE_SET,
    "evaluate fixture": BASELINE_SET | {"data"},  # the package that holds table1.csv
    "plot": EVALUATE_SET | {"svg"},
}


def test_no_command_loads_scipy_and_each_loads_only_its_modules(tmp_path):
    # no command loads scipy, evaluate's paired tests included, and each loads only the
    # flowsentry modules it runs; each runs in its own child process, which imports the
    # same flowsentry as this one
    series, events, region = "sim/series.csv", "sim/events.csv", "fit/region.json"
    calibrate = ["calibrate", "--series", series, "--events", events, "--region", region, "--detector"]
    commands = {
        "simulate": ["simulate", "--out", "sim", "--seed", "3", "--weeks", "1", "--incidents", "3"],
        "fit": ["fit", "--series", series, "--out", "fit"],
        "detect": ["detect", "--series", series, "--region", region, "--threshold", "0.2", "--out", "det"],
        "plot": ["plot", "--series", series, "--region", region, "--flags", "det/flags.csv", "--out", "plots"],
        **{f"calibrate {name}": calibrate + [name, "--out", f"cal_{name}"] for name in ("dftb", "snd", "mcmaster")},
        # one link: too few pairs to test
        "evaluate": ["evaluate", "--series", series, "--events", events, "--flags", "det/flags.csv", "--flags-b",
                     "det/flags.csv", "--out", "eval"],
        # a second link, OTHER, that the b flags leave unflagged, so that the sign and paired t
        # tests compute; Wilcoxon needs 6 pairs and is skipped
        "evaluate two links": ["evaluate", "--series", "two/series.csv", "--events", "two/events.csv", "--flags",
                               "two/flags.csv", "--flags-b", "det/flags.csv", "--out", "eval2"],
        "evaluate fixture": ["evaluate", "--fixture", "table1", "--out", "fixture"],
    }
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for command, argv in commands.items():
        if command == "evaluate two links":
            (tmp_path / "two").mkdir()
            for name, path in (("series", series), ("events", events), ("flags", "det/flags.csv")):
                text = (tmp_path / path).read_text()
                (tmp_path / "two" / f"{name}.csv").write_text(text + as_link(text, "OTHER"))
        run = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        loaded = set(run.stdout.splitlines()[-1].split())
        assert loaded == {f"flowsentry.{name}" for name in LOADED_BY[command] | {"cli"}}, command
    tests = json.loads((tmp_path / "eval2" / "evaluation.json").read_text())["tests"]["dr"]
    assert "p_value" in tests["sign"] and "p_value" in tests["paired_t"], tests


def test_the_process_entry_exits_with_mains_code(tmp_path, monkeypatch, capsys):
    # run freezes what the command left before it exits, so that the final collection skips it
    argv = ["simulate", "--out", str(tmp_path / "sim"), "--seed", "2", "--weeks", "1", "--incidents", "1"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["flowsentry", *argv])
    frozen = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exited:
            run()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert exited.value.code == 0 and capsys.readouterr().out == printed
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for args, code, out, err in (
        (argv, 0, printed, ""),
        (["simulate", "--weeks", "0", "--out", "x"], 2, "", "error: --weeks must be at least 1, got 0\n"),
    ):
        child = subprocess.run([sys.executable, "-m", "flowsentry.cli", *args], cwd=tmp_path, env=env,
                               capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


MA_GUARD = """
import sys
from flowsentry import cli

assert cli.main(sys.argv[1:]) == 0, sys.argv
assert "numpy.ma" not in sys.modules, sys.argv
"""


def test_operating_commands_do_not_load_numpy_ma(workspace, tmp_path):
    # numpy's median, percentile, quantile and unique load numpy.ma, 11-15 ms a process; the
    # commands that operate a fitted link, and the fixture's aggregates and tests, use exact
    # sort and partition equivalents instead
    series, events, region = (str(workspace / name) for name in ("sim/series.csv", "sim/events.csv", "fit/region.json"))
    detect = ["detect", "--series", series, "--region", region]
    flags = str(workspace / "det" / "flags.csv")
    commands = [
        detect + ["--mode", "severity", "--threshold", "0.2", "--out", "sev"],
        detect + ["--mode", "duration", "--percentile", "95", "--out", "dur"],
        *(calibrate_argv(workspace, name, f"cal_{name}") for name in ("dftb", "snd", "mcmaster")),
        ["evaluate", "--series", series, "--events", events, "--flags", flags, "--flags-b", "dur/flags.csv",
         "--out", "eval"],
        ["plot", "--series", series, "--region", region, "--flags", flags, "--out", "plots"],
        ["evaluate", "--fixture", "table1", "--out", "fixture"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-c", MA_GUARD, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr


def test_simulate_and_fit_do_not_load_numpy_ma(tmp_path):
    # the training IQR of fit comes from the same partition quantiles as the baselines' cuts
    commands = [
        ["simulate", "--out", "sim", "--seed", "3", "--weeks", "1", "--incidents", "3", "--bimodal"],
        ["fit", "--series", "sim/series.csv", "--out", "fit"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv in commands:
        run = subprocess.run(
            [sys.executable, "-c", MA_GUARD, *argv], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("command", ["simulate", "plot"])
def test_failure_after_reading_the_inputs_leaves_no_out(workspace, tmp_path, capsys, monkeypatch, command):
    # simulate fails as it generates, plot as it finds the flagged minutes
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("flowsentry.simgen.generate", fail)
    monkeypatch.setattr("flowsentry.evaluation.covered_minutes", fail)
    argv = {
        "simulate": ["simulate", "--seed", "1", "--weeks", "1"],
        "plot": ["plot", "--series", str(workspace / "sim" / "series.csv"), "--region",
                 str(workspace / "fit" / "region.json"), "--flags", str(workspace / "det" / "flags.csv")],
    }[command]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: boom\n"
    assert not (tmp_path / "out").exists()
