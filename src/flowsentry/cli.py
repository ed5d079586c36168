"""Command-line front end: simulate, fit, detect, calibrate, evaluate, plot.

Exit codes: 0 success, 1 computation error, 2 usage or I/O error. All
randomness flows through --seed; repeated runs over identical inputs produce
identical output bytes.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, astuple
from pathlib import Path

import numpy as np

from . import baselines, detector, evaluation, ingest, levelset, simgen, svg
from .kde import GRID_RESOLUTION, evaluate_grid, fit as kde_fit, select_bandwidth

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ingest.CadenceError, ingest.ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # computation failures from the library
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowsentry", description=__doc__)
    sub = parser.add_subparsers(required=True, metavar="command")

    p = sub.add_parser("simulate", help="generate a labelled synthetic link")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weeks", type=int, default=6)
    p.add_argument("--incidents", type=int, default=10)
    p.add_argument("--bimodal", action="store_true", help="enable the periodic bottleneck regime")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="learn the typical region from a training series")
    p.add_argument("--series", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--bandwidth-method", choices=["normal_reference", "plug_in"], default="normal_reference")
    p.add_argument("--link", default=None, help="link id when the series holds several")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("detect", help="stream a series against a fitted region")
    p.add_argument("--series", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["duration", "severity"], default="severity")
    threshold = p.add_mutually_exclusive_group()
    threshold.add_argument("--threshold", type=float, default=None, help="severity score or duration minutes")
    threshold.add_argument(
        "--percentile", type=float, default=None, help="duration percentile of this stream's excursions"
    )
    p.add_argument("--link", default=None)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("calibrate", help="pick detector parameters minimising PI on labelled data")
    p.add_argument("--series", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--detector", choices=["dftb", "snd", "mcmaster"], required=True)
    p.add_argument("--region", default=None, help="region JSON (dftb only)")
    p.add_argument("--out", required=True)
    p.add_argument("--tz-offset", type=int, default=0, help="minutes added to UTC for weekly binning")
    p.add_argument("--link", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("evaluate", help="score detectors or reproduce the embedded benchmark")
    p.add_argument("--fixture", choices=["table1"], default=None)
    p.add_argument("--series", default=None)
    p.add_argument("--events", default=None)
    p.add_argument("--flags", default=None, help="flags CSV from detect")
    p.add_argument("--flags-b", default=None, help="second detector's flags for paired tests")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot", help="emit SVG plots for a fitted region and stream")
    p.add_argument("--series", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--flags", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--link", default=None)
    p.set_defaults(func=cmd_plot)
    return parser


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"input file not found: {p}")
    return p


def _out_dir(path: str) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


def grid_resolution() -> tuple[int, int]:
    """The resolution of the grid ``fit`` evaluates the KDE on."""
    return GRID_RESOLUTION


def _load_region(path: str) -> levelset.TypicalRegion:
    """A fitted region file; a missing key, a wrong type or bad JSON is a usage error."""
    text = _require_file(path).read_text(encoding="utf-8")
    try:
        return levelset.TypicalRegion.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise UsageError(f"bad region file {path}: {problem}") from None


def _read_series(path: str) -> dict[str, ingest.LinkSeries]:
    """Every link's stream in a series file, which must hold samples."""
    streams = ingest.read_series(_require_file(path))
    if not streams:
        raise UsageError(f"no samples in {path}")
    return streams


def _load_series(path: str, link: str | None) -> ingest.LinkSeries:
    """One link's minute stream from a series file."""
    return _pick_link(_read_series(path), path, link)


def _pick_link(streams: dict[str, ingest.LinkSeries], path: str, link: str | None) -> ingest.LinkSeries:
    """The stream of ``link``, or the only one when it is None; a cadence other than
    one minute exits 2 (see ``main``)."""
    if link is None:
        if len(streams) > 1:
            raise UsageError(f"{path} holds links {sorted(streams)}; pick one with --link")
        link = next(iter(streams))
    elif link not in streams:
        raise UsageError(f"link {link!r} not present in {path}")
    streams[link].require_minute_cadence()
    return streams[link]


def _read_flags(path: str, streams: dict[str, ingest.LinkSeries], series_path: str) -> list[detector.FlagRow]:
    """The rows of a flags file; a row for a link the series file does not hold is a usage error."""
    rows = detector.read_flags_csv(_require_file(path))
    unknown = sorted({r.link_id for r in rows}.difference(streams))
    if unknown:
        raise UsageError(f"{path} has flags for link {', '.join(map(repr, unknown))}, not in {series_path}")
    return rows


def cmd_simulate(args) -> int:
    bottleneck = simgen.BottleneckSpec() if args.bimodal else None
    plan = simgen.plan_incidents(args.incidents, args.weeks, args.seed, avoid=bottleneck)
    config = simgen.ScenarioConfig(seed=args.seed, weeks=args.weeks, incidents=plan, bottleneck=bottleneck)
    stream, labels = simgen.generate(config)
    out = _out_dir(args.out)
    ingest.write_series(stream, out / "series.csv")
    ingest.write_events(labels, out / "events.csv")
    print(f"wrote {len(stream)} samples and {len(labels)} labels to {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"alpha {args.alpha} outside (0, 1)")
    pts = _load_series(args.series, args.link).points
    config = levelset.RegionConfig(alpha=args.alpha)
    bandwidth = select_bandwidth(pts, args.bandwidth_method)
    model = kde_fit(pts, bandwidth)
    grid = evaluate_grid(model, resolution=grid_resolution())
    region = levelset.fit_typical_region(pts, config, model=model, grid=grid)
    region = detector.calibrate_normalizer(region, pts)
    out = _out_dir(args.out)
    (out / "region.json").write_text(region.to_json(), encoding="utf-8")
    in_fraction = levelset.contains_many(region, pts).mean()
    print(f"samples: {len(pts)}")
    print(f"z_star: {region.z_star:.6e}")
    print(f"components: {len(region.polygons)}")
    print(f"in_region_fraction: {in_fraction:.4f}")
    print(f"region: {out / 'region.json'}")
    return EXIT_OK


def _check_detector_options(args) -> None:
    """The detect options that make no sense together, checked before any input is read."""
    if args.mode == "severity":
        if args.percentile is not None:
            raise UsageError("severity mode takes --threshold, not --percentile")
        if args.threshold is None:
            raise UsageError("severity mode needs --threshold")
    elif args.threshold is None and args.percentile is None:
        raise UsageError("duration mode needs --threshold or --percentile")


def _detector_config(args, annotated: detector.SeveritySeries) -> detector.DetectorConfig:
    """The detector of checked options; a duration percentile is taken over this stream's excursions."""
    if args.mode == "severity":
        return detector.DetectorConfig("severity_threshold", severity_threshold=args.threshold)
    if args.threshold is not None:
        return detector.DetectorConfig("duration_threshold", duration_threshold_min=args.threshold)
    durations = detector.segment(annotated).duration
    minutes = detector.duration_threshold_from_percentile(durations, args.percentile)
    print(f"duration threshold from percentile {args.percentile}: {minutes} min")
    return detector.DetectorConfig("duration_threshold", duration_threshold_min=minutes)


def cmd_detect(args) -> int:
    _check_detector_options(args)
    stream = _load_series(args.series, args.link)
    region = _load_region(args.region)
    annotated = detector.annotate(stream, region)
    excursions, flags = detector.track_annotated(annotated, _detector_config(args, annotated))
    out = _out_dir(args.out)
    detector.write_excursions_csv(excursions, out / "excursions.csv")
    detector.write_flags_csv(flags, out / "flags.csv")
    print(f"excursions: {len(excursions)}")
    print(f"flags: {len(flags)}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    if args.detector == "dftb" and args.region is None:
        raise UsageError("dftb calibration needs --region")
    stream = _load_series(args.series, args.link)
    labels = ingest.nonrecurrent_filter(ingest.parse_events(_require_file(args.events)))
    labels = [lab for lab in labels if lab.link_id == stream.link_id]
    if not labels:
        raise _no_labels([stream.link_id])
    profile = None
    if args.detector == "dftb":
        region = _load_region(args.region)
        result = evaluation.calibrate_dftb(stream, region, labels)
        payload = {"detector": "dftb", "severity_threshold": result.parameter}
    elif args.detector == "snd":
        profile = baselines.snd_fit(stream, tz_offset_min=args.tz_offset)
        result = evaluation.calibrate_snd(stream, profile, labels)
        payload = {"detector": "snd", "c": result.parameter}
    else:
        result = evaluation.calibrate_mcmaster(stream, labels)
        payload = {"detector": "mcmaster", "params": asdict(result.parameter)}
    payload["training_score"] = _score_payload(result.score)
    out = _out_dir(args.out)
    if profile is not None:
        (out / "snd_profile.json").write_text(profile.to_json(), encoding="utf-8")
    (out / "calibration.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    _write_sweep(result, args.detector, out / "sweep.csv")
    print(json.dumps(payload, indent=2))
    return EXIT_OK


_SWEEP_PARAMETERS = {
    "dftb": ["severity_threshold"],
    "snd": ["c"],
    "mcmaster": ["stage", "a", "b", "c", "rho_crit", "f_crit"],
}


def _write_sweep(result: evaluation.CalibrationResult, detector: str, path: Path) -> None:
    """One row per grid point scored: its parameters, then DR, FAR, MTTD and PI, with an
    empty cell where MTTD and PI are undefined. McMaster rows name their grid, coarse or fine."""
    with ingest.open_text(path, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([*_SWEEP_PARAMETERS[detector], "dr", "far", "mttd", "pi"])
        for stage, parameter, s in result.sweep:
            values = [stage, *astuple(parameter)] if detector == "mcmaster" else [parameter]
            writer.writerow([*values, s.dr, s.far, s.mttd, s.pi])


def _no_labels(link_ids) -> evaluation.UndefinedMetricError:
    return evaluation.UndefinedMetricError(
        f"no non-recurrent labels for link {', '.join(map(repr, sorted(link_ids)))}; detection rate undefined"
    )


def cmd_evaluate(args) -> int:
    if args.fixture == "table1":
        return _evaluate_fixture(_out_dir(args.out))
    if not (args.series and args.events and args.flags):
        raise UsageError("evaluate needs --fixture table1 or --series/--events/--flags")
    streams = _read_series(args.series)
    labels = ingest.nonrecurrent_filter(ingest.parse_events(_require_file(args.events)))
    flag_sets = {}
    for name, path in (("a", args.flags), ("b", args.flags_b)):
        if path:
            flag_sets[name] = _read_flags(path, streams, args.series)
    for stream in streams.values():
        stream.require_minute_cadence()
    link_labels = {link_id: [lab for lab in labels if lab.link_id == link_id] for link_id in streams}
    link_labels = {link_id: labs for link_id, labs in link_labels.items() if labs}
    if not link_labels:
        raise _no_labels(streams)
    # an events file may cover more links than one series file: their labels are left out
    absent = sorted({lab.link_id for lab in labels} - streams.keys())
    if absent:
        print(f"note: labels for links not in {args.series} are not scored: {', '.join(map(repr, absent))}",
              file=sys.stderr)
    scores: dict[str, dict[str, evaluation.DetectorScore]] = {}
    for name, rows in flag_sets.items():
        per_link = {}
        for link_id, labs in link_labels.items():
            flags = evaluation.intervals_us(r for r in rows if r.link_id == link_id and r.flagged)
            per_link[link_id] = evaluation.score_detector(
                flags, evaluation.intervals_us(labs), evaluation.applications(streams[link_id], "dftb")
            )
        scores[name] = per_link
    payload: dict = {"links": {}}
    for name, per_link in scores.items():
        for link_id, s in per_link.items():
            payload["links"].setdefault(link_id, {})[name] = _score_payload(s)
    if "b" in scores:
        common = sorted(set(scores["a"]) & set(scores["b"]))
        payload["tests"] = {}
        for metric in ("dr", "far", "mttd"):
            pairs = []
            for link_id in common:
                va = getattr(scores["a"][link_id], metric)
                vb = getattr(scores["b"][link_id], metric)
                if va is not None and vb is not None:
                    pairs.append((va, vb))
            payload["tests"][metric] = _paired_tests_payload(pairs)
    out = _out_dir(args.out)
    (out / "evaluation.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _score_payload(score: evaluation.DetectorScore) -> dict:
    return {"dr": score.dr, "far": score.far, "mttd": score.mttd, "pi": score.pi}


def _test_payload(result: evaluation.PairedTestResult) -> dict:
    return {
        "statistic": result.statistic,
        "p_value": result.p_value,
        "n_effective": result.n_effective,
        "method": result.method,
    }


def _paired_tests_payload(pairs) -> dict:
    result: dict = {"n_pairs": len(pairs)}
    for name, test in (
        ("wilcoxon_signed_rank", evaluation.wilcoxon_signed_rank),
        ("sign", _sign_test),
        ("paired_t", evaluation.paired_t_test),
    ):
        try:
            result[name] = _test_payload(test(pairs))
        except (evaluation.InsufficientPairsError, evaluation.DegenerateTestError) as exc:
            result[name] = {"skipped": str(exc)}
    return result


def _sign_test(pairs) -> evaluation.PairedTestResult:
    """The sign test across links. One link's pair is not a test; no pairs at all fail in sign_test."""
    if len(pairs) == 1:
        raise evaluation.InsufficientPairsError("sign test needs at least 2 pairs, got 1")
    return evaluation.sign_test(pairs)


def _evaluate_fixture(out: Path) -> int:
    rows = evaluation.load_table1()
    evaluation.write_report_csv(rows, out / "report.csv")
    report = evaluation.fixture_report(rows)
    payload = {
        "aggregates": {m: asdict(a) for m, a in report["aggregates"].items()},
        "differences": report["differences"],
        "tests": {
            metric: {name: _test_payload(r) for name, r in tests.items()}
            for metric, tests in report["tests"].items()
        },
    }
    (out / "tests.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    for metric in ("dr", "far", "mttd"):
        tests = payload["tests"][metric]
        print(
            f"{metric}: mean diff {payload['differences'][metric]['mean']:+.3f}, "
            f"median diff {payload['differences'][metric]['median']:+.3f}, "
            f"wilcoxon p {tests['wilcoxon_signed_rank']['p_value']:.4f}, "
            f"sign p {tests['sign']['p_value']:.4f}"
        )
    print(f"report: {out / 'report.csv'}")
    return EXIT_OK


def cmd_plot(args) -> int:
    streams = _read_series(args.series)
    stream = _pick_link(streams, args.series, args.link)
    region = _load_region(args.region)
    flags = _read_flags(args.flags, streams, args.series) if args.flags else []
    flags = [row for row in flags if row.link_id == stream.link_id]

    points = stream.points
    boundary = np.vstack(region.polygons)
    frame = svg.Frame(
        min(points[:, 0].min(), boundary[:, 0].min()),
        max(points[:, 0].max(), boundary[:, 0].max()),
        min(points[:, 1].min(), boundary[:, 1].min()),
        max(points[:, 1].max(), boundary[:, 1].max()),
    )
    stride = max(1, len(points) // 15000)

    raised = evaluation.intervals_us(row for row in flags if row.flagged)
    flagged = np.isin(stream.minutes, evaluation.covered_minutes(*raised))
    with_tt = ~np.isnan(stream.travel_time)
    xs = (stream.minutes[with_tt] - stream.minutes[0]) * 60 / 3600.0
    ys = stream.travel_time[with_tt]
    frame_tt = svg.Frame(min(xs, default=0.0), max(xs, default=1.0), min(ys, default=0.0), max(ys, default=1.0))

    durations = [row.duration_min for row in flags]
    if durations:
        hi = max(durations) + 1
        counts, edges = np.histogram(durations, bins=min(20, max(3, hi)), range=(0, hi))
    else:
        counts, edges = np.histogram([], bins=3, range=(0, 3))
    frame_h = svg.Frame(float(edges[0]), float(edges[-1]), 0.0, float(max(counts.max(), 1)))

    # every plotted value is computed before --out exists; the documents are rendered and
    # written one at a time, so that only one is held in memory
    out = _out_dir(args.out)
    body = svg.axes(frame, "density (veh/km)", "flow (veh/h)")
    body += svg.scatter(frame, points[::stride, 0], points[::stride, 1])
    body += [svg.closed_path(frame, poly) for poly in region.polygons]
    (out / "scatter.svg").write_text(svg.document(body, "density-flow with typical region"), encoding="utf-8")

    body = svg.axes(frame_tt, "hours since start", "travel time (s)")
    body.append(svg.polyline(frame_tt, xs, ys))
    body += svg.scatter(frame_tt, xs[flagged[with_tt]], ys[flagged[with_tt]], fill="crimson", radius=2.5, css="flag")
    (out / "travel_time.svg").write_text(svg.document(body, "travel time with flags"), encoding="utf-8")

    body = svg.axes(frame_h, "duration (min)", "count")
    body += svg.bars(frame_h, edges, counts)
    (out / "durations.svg").write_text(svg.document(body, "excursion durations"), encoding="utf-8")
    print(f"plots: {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
