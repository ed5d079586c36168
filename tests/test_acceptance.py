"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdict lines.
"""

import math
import time
from datetime import timedelta

import numpy as np
import pytest

from flowsentry import evaluation as ev
from flowsentry import kde, simgen
from flowsentry.baselines import (
    BINS_PER_WEEK,
    McMasterParams,
    SndProfile,
    mcmaster_detect,
    snd_detect,
)
from flowsentry.detector import DetectorConfig, annotate, calibrate_normalizer, track_annotated
from flowsentry.ingest import LinkSeries, TrafficSample, datetimes, nonrecurrent_filter, to_epoch_us
from flowsentry.levelset import (
    RegionConfig,
    TypicalRegion,
    contains_many,
    distance_to_boundary,
    fit_typical_region,
)
from flowsentry.simgen import SERIES_START, BottleneckSpec, ScenarioConfig, generate, plan_incidents

MONDAY = SERIES_START


def window(stream: LinkSeries, lo, hi) -> LinkSeries:
    """The rows of ``stream`` in [lo, hi)."""
    rows = (stream.epoch_us >= to_epoch_us(lo)) & (stream.epoch_us < to_epoch_us(hi))
    columns = (stream.epoch_us, stream.speed, stream.flow, stream.travel_time)
    return LinkSeries(stream.link_id, *(column[rows] for column in columns))


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# printed aggregate footer of the embedded benchmark (4 stats x 6 columns)
FOOTER = {
    "mean": [74.755, 74.310, 2.626, 1.026, 10.410, 10.286],
    "median": [81.967, 80.645, 1.578, 0.736, 10.672, 11.604],
    "std": [19.581, 17.429, 2.914, 0.730, 4.538, 4.141],
    "iqr": [24.844, 24.561, 1.465, 1.137, 6.850, 6.800],
}


def test_criterion_01_reference_aggregates():
    t0 = time.perf_counter()
    rows = ev.load_table1()
    columns = {m: [getattr(r, m) for r in rows] for m in ev.FIXTURE_METRICS}
    aggregates = {m: ev.summarize(v) for m, v in columns.items()}
    elapsed = time.perf_counter() - t0
    worst = 0.0
    for stat, expected in FOOTER.items():
        for metric, want in zip(ev.FIXTURE_METRICS, expected):
            got = getattr(aggregates[metric], stat)
            worst = max(worst, abs(got - want))
    ok = worst <= 1e-3 and elapsed < 1.0
    verdict(1, ok, f"24 footer cells within {worst:.5f} of print (tol 0.001), {elapsed:.3f}s (< 1s)")


def test_criterion_02_reference_differences():
    report = ev.fixture_report(ev.load_table1())
    want = {"dr": (-0.445, -3.278), "far": (-1.600, -0.361), "mttd": (-0.124, 0.036)}
    worst = 0.0
    for metric, (mean, median) in want.items():
        got = report["differences"][metric]
        worst = max(worst, abs(got["mean"] - mean), abs(got["median"] - median))
    verdict(2, worst <= 1e-3, f"mean/median differences within {worst:.5f} of print (tol 0.001)")


def test_criterion_03_reference_tests():
    report = ev.fixture_report(ev.load_table1())
    tests = report["tests"]
    sign_dr = tests["dr"]["sign"]
    sign_far = tests["far"]["sign"]
    wil = {m: tests[m]["wilcoxon_signed_rank"] for m in ("dr", "far", "mttd")}
    checks = [
        ("sign DR", sign_dr.p_value, 0.077, 5e-4),
        ("sign FAR", sign_far.p_value, 0.0127, 5e-4),
        ("wilcoxon DR", wil["dr"].p_value, 0.170, 2e-3),
        ("wilcoxon FAR", wil["far"].p_value, 0.004, 2e-3),
        ("wilcoxon MTTD", wil["mttd"].p_value, 0.890, 2e-2),
    ]
    ok = all(abs(got - want) <= tol for _, got, want, tol in checks)
    methods = ",".join(wil[m].method for m in ("dr", "far", "mttd"))
    detail = "; ".join(f"{name} {got:.4f} (want {want}+/-{tol})" for name, got, want, tol in checks)
    verdict(3, ok and sign_dr.n_effective == 16, f"{detail}; wilcoxon methods [{methods}]")


def test_criterion_04_level_set_analytic_oracle():
    t0 = time.perf_counter()
    pts = np.random.default_rng(4).standard_normal((100_000, 2))
    region = fit_typical_region(pts, RegionConfig(alpha=0.05), resolution=(512, 512))
    fraction = contains_many(region, pts).mean()
    elapsed = time.perf_counter() - t0
    z_expected = 0.05 / (2.0 * math.pi)
    rel = abs(region.z_star - z_expected) / z_expected
    ok = rel <= 0.03 and abs(fraction - 0.95) <= 0.01 and elapsed < 30.0
    verdict(4, ok, f"z* rel err {rel:.4f} (<=0.03), fraction {fraction:.4f} (0.95+/-0.01), {elapsed:.1f}s (<30s)")


def _winding_inside(point, polygon) -> bool:
    wn = 0
    px, py = point
    for (ax, ay), (bx, by) in zip(polygon[:-1], polygon[1:]):
        left = (bx - ax) * (py - ay) - (px - ax) * (by - ay)
        if ay <= py:
            if by > py and left > 0:
                wn += 1
        elif by <= py and left < 0:
            wn -= 1
    return wn != 0


def _segment_distance(point, polygon) -> float:
    p = np.asarray(point, dtype=float)
    best = math.inf
    for a, b in zip(polygon[:-1], polygon[1:]):
        a = np.asarray(a, dtype=float)
        d = np.asarray(b, dtype=float) - a
        t = np.clip(np.dot(p - a, d) / np.dot(d, d), 0.0, 1.0)
        best = min(best, float(np.hypot(*(p - a - t * d))))
    return best


def test_criterion_05_geometry_oracles():
    rng = np.random.default_rng(55)
    disagreements = 0
    for _ in range(10):
        angles = np.sort(rng.uniform(0, 2 * math.pi, 20))
        radii = rng.uniform(0.5, 2.0, 20)
        poly = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        poly = np.vstack([poly, poly[:1]])
        region = TypicalRegion(z_star=1.0, alpha=0.05, polygons=(poly,), scale_rho=1.0, scale_f=1.0)
        points = rng.uniform(-2.5, 2.5, size=(100, 2))
        ours = contains_many(region, points)
        oracle = np.array([_winding_inside(p, poly) for p in points])
        disagreements += int((ours != oracle).sum())

    angles = np.sort(rng.uniform(0, 2 * math.pi, 20))
    radii = rng.uniform(0.5, 2.0, 20)
    poly = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    poly = np.vstack([poly, poly[:1]])
    region = TypicalRegion(z_star=1.0, alpha=0.05, polygons=(poly,), scale_rho=1.0, scale_f=1.0)
    worst = 0.0
    for p in rng.uniform(-3, 3, size=(100, 2)):
        worst = max(worst, abs(distance_to_boundary(region, p) - _segment_distance(p, poly)))
    ok = disagreements == 0 and worst <= 1e-12
    verdict(
        5,
        ok,
        f"containment: {disagreements}/1000 disagreements; distance err {worst:.2e} <= 1e-12",
    )


def test_criterion_06_kde_normalization_and_invariances():
    rng = np.random.default_rng(66)
    worst_integral_gap = 0.0
    for k in range(20):
        n = int(rng.integers(500, 4000))
        kind = k % 4
        if kind == 0:
            pts = rng.standard_normal((n, 2)) @ rng.uniform(0.5, 3.0, (2, 2))
        elif kind == 1:
            modes = rng.uniform(-4, 4, (2, 2))
            pts = np.vstack(
                [rng.normal(m, rng.uniform(0.3, 1.0), (n // 2, 2)) for m in modes]
            )
        elif kind == 2:
            pts = np.column_stack([rng.lognormal(0.0, 0.4, n), rng.uniform(-1, 1, n)])
        else:
            pts = np.column_stack([rng.uniform(0, 10, n), rng.standard_normal(n) * rng.uniform(0.5, 5)])
        model = kde.fit(pts, kde.select_bandwidth(pts))
        grid = kde.evaluate_grid(model, resolution=(128, 128))
        worst_integral_gap = max(worst_integral_gap, abs(grid.integral() - 1.0))

    pts = rng.standard_normal((400, 2))
    sym = np.vstack([pts, -pts])
    model = kde.fit(sym, kde.select_bandwidth(sym))
    sym_err = 0.0
    for probe in rng.uniform(-2, 2, size=(20, 2)):
        a = kde.evaluate(model, probe)
        b = kde.evaluate(model, -probe)
        sym_err = max(sym_err, abs(a - b) / max(a, b, 1e-300))

    bw = kde.select_bandwidth(pts)
    shift = np.array([311.0, -47.0])
    base = kde.fit(pts, bw)
    moved = kde.fit(pts + shift, bw)
    trans_err = 0.0
    for probe in rng.uniform(-2, 2, size=(20, 2)):
        a = kde.evaluate(base, probe)
        b = kde.evaluate(moved, probe + shift)
        trans_err = max(trans_err, abs(a - b) / max(a, abs(b), 1e-300))

    ok = worst_integral_gap <= 0.01 and sym_err <= 1e-9 and trans_err <= 1e-9
    verdict(
        6,
        ok,
        f"integral gap {worst_integral_gap:.4f} (<=0.01) on 20 sets; symmetry {sym_err:.2e}, "
        f"translation {trans_err:.2e} (<=1e-9)",
    )


def region_overlap(region_a: TypicalRegion, region_b: TypicalRegion, resolution: int = 256) -> tuple[float, float]:
    """(symmetric-difference area, union area) via rasterised membership."""
    pts = np.vstack([*region_a.polygons, *region_b.polygons])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    dx, dy = (hi - lo) / resolution
    x = lo[0] + (np.arange(resolution) + 0.5) * dx
    y = lo[1] + (np.arange(resolution) + 0.5) * dy
    cells = np.stack(np.meshgrid(x, y, indexing="ij"), axis=-1).reshape(-1, 2)
    in_a = contains_many(region_a, cells)
    in_b = contains_many(region_b, cells)
    return float((in_a ^ in_b).sum() * dx * dy), float((in_a | in_b).sum() * dx * dy)


def test_criterion_07_stability_over_disjoint_windows():
    config = ScenarioConfig(seed=77, weeks=9)
    stream, _ = generate(config)
    regions = []
    for w in range(3):
        lo = MONDAY + timedelta(days=21 * w)
        hi = MONDAY + timedelta(days=21 * (w + 1))
        pts = window(stream, lo, hi).points
        regions.append(fit_typical_region(pts, RegionConfig(alpha=0.05), resolution=(256, 256)))
    ratios = []
    for i in range(3):
        for j in range(i + 1, 3):
            sym, union = region_overlap(regions[i], regions[j])
            ratios.append(sym / union)
    worst = max(ratios)
    verdict(7, worst <= 0.15, f"pairwise symdiff/union {['%.3f' % r for r in ratios]} (all <= 0.15)")


def _split_scenario(seed: int, incidents, bottleneck=None):
    config = ScenarioConfig(seed=seed, weeks=6, incidents=incidents, bottleneck=bottleneck)
    stream, labels = generate(config)
    split = MONDAY + timedelta(days=21)
    train = window(stream, MONDAY, split)
    test = window(stream, split, MONDAY + timedelta(weeks=6))
    train_labels = nonrecurrent_filter([lab for lab in labels if lab.start < split])
    test_labels = nonrecurrent_filter([lab for lab in labels if lab.start >= split])
    return train, test, train_labels, test_labels


def _fit_and_calibrate(train, train_labels):
    pts = train.points
    region = fit_typical_region(pts, RegionConfig(alpha=0.05), resolution=(256, 256))
    region = calibrate_normalizer(region, pts)
    calibration = ev.calibrate_dftb(train, region, train_labels)
    return region, calibration


def _dftb_test_score(test, test_labels, region, threshold):
    series = annotate(test, region)
    _, flags = track_annotated(series, DetectorConfig("severity_threshold", severity_threshold=threshold))
    return ev.score_detector(ev.intervals_us(flags), ev.intervals_us(test_labels), int(series.usable.sum()))


def _snd_test_score(train, test, train_labels, test_labels):
    from flowsentry.baselines import snd_fit

    profile = snd_fit(train)
    calibration = ev.calibrate_snd(train, profile, train_labels)
    alarms = snd_detect(test, profile, calibration.parameter)
    n_applications = int(np.count_nonzero(~np.isnan(test.speed)))
    return ev.score_detector(alarms, ev.intervals_us(test_labels), n_applications)


def test_criterion_08_end_to_end_detection():
    t0 = time.perf_counter()
    incidents = plan_incidents(20, 6, seed=11)
    assert len(incidents) == 20
    train, test, train_labels, test_labels = _split_scenario(11, incidents)
    region, calibration = _fit_and_calibrate(train, train_labels)
    dftb = _dftb_test_score(test, test_labels, region, calibration.parameter)
    snd = _snd_test_score(train, test, train_labels, test_labels)
    elapsed = time.perf_counter() - t0
    ratio = snd.pi / dftb.pi
    ok = (
        dftb.dr >= 90.0
        and dftb.far <= 2.0
        and dftb.mttd is not None
        and dftb.mttd <= 10.0
        and 0.2 <= ratio <= 5.0
        and elapsed < 300.0
    )
    verdict(
        8,
        ok,
        f"DFTB DR {dftb.dr:.1f} (>=90), FAR {dftb.far:.3f} (<=2), MTTD {dftb.mttd:.2f} (<=10); "
        f"SND/DFTB PI ratio {ratio:.2f} (within 5x); {elapsed:.0f}s (<300s)",
    )


def test_criterion_09_bimodal_false_alarms():
    bottleneck = BottleneckSpec()
    incidents = plan_incidents(16, 6, seed=23, avoid=bottleneck)
    train, test, train_labels, test_labels = _split_scenario(23, incidents, bottleneck)
    region, calibration = _fit_and_calibrate(train, train_labels)
    dftb = _dftb_test_score(test, test_labels, region, calibration.parameter)
    snd = _snd_test_score(train, test, train_labels, test_labels)
    ok = dftb.far <= 0.5 * snd.far
    verdict(9, ok, f"DFTB FAR {dftb.far:.3f} <= 0.5 x SND FAR {snd.far:.3f} (ratio {dftb.far / snd.far:.3f})")


def _snd_oracle(speeds, threshold, persistence=3):
    flagged = set()
    run = []
    for k, v in enumerate(speeds):
        if v < threshold:
            run.append(k)
        else:
            if len(run) >= persistence:
                flagged.update(run)
            run = []
    if len(run) >= persistence:
        flagged.update(run)
    return flagged


def mcmaster_classify(sample: TrafficSample, params: McMasterParams) -> str:
    """Per-sample oracle: "congested" or "uncongested"; samples without density are uncongested."""
    if not sample.has_density:
        return "uncongested"
    rho = sample.density
    if rho > params.rho_crit:
        return "congested"
    if sample.flow < params.lud(rho) and sample.flow < params.f_crit:
        return "congested"
    return "uncongested"


def test_criterion_10_baseline_replay_oracles():
    rng = np.random.default_rng(10)
    profile = SndProfile(*(np.full(BINS_PER_WEEK, stat) for stat in (10, 60.0, 60.0, 5.0, 6.0, 3.0)))
    params = McMasterParams(a=0.0, b=80.0, c=-0.5, rho_crit=40.0, f_crit=3000.0)
    threshold = 60.0 - 1.0 * 6.0  # c = 1, median 60, IQR 6 (below the cap)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(20, 90))
        speeds = rng.uniform(30, 80, size=n).round(1)
        rhos = rng.uniform(5, 70, size=n)
        flows = np.minimum(rng.uniform(500, 5000, size=n), 240.0 * rhos)
        stream = [
            TrafficSample("L", MONDAY + timedelta(minutes=k), float(v), float(f))
            for k, (v, f) in enumerate(zip(speeds, flows))
        ]
        alarms = snd_detect(LinkSeries.from_samples(stream), profile, 1.0)
        got = set()
        for start, end in zip(*map(datetimes, alarms)):
            k = int((start - MONDAY).total_seconds() // 60)
            while MONDAY + timedelta(minutes=k) <= end:
                got.add(k)
                k += 1
        if got != _snd_oracle(speeds, threshold):
            mismatches += 1

        mc_stream = [
            TrafficSample("L", MONDAY + timedelta(minutes=k), float(f / r), float(f))
            for k, (r, f) in enumerate(zip(rhos, flows))
        ]
        congested = [mcmaster_classify(s, params) == "congested" for s in mc_stream]
        expected = set()
        run = []
        for k, hit in enumerate(congested):
            if hit:
                run.append(k)
            else:
                if len(run) >= 3:
                    expected.update(run)
                run = []
        if len(run) >= 3:
            expected.update(run)
        got_mc = set()
        for start, end in zip(*map(datetimes, mcmaster_detect(LinkSeries.from_samples(mc_stream), params))):
            k = int((start - MONDAY).total_seconds() // 60)
            while MONDAY + timedelta(minutes=k) <= end:
                got_mc.add(k)
                k += 1
        if got_mc != expected:
            mismatches += 1

    pi = ev.performance_index(80.392, 0.937, 5.707)
    pi_ok = abs(pi - 0.01220) <= 1e-4
    verdict(
        10,
        mismatches == 0 and pi_ok,
        f"replay mismatches {mismatches}/2000 runs (need 0); PI(East 0.7km) = {pi:.5f} (0.01220+/-0.0001)",
    )
