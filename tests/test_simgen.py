import io
from datetime import timedelta

import numpy as np
import pytest

from flowsentry import simgen
from flowsentry.baselines import weekly_bins
from flowsentry.ingest import write_series
from flowsentry.levelset import RegionConfig, contains_many, fit_typical_region
from flowsentry.simgen import (
    SERIES_START,
    BottleneckSpec,
    IncidentSpec,
    ScenarioConfig,
    backbone_flow,
    generate,
    plan_incidents,
)


def densities(stream):
    return stream.density[stream.usable]


def test_same_seed_byte_identical():
    cfg = ScenarioConfig(seed=42, weeks=1, incidents=(IncidentSpec(2000, 30, 0.6),))
    a, la = generate(cfg)
    b, lb = generate(cfg)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_series(a, buf_a)
    write_series(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    assert la == lb


def test_different_seed_differs():
    a, _ = generate(ScenarioConfig(seed=1, weeks=1))
    b, _ = generate(ScenarioConfig(seed=2, weeks=1))
    assert np.any(a.speed != b.speed)


def test_zero_noise_rides_the_backbone():
    cfg = ScenarioConfig(seed=3, weeks=2, noise_scale=0.0)
    stream, _ = generate(cfg)
    for flow, density in zip(stream.flow[::37].tolist(), stream.density[::37].tolist()):
        assert flow == pytest.approx(backbone_flow(cfg, density), abs=1e-8)


def test_zero_noise_region_encloses_samples():
    cfg = ScenarioConfig(seed=3, weeks=3, noise_scale=0.0)
    stream, _ = generate(cfg)
    pts = stream.points
    region = fit_typical_region(pts, RegionConfig(0.05), resolution=(256, 256))
    assert contains_many(region, pts).mean() >= 0.95


def test_incident_density_exceeds_baseline_p99():
    base, _ = generate(ScenarioConfig(seed=7, weeks=3))
    p99 = np.percentile(densities(base), 99)
    spec = IncidentSpec(9 * 1440 + 17 * 60, 30, 0.6)
    stream, labels = generate(ScenarioConfig(seed=7, weeks=3, incidents=(spec,)))
    during = stream.density[spec.start_min : spec.end_min]
    assert max(during) > p99
    assert len(labels) == 1
    assert labels[0].start == SERIES_START + timedelta(minutes=spec.start_min)


def test_every_incident_produces_congestion():
    plan = plan_incidents(8, 4, seed=17)
    stream, labels = generate(ScenarioConfig(seed=17, weeks=4, incidents=plan))
    base, _ = generate(ScenarioConfig(seed=17, weeks=4))
    p95 = np.percentile(densities(base), 95)
    for spec, label in zip(plan, labels):
        during = stream.density[spec.start_min : spec.end_min]
        assert max(during) > p95  # congestion overlaps its label
        assert label.end - label.start == timedelta(minutes=spec.duration_min - 1)


def test_flow_cap_invariant():
    for noise in (0.0, 0.05, 0.15):
        cfg = ScenarioConfig(seed=9, weeks=1, noise_scale=noise)
        stream, _ = generate(cfg)
        cap = cfg.capacity_flow * (1.0 + 3.0 * noise)
        assert stream.flow.max() <= cap + 1e-9


def test_bottleneck_creates_bimodal_weekly_bin():
    cfg = ScenarioConfig(seed=23, weeks=6, bottleneck=BottleneckSpec())
    stream, _ = generate(cfg)
    by_bin: dict[int, list[float]] = {}
    for speed, b in zip(stream.speed.tolist(), weekly_bins(stream.minutes).tolist()):
        by_bin.setdefault(b, []).append(speed)
    best = 0.0
    for speeds in by_bin.values():
        hist, edges = np.histogram(np.asarray(speeds), bins=24)
        peaks = [i for i in range(1, 23) if hist[i] >= hist[i - 1] and hist[i] >= hist[i + 1] and hist[i] > 2]
        if len(peaks) >= 2:
            top = sorted(peaks, key=lambda i: -hist[i])[:2]
            centers = [(edges[i] + edges[i + 1]) / 2 for i in top]
            best = max(best, abs(centers[0] - centers[1]))
    assert best >= 30.0


def test_overlapping_incidents_rejected():
    with pytest.raises(ValueError, match="overlap"):
        ScenarioConfig(seed=1, weeks=1, incidents=(IncidentSpec(100, 60, 0.5), IncidentSpec(120, 30, 0.5)))


def test_incident_past_end_rejected():
    with pytest.raises(ValueError, match="past the series end"):
        generate(ScenarioConfig(seed=1, weeks=1, incidents=(IncidentSpec(7 * 1440 - 10, 30, 0.5),)))


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(weeks=0)
    with pytest.raises(ValueError):
        ScenarioConfig(demand_profile=(1.0,) * 100)
    with pytest.raises(ValueError):
        ScenarioConfig(jam_density=10.0)
    with pytest.raises(ValueError):
        ScenarioConfig(free_flow_speed=200.0, critical_density=35.0, capacity_flow=4500.0)
    with pytest.raises(ValueError):
        IncidentSpec(0, 10, 1.5)


def test_plan_incidents_deterministic_and_separated():
    a = plan_incidents(10, 6, seed=5)
    b = plan_incidents(10, 6, seed=5)
    assert a == b
    ordered = sorted(a, key=lambda s: s.start_min)
    for prev, cur in zip(ordered, ordered[1:]):
        assert cur.start_min - prev.end_min >= 120


def test_plan_incidents_avoids_bottleneck():
    bn = BottleneckSpec()
    plan = plan_incidents(12, 6, seed=5, avoid=bn)
    for spec in plan:
        for m in range(spec.start_min, spec.end_min):
            assert not bn.active(m)


def test_samples_have_travel_time():
    stream, _ = generate(ScenarioConfig(seed=1, weeks=1))
    assert np.all(stream.travel_time > 0)  # NaN, a missing travel time, fails too
    assert len(stream) == 7 * 1440
    assert np.all(np.diff(stream.minutes) == 1)


def test_exit_sides_on_fitted_synthetic_region():
    from flowsentry.levelset import contains, exit_side

    cfg = ScenarioConfig(seed=13, weeks=3)
    stream, _ = generate(cfg)
    pts = stream.points
    region = fit_typical_region(pts, RegionConfig(0.05), resolution=(256, 256))
    # a low-density high-flow surge is atypically good: the left side
    surge = (12.0, 2.0 * cfg.free_flow_speed * 12.0)
    assert not contains(region, surge)
    assert exit_side(region, surge) == "left"
    # queued congestion (high density, depressed flow) exits right
    jam = (90.0, backbone_flow(cfg, 90.0))
    assert not contains(region, jam)
    assert exit_side(region, jam) == "right"
