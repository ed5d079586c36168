import io
import math
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsentry import simgen
from flowsentry.baselines import weekly_bins
from flowsentry.ingest import US_PER_MINUTE, EventLabel, LinkSeries, write_series
from flowsentry.levelset import contains_many, distances_and_sides, fit_region
from flowsentry.simgen import (
    APEX_FLOW,
    BOTTLENECK_DROP_JITTER,
    BOTTLENECK_DURATION_MIN,
    BOTTLENECK_FIRST_DAY,
    BOTTLENECK_PERIOD_DAYS,
    BOTTLENECK_SPEED_DROP,
    BOTTLENECK_START_MIN,
    CAPACITY_FLOW,
    CRITICAL_DENSITY,
    FLOW_JITTER,
    FREE_FLOW_SPEED,
    INCIDENT_ONSET_RAMP_MIN,
    JAM_DENSITY,
    LINK_LENGTH_M,
    WEEKEND_DEMAND_FACTOR,
    IncidentSpec,
    ScenarioConfig,
    backbone_flow,
    bottleneck_active,
    default_demand_profile,
    generate,
    plan_incidents,
)
from region_helpers import exit_side_oracle, winding_number_inside
from time_helpers import instant, us

SERIES_START = datetime(2017, 4, 3, tzinfo=timezone.utc)  # a Monday


# --- per-minute oracle -------------------------------------------------------------


def active_oracle(minute: int) -> bool:
    day = minute // 1440
    if day < BOTTLENECK_FIRST_DAY or (day - BOTTLENECK_FIRST_DAY) % BOTTLENECK_PERIOD_DAYS != 0:
        return False
    tod = minute % 1440
    return BOTTLENECK_START_MIN <= tod < BOTTLENECK_START_MIN + BOTTLENECK_DURATION_MIN


def backbone_flow_oracle(density: float) -> float:
    if density <= CRITICAL_DENSITY:
        return FREE_FLOW_SPEED * density
    if density >= JAM_DENSITY:
        return 0.0
    span = JAM_DENSITY - CRITICAL_DENSITY
    return APEX_FLOW * (JAM_DENSITY - density) / span


def generate_oracle(config: ScenarioConfig) -> tuple[LinkSeries, list[EventLabel]]:
    """The generator as one loop over the minutes, each computed in full from the last."""
    rng = np.random.default_rng(config.seed)
    n = config.total_minutes
    apex = APEX_FLOW
    v_f = FREE_FLOW_SPEED
    link_km = LINK_LENGTH_M / 1000.0

    incident_at = np.zeros(n)
    for spec in config.incidents:
        if spec.end_min > n:
            raise ValueError(f"incident at minute {spec.start_min} runs past the series end")
        ramp = np.minimum(np.arange(1, spec.duration_min + 1) / INCIDENT_ONSET_RAMP_MIN, 1.0)
        incident_at[spec.start_min : spec.end_min] = spec.capacity_drop * ramp

    speed_noise = rng.normal(0.0, 1.0, size=n)
    flow_noise = rng.normal(0.0, 1.0, size=n)
    bn_factors = rng.uniform(*BOTTLENECK_DROP_JITTER, size=n // 1440 + 2)  # one per occurrence

    speeds = np.empty(n)
    flows = np.empty(n)
    queue = 0.0  # extra vehicles per km stored on the link
    rho_prev = config.demand_profile[0] * apex / v_f
    flow_cap = CAPACITY_FLOW * (1.0 + 3.0 * config.noise_scale)
    for minute in range(n):
        day = minute // 1440
        weekday = day % 7
        demand = config.demand_profile[minute % 1440] * apex
        if weekday >= 5:
            demand *= WEEKEND_DEMAND_FACTOR

        bottleneck_on = config.bimodal and active_oracle(minute)
        drop = float(incident_at[minute])
        capacity_now = apex * (1.0 - drop)

        if bottleneck_on:
            occurrence = (day - BOTTLENECK_FIRST_DAY) // BOTTLENECK_PERIOD_DAYS
            v_slow = v_f - BOTTLENECK_SPEED_DROP * bn_factors[occurrence]
            rho_raw = min(demand, 0.95 * apex) / v_slow
            queue = 0.0
        else:
            if demand > capacity_now:
                queue += (demand - capacity_now) / 60.0 / link_km
            elif queue > 0.0:  # discharge the stored queue at full capacity
                queue = max(0.0, queue - (capacity_now - demand) / 60.0 / link_km)
            rho_raw = demand / v_f + queue

        # first-order smoothing keeps transitions sensor-like
        rho = rho_prev + (rho_raw - rho_prev) / 2.0
        rho_prev = rho
        if bottleneck_on:
            # a distinct regime: high flow sustained at depressed speed
            speed = v_slow
            flow = speed * rho
        else:
            flow = backbone_flow_oracle(rho)
            speed = flow / rho if rho > 1e-9 else v_f

        if config.noise_scale > 0.0:
            speed *= math.exp(config.noise_scale * speed_noise[minute])
            flow *= math.exp(FLOW_JITTER * flow_noise[minute])
        speeds[minute] = min(max(speed, 1.0), 249.0)
        flows[minute] = min(max(flow, 0.0), flow_cap, 11999.0)
    epoch_us = us(SERIES_START) + np.arange(n, dtype=np.int64) * US_PER_MINUTE
    stream = LinkSeries(config.link_id, epoch_us, speeds, flows, LINK_LENGTH_M / 1000.0 / speeds * 3600.0)

    labels = []
    categories = ("accident", "obstruction", "breakdown")
    for k, spec in enumerate(sorted(config.incidents, key=lambda s: s.start_min)):
        labels.append(
            EventLabel(
                config.link_id,
                categories[k % len(categories)],
                us(SERIES_START + timedelta(minutes=spec.start_min)),
                us(SERIES_START + timedelta(minutes=spec.end_min - 1)),
            )
        )
    return stream, labels


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
        assert flow == pytest.approx(backbone_flow(density), abs=1e-8)


def test_zero_noise_region_encloses_samples():
    cfg = ScenarioConfig(seed=3, weeks=3, noise_scale=0.0)
    stream, _ = generate(cfg)
    pts = stream.points
    region = fit_region(pts)[0]
    assert contains_many(region, pts).mean() >= 0.95


def test_incident_density_exceeds_baseline_p99():
    base, _ = generate(ScenarioConfig(seed=7, weeks=3))
    p99 = np.percentile(densities(base), 99)
    spec = IncidentSpec(9 * 1440 + 17 * 60, 30, 0.6)
    stream, labels = generate(ScenarioConfig(seed=7, weeks=3, incidents=(spec,)))
    during = stream.density[spec.start_min : spec.end_min]
    assert max(during) > p99
    assert len(labels) == 1
    assert instant(labels[0].start_us) == SERIES_START + timedelta(minutes=spec.start_min)


def test_every_incident_produces_congestion():
    plan = plan_incidents(8, 4, seed=17)
    stream, labels = generate(ScenarioConfig(seed=17, weeks=4, incidents=plan))
    base, _ = generate(ScenarioConfig(seed=17, weeks=4))
    p95 = np.percentile(densities(base), 95)
    for spec, label in zip(plan, labels):
        during = stream.density[spec.start_min : spec.end_min]
        assert max(during) > p95  # congestion overlaps its label
        assert instant(label.end_us) - instant(label.start_us) == timedelta(minutes=spec.duration_min - 1)


def test_flow_cap_invariant():
    for noise in (0.0, 0.05, 0.15):
        cfg = ScenarioConfig(seed=9, weeks=1, noise_scale=noise)
        stream, _ = generate(cfg)
        cap = CAPACITY_FLOW * (1.0 + 3.0 * noise)
        assert stream.flow.max() <= cap + 1e-9


def test_bottleneck_creates_bimodal_weekly_bin():
    cfg = ScenarioConfig(seed=23, weeks=6, bimodal=True)
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
        IncidentSpec(0, 10, 1.5)


def test_plan_incidents_deterministic_and_separated():
    a = plan_incidents(10, 6, seed=5)
    b = plan_incidents(10, 6, seed=5)
    assert a == b
    ordered = sorted(a, key=lambda s: s.start_min)
    for prev, cur in zip(ordered, ordered[1:]):
        assert cur.start_min - prev.end_min >= 120


def test_plan_incidents_avoids_bottleneck():
    plan = plan_incidents(12, 6, seed=5, bimodal=True)
    for spec in plan:
        for m in range(spec.start_min, spec.end_min):
            assert not bottleneck_active(m)


def test_samples_have_travel_time():
    stream, _ = generate(ScenarioConfig(seed=1, weeks=1))
    assert np.all(stream.travel_time > 0)  # NaN, a missing travel time, fails too
    assert len(stream) == 7 * 1440
    assert np.all(np.diff(stream.minutes) == 1)


def test_exit_sides_on_fitted_synthetic_region():
    cfg = ScenarioConfig(seed=13, weeks=3)
    stream, _ = generate(cfg)
    pts = stream.points
    region = fit_region(pts)[0]
    (poly,) = region.polygons
    scale = np.array([region.scale_rho, region.scale_f])
    # a low-density high-flow surge is atypically good: the left side; queued
    # congestion (high density, depressed flow) exits right
    surge = (12.0, 2.0 * FREE_FLOW_SPEED * 12.0)
    jam = (90.0, backbone_flow(90.0))
    points = np.array([surge, jam])
    assert not contains_many(region, points).any()
    assert not any(winding_number_inside(p, poly) for p in points)
    oracle_sides = [exit_side_oracle(p / scale, poly / scale) for p in points]
    assert list(distances_and_sides(region, points)[1]) == oracle_sides == ["left", "right"]


# --- array generator against the per-minute oracle ---------------------------------


@st.composite
def demand_profiles(draw):
    """The default profile scaled, with stretches set to a level from empty to four times
    the apex: an empty road smooths the density down past 1e-9, and a surge over an
    incident's cut capacity queues the density past jam density."""
    profile = np.asarray(default_demand_profile()) * draw(st.floats(0.3, 1.5))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 1439))
        profile[start : start + draw(st.integers(1, 300))] = draw(st.sampled_from([0.0, 4.0]) | st.floats(0.0, 4.0))
    return tuple(profile.tolist())


@st.composite
def incident_plans(draw, n: int):
    """Non-overlapping incidents in any order, the last of them perhaps ending at minute n."""
    specs, free_from = [], 0
    drops = st.floats(0.01, 0.99)
    for gap, duration, drop in draw(st.lists(st.tuples(st.integers(0, 3000), st.integers(1, 240), drops), max_size=4)):
        if free_from + gap + duration > n:
            break
        specs.append(IncidentSpec(free_from + gap, duration, drop))
        free_from += gap + duration
    duration = draw(st.integers(1, 240))
    if draw(st.booleans()) and n - duration >= free_from:
        specs.append(IncidentSpec(n - duration, duration, draw(drops)))
    return tuple(draw(st.permutations(specs)))


@st.composite
def scenarios(draw):
    weeks = draw(st.integers(1, 2))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**64)),
        weeks=weeks,
        demand_profile=draw(demand_profiles()),
        noise_scale=draw(st.just(0.0) | st.floats(0.001, 0.3)),
        incidents=draw(incident_plans(weeks * 7 * 1440)),
        bimodal=draw(st.booleans()),
    )


EXTREME_PROFILE = default_demand_profile()[:300] + (4.0,) * 60 + default_demand_profile()[360:1140] + (0.0,) * 300
EXTREME = ScenarioConfig(
    seed=7,
    weeks=1,
    demand_profile=EXTREME_PROFILE,
    noise_scale=0.0,
    incidents=(IncidentSpec(400, 120, 0.5), IncidentSpec(7 * 1440 - 30, 30, 0.6)),
    bimodal=True,
)


def test_extreme_scenario_reaches_jam_and_an_empty_road():
    stream, _ = generate_oracle(EXTREME)
    assert EXTREME.incidents[-1].end_min == EXTREME.total_minutes
    assert np.any((stream.flow == 0.0) & (stream.speed == 1.0))  # density at or past jam
    v_f = FREE_FLOW_SPEED
    assert np.sum((stream.speed == v_f) & (stream.flow <= v_f * 1e-9)) > 100  # density at or below 1e-9


@settings(max_examples=40, deadline=None)
@given(scenarios())
@example(EXTREME)
@example(replace(EXTREME, noise_scale=0.3, seed=2**64))
def test_generate_matches_per_minute_oracle(config):
    stream, labels = generate(config)
    expected, expected_labels = generate_oracle(config)
    for column in ("speed", "flow", "travel_time", "epoch_us"):
        assert getattr(stream, column).tobytes() == getattr(expected, column).tobytes(), column
    assert labels == expected_labels


def test_bottleneck_array_form_matches_scalar_form():
    minutes = range(3 * 7 * 1440)
    on = bottleneck_active(np.arange(len(minutes)))
    assert on.dtype == bool
    assert on.tolist() == [bool(bottleneck_active(m)) for m in minutes] == [active_oracle(m) for m in minutes]
    assert on.reshape(-1, 1440).any(axis=1).sum() >= 3  # several periods


def test_backbone_flow_is_element_wise():
    density = np.array([0.0, 1e-12, 20.0, CRITICAL_DENSITY, 90.0, JAM_DENSITY, 400.0])
    assert backbone_flow(density).tolist() == [backbone_flow_oracle(d) for d in density.tolist()]
    assert backbone_flow(90.0) == backbone_flow_oracle(90.0)


def test_the_fixed_road_is_a_triangular_diagram_with_a_slower_bottleneck():
    # the road generate assumes: positive rates, a congested branch, an apex within
    # capacity, and a bottleneck that leaves traffic moving at 5 km/h or more at its
    # strongest jitter
    assert 0.0 < CRITICAL_DENSITY < JAM_DENSITY
    assert 0.0 < FREE_FLOW_SPEED and 0.0 < APEX_FLOW <= CAPACITY_FLOW
    assert 0.0 < BOTTLENECK_SPEED_DROP < FREE_FLOW_SPEED and BOTTLENECK_PERIOD_DAYS >= 1
    lower, upper = BOTTLENECK_DROP_JITTER
    assert 0.0 < lower <= upper and FREE_FLOW_SPEED - BOTTLENECK_SPEED_DROP * upper >= 5.0
