"""Labelled synthetic link data for desk-scale validation.

Minute samples ride a triangular fundamental-diagram backbone driven by a
daily demand profile, with multiplicative lognormal noise. Injected
incidents cut capacity and let density build through a first-order queueing
relaxation; an optional periodic bottleneck forces a slow high-flow regime
(off the backbone) that recurs on different weekdays, reproducing the
two-regime speed bins that break univariate thresholds. Output is fully
deterministic for a fixed config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .ingest import US_PER_MINUTE, EventLabel, LinkSeries

SERIES_START_US = 1_491_177_600_000_000  # 2017-04-03T00:00:00Z, a Monday
FLOW_JITTER = 0.02
WEEKEND_DEMAND_FACTOR = 0.85
INCIDENT_ONSET_RAMP_MIN = 8  # capacity degrades over the first minutes of a scene
LINK_LENGTH_M = 1200.0
# the simulated road's triangular fundamental diagram
FREE_FLOW_SPEED = 110.0  # km/h
CAPACITY_FLOW = 4500.0  # veh/h; noisy flows are clamped at a multiple of it
CRITICAL_DENSITY = 35.0  # veh/km
JAM_DENSITY = 180.0  # veh/km
APEX_FLOW = FREE_FLOW_SPEED * CRITICAL_DENSITY  # the diagram's peak flow, below CAPACITY_FLOW
# a bimodal road's periodic bottleneck (see bottleneck_active), which slows traffic to
# BOTTLENECK_SPEED_DROP km/h below free flow, the drop scaled per occurrence by a factor
# drawn from BOTTLENECK_DROP_JITTER
BOTTLENECK_PERIOD_DAYS = 3
BOTTLENECK_SPEED_DROP = 50.0
BOTTLENECK_DROP_JITTER = (0.8, 1.2)
BOTTLENECK_START_MIN = 16 * 60
BOTTLENECK_DURATION_MIN = 210
BOTTLENECK_FIRST_DAY = 2
# plan_incidents draws each incident's capacity drop, duration and start minute of day from these ranges
INCIDENT_CAPACITY_DROP = (0.45, 0.75)
INCIDENT_DURATION_MIN = (20, 60)  # both ends included
INCIDENT_BUSY_WINDOW = (7 * 60, 20 * 60)  # upper end excluded
INCIDENT_SEPARATION_MIN = 120  # least gap between planned incidents, minutes


def default_demand_profile() -> tuple[float, ...]:
    """Double-peak weekday demand, slightly oversaturated at the peaks.

    The small overshoot past 1.0 queues a little recurrent congestion each
    peak, so even noise-free data spans both diagram branches (and keeps its
    covariance nonsingular) while staying shallow enough that incident
    queues remain clearly atypical.
    """
    minutes = np.arange(1440.0)
    shape = (
        0.12
        + 0.95 * np.exp(-0.5 * ((minutes - 8 * 60) / 80.0) ** 2)
        + 1.00 * np.exp(-0.5 * ((minutes - 17.5 * 60) / 95.0) ** 2)
        + 0.45 * np.exp(-0.5 * ((minutes - 12.5 * 60) / 240.0) ** 2)
    )
    profile = 1.015 * shape / shape.max()
    return tuple(float(v) for v in profile)


@dataclass(frozen=True)
class IncidentSpec:
    start_min: int  # offset from the series start
    duration_min: int
    capacity_drop: float

    def __post_init__(self):
        if not 0.0 < self.capacity_drop < 1.0:
            raise ValueError("capacity_drop must be in (0, 1)")
        if self.duration_min < 1 or self.start_min < 0:
            raise ValueError("incident start/duration out of range")

    @property
    def end_min(self) -> int:
        return self.start_min + self.duration_min


def bottleneck_active(minutes):
    """Whether the bottleneck is on at each minute since the series start (an int or an
    integer array)."""
    day, tod = np.divmod(minutes, 1440)
    return (
        (day >= BOTTLENECK_FIRST_DAY)
        & ((day - BOTTLENECK_FIRST_DAY) % BOTTLENECK_PERIOD_DAYS == 0)
        & (BOTTLENECK_START_MIN <= tod)
        & (tod < BOTTLENECK_START_MIN + BOTTLENECK_DURATION_MIN)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    weeks: int = 3
    link_id: str = "SIM1"
    demand_profile: tuple[float, ...] = field(default_factory=default_demand_profile)
    noise_scale: float = 0.05
    incidents: tuple[IncidentSpec, ...] = ()
    bimodal: bool = False  # the periodic bottleneck regime

    def __post_init__(self):
        if self.weeks < 1:
            raise ValueError("need at least one week")
        if len(self.demand_profile) != 1440:
            raise ValueError("demand profile needs 1440 entries")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be nonnegative")
        ordered = sorted(self.incidents, key=lambda s: s.start_min)
        for prev, cur in zip(ordered, ordered[1:]):
            if cur.start_min < prev.end_min:
                raise ValueError(f"incidents overlap at minute {cur.start_min}")

    @property
    def total_minutes(self) -> int:
        return self.weeks * 7 * 1440


def backbone_flow(density):
    """Triangular fundamental diagram: flow at each density (a float or an array)."""
    density = np.asarray(density, dtype=float)
    span = JAM_DENSITY - CRITICAL_DENSITY
    congested = np.where(density >= JAM_DENSITY, 0.0, APEX_FLOW * (JAM_DENSITY - density) / span)
    return np.where(density <= CRITICAL_DENSITY, FREE_FLOW_SPEED * density, congested)[()]


def _density(excess: np.ndarray, raw: np.ndarray, rho: float) -> Iterator[float]:
    """Each minute's link density from the starting density ``rho``: the queue gains
    ``excess`` vehicles per km (never going below empty, so -inf empties it) and adds to
    the ``raw`` density, and first-order smoothing keeps transitions sensor-like."""
    queue = 0.0  # extra vehicles per km stored on the link
    for gain, base in zip(excess.tolist(), raw.tolist()):
        queue += gain
        if queue < 0.0:
            queue = 0.0
        rho += (base + queue - rho) / 2.0
        yield rho


def generate(config: ScenarioConfig) -> tuple[LinkSeries, list[EventLabel]]:
    """Simulate the scenario; returns (stream, labels).

    Congestion is queue-driven: whenever demand exceeds the available
    capacity (cut by an incident, or the diagram apex during oversaturated
    peaks), the excess accumulates as extra density over the link and speed
    degrades gradually as flow-out over total density. Queues discharge at
    the apex rate once capacity returns.

    Every quantity that does not depend on the previous minute is an array
    operation; only the queue and the density smoothing run minute by minute.
    """
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

    days = np.tile(np.asarray(config.demand_profile) * apex, (n // 1440, 1))
    days[np.arange(n // 1440) % 7 >= 5] *= WEEKEND_DEMAND_FACTOR
    demand = days.ravel()
    # stored vehicles per km gained (lost, when negative) this minute; the queue cannot go
    # below empty and discharges at the capacity left after the demand
    excess = (demand - apex * (1.0 - incident_at)) / 60.0 / link_km
    raw = demand / v_f  # density before smoothing, without the queue

    if config.bimodal:
        on = bottleneck_active(np.arange(n))
        occurrence = (np.flatnonzero(on) // 1440 - BOTTLENECK_FIRST_DAY) // BOTTLENECK_PERIOD_DAYS
        v_slow = v_f - BOTTLENECK_SPEED_DROP * bn_factors[occurrence]
        excess[on] = -np.inf  # the bottleneck holds no queue
        raw[on] = np.minimum(demand[on], 0.95 * apex) / v_slow

    rho = np.fromiter(_density(excess, raw, config.demand_profile[0] * apex / v_f), float, n)
    flows = backbone_flow(rho)
    speeds = np.divide(flows, rho, out=np.full(n, v_f), where=rho > 1e-9)
    if config.bimodal:
        # a distinct regime: high flow sustained at depressed speed
        speeds[on] = v_slow
        flows[on] = v_slow * rho[on]
    if config.noise_scale > 0.0:
        # math.exp, not np.exp, whose last bit can differ across builds
        speeds *= np.fromiter(map(math.exp, (config.noise_scale * speed_noise).tolist()), float, n)
        flows *= np.fromiter(map(math.exp, (FLOW_JITTER * flow_noise).tolist()), float, n)
    speeds = np.minimum(np.maximum(speeds, 1.0), 249.0)
    flow_cap = CAPACITY_FLOW * (1.0 + 3.0 * config.noise_scale)
    flows = np.minimum(np.minimum(np.maximum(flows, 0.0), flow_cap), 11999.0)
    epoch_us = SERIES_START_US + np.arange(n, dtype=np.int64) * US_PER_MINUTE
    stream = LinkSeries(config.link_id, epoch_us, speeds, flows, link_km / speeds * 3600.0)

    categories = ("accident", "obstruction", "breakdown")
    labels = [
        EventLabel(
            config.link_id,
            categories[k % len(categories)],
            SERIES_START_US + spec.start_min * US_PER_MINUTE,
            SERIES_START_US + (spec.end_min - 1) * US_PER_MINUTE,
        )
        for k, spec in enumerate(sorted(config.incidents, key=lambda s: s.start_min))
    ]
    return stream, labels


def plan_incidents(
    count: int,
    weeks: int,
    seed: int,
    *,
    bimodal: bool = False,
) -> tuple[IncidentSpec, ...]:
    """Deterministic non-overlapping incident plan inside busy daytime hours.

    Placement is demand-aware: a slot qualifies only when demand over the
    whole incident exceeds the cut capacity, so every label corresponds to a
    congestion episode that is actually visible in the data.
    """
    rng = np.random.default_rng(seed)
    profile = default_demand_profile()
    total = weeks * 7 * 1440
    chosen: list[IncidentSpec] = []
    attempts = 0
    while len(chosen) < count:
        attempts += 1
        if attempts > 50000:
            raise ValueError("could not place the requested incidents without overlap")
        day = int(rng.integers(0, weeks * 7))
        tod = int(rng.integers(*INCIDENT_BUSY_WINDOW))
        start = day * 1440 + tod
        dur = int(rng.integers(INCIDENT_DURATION_MIN[0], INCIDENT_DURATION_MIN[1] + 1))
        drop = float(rng.uniform(*INCIDENT_CAPACITY_DROP))
        if start + dur >= total:
            continue
        weekend = WEEKEND_DEMAND_FACTOR if day % 7 >= 5 else 1.0
        window = [profile[(start + k) % 1440] * weekend for k in range(-15, dur + 15)]
        if min(window[15 : 15 + dur]) < (1.0 - drop) + 0.12:  # would not congest: invisible incident
            continue
        if max(window) > 0.88:  # saturated peak: congestion present without the incident
            continue
        if bimodal and bottleneck_active(np.array([start - 60, start, start + dur, start + dur + 60])).any():
            continue
        if any(start < o.end_min + INCIDENT_SEPARATION_MIN and o.start_min < start + dur + INCIDENT_SEPARATION_MIN
               for o in chosen):
            continue
        chosen.append(IncidentSpec(start, dur, drop))
    return tuple(sorted(chosen, key=lambda s: s.start_min))
