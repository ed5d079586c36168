import math
from unittest import mock
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowsentry import baselines
from flowsentry.baselines import (
    BINS_PER_WEEK,
    MIN_BIN_OBSERVATIONS,
    SPEED_CAP_KMH,
    McMasterParams,
    SndProfile,
    mcmaster_detect,
    mcmaster_detect_grid,
    snd_detect,
    snd_detect_grid,
    snd_fit,
    snd_thresholds,
    weekly_bins,
)
from flowsentry.ingest import LinkSeries, TrafficSample
from time_helpers import instant, us

MONDAY = datetime(2017, 4, 3, tzinfo=timezone.utc)  # a Monday


def speed_sample(ts, speed, link="L1"):
    return TrafficSample(link, us(ts), speed, 1000.0)


def weekly_bin(ts, tz_offset_min=0):
    """Calendar formula (the oracle of ``weekly_bins``): weekday * 96 + quarter-hour of the local day."""
    local = ts + timedelta(minutes=tz_offset_min)
    return local.weekday() * 96 + (local.hour * 60 + local.minute) // 15


def epoch_minute(ts):
    return int(ts.timestamp() // 60)


EMPTY_BIN = (0, float("nan"), float("nan"), float("nan"), float("nan"), float("nan"))


def profile_of(bins, tz_offset_min=0):
    """The profile of one (count, mean, median, sd, iqr, mad) tuple per weekly bin."""
    return SndProfile(*zip(*bins), tz_offset_min=tz_offset_min)


def profile_with_bin(bin_index, stats):
    bins = [EMPTY_BIN] * BINS_PER_WEEK
    bins[bin_index] = stats
    return profile_of(bins)


# --- profile fitting --------------------------------------------------------------


def test_cap_speed_is_exact():
    assert SPEED_CAP_KMH == 72.42048


def test_weekly_bin_layout():
    assert weekly_bins(epoch_minute(MONDAY)) == 0
    assert weekly_bins(epoch_minute(MONDAY + timedelta(minutes=14))) == 0
    assert weekly_bins(epoch_minute(MONDAY + timedelta(minutes=15))) == 1
    assert weekly_bins(epoch_minute(MONDAY + timedelta(days=6, hours=23, minutes=45))) == BINS_PER_WEEK - 1


def test_weekly_bin_tz_offset():
    # 23:50 UTC with +60 offset is 00:50 local on the next day
    ts = MONDAY + timedelta(hours=23, minutes=50)
    assert weekly_bins(epoch_minute(ts), tz_offset_min=60) == 1 * 96 + 3


def test_snd_fit_bin_statistics():
    speeds = [100, 102, 98, 101, 99, 100, 100, 100]
    samples = [speed_sample(MONDAY + timedelta(hours=8, minutes=k), v) for k, v in enumerate(speeds)]
    samples.append(speed_sample(MONDAY + timedelta(days=7, hours=8), 90))
    profile = snd_fit(LinkSeries.from_samples(samples))
    # the week-later sample falls in the same weekly bin
    assert profile.count[weekly_bin(MONDAY + timedelta(hours=8))] == 9
    # use only the main window for the arithmetic check
    samples8 = samples[:8] + [speed_sample(MONDAY + timedelta(days=7, hours=9), 90)]
    profile8, b = snd_fit(LinkSeries.from_samples(samples8)), weekly_bin(MONDAY + timedelta(hours=8))
    assert profile8.count[b] == 8
    assert profile8.median[b] == pytest.approx(100.0)
    # type-7 quartiles: Q1 = 99.75, Q3 = 100.25 on the sorted speeds
    assert profile8.iqr[b] == pytest.approx(0.5)
    assert profile8.mad[b] == pytest.approx(0.5)


def test_snd_fit_needs_a_week():
    samples = [speed_sample(MONDAY + timedelta(minutes=k), 100) for k in range(100)]
    with pytest.raises(ValueError, match="week"):
        snd_fit(LinkSeries.from_samples(samples))


def test_empty_bin_unusable():
    samples = [speed_sample(MONDAY + timedelta(days=7 * w, hours=8, minutes=m), 100) for w in range(2) for m in range(8)]
    profile = snd_fit(LinkSeries.from_samples(samples))
    noon = weekly_bin(MONDAY + timedelta(hours=12))
    assert np.isnan(snd_thresholds(profile, 1.0)[noon])


def test_constant_bin_zero_spread():
    samples = [speed_sample(MONDAY + timedelta(hours=8, minutes=m), 100) for m in range(8)]
    samples.append(speed_sample(MONDAY + timedelta(days=7, hours=8, minutes=14), 100))
    profile, b = snd_fit(LinkSeries.from_samples(samples)), weekly_bin(MONDAY + timedelta(hours=8))
    assert profile.iqr[b] == 0.0
    assert profile.mad[b] == 0.0


# --- thresholds -------------------------------------------------------------------


def test_threshold_cap_binds():
    profile = profile_with_bin(0, (10, 110.0, 110.0, 8.0, 10.0, 5.0))
    assert snd_thresholds(profile, 2.0)[0] == SPEED_CAP_KMH


def test_threshold_below_cap():
    profile = profile_with_bin(0, (10, 60.0, 60.0, 8.0, 10.0, 5.0))
    assert snd_thresholds(profile, 1.0)[0] == pytest.approx(50.0)


def test_threshold_c_zero_caps():
    profile = profile_with_bin(0, (10, 100.0, 100.0, 8.0, 10.0, 5.0))
    assert snd_thresholds(profile, 0.0)[0] == SPEED_CAP_KMH


def test_threshold_is_median_minus_c_iqr():
    profile = profile_with_bin(0, (10, 65.0, 60.0, 4.0, 10.0, 2.0))
    assert snd_thresholds(profile, 1.0)[0] == pytest.approx(50.0)
    with pytest.raises(ValueError, match="nonnegative"):
        snd_thresholds(profile, -1.0)


def test_threshold_nonincreasing_in_c():
    profile = profile_with_bin(0, (10, 60.0, 60.0, 8.0, 10.0, 5.0))
    values = [snd_thresholds(profile, c)[0] for c in np.linspace(0, 5, 20)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# --- SND detection ----------------------------------------------------------------


def low_speed_profile():
    """Every bin usable with median 60, IQR 0 -> threshold 60 for any c."""
    return profile_of([(10, 60.0, 60.0, 0.0, 0.0, 0.0)] * BINS_PER_WEEK)


def alarm_list(alarms):
    """(start, end) datetime tuples of a detector's ``(start_us, end_us)`` int64 pair."""
    start_us, end_us = alarms
    assert start_us.dtype == end_us.dtype == np.int64
    return list(zip(map(instant, start_us.tolist()), map(instant, end_us.tolist())))


def run_snd(speeds, c=1.0):
    stream = [speed_sample(MONDAY + timedelta(minutes=k), v) for k, v in enumerate(speeds)]
    return stream, alarm_list(snd_detect(LinkSeries.from_samples(stream), low_speed_profile(), c))


def test_snd_detect_three_minute_rule():
    stream, alarms = run_snd([50, 50, 50])
    assert alarms == [(instant(stream[0].epoch_us), instant(stream[2].epoch_us))]


def test_snd_detect_broken_run():
    _, alarms = run_snd([50, 65, 50, 50])
    assert alarms == []


def test_snd_detect_persists_until_recovery():
    stream, alarms = run_snd([65, 50, 50, 50, 50, 65, 50])
    assert alarms == [(instant(stream[1].epoch_us), instant(stream[4].epoch_us))]


def snd_replay_oracle(speeds, thresholds, persistence=3):
    """Scalar replay: minute-by-minute below-threshold run bookkeeping."""
    flagged = set()
    run = []
    for k, (v, thr) in enumerate(zip(speeds, thresholds)):
        if thr is not None and v < thr:
            run.append(k)
        else:
            if len(run) >= persistence:
                flagged.update(run)
            run = []
    if len(run) >= persistence:
        flagged.update(run)
    return flagged


def test_snd_detect_matches_replay_oracle():
    rng = np.random.default_rng(7)
    profile = low_speed_profile()
    for _ in range(200):
        speeds = rng.uniform(40, 80, size=60).round(1)
        stream = [speed_sample(MONDAY + timedelta(minutes=k), v) for k, v in enumerate(speeds)]
        alarms = alarm_list(snd_detect(LinkSeries.from_samples(stream), profile, 1.0))
        got = set()
        for start, end in alarms:
            k = int((start - MONDAY).total_seconds() // 60)
            while MONDAY + timedelta(minutes=k) <= end:
                got.add(k)
                k += 1
        expected = snd_replay_oracle(speeds, [60.0] * 60)
        assert got == expected


def test_snd_alarm_minutes_shrink_with_larger_c():
    rng = np.random.default_rng(11)
    profile = profile_of([(10, 60.0, 60.0, 5.0, 6.0, 3.0)] * BINS_PER_WEEK)
    speeds = rng.uniform(30, 75, size=300).round(1)
    stream = LinkSeries.from_samples([speed_sample(MONDAY + timedelta(minutes=k), v) for k, v in enumerate(speeds)])

    def minutes(c):
        out = set()
        for start, end in alarm_list(snd_detect(stream, profile, c)):
            t = start
            while t <= end:
                out.add(t)
                t += timedelta(minutes=1)
        return out

    prev = minutes(0.0)
    for c in [0.5, 1.0, 2.0, 4.0]:
        cur = minutes(c)
        assert cur <= prev
        prev = cur


# --- McMaster ---------------------------------------------------------------------


PARAMS = McMasterParams(a=0.0, b=80.0, c=-0.5, rho_crit=40.0, f_crit=3000.0)


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


def traffic(density, flow, minute=0):
    return TrafficSample("L1", us(MONDAY + timedelta(minutes=minute)), flow / density, flow)


def test_classify_uncongested_above_lud():
    assert PARAMS.lud(10.0) == pytest.approx(750.0)
    assert mcmaster_classify(traffic(10.0, 2200.0), PARAMS) == "uncongested"


def test_classify_congested_beyond_critical_density():
    assert mcmaster_classify(traffic(50.0, 4000.0), PARAMS) == "congested"


def test_classify_boundary_is_uncongested():
    rho = 10.0
    flow_on_lud = PARAMS.lud(rho)  # exactly on the lower bound
    assert mcmaster_classify(traffic(rho, flow_on_lud), PARAMS) == "uncongested"


def test_classify_congested_under_lud():
    rho = 20.0
    assert PARAMS.lud(rho) == pytest.approx(1400.0)
    assert mcmaster_classify(traffic(rho, 1000.0), PARAMS) == "congested"


def test_classify_monotone_in_density():
    rng = np.random.default_rng(3)
    for _ in range(200):
        flow = rng.uniform(100, 5000)
        rho_floor = max(1.0, flow / 240.0)  # keep derived speeds physical
        rhos = np.sort(rng.uniform(rho_floor, 80, size=8))
        states = [mcmaster_classify(traffic(r, flow), PARAMS) for r in rhos]
        # once congested, higher density stays congested
        seen_congested = False
        for st in states:
            if seen_congested:
                assert st == "congested"
            seen_congested = seen_congested or st == "congested"


def test_params_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        McMasterParams(a=0.0, b=-1.0, c=0.0, rho_crit=40.0, f_crit=3000.0)
    with pytest.raises(ValueError, match="positive"):
        McMasterParams(a=0.0, b=1.0, c=0.0, rho_crit=-1.0, f_crit=3000.0)


def test_mcmaster_detect_cases():
    free = [traffic(10.0, 2200.0, k) for k in range(5)]
    assert alarm_list(mcmaster_detect(LinkSeries.from_samples(free), PARAMS)) == []
    jam = [traffic(60.0, 2000.0, k) for k in range(3)]
    alarms = alarm_list(mcmaster_detect(LinkSeries.from_samples(jam), PARAMS))
    assert alarms == [(instant(jam[0].epoch_us), instant(jam[2].epoch_us))]


def test_mcmaster_detect_matches_replay_oracle():
    rng = np.random.default_rng(13)
    for _ in range(200):
        rhos = rng.uniform(5, 70, size=60)
        flows = np.minimum(rng.uniform(500, 5000, size=60), 240.0 * rhos)
        stream = [traffic(r, f, k) for k, (r, f) in enumerate(zip(rhos, flows))]
        congested = [mcmaster_classify(s, PARAMS) == "congested" for s in stream]
        got = set()
        for start, end in alarm_list(mcmaster_detect(LinkSeries.from_samples(stream), PARAMS)):
            k = int((start - MONDAY).total_seconds() // 60)
            while MONDAY + timedelta(minutes=k) <= end:
                got.add(k)
                k += 1
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
        assert got == expected


# --- array baselines against per-sample oracles -------------------------------------


def snd_threshold_oracle(profile, bin_index, c):
    """min(cap, median - c * IQR) of one bin; None when the bin is unusable."""
    if profile.count[bin_index] < MIN_BIN_OBSERVATIONS:
        return None
    return min(SPEED_CAP_KMH, profile.median[bin_index] - c * profile.iqr[bin_index])


def persistence_oracle(timestamps, hits, persistence=3):
    """Replay: (first, last) timestamp of every run of at least ``persistence`` hits."""
    intervals, run = [], []
    for ts, hit in zip(timestamps, hits):
        if hit:
            run.append(ts)
            continue
        if len(run) >= persistence:
            intervals.append((run[0], run[-1]))
        run = []
    if len(run) >= persistence:
        intervals.append((run[0], run[-1]))
    return intervals


def bin_stats_oracle(values):
    if not values:
        return EMPTY_BIN
    arr = np.asarray(values, dtype=float)
    q25, median, q75 = np.percentile(arr, [25, 50, 75])
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    mad = float(np.median(np.abs(arr - median)))
    return arr.size, float(arr.mean()), float(median), sd, float(q75 - q25), mad


@st.composite
def sample_streams(draw, max_size=80):
    """One link's minute stream: missing or zero speed and flow, multi-minute gaps, a
    start on either side of Monday 00:00 and a fixed seconds offset. Speed and
    flow come from small pools, so that runs of alike minutes are common."""
    start = MONDAY + timedelta(
        minutes=draw(st.one_of(st.integers(-40, 40), st.integers(-20000, 20000))),
        seconds=draw(st.sampled_from([0, 0, 30, 59])),
    )
    n = draw(st.integers(1, max_size))
    gaps = draw(st.lists(st.one_of(st.just(1), st.integers(2, 30), st.integers(31, 3000)), min_size=n, max_size=n))
    missing = st.lists(st.sampled_from([None, 0.0]), max_size=1)
    speed_pool = draw(st.lists(st.floats(0.5, 130.0), min_size=1, max_size=3)) + draw(missing)
    flow_pool = draw(st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=3)) + draw(missing)
    # the detectors take minute streams only: continue at one-minute steps until they are
    # more than half of the steps, with one to spare for the sample test_snd_fit appends
    pad = max(0, n + 1 - 2 * gaps[:-1].count(1))
    gaps = gaps[:-1] + [1] * (pad + 1)
    n += pad
    speeds = draw(st.lists(st.sampled_from(speed_pool), min_size=n, max_size=n))
    flows = draw(st.lists(st.sampled_from(flow_pool), min_size=n, max_size=n))
    minute = 0
    samples = []
    for gap, speed, flow in zip(gaps, speeds, flows):
        samples.append(TrafficSample("L1", us(start + timedelta(minutes=minute)), speed, flow))
        minute += gap
    return samples


@st.composite
def snd_profiles(draw, speeds):
    """Random per-bin statistics, some bins unusable, occasionally above the cap.
    About half the bins take a location from ``speeds`` with zero spread, so that
    some thresholds equal a speed of the stream."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 16, BINS_PER_WEEK)
    locations = rng.uniform(20.0, 120.0, (BINS_PER_WEEK, 2))
    scales = rng.uniform(0.0, 30.0, (BINS_PER_WEEK, 3))
    if speeds:
        tied = rng.random(BINS_PER_WEEK) < 0.5
        locations[tied] = rng.choice(speeds, (int(tied.sum()), 1))
        scales[tied] = 0.0
    bins = tuple(
        (int(k), float(mean), float(median), float(sd), float(iqr), float(mad))
        for k, (mean, median), (sd, iqr, mad) in zip(counts, locations, scales)
    )
    return profile_of(bins, tz_offset_min=draw(st.integers(-720, 840)))


@settings(max_examples=100, deadline=None)
@given(samples=sample_streams(), c=st.floats(0.0, 5.0), data=st.data())
def test_snd_detect_matches_per_minute_oracle(samples, c, data):
    profile = data.draw(snd_profiles([s.speed for s in samples if s.speed is not None]))
    hits = []
    for s in samples:
        thr = snd_threshold_oracle(profile, weekly_bin(instant(s.epoch_us), profile.tz_offset_min), c)
        hits.append(s.speed is not None and thr is not None and s.speed < thr)
    expected = persistence_oracle([instant(s.epoch_us) for s in samples], hits)
    assert alarm_list(snd_detect(LinkSeries.from_samples(samples), profile, c)) == expected


@settings(max_examples=100, deadline=None)
@given(
    samples=sample_streams(),
    a=st.floats(-500.0, 500.0),
    b=st.floats(0.0, 150.0),
    curvature=st.floats(-0.99, 2.0),
    data=st.data(),
)
def test_mcmaster_detect_matches_per_minute_oracle(samples, a, b, curvature, data):
    # the critical values are sometimes a density or flow of the stream itself
    usable = [s for s in samples if s.has_density and s.density > 0 and s.flow > 0]
    rho_crit = st.floats(5.0, 80.0)
    f_crit = st.floats(500.0, 5000.0)
    if usable:
        rho_crit |= st.sampled_from([s.density for s in usable])
        f_crit |= st.sampled_from([s.flow for s in usable])
    rho_crit, f_crit = data.draw(rho_crit), data.draw(f_crit)
    # c = curvature * b / (2 rho_crit) keeps the bound nondecreasing on [0, rho_crit],
    # unless a subnormal stream density as rho_crit overflows c to infinity
    c = curvature * b / (2.0 * rho_crit)
    assume(math.isfinite(c))
    params = McMasterParams(a, b, c, rho_crit, f_crit)
    hits = [mcmaster_classify(s, params) == "congested" for s in samples]
    expected = persistence_oracle([instant(s.epoch_us) for s in samples], hits)
    assert alarm_list(mcmaster_detect(LinkSeries.from_samples(samples), params)) == expected


@settings(max_examples=40, deadline=None)
@given(samples=sample_streams(max_size=200), tz_offset_min=st.integers(-720, 840))
def test_snd_fit_matches_per_sample_oracle(samples, tz_offset_min):
    first, last = instant(samples[0].epoch_us), instant(samples[-1].epoch_us)
    samples = samples + [speed_sample(max(last + timedelta(minutes=1), first + timedelta(days=7)), 80.0)]
    speeds = [[] for _ in range(BINS_PER_WEEK)]
    for s in samples:
        if s.speed is not None:
            speeds[weekly_bin(instant(s.epoch_us), tz_offset_min)].append(s.speed)
    expected = profile_of([bin_stats_oracle(v) for v in speeds], tz_offset_min=tz_offset_min)
    assert snd_fit(LinkSeries.from_samples(samples), tz_offset_min).to_json() == expected.to_json()


@given(ts=st.datetimes(datetime(1990, 1, 1), datetime(2040, 1, 1), timezones=st.just(timezone.utc)),
       tz_offset_min=st.integers(-720, 840))
def test_weekly_bin_matches_calendar_formula(ts, tz_offset_min):
    assert weekly_bins(epoch_minute(ts), tz_offset_min) == weekly_bin(ts, tz_offset_min)


def long_stream(seed, weeks, extra_min, start_min, start_s, decimals, missing):
    """A minute stream of ``weeks`` weeks and ``extra_min`` minutes: half the speeds from a
    pool of 4 (ties), half uniform and rounded to ``decimals``, and a ``missing`` share of
    them absent, so that the bins' counts differ."""
    rng = np.random.default_rng(seed)
    n = weeks * 7 * 24 * 60 + extra_min
    start_us = us(MONDAY + timedelta(minutes=start_min, seconds=start_s))
    epoch_us = start_us + np.arange(n, dtype=np.int64) * 60_000_000
    pooled = rng.choice(rng.uniform(10.0, 120.0, 4), n)
    speed = np.where(rng.random(n) < 0.5, pooled, np.round(rng.uniform(0.5, 130.0, n), decimals))
    speed[rng.random(n) < missing] = np.nan
    return LinkSeries("L1", epoch_us, speed, np.full(n, 1000.0), np.full(n, np.nan))


# a bin holds from 1 to more than 150 speeds; numpy sums more than 8 values in 8 lanes,
# and more than 128 in halves, which the rows of equal count must reproduce
LONG_STREAMS = st.builds(
    long_stream,
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 2, 9, 10]),
    st.integers(0, 3000),
    st.integers(-20000, 20000),
    st.sampled_from([0, 30]),
    st.sampled_from([0, 1, 12]),
    st.sampled_from([0.0, 0.05, 0.5, 0.95]),
)


@settings(max_examples=12, deadline=None)
@given(stream=LONG_STREAMS, tz_offset_min=st.integers(-720, 840))
@example(stream=long_stream(1, 9, 2000, -3000, 30, 1, 0.05), tz_offset_min=60)  # counts 119 to 147
@example(stream=long_stream(2, 1, 700, 0, 0, 12, 0.5), tz_offset_min=0)  # counts 2 to 23
def test_snd_fit_matches_per_sample_oracle_on_long_streams(stream, tz_offset_min):
    speeds = [[] for _ in range(BINS_PER_WEEK)]
    for ts, speed in zip(map(instant, stream.epoch_us.tolist()), stream.speed.tolist()):
        if not math.isnan(speed):
            speeds[weekly_bin(ts, tz_offset_min)].append(speed)
    expected = profile_of([bin_stats_oracle(v) for v in speeds], tz_offset_min=tz_offset_min)
    assert snd_fit(stream, tz_offset_min).to_json() == expected.to_json()


def test_long_stream_examples_span_the_summation_blocks():
    counts = np.unique(snd_fit(long_stream(1, 9, 2000, -3000, 30, 1, 0.05), 60).count)
    assert counts.min() < 128 < counts.max() and counts.size > 20
    counts = np.unique(snd_fit(long_stream(2, 1, 700, 0, 0, 12, 0.5)).count)
    assert counts.min() < 8 < counts.max() and counts.size > 5


# --- whole calibration grids against one point at a time -----------------------------


@settings(max_examples=60, deadline=None)
@given(samples=sample_streams(), cs=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=8), data=st.data())
def test_snd_detect_grid_matches_each_point(samples, cs, data):
    stream = LinkSeries.from_samples(samples)
    profile = data.draw(snd_profiles([s.speed for s in samples if s.speed is not None]))
    rows_per_block = data.draw(st.sampled_from([1, 2, 5]))
    expected = [alarm_list(snd_detect(stream, profile, c)) for c in cs]
    with mock.patch.object(baselines, "_GRID_BLOCK_CELLS", rows_per_block * (len(stream) + 1)):
        start_us, end_us, point = snd_detect_grid(stream, profile, cs)
    assert np.all(np.diff(point) >= 0)
    assert [alarm_list((start_us[point == k], end_us[point == k])) for k in range(len(cs))] == expected


@settings(max_examples=60, deadline=None)
@given(samples=sample_streams(), data=st.data())
def test_mcmaster_detect_grid_matches_each_point(samples, data):
    # the points share a and b but not always c, so that a lower bound evaluated for one
    # point of a block is reused only where it applies; c keeps each bound nondecreasing
    stream = LinkSeries.from_samples(samples)
    rho_crit, f_crit = data.draw(st.floats(5.0, 80.0)), data.draw(st.floats(500.0, 5000.0))
    a, b = data.draw(st.floats(-500.0, 500.0)), data.draw(st.floats(0.0, 150.0))
    curvatures = data.draw(st.lists(st.sampled_from([-0.4, 0.0, 0.5, 2.0]), min_size=1, max_size=6))
    grid = [
        McMasterParams(a, b, k * b / (2.0 * rho_crit), rho_crit * (1 + i % 2), f_crit) for i, k in enumerate(curvatures)
    ]
    rows_per_block = data.draw(st.sampled_from([1, 2, 5]))
    expected = [alarm_list(mcmaster_detect(stream, p)) for p in grid]
    with mock.patch.object(baselines, "_GRID_BLOCK_CELLS", rows_per_block * (len(stream) + 1)):
        start_us, end_us, point = mcmaster_detect_grid(stream, grid)
    assert [alarm_list((start_us[point == k], end_us[point == k])) for k in range(len(grid))] == expected
