import io
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsentry import evaluation as ev
from flowsentry.detector import (
    GAP_TERMINATION_MIN,
    DetectorConfig,
    FlagRow,
    UncalibratedRegionError,
    annotate,
    calibrate_normalizer,
    duration_threshold_from_percentile,
    read_flags_csv,
    track,
    track_annotated,
    write_excursions_csv,
    write_flags_csv,
)
from flowsentry.ingest import EventLabel, LinkSeries, TrafficSample
from flowsentry.levelset import TypicalRegion, contains_many
from region_helpers import exact_segment_distance, winding_number_inside
from time_helpers import us

T0 = datetime(2017, 4, 3, 8, 0, tzinfo=timezone.utc)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])


def region(normalizer=1.0):
    return TypicalRegion(
        z_star=0.5,
        alpha=0.05,
        polygons=(UNIT_SQUARE,),
        scale_rho=1.0,
        scale_f=1.0,
        max_training_distance=normalizer,
    )


def sample(minute, density, flow, link="L1"):
    """Build a sample whose derived density lands on the requested value."""
    return TrafficSample(link, us(T0 + timedelta(minutes=minute)), flow / density, flow)


def missing_sample(minute, link="L1"):
    return TrafficSample(link, us(T0 + timedelta(minutes=minute)), 0.0, 0.0)


INTERIOR = (0.5, 0.5)
RIGHT = (1.5, 0.5)  # due right of the square
LEFT = (0.25, 1.5)  # above-left: atypically good


def series(points, start_minute=0):
    return [sample(start_minute + k, d, f) for k, (d, f) in enumerate(points)]


SEV_CFG = DetectorConfig("severity_threshold", severity_threshold=0.25)
DUR_CFG = DetectorConfig("duration_threshold", duration_threshold_min=3)


# --- severity -------------------------------------------------------------------


def severity(point, r):
    """The severity ``annotate`` gives a one-minute stream at ``point``: 0 for an
    interior minute, which is in no excursion."""
    found = annotate(LinkSeries.from_samples(series([point])), r)
    return float(found.severity[0]) if found.severity.size else 0.0


def test_severity_zero_inside():
    assert severity(INTERIOR, region()) == 0.0


def test_severity_one_at_training_maximum():
    r = region(normalizer=0.5)
    assert severity((1.5, 0.5), r) == pytest.approx(1.0, abs=0.01)


def test_severity_scales_linearly():
    r = region(normalizer=0.25)
    assert severity((1.5, 0.5), r) == pytest.approx(2.0, abs=0.02)


def test_severity_requires_calibration():
    r = TypicalRegion(z_star=0.5, alpha=0.05, polygons=(UNIT_SQUARE,), scale_rho=1.0, scale_f=1.0)
    with pytest.raises(UncalibratedRegionError):
        severity(INTERIOR, r)


# --- normalizer calibration ------------------------------------------------------


def test_calibrate_normalizer_takes_maximum():
    r = TypicalRegion(z_star=0.5, alpha=0.05, polygons=(UNIT_SQUARE,), scale_rho=1.0, scale_f=1.0)
    pts = np.array([[0.5, 1.2], [0.5, 1.5], [0.5, 1.1], [0.5, 0.5]])
    calibrated = calibrate_normalizer(r, pts, contains_many(r, pts))
    assert calibrated.max_training_distance == pytest.approx(0.5, abs=0.01)


def test_calibrate_normalizer_all_interior_errors():
    r = TypicalRegion(z_star=0.5, alpha=0.05, polygons=(UNIT_SQUARE,), scale_rho=1.0, scale_f=1.0)
    pts = np.array([[0.5, 0.5], [0.2, 0.8]])
    with pytest.raises(ValueError, match="outside"):
        calibrate_normalizer(r, pts, contains_many(r, pts))


def test_calibrate_normalizer_monotone_under_superset():
    r = TypicalRegion(z_star=0.5, alpha=0.05, polygons=(UNIT_SQUARE,), scale_rho=1.0, scale_f=1.0)
    base = np.array([[0.5, 1.2], [0.5, 1.3]])
    extended = np.vstack([base, [[0.5, 1.9], [2.5, 0.5]]])
    assert (
        calibrate_normalizer(r, extended, contains_many(r, extended)).max_training_distance
        >= calibrate_normalizer(r, base, contains_many(r, base)).max_training_distance
    )


# --- tracking -------------------------------------------------------------------


def test_all_interior_no_excursions():
    excursions, flags = track(series([INTERIOR] * 5), region(), SEV_CFG)
    assert excursions == []
    assert flags == []


def test_exterior_run_is_one_record():
    pts = [INTERIOR, RIGHT, RIGHT, RIGHT, INTERIOR]
    excursions, flags = track(series(pts), region(), SEV_CFG)
    assert len(excursions) == 1
    rec = excursions[0]
    assert rec.duration_min == 3
    assert rec.start_us == us(T0 + timedelta(minutes=1))
    assert rec.end_us == us(T0 + timedelta(minutes=3))
    assert rec.exit_side == "right"


def test_left_excursions_recorded_never_flagged():
    pts = [INTERIOR, LEFT, LEFT, INTERIOR, RIGHT, RIGHT, INTERIOR]
    excursions, flags = track(series(pts), region(), DetectorConfig("severity_threshold", severity_threshold=0.0))
    assert [e.exit_side for e in excursions] == ["left", "right"]
    assert len(flags) == 1
    assert flags[0].exit_side == "right"
    assert [e.flagged for e in excursions] == [False, True]


def test_single_missing_minute_bridges_excursion():
    samples = series([RIGHT])
    samples.append(missing_sample(1))
    samples.extend(series([RIGHT, INTERIOR], start_minute=2))
    excursions, _ = track(samples, region(), SEV_CFG)
    assert len(excursions) == 1
    assert excursions[0].duration_min == 2  # observed exterior minutes only


def test_gap_terminates_open_excursion():
    samples = series([RIGHT])
    samples.append(missing_sample(1))
    samples.append(missing_sample(2))
    samples.extend(series([RIGHT, INTERIOR], start_minute=3))
    excursions, _ = track(samples, region(), SEV_CFG)
    assert len(excursions) == 2
    assert excursions[0].end_us == us(T0)


def test_stream_end_closes_excursion():
    excursions, flags = track(series([RIGHT, RIGHT]), region(), DUR_CFG)
    assert len(excursions) == 1
    assert excursions[0].duration_min == 2
    assert flags == []  # below the 3-minute duration threshold


def test_side_flip_splits_records():
    pts = [RIGHT, RIGHT, LEFT, LEFT]
    excursions, _ = track(series(pts), region(), SEV_CFG)
    assert [e.exit_side for e in excursions] == ["right", "left"]
    assert [e.duration_min for e in excursions] == [2, 2]


def test_unordered_stream_rejected():
    bad = [sample(5, *INTERIOR), sample(4, *INTERIOR)]
    with pytest.raises(ValueError, match="time-ordered"):
        track(bad, region(), SEV_CFG)


def test_mixed_links_rejected():
    bad = [sample(0, *INTERIOR), sample(1, *INTERIOR, link="L2")]
    with pytest.raises(ValueError, match="mixes links"):
        track(bad, region(), SEV_CFG)


def test_duration_mode_flags_retroactively():
    pts = [RIGHT] * 4 + [INTERIOR] + [RIGHT] * 2 + [INTERIOR]
    excursions, flags = track(series(pts), region(), DUR_CFG)
    assert [e.duration_min for e in excursions] == [4, 2]
    assert len(flags) == 1
    assert flags[0] == excursions[0]
    assert [e.flagged for e in excursions] == [True, False]


def test_severity_mode_onset_matches_replay_oracle():
    # severity ramps up as the trajectory drifts right of the square
    drift = [(1.0 + 0.1 * k, 0.5) for k in range(1, 8)]
    pts = [INTERIOR] + drift + [INTERIOR]
    r = region(normalizer=0.5)
    threshold = 0.7
    excursions, flags = track(series(pts), r, DetectorConfig("severity_threshold", severity_threshold=threshold))
    assert len(flags) == 1

    # oracle: straight-line replay, one point at a time, with loop geometry
    onset = None
    for k, p in enumerate(pts):
        outside = not winding_number_inside(p, UNIT_SQUARE)
        if outside and exact_segment_distance(p, UNIT_SQUARE) / r.max_training_distance >= threshold:
            onset = T0 + timedelta(minutes=k)
            break
    assert flags[0].start_us == us(onset)
    assert flags[0].end_us == excursions[0].end_us
    assert flags[0].duration_min == 7 - (onset - T0) // timedelta(minutes=1) + 1
    assert flags[0].max_severity == excursions[0].max_severity


def test_flag_severity_positive_and_interior_severity_zero():
    samples = series([INTERIOR, RIGHT, RIGHT, INTERIOR])
    ann = annotate(LinkSeries.from_samples(samples), region())
    # the interior minutes are in no excursion
    assert ann.at_us.tolist() == [s.epoch_us for s in samples[1:3]]
    assert ann.duration.tolist() == [2]
    assert np.all(ann.severity > 0)


def test_flag_count_monotone_in_severity_threshold():
    rng = np.random.default_rng(42)
    pts = []
    for _ in range(300):
        if rng.random() < 0.3:
            pts.append((1.0 + rng.uniform(0, 1.5), 0.5))
        else:
            pts.append(INTERIOR)
    r = region(normalizer=0.5)
    counts = []
    for thr in [0.0, 0.5, 1.0, 2.0, 4.0]:
        _, flags = track(series(pts), r, DetectorConfig("severity_threshold", severity_threshold=thr))
        counts.append(len(flags))
    assert counts == sorted(counts, reverse=True)


def test_flag_count_monotone_in_duration_threshold():
    rng = np.random.default_rng(43)
    pts = []
    for _ in range(300):
        pts.append(RIGHT if rng.random() < 0.4 else INTERIOR)
    counts = []
    for thr in [0, 1, 2, 4, 8]:
        _, flags = track(series(pts), region(), DetectorConfig("duration_threshold", duration_threshold_min=thr))
        counts.append(len(flags))
    assert counts == sorted(counts, reverse=True)


def test_records_partition_exterior_minutes():
    rng = np.random.default_rng(44)
    pts = [(RIGHT if rng.random() < 0.5 else INTERIOR) for _ in range(200)]
    samples = series(pts)
    excursions, _ = track(samples, region(), SEV_CFG)
    exterior_minutes = {s.epoch_us for s, p in zip(samples, pts) if p == RIGHT}
    covered = []
    for e in excursions:
        covered.extend(range(e.start_us, e.end_us + 1, 60_000_000))
    assert set(covered) == exterior_minutes
    assert len(covered) == len(set(covered))


# --- duration percentile ----------------------------------------------------------


def test_percentile_nearest_rank():
    durations = list(range(1, 11))
    assert duration_threshold_from_percentile(durations, 40) == 4


def test_percentile_extremes():
    durations = list(range(1, 11))
    assert duration_threshold_from_percentile(durations, 0) == 1
    assert duration_threshold_from_percentile(durations, 100) == 10


def test_percentile_needs_ten_excursions():
    with pytest.raises(ValueError, match="at least 10"):
        duration_threshold_from_percentile([1, 2, 3], 50)


# --- config and serialization -----------------------------------------------------


def test_config_exactly_one_mode():
    with pytest.raises(ValueError):
        DetectorConfig("severity_threshold", duration_threshold_min=5, severity_threshold=0.5)
    with pytest.raises(ValueError):
        DetectorConfig("duration_threshold")
    with pytest.raises(ValueError):
        DetectorConfig("sometimes")


@pytest.mark.parametrize(
    "mode, field", [("severity_threshold", "severity_threshold"), ("duration_threshold", "duration_threshold_min")]
)
@pytest.mark.parametrize("value", [-1.0, float("nan")])
def test_config_rejects_a_negative_or_nan_threshold(mode, field, value):
    with pytest.raises(ValueError, match="must be nonnegative"):
        DetectorConfig(mode, **{field: value})


def test_flags_csv_round_trip():
    pts = [INTERIOR] + [RIGHT] * 4 + [INTERIOR]
    excursions, flags = track(series(pts), region(), DUR_CFG)
    buf = io.StringIO()
    write_excursions_csv(excursions, buf)
    rows = read_flags_csv(io.StringIO(buf.getvalue()))
    assert rows == excursions
    assert rows[0].flagged
    assert rows[0].duration_min == 4

    buf2 = io.StringIO()
    write_flags_csv(flags, buf2)
    assert read_flags_csv(io.StringIO(buf2.getvalue())) == flags


@pytest.mark.parametrize(
    "change, problem",
    [
        ({"duration_min": 0}, "at least one minute"),
        ({"max_severity": 0.0}, "positive and finite"),
        ({"max_severity": float("nan")}, "positive and finite"),
        ({"max_severity": float("inf")}, "positive and finite"),
        ({"exit_side": "up"}, "bad exit side 'up'"),
        ({"exit_side": "left"}, "only raised for right-side"),
        ({"end_us": us(T0) - 1}, "precedes start"),
        ({"link_id": ""}, "link_id is empty"),
    ],
)
def test_flag_row_invariants(change, problem):
    good = dict(link_id="L1", start_us=us(T0), end_us=us(T0), duration_min=1, max_severity=0.5, exit_side="right",
                flagged=True)
    FlagRow(**good)
    with pytest.raises(ValueError, match=problem):
        FlagRow(**{**good, **change})


# --- segmentation against the per-minute replay -------------------------------------


def track_annotated_oracle(rows, config):
    """Per-minute replay of the excursion state machine over ``(timestamp, state, severity)``
    rows, one usable minute at a time; interior and missing rows' severities are unused."""
    excursions = []
    flags = []

    open_side = None
    start_ts = end_ts = None
    minute_count = 0
    max_sev = 0.0
    flag_ts = None
    flag_minutes = 0
    last_usable = None

    def close():
        nonlocal open_side, flag_ts, flag_minutes
        flag = None
        if open_side == "right":
            if config.mode == "severity_threshold" and flag_ts is not None:
                flag = FlagRow("L1", us(flag_ts), us(end_ts), flag_minutes, max_sev, "right", True)
            elif config.mode == "duration_threshold" and minute_count >= config.duration_threshold_min:
                flag = FlagRow("L1", us(start_ts), us(end_ts), minute_count, max_sev, "right", True)
        raised = flag is not None
        excursions.append(FlagRow("L1", us(start_ts), us(end_ts), minute_count, max_sev, open_side, raised))
        if raised:
            flags.append(flag)
        open_side = None
        flag_ts = None
        flag_minutes = 0

    for ts, state, sev in rows:
        if state == M:
            continue
        if open_side is not None and last_usable is not None:
            missing_run = (ts - last_usable).total_seconds() / 60.0 - 1.0
            if missing_run >= GAP_TERMINATION_MIN:
                close()
        last_usable = ts
        if state in (L, R):
            if open_side is not None and state != open_side:
                close()
            if open_side is None:
                open_side = state
                start_ts = ts
                minute_count = 0
                max_sev = 0.0
            end_ts = ts
            minute_count += 1
            max_sev = max(max_sev, sev)
            if (
                open_side == "right"
                and config.mode == "severity_threshold"
                and flag_ts is None
                and sev >= config.severity_threshold
            ):
                flag_ts = ts
            if flag_ts is not None:
                flag_minutes += 1
        elif open_side is not None:
            close()
    if open_side is not None:
        close()
    return excursions, flags


R, L, I, M = "right", "left", "interior", "missing"

# A row is (seconds since the previous row, extra microseconds, state, severity); the
# first row's step is the stream's offset from T0, so streams start off the minute too.
STEPS = st.sampled_from([1, 30, 59, 60, 60, 60, 60, 61, 90, 119, 120, 121, 179, 180, 181, 240, 241, 600])
SEVERITIES = st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0, 2.0]) | st.floats(1e-3, 3.0)
THRESHOLDS = st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0, 2.0, 5.0]) | st.floats(0.0, 3.0)
ROWS = st.lists(
    st.tuples(STEPS, st.sampled_from([0, 0, 1, 999_999]), st.sampled_from([M, I, L, R]), SEVERITIES),
    min_size=1,
    max_size=60,
)


def scaled_sample(ts, state, sev):
    """A missing minute, or a point inside the unit square, ``sev`` above-left of it, or
    ``sev`` to its right.

    Left points have density exactly 0.25 and flow 1 + sev; right points have speed
    0.25, so their density 4 * flow is exactly 1 + sev. Either lies 1 + sev - 1 from
    the square: ``sev`` itself unless 1 + sev rounds."""
    speed, flow = {M: (0.0, 0.0), I: (1.0, 0.5), L: (4.0 * (1.0 + sev), 1.0 + sev), R: (0.25, (1.0 + sev) / 4.0)}[state]
    return TrafficSample("L1", us(ts), speed, flow)


def scaled_stream(rows):
    """The stream of ``(step, state, severity)`` rows, each ``step`` after the one before
    (the first after T0), and the rows as ``(timestamp, state, severity)`` for the replay,
    each severity the distance ``scaled_sample`` puts its point at.

    ``annotate`` takes minute streams only: as many missing minutes follow the rows,
    which makes most steps one minute long and changes no excursion."""
    samples, replay, t = [], [], T0
    for step, state, sev in rows:
        t += step
        samples.append(scaled_sample(t, state, sev))
        replay.append((t, state, 1.0 + sev - 1.0))
    for _ in rows:
        t += timedelta(minutes=1)
        samples.append(scaled_sample(t, M, 0.0))
    return LinkSeries.from_samples(samples), replay


def rows_of(*states, step=60, sev=0.25):
    return [(step, 0, state, sev) for state in states]


@settings(max_examples=300, deadline=None)
@given(rows=ROWS, threshold=THRESHOLDS, duration=st.integers(0, 6))
# a missing run of exactly the gap (2 min) ends the excursion, one minute less does not
@example(rows=rows_of(R) + [(180, 0, R, 0.3), (120, 0, R, 0.3)], threshold=0.25, duration=2)
@example(rows=rows_of(R, M, M, R, M, R), threshold=0.25, duration=2)
# 00:00:59 -> 00:03:00 is a missing run of 1 1/60 min, though the floored minutes differ by 3
@example(rows=[(59, 0, R, 0.3), (121, 0, R, 0.3)], threshold=0.25, duration=2)
@example(rows=[(59, 0, R, 0.3), (180, 1, R, 0.3), (179, 999_999, R, 0.3)], threshold=0.25, duration=2)
# side flips with no interior minute between them
@example(rows=rows_of(R, L, R, R, L, L), threshold=0.25, duration=1)
# severities equal to the threshold, in both the onset and a later minute
@example(rows=[(60, 0, R, 0.1), (60, 0, R, 0.25), (60, 0, R, 0.25), (60, 0, I, 0.0)], threshold=0.25, duration=3)
# streams that start and end inside an excursion
@example(rows=rows_of(R, R, I, L, L), threshold=0.25, duration=2)
@example(rows=rows_of(I, R, R), threshold=0.25, duration=2)
# no usable minutes, no exterior minutes
@example(rows=rows_of(M, M, M), threshold=0.25, duration=0)
@example(rows=rows_of(I, M, I), threshold=0.0, duration=0)
def test_track_annotated_matches_replay_oracle(rows, threshold, duration):
    stream, replay = scaled_stream([(timedelta(seconds=s, microseconds=m), state, sev) for s, m, state, sev in rows])
    found = annotate(stream, region())
    for config in (
        DetectorConfig("severity_threshold", severity_threshold=threshold),
        DetectorConfig("duration_threshold", duration_threshold_min=duration),
    ):
        assert track_annotated(found, config) == track_annotated_oracle(replay, config)


# Severities on a dyadic grid are exact distances, so some equal a calibration threshold.
SWEEP_ROWS = st.lists(
    st.tuples(STEPS, st.sampled_from([M, I, L, R, R]), st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 0.125])),
    min_size=1,
    max_size=80,
)


@settings(max_examples=60, deadline=None)
@given(rows=SWEEP_ROWS, label_rows=st.lists(st.tuples(st.integers(0, 79), st.integers(0, 10)), min_size=1, max_size=4))
@example(rows=[(60, R, 0.25), (180, R, 0.5), (60, I, 0.0), (60, R, 1.5)], label_rows=[(0, 3)])
def test_dftb_sweep_matches_replay_oracle(rows, label_rows):
    stream, replay = scaled_stream([(timedelta(seconds=step), state, sev) for step, state, sev in rows])
    usable = sum(state != M for _, state, _ in replay)
    if not usable:
        return
    span = [ts for ts, _, _ in replay]
    labels = [
        EventLabel("L1", "accident", us(span[min(a, len(span) - 1)]), us(span[min(a + b, len(span) - 1)]))
        for a, b in label_rows
    ]
    expected = []
    for threshold in ev.DFTB_THRESHOLD_GRID:
        config = DetectorConfig("severity_threshold", severity_threshold=threshold)
        _, flags = track_annotated_oracle(replay, config)
        expected.append(ev.score_detector(ev.intervals_us(flags), ev.intervals_us(labels), usable))
    assert ev.dftb_score_fn(stream, region(), labels)(ev.DFTB_THRESHOLD_GRID) == expected
