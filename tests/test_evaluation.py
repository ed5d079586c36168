import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsentry import evaluation as ev
from flowsentry.ingest import EventLabel

T0 = datetime(2017, 4, 3, tzinfo=timezone.utc)


def interval(start_min, end_min):
    return (T0 + timedelta(minutes=start_min), T0 + timedelta(minutes=end_min))


def label(start_min, end_min, category="accident"):
    return EventLabel("L1", category, T0 + timedelta(minutes=start_min), T0 + timedelta(minutes=end_min))


def score(flags, labels):
    return ev.score_detector(flags, labels, 10_000)


def overlaps(flag, lab):
    """Oracle: a flag interval meets a label."""
    return flag[0] <= lab.end and flag[1] >= lab.start


# --- detection rate ---------------------------------------------------------------


def test_detection_rate_all_detected():
    labels = [label(0, 10), label(100, 120)]
    flags = [interval(5, 7), interval(110, 111)]
    assert score(flags, labels).dr == 100.0


def test_detection_rate_half_detected():
    labels = [label(0, 10), label(100, 120)]
    assert score([interval(5, 7)], labels).dr == 50.0


def test_detection_rate_flag_after_event_misses():
    labels = [label(0, 10)]
    assert score([interval(11, 15)], labels).dr == 0.0


def test_detection_rate_zero_labels_undefined():
    with pytest.raises(ev.UndefinedMetricError):
        score([interval(0, 5)], [])


def test_detection_plus_undetected_is_total():
    rng = np.random.default_rng(0)
    labels = [label(int(s), int(s) + 10) for s in rng.choice(5000, size=20, replace=False)]
    flags = [interval(int(s), int(s) + 3) for s in rng.choice(5000, size=30, replace=False)]
    dr = score(flags, labels).dr
    undetected = 100.0 * sum(1 for lab in labels if not any(overlaps(f, lab) for f in flags)) / len(labels)
    assert dr + undetected == pytest.approx(100.0)


# --- false alarm rate -------------------------------------------------------------


def test_far_no_flags():
    assert ev.false_alarm_rate([], [label(0, 10)], 1000) == 0.0


def test_far_counts_unlabelled_minutes():
    flags = [interval(50, 59)]  # 10 flagged minutes, no labels nearby
    assert ev.false_alarm_rate(flags, [label(200, 210)], 1000) == pytest.approx(1.0)


def test_far_all_flags_inside_labels():
    assert ev.false_alarm_rate([interval(2, 8)], [label(0, 10)], 1000) == 0.0


def test_far_zero_applications_error():
    with pytest.raises(ev.UndefinedMetricError):
        ev.false_alarm_rate([], [], 0)


# --- mean time to detect ----------------------------------------------------------


def test_mttd_simple_lag():
    assert score([interval(5, 9)], [label(0, 30)]).mttd == 5.0


def test_mttd_detection_at_start():
    assert score([interval(0, 3)], [label(0, 30)]).mttd == 0.0


def test_mttd_mean_of_lags():
    labels = [label(0, 30), label(100, 130)]
    flags = [interval(4, 6), interval(106, 110)]
    assert score(flags, labels).mttd == 5.0


def test_mttd_clamps_early_flags():
    # flag opens before the event but overlaps it
    assert score([interval(-10, 5)], [label(0, 30)]).mttd == 0.0


def test_mttd_zero_detected_undefined():
    assert score([], [label(0, 10)]).mttd is None


# --- performance index ------------------------------------------------------------


def test_pi_perfect_detector():
    assert ev.performance_index(100.0, 0.0, 10.0) == pytest.approx(1.0e-4)


def test_pi_reference_row_value():
    assert ev.performance_index(80.392, 0.937, 5.707) == pytest.approx(0.01220, abs=1e-4)


def test_pi_zero_mttd():
    assert ev.performance_index(50.0, 5.0, 0.0) == 0.0


def test_pi_monotonicity():
    base = ev.performance_index(80.0, 2.0, 10.0)
    assert ev.performance_index(90.0, 2.0, 10.0) < base  # better DR
    assert ev.performance_index(80.0, 3.0, 10.0) > base  # worse FAR
    assert ev.performance_index(80.0, 2.0, 12.0) > base  # slower detection


# --- calibration ------------------------------------------------------------------


def test_calibrate_single_point():
    result = ev.calibrate([0.5], lambda p: ev.DetectorScore(80.0, 1.0, 5.0))
    assert result.parameter == 0.5


def test_calibrate_prefers_perfect_point():
    def score(p):
        if p == 0.3:
            return ev.DetectorScore(100.0, 0.0, 1.0)
        return ev.DetectorScore(60.0, 4.0, 12.0)

    assert ev.calibrate([0.1, 0.3, 0.5], score).parameter == 0.3


def test_calibrate_tie_breaks_on_dr_then_far_then_order():
    scores = {
        0.1: ev.DetectorScore(80.0, 1.0, 0.0),  # pi 0, dr 80
        0.2: ev.DetectorScore(90.0, 1.0, 0.0),  # pi 0, dr 90  <- winner
        0.3: ev.DetectorScore(90.0, 2.0, 0.0),  # pi 0, dr 90, worse far
    }
    assert ev.calibrate([0.1, 0.2, 0.3], scores.__getitem__).parameter == 0.2


def test_calibrate_all_undefined_errors():
    with pytest.raises(ev.UndefinedMetricError):
        ev.calibrate([1, 2], lambda p: ev.DetectorScore(0.0, 0.0, None))


# --- paired t test ----------------------------------------------------------------


def test_paired_t_hand_value():
    r = ev.paired_t_test([(0.0, 1.0), (0.0, 2.0), (0.0, 3.0)])
    assert r.statistic == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-9)
    assert r.p_value == pytest.approx(0.0742, abs=2e-4)


def test_paired_t_symmetric_differences():
    r = ev.paired_t_test([(0.0, 1.0), (0.0, -1.0)])
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_paired_t_identical_pairs_degenerate():
    with pytest.raises(ev.DegenerateTestError):
        ev.paired_t_test([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])


# --- wilcoxon ---------------------------------------------------------------------


def test_wilcoxon_antisymmetric_differences():
    pairs = [(0.0, a) for a in (1.5, -1.5, 2.5, -2.5, 3.5, -3.5)]
    r = ev.wilcoxon_signed_rank(pairs)
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_wilcoxon_matches_scipy_exact():
    from scipy.stats import wilcoxon as scipy_wilcoxon

    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.normal(0.3, 1.0, size=12)
        ours = ev.wilcoxon_signed_rank([(0.0, v) for v in d])
        ref = scipy_wilcoxon(d, mode="exact")
        assert ours.method == "exact"
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)


def test_wilcoxon_scale_invariance():
    rng = np.random.default_rng(11)
    d = rng.normal(0.5, 1.0, size=10)
    base = ev.wilcoxon_signed_rank([(0.0, v) for v in d])
    scaled = ev.wilcoxon_signed_rank([(0.0, 37.5 * v) for v in d])
    assert scaled.p_value == base.p_value
    assert scaled.statistic == base.statistic


def test_wilcoxon_all_zero_degenerate():
    with pytest.raises(ev.DegenerateTestError):
        ev.wilcoxon_signed_rank([(1.0, 1.0)] * 8)


def test_wilcoxon_insufficient_pairs():
    with pytest.raises(ev.InsufficientPairsError):
        ev.wilcoxon_signed_rank([(0.0, 1.0), (0.0, 2.0), (0.0, -1.0)])


@pytest.mark.parametrize("test", [ev.paired_t_test, ev.wilcoxon_signed_rank, ev.sign_test])
def test_paired_tests_reject_zero_pairs(test):
    with pytest.raises(ev.InsufficientPairsError):
        test([])


def test_wilcoxon_large_n_uses_normal_approximation():
    rng = np.random.default_rng(13)
    pairs = [(0.0, v) for v in rng.normal(0.2, 1.0, size=40)]
    assert ev.wilcoxon_signed_rank(pairs).method == "normal_approx"


# --- sign test --------------------------------------------------------------------


def test_sign_test_reference_dr_case():
    # 4 wins, 12 losses, 1 tie: p = 2 * sum_{i<=4} C(16,i) / 2^16
    pairs = [(0.0, 1.0)] * 4 + [(1.0, 0.0)] * 12 + [(1.0, 1.0)]
    r = ev.sign_test(pairs)
    assert r.n_effective == 16
    assert r.statistic == 4
    expected = 2 * sum(math.comb(16, i) for i in range(5)) / 2**16
    assert r.p_value == pytest.approx(expected, rel=1e-12)
    assert r.p_value == pytest.approx(0.0768, abs=5e-4)


def test_sign_test_reference_far_case():
    pairs = [(0.0, 1.0)] * 3 + [(1.0, 0.0)] * 14
    r = ev.sign_test(pairs)
    assert r.p_value == pytest.approx(0.01273, abs=5e-5)


def test_sign_test_single_pair():
    assert ev.sign_test([(0.0, 1.0)]).p_value == 1.0


def test_sign_test_all_ties_degenerate():
    with pytest.raises(ev.DegenerateTestError):
        ev.sign_test([(1.0, 1.0), (2.0, 2.0)])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False).filter(lambda v: abs(v) > 1e-6), min_size=2, max_size=20)
)
def test_sign_test_invariant_under_monotone_transform(diffs):
    pairs = [(0.0, d) for d in diffs]
    transformed = [(math.atan(0.0), math.atan(d)) for d in diffs]  # strictly monotone map
    assert ev.sign_test(pairs).p_value == pytest.approx(ev.sign_test(transformed).p_value, rel=1e-12)


# --- aggregation ------------------------------------------------------------------


def test_summarize_reference_columns():
    rows = ev.load_table1()
    snd_dr = ev.summarize([r.snd_dr for r in rows])
    assert snd_dr.mean == pytest.approx(74.755, abs=1e-3)
    dftb_far = ev.summarize([r.dftb_far for r in rows])
    assert dftb_far.mean == pytest.approx(1.026, abs=1e-3)


def test_summarize_constant_column():
    s = ev.summarize([4.2] * 6)
    assert s.std == 0.0
    assert s.iqr == 0.0
    assert s.mean == s.median == 4.2


def test_summarize_needs_two_links():
    with pytest.raises(ValueError):
        ev.summarize([1.0])


# --- fixture ----------------------------------------------------------------------


def test_fixture_has_17_links():
    rows = ev.load_table1()
    assert len(rows) == 17
    assert rows[0].location == "East"
    assert rows[0].snd_mttd == 5.707


def test_report_csv_round_trips_aggregates(tmp_path):
    rows = ev.load_table1()
    out = tmp_path / "report.csv"
    ev.write_report_csv(rows, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 17 + 4
    mean_row = lines[18].split(",")
    assert mean_row[0] == "mean"
    assert float(mean_row[2]) == pytest.approx(74.755, abs=1e-3)


# --- mcmaster grid ----------------------------------------------------------------


def test_quantile_regression_sits_near_requested_quantile():
    rng = np.random.default_rng(21)
    rho = rng.uniform(1, 40, 3000)
    flow = 90 * rho - 0.6 * rho**2 + rng.normal(0, 150, 3000)
    a, b, c = ev.quantile_regression_quadratic(rho, flow)
    below = np.mean(flow < a + b * rho + c * rho**2)
    assert 0.02 <= below <= 0.09


# --- applications per detector ------------------------------------------------------


def test_applications_reject_an_unknown_detector():
    from flowsentry.ingest import LinkSeries, TrafficSample

    stream = LinkSeries.from_samples([TrafficSample("L1", T0, 50.0, 1000.0)])
    assert [ev.applications(stream, name) for name in ("snd", "dftb", "mcmaster")] == [1, 1, 1]
    with pytest.raises(ValueError, match="unknown detector 'loop'"):
        ev.applications(stream, "loop")


def test_application_counts_per_detector(monkeypatch):
    from flowsentry.baselines import BINS_PER_WEEK, BinStats, SndProfile, mcmaster_detect
    from flowsentry.ingest import LinkSeries, TrafficSample
    from flowsentry.levelset import TypicalRegion

    normal = [(100.0 - k % 10, 1000.0 + 10.0 * (k % 7)) for k in range(20)]  # inside the region
    blocks = [
        normal * 6,  # rows 0-119: speed and density
        [(50.0, None)] * 10,  # 120-129: a speed but no flow
        [(0.0, 500.0)] * 5,  # 130-134: zero speed, so no density
        [(None, 800.0)] * 5,  # 135-139: neither
        [(100.0, 3000.0)] * 5,  # 140-144: right of the region, labelled
        normal,  # 145-164
        [(100.0, 3000.0)] * 3,  # 165-167: right of the region, unlabelled
        normal,  # 168-187
    ]
    rows = [row for block in blocks for row in block]
    samples = [TrafficSample("L1", T0 + timedelta(minutes=k), v, f) for k, (v, f) in enumerate(rows)]
    stream = LinkSeries.from_samples(samples)
    labels = [label(140, 144)]
    with_speed, with_density = 120 + 10 + 5 + 5 + 20 + 3 + 20, 120 + 5 + 20 + 3 + 20
    assert (with_speed, with_density) == (183, 168)

    # SND alarms on rows 120-134 (15 unlabelled minutes below the 72.4 km/h cap)
    profile = SndProfile((BinStats(10, 100.0, 100.0, 0.0, 0.0, 0.0),) * BINS_PER_WEEK)
    assert ev.snd_score_fn(stream, profile, labels)(1.0).far == 100.0 * 15 / with_speed

    # DFTB flags rows 140-144 and 165-167; only the last 3 minutes are unlabelled
    box = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 2000.0], [0.0, 2000.0], [0.0, 0.0]])
    region = TypicalRegion(
        z_star=0.5, alpha=0.05, polygons=(box,), scale_rho=1.0, scale_f=100.0, max_training_distance=1.0
    )
    assert ev.dftb_score_fn(stream, region, labels)(0.5).far == 100.0 * 3 / with_density

    applications = []
    score_detector = ev.score_detector
    monkeypatch.setattr(ev, "score_detector", lambda f, lab, n: applications.append(n) or score_detector(f, lab, n))
    result = ev.calibrate_mcmaster(stream, labels)
    assert set(applications) == {with_density}
    flagged = ev.interval_minutes(mcmaster_detect(stream, result.parameter)) - ev.interval_minutes([interval(140, 144)])
    assert result.score.far == 100.0 * len(flagged) / with_density
