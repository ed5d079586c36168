import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowsentry import evaluation as ev
from flowsentry.ingest import US_PER_MINUTE, EventLabel
from time_helpers import instant, us

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
T0 = datetime(2017, 4, 3, tzinfo=timezone.utc)


def interval(start_min, end_min):
    return (T0 + timedelta(minutes=start_min), T0 + timedelta(minutes=end_min))


def label(start_min, end_min, category="accident"):
    return EventLabel("L1", category, us(T0 + timedelta(minutes=start_min)), us(T0 + timedelta(minutes=end_min)))


def pair(intervals):
    """The (start_us, end_us) pair of (start, end) datetime tuples."""
    both = np.array([(us(a), us(b)) for a, b in intervals], dtype=np.int64).reshape(-1, 2)
    return both[:, 0], both[:, 1]


def score(flags, labels):
    return ev.score_detector(pair(flags), ev.intervals_us(labels), 10_000)


def far(flags, labels, n_applications):
    return ev.score_detector(pair(flags), ev.intervals_us(labels), n_applications).far


def overlaps(flag, lab):
    """Oracle: a flag interval meets a label."""
    return flag[0] <= instant(lab.end_us) and flag[1] >= instant(lab.start_us)


# --- the datetime scorer, the oracle of score_detector --------------------------------


def oracle_minute(ts):
    return int(ts.timestamp() // 60)


def oracle_interval_minutes(intervals):
    out = set()
    for start, end in intervals:
        out.update(range(oracle_minute(start), oracle_minute(end) + 1))
    return out


def oracle_score(flags, labels, n_applications):
    """DR, FAR and MTTD of (start, end) datetime flags, one label and one flag at a time."""
    lags = []
    for lab in labels:
        starts = [f[0] for f in flags if overlaps(f, lab)]
        start = instant(lab.start_us)
        lags.append((max(min(starts), start) - start).total_seconds() / 60.0 if starts else None)
    if not lags:
        raise ev.UndefinedMetricError("detection rate undefined with zero labels")
    dr = 100.0 * sum(1 for lag in lags if lag is not None) / len(lags)
    flagged = oracle_interval_minutes(flags)
    labelled = oracle_interval_minutes([(instant(lab.start_us), instant(lab.end_us)) for lab in labels])
    far = 100.0 * len(flagged - labelled) / n_applications
    detected = [lag for lag in lags if lag is not None]
    return ev.DetectorScore(dr, far, float(np.mean(detected)) if detected else None)


# Epoch minutes the instants of a case are drawn after: April 2017, and 2480, where a float
# floor of microseconds / 6e7 rounds the last microsecond of a minute up into the next one.
# The oracle's datetime.timestamp() keeps the microsecond until 2**34 s (year 2514).
BASE_MINUTES = (us(T0) // US_PER_MINUTE, 2**28)
SUBMINUTE_US = st.sampled_from([0, 1, 999_999, 1_000_000, 30_000_000, 59_999_999]) | st.integers(0, US_PER_MINUTE - 1)


@st.composite
def scoring_cases(draw):
    """Flags and labels as (start, end) datetimes with second and microsecond offsets, all
    drawn from a few instants of one 90-minute window, so that labels overlap each other,
    flags start before, inside or at the end of a label, and an end often equals a start.
    A flag covers the minutes between its ends whether or not a sample fell in them."""
    base = draw(st.sampled_from(BASE_MINUTES))
    instant = st.builds(
        lambda minute, micro: EPOCH + timedelta(microseconds=(base + minute) * US_PER_MINUTE + micro),
        st.integers(0, 90),
        SUBMINUTE_US,
    )
    pool = draw(st.lists(instant, min_size=1, max_size=8, unique=True))
    ends = st.lists(st.sampled_from(pool), min_size=2, max_size=2).map(sorted)
    labels = [EventLabel("L1", "accident", us(a), us(b)) for a, b in draw(st.lists(ends, min_size=1, max_size=5))]
    flags = [tuple(f) for f in draw(st.lists(ends, max_size=6))]
    return flags, labels


def _at(minute, micro=0):
    return EPOCH + timedelta(microseconds=(2**28 + minute) * US_PER_MINUTE + micro)


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases(), n_applications=st.integers(1, 10_000))
@example(case=([], [EventLabel("L1", "accident", us(_at(0)), us(_at(5)))]), n_applications=100)  # no flags, MTTD None
@example(
    case=([(_at(0, 59_999_999), _at(3))], [EventLabel("L1", "other", us(_at(9)), us(_at(10)))]), n_applications=100
)
def test_score_detector_matches_datetime_oracle(case, n_applications):
    flags, labels = case
    expected = oracle_score(flags, labels, n_applications)
    assert ev.score_detector(pair(flags), ev.intervals_us(labels), n_applications) == expected


@st.composite
def flag_set_cases(draw):
    """Labels and several flag sets, some empty, drawn as ``scoring_cases`` draws its flags:
    from a few instants of one window, with sub-minute offsets, so that flags of a set
    overlap, come in any order and share a minute with the next one."""
    base = draw(st.sampled_from(BASE_MINUTES))
    instant = st.builds(
        lambda minute, micro: EPOCH + timedelta(microseconds=(base + minute) * US_PER_MINUTE + micro),
        st.integers(0, 90),
        SUBMINUTE_US,
    )
    pool = draw(st.lists(instant, min_size=1, max_size=10, unique=True))
    ends = st.lists(st.sampled_from(pool), min_size=2, max_size=2).map(sorted).map(tuple)
    labels = [EventLabel("L1", "accident", us(a), us(b)) for a, b in draw(st.lists(ends, min_size=1, max_size=5))]
    sets = draw(st.lists(st.lists(ends, max_size=6), min_size=1, max_size=5))
    return sets, labels


@settings(max_examples=300, deadline=None)
@given(case=flag_set_cases(), n_applications=st.integers(1, 10_000), shuffle=st.integers(0, 2**32 - 1))
@example(  # two runs of 30-second samples share minute 5; the second set is empty; the third is unsorted
    case=(
        [[(_at(1), _at(5, 10_000_000)), (_at(5, 40_000_000), _at(8))], [], [(_at(7), _at(9)), (_at(2), _at(7, 1))]],
        [EventLabel("L1", "accident", us(_at(6)), us(_at(7)))],
    ),
    n_applications=100,
    shuffle=0,
)
def test_score_flag_sets_matches_datetime_oracle_per_set(case, n_applications, shuffle):
    sets, labels = case
    owner = [k for k, flags in enumerate(sets) for _ in flags]
    flags = [f for flags in sets for f in flags]
    order = np.random.default_rng(shuffle).permutation(len(flags))  # the sets' flags interleaved
    scores = ev.score_flag_sets(
        pair([flags[i] for i in order]), np.array([owner[i] for i in order], dtype=np.intp), len(sets),
        ev.intervals_us(labels), n_applications,
    )
    assert scores == [oracle_score(flags, labels, n_applications) for flags in sets]


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
    assert far([], [label(0, 10)], 1000) == 0.0


def test_far_counts_unlabelled_minutes():
    flags = [interval(50, 59)]  # 10 flagged minutes, no labels nearby
    assert far(flags, [label(200, 210)], 1000) == pytest.approx(1.0)


def test_far_all_flags_inside_labels():
    assert far([interval(2, 8)], [label(0, 10)], 1000) == 0.0


def test_far_zero_applications_error():
    with pytest.raises(ev.UndefinedMetricError, match="zero applications"):
        far([], [label(0, 10)], 0)


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
    result = ev.calibrate([0.5], [ev.DetectorScore(80.0, 1.0, 5.0)])
    assert result.parameter == 0.5


def test_calibrate_prefers_perfect_point():
    def score(p):
        if p == 0.3:
            return ev.DetectorScore(100.0, 0.0, 1.0)
        return ev.DetectorScore(60.0, 4.0, 12.0)

    grid = [0.1, 0.3, 0.5]
    assert ev.calibrate(grid, [score(p) for p in grid]).parameter == 0.3


def test_calibrate_tie_breaks_on_dr_then_far_then_order():
    scores = {
        0.1: ev.DetectorScore(80.0, 1.0, 0.0),  # pi 0, dr 80
        0.2: ev.DetectorScore(90.0, 1.0, 0.0),  # pi 0, dr 90  <- winner
        0.3: ev.DetectorScore(90.0, 2.0, 0.0),  # pi 0, dr 90, worse far
    }
    assert ev.calibrate(list(scores), list(scores.values())).parameter == 0.2


def test_calibrate_all_undefined_errors():
    with pytest.raises(ev.UndefinedMetricError):
        ev.calibrate([1, 2], [ev.DetectorScore(0.0, 0.0, None)] * 2)


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


# --- p-values against scipy ----------------------------------------------------------


def test_t_tail_matches_scipy():
    # scipy's own t tail drifts by up to 3e-9 below |t| = 1e-4, so the grid starts at 0.01
    from scipy.stats import t as student_t

    ts = np.r_[np.linspace(-100.0, 100.0, 401), np.geomspace(0.01, 100.0, 120)]
    for nu in [*range(1, 60), 100, 200, 1000]:
        for t, ref in zip(ts.tolist(), (2.0 * student_t.sf(np.abs(ts), nu)).tolist()):
            ours = ev._t_two_sided_p(t, nu)
            if ref < 1e-290:
                assert ours < 1e-280, (nu, t, ours)
            else:
                assert abs(ours - ref) <= 1e-12 * ref, (nu, t, ours, ref)


def test_t_tail_with_one_degree_of_freedom_is_cauchy():
    for t in np.r_[np.linspace(-100.0, 100.0, 401), np.geomspace(1e-8, 100.0, 120)].tolist():
        assert ev._t_two_sided_p(t, 1) == pytest.approx(1.0 - 2.0 / math.pi * math.atan(abs(t)), rel=1e-12, abs=0)


def test_normal_tail_matches_scipy():
    from scipy.stats import norm

    z = np.linspace(0.0, 30.0, 3001)
    ours = np.array([ev._normal_sf(v) for v in z.tolist()])
    np.testing.assert_allclose(ours, norm.sf(z), rtol=1e-12, atol=0)


def test_binomial_tails_are_exact_sums_rounded_once():
    from fractions import Fraction

    from scipy.stats import binom

    for n in range(1, 200):
        # below[s]: the sum of C(n, k) over k < s, by the recurrence C(n, k) = C(n, k - 1) (n - k + 1) / k
        below, coefficient = [0], 1
        for k in range(n + 1):
            below.append(below[-1] + coefficient)
            coefficient = coefficient * (n - k) // (k + 1)
        tails = [ev._binomial_tails(s, n) for s in range(n + 1)]
        exact = [(Fraction(below[s + 1], 2**n), 1 - Fraction(below[s], 2**n)) for s in range(n + 1)]
        assert tails == [(float(low), float(high)) for low, high in exact], n
        s = np.arange(n + 1)
        low, high = np.array(tails).T
        np.testing.assert_allclose(low, binom.cdf(s, n, 0.5), rtol=1e-13, atol=0)
        np.testing.assert_allclose(high, binom.sf(s - 1, n, 0.5), rtol=1e-13, atol=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12).map(lambda k: k / 4), min_size=1, max_size=40))  # few values, many ties
def test_average_ranks_equal_rankdata(values):
    from scipy.stats import rankdata

    arr = np.array(values)
    ranks, counts = ev._average_ranks(arr)
    assert np.array_equal(ranks, rankdata(arr))
    assert counts.tolist() == [values.count(v) for v in sorted(set(values))]


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
    ev.write_report_csv(rows, ev.fixture_report(rows)["aggregates"], out)
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


def check_loss(density, flow, beta):
    """sum(rho_tau(flow - curve)) of the quadratic with coefficients ``beta``."""
    r = flow - (beta[0] + beta[1] * density + beta[2] * density**2)
    return float(np.sum(r * (ev.MCMASTER_SEED_QUANTILE - (r < 0))))


def lp_quantile_fit(density, flow):
    """Oracle: the quantile regression's standard LP form, solved by HiGHS."""
    from scipy import sparse
    from scipy.optimize import linprog

    n = density.size
    tau = ev.MCMASTER_SEED_QUANTILE
    design = np.column_stack([np.ones(n), density, density**2])
    # minimise tau*u + (1-tau)*v  s.t.  X beta + u - v = y, beta split into positive and negative parts
    c = np.concatenate([np.zeros(6), tau * np.ones(n), (1 - tau) * np.ones(n)])
    a_eq = sparse.hstack([design, -design, sparse.eye(n), -sparse.eye(n)], format="csc")
    res = linprog(c, A_eq=a_eq, b_eq=flow, bounds=(0, None), method="highs")
    assert res.success, res.message
    return res.x[:3] - res.x[3:6]


def edge_slopes(density, flow, beta):
    """The on-curve densities at ``beta`` and the directional derivative of the check loss
    along each edge, per unit of sum(|u|): an edge keeps two on-curve densities rho_a, rho_b
    on the curve and moves the fitted flow by t * u, u = +-(rho - rho_a)(rho - rho_b). These
    directions span every cone on which the loss is linear near ``beta``, so beta is optimal
    exactly when none of the slopes is negative."""
    tau = ev.MCMASTER_SEED_QUANTILE
    terms = np.abs(beta[0]) + np.abs(beta[1] * density) + np.abs(beta[2] * density**2)
    r = flow - (beta[0] + beta[1] * density + beta[2] * density**2)
    on = np.abs(r) <= 1e-9 * (np.abs(flow) + terms + 1.0)
    kept = np.unique(density[on])
    slopes = []
    for i, rho_a in enumerate(kept):
        for rho_b in kept[i + 1 :]:
            for sign in (1.0, -1.0):
                u = sign * (density - rho_a) * (density - rho_b)
                off = np.where(r > 0, -tau * u, (1 - tau) * u)  # d/dt rho_tau(r - t u), r != 0
                at = np.where(u > 0, (1 - tau) * u, -tau * u)  # rho_tau(-u), r == 0
                slopes.append(float(np.sum(np.where(on, at, off)) / np.sum(np.abs(u))))
    return kept, slopes


@st.composite
def quadratic_clouds(draw):
    """Flows around a concave quadratic of density, some rounded to integers (ties), some
    with repeated points. Every value is on a 0.01 grid, so that no basis is near-singular
    and no flow is so small that the LP solver's absolute tolerances decide its optimum."""

    def hundredths(lo, hi, size=None):
        values = st.integers(round(100 * lo), round(100 * hi))
        return np.array(draw(st.lists(values, min_size=size, max_size=size)) if size else draw(values)) / 100.0

    n = draw(st.integers(3, 40))
    density = hundredths(0.5, 80, n)
    a, b, c = hundredths(-200, 200), hundredths(0, 120), hundredths(-1.5, 0)
    noise = hundredths(-400, 400, n)
    flow = a + b * density + c * density**2 + noise
    if draw(st.booleans()):
        flow = np.round(flow)
    repeat = draw(st.lists(st.integers(0, n - 1), max_size=5))
    return np.concatenate([density, density[repeat]]), np.concatenate([flow, flow[repeat]])


@settings(max_examples=200, deadline=None)
@given(quadratic_clouds())
# four points on one line, so the optimal vertex is degenerate
@example((np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]), np.array([0.0, 0.0, 0.0, 0.0, 7.0, -3.0])))
def test_quantile_regression_matches_the_lp_optimum(cloud):
    density, flow = cloud
    assume(np.unique(density).size >= 3)
    beta = ev.quantile_regression_quadratic(density, flow)
    lp = lp_quantile_fit(density, flow)
    loss, lp_loss = check_loss(density, flow, beta), check_loss(density, flow, lp)
    assert abs(loss - lp_loss) <= 1e-9 * max(lp_loss, np.sum(np.abs(flow)) * 1e-3, 1.0)
    # the optimality certificate: the curve holds 3 distinct densities and no edge descends
    kept, slopes = edge_slopes(density, flow, beta)
    assert kept.size >= 3
    assert min(slopes) >= -1e-9
    if kept.size == 3 and min(slopes) > 1e-6:  # a strict minimum: the LP's optimum is unique
        np.testing.assert_allclose(beta, lp, rtol=1e-7, atol=1e-9 * max(*np.abs(lp), 1.0))


@pytest.mark.parametrize(
    "density",
    [[5.0], [5.0, 7.0], [5.0, 7.0, 5.0, 7.0, 7.0], [3.0] * 10],
)
def test_quantile_regression_needs_three_distinct_densities(density):
    density = np.array(density)
    with pytest.raises(RuntimeError, match="at least 3 distinct densities"):
        ev.quantile_regression_quadratic(density, 20.0 * density)


def test_quantile_regression_pivot_cap(monkeypatch):
    rng = np.random.default_rng(3)
    rho = rng.uniform(1, 40, 500)
    flow = 90 * rho - 0.6 * rho**2 + rng.normal(0, 150, 500)
    beta = ev.quantile_regression_quadratic(rho, flow)  # 6 pivots from the start basis
    monkeypatch.setattr(ev, "_MAX_PIVOTS", 6)
    assert ev.quantile_regression_quadratic(rho, flow) == beta
    monkeypatch.setattr(ev, "_MAX_PIVOTS", 5)
    with pytest.raises(RuntimeError, match="did not converge within 5 pivots"):
        ev.quantile_regression_quadratic(rho, flow)


def test_quantile_regression_strides_a_large_training_set():
    rng = np.random.default_rng(4)
    n = 2 * ev.MCMASTER_SEED_MAX_POINTS + 1
    rho = rng.uniform(1, 40, n)
    flow = 90 * rho - 0.6 * rho**2 + rng.normal(0, 150, n)
    assert ev.quantile_regression_quadratic(rho, flow) == ev.quantile_regression_quadratic(rho[::3], flow[::3])


# --- applications per detector ------------------------------------------------------


def test_applications_reject_an_unknown_detector():
    from flowsentry.ingest import LinkSeries, TrafficSample

    stream = LinkSeries.from_samples([TrafficSample("L1", us(T0), 50.0, 1000.0)])
    assert [ev.applications(stream, name) for name in ("snd", "dftb", "mcmaster")] == [1, 1, 1]
    with pytest.raises(ValueError, match="unknown detector 'loop'"):
        ev.applications(stream, "loop")


def test_application_counts_per_detector(monkeypatch):
    from flowsentry.baselines import BINS_PER_WEEK, SndProfile, mcmaster_detect
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
    samples = [TrafficSample("L1", us(T0 + timedelta(minutes=k)), v, f) for k, (v, f) in enumerate(rows)]
    stream = LinkSeries.from_samples(samples)
    labels = [label(140, 144)]
    with_speed, with_density = 120 + 10 + 5 + 5 + 20 + 3 + 20, 120 + 5 + 20 + 3 + 20
    assert (with_speed, with_density) == (183, 168)

    # SND alarms on rows 120-134 (15 unlabelled minutes below the 72.4 km/h cap)
    profile = SndProfile(*(np.full(BINS_PER_WEEK, stat) for stat in (10, 100.0, 100.0, 0.0, 0.0, 0.0)))
    assert ev.snd_score_fn(stream, profile, labels)([1.0])[0].far == 100.0 * 15 / with_speed

    # DFTB flags rows 140-144 and 165-167; only the last 3 minutes are unlabelled
    box = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 2000.0], [0.0, 2000.0], [0.0, 0.0]])
    region = TypicalRegion(
        z_star=0.5, alpha=0.05, polygons=(box,), scale_rho=1.0, scale_f=100.0, max_training_distance=1.0
    )
    assert ev.dftb_score_fn(stream, region, labels)([0.5])[0].far == 100.0 * 3 / with_density

    applications = []
    score_flag_sets = ev.score_flag_sets

    def spy(flags, owner, n_sets, labels, n_applications):
        applications.append(n_applications)
        return score_flag_sets(flags, owner, n_sets, labels, n_applications)

    monkeypatch.setattr(ev, "score_flag_sets", spy)
    result = ev.calibrate_mcmaster(stream, labels)
    assert set(applications) == {with_density}
    alarmed = ev.covered_minutes(*mcmaster_detect(stream, result.parameter))
    flagged = np.setdiff1d(alarmed, ev.covered_minutes(*pair([interval(140, 144)])))
    assert result.score.far == 100.0 * flagged.size / with_density


# --- calibration sweeps against the per-point loop -----------------------------------


def calibrate_oracle(grid, score_point, stage=""):
    """The per-point calibration loop: each grid point detected and scored on its own, and
    the argmin of PI with ties broken toward higher DR, lower FAR, then grid order."""
    best, sweep = None, []
    for order, param in enumerate(grid):
        s = score_point(param)
        sweep.append((stage, param, s))
        if s.pi is not None and (best is None or (s.pi, -s.dr, s.far, order) < best[0]):
            best = ((s.pi, -s.dr, s.far, order), param, s)
    return ev.CalibrationResult(best[1], best[2], tuple(sweep))


@pytest.fixture(scope="module")
def simulated_link():
    from flowsentry.simgen import ScenarioConfig, generate, plan_incidents

    stream, labels = generate(ScenarioConfig(seed=4, weeks=2, incidents=plan_incidents(4, 2, seed=4)))
    return stream, labels


@pytest.fixture(params=[None, 1, 4], ids=["default_blocks", "one_point_blocks", "four_point_blocks"])
def grid_blocks(request, monkeypatch, simulated_link):
    """Runs a test with the grid's hits in blocks of the default size, of one grid point
    and of four, so that the runs of several blocks and of several rows are joined."""
    from flowsentry import baselines

    if request.param is not None:
        monkeypatch.setattr(baselines, "_GRID_BLOCK_CELLS", request.param * (len(simulated_link[0]) + 1))


def distinct_scores(result):
    return len({s for _, _, s in result.sweep})


def test_calibrate_snd_matches_per_point_loop(simulated_link, grid_blocks):
    from flowsentry.baselines import snd_detect, snd_fit

    stream, labels = simulated_link
    profile = snd_fit(stream)
    label_us, n = ev.intervals_us(labels), ev.applications(stream, "snd")
    expected = calibrate_oracle(ev.SND_C_GRID, lambda c: ev.score_detector(snd_detect(stream, profile, c), label_us, n))
    assert distinct_scores(expected) > 10
    assert ev.calibrate_snd(stream, profile, labels) == expected


def test_calibrate_mcmaster_matches_per_point_loop(simulated_link, grid_blocks):
    from flowsentry.baselines import mcmaster_detect

    stream, labels = simulated_link
    label_us, n = ev.intervals_us(labels), ev.applications(stream, "mcmaster")

    def score_point(params):
        return ev.score_detector(mcmaster_detect(stream, params), label_us, n)

    coarse = calibrate_oracle(ev._mcmaster_grid(stream, label_us), score_point, "coarse")
    seed = coarse.parameter
    fine = [seed]
    for rho_scale in (0.9, 1.0, 1.1):
        for f_scale in (0.9, 1.0, 1.1):
            for lud_scale in (0.9, 1.0, 1.1):
                b = max(seed.b * lud_scale, 0.0)
                c = seed.c * lud_scale
                rho_crit = seed.rho_crit * rho_scale
                if b + 2.0 * c * rho_crit < 0:
                    c = -b / (2.0 * rho_crit)
                fine.append(ev.McMasterParams(seed.a * lud_scale, b, c, rho_crit, seed.f_crit * f_scale))
    best = calibrate_oracle(fine, score_point, "fine")
    expected = ev.CalibrationResult(best.parameter, best.score, coarse.sweep + best.sweep)
    assert distinct_scores(expected) > 10
    assert ev.calibrate_mcmaster(stream, labels) == expected


def clamp_without_nextafter(curve, scale, rho_crit, f_crit):
    """``_scaled_bound`` with c clamped to -b / (2 rho_crit) alone, which can round a bound
    that decreases by a rounding error, so that ``McMasterParams`` rejects it."""
    a, b, c = (scale * term for term in curve)
    b = max(b, 0.0)
    if b + 2.0 * c * rho_crit < 0:
        c = -b / (2.0 * rho_crit)
    return ev.McMasterParams(a, b, c, rho_crit, f_crit)


@settings(max_examples=500, deadline=None)
@given(
    curve=st.tuples(st.floats(-1e4, 1e4), st.floats(-1e3, 1e3), st.floats(-1e2, 1e2)),
    scale=st.floats(0.5, 1.5),
    rho_crit=st.floats(1e-3, 1e3),
    f_crit=st.floats(1.0, 1e4),
)
@example(curve=(0.0, 78.939, -1.838), scale=1.0, rho_crit=71.382, f_crit=500.0)  # -b / (2 rho_crit) rounds low
def test_scaled_bound_is_nondecreasing_and_moves_only_a_rounded_clamp(curve, scale, rho_crit, f_crit):
    params = ev._scaled_bound(curve, scale, rho_crit, f_crit)  # always a valid bound
    try:
        before = clamp_without_nextafter(curve, scale, rho_crit, f_crit)
    except ValueError:
        # c is the least float at or above -b / (2 rho_crit) for which the bound holds
        floor = -params.b / (2.0 * rho_crit)
        assert floor < params.c
        lower = math.nextafter(params.c, -math.inf)
        assert lower >= floor and params.b + 2.0 * lower * rho_crit < 0
        assert (params.a, params.b, params.f_crit) == (scale * curve[0], max(scale * curve[1], 0.0), f_crit)
    else:
        assert params == before


def test_calibrate_dftb_matches_per_threshold_loop(simulated_link):
    from flowsentry.detector import annotate, calibrate_normalizer
    from flowsentry.levelset import TypicalRegion, contains_many

    stream, labels = simulated_link
    (r0, r1), (f0, f1) = (np.percentile(column, [10, 90]) for column in stream.points.T)
    box = np.array([[r0, f0], [r1, f0], [r1, f1], [r0, f1], [r0, f0]])
    region = TypicalRegion(z_star=1.0, alpha=0.05, polygons=(box,), scale_rho=r1 - r0, scale_f=f1 - f0)
    region = calibrate_normalizer(region, stream.points, contains_many(region, stream.points))
    found = annotate(stream, region)
    label_us, n = ev.intervals_us(labels), ev.applications(stream, "dftb")

    def score_point(threshold):  # one threshold's onsets at a time
        hit = np.where(found.severity >= threshold, np.arange(found.at_us.size), found.at_us.size)
        onset = np.minimum.reduceat(hit, found.first)
        flagged = np.flatnonzero(found.right & (onset < found.first + found.duration))
        flags = (found.at_us[onset[flagged]], found.at_us[found.last[flagged]])
        return ev.score_detector(flags, label_us, n)

    expected = calibrate_oracle(ev.DFTB_THRESHOLD_GRID, score_point)
    assert distinct_scores(expected) > 5
    assert ev.calibrate_dftb(stream, region, labels) == expected
