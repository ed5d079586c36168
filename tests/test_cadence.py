"""The minute-cadence contract, checked where a stream enters the library.

Durations, the gap rule and the false alarm rate count samples as minutes, so
every entry point that scores a stream rejects one whose median sample spacing
is not one minute, instead of treating it as minute data.
"""

import numpy as np
import pytest

from flowsentry import evaluation as ev
from flowsentry.baselines import mcmaster_detect, snd_detect, snd_fit
from flowsentry.detector import annotate
from flowsentry.evaluation import McMasterParams
from flowsentry.ingest import CadenceError, LinkSeries
from flowsentry.levelset import TypicalRegion, contains_many
from flowsentry.simgen import ScenarioConfig, generate, plan_incidents


def rows(stream: LinkSeries, keep) -> LinkSeries:
    columns = (stream.epoch_us, stream.speed, stream.flow, stream.travel_time)
    return LinkSeries(stream.link_id, *(column[keep] for column in columns))


@pytest.fixture(scope="module")
def link():
    stream, labels = generate(ScenarioConfig(seed=4, weeks=2, incidents=plan_incidents(4, 2, seed=4)))
    (r0, r1), (f0, f1) = (np.percentile(column, [10, 90]) for column in stream.points.T)
    box = np.array([[r0, f0], [r1, f0], [r1, f1], [r0, f1], [r0, f0]])
    region = TypicalRegion(
        z_star=1.0, alpha=0.05, polygons=(box,), scale_rho=1.0, scale_f=1.0, max_training_distance=1.0
    )
    return stream, labels, region


ENTRY_POINTS = {
    "annotate": lambda stream, labels, region: annotate(stream, region),
    "snd_fit": lambda stream, labels, region: snd_fit(stream),
    "snd_detect": lambda stream, labels, region: snd_detect(stream, snd_fit(stream), 1.0),
    "mcmaster_detect": lambda stream, labels, region: mcmaster_detect(
        stream, McMasterParams(0.0, 80.0, -0.5, 40.0, 3000.0)
    ),
    "calibrate_dftb": lambda stream, labels, region: ev.calibrate_dftb(stream, region, labels),
    "calibrate_snd": lambda stream, labels, region: ev.calibrate_snd(stream, snd_fit(stream), labels),
    "calibrate_mcmaster": lambda stream, labels, region: ev.calibrate_mcmaster(stream, labels),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_five_minute_stream_is_rejected(link, name):
    stream, labels, region = link
    coarse = rows(stream, slice(None, None, 5))
    assert coarse.spacing_min == 5.0
    with pytest.raises(CadenceError, match="link SIM1: median sample spacing is 5 minutes, not 1"):
        ENTRY_POINTS[name](coarse, labels, region)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_minute_stream_with_a_hole_passes(link, name):
    stream, labels, region = link
    holed = rows(stream, np.r_[0:5000, 5010 : len(stream)])
    assert holed.spacing_min == 1.0
    ENTRY_POINTS[name](holed, labels, region)  # raises nothing


def test_one_sample_stream_passes(link):
    stream, _, region = link
    single = rows(stream, slice(0, 1))
    assert single.spacing_min == 1.0
    found = annotate(single, region)
    if contains_many(region, single.points)[0]:  # an interior minute is in no excursion
        assert found.at_us.size == found.duration.size == 0
    else:
        assert found.at_us.tolist() == single.epoch_us.tolist()
        assert found.duration.tolist() == [1]


def test_spacing_is_the_median_step_in_minutes():
    t0 = 1_491_177_600_000_000
    steps_us = np.array([60, 60, 30, 600, 90, 90]) * 1_000_000
    stream = LinkSeries("L1", t0 + np.r_[0, np.cumsum(steps_us)], *np.ones((3, 7)))
    assert stream.spacing_min == 1.25  # the median of the six steps, 75 s
    with pytest.raises(CadenceError, match="median sample spacing is 1.25 minutes, not 1"):
        stream.require_minute_cadence()
