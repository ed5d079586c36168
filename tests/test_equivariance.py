"""Exact equivariance of the DFTB path under a power-of-two change of units.

The region comes from ratios of its inputs: the covariance bandwidth, the padded
sample hull, the mass fraction and distances scaled by the interquartile ranges.
Multiplying flow by 2^-k multiplies density by 2^-k too, and halving speed doubles
density; a power of two scales every float exactly. So the region's coordinates,
z* and axis scales must scale exactly, and no decision may change: the
normaliser, the excursions, the flags and the calibration sweep stay identical.
"""

import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsentry.detector import (
    DetectorConfig,
    annotate,
    duration_threshold_from_percentile,
    track_annotated,
    write_excursions_csv,
)
from flowsentry.evaluation import calibrate_dftb
from flowsentry.ingest import LinkSeries, nonrecurrent_filter
from flowsentry.levelset import fit_region
from flowsentry.simgen import ScenarioConfig, generate, plan_incidents

# (flow factor, speed factor): density is flow over speed
SCALINGS = {"flow / 2": (0.5, 1.0), "flow / 4": (0.25, 1.0), "speed / 2": (1.0, 0.5)}


def csv_text(rows) -> str:
    sink = io.StringIO()
    write_excursions_csv(rows, sink)
    return sink.getvalue()


def run_dftb(stream: LinkSeries, labels):
    """The fitted region, then the excursion and flag CSVs of the link against it at
    severity 0.2 and, given 10 or more excursions, at its duration p95, then its
    calibration sweep."""
    region, _ = fit_region(stream.points)
    found = annotate(stream, region)
    configs = [DetectorConfig("severity", 0.2)]
    if found.first.size >= 10:
        minutes = duration_threshold_from_percentile(found.duration, 95)
        configs.append(DetectorConfig("duration", minutes))
    outputs = [tuple(map(csv_text, track_annotated(found, config))) for config in configs]
    return region, outputs, calibrate_dftb(stream, region, labels)


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**16), bimodal=st.booleans(), scaling=st.sampled_from(sorted(SCALINGS)))
@example(seed=7, bimodal=False, scaling="flow / 2")
@example(seed=7, bimodal=True, scaling="flow / 4")
@example(seed=7, bimodal=True, scaling="speed / 2")
def test_a_power_of_two_change_of_units_changes_no_decision(seed, bimodal, scaling):
    flow_factor, speed_factor = SCALINGS[scaling]
    plan = plan_incidents(3, 1, seed, bimodal=bimodal)
    stream, labels = generate(ScenarioConfig(seed=seed, weeks=1, incidents=plan, bimodal=bimodal))
    labels = nonrecurrent_filter(labels)
    scaled = LinkSeries(
        stream.link_id,
        stream.epoch_us,
        stream.speed * speed_factor,
        stream.flow * flow_factor,
        stream.travel_time / speed_factor,
    )
    region, outputs, calibration = run_dftb(stream, labels)
    got_region, got_outputs, got_calibration = run_dftb(scaled, labels)

    axes = np.array([flow_factor / speed_factor, flow_factor])  # (density, flow)
    assert len(got_region.polygons) == len(region.polygons)
    assert all(np.array_equal(got, polygon * axes) for got, polygon in zip(got_region.polygons, region.polygons))
    assert got_region.z_star == region.z_star / (axes[0] * axes[1])
    assert (got_region.scale_rho, got_region.scale_f) == (region.scale_rho * axes[0], region.scale_f * axes[1])
    assert got_region.max_training_distance == region.max_training_distance
    assert got_outputs == outputs
    assert got_calibration == calibration
