"""Typical-region learning and anomaly flagging for link-level traffic data.

The pipeline: read minute-resolution speed/flow series into per-link columns
(``ingest``), fit a bivariate kernel density estimate of the density-flow
cloud (``kde``), extract the level curve enclosing 1 - alpha probability
mass (``levelset``), stream new data against that region to raise
severity-ranked deviation flags (``detector``), and benchmark against
robust-SND and McMaster-style baselines (``baselines``, ``evaluation``).
``simgen`` generates labelled synthetic links for desk-scale validation;
``cli`` wires everything. The density and region queries are array
functions: ``evaluate_many``, ``contains_many`` and ``distances_and_sides``
take one point per row, and ``annotate`` returns a whole stream's excursions.
"""

__version__ = "0.1.0"

from .detector import DetectorConfig, FlagRow, annotate, calibrate_normalizer, track
from .ingest import (
    EventLabel,
    LinkSeries,
    TrafficSample,
    nonrecurrent_filter,
    parse_events,
    parse_series,
    read_series,
)
from .kde import BandwidthMatrix, DensityGrid, DensityModel, evaluate_grid, evaluate_many, fit, select_bandwidth
from .levelset import (
    TypicalRegion,
    contains_many,
    distances_and_sides,
    find_level,
    fit_typical_region,
    mass_above,
)

__all__ = [
    "BandwidthMatrix",
    "DensityGrid",
    "DensityModel",
    "DetectorConfig",
    "EventLabel",
    "FlagRow",
    "LinkSeries",
    "TrafficSample",
    "TypicalRegion",
    "annotate",
    "calibrate_normalizer",
    "contains_many",
    "distances_and_sides",
    "evaluate_grid",
    "evaluate_many",
    "find_level",
    "fit",
    "fit_typical_region",
    "mass_above",
    "nonrecurrent_filter",
    "parse_events",
    "parse_series",
    "read_series",
    "select_bandwidth",
    "track",
]
