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

Importing the package loads no submodule: each public name is imported from
its module on first access, so a command loads only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it
_MODULE_OF = {
    "BandwidthMatrix": "kde",
    "DensityGrid": "kde",
    "DensityModel": "kde",
    "DetectorConfig": "detector",
    "EventLabel": "ingest",
    "FlagRow": "detector",
    "LinkSeries": "ingest",
    "TrafficSample": "ingest",
    "TypicalRegion": "levelset",
    "annotate": "detector",
    "contains_many": "levelset",
    "distances_and_sides": "levelset",
    "evaluate_grid": "kde",
    "evaluate_many": "kde",
    "find_level": "levelset",
    "fit": "kde",
    "fit_region": "levelset",
    "mass_above": "levelset",
    "nonrecurrent_filter": "ingest",
    "parse_events": "ingest",
    "parse_series": "ingest",
    "read_series": "ingest",
    "select_bandwidth": "kde",
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its submodule on first access (PEP 562), then keep it here."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
