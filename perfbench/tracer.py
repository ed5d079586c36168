"""Run one flowsentry CLI command with spans recorded around library calls.

    PYTHONPATH=src PERFBENCH_TRACE_OUT=trace.json python3 perfbench/tracer.py fit --series s.csv --out m

behaves like ``python -m flowsentry.cli fit --series s.csv --out m``. Before it calls
``flowsentry.cli.main``, it rebinds every attribute of every flowsentry module that is
bound to a function listed in ``TRACED`` (names imported elsewhere, such as
``detector.contains_many``, included) to a wrapper. The wrapper records a span
(name, start, end, parent) and updates work counters from the call's arguments and
result. Spans stay in memory and are written as JSON to ``PERFBENCH_TRACE_OUT`` when
``main`` returns. Times are ``time.monotonic_ns()``, which the parent process shares,
so the parent can measure start-up as spawn to the start of the ``cli.main`` span.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# Besides the functions the per-layer metrics name, each command's entry points into a
# module are listed, so that their own time counts as that module's self time rather
# than the caller's. Per-minute helpers (weekly_bin, snd_threshold, mcmaster_classify,
# parse_timestamp, format_timestamp, the scalar region queries) are left out on purpose:
# a wrapper would cost about as much as they do, and their time shows as the caller's.
TRACED = {
    "cli": ("main", "cmd_simulate", "cmd_fit", "cmd_detect", "cmd_calibrate", "cmd_evaluate", "cmd_plot"),
    "ingest": ("parse_series", "write_series", "parse_events", "write_events", "nonrecurrent_filter", "by_link"),
    "simgen": ("generate", "plan_incidents"),
    "kde": ("select_bandwidth", "fit", "evaluate_grid"),
    "levelset": (
        "fit_typical_region",
        "find_level",
        "extract_contour",
        "filter_components",
        "contains_many",
        "distances_to_boundary",
        "exit_sides",
        "with_normalizer",
    ),
    "detector": (
        "calibrate_normalizer",
        "annotate",
        "track",
        "track_annotated",
        "duration_threshold_from_percentile",
        "write_excursions_csv",
        "write_flags_csv",
        "read_flags_csv",
    ),
    "baselines": ("snd_fit", "snd_detect", "mcmaster_detect"),
    "evaluation": (
        "calibrate",
        "calibrate_dftb",
        "calibrate_snd",
        "calibrate_mcmaster",
        "mcmaster_parameter_grid",
        "quantile_regression_quadratic",
        "dftb_score_fn",
        "snd_score_fn",
        "score_detector",
        "wilcoxon_signed_rank",
        "sign_test",
        "paired_t_test",
    ),
    "svg": ("document", "axes", "scatter", "closed_path", "polyline", "bars"),
}


class Recorder:
    """Spans and counters of one process, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.open: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.open)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.monotonic_ns(), 0, self.open[-1] if self.open else -1]
            self.spans.append(span)
            self.open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic_ns()
                self.open.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _vertices(region) -> int:
    return sum(len(p) for p in region.polygons)


def _on_grid(rec, args, kwargs, grid):
    samples = _arg(args, kwargs, 0, "model").n
    cells = grid.values.size
    rec.add("kde.samples", samples)
    rec.add("kde.grid_cells", cells)
    rec.add("kde.sample_cells", samples * cells)


def _on_region_fit(rec, args, kwargs, region):
    rec.add("levelset.polygon_vertices", _vertices(region))
    grid = kwargs.get("grid")
    if grid is not None:
        rec.add("kde.cells_above_level", int((grid.values >= region.z_star).sum()))
        rec.add("kde.level_searched_cells", grid.values.size)


def _on_contains(rec, args, kwargs, inside):
    rec.add("levelset.contains_many.points", inside.size)
    rec.add("levelset.exterior_points", int(inside.size - inside.sum()))


def _on_track(rec, args, kwargs, result):
    excursions, flags = result
    rec.add("detector.excursions", len(excursions))
    rec.add("detector.flags", len(flags))


def _on_scan(rec, args, kwargs, alarms):
    rec.add("baselines.minutes_scanned", len(_arg(args, kwargs, 0, "stream")))


def _on_score(rec, args, kwargs, score):
    if rec.inside("evaluation.calibrate"):
        rec.add("evaluation.calibrate.points_scored", 1)
        rec.add("evaluation.calibrate.points_defined", score.pi is not None)


HOOKS = {
    "ingest.parse_series": lambda rec, args, kwargs, rows: rec.add("ingest.parse_series.rows", len(rows)),
    "kde.evaluate_grid": _on_grid,
    "levelset.fit_typical_region": _on_region_fit,
    "levelset.region_load": lambda rec, args, kwargs, region: rec.add("levelset.polygon_vertices", _vertices(region)),
    "levelset.contains_many": _on_contains,
    "levelset.distances_to_boundary": lambda rec, args, kwargs, d: rec.add("levelset.distances_to_boundary.points", d.size),
    "detector.track_annotated": _on_track,
    "baselines.snd_detect": _on_scan,
    "baselines.mcmaster_detect": _on_scan,
    "evaluation.score_detector": _on_score,
}


def install(rec: Recorder):
    """Import flowsentry.cli and rebind every traced function; return the cli module.

    A listed function the library no longer has is skipped, so its metrics read 0."""
    cli = importlib.import_module("flowsentry.cli")
    modules = [m for name, m in sys.modules.items() if name == "flowsentry" or name.startswith("flowsentry.")]
    for short, names in TRACED.items():
        module = importlib.import_module(f"flowsentry.{short}")
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                continue
            wrapper = rec.wrap(f"{short}.{name}", original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
    region = importlib.import_module("flowsentry.levelset").TypicalRegion
    region.from_json = classmethod(rec.wrap("levelset.region_load", region.from_json.__func__))
    return cli


if __name__ == "__main__":
    recorder = Recorder()
    cli_module = install(recorder)
    try:
        code = cli_module.main(sys.argv[1:])
    finally:
        recorder.write(os.environ["PERFBENCH_TRACE_OUT"])
    sys.exit(code)
