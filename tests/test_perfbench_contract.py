"""The library surface that perfbench/run.py and perfbench/tracer.py rely on.

The benchmark checks each command's outputs with this checkout's library and
rebinds the functions its tracer lists, so a refactor that renames or reshapes
one of them breaks the benchmark. These tests load both scripts by path and
exercise that surface on a simulated one-week link.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flowsentry.cli import main
from flowsentry.detector import DetectorConfig, annotate, track_annotated
from flowsentry.evaluation import McMasterParams
from flowsentry.ingest import LinkSeries, parse_series
from flowsentry.levelset import TypicalRegion

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while decorating
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return load_script("run")


@pytest.fixture(scope="module")
def tracer():
    return load_script("tracer")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("perfbench")
    assert main(["simulate", "--out", str(root / "link"), "--seed", "3", "--weeks", "1", "--incidents", "3"]) == 0
    return root


SIMULATE = ["simulate", "--out", "link", "--seed", "3", "--weeks", "1", "--incidents", "3"]
CALIBRATE = ["calibrate", "--series", "link/series.csv", "--events", "link/events.csv", "--detector", "mcmaster",
             "--out", "cal"]


def test_checker_describes_inputs(bench, workdir):
    check = bench.Checker(workdir)
    described = check.inputs(bench.Workload([SIMULATE], []))
    samples = parse_series(workdir / "link" / "series.csv")
    assert described == [
        {
            "series": "link/series.csv",
            "minutes": len(samples),
            "usable_minutes": sum(1 for s in samples if s.has_density),
            "incidents": 3,
        }
    ]


def test_checker_rebuilds_the_mcmaster_grid(bench, workdir):
    points = bench.Checker(workdir).mcmaster_grid(CALIBRATE)
    assert len(points) == 36 * 28  # the coarse grid plus each point's 27 scaled neighbours
    assert all(isinstance(p, McMasterParams) for p in points)


# the names the tracer lists that the library no longer has; it skips them, so their
# metrics read 0, as they did before: no command called them
DELETED = {
    "ingest.by_link",
    "levelset.distances_to_boundary",
    "levelset.exit_sides",
    "levelset.fit_typical_region",
    "levelset.with_normalizer",
    "detector.track",
    "detector.calibrate_normalizer",
    "detector.write_flags_csv",
}


def test_every_traced_name_resolves(tracer):
    missing = {
        f"{short}.{name}"
        for short, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"flowsentry.{short}"), name, None))
    }
    assert missing == DELETED


def test_every_library_name_the_runner_reads_resolves():
    # self.<module>.<name>, <alias>.<name> after <alias> = self.<module>, and cli.<name>
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    modules = {"ingest", "evaluation", "detector", "levelset"}
    aliases = {
        node.targets[0].id: node.value.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Attribute) and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "self" and node.value.attr in modules
    }
    read = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name) and owner.value.id == "self":
            if owner.attr in modules:
                read.add((owner.attr, node.attr))
        elif isinstance(owner, ast.Name) and owner.id == "cli":
            read.add(("cli", node.attr))
        elif isinstance(owner, ast.Name) and owner.id in aliases:
            read.add((aliases[owner.id], node.attr))
    assert {("ingest", "parse_series"), ("evaluation", "SND_C_GRID"), ("cli", "grid_resolution")} <= read
    missing = [
        f"{module}.{name}"
        for module, name in sorted(read)
        if not hasattr(importlib.import_module(f"flowsentry.{module}"), name)
    ]
    assert missing == []


def test_the_tracer_runs_a_simulate_and_a_detect(workdir, tmp_path):
    region = tmp_path / "model"
    assert main(["fit", "--series", str(workdir / "link" / "series.csv"), "--out", str(region)]) == 0
    commands = {
        "simulate": ["simulate", "--out", str(tmp_path / "sim"), "--seed", "4", "--weeks", "1", "--incidents", "2"],
        "detect": ["detect", "--series", str(workdir / "link" / "series.csv"), "--region", str(region / "region.json"),
                   "--mode", "severity", "--threshold", "0.2", "--out", str(tmp_path / "det")],
    }
    src = str(PERFBENCH.parent / "src")
    for name, argv in commands.items():
        trace = tmp_path / f"{name}.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               "PERFBENCH_TRACE_OUT": str(trace)}
        done = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        spans = {span[0] for span in json.loads(trace.read_text(encoding="utf-8"))["spans"]}
        assert {"cli.main", f"cli.cmd_{name}"} <= spans
    assert (tmp_path / "det" / "flags.csv").is_file()


@pytest.mark.parametrize("name", ["snd_detect", "mcmaster_detect"])
def test_scan_hook_reads_the_stream_length(tracer, workdir, name):
    from flowsentry import baselines

    assert next(iter(inspect.signature(getattr(baselines, name)).parameters)) == "stream"
    stream = LinkSeries.from_samples(parse_series(workdir / "link" / "series.csv"))
    recorder = tracer.Recorder()
    tracer.HOOKS[f"baselines.{name}"](recorder, (stream,), {}, [])
    assert recorder.counts["baselines.minutes_scanned"] == len(stream) == 7 * 24 * 60


def test_track_hook_counts_excursions_and_flags(tracer, workdir):
    stream = LinkSeries.from_samples(parse_series(workdir / "link" / "series.csv"))
    (r0, r1), (f0, f1) = (np.percentile(column, [10, 90]) for column in stream.points.T)
    box = np.array([[r0, f0], [r1, f0], [r1, f1], [r0, f1], [r0, f0]])
    region = TypicalRegion(
        z_star=1.0, alpha=0.05, polygons=(box,), scale_rho=1.0, scale_f=1.0, max_training_distance=1.0
    )
    result = track_annotated(annotate(stream, region), DetectorConfig("severity", 0.2))
    excursions, flags = result
    assert excursions and flags
    recorder = tracer.Recorder()
    tracer.HOOKS["detector.track_annotated"](recorder, (), {}, result)
    assert recorder.counts == {"detector.excursions": len(excursions), "detector.flags": len(flags)}
