"""The package's public names: ``flowsentry.__all__``."""

import os
import subprocess
import sys

import flowsentry


def test_every_public_name_resolves():
    namespace = {}
    exec("from flowsentry import *", namespace)  # fails on a listed name the package lacks
    assert sorted(flowsentry.__all__) == sorted(set(flowsentry.__all__))
    assert all(namespace[name] is getattr(flowsentry, name) for name in flowsentry.__all__)


def test_public_queries_take_arrays_only():
    single_point = {"contains", "distance_to_boundary", "exit_side", "severity", "evaluate", "false_alarm_rate"}
    assert single_point.isdisjoint(flowsentry.__all__)
    assert {"contains_many", "distances_and_sides", "evaluate_many", "annotate"} <= set(flowsentry.__all__)


def test_importing_the_package_loads_no_submodule():
    # each public name is imported from its module on first access, so that a command
    # loads only the modules it runs
    guard = "import sys, flowsentry; print(*sorted(m for m in sys.modules if m.startswith('flowsentry.')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    run = subprocess.run([sys.executable, "-c", guard], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "\n"
