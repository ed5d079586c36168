"""Benchmark of the flowsentry command line: two workloads, each a pass of CLI processes.

Run from the repository root:

    python3 perfbench/run.py --workload monitor_link --seed 11 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one after another

Each command of a workload runs as its own ``python -m flowsentry.cli ...`` process with
``PYTHONPATH=src``, one BLAS/OpenMP thread and ``FLOWSENTRY_GRID`` unset, one process at
a time, and its outputs are checked when it ends. A command that exits non-zero or fails
its check counts as failed; ``correct`` is false only when a command exited 0 with wrong
outputs.

``--trace 0``: set-ups and passes over the timed commands alternate. The set-up runs three
times and ``setup_s`` is the median of their wall time. Passes repeat until about
``--seconds`` of pass wall time have been measured (at least one pass; the last pass is
started only if it is expected to end nearer the target than stopping would), and each
other end-to-end metric is the median over passes. Alternating spreads both kinds of
sample over the whole run, so that drift in the machine's speed affects them alike.

``--trace 1``: the set-up runs once under ``perfbench/tracer.py``. Each timed command
then runs twice back to back, untraced and traced, in alternating order. The per-layer
metrics come from the traced runs (``setup.*`` ones from the traced set-up), and the
tracing overhead is their wall time minus that of the untraced runs.

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the environment and
the inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_REPEATS = 3

# Training-set in-region fraction a fit must reach: 1 - alpha - slack. The default
# bandwidth rule gives about 0.97 on 3- and 6-week links.
IN_REGION_SLACK = 0.01


@dataclass(frozen=True)
class Workload:
    setup: list[list[str]]
    timed: list[list[str]]


def workloads(seed: int) -> dict[str, Workload]:
    """The workloads' commands; BENCHMARK.json says why each was chosen."""
    return {
        "calibrate_baselines": Workload(
            [["simulate", "--out", "link6", "--seed", str(seed), "--weeks", "6", "--incidents", "12"]],
            [
                ["calibrate", "--series", "link6/series.csv", "--events", "link6/events.csv", "--detector", "snd",
                 "--out", "cal_snd"],
                ["calibrate", "--series", "link6/series.csv", "--events", "link6/events.csv", "--detector",
                 "mcmaster", "--out", "cal_mcmaster"],
            ],
        ),
        # The live link's periodic bottleneck puts about 6.7% of its minutes outside the
        # region, against about 3% in training. Its p95 duration flags catch only the
        # bottleneck runs, so their MTTD is undefined and `evaluate --flags-b` exits 1
        # ("pairs must be (first, second) tuples"). The step stays in the pass and counts
        # as one failed operation until the CLI handles a metric with no defined pair.
        "monitor_link": Workload(
            [
                ["simulate", "--out", "train", "--seed", str(seed), "--weeks", "3", "--incidents", "6"],
                ["fit", "--series", "train/series.csv", "--out", "model"],
                ["simulate", "--out", "live", "--seed", str(seed + 1), "--weeks", "4", "--incidents", "8",
                 "--bimodal"],
            ],
            [
                ["detect", "--series", "live/series.csv", "--region", "model/region.json", "--mode", "severity",
                 "--threshold", "0.2", "--out", "sev"],
                ["detect", "--series", "live/series.csv", "--region", "model/region.json", "--mode", "duration",
                 "--percentile", "95", "--out", "dur"],
                ["calibrate", "--series", "live/series.csv", "--events", "live/events.csv", "--detector", "dftb",
                 "--region", "model/region.json", "--out", "cal_dftb"],
                ["evaluate", "--series", "live/series.csv", "--events", "live/events.csv", "--flags",
                 "sev/flags.csv", "--flags-b", "dur/flags.csv", "--out", "eval"],
                ["plot", "--series", "live/series.csv", "--region", "model/region.json", "--flags", "sev/flags.csv",
                 "--out", "plots"],
            ],
        ),
    }


def metric_units(section: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


# Each ratio and the count it is a share of: (numerator, denominator).
RATIOS = {
    "kde.cells_above_level_share": ("kde.cells_above_level", "kde.level_searched_cells"),
    "levelset.exterior_share": ("levelset.exterior_points", "levelset.contains_many.points"),
    "evaluation.defined_pi_share": ("evaluation.calibrate.points_defined", "evaluation.calibrate.points_scored"),
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing program, failed set-up)."""


@dataclass
class Proc:
    argv: list[str]
    returncode: int
    start_ns: int  # time.monotonic_ns() just before the spawn
    end_ns: int  # ... just after the process was reaped
    cpu_s: float
    maxrss_mb: float
    stdout: str
    stderr: str
    trace: dict | None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FLOWSENTRY_GRID"}
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_cli(argv: list[str], workdir: Path, env: dict[str, str], trace: bool = False) -> Proc:
    """Run one CLI command to completion and measure it with ``wait4``."""
    trace_path = workdir / "trace.json"
    if trace:
        cmd = [sys.executable, str(TRACER), *argv]
        env = {**env, "PERFBENCH_TRACE_OUT": str(trace_path)}
        trace_path.unlink(missing_ok=True)
    else:
        cmd = [sys.executable, "-m", "flowsentry.cli", *argv]
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        argv=argv,
        returncode=proc.returncode,
        start_ns=start,
        end_ns=end,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        trace=json.loads(trace_path.read_text(encoding="utf-8")) if trace and trace_path.exists() else None,
    )


# --- output checks ---------------------------------------------------------------------


def _opt(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _data_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as handle:
        return sum(1 for _ in handle) - 1


def _printed(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(f"{key}:"):
            return line.split(":", 1)[1].strip()
    raise ValueError(f"no '{key}:' line in the output")


class Checker:
    """Checks each command's outputs with the library of the checkout under test."""

    def __init__(self, workdir: Path):
        from flowsentry import detector, evaluation, ingest, levelset

        self.detector, self.evaluation, self.ingest, self.levelset = detector, evaluation, ingest, levelset
        self.workdir = workdir
        self._mcmaster: dict[str, list] = {}

    def __call__(self, proc: Proc) -> str | None:
        """None when the command succeeded and its outputs hold, else the reason."""
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
        out = self.workdir / _opt(proc.argv, "--out")
        try:
            return getattr(self, f"check_{proc.argv[0]}")(proc, out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"output check raised {exc!r}"

    def check_simulate(self, proc: Proc, out: Path) -> str | None:
        rows, labels = (_data_rows(out / name) for name in ("series.csv", "events.csv"))
        if f"wrote {rows} samples and {labels} labels" not in proc.stdout:
            return f"series/events files ({rows}, {labels} rows) disagree with the printed counts"
        return None

    def check_fit(self, proc: Proc, out: Path) -> str | None:
        text = (out / "region.json").read_text(encoding="utf-8")
        region = self.levelset.TypicalRegion.from_json(text)
        if region.max_training_distance is None:
            return "region.json has no max_training_distance"
        if region.to_json() != text:
            return "region.json does not round-trip"
        fraction = float(_printed(proc.stdout, "in_region_fraction"))
        floor = 1.0 - float(_opt(proc.argv, "--alpha", "0.05")) - IN_REGION_SLACK
        if fraction < floor:
            return f"in_region_fraction {fraction} below {floor:.4f}"
        return None

    def check_detect(self, proc: Proc, out: Path) -> str | None:
        rows = self.detector.read_flags_csv(out / "flags.csv")
        printed = int(_printed(proc.stdout, "flags"))
        if len(rows) != printed:
            return f"flags.csv has {len(rows)} rows, the command printed {printed}"
        return None

    def check_calibrate(self, proc: Proc, out: Path) -> str | None:
        payload = json.loads((out / "calibration.json").read_text(encoding="utf-8"))
        pi = payload["training_score"]["pi"]
        if pi is None or not math.isfinite(pi):
            return f"training PI {pi} is not finite"
        grid = self.evaluation
        name = _opt(proc.argv, "--detector")
        if name == "dftb":
            on_grid = payload["severity_threshold"] in grid.DFTB_THRESHOLD_GRID
        elif name == "snd":
            on_grid = payload["c"] in grid.SND_C_GRID
        else:
            params = payload["params"]
            on_grid = any(
                all(math.isclose(params[k], getattr(p, k), rel_tol=1e-9, abs_tol=1e-12) for k in params)
                for p in self.mcmaster_grid(proc.argv)
            )
        return None if on_grid else f"{name} parameter is not on its calibration grid"

    def mcmaster_grid(self, argv: list[str]) -> list:
        """Every point calibrate_mcmaster can score: the coarse grid and each coarse point's
        27 scaled neighbours, as its docstring and body define them."""
        key = " ".join(argv)
        if key not in self._mcmaster:
            samples = self.ingest.parse_series(self.workdir / _opt(argv, "--series"))
            labels = self.ingest.nonrecurrent_filter(self.ingest.parse_events(self.workdir / _opt(argv, "--events")))
            labels = [lab for lab in labels if lab.link_id == samples[0].link_id]
            coarse = self.evaluation.mcmaster_parameter_grid(samples, labels)
            points = list(coarse)
            for seed in coarse:
                for rho_scale in (0.9, 1.0, 1.1):
                    for f_scale in (0.9, 1.0, 1.1):
                        for lud_scale in (0.9, 1.0, 1.1):
                            b = max(seed.b * lud_scale, 0.0)
                            c = seed.c * lud_scale
                            rho_crit = seed.rho_crit * rho_scale
                            if b + 2.0 * c * rho_crit < 0:
                                c = -b / (2.0 * rho_crit)
                            points.append(
                                self.evaluation.McMasterParams(
                                    seed.a * lud_scale, b, c, rho_crit, seed.f_crit * f_scale
                                )
                            )
            self._mcmaster[key] = points
        return self._mcmaster[key]

    def check_evaluate(self, proc: Proc, out: Path) -> str | None:
        links = json.loads((out / "evaluation.json").read_text(encoding="utf-8"))["links"]
        wanted = {"a", "b"} if "--flags-b" in proc.argv else {"a"}
        if not links or any(set(scores) != wanted for scores in links.values()):
            return "evaluation.json lacks a score per link and flag set"
        return None

    def check_plot(self, proc: Proc, out: Path) -> str | None:
        for name in ("scatter.svg", "travel_time.svg", "durations.svg"):
            text = (out / name).read_text(encoding="utf-8").strip()
            if not (text.startswith("<svg") and text.endswith("</svg>")):
                return f"{name} is missing or not an SVG document"
        return None

    def inputs(self, workload: Workload) -> list[dict]:
        """Minutes, usable minutes and incidents of each simulated link."""
        described = []
        for argv in workload.setup:
            if argv[0] != "simulate":
                continue
            out = self.workdir / _opt(argv, "--out")
            samples = self.ingest.parse_series(out / "series.csv")
            described.append(
                {
                    "series": f"{out.name}/series.csv",
                    "minutes": len(samples),
                    "usable_minutes": sum(1 for s in samples if s.has_density),
                    "incidents": len(self.ingest.parse_events(out / "events.csv")),
                }
            )
        return described


# --- one workload ------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def record(self, proc: Proc, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            # A command that exited 0 with wrong outputs is incorrect; one that exited
            # non-zero is a failed operation only.
            self.correct = self.correct and proc.returncode != 0
            print(f"FAILED {proc.argv[0]} ({' '.join(proc.argv[1:])}): {problem}", file=sys.stderr)


def run_setup(workload: Workload, workdir: Path, env, check: Checker, trace: bool = False) -> list[Proc]:
    procs = []
    for argv in workload.setup:
        proc = run_cli(argv, workdir, env, trace)
        problem = check(proc)
        if problem is not None:
            raise BenchmarkError(f"set-up command {' '.join(argv)} failed: {problem}")
        procs.append(proc)
    return procs


def run_checked(argv: list[str], workdir: Path, env, check: Checker, tally: Tally, trace: bool = False) -> Proc:
    proc = run_cli(argv, workdir, env, trace)
    tally.record(proc, check(proc))
    return proc


def measured_run(workload, workdir, env, check, tally, seconds: float):
    """Alternate ``SETUP_REPEATS`` set-ups with passes over the timed commands until about
    ``seconds`` of pass wall time. Returns (set-ups, passes)."""
    setups: list[list[Proc]] = []
    passes: list[list[Proc]] = []

    def more_passes() -> bool:
        if not passes:
            return True
        walls = [sum(p.wall_s for p in procs) for procs in passes]
        # Start another pass only if it should end nearer the target than stopping now.
        return sum(walls) + statistics.mean(walls) / 2 < seconds

    while len(setups) < SETUP_REPEATS or more_passes():
        if len(setups) < SETUP_REPEATS:
            setups.append(run_setup(workload, workdir, env, check))
        if more_passes():
            passes.append([run_checked(argv, workdir, env, check, tally) for argv in workload.timed])
    return setups, passes


def paired_pass(workload, workdir, env, check, tally) -> tuple[list[Proc], list[Proc]]:
    """Each timed command untraced and traced back to back, in alternating order, so that
    both runs of a command see about the same machine speed. Returns (untraced, traced)."""
    runs: dict[bool, list[Proc]] = {False: [], True: []}
    for i, argv in enumerate(workload.timed):
        for trace in (False, True) if i % 2 == 0 else (True, False):
            runs[trace].append(run_checked(argv, workdir, env, check, tally, trace))
    return runs[False], runs[True]


def pass_metrics(passes: list[list[Proc]]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(sum(p.wall_s for p in procs) for procs in passes),
        "cpu_s": statistics.median(sum(p.cpu_s for p in procs) for procs in passes),
        "peak_rss_mb": statistics.median(max(p.maxrss_mb for p in procs) for procs in passes),
    }


def layer_metrics(procs: list[Proc]) -> dict[str, float]:
    """Sum spans and counters of traced processes into per-layer totals.

    A span's self time is its duration minus the time its child spans cover; a module's
    ``.s`` is the time spent in its spans not nested in another span of the same module.
    Start-up is spawn to the start of ``cli.main``; exit is the end of ``cli.main`` to
    the moment the process was reaped.
    """
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for proc in procs:
        if proc.trace is None:
            raise BenchmarkError(f"traced command {' '.join(proc.argv)} wrote no trace")
        spans = proc.trace["spans"]
        covered = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            module = name.split(".")[0]
            add(f"{name}.s", (end - start) / 1e9)
            add(f"{name}.calls", 1)
            add(f"{module}.self_s", (end - start - covered[i]) / 1e9)
            if parent < 0 or spans[parent][0].split(".")[0] != module:
                add(f"{module}.s", (end - start) / 1e9)
            if name == "cli.main":
                add("cli.startup_s", (start - proc.start_ns) / 1e9)
                add("cli.exit_s", (proc.end_ns - end) / 1e9)
        for key, value in proc.trace["counts"].items():
            add(key, value)
    for ratio, (numerator, denominator) in RATIOS.items():
        if totals.get(denominator):
            totals[ratio] = totals.get(numerator, 0.0) / totals[denominator]
    return totals


def environment(seed: int, check: Checker, workload: Workload) -> dict:
    import numpy
    import scipy

    from flowsentry import cli

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True)
        git_sha = sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        git_sha = "unknown (not a git checkout)"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    fits = [a for a in workload.setup + workload.timed if a[0] == "fit"]
    return {
        "git_sha": git_sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": 1,
        "seed": seed,
        "inputs": check.inputs(workload),
        "grid_resolution": "x".join(map(str, cli.grid_resolution())),
        "bandwidth_rules": [_opt(a, "--bandwidth-method", "normal_reference") for a in fits],
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads(seed)[name]
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env = child_env()
        check = Checker(workdir)
        tally = Tally()
        if trace:
            setup = run_setup(workload, workdir, env, check, trace=True)
            untraced, traced = paired_pass(workload, workdir, env, check, tally)
            passes = 1
            layers = layer_metrics(traced)
            for key, value in layer_metrics(setup).items():
                layers[f"setup.{key}"] = value
            layers["trace.untraced_wall_s"] = sum(p.wall_s for p in untraced)
            layers["trace.traced_wall_s"] = sum(p.wall_s for p in traced)
            layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - layers["trace.untraced_wall_s"]
            metrics = {k: {"value": layers.get(k, 0.0), "unit": unit} for k, unit in metric_units("per_layer").items()}
            bases = {
                f"{prefix}{ratio}": (f"{prefix}{base}", layers.get(f"{prefix}{base}", 0.0))
                for ratio, (_, base) in RATIOS.items()
                for prefix in ("", "setup.")
            }
        else:
            setups, timed = measured_run(workload, workdir, env, check, tally, seconds)
            passes = len(timed)
            measured = pass_metrics(timed)
            measured["setup_s"] = statistics.median(sum(p.wall_s for p in procs) for procs in setups)
            metrics = {k: {"value": measured[k], "unit": unit} for k, unit in metric_units("end_to_end").items()}
            bases = {}
        meta = environment(seed, check, workload)
        meta.update(workload=name, passes=passes, setup_repeats=1 if trace else SETUP_REPEATS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"meta": meta, "bases": bases, "correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def report_lines(name: str, result: dict) -> list[str]:
    lines = [f"{name}: ops {result['attempted']}, ops_failed {result['failed']}, correct {result['correct']}"]
    for key, metric in result["metrics"].items():
        line = f"  {key} = {metric['value']:.6g} {metric['unit']}"
        if key in result["bases"]:
            base, count = result["bases"][key]
            line += f" (of {count:.0f} {base})"
        lines.append(line)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *workloads(0)])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flowsentry" / "cli.py").is_file():
        print(f"error: no flowsentry sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    # The checks run the library in this process too: same thread count, default grid.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("FLOWSENTRY_GRID", None)
    sys.path.insert(0, str(SRC))
    names = list(workloads(args.seed)) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(report_lines(name, results[name])), flush=True)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]["meta"]))
        metrics = results[names[0]]["metrics"]
    else:
        print(json.dumps({name: r["meta"] for name, r in results.items()}))
        metrics = {f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
