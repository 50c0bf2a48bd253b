"""Benchmark entry point.

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 35 --trace 0

Run from the repository root. The library is imported from ./src of this
checkout and nowhere else. With --trace 0 the workload's pass repeats until
--seconds have elapsed and the end-to-end metrics are medians over passes;
with --trace 1 one untraced and one traced pass run, then small traced calls
of the entry points the pass does not reach, then the untraced ROADMAP size
grid; the per-layer metrics come from the spans and the grid timings.
Human-readable lines go first; the last line of standard output is the JSON
result.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so every commit runs the same way.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from tracing import SpanRecorder, tail_percentile, traced  # noqa: E402
from workloads import WORKLOADS, Checks, size_grid, smoke  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3  # then one more after each timed pass


def load_library():
    """Import local_update_lab from this checkout's src/, or exit 2 without a result."""
    package = ROOT / "src" / "local_update_lab" / "__init__.py"
    if not package.is_file():
        print(f"error: {package.relative_to(ROOT)} not found; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    lib = importlib.import_module("local_update_lab")
    importlib.import_module("local_update_lab.cli")
    if Path(lib.__file__).resolve() != package.resolve():
        print(f"error: imported {lib.__file__}, expected {package}", file=sys.stderr)
        sys.exit(2)
    return lib


def machine_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _say(text: str) -> None:
    print(text, flush=True)


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_untraced(workload, seconds: float, setups: list[float]):
    """Timed passes until `seconds` have passed, each followed by one more
    timed set-up: host speed drifts over seconds, so set-ups spread over the
    run give a steadier median than set-ups made back to back."""
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(workload.run_pass())
        setups.append(timed(workload.setup))
    return passes


def per_layer_metrics(recorder, passes_wall: tuple[float, float], grid: dict, suites) -> tuple[dict, str]:
    """Per-layer metrics as {name: (value, unit)}, and the percentile that ms_tail reports."""
    summary = recorder.summary()
    counters = recorder.counters

    def entry(name):
        return summary.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "durations_ms": []})

    metrics = {}
    for name in ("quadratics.distortion_matrix", "matrices.eigh"):
        metrics[f"{name}.calls"] = (entry(name)["calls"], "count")
        metrics[f"{name}.self_ms"] = (entry(name)["self_ms"], "ms")
    for name in ("quadratics.Population", "quadratics.load_population", "quadratics.surrogate_hessian",
                 "quadratics.surrogate_minimizer", "quadratics.empirical_minimizer", "bounds.kappa_exact",
                 "bounds.distance_bound", "bounds.matrix_weighted_discrepancy", "frontier.sweep",
                 "frontier.simulated_maml_sweep", "engine.run", "engine.auto_tune_for",
                 "engine.export_trajectory_csv"):
        metrics[f"{name}.ms"] = (entry(name)["ms"], "ms")
    for name in ("bounds.scheme_q_eigenvalues", "bounds.mad", "engine.server_round"):
        metrics[f"{name}.calls"] = (entry(name)["calls"], "count")
    rounds = entry("engine.server_round")["durations_ms"]
    metrics["engine.server_round.ms_p50"] = (statistics.median(rounds) if rounds else 0.0, "ms")
    level, tail = tail_percentile(rounds)
    metrics["engine.server_round.ms_tail"] = (tail, "ms")
    metrics["engine.client_steps"] = (counters["engine.client_steps"], "count")
    metrics["frontier.points"] = (counters["frontier.points"], "count")
    metrics["frontier.skipped"] = (counters["frontier.skipped"], "count")
    grid_points = counters["frontier.grid_points"]
    metrics["frontier.admitted_share"] = (
        (grid_points - counters["frontier.skipped"]) / grid_points if grid_points else 0.0, "ratio")
    for suite in suites:
        metrics[f"verify.{suite}.s"] = (entry(f"verify.{suite}")["ms"] / 1e3, "s")
        metrics[f"verify.{suite}.instances"] = (counters[f"verify.{suite}.instances"], "count")
    for command in ("verify", "maml-sim", "simulate", "frontier"):
        metrics[f"cli.{command}.ms"] = (entry(f"cli.{command}")["ms"], "ms")
        metrics[f"cli.{command}.out_bytes"] = (counters[f"cli.{command}.out_bytes"], "bytes")
    untraced, traced_wall = passes_wall
    metrics["trace.overhead_share"] = (traced_wall / untraced - 1.0, "ratio")
    for name, value in grid.items():
        metrics[name] = (value, "ms")
    return metrics, f"p{level:g}"


def record_pass(lib, workload, seed: int, work: Path):
    """One traced pass plus the smoke calls; returns (pass result, recorder)."""
    recorder = SpanRecorder()
    with traced(lib, recorder):
        result = workload.run_pass()
        smoke(lib, seed, work, workload.reaches)
    return result, recorder


def run_traced(lib, workload, seed: int, work: Path):
    untraced = workload.run_pass()
    traced_pass, recorder = record_pass(lib, workload, seed, work)
    grid = size_grid(lib, seed)
    trace_path = work / f"trace-{workload.name}-seed{seed}.jsonl"
    recorder.write(trace_path)
    _say(f"spans: {len(recorder.spans)} written to {trace_path.relative_to(ROOT)}")
    metrics, tail_level = per_layer_metrics(
        recorder, (untraced.wall_s, traced_pass.wall_s), grid, list(lib.verify.SUITES))
    _say(f"engine.server_round.ms_tail is the {tail_level} of {metrics['engine.server_round.calls'][0]} rounds")
    return [untraced, traced_pass], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    lib = load_library()
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](lib, args.seed, work)

    for key, value in machine_facts().items():
        _say(f"machine {key}: {value}")

    setups = [timed(workload.setup) for _ in range(SETUP_REPEATS)]
    for key, value in workload.facts().items():
        _say(f"workload {key}: {value}")

    if args.trace:
        passes, layer = run_traced(lib, workload, args.seed, work)
    else:
        passes = run_untraced(workload, args.seconds, setups)

    checks = Checks()
    workload.check(passes, checks)
    for what in checks.failed:
        _say(f"FAILED check: {what}")

    if args.trace:
        metrics = layer
        for name, (value, unit) in metrics.items():
            _say(f"layer {name} = {value!r} {unit}")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "wall_s": (statistics.median([p.wall_s for p in passes]), "s"),
            "rate_per_s": (statistics.median([p.rate_per_s for p in passes]), "1/s"),
        }
        samples = {"setup_s": f"median of {len(setups)} set-ups", "peak_rss_mb": "1 sample"}
        for name, (value, unit) in metrics.items():
            _say(f"metric {name} = {value!r} {unit} ({samples.get(name, f'median of {len(passes)} passes')})")
        for stage in passes[0].stages:
            values = [p.stages[stage] for p in passes]
            _say(f"stage {stage} = {statistics.median(values)!r} (median of {len(values)} passes)")
    _say(f"failed_share = {len(checks.failed) / checks.attempted!r} "
         f"({len(checks.failed)} of {checks.attempted} checks failed)")

    result = {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
