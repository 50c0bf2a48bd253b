"""Tests of the benchmark itself, on tiny inputs.

    python -m pytest perfbench -q

They show that the output checks catch a wrong answer (a perturbed minimizer,
a failing verification suite), that the traced counts repeat exactly, and
that the benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run as bench
from tracing import SpanRecorder, traced
from workloads import (
    Checks,
    EngineRounds,
    EngineSizes,
    SpectralAnalysis,
    SpectralSizes,
    VerifySizes,
    VerifySuite,
)

lib = bench.load_library()

TINY = {
    "verify-suite": lambda work: VerifySuite(lib, 1, work, VerifySizes(trials=1)),
    "spectral-analysis": lambda work: SpectralAnalysis(lib, 3, work, SpectralSizes(
        dim=6, n_clients=5, k_values=(1, 16), sweep_k_max=1000, sweep_points=8, maml_dim=6, maml_points=8)),
    "engine-rounds": lambda work: EngineRounds(lib, 5, work, EngineSizes(
        dim=6, n_clients=5, k=5, stoch_dim=4, stoch_clients=6, stoch_examples=4, stoch_per_round=3,
        stoch_batch=2, stoch_rounds=10)),
}

COUNTS = ("matrices.eigh.calls", "quadratics.distortion_matrix.calls", "engine.client_steps",
          "engine.server_round.calls")


def checked(workload) -> Checks:
    workload.setup()
    checks = Checks()
    workload.check([workload.run_pass(), workload.run_pass()], checks)
    return checks


@pytest.mark.parametrize("name", ["engine-rounds", "spectral-analysis"])
def test_correct_outputs_pass_every_check(name, tmp_path):
    checks = checked(TINY[name](tmp_path))
    assert checks.attempted > 0
    assert checks.failed == []


def test_verify_checks_follow_the_report(tmp_path):
    workload = TINY["verify-suite"](tmp_path)
    checks = checked(workload)
    report = json.loads((tmp_path / "verify.json").read_text())
    failing = {c["name"] for c in report["checks"] if not c["pass"]}
    flagged = {name for name in lib.verify.SUITES if any(
        what.startswith(f"verify: suite {name} passes") for what in checks.failed)}
    assert flagged == failing
    # Per pass: one per failing suite, plus the exit code and all_pass.
    assert len(checks.failed) == (2 * (len(failing) + 2) if failing else 0)


def test_unchecked_suites_are_timed_only_in_the_traced_run(tmp_path):
    workload = TINY["verify-suite"](tmp_path)
    workload.setup()
    workload.run_pass()
    report = json.loads((tmp_path / "verify.json").read_text())
    timed = [c["name"] for c in report["checks"]]
    assert timed == [s for s in lib.verify.SUITES if s not in VerifySuite.UNCHECKED]
    _, recorder = bench.record_pass(lib, workload, 7, tmp_path)
    metrics, _ = bench.per_layer_metrics(recorder, (1.0, 1.0), {}, list(lib.verify.SUITES))
    assert all(metrics[f"verify.{s}.instances"][0] > 0 for s in lib.verify.SUITES)


def test_perturbed_minimizer_is_caught(tmp_path, monkeypatch):
    original = lib.surrogate_minimizer

    def perturbed(*args):
        x = original(*args)
        return x + 1e-6 * (1.0 + np.linalg.norm(x))

    monkeypatch.setattr(lib, "surrogate_minimizer", perturbed)
    checks = checked(TINY["spectral-analysis"](tmp_path))
    assert any("pseudo-gradient vanishes" in what for what in checks.failed)


def test_failed_suite_is_caught(tmp_path, monkeypatch):
    def failing(seed, trials=1):
        return lib.verify.CheckResult("mad_scalar", trials, 1.0, 0.0)

    monkeypatch.setitem(lib.verify.SUITES, "mad_scalar", failing)
    checks = checked(TINY["verify-suite"](tmp_path))
    assert any(what.startswith("verify: suite mad_scalar passes") for what in checks.failed)


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_exactly(name, tmp_path):
    original_eigh = lib.engine.eigh
    counts = []
    for _ in range(2):
        workload = TINY[name](tmp_path)
        workload.setup()
        _, recorder = bench.record_pass(lib, workload, 7, tmp_path)
        metrics, _ = bench.per_layer_metrics(recorder, (1.0, 1.0), {}, list(lib.verify.SUITES))
        counts.append({key: metrics[key][0] for key in COUNTS})
    assert counts[0] == counts[1]
    assert all(value > 0 for value in counts[0].values())
    assert lib.engine.eigh is original_eigh  # patches are undone


def test_span_self_time_excludes_children():
    recorder = SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    summary = recorder.summary()
    outer, inner = summary["outer"], summary["inner"]
    assert outer["self_ms"] == pytest.approx(outer["ms"] - inner["ms"])


def test_tracing_patches_every_namespace():
    recorder = SpanRecorder()
    with traced(lib, recorder):
        names = ("matrices", "engine", "bounds", "frontier", "cli", "verify")
        assert len({id(getattr(getattr(lib, m), "eigh")) for m in names}) == 1
        lib.bounds.eigh(np.eye(2))
        lib.verify.eigh(np.eye(2))
    assert recorder.summary()["matrices.eigh"]["calls"] == 2


def test_refuses_to_run_without_sources(tmp_path):
    root = Path(bench.__file__).resolve().parent.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((root / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "verify-suite", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
