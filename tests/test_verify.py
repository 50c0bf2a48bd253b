"""Verification-suite plumbing: selection, report schema, suite health."""

import json
import math
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from local_update_lab import (
    Population,
    RunConfig,
    client_update,
    distortion_matrix,
    surrogate_gradient,
)
from local_update_lab import bounds, cli, engine, errors, frontier, matrices, quadratics, verify
from local_update_lab.bounds import scheme_q_eigenvalues
from local_update_lab.cli import main
from local_update_lab.errors import InvalidInputError
from local_update_lab.matrices import keyed_rng
from local_update_lab.verify import (
    SUITES,
    CheckResult,
    check_corollary1,
    check_lemma5_distance,
    check_theorem3_rates,
    check_theorem4_distance,
    random_admissible_params,
    checks_report,
    random_population,
    run_suites,
    select_suites,
    theorem1_client_gap,
)


class TestSelection:
    def test_default_selects_all(self):
        assert select_suites(None) == list(SUITES)

    def test_prefix_matching(self):
        names = select_suites("theorem1")
        assert names == ["theorem1_deterministic", "theorem1_stochastic"]

    def test_comma_list_dedupes(self):
        names = select_suites("mad,mad_scalar")
        assert names == ["mad_scalar", "mad_matrix"]

    def test_unknown_prefix(self):
        with pytest.raises(InvalidInputError, match="theorem99"):
            select_suites("theorem99")

    @pytest.mark.parametrize("only", ["", " ", ",", "theorem2,", "mad, ,theorem1"])
    def test_empty_token_matches_nothing(self, only):
        # an empty prefix would match every name; only None selects every suite
        with pytest.raises(InvalidInputError, match="no verification suite matches ''"):
            select_suites(only)


class TestReport:
    def test_schema_and_types(self):
        report = checks_report(3, run_suites(only="theorem2,lemma1", seed=3, trials=20))
        assert report["schema_version"] == 1
        assert report["seed"] == 3
        assert isinstance(report["all_pass"], bool)
        for check in report["checks"]:
            assert set(check) == {"name", "instances", "max_violation", "threshold", "pass"}
            assert isinstance(check["pass"], bool)
            assert isinstance(check["instances"], int)

    def test_trials_override(self):
        report = checks_report(0, run_suites(only="theorem2", seed=0, trials=7))
        assert report["checks"][0]["instances"] == 7


def strict_json(text: str) -> dict:
    """json.loads that rejects NaN and Infinity, as a strict JSON parser does."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


class TestEmptySuite:
    """A suite that checked no instance has shown nothing, so it fails."""

    def test_cli_exits_4_with_a_strict_json_report(self, tmp_path):
        # lemma2's only trial at seed 14 has kappa_exact > 1e6 and is skipped
        out = tmp_path / "r.json"
        assert main(["verify", "--only", "lemma2", "--seed", "14", "--trials", "1", "--out", str(out)]) == 4
        report = strict_json(out.read_text(encoding="utf-8"))
        assert report["checks"] == [{
            "name": "lemma2_condition_bound", "instances": 0, "max_violation": None,
            "threshold": 1e-9, "pass": False,
        }]
        assert report["all_pass"] is False

    def test_result_with_no_instance_fails(self):
        assert not CheckResult("s", 0, -math.inf, 1.0).passed
        assert not CheckResult("s", 0, 0.0, 1.0).passed
        assert CheckResult("s", 1, 0.0, 1.0).passed

    @pytest.mark.parametrize("violation", [math.nan, math.inf, -math.inf])
    def test_non_finite_violation_is_null(self, violation):
        entry = CheckResult("s", 3, violation, 1e-9).as_dict()
        assert entry["max_violation"] is None
        assert strict_json(json.dumps(entry))["max_violation"] is None

    def test_finite_violation_is_written_as_before(self):
        assert CheckResult("s", 3, -2.5e-17, 1e-9).as_dict() == {
            "name": "s", "instances": 3, "max_violation": -2.5e-17, "threshold": 1e-9, "pass": True,
        }


def test_every_suite_reports_under_its_own_key():
    # a suite's name is written once, where it is registered
    assert len(SUITES) == 15
    for name, check in SUITES.items():
        assert check(0, trials=1).name == name


class TestNanViolation:
    """A NaN violation fails its suite; max() would silently drop it."""

    @pytest.fixture
    def nan_minimizer(self, monkeypatch):
        monkeypatch.setattr(
            quadratics, "surrogate_minimizer", lambda pop, *args: np.full(pop.dim, np.nan)
        )

    @pytest.mark.usefixtures("nan_minimizer")
    @pytest.mark.parametrize("check", [check_lemma5_distance, check_theorem4_distance, check_corollary1])
    def test_suite_reports_nan_and_fails(self, check):
        result = check(0, trials=4)
        assert math.isnan(result.max_violation)
        assert not result.passed

    @pytest.mark.usefixtures("nan_minimizer")
    def test_cli_exits_4(self, tmp_path):
        assert main(["verify", "--only", "lemma5", "--out", str(tmp_path / "r.json")]) == 4
        (check,) = strict_json((tmp_path / "r.json").read_text(encoding="utf-8"))["checks"]
        assert check["max_violation"] is None
        assert check["pass"] is False

    def test_client_gap_keeps_nan(self):
        rng = keyed_rng(0, 0x11, 0)
        pop = random_population(rng, max_dim=6, min_clients=3, max_clients=3)
        alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=5)
        x = np.ones(pop.dim)
        x[0] = np.nan
        assert math.isnan(theorem1_client_gap(pop, x, alpha, gamma, theta))

    def test_theorem3_keeps_nan_of_one_optimizer(self, monkeypatch):
        operator = frontier.round_operator

        def nan_for_nesterov(pop, cfg, opt):
            m = operator(pop, cfg, opt)
            return np.full_like(m, np.nan) if opt.kind == "nesterov" else m

        monkeypatch.setattr(frontier, "round_operator", nan_for_nesterov)
        assert math.isnan(check_theorem3_rates(0, trials=1).max_violation)


def test_all_suites_pass_at_reduced_size():
    """Every registered suite holds on a smaller instance budget."""
    report = checks_report(1, run_suites(seed=1, trials=15))
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert not failing, f"failing suites: {failing}"


@pytest.mark.parametrize("seed", [3, 2374950348])
def test_formerly_failing_seeds_pass(seed):
    # lemma1 failed on seed 3 (eigh rounding below zero), theorem1_stochastic
    # on seed 2374950348 (a Monte-Carlo false alarm at 4.95 standard errors)
    report = checks_report(seed, run_suites(only="theorem1_stochastic,lemma1", seed=seed))
    assert report["all_pass"], report["checks"]


def test_theorem3_trial_decomposes_the_surrogate_once(monkeypatch):
    # one kappa_exact (one map of the population's spectra) and one eigh of H
    # serve all three optimizers; the one surrogate system maps the clients'
    # eigenvalues once more, and kappa_bound's scalar maps of mu and ell are
    # not counted
    calls = {"eigh": 0, "scheme_q_eigenvalues": 0}

    def counted(name, function, counts=lambda *args: True):
        def wrapper(*args, **kwargs):
            calls[name] += counts(*args)
            return function(*args, **kwargs)
        return wrapper

    eigh = counted("eigh", matrices.eigh)
    for module in (matrices, bounds, engine, frontier, verify, cli):  # every module that binds eigh
        monkeypatch.setattr(module, "eigh", eigh)
    spectra_map = counted("scheme_q_eigenvalues", scheme_q_eigenvalues, lambda lams, *rest: np.ndim(lams) == 2)
    for module in (bounds, quadratics):  # every module that binds the map
        monkeypatch.setattr(module, "scheme_q_eigenvalues", spectra_map)
    assert check_theorem3_rates(0, trials=1).passed
    assert calls == {"eigh": 1, "scheme_q_eigenvalues": 2}


@pytest.mark.parametrize("seed", [5, 97, 107])
def test_theorem3_passes_where_per_step_ratios_overshot(seed, tmp_path):
    # a tuned momentum round is not a normal map: on these seeds its per-step
    # norm ratios exceeded the rate at kappa_exact, while its spectral radius
    # is the tuned rate at cond(H)
    argv = ["verify", "--only", "theorem3_rates", "--seed", str(seed), "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distortion_agrees_with_eigenvalue_map(seed):
    """On lemma1's own instances, eig(Q_i) equals q(lambda_i) to rounding.

    By Weyl's inequality the gap is at most the norm of Q_i's rounding
    error, so 1e-12 * max|q| leaves room above eps-level rounding.
    """
    for trial in range(200):
        rng = keyed_rng(seed, 0x41, trial)  # the draws of check_lemma1_positive_definite
        pop = random_population(rng, max_dim=12, max_clients=6)
        alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
        mapped = np.sort(scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta), axis=1)
        for client, q in zip(pop.clients, mapped):
            spectrum = np.sort(np.linalg.eigvalsh(distortion_matrix(client.a_matrix, alpha, gamma, theta)))
            assert np.max(np.abs(spectrum - q)) <= 1e-12 * np.max(np.abs(q))


@pytest.mark.parametrize("ranges", [
    {"min_dim": 0, "max_dim": 0},
    {"min_dim": -1, "max_dim": 3},
    {"min_clients": 0, "max_clients": 0},
    {"min_dim": 4, "max_dim": 3},
    {"min_clients": 5, "max_clients": 2},
])
def test_random_population_rejects_empty_ranges_before_drawing(ranges):
    rng = keyed_rng(0, 0xA0, 0)
    with pytest.raises(InvalidInputError, match="random_population needs"):
        random_population(rng, **ranges)
    assert rng.random() == keyed_rng(0, 0xA0, 0).random()  # nothing was drawn


def test_client_gap_equals_per_client_route():
    # one batched kernel call gives the same worst gap, bit for bit, as
    # updating each client alone against its one-client surrogate gradient
    for trial in range(20):
        rng = keyed_rng(0, 0x11, trial)
        pop = random_population(rng, max_dim=20, max_clients=10)
        alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=50)
        x = rng.uniform(-2.0, 2.0, size=pop.dim)
        cfg = RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=1)
        reference = max(
            float(np.linalg.norm(
                client_update(client, x, cfg)
                - surrogate_gradient(Population.uniform([client], bounds=pop.bounds), x, alpha, gamma, theta)
            ))
            for client in pop.clients
        )
        assert theorem1_client_gap(pop, x, alpha, gamma, theta) == reference


@pytest.fixture
def scripted(monkeypatch):
    """Register a suite whose trial t returns script[t]: a violation, None to skip, or an error to raise."""
    monkeypatch.setattr(verify, "SUITES", dict(SUITES))

    def register(name, script):
        def instance(rng, trial):
            outcome = script[trial]
            if isinstance(outcome, Exception):
                raise outcome
            return None if outcome is None else (outcome, 1)

        return verify.suite(name, 0x7E, 1.0, len(script))(instance)

    return register


class TestWorstTrial:
    """The suite loop records which trial set the worst violation."""

    @pytest.mark.parametrize(
        "violations, worst_trial",
        [
            ([0.1, 3.0, 3.0, 0.5], 1),  # the first trial that reaches the worst
            ([0.5, math.nan, 2.0, math.nan], 1),  # a NaN is never replaced
            ([None, -1.0, None], 1),
            ([None, None], None),  # no trial checked an instance
        ],
    )
    def test_worst_trial(self, scripted, violations, worst_trial):
        result = scripted("scripted", violations)(0)
        assert result.worst_trial == worst_trial
        assert set(result.as_dict()) == {"name", "instances", "max_violation", "threshold", "pass"}


# ---------------------------------------------------------------------------
# run_suites on a forked worker pool
# ---------------------------------------------------------------------------


@pytest.fixture
def workers(monkeypatch):
    """Force run_suites' worker count: workers(n)."""
    return lambda n: monkeypatch.setattr(verify, "_worker_count", lambda: n)


def no_fork():
    raise AssertionError("a process was started")


def test_worker_count_is_the_cpu_affinity():
    if "fork" in multiprocessing.get_all_start_methods() and hasattr(os, "sched_getaffinity"):
        assert verify._worker_count() == len(os.sched_getaffinity(0))
    else:
        assert verify._worker_count() == 1


@pytest.mark.parametrize("trials, workers, ranges", [
    (10, 2, [(0, 5), (5, 10)]),
    (7, 3, [(0, 2), (2, 4), (4, 7)]),
    (2, 3, [(0, 1), (1, 2)]),
    (1, 2, [(0, 1)]),
])
def test_split_covers_every_trial_once_in_order(trials, workers, ranges):
    assert verify._split(trials, workers) == ranges


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_pooled_run_equals_every_suite_alone(seed, workers):
    workers(2)
    pooled = verify.run_suites(seed=seed)
    # repr tells -0.0 from 0.0 and compares NaN with NaN
    assert [repr(r) for r in pooled] == [repr(SUITES[name](seed)) for name in SUITES]
    assert multiprocessing.active_children() == []


def test_pooled_failing_suite_names_the_same_worst_trial(scripted, workers):
    # the worst trial sits in the second of two ranges
    check = scripted("scripted_failure", [0.5, 2.0, 0.0, 1.5, 3.0, -1.0])
    workers(2)
    (pooled,) = verify.run_suites(only="scripted_failure")
    assert not pooled.passed and pooled.worst_trial == 4
    assert repr(pooled) == repr(check(0))


NAN = math.nan


@pytest.mark.parametrize("script, n_workers, expected", [
    # a tie across the range boundary: the earlier trial wins
    ([1.0, 5.0, 5.0, 2.0], 2, (5.0, 1, 4)),
    ([-0.0, 0.0, 0.0, -0.0], 2, (-0.0, 0, 4)),
    # a NaN only in a later range, then NaN in two ranges: the first wins
    ([1.0, 9.0, 2.0, NAN], 2, (NAN, 3, 4)),
    ([1.0, NAN, 2.0, 3.0, NAN, 4.0], 3, (NAN, 1, 6)),
    # skipped trials, a whole range of them, and a suite that checks nothing
    ([None, None, 2.0, None, 1.0], 2, (2.0, 2, 2)),
    ([None, None, None], 2, (-math.inf, None, 0)),
    # fewer trials than workers
    ([3.0, 4.0], 5, (4.0, 1, 2)),
])
def test_partial_results_merge_as_the_loop_does(script, n_workers, expected, scripted, workers):
    check = scripted("scripted", script)
    worst, worst_trial, count = expected
    reference = CheckResult("scripted", count, worst, 1.0, worst_trial)
    assert repr(check(0)) == repr(reference)
    workers(n_workers)
    (pooled,) = verify.run_suites(only="scripted")
    assert repr(pooled) == repr(reference)
    assert multiprocessing.active_children() == []


def test_one_worker_path_gives_identical_reports(workers, monkeypatch, tmp_path):
    argv = ["verify", "--seed", "1", "--trials", "15", "--out"]
    workers(2)
    assert main(argv + [str(tmp_path / "pooled.json")]) == 0
    workers(1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(argv + [str(tmp_path / "one.json")]) == 0
    assert (tmp_path / "one.json").read_bytes() == (tmp_path / "pooled.json").read_bytes()


def test_one_trial_run_starts_no_process(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["verify", "--trials", "1", "--out", str(tmp_path / "r.json")]) in (0, 4)
    assert multiprocessing.active_children() == []


def test_plain_callables_run_whole_in_their_place(scripted, workers, monkeypatch):
    calls = []

    def plain(seed, trials=1):
        calls.append((seed, trials))
        return CheckResult("plain", trials, 0.5, 1.0)

    scripted("scripted_a", [1.0, 2.0, 3.0])
    monkeypatch.setitem(verify.SUITES, "plain", plain)
    scripted("scripted_b", [4.0, 0.0])
    workers(2)
    results = verify.run_suites(only="scripted_a,plain,scripted_b", seed=4, trials=2)
    assert [(r.name, r.instances, r.max_violation, r.worst_trial) for r in results] == [
        ("scripted_a", 2, 2.0, 1), ("plain", 2, 0.5, None), ("scripted_b", 2, 4.0, 0),
    ]
    assert calls == [(4, 2)]  # in this process


ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == errors.__name__
]
ERROR_ARGS = {errors.DivergenceError: (3, 1e9), errors.PopulationFormatError: (7, "expected 2 numbers")}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_pickle(cls):
    # a worker's error reaches run_suites pickled
    error = cls(*ERROR_ARGS.get(cls, ("bad input",)))
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error) and back.args == error.args
    assert vars(back) == vars(error)


def _raised(run):
    with pytest.raises(Exception) as caught:
        run()
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize("scripts, expected", [
    # an error in an earlier range wins over one in a later range
    ({"first": [0.0, errors.DivergenceError(1, 1e9), 0.0, errors.InvalidInputError("second")]},
     (errors.DivergenceError, "iterate norm 1.000e+09 exceeded divergence threshold at round 1")),
    # the first failing suite in suite order, then trial order
    ({"first": [0.0, 0.0, 0.0, errors.PopulationFormatError(3, "later trial")],
      "second": [errors.InvalidInputError("later suite"), 0.0]},
     (errors.PopulationFormatError, "line 3: later trial")),
    ({"first": [0.0, 0.0], "second": [0.0, ZeroDivisionError("not a library error")]},
     (ZeroDivisionError, "not a library error")),
])
def test_worker_errors_are_raised_in_loop_order(scripts, expected, scripted, workers):
    for name, script in scripts.items():
        scripted(name, script)
    only = ",".join(scripts)
    workers(1)
    assert _raised(lambda: verify.run_suites(only=only)) == expected
    workers(2)
    assert _raised(lambda: verify.run_suites(only=only)) == expected
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_failing_run(scripted, workers, tmp_path, capsys):
    scripted("scripted_failure", [0.0, 2.0, 0.0])
    workers(2)
    assert main(["verify", "--only", "scripted_failure", "--out", str(tmp_path / "r.json")]) == 4
    assert capsys.readouterr().err.startswith("scripted_failure: worst trial 1, violation 2;")
    assert multiprocessing.active_children() == []
