"""CLI behavior: output formats, determinism, exit codes, seed resolution."""

import argparse
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from local_update_lab import SpectrumBounds, save_population
from local_update_lab import bounds
from local_update_lab.bounds import tightness_population
from local_update_lab.cli import build_parser, main
from local_update_lab.frontier import SweepSpec, default_k_grid, frontier_csv, sweep
from local_update_lab.quadratics import load_population
from local_update_lab.matrices import keyed_rng
from local_update_lab.verify import SUITES, CheckResult, random_population


def run_cli(args):
    return main(args)


def read(path):
    return path.read_bytes()


class TestFrontierCommand:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "frontier.csv"
        code = run_cli([
            "frontier", "--mu", "1", "--ell", "5", "--gamma", "0.01",
            "--vary", "K", "--points", "20", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("axis_value,rho,delta,kappa")
        assert len(lines) > 10

    def test_three_optimizers_svg(self, tmp_path):
        out = tmp_path / "frontier.svg"
        code = run_cli([
            "frontier", "--mu", "1", "--ell", "10", "--vary", "K", "--points", "15",
            "--optimizers", "plain,nesterov,heavy_ball", "--format", "svg",
            "--out", str(out),
        ])
        assert code == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 3

    def test_single_point_frontier(self, tmp_path):
        out = tmp_path / "single.csv"
        code = run_cli([
            "frontier", "--mu", "1", "--ell", "10", "--gamma", "0.01",
            "--vary", "K", "--k-max", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[2]) == 0.0  # delta at K=1

    def test_json_format(self, tmp_path):
        out = tmp_path / "frontier.json"
        code = run_cli([
            "frontier", "--mu", "1", "--ell", "10", "--vary", "K", "--points", "10",
            "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1

    def test_inadmissible_gamma_exit_3(self, tmp_path, capsys):
        code = run_cli([
            "frontier", "--mu", "1", "--ell", "10", "--gamma", "0.2",
            "--vary", "K", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 3
        assert "gamma" in capsys.readouterr().err


    def test_last_only_bound_admitted_where_psi_underflows(self, tmp_path, capsys):
        # both xi^(K-1) underflow to 0 at K = 150000; the bound, taken in log
        # space, is about 1.1240, below kappa0 = ell/mu, so the point stays
        out = tmp_path / "frontier.csv"
        code = run_cli([
            "frontier", "--mu", "0.0010394930174872018", "--ell", "0.0015394059202718051",
            "--alpha", "2.0", "--gamma", "0.0036505195050523273", "--family", "k-only",
            "--vary", "K", "--k-min", "140000", "--k-max", "150000", "--points", "3", "--out", str(out),
        ])
        assert code == 0 and capsys.readouterr().err == ""
        header, row = out.read_text().strip().split("\n")
        point = dict(zip(header.split(","), row.split(",")))
        assert point["K"] == "150000" and point["kappa_source"] == "closed_form"
        assert float(point["kappa"]) == pytest.approx(1.1240176, rel=1e-7)


class TestFrontierOnPopulation:
    """`lul frontier --population FILE` sweeps that population's kappa_exact."""

    ARGV = ["frontier", "--mu", "1", "--ell", "10", "--points", "8", "--optimizers", "plain,heavy_ball"]

    def test_matches_the_library_sweep(self, tmp_path):
        pop = random_population(keyed_rng(4, 1), min_dim=3, max_dim=5)
        save_population(pop, tmp_path / "pop.txt")
        out = tmp_path / "f.csv"
        assert run_cli(self.ARGV + ["--population", str(tmp_path / "pop.txt"), "--out", str(out)]) == 0
        spec = SweepSpec(family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 8), mu=1.0, ell=10.0,
                         gamma=0.05, optimizers=("plain", "heavy_ball"), kappa_source="exact_spectral",
                         population=load_population(tmp_path / "pop.txt"))
        assert out.read_text() == frontier_csv(sweep(spec))
        assert ",exact_spectral," in out.read_text()

    def test_bounds_must_match(self, tmp_path, capsys):
        save_population(random_population(keyed_rng(4, 1), min_dim=3, max_dim=5), tmp_path / "pop.txt")
        argv = ["frontier", "--mu", "1", "--ell", "20", "--population", str(tmp_path / "pop.txt")]
        assert run_cli(argv) == 2
        assert "differ from the sweep's mu=1.0, ell=20.0" in capsys.readouterr().err


class TestSkippedPointsNote:
    """CSV and SVG frontiers name their skipped grid points on stderr; JSON lists them itself."""

    K_ONLY = ["frontier", "--mu", "1", "--ell", "10", "--family", "k-only", "--gamma", "0.01", "--points", "12"]

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    def test_frontier_names_skipped_points(self, tmp_path, capsys, fmt):
        out = tmp_path / f"f.{fmt}"
        assert run_cli(self.K_ONLY + ["--format", fmt, "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "note: 10 of 12 grid points skipped:"
        assert lines[1] == "  K=12: need gamma < 1/(K*ell+alpha) = 0.00833333, got gamma=0.01"
        assert lines[-1] == "  K=1000000: need gamma < 1/(K*ell+alpha) = 1e-07, got gamma=0.01"
        assert len(lines) == 11

    def test_json_and_complete_grids_add_nothing(self, tmp_path, capsys):
        assert run_cli(self.K_ONLY + ["--format", "json", "--out", str(tmp_path / "f.json")]) == 0
        assert len(json.loads((tmp_path / "f.json").read_text())["skipped"]) == 10
        assert run_cli(["frontier", "--mu", "1", "--ell", "10", "--points", "12",
                        "--out", str(tmp_path / "g.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_maml_sim_names_skipped_points(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run_cli(["maml-sim", "--dim", "6", "--mu", "1", "--ell", "10", "--gamma", "0.05",
                        "--points", "10", "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "note: 8 of 10 grid points skipped:"
        assert lines[1] == "  K=22: kappa 71420.9 exceeds kappa0 10"
        # the last-gradient map underflows at K = 1e6; its extremes, taken in
        # log space, still give the true reason
        assert lines[-1] == "  K=1000000: kappa inf exceeds kappa0 10"
        assert out.read_text().count("\n") == 3  # header and the two admitted points


class TestMamlSimCommand:
    def test_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli([
            "maml-sim", "--dim", "10", "--mu", "1", "--ell", "10", "--gamma", "0.001",
            "--points", "12", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().count("\n") > 5


class TestSimulateCommand:
    def test_undistorted_reaches_empirical_optimum(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run_cli([
            "simulate", "--gamma", "0", "--theta", "one", "--dim", "3",
            "--n-clients", "3", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        last = out.read_text().strip().split("\n")[-1].split(",")
        assert float(last[-1]) <= 1e-8  # dist_to_empirical_opt

    def test_population_file_input(self, tmp_path):
        pop_file = tmp_path / "pop.txt"
        save_population(tightness_population(0.5), pop_file)
        out = tmp_path / "traj.csv"
        code = run_cli([
            "simulate", "--population", str(pop_file), "--gamma", "0.125",
            "--theta", "k-only", "--k", "5", "--rounds", "30", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("round,comp_0,")

    def test_corrupt_population_exit_2(self, tmp_path, capsys):
        pop_file = tmp_path / "pop.txt"
        text = "lul-population v1\ndim 1\nbounds mu 1 ell 4 c_radius 1\nclients 1\nclient weight 1\na oops\nc 0\n"
        pop_file.write_text(text)
        code = run_cli([
            "simulate", "--population", str(pop_file), "--gamma", "0.1",
            "--theta", "one", "--out", str(tmp_path / "t.csv"),
        ])
        assert code == 2
        assert "line 6" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("optimizer", ["plain", "heavy_ball"])
    def test_overflowing_x0_distance_is_a_divergence(self, optimizer, tmp_path, capsys):
        # ||x0 - x*|| overflows to inf: the auto round count clamps, and the
        # engine stops at round 0; neither overflow is also a numpy warning
        code = run_cli(["simulate", "--gamma", "0.01", "--theta", "one", "--optimizer", optimizer,
                        "--x0", "1e300,0,0,0", "--out", str(tmp_path / "t.csv")])
        assert code == 3
        assert capsys.readouterr().err == "error: iterate norm inf exceeded divergence threshold at round 0\n"

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_maml_scheme_needs_k_at_least_1(self, k, tmp_path, capsys):
        code = run_cli(["simulate", "--gamma", "0.01", "--theta", "maml2k1", "--k", k,
                        "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: k must be >= 1, got {k}\n"

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        code = run_cli([
            "simulate", "--gamma", "0.01", "--theta", "first-k", "--k", "3",
            "--rounds", "5", "--seed", "1", "--format", "json", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["iterates"]) == 6

    @pytest.mark.parametrize("optimizer", ["plain", "heavy_ball"])
    @pytest.mark.parametrize("source", ["1", "2", "3", "file"])
    def test_json_writes_the_csv_numbers(self, optimizer, source, tmp_path):
        # one distance table behind both formats: the JSON floats are the CSV's, bit for bit
        if source == "file":
            pop_file = tmp_path / "pop.txt"
            save_population(random_population(keyed_rng(5, 2), min_dim=6, max_dim=6, min_clients=4), pop_file)
            argv = ["--population", str(pop_file)]
        else:
            argv = ["--dim", "7", "--n-clients", "5", "--seed", source]
        argv = ["simulate", *argv, "--gamma", "0.02", "--theta", "first-k", "--k", "4", "--optimizer", optimizer,
                "--rounds", "200"]
        assert run_cli(argv + ["--out", str(tmp_path / "t.csv")]) == 0
        assert run_cli(argv + ["--format", "json", "--out", str(tmp_path / "t.json")]) == 0
        rows = [[float(v) for v in line.split(",")[1:]] for line in (tmp_path / "t.csv").read_text().splitlines()[1:]]
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["iterates"] == [row[:-2] for row in rows]
        assert payload["dist_to_surrogate_opt"] == [row[-2] for row in rows]
        assert payload["dist_to_empirical_opt"] == [row[-1] for row in rows]


class TestVerifyCommand:
    def test_subset_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "verify", "--only", "theorem2,lemma34,mad_scalar", "--trials", "50",
            "--seed", "0", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_pass"] is True
        names = {c["name"] for c in report["checks"]}
        assert "theorem2_maml" in names
        assert "lemma34_tightness" in names

    def test_prefix_alias_theorem1(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli([
            "verify", "--only", "theorem1_deterministic", "--trials", "25",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["checks"][0]["instances"] > 0

    def test_unknown_suite_exit_2(self, capsys):
        code = run_cli(["verify", "--only", "theorem99"])
        assert code == 2
        assert "theorem99" in capsys.readouterr().err

    def test_failing_suite_exit_4(self, tmp_path, monkeypatch):
        def failing(seed, trials=1):
            return CheckResult("always_fails", 1, 1.0, 0.0)

        monkeypatch.setitem(SUITES, "always_fails", failing)
        code = run_cli(["verify", "--only", "always_fails", "--out", str(tmp_path / "r.json")])
        assert code == 4

    def test_population_file_checks(self, tmp_path):
        pop_file = tmp_path / "pop.txt"
        save_population(
            random_population(keyed_rng(90, 0), max_dim=4, min_dim=4, max_clients=3), pop_file
        )
        out = tmp_path / "report.json"
        code = run_cli([
            "verify", "--only", "theorem2", "--trials", "10",
            "--population", str(pop_file), "--out", str(out),
        ])
        assert code == 0
        names = {c["name"] for c in json.loads(out.read_text())["checks"]}
        assert "population_theorem1" in names
        assert "population_lemma5" in names

    def test_corrupt_population_exit_2(self, tmp_path, capsys):
        pop_file = tmp_path / "pop.txt"
        pop_file.write_text("not a population\n")
        code = run_cli(["verify", "--only", "theorem2", "--trials", "5",
                        "--population", str(pop_file)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "not a population\n"], ids=["missing", "malformed"])
    def test_bad_population_fails_before_the_suites(self, content, tmp_path, monkeypatch, capsys):
        from local_update_lab import cli

        pop_file = tmp_path / "pop.txt"
        if content is not None:
            pop_file.write_text(content)
        monkeypatch.setattr(cli, "run_suites", lambda *args, **kwargs: pytest.fail("suites ran"))
        out = tmp_path / "r.json"
        assert run_cli(["verify", "--population", str(pop_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestMadCheckCommand:
    def test_json_and_csv(self, tmp_path):
        out_json = tmp_path / "mad.json"
        assert run_cli(["mad-check", "--trials", "100", "--out", str(out_json)]) == 0
        assert json.loads(out_json.read_text())["all_pass"] is True
        out_csv = tmp_path / "mad.csv"
        assert run_cli(["mad-check", "--trials", "100", "--format", "csv", "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "name,instances,max_violation,threshold,pass"
        assert len(lines) == 3

    def test_nan_violation_is_an_empty_csv_field(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bounds, "mad_bound", lambda dist: float("nan"))
        out_csv = tmp_path / "mad.csv"
        assert run_cli(["mad-check", "--trials", "5", "--format", "csv", "--out", str(out_csv)]) == 4
        assert out_csv.read_text().split("\n")[1] == "mad_scalar,5,,9.9999999999999998e-13,false"

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_json_is_the_verify_report(self, seed, tmp_path):
        argv = ["--trials", "300", "--seed", seed]
        assert run_cli(["mad-check", *argv, "--out", str(tmp_path / "mad.json")]) == 0
        assert run_cli(["verify", "--only", "mad", *argv, "--out", str(tmp_path / "verify.json")]) == 0
        assert read(tmp_path / "mad.json") == read(tmp_path / "verify.json")

    def test_failing_suite_is_named_as_verify_names_it(self, tmp_path, monkeypatch, capsys):
        from local_update_lab import verify

        monkeypatch.setattr(verify, "SUITES", dict(SUITES))

        @verify.suite("mad_scalar", 0x61, 1e-12, 10**4)
        def scripted(rng, trial):
            return (1.0 if trial == 1 else 0.0), 1

        lines = []
        for argv in (["mad-check"], ["mad-check", "--format", "csv"], ["verify", "--only", "mad"]):
            assert run_cli(argv + ["--trials", "5", "--seed", "4", "--out", str(tmp_path / "r")]) == 4
            lines.append(capsys.readouterr().err)
        (line,) = lines[0].splitlines()
        assert line == "mad_scalar: worst trial 1, violation 1; rerun: lul verify --only mad_scalar --seed 4 --trials 2"
        assert lines[1] == lines[2] == lines[0]


class TestTightnessCommand:
    def test_b2(self, tmp_path):
        out = tmp_path / "b2.json"
        code = run_cli(["tightness", "--family", "b2", "--k", "200", "--p", "0.999",
                        "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["measured_distance"] >= 1.99
        assert payload["bound_2c"] >= 1.99

    def test_b3(self, tmp_path):
        out = tmp_path / "b3.json"
        code = run_cli(["tightness", "--family", "b3", "--mu", "1", "--ell", "10",
                        "--gamma", "0.004", "--k", "20", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schemes"]["first_k"]["gap"] <= 1e-10
        assert payload["schemes"]["last_only"]["gap"] <= 1e-10

    def test_b3_last_only_row_where_psi_underflows(self, tmp_path):
        # gamma < 1/(K ell + alpha) holds, but both xi^(K-1) underflow to 0
        out = tmp_path / "b3.json"
        code = run_cli(["tightness", "--family", "b3", "--k", "140000", "--alpha", "2",
                        "--gamma", "0.0036505195050523273", "--mu", "0.0010394930174872018",
                        "--ell", "0.0015394059202718051", "--out", str(out)])
        assert code == 0
        row = json.loads(out.read_text())["schemes"]["last_only"]
        assert row["kappa_bound"] == pytest.approx(1.1448724, rel=1e-7)
        assert 0.0 <= row["gap"] <= 1e-10

    def test_b2_singular_surrogate_exit_3(self, tmp_path, capsys):
        # at K = 6000 both clients' mapped eigenvalues underflow, so H = 0
        out = tmp_path / "b2.json"
        assert run_cli(["tightness", "--family", "b2", "--k", "6000", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: surrogate Hessian is singular\n"
        assert not out.exists()

    def test_b3_has_no_last_only_row_outside_the_psi_precondition(self, tmp_path):
        # gamma >= 1/(K ell): no psi bound, and the last-only spectrum would
        # underflow, so that row is left out rather than measured
        out = tmp_path / "b3.json"
        code = run_cli(["tightness", "--family", "b3", "--gamma", "0.02", "--k", "10000",
                        "--out", str(out)])
        assert code == 0
        assert list(json.loads(out.read_text())["schemes"]) == ["first_k"]


class TestUsageErrors:
    def test_unknown_flag_named(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frontier", "--mu", "1", "--ell", "5", "--bogus", "3"])
        assert exc.value.code == 2
        assert "--bogus" in capsys.readouterr().err

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unwritable_output_path(self, tmp_path, capsys):
        code = run_cli([
            "tightness", "--family", "b2", "--k", "5", "--p", "0.5",
            "--out", str(tmp_path / "no_such_dir" / "out.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


# A tiny run of every command with a --format or --theta flag, before that flag.
TINY_RUNS = {
    "frontier": ["frontier", "--mu", "1", "--ell", "10", "--k-max", "10", "--points", "3"],
    "maml-sim": ["maml-sim", "--dim", "2", "--mu", "1", "--ell", "10", "--gamma", "0.01", "--k-max", "10",
                 "--points", "3"],
    "simulate": ["simulate", "--dim", "2", "--n-clients", "2", "--gamma", "0.01", "--theta", "first-k",
                 "--k", "2", "--rounds", "3"],
    "mad-check": ["mad-check", "--trials", "5"],
}


def flag_choices(flag):
    """(command, value) for every argparse choice of flag, in every command that has it."""
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (command, value)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if flag in action.option_strings
        for value in action.choices
    ]


@pytest.mark.parametrize(
    "flag, command, value", [(flag, *choice) for flag in ("--format", "--theta") for choice in flag_choices(flag)]
)
def test_every_choice_is_handled(flag, command, value, tmp_path, capsys):
    # argparse admits only these values, so the commands need no fallback for any other
    assert main(TINY_RUNS[command] + [flag, value, "--out", str(tmp_path / "out")]) == 0
    assert "error" not in capsys.readouterr().err


def test_no_option_has_a_single_choice():
    # an option that admits one value sets nothing
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    single = [
        (command, action.option_strings)
        for command, parser in commands.choices.items()
        for action in parser._actions
        if action.choices is not None and len(action.choices) == 1
    ]
    assert single == []


class TestBadInput:
    """Bad flag values end in exit 2 and one `error:` line, never a raw exception."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["maml-sim", "--dim", "8", "--mu", "1", "--ell", "10", "--gamma", "nan"],
            ["maml-sim", "--dim", "8", "--mu", "1", "--ell", "10", "--gamma", "0.01", "--points", "-1"],
            ["maml-sim", "--dim", "4", "--mu", "1", "--ell", "10", "--gamma", "inf"],
            ["frontier", "--mu", "1", "--ell", "10", "--gamma", "nan"],
            ["frontier", "--mu", "1", "--ell", "10", "--alpha", "nan"],
            ["frontier", "--mu", "1", "--ell", "10", "--gamma", "inf"],
            ["frontier", "--mu", "1", "--ell", "10", "--alpha", "inf"],
            ["frontier", "--mu", "1", "--ell", "10", "--family", "k-only", "--gamma", "nan"],
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "-1"],
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-max", "-1"],
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "alpha", "--alphas", "0,nan"],
            ["frontier", "--mu", "1", "--ell", "10", "--points", "-1"],
            ["frontier", "--mu", "1", "--ell", "inf"],
            ["frontier", "--mu", "1e-300", "--ell", "1e300"],  # both bounds finite, but ell / mu overflows
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--points", "-1"],
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "1e-4",
             "--points", "-1"],
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-max", "inf"],
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "1e-4", "--gamma-max", "inf"],
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "inf"],
            ["frontier", "--mu", "1", "--ell", "10", "--points", "3", "--k-max", "10", "--optimizers", "plain,plain"],
            ["frontier", "--mu", "1", "--ell", "10", "--points", "3", "--k-max", "10000000000000000000000"],
            ["simulate", "--gamma", "0.01", "--theta", "one", "--x0", "1,2"],
            ["simulate", "--gamma", "0.01", "--theta", "one", "--x0", "1,nan,0,0"],
            ["simulate", "--gamma", "0.01", "--theta", "one", "--x0", "inf,0,0,0"],
            ["simulate", "--gamma", "0.01", "--theta", "one", "--n-clients", "0"],
            ["simulate", "--gamma", "0.01", "--theta", "one", "--dim", "0"],
            ["simulate", "--gamma", "0.01", "--theta", "one", "--mu", "0"],
            ["simulate", "--gamma", "nan", "--theta", "one"],
            ["simulate", "--gamma", "inf", "--theta", "one"],
            ["verify", "--trials", "-1"],
            ["verify", "--only", "theorem2,", "--trials", "1"],
            ["verify", "--only", ",", "--trials", "1"],
            ["verify", "--only", " ", "--trials", "1"],
            ["verify", "--only", "", "--trials", "1"],
            ["mad-check", "--trials", "0"],
            ["simulate", "--dim", "3", "--gamma", "0.01", "--theta", "first-k", "--k", "3", "--eta", "nan"],
            ["simulate", "--dim", "3", "--gamma", "0.01", "--theta", "first-k", "--k", "3", "--eta", "inf"],
        ],
    )
    def test_exit_2_with_one_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(argv + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["--vary", "gamma", "--gamma-max", "inf"], "error: gamma_max must be finite and positive, got inf\n"),
        (["--vary", "gamma", "--gamma-min", "inf"],
         "error: need finite --gamma-min > 0, finite --gamma-max > 0 and --points >= 1, got inf, "),
        (["--points", "3", "--k-max", "10", "--optimizers", "plain,nesterov,plain"],
         "error: optimizer 'plain' is listed more than once\n"),
    ])
    def test_bad_grid_or_optimizer_is_named(self, argv, message, capsys):
        assert run_cli(["frontier", "--mu", "1", "--ell", "10"] + argv) == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--gamma", "0.01", "--theta", "one", "--optimizer", "heavy_ball", "--beta", "0.9"],
         "--beta 0.9 needs --eta and --optimizer heavy_ball or nesterov"),
        (["simulate", "--gamma", "0.01", "--theta", "one", "--eta", "0.1", "--beta", "1.5"],
         "--beta 1.5 needs --eta and --optimizer heavy_ball or nesterov"),
        (["frontier", "--mu", "1", "--ell", "10", "--k-min", "50", "--k-max", "10"],
         "--k-min 50 and --k-max 10 leave the K grid empty"),
        (["maml-sim", "--dim", "4", "--mu", "1", "--ell", "10", "--gamma", "0.01", "--k-min", "50", "--k-max", "10"],
         "--k-min 50 and --k-max 10 leave the K grid empty"),
        (["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "0.05", "--gamma-max", "0.001"],
         "--gamma-min 0.05 must lie below the --gamma-max 0.001"),
        (["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "0.5"],
         "--gamma-min 0.5 must lie below the default --gamma-max 0.0999999999"),
        (["frontier", "--mu", "1", "--ell", "10", "--vary", "alpha", "--alphas", "1,1"],
         "--alphas lists 1 more than once"),
        # a one-point grid is trivially increasing, so the flags themselves are compared
        (["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "0.05", "--gamma-max", "0.001",
          "--points", "1"],
         "--gamma-min 0.05 must lie below the --gamma-max 0.001"),
        # bounds a few ulps apart: rounding collapses the grid although --gamma-min < --gamma-max
        (["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--gamma-min", "0.05",
          "--gamma-max", "0.05000000000000001", "--points", "50"],
         "the grid of --points 50 from --gamma-min 0.05 to the --gamma-max 0.05000000000000001 repeats points"),
        # --k is checked under every --theta, "one" too
        (["simulate", "--gamma", "0.01", "--theta", "one", "--k", "-5", "--rounds", "3"], "k must be >= 1, got -5"),
        (["simulate", "--gamma", "0.01", "--theta", "one", "--optimizer", "heavy_ball", "--eta", "0.1",
          "--beta", "-0.5"],
         "--beta must lie in [0, 1), got -0.5"),
        (["simulate", "--gamma", "0.01", "--theta", "one", "--eta", "nan"],
         "--eta must be positive and finite, got nan"),
        (["simulate", "--gamma", "0.01", "--theta", "one", "--dim", "0"], "--dim must be >= 1, got 0"),
        (["simulate", "--gamma", "0.01", "--theta", "one", "--n-clients", "0"], "--n-clients must be >= 1, got 0"),
    ])
    def test_flag_errors_name_the_flags(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_infinite_ell_is_named(self, capsys):
        assert run_cli(["frontier", "--mu", "1", "--ell", "inf"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "ell=inf" in err


class TestSeedResolution:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LUL_SEED", "77")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["maml-sim", "--dim", "6", "--mu", "1", "--ell", "10", "--gamma", "0.001",
                "--points", "8"]
        assert run_cli(args + ["--out", str(out1)]) == 0
        assert run_cli(args + ["--out", str(out2)]) == 0
        assert read(out1) == read(out2)
        monkeypatch.setenv("LUL_SEED", "78")
        out3 = tmp_path / "c.csv"
        assert run_cli(args + ["--out", str(out3)]) == 0
        assert read(out1) != read(out3)

    def test_bad_env_seed(self, monkeypatch, capsys):
        monkeypatch.setenv("LUL_SEED", "not-a-number")
        code = run_cli(["maml-sim", "--dim", "4", "--mu", "1", "--ell", "10",
                        "--gamma", "0.001", "--points", "4"])
        assert code == 2
        assert "LUL_SEED" in capsys.readouterr().err


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["frontier", "--mu", "1", "--ell", "10", "--vary", "K", "--points", "15",
             "--optimizers", "plain,heavy_ball", "--format", "csv"],
            ["frontier", "--mu", "1", "--ell", "5", "--gamma", "0.01", "--vary", "K",
             "--points", "12", "--format", "svg"],
            ["maml-sim", "--dim", "8", "--mu", "1", "--ell", "10", "--gamma", "0.001",
             "--points", "10", "--seed", "4"],
            ["simulate", "--gamma", "0.02", "--theta", "first-k", "--k", "4",
             "--rounds", "12", "--seed", "9"],
            ["verify", "--only", "theorem2", "--trials", "20", "--seed", "1"],
            ["mad-check", "--trials", "50", "--seed", "2"],
            ["tightness", "--family", "b2", "--k", "50", "--p", "0.9"],
        ],
    )
    def test_rerun_byte_identical(self, tmp_path, args):
        out1 = tmp_path / "run1.out"
        out2 = tmp_path / "run2.out"
        assert run_cli(args + ["--out", str(out1)]) in (0, 4)
        assert run_cli(args + ["--out", str(out2)]) in (0, 4)
        assert read(out1) == read(out2)


class TestVerifyFailureReport:
    """A failing suite names its worst trial on stderr and how to rerun it."""

    @pytest.fixture
    def scripted_suite(self, monkeypatch):
        from local_update_lab import verify

        monkeypatch.setattr(verify, "SUITES", dict(SUITES))

        @verify.suite("scripted_failure", 0x7F, 1.0, 6)
        def scripted(rng, trial):
            return (1.0 + rng.random() if trial in (2, 4) else 0.0), 1

    def test_stderr_names_the_worst_trial_and_the_rerun_reproduces_it(self, scripted_suite, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(["verify", "--only", "scripted_failure,theorem2", "--trials", "6", "--seed", "9",
                        "--out", str(out)]) == 4
        report = json.loads(out.read_text())
        scripted, theorem2 = report["checks"]
        assert theorem2["pass"] and not scripted["pass"]
        assert all(set(check) == {"name", "instances", "max_violation", "threshold", "pass"}
                   for check in report["checks"])
        (line,) = capsys.readouterr().err.splitlines()  # passing suites print nothing
        prefix, rerun = line.split("; rerun: ")
        trial = int(prefix.split("worst trial ")[1].split(",")[0])
        assert trial in (2, 4)
        assert prefix == f"scripted_failure: worst trial {trial}, violation {scripted['max_violation']:.6g}"
        assert rerun == f"lul verify --only scripted_failure --seed 9 --trials {trial + 1}"
        assert run_cli(rerun.split()[1:] + ["--out", str(tmp_path / "rerun.json")]) == 4
        (again,) = json.loads((tmp_path / "rerun.json").read_text())["checks"]
        assert (again["instances"], again["max_violation"]) == (trial + 1, scripted["max_violation"])

    def test_result_without_a_trial(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(SUITES, "always_fails", lambda seed, trials=1: CheckResult("always_fails", 1, 1.0, 0.0))
        assert run_cli(["verify", "--only", "always_fails", "--out", str(tmp_path / "r.json")]) == 4
        assert capsys.readouterr().err == "always_fails: failed with no trial recorded (1 instances)\n"
