"""Command-line interface.

Subcommands:

  frontier   Pareto frontier sweeps, closed-form or on a population file
             (CSV/JSON/SVG)
  maml-sim   simulated last-gradient frontiers on random matrices
  simulate   deterministic full-participation trajectories (CSV/JSON)
  verify     run the analytic verification suites (JSON report)
  mad-check  verify on the mean-absolute-deviation suites only (JSON/CSV)
  tightness  the scalar distance construction (b2) and the diagonal
             condition-number equalities (b3) (JSON)

Every command is deterministic given its flags and seed: rerunning writes
byte-identical output. The seed defaults to the LUL_SEED environment
variable, then 0. Exit codes: 0 success, 2 flag or parse error, 3
precondition error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bounds as tb
from . import quadratics as qw
from .engine import (
    RunConfig,
    ServerOptSpec,
    auto_tune,
    export_trajectory_csv,
    optimum_distances,
    run,
)
from .errors import InvalidInputError, LocalUpdateError, PopulationFormatError
from .frontier import (
    Frontier,
    SweepSpec,
    default_gamma_grid,
    default_k_grid,
    frontier_csv,
    frontier_json_payload,
    simulated_maml_sweep,
    sweep,
)
from .matrices import SpectrumBounds, check_count, check_momentum, check_step, eigh, euclidean_norm, keyed_rng
from .quadratics import Population, WeightScheme
from .svgplot import frontier_svg
from .verify import (
    SUITES,
    CheckResult,
    checks_report,
    random_population,
    run_suites,
    theorem1_client_gap,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY_FAILED = 4

_THETA_CHOICES = ("one", "first-k", "k-only", "maml2k1")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("LUL_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InvalidInputError(f"LUL_SEED is not an integer: {env!r}") from exc
    return 0


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _theta_from_flags(name: str, k: int) -> WeightScheme:
    check_count(k, "k")  # every scheme, "one" too, checks --k
    if name == "one":
        return WeightScheme.single()
    if name == "first-k":
        return WeightScheme.first_k(k)
    if name == "k-only":
        return WeightScheme.last_only(k)
    return WeightScheme.maml_equivalent(k)  # maml2k1


def _k_grid(args) -> np.ndarray:
    """The logarithmic K grid of --k-max and --points, from --k-min on."""
    grid = default_k_grid(args.k_max, args.points)
    grid = grid[grid >= args.k_min]
    if grid.size == 0:
        raise InvalidInputError(f"--k-min {args.k_min} and --k-max {args.k_max} leave the K grid empty")
    return grid


def _render_frontier(frontier: Frontier, fmt: str, title: str, out: str | None) -> None:
    if fmt == "csv":
        _emit(frontier_csv(frontier), out)
    elif fmt == "json":
        _emit(_json_dumps(frontier_json_payload(frontier)), out)
    else:  # svg
        _emit(frontier_svg(frontier, title=title), out)
    if fmt != "json" and frontier.skipped:
        # JSON lists these in skipped[]; CSV and SVG have no place for them
        spec = frontier.spec
        print(f"note: {len(frontier.skipped)} of {len(spec.grid)} grid points skipped:", file=sys.stderr)
        for point in frontier.skipped:
            print(f"  {spec.vary}={point.axis_value:.12g}: {point.reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------


def cmd_frontier(args) -> int:
    seed = _resolve_seed(args.seed)
    gamma = args.gamma if args.gamma is not None else 1.0 / (2.0 * args.ell)
    optimizers = tuple(args.optimizers.split(","))
    family = {"first-k": "fedavg_theta", "k-only": "maml_theta"}[args.family]
    if args.vary == "K":
        grid = _k_grid(args)
    elif args.vary == "gamma":
        gamma_max = args.gamma_max
        if gamma_max is None:
            gamma_max = (1.0 - 1e-9) / (args.ell + args.alpha)
        if args.gamma_min is None:
            grid = default_gamma_grid(gamma_max, args.points)
        else:
            if not (0.0 < args.gamma_min < np.inf and 0.0 < gamma_max < np.inf and args.points >= 1):
                raise InvalidInputError(
                    "need finite --gamma-min > 0, finite --gamma-max > 0 and --points >= 1, got "
                    f"{args.gamma_min}, {gamma_max} and {args.points}"
                )
            grid = np.logspace(np.log10(args.gamma_min), np.log10(gamma_max), args.points)
            default = "" if args.gamma_max is not None else "default "
            if not args.gamma_min < gamma_max:
                raise InvalidInputError(
                    f"--gamma-min {args.gamma_min} must lie below the {default}--gamma-max {gamma_max:.12g}"
                )
            if np.any(np.diff(grid) <= 0.0):  # bounds a few ulps apart: rounding collapses the grid
                raise InvalidInputError(
                    f"the grid of --points {args.points} from --gamma-min {args.gamma_min!r} "
                    f"to the {default}--gamma-max {gamma_max!r} repeats points"
                )
    else:  # alpha
        if not args.alphas:
            raise InvalidInputError("--vary alpha needs --alphas with a comma-separated list")
        try:
            grid = np.array(sorted(float(v) for v in args.alphas.split(",")))
        except ValueError as exc:
            raise InvalidInputError(f"bad --alphas value: {exc}") from exc
        repeated = grid[1:][grid[1:] == grid[:-1]]
        if repeated.size:
            raise InvalidInputError(f"--alphas lists {repeated[0]:.12g} more than once")
    population = None if args.population is None else qw.load_population(args.population)
    # the varied axis's fixed field keeps SweepSpec's default
    spec = SweepSpec(
        family=family, vary=args.vary, grid=grid, mu=args.mu, ell=args.ell,
        alpha=0.0 if args.vary == "alpha" else args.alpha,
        gamma=None if args.vary == "gamma" else gamma,
        k=None if args.vary == "K" else args.k,
        optimizers=optimizers, kappa_source="closed_form" if population is None else "exact_spectral",
        population=population, seed=seed,
    )
    frontier = sweep(spec)
    title = f"frontier {args.family} mu={args.mu:g} ell={args.ell:g} vary {args.vary}"
    _render_frontier(frontier, args.format, title, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# maml-sim
# ---------------------------------------------------------------------------


def cmd_maml_sim(args) -> int:
    seed = _resolve_seed(args.seed)
    grid = _k_grid(args)
    frontier = simulated_maml_sweep(
        dim=args.dim, mu=args.mu, ell=args.ell, alpha=args.alpha, gamma=args.gamma,
        k_grid=grid, seed=seed, optimizer=args.optimizer,
    )
    title = f"simulated maml dim={args.dim} mu={args.mu:g} ell={args.ell:g}"
    _render_frontier(frontier, args.format, title, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _simulate_population(args, seed: int) -> Population:
    if args.population is not None:
        return qw.load_population(args.population)
    check_count(args.dim, "--dim")
    check_count(args.n_clients, "--n-clients")
    rng = keyed_rng(seed, 0xA0, 0)
    return random_population(
        rng,
        min_dim=args.dim,
        max_dim=args.dim,
        min_clients=args.n_clients,
        max_clients=args.n_clients,
        mu=args.mu,
        ell=args.ell,
        c_radius=args.c_radius,
    )


def _auto_rounds(rho: float, d0: float, kind: str) -> int:
    """Rounds needed to push rho^T * d0 below 1e-9, with momentum headroom.

    The count is clamped to [1, 200000]; a d0 that overflowed to inf asks for
    the cap, and the engine reports the divergence.
    """
    if d0 <= 1e-9 or rho == 0.0:
        return 1
    if not np.isfinite(d0):
        return 200000
    rounds = np.ceil(np.log(1e-9 / d0) / np.log(rho)) if rho < 1.0 else 100000.0
    if kind != "plain":
        rounds *= 2
    return int(min(max(rounds, 1.0), 200000.0))


def cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    if args.beta != 0.0 and (args.eta is None or args.optimizer == "plain"):
        raise InvalidInputError(f"--beta {args.beta} needs --eta and --optimizer heavy_ball or nesterov")
    if args.eta is not None:
        check_step(args.eta, "--eta")
    check_momentum(args.beta, "--beta")
    pop = _simulate_population(args, seed)
    theta = _theta_from_flags(args.theta, args.k)
    qw.require_contractive(pop.bounds, args.alpha, args.gamma)
    dec = eigh(qw.surrogate_hessian(pop, args.alpha, args.gamma, theta))
    if args.eta is not None:
        opt = ServerOptSpec(kind=args.optimizer, step=args.eta, momentum=args.beta)
    else:
        opt = auto_tune(args.optimizer, dec.lambda_max, dec.lambda_min)
    if args.x0 == "zeros":
        x0 = np.zeros(pop.dim)
    else:
        try:
            x0 = np.array([float(v) for v in args.x0.split(",")])
        except ValueError as exc:
            raise InvalidInputError(f"bad --x0 value: {exc}") from exc
        if x0.shape != (pop.dim,):
            raise InvalidInputError(f"--x0 has {x0.size} components, expected {pop.dim}")
        if not np.isfinite(x0).all():
            raise InvalidInputError(f"--x0 components must be finite, got {args.x0}")
    rounds = args.rounds
    if rounds is None:
        x_star = qw.surrogate_minimizer(pop, args.alpha, args.gamma, theta)
        rho = tb.rho_from_kappa(dec.lambda_max / dec.lambda_min, args.optimizer)
        rounds = _auto_rounds(rho, euclidean_norm(x0 - x_star), args.optimizer)
    cfg = RunConfig(
        alpha=args.alpha, gamma=args.gamma, theta=theta, rounds=rounds, seed=seed,
        mode="deterministic",
    )
    traj = run(pop, x0, cfg, opt)
    if args.format == "csv":
        _emit(export_trajectory_csv(traj, pop, args.alpha, args.gamma, theta), args.out)
    else:  # json, the same distances as the CSV
        to_surrogate, to_empirical = optimum_distances(traj, pop, args.alpha, args.gamma, theta)
        payload = {
            "schema_version": 1,
            "rounds": traj.rounds,
            "dim": pop.dim,
            "optimizer": {"kind": opt.kind, "step": opt.step, "momentum": opt.momentum},
            "iterates": traj.iterates.tolist(),
            "dist_to_surrogate_opt": to_surrogate,
            "dist_to_empirical_opt": to_empirical,
        }
        _emit(_json_dumps(payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / mad-check
# ---------------------------------------------------------------------------


def _population_file_checks(pop: Population) -> list[CheckResult]:
    alpha, gamma = 0.0, 0.5 / pop.bounds.ell
    theta = WeightScheme.first_k(5)
    worst = theorem1_client_gap(pop, np.ones(pop.dim), alpha, gamma, theta)
    measured = qw.minimizer_distance(pop, alpha, gamma, theta)
    bound = tb.distance_bound(pop, alpha, gamma, theta)
    return [
        CheckResult("population_theorem1", pop.n_clients, worst, 1e-9),
        CheckResult("population_lemma5", 1, measured - bound, 1e-9),
    ]


def _failure_line(result: CheckResult, seed: int) -> str:
    """How a failing suite failed, and the command that reruns its worst trial."""
    if result.worst_trial is None:
        return f"{result.name}: failed with no trial recorded ({result.instances} instances)"
    t = result.worst_trial
    return (
        f"{result.name}: worst trial {t}, violation {result.max_violation:.6g}; "
        f"rerun: lul verify --only {result.name} --seed {seed} --trials {t + 1}"
    )


def _checks_csv(report: dict) -> str:
    """The report's checks as CSV; a null max_violation is an empty field."""
    lines = ["name,instances,max_violation,threshold,pass"]
    for c in report["checks"]:
        violation = "" if c["max_violation"] is None else format(c["max_violation"], ".17g")
        lines.append(
            f"{c['name']},{c['instances']},{violation},"
            f"{format(c['threshold'], '.17g')},{str(c['pass']).lower()}"
        )
    return "\n".join(lines) + "\n"


def cmd_verify(args, render=_json_dumps) -> int:
    """Run the suites of --only, write render(report), and name each failing suite on stderr."""
    seed = _resolve_seed(args.seed)
    # a missing or malformed file fails before the suites run
    pop = None if args.population is None else qw.load_population(args.population)
    results = run_suites(only=args.only, seed=seed, trials=args.trials)
    report = checks_report(seed, results + ([] if pop is None else _population_file_checks(pop)))
    _emit(render(report), args.out)
    for result in results:  # the population checks have no trial to rerun
        if not result.passed:
            print(_failure_line(result, seed), file=sys.stderr)
    return EXIT_OK if report["all_pass"] else EXIT_VERIFY_FAILED


def cmd_mad_check(args) -> int:
    """cmd_verify on the two MAD suites (the parser sets --only and --population), as JSON or CSV."""
    return cmd_verify(args, _json_dumps if args.format == "json" else _checks_csv)


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------


def cmd_tightness(args) -> int:
    if args.family == "b2":
        measured, bound = tb.tightness_case_b2(args.k, args.p)
        limit = 8.0 * args.p / (3.0 * args.p + 1.0)
        payload = {
            "schema_version": 1,
            "family": "b2",
            "k": args.k,
            "p": args.p,
            "measured_distance": measured,
            "bound_2c": bound,
            "ratio": measured / bound if bound > 0 else 0.0,
            "large_k_limit": limit,
        }
    else:  # b3
        mu, ell, alpha, gamma, k = args.mu, args.ell, args.alpha, args.gamma, args.k
        client = qw.ClientModel(a_matrix=np.diag([ell, mu]), center=np.zeros(2))
        pop = Population.uniform([client], bounds=SpectrumBounds(mu, ell, 0.0))
        schemes = {"first_k": WeightScheme.first_k(k), "last_only": WeightScheme.last_only(k)}
        rows = {}
        for name, theta in schemes.items():
            report = tb.kappa_exact(pop, alpha, gamma, theta)
            exact, bound = report.kappa_exact, report.kappa_bound
            if bound is None:  # psi outside gamma < 1/(K ell + alpha): no row
                continue
            rows[name] = {"kappa_exact": exact, "kappa_bound": bound, "gap": abs(exact - bound)}
        payload = {
            "schema_version": 1,
            "family": "b3",
            "mu": mu,
            "ell": ell,
            "alpha": alpha,
            "gamma": gamma,
            "k": k,
            "schemes": rows,
        }
    _emit(_json_dumps(payload), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lul",
        description="Local update methods on quadratic models: surrogate analysis, "
        "simulation, and convergence-accuracy frontiers.",
        epilog="Seed resolution: --seed flag, then LUL_SEED environment variable, then 0.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("frontier", help="Pareto frontier sweep, closed-form or on a population file")
    p.add_argument("--mu", type=float, required=True, help="strong convexity bound mu")
    p.add_argument("--ell", type=float, required=True, help="smoothness bound L")
    p.add_argument("--alpha", type=float, default=0.0, help="proximal strength (default 0)")
    p.add_argument("--gamma", type=float, default=None,
                   help="client learning rate (default (2L)^-1; fixed value when varying K/alpha)")
    p.add_argument("--family", choices=("first-k", "k-only"), default="first-k",
                   help="weight scheme family: all gradients (first-k) or last gradient (k-only)")
    p.add_argument("--vary", choices=("K", "gamma", "alpha"), default="K", help="sweep axis")
    p.add_argument("--k", type=int, default=100, help="fixed K when varying gamma/alpha")
    p.add_argument("--k-min", type=int, default=1, help="smallest K on the grid")
    p.add_argument("--k-max", type=int, default=10**6, help="largest K on the grid")
    p.add_argument("--gamma-min", type=float, default=None, help="smallest gamma on the grid")
    p.add_argument("--gamma-max", type=float, default=None,
                   help="largest gamma on the grid (default just below 1/(L+alpha))")
    p.add_argument("--alphas", type=str, default=None, help="comma list of alphas when varying alpha")
    p.add_argument("--points", type=int, default=60, help="grid size (default 60)")
    p.add_argument("--optimizers", type=str, default="plain",
                   help="comma subset of plain,nesterov,heavy_ball")
    p.add_argument("--population", type=str, default=None,
                   help="population file whose kappa_exact replaces the phi/psi closed form "
                   "(random matrices: use maml-sim); its bounds must equal --mu/--ell")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    p.set_defaults(handler=cmd_frontier)

    p = sub.add_parser("maml-sim", help="simulated last-gradient frontier on random matrices")
    p.add_argument("--dim", type=int, required=True, help="matrix dimension")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--ell", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=10**6)
    p.add_argument("--points", type=int, default=60)
    p.add_argument("--optimizer", choices=tb.OPTIMIZER_KINDS, default="plain")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_maml_sim)

    p = sub.add_parser("simulate", help="deterministic full-participation trajectory")
    p.add_argument("--population", type=str, default=None, help="population file to load")
    p.add_argument("--dim", type=int, default=4, help="dimension of the random population")
    p.add_argument("--n-clients", type=int, default=4, help="clients in the random population")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--ell", type=float, default=10.0)
    p.add_argument("--c-radius", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--theta", choices=_THETA_CHOICES, required=True)
    p.add_argument("--k", type=int, default=5, help="K for first-k/k-only/maml2k1 schemes")
    p.add_argument("--optimizer", choices=tb.OPTIMIZER_KINDS, default="plain")
    p.add_argument("--eta", type=float, default=None,
                   help="server step size (default: auto-tune to the surrogate spectrum)")
    p.add_argument("--beta", type=float, default=0.0,
                   help="server momentum of heavy_ball or nesterov; needs --eta")
    p.add_argument("--rounds", type=int, default=None,
                   help="communication rounds (default: enough to reach 1e-9 of the surrogate optimum)")
    p.add_argument("--x0", type=str, default="zeros", help="'zeros' or comma-separated components")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("verify", help="run analytic verification suites")
    p.add_argument("--only", type=str, default=None,
                   help=f"comma list of suite name prefixes; suites: {', '.join(SUITES)}")
    p.add_argument("--trials", type=int, default=None, help="override instance count per suite")
    p.add_argument("--population", type=str, default=None,
                   help="also check this population file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("mad-check", help="mean-absolute-deviation bound suites")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_mad_check, only="mad_scalar,mad_matrix", population=None)

    p = sub.add_parser("tightness", help="tightness constructions")
    p.add_argument("--family", choices=("b2", "b3"), required=True,
                   help="b2: scalar distance construction; b3: diagonal kappa equalities")
    p.add_argument("--k", type=int, default=200)
    p.add_argument("--p", type=float, default=0.999, help="weight of the first client (b2)")
    p.add_argument("--mu", type=float, default=1.0, help="(b3)")
    p.add_argument("--ell", type=float, default=10.0, help="(b3)")
    p.add_argument("--alpha", type=float, default=0.0, help="(b3)")
    p.add_argument("--gamma", type=float, default=0.01, help="(b3)")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(handler=cmd_tightness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except PopulationFormatError as exc:
        print(f"error: population file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LocalUpdateError as exc:  # a precondition: conditioning, spectrum or divergence
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
