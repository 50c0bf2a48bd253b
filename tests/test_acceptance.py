"""Acceptance gate: every headline claim at its stated tolerance.

Each test prints one PASS/FAIL line (visible under pytest -s) and enforces
both the numeric tolerance and the runtime budget. Criteria:

  1. deterministic client updates equal surrogate gradients (1e-9, 200 pops)
  2. stochastic client updates are unbiased (exact mean over every batch
     sequence equals the surrogate gradient, 1e-12 relative, 20 instances)
  3. MAML client == theta_{2K+1} client update (1e-10, 100 instances)
  4. the engine's tuned round contracts at the rate of cond(H), which the
     rate at kappa_exact bounds; diag(10, 1) worst case exact
  5. phi/psi condition bounds are attained on diag(ell, mu) clients (1e-10)
  6. minimizer distance obeys the 2C/8C bounds; scalar construction is tight
  7. scalar and matrix mean-absolute-deviation bounds hold
  8. frontier shape checks (sweep geometry, ordering, subset, simulation)
  9. CLI reruns are byte-identical
"""

import time

import numpy as np
import pytest

from local_update_lab import (
    ClientModel,
    Population,
    RunConfig,
    SpectrumBounds,
    WeightScheme,
    auto_tune,
    kappa_bound,
    kappa_exact,
    phi,
    psi,
    rho_from_kappa,
    round_operator,
    surrogate_hessian,
    tightness_case_b2,
)
from local_update_lab.cli import main as cli_main
from local_update_lab.frontier import (
    SweepSpec,
    default_gamma_grid,
    default_k_grid,
    simulated_maml_sweep,
    sweep,
)
from local_update_lab.matrices import eigh, spectral_radius
from local_update_lab.verify import (
    check_lemma5_distance,
    check_mad_matrix,
    check_mad_scalar,
    check_theorem1_deterministic,
    check_theorem1_stochastic,
    check_theorem2_maml,
    check_theorem3_rates,
)
from polylines import farthest_vertex, polyline_hausdorff

SEED = 20240801


class Criterion:
    """Times a criterion and prints its one-line verdict."""

    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.start = time.perf_counter()

    def conclude(self, passed: bool, detail: str):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if passed and elapsed < self.budget_s else "FAIL"
        print(
            f"{verdict}  criterion {self.number} ({self.label}): {detail}  "
            f"[{elapsed:.2f}s < {self.budget_s:.0f}s]"
        )
        assert passed, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded its {self.budget_s}s budget ({elapsed:.2f}s)"
        )


def test_criterion_1_theorem1_deterministic():
    crit = Criterion(1, "Theorem 1 deterministic", 10.0)
    result = check_theorem1_deterministic(SEED, trials=200)
    crit.conclude(
        result.max_violation <= 1e-9,
        f"max ||client_update - surrogate_grad|| = {result.max_violation:.3e} <= 1e-9 "
        f"over {result.instances} client instances",
    )


def test_criterion_2_theorem1_stochastic():
    crit = Criterion(2, "Theorem 1 stochastic", 60.0)
    result = check_theorem1_stochastic(SEED, trials=20)
    crit.conclude(
        result.max_violation <= 1e-12,
        f"max ||exact mean - surrogate_grad|| / (1 + ||surrogate_grad||) = "
        f"{result.max_violation:.3e} <= 1e-12",
    )


def test_criterion_3_theorem2_maml():
    crit = Criterion(3, "Theorem 2 MAML equivalence", 5.0)
    result = check_theorem2_maml(SEED, trials=100)
    crit.conclude(
        result.max_violation <= 1e-10,
        f"max ||maml - theta_2K+1 update|| = {result.max_violation:.3e} <= 1e-10",
    )


def test_criterion_4_theorem3_rates():
    crit = Criterion(4, "Theorem 3 / rate table", 30.0)
    result = check_theorem3_rates(SEED, trials=50)
    rates_ok = result.max_violation <= 0.0

    # diag(ell, mu) worst case: the spectral radius of one tuned round is
    # exactly the Table rate, (kappa - 1) / (kappa + 1) for plain
    client = ClientModel(a_matrix=np.diag([10.0, 1.0]), center=np.zeros(2))
    pop = Population.uniform([client], bounds=SpectrumBounds(1.0, 10.0, 0.0))
    theta = WeightScheme.first_k(3)
    gamma = 0.05
    dec = eigh(surrogate_hessian(pop, 0.0, gamma, theta))
    kappa = dec.lambda_max / dec.lambda_min
    cfg = RunConfig(alpha=0.0, gamma=gamma, theta=theta, rounds=1)
    diag_gap = max(
        abs(spectral_radius(round_operator(pop, cfg, auto_tune(kind, dec.lambda_max, dec.lambda_min)))
            - rho_from_kappa(kappa, kind))
        for kind in ("plain", "heavy_ball", "nesterov")
    )
    diag_ok = diag_gap <= 1e-6

    crit.conclude(
        rates_ok and diag_ok,
        f"worst rate excess = {result.max_violation:+.3e} <= 0 over {result.instances} "
        f"populations; diag worst-case gap = {diag_gap:.3e} <= 1e-6",
    )


def test_criterion_5_condition_bound_tightness():
    crit = Criterion(5, "Lemmas 3-4 tightness", 5.0)
    worst = 0.0
    grid_points = 0
    for mu, ell in ((1.0, 10.0), (0.5, 4.0)):
        client = ClientModel(a_matrix=np.diag([ell, mu]), center=np.zeros(2))
        pop = Population.uniform([client], bounds=SpectrumBounds(mu, ell, 0.0))
        for alpha in (0.0, 0.5, 2.0):
            for k in (1, 2, 3, 5, 8, 13, 21, 34, 50):
                for frac in (0.1, 0.5, 0.9):
                    gamma = frac / (ell + alpha)
                    report = kappa_exact(pop, alpha, gamma, WeightScheme.first_k(k))
                    expected = phi(ell, alpha, gamma, k) / phi(mu, alpha, gamma, k)
                    worst = max(worst, abs(report.kappa_exact - expected))
                    grid_points += 1
                    gamma = frac / (k * ell + alpha)
                    report = kappa_exact(pop, alpha, gamma, WeightScheme.last_only(k))
                    expected = psi(ell, alpha, gamma, k) / psi(mu, alpha, gamma, k)
                    worst = max(worst, abs(report.kappa_exact - expected))
                    grid_points += 1
    crit.conclude(
        worst <= 1e-10,
        f"max |kappa_exact - phi/psi ratio| = {worst:.3e} <= 1e-10 over {grid_points} grid points",
    )


def test_criterion_6_distance_bounds():
    crit = Criterion(6, "Lemma 5 / Theorem 4 distances", 30.0)
    result = check_lemma5_distance(SEED, trials=500)
    bounds_ok = result.max_violation <= 1e-12  # exact ties only

    measured, bound = tightness_case_b2(200, 0.999)
    tight_ok = measured >= 1.99 and measured / bound >= 0.995

    crit.conclude(
        bounds_ok and tight_ok,
        f"max (distance - bound) = {result.max_violation:+.3e} over {result.instances} "
        f"populations; scalar construction: distance {measured:.4f} >= 1.99, "
        f"bound ratio {measured / bound:.4f} >= 0.995",
    )


def test_criterion_7_mad_bounds():
    crit = Criterion(7, "MAD inequalities", 30.0)
    scalar = check_mad_scalar(SEED, trials=10**4)
    matrix = check_mad_matrix(SEED, trials=10**3)
    crit.conclude(
        scalar.passed and matrix.passed,
        f"scalar gap = {scalar.max_violation:.3e} <= 1e-12 over {scalar.instances} laws "
        f"(two-point equality included); matrix excess = {matrix.max_violation:.3e} <= 1e-9 "
        f"over {matrix.instances} commuting families",
    )


def test_criterion_8_frontier_shapes():
    crit = Criterion(8, "frontier shape checks", 60.0)
    details = []

    # (a) L = 5: varying K at gamma = 0.01 vs varying gamma at K = 100
    k_front = sweep(SweepSpec(
        family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 120),
        mu=1.0, ell=5.0, gamma=0.01,
    ))
    g_front = sweep(SweepSpec(
        family="fedavg_theta", vary="gamma",
        grid=default_gamma_grid(0.2 * (1.0 - 1e-9), 120),
        mu=1.0, ell=5.0, k=100,
    ))
    hausdorff = polyline_hausdorff(k_front.coordinates("plain"), g_front.coordinates("plain"))
    a_ok = hausdorff <= 0.02
    details.append(f"(a) K-sweep vs gamma-sweep Hausdorff {hausdorff:.4f} <= 0.02")

    # (b) strict optimizer ordering at every kappa > 1 grid point
    ordered = sweep(SweepSpec(
        family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 60),
        mu=1.0, ell=10.0, gamma=0.05,
        optimizers=("plain", "nesterov", "heavy_ball"),
    ))
    b_ok = True
    for p, n, h in zip(
        ordered.series("plain"), ordered.series("nesterov"), ordered.series("heavy_ball")
    ):
        if p.kappa > 1.0 and not (h.rho < n.rho < p.rho):
            b_ok = False
    details.append("(b) heavy_ball < nesterov < plain at every kappa > 1 point")

    # (c) proximal frontiers sit on the alpha = 0 polyline
    base = sweep(SweepSpec(
        family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 300),
        mu=1.0, ell=10.0, alpha=0.0, gamma=0.05,
    ))
    c_worst = 0.0
    for alpha in (0.5, 1.0, 5.0):
        inner = sweep(SweepSpec(
            family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 60),
            mu=1.0, ell=10.0, alpha=alpha, gamma=0.5 / (10.0 + alpha),
        ))
        c_worst = max(c_worst, farthest_vertex(inner.coordinates("plain"), base.coordinates("plain")))
    c_ok = c_worst <= 0.01
    details.append(f"(c) proximal frontiers within {c_worst:.4f} <= 0.01 of alpha=0")

    # (d) simulated last-gradient frontier vs the closed form
    k_grid = default_k_grid(10**6, 60)
    sim = simulated_maml_sweep(
        dim=100, mu=1.0, ell=10.0, alpha=0.0, gamma=0.001, k_grid=k_grid, seed=SEED,
    )
    k_star = 1.0 / (0.001 * 10.0)
    match_worst = 0.0
    for p in sim.points:
        if p.k < k_star:
            match_worst = max(
                match_worst,
                abs(p.kappa - kappa_bound(1.0, 10.0, 0.0, 0.001, WeightScheme.last_only(p.k))),
            )
    beyond = simulated_maml_sweep(
        dim=100, mu=1.0, ell=10.0, alpha=0.0, gamma=0.001,
        k_grid=np.array([300]), seed=SEED,
    ).points[0]
    departure = abs(beyond.kappa - psi(10.0, 0.0, 0.001, 300) / psi(1.0, 0.0, 0.001, 300))
    endpoint_delta = sim.points[0].delta if sim.points[0].k == 1 else None
    fedavg_terminal = sweep(SweepSpec(
        family="fedavg_theta", vary="K", grid=default_k_grid(10**6, 60),
        mu=1.0, ell=10.0, alpha=0.0, gamma=0.001,
    )).points[-1]
    d_ok = (
        match_worst <= 1e-6
        and departure > 1e-3
        and endpoint_delta == 0.0
        and fedavg_terminal.rho <= 1e-3
    )
    details.append(
        f"(d) simulated matches closed form to {match_worst:.2e} below K*, departs by "
        f"{departure:.2f} beyond; K=1 delta = {endpoint_delta}; terminal rho = "
        f"{fedavg_terminal.rho:.1e}"
    )

    crit.conclude(a_ok and b_ok and c_ok and d_ok, "; ".join(details))


def test_criterion_9_cli_determinism(tmp_path):
    crit = Criterion(9, "CLI determinism", 120.0)
    commands = [
        ["frontier", "--mu", "1", "--ell", "10", "--vary", "K", "--points", "25",
         "--optimizers", "plain,nesterov,heavy_ball", "--format", "csv", "--seed", "3"],
        ["frontier", "--mu", "1", "--ell", "5", "--gamma", "0.01", "--vary", "K",
         "--points", "20", "--format", "svg"],
        ["frontier", "--mu", "1", "--ell", "10", "--vary", "gamma", "--k", "50",
         "--points", "20", "--format", "json"],
        ["maml-sim", "--dim", "20", "--mu", "1", "--ell", "10", "--gamma", "0.001",
         "--points", "20", "--seed", "6"],
        ["simulate", "--gamma", "0.02", "--theta", "first-k", "--k", "5",
         "--rounds", "15", "--seed", "8"],
        ["simulate", "--gamma", "0.01", "--theta", "maml2k1", "--k", "2",
         "--rounds", "10", "--seed", "8", "--format", "json"],
        ["verify", "--only", "theorem2,mad_scalar", "--trials", "30", "--seed", "5"],
        ["mad-check", "--trials", "200", "--seed", "4", "--format", "csv"],
        ["tightness", "--family", "b2", "--k", "200", "--p", "0.999"],
        ["tightness", "--family", "b3", "--gamma", "0.004", "--k", "20"],
    ]
    identical = True
    for index, args in enumerate(commands):
        out1 = tmp_path / f"cmd{index}_run1.out"
        out2 = tmp_path / f"cmd{index}_run2.out"
        code1 = cli_main(args + ["--out", str(out1)])
        code2 = cli_main(args + ["--out", str(out2)])
        if code1 != code2 or code1 not in (0, 4):
            identical = False
        if out1.read_bytes() != out2.read_bytes():
            identical = False
    crit.conclude(identical, f"{len(commands)} commands rerun byte-identically")
