"""Workloads: seeded inputs, one timed pass, and the checks on its outputs.

Each workload drives the library only through its public functions and
`cli.main`. `setup` writes the inputs for a seed, `run_pass` is the timed
unit of work, and `check` verifies every answer a pass produced, so that a
faster but wrong change fails instead of scoring. Sizes live in dataclasses
so the benchmark's own tests can run the same code on tiny inputs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

@dataclass
class Checks:
    """Counts every check made; `failed` names the ones that did not hold."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


@dataclass
class PassResult:
    wall_s: float
    rate_per_s: float
    stages: dict[str, float]
    outputs: dict


def _cli(lib, argv: list[str]) -> tuple[int, float]:
    start = time.perf_counter()
    code = lib.cli.main(argv)
    return code, time.perf_counter() - start


def _random_basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _sym(basis: np.ndarray, lams: np.ndarray) -> np.ndarray:
    a = (basis * lams) @ basis.T
    return 0.5 * (a + a.T)


def _center(rng: np.random.Generator, dim: int, radius: float) -> np.ndarray:
    c = rng.standard_normal(dim)
    return c / np.linalg.norm(c) * rng.uniform(0.0, radius)


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySizes:
    trials: int | None = None  # None: every suite at its default trial count


class VerifySuite:
    """`lul verify --only ... --seed S`: 12 of the 15 suites, many tiny instances.

    The suites in UNCHECKED fail on some seeds at the commit that added this
    benchmark (see README, "Known failures"), so the timed pass leaves them
    out and requires every suite it runs to pass. The traced run still times
    them, one trial each, among its untimed smoke calls.
    """

    name = "verify-suite"
    UNCHECKED = ("theorem1_stochastic", "theorem3_rates", "lemma1_positive_definite")

    def __init__(self, lib, seed: int, work: Path, sizes: VerifySizes = VerifySizes()):
        self.lib, self.seed, self.work, self.sizes = lib, seed, work, sizes
        self.suites = [s for s in lib.verify.SUITES if s not in self.UNCHECKED]
        self.reaches = tuple(f"verify.{s}" for s in self.suites)

    def _argv(self, seed: int, trials, out: Path) -> list[str]:
        argv = ["verify", "--only", ",".join(self.suites), "--seed", str(seed), "--out", str(out)]
        return argv if trials is None else argv + ["--trials", str(trials)]

    def setup(self) -> None:
        # One-trial pass over every timed suite pays first-call costs before
        # timing. Its seed is fixed: the cost of a one-trial pass depends on
        # which instances the seed draws, which would add seed noise to set-up.
        _cli(self.lib, self._argv(0, 1, self.work / "verify-warmup.json"))

    def run_pass(self) -> PassResult:
        out = self.work / "verify.json"
        code, wall = _cli(self.lib, self._argv(self.seed, self.sizes.trials, out))
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        instances = sum(c["instances"] for c in report["checks"])
        return PassResult(
            wall_s=wall,
            rate_per_s=instances / wall,
            stages={"verify_wall_s": wall, "verify_instances": instances},
            outputs={"code": code, "report": report, "text": text},
        )

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        for out in (p.outputs for p in passes):
            report = out["report"]
            checks.expect([c["name"] for c in report["checks"]] == self.suites,
                          "verify: report lists every timed suite")
            checks.expect(out["code"] == 0, f"verify: exits 0 (exit code {out['code']})")
            checks.expect(report["all_pass"] is True, "verify: report has all_pass")
            for c in report["checks"]:
                checks.expect(bool(c["pass"]), f"verify: suite {c['name']} passes "
                              f"(max_violation {c['max_violation']!r}, threshold {c['threshold']!r})")
            checks.expect(out["text"] == passes[0].outputs["text"], "verify: reruns are byte-identical")

    def facts(self) -> dict:
        return {"seed": self.seed, "suites": f"{len(self.suites)} timed; not timed: {', '.join(self.UNCHECKED)}",
                "d": "1-20 per instance", "n": "1-10 per instance",
                "K grid": "1-50 per instance", "surrogate kappa": "per instance",
                "weights": "Dirichlet(1) per instance"}


# ---------------------------------------------------------------------------
# spectral-analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralSizes:
    dim: int = 48
    n_clients: int = 48
    k_values: tuple[int, ...] = (1, 4, 16, 64, 256, 1024)
    sweep_k_max: int = 10**6
    sweep_points: int = 60
    maml_dim: int = 64
    maml_points: int = 60


class SpectralAnalysis:
    """Surrogate answers on one saved population: points, a sweep and maml-sim."""

    name = "spectral-analysis"
    reaches = ("maml-sim",)
    mu, ell, c_radius = 1.0, 10.0, 1.0
    gamma = 1e-3
    maml_gamma = 0.05
    optimizers = ("plain", "heavy_ball", "nesterov")

    def __init__(self, lib, seed: int, work: Path, sizes: SpectralSizes = SpectralSizes()):
        self.lib, self.seed, self.work, self.sizes = lib, seed, work, sizes
        self.path = work / "spectral-population.txt"

    def setup(self) -> None:
        lib, s = self.lib, self.sizes
        rng = np.random.default_rng([self.seed, 0x5BEC])
        clients = tuple(
            lib.ClientModel(
                a_matrix=_sym(_random_basis(rng, s.dim), rng.uniform(self.mu, self.ell, s.dim)),
                center=_center(rng, s.dim, self.c_radius),
            )
            for _ in range(s.n_clients)
        )
        weights = rng.dirichlet(np.ones(s.n_clients))
        pop = lib.Population(
            clients=clients, weights=weights / weights.sum(),
            bounds=lib.SpectrumBounds(self.mu, self.ell, self.c_radius),
        )
        lib.save_population(pop, self.path)

    def _thetas(self):
        for k in self.sizes.k_values:
            yield k, "first_k", self.lib.WeightScheme.first_k(k)
            yield k, "last_only", self.lib.WeightScheme.last_only(k)

    def run_pass(self) -> PassResult:
        lib, s = self.lib, self.sizes
        start = time.perf_counter()
        pop = lib.load_population(self.path)
        points = []
        for k, scheme, theta in self._thetas():
            x = lib.surrogate_minimizer(pop, 0.0, self.gamma, theta)
            distance = lib.minimizer_distance(pop, 0.0, self.gamma, theta)
            report = lib.kappa_exact(pop, 0.0, self.gamma, theta)
            bound = lib.distance_bound(pop, 0.0, self.gamma, theta)
            points.append({"k": k, "scheme": scheme, "theta": theta, "x": x, "distance": distance,
                           "kappa": report, "distance_bound": bound})
        analysis_s = time.perf_counter() - start
        grid = lib.default_k_grid(s.sweep_k_max, s.sweep_points)
        spec = lib.SweepSpec(
            family="fedavg_theta", vary="K", grid=grid, mu=self.mu, ell=self.ell,
            gamma=self.gamma, optimizers=self.optimizers, kappa_source="exact_spectral",
            population=pop,
        )
        sweep_start = time.perf_counter()
        frontier = lib.sweep(spec)
        sweep_s = time.perf_counter() - sweep_start
        maml_out = self.work / "maml-sim.csv"
        code, maml_s = _cli(lib, [
            "maml-sim", "--dim", str(s.maml_dim), "--mu", str(self.mu), "--ell", str(self.ell),
            "--gamma", str(self.maml_gamma), "--points", str(s.maml_points),
            "--seed", str(self.seed), "--out", str(maml_out),
        ])
        wall = time.perf_counter() - start
        maml_csv = maml_out.read_text(encoding="utf-8")
        maml_rows = len(maml_csv.splitlines()) - 1
        return PassResult(
            wall_s=wall,
            rate_per_s=(len(points) + grid.size + maml_rows) / wall,
            stages={
                "analysis_points_per_s": len(points) / analysis_s,
                "sweep_points_per_s": grid.size / sweep_s,
                "maml_sim_s": maml_s,
            },
            outputs={"pop": pop, "points": points, "frontier": frontier,
                     "frontier_csv": lib.frontier.frontier_csv(frontier),
                     "maml_code": code, "maml_csv": maml_csv},
        )

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        lib = self.lib
        first = passes[0].outputs
        pop = first["pop"]
        opt = lib.ServerOptSpec(kind="plain", step=1.0)
        for point in first["points"]:
            cfg = lib.RunConfig(alpha=0.0, gamma=self.gamma, theta=point["theta"], rounds=1)
            # Engine route against surrogate route: the pseudo-gradient of one
            # deterministic round vanishes at the surrogate minimizer.
            q_star = lib.server_round(pop, point["x"], cfg, opt)[2]
            q_zero = lib.server_round(pop, np.zeros(pop.dim), cfg, opt)[2]
            label = f"K={point['k']} {point['scheme']}"
            checks.expect(
                float(np.linalg.norm(q_star)) <= 1e-9 * float(np.linalg.norm(q_zero)),
                f"spectral: pseudo-gradient vanishes at surrogate_minimizer ({label})",
            )
            checks.expect(point["distance"] <= point["distance_bound"] + 1e-9,
                          f"spectral: minimizer_distance <= distance_bound ({label})")
            report = point["kappa"]
            if report.kappa_bound is not None:
                # Same relative slack as the library's lemma34_kappa_bounds suite.
                checks.expect(report.kappa_exact <= report.kappa_bound * (1.0 + 1e-9),
                              f"spectral: kappa_exact <= kappa_bound ({label})")
        for out in (p.outputs for p in passes):
            rho_delta = [(p.rho, p.delta) for p in out["frontier"].points]
            checks.expect(len(rho_delta) > 0 and all(0.0 <= r <= 1.0 and 0.0 <= d <= 1.0 for r, d in rho_delta),
                          "spectral: sweep points lie in the unit square")
            checks.expect(out["maml_code"] == 0, "spectral: maml-sim exits 0")
            rows = [line.split(",") for line in out["maml_csv"].splitlines()[1:]]
            checks.expect(len(rows) > 0 and all(0.0 <= float(r[1]) <= 1.0 and 0.0 <= float(r[2]) <= 1.0 for r in rows),
                          "spectral: maml-sim points lie in the unit square")
            same = all(
                np.array_equal(a["x"], b["x"]) and a["distance"] == b["distance"] and a["kappa"] == b["kappa"]
                for a, b in zip(out["points"], first["points"])
            )
            checks.expect(same and out["frontier_csv"] == first["frontier_csv"] and out["maml_csv"] == first["maml_csv"],
                          "spectral: reruns give identical answers")

    def facts(self) -> dict:
        pop = self.lib.load_population(self.path)
        kappa = self.lib.kappa_exact(pop, 0.0, self.gamma, self.lib.WeightScheme.single()).kappa_exact
        return {"seed": self.seed, "d": self.sizes.dim, "n": self.sizes.n_clients,
                "K grid": f"{list(self.sizes.k_values)}; sweep default_k_grid({self.sizes.sweep_k_max}, {self.sizes.sweep_points})",
                "surrogate kappa (K=1)": kappa, "weights": "Dirichlet(1)"}


# ---------------------------------------------------------------------------
# engine-rounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineSizes:
    dim: int = 32
    n_clients: int = 32
    k: int = 20
    stoch_dim: int = 16
    stoch_clients: int = 32
    stoch_examples: int = 8
    stoch_per_round: int = 8
    stoch_batch: int = 2
    stoch_rounds: int = 300


class EngineRounds:
    """Literal K-step rounds: two `lul simulate` runs to 1e-9 and a stochastic `run`."""

    name = "engine-rounds"
    reaches = ("simulate", "auto_tune_for")
    mu, ell, c_radius = 1.0, 100.0, 1.0
    gamma = 1e-3
    stoch_ell, stoch_gamma = 10.0, 0.02
    tolerance = 1e-9  # the target of `lul simulate`'s default round count

    def __init__(self, lib, seed: int, work: Path, sizes: EngineSizes = EngineSizes()):
        self.lib, self.seed, self.work, self.sizes = lib, seed, work, sizes
        self.path = work / "engine-population.txt"
        self.stoch_pop = None

    def setup(self) -> None:
        lib, s = self.lib, self.sizes
        rng = np.random.default_rng([self.seed, 0xE61E])
        # One shared eigenbasis with the extreme directions pinned at (mu, ell)
        # in every client: the surrogate stays ill-conditioned whatever the
        # weights, so the rounds to tolerance barely depend on the seed.
        basis = _random_basis(rng, s.dim)
        clients = []
        for _ in range(s.n_clients):
            lams = np.exp(rng.uniform(np.log(self.mu), np.log(self.ell), s.dim))
            lams[0], lams[-1] = self.mu, self.ell
            clients.append(lib.ClientModel(a_matrix=_sym(basis, lams), center=_center(rng, s.dim, self.c_radius)))
        weights = rng.dirichlet(np.ones(s.n_clients))
        pop = lib.Population(clients=tuple(clients), weights=weights / weights.sum(),
                             bounds=lib.SpectrumBounds(self.mu, self.ell, self.c_radius))
        lib.save_population(pop, self.path)
        self.stoch_pop = self._example_population(rng)

    def _example_population(self, rng: np.random.Generator):
        lib, s = self.lib, self.sizes
        clients = []
        for _ in range(s.stoch_clients):
            a = _sym(_random_basis(rng, s.stoch_dim), rng.uniform(self.mu, self.stoch_ell, s.stoch_dim))
            examples = []
            for _ in range(s.stoch_examples // 2):
                g = rng.standard_normal((s.stoch_dim, s.stoch_dim))
                noise = 0.15 * self.mu * (g + g.T)
                for sign in (1.0, -1.0):
                    examples.append(lib.QuadraticExample(b_matrix=a + sign * noise,
                                                         center=rng.uniform(-1.0, 1.0, s.stoch_dim)))
            clients.append(lib.ClientModel.from_examples(examples))
        # Non-uniform weights on purpose: see README, "What is not measured".
        weights = rng.dirichlet(np.ones(s.stoch_clients))
        radius = max(float(np.linalg.norm(c.center)) for c in clients)
        return lib.Population(clients=tuple(clients), weights=weights / weights.sum(),
                              bounds=lib.SpectrumBounds(self.mu, self.stoch_ell, radius))

    def _stochastic_run(self):
        lib, s = self.lib, self.sizes
        theta = lib.WeightScheme.first_k(s.k)
        opt = lib.auto_tune_for(self.stoch_pop, 0.0, self.stoch_gamma, theta, "plain")
        cfg = lib.RunConfig(alpha=0.0, gamma=self.stoch_gamma, theta=theta, rounds=s.stoch_rounds,
                            seed=self.seed, mode="stochastic", clients_per_round=s.stoch_per_round,
                            batch_size=s.stoch_batch)
        return lib.run(self.stoch_pop, np.zeros(self.stoch_pop.dim), cfg, opt)

    def run_pass(self) -> PassResult:
        lib, s = self.lib, self.sizes
        start = time.perf_counter()
        sims = {}
        for kind in ("plain", "heavy_ball"):
            out = self.work / f"simulate-{kind}.csv"
            code, _ = _cli(lib, [
                "simulate", "--population", str(self.path), "--gamma", str(self.gamma),
                "--theta", "first-k", "--k", str(s.k), "--optimizer", kind,
                "--seed", str(self.seed), "--format", "csv", "--out", str(out),
            ])
            sims[kind] = {"code": code, "csv": out.read_text(encoding="utf-8")}
        det_s = time.perf_counter() - start
        det_rounds = sum(len(sim["csv"].splitlines()) - 2 for sim in sims.values())
        stoch_start = time.perf_counter()
        traj = self._stochastic_run()
        stoch_s = time.perf_counter() - stoch_start
        wall = time.perf_counter() - start
        return PassResult(
            wall_s=wall,
            rate_per_s=(det_rounds + traj.rounds) / wall,
            stages={"time_to_tol_s": det_s, "det_rounds_per_s": det_rounds / det_s,
                    "stoch_rounds_per_s": traj.rounds / stoch_s},
            outputs={"sims": sims, "traj": traj},
        )

    def check(self, passes: list[PassResult], checks: Checks) -> None:
        rerun = self._stochastic_run()
        reference = (rerun.iterates.tobytes(), rerun.pseudo_gradients.tobytes())
        for out in (p.outputs for p in passes):
            for kind, sim in out["sims"].items():
                checks.expect(sim["code"] == 0, f"engine: simulate {kind} exits 0")
                last = sim["csv"].splitlines()[-1].split(",")
                checks.expect(float(last[-2]) <= self.tolerance,
                              f"engine: simulate {kind} ends within {self.tolerance} of the surrogate optimum")
                checks.expect(sim["csv"] == passes[0].outputs["sims"][kind]["csv"],
                              f"engine: simulate {kind} reruns are byte-identical")
            traj = out["traj"]
            checks.expect(bool(np.all(np.isfinite(traj.iterates))), "engine: stochastic trajectory is finite")
            checks.expect((traj.iterates.tobytes(), traj.pseudo_gradients.tobytes()) == reference,
                          "engine: stochastic reruns with one seed are byte-identical")

    def facts(self) -> dict:
        lib = self.lib
        pop = lib.load_population(self.path)
        theta = lib.WeightScheme.first_k(self.sizes.k)
        kappa = lib.kappa_exact(pop, 0.0, self.gamma, theta).kappa_exact
        stoch_kappa = float(lib.kappa_exact(self.stoch_pop, 0.0, self.stoch_gamma, theta).kappa_exact)
        return {"seed": self.seed, "d": self.sizes.dim, "n": self.sizes.n_clients, "K grid": [self.sizes.k],
                "surrogate kappa": kappa,
                "stochastic d/n/kappa": f"{self.sizes.stoch_dim}/{self.sizes.stoch_clients}/{stoch_kappa!r}",
                "weights": "Dirichlet(1), non-uniform in both parts"}


WORKLOADS = {cls.name: cls for cls in (VerifySuite, SpectralAnalysis, EngineRounds)}


# ---------------------------------------------------------------------------
# Traced run only: smoke calls of the other entry points, and the ROADMAP size grid
# ---------------------------------------------------------------------------


def smoke(lib, seed: int, work: Path, reached: tuple[str, ...]) -> None:
    """One small call of each `lul` command, library entry and verify suite
    the workload's pass does not reach, so every layer has spans on every
    traced run. Their outputs are not checked."""
    rng = np.random.default_rng([seed, 0x5A0E])
    clients = [lib.ClientModel(a_matrix=_sym(_random_basis(rng, 4), rng.uniform(1.0, 10.0, 4)),
                               center=_center(rng, 4, 1.0)) for _ in range(4)]
    pop = lib.Population.uniform(clients, bounds=lib.SpectrumBounds(1.0, 10.0, 1.0))
    population = work / "smoke-population.txt"
    lib.save_population(pop, population)
    if "auto_tune_for" not in reached:
        lib.auto_tune_for(pop, 0.0, 0.01, lib.WeightScheme.first_k(5), "heavy_ball")
    suites = [s for s in lib.verify.SUITES if f"verify.{s}" not in reached]
    argvs = {
        "frontier": ["frontier", "--mu", "1", "--ell", "10"],
        "verify": ["verify", "--trials", "1", "--only", ",".join(suites)],
        "maml-sim": ["maml-sim", "--dim", "8", "--mu", "1", "--ell", "10", "--gamma", "0.05", "--points", "12"],
        "simulate": ["simulate", "--population", str(population), "--gamma", "0.01",
                     "--theta", "first-k", "--k", "5", "--rounds", "10"],
    }
    for command, argv in argvs.items():
        if command not in reached and (command != "verify" or suites):
            lib.cli.main(argv + ["--seed", str(seed), "--out", str(work / f"smoke-{command}.out")])


SIZE_GRID = ((10, 10), (50, 50), (100, 100))
SIZE_GRID_K = (10, 1000)
SIZE_GRID_ROUNDS = 20


def size_grid(lib, seed: int) -> dict[str, float]:
    """Population construction, surrogate_minimizer, kappa_exact and a
    20-round run at each (d, n) and K, in ms (ROADMAP item 1). Runs outside
    the span recorder, so the per-layer numbers describe the workload."""
    out = {}
    gamma = 0.05  # 1 / (2 ell) with spectra in [1, 10]
    for dim, n in SIZE_GRID:
        rng = np.random.default_rng([seed, 0x6121, dim, n])
        clients = tuple(lib.ClientModel(a_matrix=_sym(_random_basis(rng, dim), rng.uniform(1.0, 10.0, dim)),
                                        center=_center(rng, dim, 1.0)) for _ in range(n))
        weights = np.full(n, 1.0 / n)
        bounds = lib.SpectrumBounds(1.0, 10.0, 1.0)
        start = time.perf_counter()
        pop = lib.Population(clients=clients, weights=weights, bounds=bounds)
        out[f"grid.Population.d{dim}.ms"] = 1e3 * (time.perf_counter() - start)
        for k in SIZE_GRID_K:
            theta = lib.WeightScheme.first_k(k)
            start = time.perf_counter()
            lib.surrogate_minimizer(pop, 0.0, gamma, theta)
            out[f"grid.surrogate_minimizer.d{dim}.k{k}.ms"] = 1e3 * (time.perf_counter() - start)
            start = time.perf_counter()
            report = lib.kappa_exact(pop, 0.0, gamma, theta)
            out[f"grid.kappa_exact.d{dim}.k{k}.ms"] = 1e3 * (time.perf_counter() - start)
            opt = lib.auto_tune("plain", report.l_tilde, report.mu_tilde)
            cfg = lib.RunConfig(alpha=0.0, gamma=gamma, theta=theta, rounds=SIZE_GRID_ROUNDS)
            start = time.perf_counter()
            lib.run(pop, np.zeros(dim), cfg, opt)
            out[f"grid.run.d{dim}.k{k}.ms"] = 1e3 * (time.perf_counter() - start)
    return out
