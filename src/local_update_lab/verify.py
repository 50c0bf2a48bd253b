"""Self-checking suites: every analytic claim, verified on random instances.

Each suite draws its own random instances from a seed, measures the worst
violation of one claim, and reports {name, instances, max_violation,
threshold, pass}. The suites back the `verify` CLI command and the test
suite; the generators are shared so tests exercise the same instance
distributions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import bounds as tb
from . import quadratics as qw
from .engine import (
    RunConfig,
    _deterministic_updates,
    _stochastic_client_updates,
    auto_tune,
    client_update,
    client_update_maml,
    geometric_rate,
    max_step_contraction,
    run,
)
from .errors import InvalidInputError
from .matrices import SpectrumBounds, eigh, keyed_rng
from .quadratics import ClientModel, Population, QuadraticExample, WeightScheme

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def random_orthonormal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _symmetric_from_eigenpairs(basis: np.ndarray, lams: np.ndarray) -> np.ndarray:
    m = (basis * lams) @ basis.T
    return 0.5 * (m + m.T)


def _center_in_ball(rng: np.random.Generator, dim: int, c_radius: float) -> np.ndarray:
    center = rng.standard_normal(dim)
    return center / max(np.linalg.norm(center), 1e-12) * rng.uniform(0.0, c_radius)


def _client_spectrum(
    rng: np.random.Generator, dim: int, mu: float, ell: float, pin_extremes: bool
) -> np.ndarray:
    lams = np.exp(rng.uniform(np.log(mu), np.log(ell), size=dim))
    if pin_extremes:
        lams[0], lams[-1] = mu, ell
    return lams


def random_client(
    rng: np.random.Generator,
    dim: int,
    mu: float,
    ell: float,
    c_radius: float,
    pin_extremes: bool = False,
) -> ClientModel:
    """Random client with spectrum inside [mu, ell] and center inside the C-ball."""
    if dim == 1:
        lams = np.array([ell if pin_extremes else rng.uniform(mu, ell)])
        a = lams.reshape(1, 1)
    else:
        basis = random_orthonormal(rng, dim)
        a = _symmetric_from_eigenpairs(basis, _client_spectrum(rng, dim, mu, ell, pin_extremes))
    return ClientModel(a_matrix=a, center=_center_in_ball(rng, dim, c_radius))


def random_population(
    rng: np.random.Generator,
    max_dim: int = 20,
    max_clients: int = 10,
    mu: float = 1.0,
    ell: float = 10.0,
    c_radius: float = 1.0,
    min_dim: int = 1,
    min_clients: int = 1,
    pin_extremes: bool = False,
    uniform_weights: bool = False,
) -> Population:
    """Population of random_client draws, bit-identical to drawing them one by one.

    Each client's numbers are drawn in random_client's stream order; the
    eigenbases then come from one stacked QR.
    """
    bounds = SpectrumBounds(mu, ell, c_radius)
    dim = int(rng.integers(min_dim, max_dim + 1))
    n = int(rng.integers(min_clients, max_clients + 1))
    if dim == 1:
        clients = tuple(random_client(rng, dim, mu, ell, c_radius, pin_extremes) for _ in range(n))
    else:
        gaussians, spectra, centers = [], [], []
        for _ in range(n):
            gaussians.append(rng.standard_normal((dim, dim)))
            spectra.append(_client_spectrum(rng, dim, mu, ell, pin_extremes))
            centers.append(_center_in_ball(rng, dim, c_radius))
        q, r = np.linalg.qr(np.stack(gaussians))
        bases = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
        clients = tuple(
            ClientModel(a_matrix=_symmetric_from_eigenpairs(basis, lams), center=center)
            for basis, lams, center in zip(bases, spectra, centers)
        )
    if uniform_weights:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.dirichlet(np.ones(n))
        weights = weights / weights.sum()
    return Population(clients=clients, weights=weights, bounds=bounds)


def rate_check_population(rng: np.random.Generator, mu: float = 1.0, ell: float = 10.0) -> Population:
    """Heterogeneous population for momentum rate checks.

    Clients mix random eigenbases with per-client extremes pinned at (mu,
    ell), so the exact condition number E[max]/E[min] sits strictly above the
    condition number of the averaged Hessian. That headroom is what absorbs
    the transient overshoot of momentum methods (whose guarantee is a spectral
    radius, not a per-step norm contraction).
    """
    return random_population(
        rng,
        min_dim=3,
        max_dim=10,
        min_clients=4,
        max_clients=8,
        mu=mu,
        ell=ell,
        c_radius=1.0,
        pin_extremes=True,
        uniform_weights=True,
    )


def random_theta(rng: np.random.Generator, k_max: int = 50) -> WeightScheme:
    k = int(rng.integers(1, k_max + 1))
    kind = rng.integers(0, 3)
    if kind == 0:
        return WeightScheme.first_k(k)
    if kind == 1:
        return WeightScheme.last_only(k)
    coeffs = rng.uniform(0.0, 1.0, size=k)
    coeffs[rng.integers(0, k)] += 0.5  # ensure a positive entry
    return WeightScheme(coeffs)


def random_admissible_params(
    rng: np.random.Generator, ell: float, k_max: int = 50
) -> tuple[float, float, WeightScheme]:
    """(alpha, gamma, theta) with gamma strictly inside the contractive range."""
    alpha = float(rng.choice([0.0, 0.0, 0.5, 2.0]))
    gamma = float(rng.uniform(0.0, 0.95)) / (ell + alpha)
    return alpha, gamma, random_theta(rng, k_max)


def random_client_with_examples(
    rng: np.random.Generator,
    dim_max: int = 4,
    mu: float = 1.0,
    ell: float = 10.0,
    dim: int | None = None,
) -> ClientModel:
    """Client backed by a finite example set whose mean matrix is SPD.

    Example matrices are A +/- a symmetric perturbation (paired so the mean
    is exactly A); example centers are arbitrary, the client center follows
    from the moments.
    """
    if dim is None:
        dim = int(rng.integers(1, dim_max + 1))
    base = random_client(rng, dim, mu, ell, c_radius=1.0)
    n_pairs = int(rng.integers(1, 4))
    examples = []
    for _ in range(n_pairs):
        s = 0.3 * mu * (lambda g: 0.5 * (g + g.T))(rng.standard_normal((dim, dim)))
        for sign in (1.0, -1.0):
            center = rng.uniform(-1.0, 1.0, size=dim)
            examples.append(QuadraticExample(b_matrix=base.a_matrix + sign * s, center=center))
    return ClientModel.from_examples(examples)


def random_discrete_distribution(
    rng: np.random.Generator, max_support: int = 8, two_point: bool = False
) -> tb.DiscreteDistribution:
    if two_point:
        values = np.sort(rng.uniform(-5.0, 5.0, size=2))
        while values[0] == values[1]:
            values = np.sort(rng.uniform(-5.0, 5.0, size=2))
        p = rng.uniform(0.05, 0.95)
        probs = np.array([p, 1.0 - p])
    else:
        n = int(rng.integers(1, max_support + 1))
        values = rng.uniform(-5.0, 5.0, size=n)
        probs = rng.dirichlet(np.ones(n))
    probs = probs / probs.sum()
    return tb.DiscreteDistribution(values=values, probs=probs)


def random_commuting_family(
    rng: np.random.Generator, dim_max: int = 6, n_max: int = 6
) -> tuple[list[np.ndarray], list[np.ndarray], float, float]:
    """(X_i, Y_i, a, b) sharing one eigenbasis, with a, b the X extremes."""
    dim = int(rng.integers(1, dim_max + 1))
    n = int(rng.integers(1, n_max + 1))
    basis = random_orthonormal(rng, dim)
    a_lo = rng.uniform(0.2, 2.0)
    b_hi = a_lo + rng.uniform(0.1, 5.0)
    xs, ys = [], []
    x_eigs = []
    for _ in range(n):
        lx = rng.uniform(a_lo, b_hi, size=dim)
        if rng.random() < 0.3:
            lx[0] = a_lo
        if rng.random() < 0.3:
            lx[-1] = b_hi
        ly = rng.uniform(0.1, 2.0, size=dim)
        xs.append(_symmetric_from_eigenpairs(basis, lx))
        ys.append(_symmetric_from_eigenpairs(basis, ly))
        x_eigs.append(lx)
    x_eigs = np.concatenate(x_eigs)
    return xs, ys, float(x_eigs.min()), float(x_eigs.max())


# ---------------------------------------------------------------------------
# Check results and suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one suite: worst violation over the generated instances."""

    name: str
    instances: int
    max_violation: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.threshold

    def as_dict(self) -> dict:
        """The JSON report entry {name, instances, max_violation, threshold, pass}."""
        return {
            "name": self.name,
            "instances": int(self.instances),
            "max_violation": float(self.max_violation),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
        }


def theorem1_client_gap(
    pop: Population, x: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> float:
    """Worst ||deterministic client update - Q_i A_i (x - c_i)|| over the clients at x.

    The engine's batched kernel updates every client in one call, and the
    stacked Horner kernel gives every Q_i A_i in one call; each row of either
    is bit-identical to that client computed alone.
    """
    updates = _deterministic_updates(
        np.stack([client.a_matrix for client in pop.clients]),
        np.stack([client.center for client in pop.clients]),
        x, alpha, gamma, theta,
    )
    worst = 0.0
    for client, update, qa in zip(pop.clients, updates, qw._surrogate_hessians(pop, alpha, gamma, theta)):
        predicted = qa @ (x - client.center)
        worst = max(worst, float(np.linalg.norm(update - predicted)))
    return worst


def check_theorem1_deterministic(seed: int, trials: int = 200) -> CheckResult:
    """Deterministic client updates equal the surrogate gradient exactly."""
    worst = 0.0
    count = 0
    for trial in range(trials):
        rng = keyed_rng(seed, 0x11, trial)
        pop = random_population(rng, max_dim=20, max_clients=10)
        alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=50)
        x = rng.uniform(-2.0, 2.0, size=pop.dim)
        worst = max(worst, theorem1_client_gap(pop, x, alpha, gamma, theta))
        count += pop.n_clients
    return CheckResult("theorem1_deterministic", count, worst, 1e-9)


def exact_stochastic_mean(
    client: ClientModel, x: np.ndarray, alpha: float, gamma: float, theta: WeightScheme, batch: int
) -> np.ndarray:
    """Exact expectation of a stochastic client update: the mean over every batch sequence.

    Each of the K local steps draws one of the C(n_examples, batch) subsets
    uniformly; a batch gradient does not depend on the order within its batch,
    so combinations cover every draw. All C(n_examples, batch)^K sequences go
    through the engine's own mini-batch kernel in one call. Exponential in K:
    a check for tiny instances, not a library routine.
    """
    subsets = itertools.combinations(range(len(client.examples)), batch)
    sequences = np.array(list(itertools.product(subsets, repeat=theta.size)))  # (S, K, B)
    return _stochastic_client_updates(client, x, alpha, gamma, theta, sequences).mean(axis=0)


def check_theorem1_stochastic(seed: int, trials: int = 20) -> CheckResult:
    """The exact mean of stochastic client updates equals the surrogate gradient.

    Violation is ||exact mean - surrogate gradient|| / (1 + ||surrogate
    gradient||); the two sides differ only by rounding, hence the 1e-12 gate.
    """
    worst = 0.0
    for trial in range(trials):
        rng = keyed_rng(seed, 0x12, trial)
        client = random_client_with_examples(rng)
        pop = Population.uniform([client])
        alpha = float(rng.choice([0.0, 0.5]))
        gamma = float(rng.uniform(0.0, 0.9)) / (pop.bounds.ell + alpha)
        theta = random_theta(rng, k_max=3)
        batch = int(rng.integers(1, min(2, len(client.examples)) + 1))
        x = rng.uniform(-2.0, 2.0, size=client.dim)
        predicted = qw.surrogate_gradient(pop, x, alpha, gamma, theta)
        mean = exact_stochastic_mean(client, x, alpha, gamma, theta, batch)
        error = float(np.linalg.norm(mean - predicted)) / (1.0 + float(np.linalg.norm(predicted)))
        worst = max(worst, error)
    return CheckResult("theorem1_stochastic", trials, worst, 1e-12)


def check_theorem2_maml(seed: int, trials: int = 100) -> CheckResult:
    """The MAML client equals the theta_{2K+1} client update."""
    worst = 0.0
    for trial in range(trials):
        rng = keyed_rng(seed, 0x21, trial)
        dim = int(rng.integers(1, 8))
        client = random_client(rng, dim, 1.0, 10.0, c_radius=1.0)
        alpha = float(rng.choice([0.0, 0.5]))
        k = int(rng.integers(1, 21))
        gamma = float(rng.uniform(0.0, 0.95)) / (10.0 + alpha)
        x = rng.uniform(-2.0, 2.0, size=dim)
        cfg = RunConfig(alpha=alpha, gamma=gamma, theta=WeightScheme.maml_equivalent(k), rounds=1)
        via_theta = client_update(client, x, cfg)
        via_maml = client_update_maml(client, x, k, gamma, alpha)
        worst = max(worst, float(np.linalg.norm(via_maml - via_theta)))
    return CheckResult("theorem2_maml", trials, worst, 1e-10)


def check_theorem3_rates(seed: int, trials: int = 50) -> CheckResult:
    """Measured contraction never beats the tuned rate at the exact kappa.

    plain and heavy-ball are checked per step over rounds 5..T (tolerance
    1e-6), Nesterov on the geometric-mean rate (tolerance 1e-3, its guarantee
    is not per-step monotone).
    """
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x31, trial)
        pop = rate_check_population(rng)
        alpha = float(rng.choice([0.0, 0.5]))
        gamma = float(rng.uniform(0.2, 0.8)) / (pop.bounds.ell + alpha)
        theta = WeightScheme.first_k(int(rng.integers(2, 21)))
        report = tb.kappa_exact(pop, alpha, gamma, theta)
        dec = eigh(qw.surrogate_hessian(pop, alpha, gamma, theta))
        x_star = qw.surrogate_minimizer(pop, alpha, gamma, theta)
        x0 = x_star + 100.0 * (dec.eigenvectors @ (np.ones(pop.dim) / np.sqrt(pop.dim)))
        for kind, rounds, tol in (("plain", 30, 1e-6), ("heavy_ball", 30, 1e-6), ("nesterov", 120, 1e-3)):
            opt = auto_tune(kind, dec.lambda_max, dec.lambda_min)
            cfg = RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=rounds)
            traj = run(pop, x0, cfg, opt)
            rho = tb.rho_from_kappa(report.kappa_exact, kind)
            if kind == "nesterov":
                measured = geometric_rate(traj, x_star, start_round=5)
            else:
                measured = max_step_contraction(traj, x_star, start_round=5)
            worst = max(worst, measured - (rho + tol))
    return CheckResult("theorem3_rates", trials, worst, 0.0)


def check_lemma1_positive_definite(seed: int, trials: int = 200) -> CheckResult:
    """Distortion matrices are positive definite for contractive gamma.

    Positivity is read off the eigenvalue map q(lambda_i) of each client's
    stored spectrum. True minima reach 1e-30, far below eigh's rounding floor
    eps * ||Q_i|| on the Horner matrix, so only the map can certify them; the
    Horner route's agreement with the map is a Tier-1 test.
    """
    worst = -np.inf
    count = 0
    for trial in range(trials):
        rng = keyed_rng(seed, 0x41, trial)
        pop = random_population(rng, max_dim=12, max_clients=6)
        alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
        q_eigs = tb.scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta)
        worst = max(worst, -float(q_eigs.min()))
        count += pop.n_clients
    return CheckResult("lemma1_positive_definite", count, worst, 0.0)


def check_lemma2_condition_bound(seed: int, trials: int = 200) -> CheckResult:
    """cond(surrogate Hessian) <= kappa_exact (expectation of extremes).

    Relative violation: the two sides come from different numerical routes
    (matrix polynomial + eigh vs scalar eigenvalue maps), so equality cases
    agree only to relative rounding.
    """
    worst = -np.inf
    count = 0
    for trial in range(trials):
        rng = keyed_rng(seed, 0x42, trial)
        pop = random_population(rng, max_dim=12, max_clients=6)
        alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
        report = tb.kappa_exact(pop, alpha, gamma, theta)
        if report.kappa_exact > 1e6:
            # eigh's absolute floor (eps * ||H||) swamps lambda_min beyond
            # this; the comparison of the two routes stops being meaningful.
            continue
        dec = eigh(qw.surrogate_hessian(pop, alpha, gamma, theta))
        cond_h = dec.lambda_max / dec.lambda_min
        worst = max(worst, (cond_h - report.kappa_exact) / max(report.kappa_exact, 1.0))
        count += 1
    return CheckResult("lemma2_condition_bound", count, worst, 1e-9)


def check_lemma34_kappa_bounds(seed: int, trials: int = 200) -> CheckResult:
    """kappa_exact <= phi/psi closed-form bound for the two weight families."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x43, trial)
        pop = random_population(rng, max_dim=12, max_clients=6)
        alpha = float(rng.choice([0.0, 0.5, 2.0]))
        k = int(rng.integers(1, 31))
        if rng.random() < 0.5:
            theta = WeightScheme.first_k(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (pop.bounds.ell + alpha)
        else:
            theta = WeightScheme.last_only(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (k * pop.bounds.ell + alpha)
        report = tb.kappa_exact(pop, alpha, gamma, theta)
        worst = max(
            worst, (report.kappa_exact - report.kappa_bound) / max(report.kappa_bound, 1.0)
        )
    return CheckResult("lemma34_kappa_bounds", trials, worst, 1e-9)


def check_lemma34_tightness(seed: int, trials: int = 200) -> CheckResult:
    """On a diag(ell, mu) single client the bounds are attained exactly."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x44, trial)
        mu = float(rng.uniform(0.5, 2.0))
        ell = mu * float(rng.uniform(1.0, 20.0))
        client = ClientModel(a_matrix=np.diag([ell, mu]), center=np.zeros(2))
        pop = Population.uniform([client], bounds=SpectrumBounds(mu, ell, 0.0))
        alpha = float(rng.choice([0.0, 0.5, 2.0]))
        k = int(rng.integers(1, 31))
        if rng.random() < 0.5:
            theta = WeightScheme.first_k(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (ell + alpha)
            bound = tb.kappa_bound_fedavg(mu, ell, alpha, gamma, k)
        else:
            theta = WeightScheme.last_only(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (k * ell + alpha)
            bound = tb.kappa_bound_maml(mu, ell, alpha, gamma, k)
        report = tb.kappa_exact(pop, alpha, gamma, theta)
        worst = max(worst, abs(report.kappa_exact - bound))
    return CheckResult("lemma34_tightness", trials, worst, 1e-10)


def check_lemma5_distance(seed: int, trials: int = 500) -> CheckResult:
    """Measured minimizer distance obeys the spectral bound (2C in d=1, 8C else)."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x51, trial)
        if trial % 2 == 0:
            pop = random_population(rng, max_dim=1, max_clients=10, min_dim=1)
        else:
            pop = random_population(rng, max_dim=20, max_clients=10, min_dim=2)
        alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
        measured = qw.minimizer_distance(pop, alpha, gamma, theta)
        bound = tb.distance_bound(pop, alpha, gamma, theta)
        worst = max(worst, measured - bound)
    return CheckResult("lemma5_distance", trials, worst, 1e-9)


def check_theorem4_distance(seed: int, trials: int = 200) -> CheckResult:
    """Minimizer distance obeys 8C (sqrt(k0)-sqrt(k))/(sqrt(k0)+sqrt(k))."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x52, trial)
        pop = random_population(rng, max_dim=10, max_clients=8, min_dim=2)
        alpha = float(rng.choice([0.0, 0.5]))
        k = int(rng.integers(1, 31))
        if rng.random() < 0.5:
            theta = WeightScheme.first_k(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (pop.bounds.ell + alpha)
            kappa = tb.kappa_bound_fedavg(pop.bounds.mu, pop.bounds.ell, alpha, gamma, k)
        else:
            theta = WeightScheme.last_only(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (k * pop.bounds.ell + alpha)
            kappa = tb.kappa_bound_maml(pop.bounds.mu, pop.bounds.ell, alpha, gamma, k)
        bound = tb.distance_bound_from_kappa(kappa, pop.bounds.kappa0, pop.bounds.c_radius)
        measured = qw.minimizer_distance(pop, alpha, gamma, theta)
        worst = max(worst, measured - bound)
    return CheckResult("theorem4_distance", trials, worst, 1e-9)


def check_lemma6_distortion_condition(seed: int, trials: int = 200) -> CheckResult:
    """cond(Q_i) <= kappa0 / kappa for both families under their preconditions."""
    worst = -np.inf
    count = 0
    for trial in range(trials):
        rng = keyed_rng(seed, 0x53, trial)
        pop = random_population(rng, max_dim=10, max_clients=6, min_dim=2)
        mu, ell = pop.bounds.mu, pop.bounds.ell
        alpha = float(rng.choice([0.0, 0.5]))
        k = int(rng.integers(1, 31))
        if rng.random() < 0.5:
            theta = WeightScheme.first_k(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (ell + alpha)
            kappa = tb.kappa_bound_fedavg(mu, ell, alpha, gamma, k)
        else:
            theta = WeightScheme.last_only(k)
            gamma = float(rng.uniform(0.0, 0.95)) / (k * ell + alpha)
            kappa = tb.kappa_bound_maml(mu, ell, alpha, gamma, k)
        allowed = pop.bounds.kappa0 / kappa
        q_eigs = tb.scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta)
        conditions = q_eigs.max(axis=1) / q_eigs.min(axis=1)
        worst = max(worst, float(conditions.max()) - allowed)
        count += pop.n_clients
    return CheckResult("lemma6_distortion_condition", count, worst, 1e-9)


def check_mad_scalar(seed: int, trials: int = 10**4) -> CheckResult:
    """Mean absolute deviation bound, with equality on two-point supports."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x61, trial)
        two_point = trial % 5 == 0
        dist = random_discrete_distribution(rng, two_point=two_point)
        gap = tb.mad(dist) - tb.mad_bound(dist)
        worst = max(worst, abs(gap) if two_point else gap)
    return CheckResult("mad_scalar", trials, worst, 1e-12)


def check_mad_matrix(seed: int, trials: int = 10**3) -> CheckResult:
    """Matrix-weighted discrepancy bound M(X|Y) <= 2 (b - a) / b."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x62, trial)
        xs, ys, a, b = random_commuting_family(rng)
        m = tb.matrix_weighted_discrepancy(xs, ys)
        worst = max(worst, m - 2.0 * (b - a) / b)
    return CheckResult("mad_matrix", trials, worst, 1e-9)


def check_corollary1(seed: int, trials: int = 50) -> CheckResult:
    """Iterates approach the empirical optimum within rho^T d0 + distance bound."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x71, trial)
        pop = random_population(rng, max_dim=10, max_clients=6, min_dim=2, min_clients=2)
        alpha = float(rng.choice([0.0, 0.5]))
        k = int(rng.integers(1, 21))
        theta = WeightScheme.first_k(k)
        gamma = float(rng.uniform(0.1, 0.9)) / (pop.bounds.ell + alpha)
        kappa = tb.kappa_bound_fedavg(pop.bounds.mu, pop.bounds.ell, alpha, gamma, k)
        rho = tb.rho_from_kappa(kappa, "plain")
        dec = eigh(qw.surrogate_hessian(pop, alpha, gamma, theta))
        opt = auto_tune("plain", dec.lambda_max, dec.lambda_min)
        x_star_surr = qw.surrogate_minimizer(pop, alpha, gamma, theta)
        x_star = qw.empirical_minimizer(pop)
        x0 = rng.uniform(-3.0, 3.0, size=pop.dim)
        rounds = 20
        cfg = RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=rounds)
        traj = run(pop, x0, cfg, opt)
        lhs = float(np.linalg.norm(traj.iterates[-1] - x_star))
        rhs = rho**rounds * float(np.linalg.norm(x0 - x_star_surr)) + tb.distance_bound_from_kappa(
            kappa, pop.bounds.kappa0, pop.bounds.c_radius
        )
        worst = max(worst, lhs - rhs)
    return CheckResult("corollary1", trials, worst, 1e-9)


def check_seed_determinism(seed: int, trials: int = 10) -> CheckResult:
    """Identical configs give bit-identical stochastic trajectories."""
    worst = -np.inf
    for trial in range(trials):
        rng = keyed_rng(seed, 0x81, trial)
        dim = int(rng.integers(1, 4))
        clients = tuple(random_client_with_examples(rng, dim=dim) for _ in range(3))
        pop = Population.uniform(clients)
        theta = random_theta(rng, k_max=3)
        gamma = float(rng.uniform(0.0, 0.5)) / pop.bounds.ell
        cfg = RunConfig(
            alpha=0.0,
            gamma=gamma,
            theta=theta,
            rounds=8,
            seed=int(rng.integers(0, 2**32)),
            mode="stochastic",
            clients_per_round=2,
            batch_size=1,
        )
        opt = auto_tune("plain", pop.bounds.ell, pop.bounds.mu)
        x0 = rng.uniform(-1.0, 1.0, size=pop.dim)
        t1 = run(pop, x0, cfg, opt)
        t2 = run(pop, x0, cfg, opt)
        equal = np.array_equal(t1.iterates, t2.iterates) and np.array_equal(
            t1.pseudo_gradients, t2.pseudo_gradients
        )
        worst = max(worst, 0.0 if equal else 1.0)
    return CheckResult("seed_determinism", trials, worst, 0.0)


SUITES = {
    "theorem1_deterministic": check_theorem1_deterministic,
    "theorem1_stochastic": check_theorem1_stochastic,
    "theorem2_maml": check_theorem2_maml,
    "theorem3_rates": check_theorem3_rates,
    "lemma1_positive_definite": check_lemma1_positive_definite,
    "lemma2_condition_bound": check_lemma2_condition_bound,
    "lemma34_kappa_bounds": check_lemma34_kappa_bounds,
    "lemma34_tightness": check_lemma34_tightness,
    "lemma5_distance": check_lemma5_distance,
    "theorem4_distance": check_theorem4_distance,
    "lemma6_distortion_condition": check_lemma6_distortion_condition,
    "mad_scalar": check_mad_scalar,
    "mad_matrix": check_mad_matrix,
    "corollary1": check_corollary1,
    "seed_determinism": check_seed_determinism,
}


def select_suites(only: str | None) -> list[str]:
    """Resolve a comma-separated prefix list ('theorem1' matches both variants)."""
    if not only:
        return list(SUITES)
    names = []
    for token in only.split(","):
        token = token.strip()
        matches = [name for name in SUITES if name.startswith(token)]
        if not matches:
            raise InvalidInputError(f"no verification suite matches {token!r}")
        names.extend(m for m in matches if m not in names)
    return names


def run_checks(
    only: str | None = None, seed: int = 0, trials: int | None = None
) -> dict:
    """Run the selected suites and assemble the JSON-ready report."""
    if trials is not None and trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {trials}")
    results = []
    for name in select_suites(only):
        fn = SUITES[name]
        result = fn(seed) if trials is None else fn(seed, trials)
        results.append(result)
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "checks": [r.as_dict() for r in results],
        "all_pass": bool(all(r.passed for r in results)),
    }
