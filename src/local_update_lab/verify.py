"""Self-checking suites: every analytic claim, verified on random instances.

Each suite is one instance function, registered with `suite`: it draws one
random instance and measures the violation of one claim on it. Trial t of a
suite draws from its own stream keyed_rng(seed, tag, t), so trials are
independent and one update rule (_worst) folds them, or the partial results
of contiguous trial ranges, into {name, instances, max_violation, threshold,
pass}. run_suites cuts each suite's trials into one range per CPU and runs
the ranges on a forked worker pool; the report does not depend on the CPU
count. The suites back the `verify` and `mad-check` CLI commands (one
report path: run_suites, then checks_report) and the test suite; the
generators are shared so tests exercise the same instance distributions.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import bounds as tb
from . import quadratics as qw
from .engine import (
    RunConfig,
    _deterministic_updates,
    _stochastic_client_updates,
    auto_tune,
    auto_tune_for,
    client_update,
    client_update_maml,
    run,
)
from .errors import InvalidInputError
from .frontier import empirical_rate_crosscheck
from .matrices import SpectrumBounds, check_count, check_integer, eigh, euclidean_norm, keyed_rng, symmetrize
from .matrices import symmetric_from_eigenpairs
from .quadratics import ClientModel, Population, QuadraticExample, WeightScheme

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Random instance generators
# ---------------------------------------------------------------------------


def _orthonormal(gaussians: np.ndarray) -> np.ndarray:
    """Q sign(diag R) for G = QR, a unique Q, of one (d, d) G or each of an (n, d, d) stack as if alone."""
    q, r = np.linalg.qr(gaussians)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_orthonormal(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _orthonormal(rng.standard_normal((dim, dim)))


def _center_in_ball(rng: np.random.Generator, dim: int, c_radius: float) -> np.ndarray:
    center = rng.standard_normal(dim)
    return center / max(euclidean_norm(center), 1e-12) * rng.uniform(0.0, c_radius)


def _draw_clients(
    rng: np.random.Generator, n: int, dim: int, mu: float, ell: float, c_radius: float, pin_extremes: bool
) -> tuple[np.ndarray, np.ndarray]:
    """n clients' matrices (n, dim, dim) and centers (n, dim), spectra inside [mu, ell].

    Each client's numbers are drawn in turn (eigenbasis Gaussian, spectrum,
    center); the eigenbases then come from one stacked _orthonormal, the
    draw of random_orthonormal, and every matrix is bit-identical to one
    drawn alone.
    """
    centers = np.empty((n, dim))
    if dim == 1:
        matrices = np.empty((n, 1, 1))
        for a, center in zip(matrices, centers):
            a[0, 0] = ell if pin_extremes else rng.uniform(mu, ell)
            center[:] = _center_in_ball(rng, dim, c_radius)
        return matrices, centers
    gaussians, spectra = np.empty((n, dim, dim)), np.empty((n, dim))
    for gaussian, spectrum, center in zip(gaussians, spectra, centers):
        gaussian[:] = rng.standard_normal((dim, dim))
        spectrum[:] = np.exp(rng.uniform(np.log(mu), np.log(ell), size=dim))
        if pin_extremes:
            spectrum[0], spectrum[-1] = mu, ell
        center[:] = _center_in_ball(rng, dim, c_radius)
    return symmetric_from_eigenpairs(_orthonormal(gaussians), spectra), centers


def random_client(rng: np.random.Generator, dim: int, mu: float, ell: float, c_radius: float) -> ClientModel:
    """Random client with spectrum inside [mu, ell] and center inside the C-ball."""
    matrices, centers = _draw_clients(rng, 1, dim, mu, ell, c_radius, False)
    return ClientModel(a_matrix=matrices[0], center=centers[0])


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

    The dimension and the client count are drawn first, then the clients
    (see _draw_clients), then the weights; the stacked draws go to
    Population.from_stacks. Ranges that admit no dimension or no client are
    rejected before anything is drawn. The four counts must be integers.
    """
    for value, name in ((min_dim, "min_dim"), (max_dim, "max_dim"), (min_clients, "min_clients"),
                        (max_clients, "max_clients")):
        check_integer(value, name)
    if min_dim < 1 or min_clients < 1 or max_dim < min_dim or max_clients < min_clients:
        raise InvalidInputError(
            "random_population needs 1 <= min_dim <= max_dim and 1 <= min_clients <= max_clients, "
            f"got dim {min_dim}..{max_dim} and clients {min_clients}..{max_clients}"
        )
    bounds = SpectrumBounds(mu, ell, c_radius)
    dim = int(rng.integers(min_dim, max_dim + 1))
    n = int(rng.integers(min_clients, max_clients + 1))
    matrices, centers = _draw_clients(rng, n, dim, mu, ell, c_radius, pin_extremes)
    if uniform_weights:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.dirichlet(np.ones(n))
        weights = weights / weights.sum()
    return Population.from_stacks(matrices, centers, weights, bounds)


def rate_check_population(rng: np.random.Generator) -> Population:
    """Heterogeneous population for momentum rate checks: spectra in [1, 10], centers in the unit ball.

    Clients mix random eigenbases with per-client extremes pinned at (mu,
    ell), so the exact condition number E[max]/E[min] sits strictly above the
    condition number of the averaged Hessian. theorem3_rates checks both
    sides of that gap: the engine's round contracts at the tuned rate of
    cond(H), and that rate stays below the rate at kappa_exact.
    """
    return random_population(
        rng, min_dim=3, max_dim=10, min_clients=4, max_clients=8, pin_extremes=True, uniform_weights=True
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
    rng: np.random.Generator, dim_max: int = 4, dim: int | None = None
) -> ClientModel:
    """Client backed by a finite example set whose mean matrix is SPD, spectrum in [1, 10].

    Example matrices are A +/- a symmetric perturbation (paired so the mean
    is exactly A); example centers are arbitrary, the client center follows
    from the moments.
    """
    if dim is None:
        dim = int(rng.integers(1, dim_max + 1))
    base = random_client(rng, dim, 1.0, 10.0, c_radius=1.0)
    n_pairs = int(rng.integers(1, 4))
    examples = []
    for _ in range(n_pairs):
        s = 0.3 * symmetrize(rng.standard_normal((dim, dim)))
        for sign in (1.0, -1.0):
            center = rng.uniform(-1.0, 1.0, size=dim)
            examples.append(QuadraticExample(b_matrix=base.a_matrix + sign * s, center=center))
    return ClientModel.from_examples(examples)


def random_discrete_distribution(
    rng: np.random.Generator, two_point: bool = False
) -> tb.DiscreteDistribution:
    if two_point:
        values = np.sort(rng.uniform(-5.0, 5.0, size=2))
        while values[0] == values[1]:
            values = np.sort(rng.uniform(-5.0, 5.0, size=2))
        p = rng.uniform(0.05, 0.95)
        probs = np.array([p, 1.0 - p])
    else:
        n = int(rng.integers(1, 9))
        values = rng.uniform(-5.0, 5.0, size=n)
        probs = rng.dirichlet(np.ones(n))
    probs = probs / probs.sum()
    return tb.DiscreteDistribution(values=values, probs=probs)


def random_commuting_family(
    rng: np.random.Generator, dim_max: int = 6, n_max: int = 6
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(X, Y, a, b): (n, d, d) stacks sharing one eigenbasis, with a, b the X extremes.

    The eigenvalues are drawn pair by pair in the stream order of drawing
    each pair whole; X and Y are then built as two stacks.
    """
    dim = int(rng.integers(1, dim_max + 1))
    n = int(rng.integers(1, n_max + 1))
    basis = random_orthonormal(rng, dim)
    a_lo = rng.uniform(0.2, 2.0)
    b_hi = a_lo + rng.uniform(0.1, 5.0)
    x_eigs, y_eigs = np.empty((n, dim)), np.empty((n, dim))
    for lx, ly in zip(x_eigs, y_eigs):
        lx[:] = rng.uniform(a_lo, b_hi, size=dim)
        if rng.random() < 0.3:
            lx[0] = a_lo
        if rng.random() < 0.3:
            lx[-1] = b_hi
        ly[:] = rng.uniform(0.1, 2.0, size=dim)
    xs = symmetric_from_eigenpairs(basis, x_eigs)
    ys = symmetric_from_eigenpairs(basis, y_eigs)
    return xs, ys, float(x_eigs.min()), float(x_eigs.max())


# ---------------------------------------------------------------------------
# Check results and the suite loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one suite: worst violation over the generated instances.

    A suite that checked no instance fails: it has shown nothing.
    worst_trial is the index of the trial that set max_violation (None when
    no trial did); the JSON report leaves it out.
    """

    name: str
    instances: int
    max_violation: float
    threshold: float
    worst_trial: int | None = None

    @property
    def passed(self) -> bool:
        return self.instances > 0 and self.max_violation <= self.threshold

    def as_dict(self) -> dict:
        """The JSON report entry {name, instances, max_violation, threshold, pass}.

        A non-finite max_violation (NaN, or -inf when no instance was
        checked) is written as null, so the report is strict JSON.
        """
        violation = float(self.max_violation)
        return {
            "name": self.name,
            "instances": int(self.instances),
            "max_violation": violation if math.isfinite(violation) else None,
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
        }


SUITES: dict[str, Callable[..., CheckResult]] = {}


def _worst(outcomes) -> tuple[float, int | None, int]:
    """(worst violation, its trial, instances) over (violation, trial, instances) in trial order.

    A strictly greater violation replaces the worst, so the first trial that
    reached it is kept. A NaN violation beats every number and is never
    replaced, so it fails the suite; max() would drop it. Folding the
    partial results of contiguous trial ranges, in order, gives the same
    triple as folding their trials one by one.
    """
    worst, worst_trial, count = -np.inf, None, 0
    for violation, trial, instances in outcomes:
        if violation > worst or (violation != violation and worst == worst):
            worst, worst_trial = violation, trial
        count += instances
    return worst, worst_trial, count


class Suite:
    """A registered verification suite: one instance function over keyed trials.

    Calling it as check(seed, trials) draws trial t from keyed_rng(seed,
    tag, t), so `lul verify --only name --seed seed --trials t+1` reruns it,
    and reports the worst violation (see _worst). trial_range runs trials
    [lo, hi) alone and returns their partial (worst, worst_trial,
    instances), which is how run_suites splits a suite over worker processes.
    """

    def __init__(self, name: str, tag: int, threshold: float, trials: int, instance):
        self.name, self.tag, self.threshold, self.trials = name, tag, threshold, trials
        self.instance = instance
        self.__name__ = self.__qualname__ = instance.__name__
        self.__doc__ = instance.__doc__

    def trial_range(self, seed: int, lo: int, hi: int) -> tuple[float, int | None, int]:
        def outcomes():
            for trial in range(lo, hi):
                outcome = self.instance(keyed_rng(seed, self.tag, trial), trial)
                if outcome is not None:
                    violation, instances = outcome
                    yield violation, trial, instances

        return _worst(outcomes())

    def result(self, worst: float, worst_trial: int | None, count: int) -> CheckResult:
        return CheckResult(self.name, count, worst, self.threshold, worst_trial)

    def __call__(self, seed: int, trials: int | None = None) -> CheckResult:
        return self.result(*self.trial_range(seed, 0, self.trials if trials is None else trials))


def suite(name: str, tag: int, threshold: float, trials: int):
    """Register an instance function as the verification suite `name`.

    The instance function maps (rng, trial) to (violation, instances), or to
    None for a trial it skips; trials is the suite's default trial count.
    """

    def register(instance: Callable[[np.random.Generator, int], tuple[float, int] | None]) -> Suite:
        check = Suite(name, tag, threshold, trials, instance)
        SUITES[name] = check
        return check

    return register


def _family_instance(
    rng: np.random.Generator, ell: float, alphas: tuple[float, ...]
) -> tuple[float, float, WeightScheme]:
    """(alpha, gamma, theta) for a first-K or last-only scheme, K in 1..30.

    gamma is drawn strictly inside the family's precondition range, so the
    closed-form phi/psi bound always applies; each suite computes it once,
    itself or as kappa_exact's kappa_bound.
    """
    alpha = float(rng.choice(alphas))
    k = int(rng.integers(1, 31))
    if rng.random() < 0.5:
        theta, gamma = WeightScheme.first_k(k), float(rng.uniform(0.0, 0.95)) / (ell + alpha)
    else:
        theta, gamma = WeightScheme.last_only(k), float(rng.uniform(0.0, 0.95)) / (k * ell + alpha)
    return alpha, gamma, theta


def theorem1_client_gap(
    pop: Population, x: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> float:
    """Worst ||deterministic client update - Q_i A_i (x - c_i)|| over the clients at x.

    The engine's batched K-step kernel updates every client in one call, and
    the rows of quadratics' per-client surrogate gradients come from the
    stacked eigenpair kernel distortion_matrix; each row of either is
    bit-identical to that client computed alone. If any gap is NaN, so is
    the result.
    """
    updates = _deterministic_updates(pop.matrices, pop.centers, x, alpha, gamma, theta)
    gaps = [
        euclidean_norm(update - row)
        for update, row in zip(updates, qw._surrogate_client_gradients(pop, x, alpha, gamma, theta))
    ]
    return float(np.max(gaps))  # np.max, unlike max(), keeps a NaN


@suite("theorem1_deterministic", tag=0x11, threshold=1e-9, trials=200)
def check_theorem1_deterministic(rng, trial):
    """Deterministic client updates equal the surrogate gradient exactly."""
    pop = random_population(rng, max_dim=20, max_clients=10)
    alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=50)
    x = rng.uniform(-2.0, 2.0, size=pop.dim)
    return theorem1_client_gap(pop, x, alpha, gamma, theta), pop.n_clients


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


@suite("theorem1_stochastic", tag=0x12, threshold=1e-12, trials=20)
def check_theorem1_stochastic(rng, trial):
    """The exact mean of stochastic client updates equals the surrogate gradient.

    Violation is ||exact mean - surrogate gradient|| / (1 + ||surrogate
    gradient||); the two sides differ only by rounding, hence the 1e-12 gate.
    """
    client = random_client_with_examples(rng)
    pop = Population.uniform([client])
    alpha = float(rng.choice([0.0, 0.5]))
    gamma = float(rng.uniform(0.0, 0.9)) / (pop.bounds.ell + alpha)
    theta = random_theta(rng, k_max=3)
    batch = int(rng.integers(1, min(2, len(client.examples)) + 1))
    x = rng.uniform(-2.0, 2.0, size=client.dim)
    predicted = qw.surrogate_gradient(pop, x, alpha, gamma, theta)
    mean = exact_stochastic_mean(client, x, alpha, gamma, theta, batch)
    return euclidean_norm(mean - predicted) / (1.0 + euclidean_norm(predicted)), 1


@suite("theorem2_maml", tag=0x21, threshold=1e-10, trials=100)
def check_theorem2_maml(rng, trial):
    """The MAML client equals the theta_{2K+1} client update."""
    dim = int(rng.integers(1, 8))
    client = random_client(rng, dim, 1.0, 10.0, c_radius=1.0)
    alpha = float(rng.choice([0.0, 0.5]))
    k = int(rng.integers(1, 21))
    gamma = float(rng.uniform(0.0, 0.95)) / (10.0 + alpha)
    x = rng.uniform(-2.0, 2.0, size=dim)
    cfg = RunConfig(alpha=alpha, gamma=gamma, theta=WeightScheme.maml_equivalent(k), rounds=1)
    via_theta = client_update(client, x, cfg)
    via_maml = client_update_maml(client, x, k, gamma, alpha)
    return euclidean_norm(via_maml - via_theta), 1


@suite("theorem3_rates", tag=0x31, threshold=0.0, trials=50)
def check_theorem3_rates(rng, trial):
    """The engine's tuned round contracts at the rate of Theorem 3.

    Each server optimizer is auto-tuned on the surrogate Hessian H, all
    three in one frontier.empirical_rate_crosscheck call. The spectral
    radius of the engine's round operator must equal rho_from_kappa(cond H)
    within 1e-6 (tuned momentum operators have double eigenvalues, which
    eig resolves to about sqrt(eps)), and that rate must not exceed
    rho_from_kappa(kappa_exact).
    """
    pop = rate_check_population(rng)
    alpha = float(rng.choice([0.0, 0.5]))
    gamma = float(rng.uniform(0.2, 0.8)) / (pop.bounds.ell + alpha)
    theta = WeightScheme.first_k(int(rng.integers(2, 21)))
    violations = []
    for measured, tuned, predicted in empirical_rate_crosscheck(pop, alpha, gamma, theta).values():
        violations += [abs(measured - tuned) - 1e-6, tuned - predicted]
    return float(np.max(violations)), 1  # np.max, unlike max(), keeps a NaN


@suite("lemma1_positive_definite", tag=0x41, threshold=0.0, trials=200)
def check_lemma1_positive_definite(rng, trial):
    """Distortion matrices are positive definite for contractive gamma.

    Positivity is read off the eigenvalue map q(lambda_i) of each client's
    stored spectrum, the same map distortion_matrix builds Q_i from. True
    minima reach 1e-30, far below eigh's rounding floor eps * ||Q_i|| on the
    matrix, so only the map can certify them; the matrix Q_i's agreement
    with the map is a Tier-1 test.
    """
    pop = random_population(rng, max_dim=12, max_clients=6)
    alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
    q_eigs = tb.scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta)
    return -float(q_eigs.min()), pop.n_clients


@suite("lemma2_condition_bound", tag=0x42, threshold=1e-9, trials=200)
def check_lemma2_condition_bound(rng, trial):
    """cond(surrogate Hessian) <= kappa_exact (expectation of extremes).

    Relative violation: the two sides come from different numerical routes
    (eigh of the assembled sum of V_i diag(q) V_i^T A_i vs scalar eigenvalue
    maps of the stored spectra), so equality cases
    agree only to relative rounding.
    """
    pop = random_population(rng, max_dim=12, max_clients=6)
    alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
    report = tb.kappa_exact(pop, alpha, gamma, theta)
    if report.kappa_exact > 1e6:
        # eigh's absolute floor (eps * ||H||) swamps lambda_min beyond
        # this; the comparison of the two routes stops being meaningful.
        return None
    dec = eigh(qw.surrogate_hessian(pop, alpha, gamma, theta))
    cond_h = dec.lambda_max / dec.lambda_min
    return (cond_h - report.kappa_exact) / max(report.kappa_exact, 1.0), 1


@suite("lemma34_kappa_bounds", tag=0x43, threshold=1e-9, trials=200)
def check_lemma34_kappa_bounds(rng, trial):
    """kappa_exact <= phi/psi closed-form bound for the two weight families."""
    pop = random_population(rng, max_dim=12, max_clients=6)
    alpha, gamma, theta = _family_instance(rng, pop.bounds.ell, (0.0, 0.5, 2.0))
    report = tb.kappa_exact(pop, alpha, gamma, theta)
    return (report.kappa_exact - report.kappa_bound) / max(report.kappa_bound, 1.0), 1


@suite("lemma34_tightness", tag=0x44, threshold=1e-10, trials=200)
def check_lemma34_tightness(rng, trial):
    """On a diag(ell, mu) single client the bounds are attained exactly."""
    mu = float(rng.uniform(0.5, 2.0))
    ell = mu * float(rng.uniform(1.0, 20.0))
    client = ClientModel(a_matrix=np.diag([ell, mu]), center=np.zeros(2))
    pop = Population.uniform([client], bounds=SpectrumBounds(mu, ell, 0.0))
    alpha, gamma, theta = _family_instance(rng, ell, (0.0, 0.5, 2.0))
    report = tb.kappa_exact(pop, alpha, gamma, theta)  # its kappa_bound is the phi/psi bound at (mu, ell)
    return abs(report.kappa_exact - report.kappa_bound), 1


@suite("lemma5_distance", tag=0x51, threshold=1e-9, trials=500)
def check_lemma5_distance(rng, trial):
    """Measured minimizer distance obeys the spectral bound (2C in d=1, 8C else)."""
    if trial % 2 == 0:
        pop = random_population(rng, max_dim=1, max_clients=10, min_dim=1)
    else:
        pop = random_population(rng, max_dim=20, max_clients=10, min_dim=2)
    alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
    measured = qw.minimizer_distance(pop, alpha, gamma, theta)
    return measured - tb.distance_bound(pop, alpha, gamma, theta), 1


@suite("theorem4_distance", tag=0x52, threshold=1e-9, trials=200)
def check_theorem4_distance(rng, trial):
    """Minimizer distance obeys 8C (sqrt(k0)-sqrt(k))/(sqrt(k0)+sqrt(k))."""
    pop = random_population(rng, max_dim=10, max_clients=8, min_dim=2)
    alpha, gamma, theta = _family_instance(rng, pop.bounds.ell, (0.0, 0.5))
    kappa = tb.kappa_bound(pop.bounds.mu, pop.bounds.ell, alpha, gamma, theta)
    bound = tb.distance_bound_from_kappa(kappa, pop.bounds.kappa0, pop.bounds.c_radius)
    return qw.minimizer_distance(pop, alpha, gamma, theta) - bound, 1


@suite("lemma6_distortion_condition", tag=0x53, threshold=1e-9, trials=200)
def check_lemma6_distortion_condition(rng, trial):
    """cond(Q_i) <= kappa0 / kappa for both families under their preconditions."""
    pop = random_population(rng, max_dim=10, max_clients=6, min_dim=2)
    alpha, gamma, theta = _family_instance(rng, pop.bounds.ell, (0.0, 0.5))
    kappa = tb.kappa_bound(pop.bounds.mu, pop.bounds.ell, alpha, gamma, theta)
    q_eigs = tb.scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta)
    conditions = q_eigs.max(axis=1) / q_eigs.min(axis=1)
    return float(conditions.max()) - pop.bounds.kappa0 / kappa, pop.n_clients


@suite("mad_scalar", tag=0x61, threshold=1e-12, trials=10**4)
def check_mad_scalar(rng, trial):
    """Mean absolute deviation bound, with equality on two-point supports."""
    two_point = trial % 5 == 0
    dist = random_discrete_distribution(rng, two_point=two_point)
    gap = tb.mad(dist) - tb.mad_bound(dist)
    return (abs(gap) if two_point else gap), 1


@suite("mad_matrix", tag=0x62, threshold=1e-9, trials=10**3)
def check_mad_matrix(rng, trial):
    """Matrix-weighted discrepancy bound M(X|Y) <= 2 (b - a) / b."""
    xs, ys, a, b = random_commuting_family(rng)
    return tb.matrix_weighted_discrepancy(xs, ys) - 2.0 * (b - a) / b, 1


@suite("corollary1", tag=0x71, threshold=1e-9, trials=50)
def check_corollary1(rng, trial):
    """Iterates approach the empirical optimum within rho^T d0 + distance bound."""
    pop = random_population(rng, max_dim=10, max_clients=6, min_dim=2, min_clients=2)
    alpha = float(rng.choice([0.0, 0.5]))
    k = int(rng.integers(1, 21))
    theta = WeightScheme.first_k(k)
    gamma = float(rng.uniform(0.1, 0.9)) / (pop.bounds.ell + alpha)
    kappa = tb.kappa_bound(pop.bounds.mu, pop.bounds.ell, alpha, gamma, theta)
    rho = tb.rho_from_kappa(kappa, "plain")
    opt = auto_tune_for(pop, alpha, gamma, theta, "plain")
    x_star_surr = qw.surrogate_minimizer(pop, alpha, gamma, theta)
    x_star = qw.empirical_minimizer(pop)
    x0 = rng.uniform(-3.0, 3.0, size=pop.dim)
    rounds = 20
    cfg = RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=rounds)
    traj = run(pop, x0, cfg, opt)
    lhs = euclidean_norm(traj.iterates[-1] - x_star)
    rhs = rho**rounds * euclidean_norm(x0 - x_star_surr) + tb.distance_bound_from_kappa(
        kappa, pop.bounds.kappa0, pop.bounds.c_radius
    )
    return lhs - rhs, 1


@suite("seed_determinism", tag=0x81, threshold=0.0, trials=10)
def check_seed_determinism(rng, trial):
    """Identical configs give bit-identical stochastic trajectories."""
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
    return (0.0 if equal else 1.0), 1


def select_suites(only: str | None) -> list[str]:
    """Resolve a comma-separated prefix list ('theorem1' matches both variants); None selects every suite.

    An empty or blank token matches no suite, so it raises like an unknown one.
    """
    if only is None:
        return list(SUITES)
    names = []
    for token in only.split(","):
        token = token.strip()
        matches = [name for name in SUITES if token and name.startswith(token)]
        if not matches:
            raise InvalidInputError(f"no verification suite matches {token!r}")
        names.extend(m for m in matches if m not in names)
    return names


def _worker_count() -> int:
    """Processes run_suites may fork: one per CPU this process may run on, 1 without fork."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _split(trials: int, workers: int) -> list[tuple[int, int]]:
    """Trials 0..trials-1 as one contiguous (lo, hi) range per worker, at most one per trial."""
    parts = min(trials, workers)
    return [(trials * i // parts, trials * (i + 1) // parts) for i in range(parts)]


def _run_range(task: tuple[str, int, int, int]) -> tuple[float, int | None, int]:
    """Worker side of run_suites: one trial range of a registered suite.

    A forked worker holds the parent's SUITES as it was when the pool started.
    """
    name, seed, lo, hi = task
    return SUITES[name].trial_range(seed, lo, hi)


def run_suites(
    only: str | None = None, seed: int = 0, trials: int | None = None
) -> list[CheckResult]:
    """Run the suites that select_suites(only) names, in its order.

    With more than one CPU, each Suite's trials are cut into one contiguous
    range per worker (one per trial when it has fewer) and run on a forked
    pool. The partial results are folded back in trial order by the suite's
    own rule (_worst), so every result, its worst trial included, is the one
    the in-process loop gives, whatever the CPU count. A SUITES entry that is
    not a Suite (a plain function, or a wrapper around a Suite) runs whole,
    in this process, in its place in the order. When
    an instance raises, the error re-raised is the one the in-process loop
    meets first: that of the first failing range in suite and trial order.
    Everything runs in this process without fork, with one CPU, or when no
    selected suite has more than one trial.
    """
    if trials is not None:
        check_count(trials, "trials")
    checks = [(name, SUITES[name]) for name in select_suites(only)]

    def whole(check) -> CheckResult:
        return check(seed) if trials is None else check(seed, trials)

    workers = _worker_count()
    ranges = {
        name: _split(check.trials if trials is None else trials, workers)
        for name, check in checks
        if isinstance(check, Suite)
    }
    if all(len(spans) <= 1 for spans in ranges.values()):
        return [whole(check) for _, check in checks]
    tasks = [(name, seed, lo, hi) for name, spans in ranges.items() for lo, hi in spans]
    # Leaving the block terminates and joins every worker, on success or error.
    with multiprocessing.get_context("fork").Pool(min(workers, len(tasks))) as pool:
        partials = pool.imap(_run_range, tasks)  # in task order, so the first error is the loop's
        return [
            check.result(*_worst([next(partials) for _ in ranges[name]])) if name in ranges else whole(check)
            for name, check in checks
        ]


def checks_report(seed: int, results: list[CheckResult]) -> dict:
    """The JSON-ready report of suite results."""
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "checks": [r.as_dict() for r in results],
        "all_pass": bool(all(r.passed for r in results)),
    }
