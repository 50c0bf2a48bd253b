"""Closed-form analysis: condition numbers, rates, and distance bounds.

Everything here is an exact formula evaluation, no simulation. One scalar
eigenvalue map is central: for a client with matrix eigenvalue lam, the
distortion matrix has eigenvalue q(lam) = sum_k theta_k xi^(k-1) and the
distorted Hessian has q(lam) lam, where xi = 1 - gamma (lam + alpha). The
closed-form condition bound of the FedAvg and MAML weight families (the
paper's phi and psi) is that map at ell and mu, the exact condition number
follows from mapping whole spectra, and the distance between surrogate and
empirical optima is bounded through a mean-absolute-deviation inequality and
its matrix-weighted analog.

This module is the eigenvalue route to the surrogate: the client spectra
stored on a Population (Population.spectra, computed once at construction)
go through the one map, scheme_q_eigenvalues (defined beside WeightScheme in
quadratics.py and imported here), into kappa_exact and distance_bound, with
no eigendecomposition per call; kappa_bound maps the two floats ell and mu
through it. The matrix route of quadratics.py (distortion_matrix,
surrogate_hessian/gradient/minimizer) builds Q_i from each client's
eigenpairs through the same map; the verification suites compare both with
the engine's literal K-step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quadratics as qw
from .errors import ConditioningError, InvalidInputError
from .matrices import SPD_LAMBDA_MIN, SpectrumBounds, check_c_radius, check_count, check_sums_to_one
from .matrices import check_symmetric, check_symmetric_stack, real_array
# eigh stays bound here although the weighted-family check decomposes its
# whole Y stack with np.linalg.eigh: perfbench traces matrices.eigh in every
# module namespace that binds it, and its tests look it up in this one.
from .matrices import eigh  # noqa: F401
from .quadratics import Population, WeightScheme, scheme_q_eigenvalues

OPTIMIZER_KINDS = ("plain", "nesterov", "heavy_ball")

# A weighted pair commutes when ||X Y - Y X|| <= _COMMUTE_TOL (1 + ||X|| ||Y||).
_COMMUTE_TOL = 1e-9


def maml_bound_applies(ell: float, alpha: float, gamma: float, k: int) -> bool:
    """Whether gamma < (K ell + alpha)^-1, the precondition of the last-only bound.

    False for a NaN argument.
    """
    return bool(gamma * (k * ell + alpha) < 1.0)


def kappa_bound(mu: float, ell: float, alpha: float, gamma: float, theta: WeightScheme) -> float:
    """Closed-form condition-number bound of theta's family; needs gamma < (ell + alpha)^-1.

    q(ell) ell / (q(mu) mu) for the unit scheme of theta's kind, as two
    scalar maps (numpy's array power differs from its scalar one in the last
    bit). A uniform prefix (phi in the paper) gives ell/mu iff gamma = 0 or
    K = 1 and saturates to 1 as K grows when alpha = 0. A last-only scheme
    (psi) needs gamma < (K ell + alpha)^-1, outside which only kappa_exact
    applies; where its xi^(K-1) underflows to 0 the ratio is taken in log
    space. A general scheme has no closed form.
    """
    qw.require_contractive(SpectrumBounds(mu=mu, ell=ell), alpha, gamma)
    kind, k, _ = theta.structure()
    if kind == "general":
        raise InvalidInputError("a closed-form kappa bound needs a first-K or last-only weight scheme")
    if kind == "last_only" and not maml_bound_applies(ell, alpha, gamma, k):
        raise ConditioningError(
            f"need gamma < 1/(K*ell+alpha) = {1.0 / (k * ell + alpha):.6g}, got gamma={gamma}"
        )
    unit = WeightScheme.first_k(k) if kind == "uniform_prefix" else WeightScheme.last_only(k)
    q_ell, q_mu = (float(scheme_q_eigenvalues(lam, alpha, gamma, unit)) for lam in (ell, mu))
    top, bottom = q_ell * ell, q_mu * mu
    if top == 0.0 or bottom == 0.0:
        # only a last-only product underflows (a prefix sum q is >= 1); its
        # ratio (xi_ell / xi_mu)^(K-1) ell / mu is finite, taken in log space
        xi_ell, xi_mu = (1.0 - gamma * (lam + alpha) for lam in (ell, mu))
        log_ratio = math.log(ell) - math.log(mu) + (k - 1) * (math.log(xi_ell) - math.log(xi_mu))
        with np.errstate(over="ignore"):  # a ratio beyond float64 reads inf
            ratio = float(np.exp(log_ratio))
    else:
        ratio = top / bottom
    # provably >= 1 here; the max() only strips a possible trailing-ulp dip
    return max(1.0, ratio)


@dataclass(frozen=True)
class KappaReport:
    """Lemma 2's condition number of the surrogate plus the family bound.

    kappa_exact = l_tilde / mu_tilde with l_tilde = E_i[lambda_max(Q_i A_i)]
    and mu_tilde = E_i[lambda_min(Q_i A_i)], an upper bound on cond(E_i[Q_i
    A_i]). The two are equal when all clients' extreme eigenvalues of Q_i A_i
    lie on the same two eigenvectors; a shared eigenbasis is not enough
    (diag(1, 10) and diag(10, 1) average to cond 1). kappa_bound is the
    phi/psi closed form when theta belongs to a covered family and its
    precondition holds, else None.
    """

    kappa_exact: float
    l_tilde: float
    mu_tilde: float
    kappa_bound: float | None = None


def kappa_exact(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> KappaReport:
    """Lemma 2's E_i[lambda_max(Q_i A_i)] / E_i[lambda_min(Q_i A_i)], an upper bound on cond(E_i[Q_i A_i]).

    Exact, from each client's mapped stored spectrum; see KappaReport.
    Valid whenever gamma < (ell + alpha)^-1, including the regime where the
    last-gradient map is non-monotone and the psi bound does not apply.
    When a last-gradient map underflows float64 at large K, the extremes are
    taken in log space (see _log_expected_extremes): kappa_exact is then
    their ratio, inf once that overflows, and l_tilde and mu_tilde may read 0.
    """
    qw.require_contractive(pop.bounds, alpha, gamma)
    # the eigenvalues q(lam) lam of each client's distorted Hessian Q_i A_i
    mapped = scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta) * pop.spectra
    if np.any(mapped <= 0.0):
        log_extremes = _log_expected_extremes(pop, alpha, gamma, theta)
        if log_extremes is None:
            raise ConditioningError(
                f"nonpositive distorted eigenvalue {mapped.min():.6g} encountered"
            )
        log_max, log_min = log_extremes
        with np.errstate(over="ignore"):  # a ratio beyond float64 reads inf
            expected_max, expected_min, ratio = np.exp([log_max, log_min, log_max - log_min]).tolist()
    else:
        # mapped spectra need not stay sorted (the last-gradient map is not
        # monotone), so each client's extremes are searched for
        expected_max = float(pop.weights @ mapped.max(axis=1))
        expected_min = float(pop.weights @ mapped.min(axis=1))
        ratio = expected_max / expected_min
    try:
        bound = kappa_bound(pop.bounds.mu, pop.bounds.ell, alpha, gamma, theta)
    except (ConditioningError, InvalidInputError):  # psi outside its precondition, or a general theta
        bound = None
    return KappaReport(
        kappa_exact=max(1.0, ratio),
        l_tilde=expected_max,
        mu_tilde=expected_min,
        kappa_bound=bound,
    )


def _log_mapped_spectra(
    spectra: np.ndarray, alpha: float, gamma: float, theta: WeightScheme
) -> np.ndarray | None:
    """log(q(lam) lam) of each entry of spectra under a last-only theta, or None.

    q(lam) lam = theta_K xi^(K-1) lam is positive when every lam and xi = 1 -
    gamma (lam + alpha) is, but underflows float64 at large K; its log,
    log theta_K + log lam + (K-1) log xi, does not. None for another scheme,
    or when some lam or xi is not positive (the map itself is then
    nonpositive).
    """
    kind, k, coeff = theta.structure()
    xi = 1.0 - gamma * (spectra + alpha)
    if kind != "last_only" or not ((spectra > 0.0).all() and (xi > 0.0).all()):
        return None
    return math.log(coeff) + np.log(spectra) + (k - 1) * np.log(xi)


def _log_expected_extremes(
    pop: Population, alpha: float, gamma: float, theta: WeightScheme
) -> tuple[float, float] | None:
    """(log E_i[max_j m_ij], log E_i[min_j m_ij]) of a last-only theta's mapped spectra m.

    The logs of m come from _log_mapped_spectra (None there is None here),
    and the expectations run over the clients with positive weight, as a
    log-sum-exp.
    """
    logs = _log_mapped_spectra(pop.spectra, alpha, gamma, theta)
    if logs is None:
        return None
    weighted = pop.weights > 0.0
    log_weights = np.log(pop.weights[weighted])

    def log_mean(values: np.ndarray) -> float:
        terms = values[weighted] + log_weights
        top = terms.max()
        return float(top + math.log(np.exp(terms - top).sum()))

    return log_mean(logs.max(axis=1)), log_mean(logs.min(axis=1))


def rho_from_kappa(kappa: float, optimizer_kind: str) -> float:
    """Linear convergence rate of the tuned server optimizer at condition kappa.

    plain:      (kappa - 1) / (kappa + 1)
    Nesterov:   1 - 2 / sqrt(3 kappa + 1)
    heavy-ball: (sqrt(kappa) - 1) / (sqrt(kappa) + 1)
    """
    if kappa < 1.0:
        raise InvalidInputError(f"kappa must be >= 1, got {kappa}")
    if optimizer_kind == "plain":
        return (kappa - 1.0) / (kappa + 1.0)
    if optimizer_kind == "nesterov":
        return 1.0 - 2.0 / np.sqrt(3.0 * kappa + 1.0)
    if optimizer_kind == "heavy_ball":
        root = np.sqrt(kappa)
        return (root - 1.0) / (root + 1.0)
    raise InvalidInputError(
        f"unknown optimizer {optimizer_kind!r}, expected one of {OPTIMIZER_KINDS}"
    )


def delta_from_kappa(kappa: float, kappa0: float) -> float:
    """Suboptimality (sqrt(kappa0) - sqrt(kappa)) / (sqrt(kappa0) + sqrt(kappa))."""
    if not (1.0 <= kappa):
        raise InvalidInputError(f"kappa must be >= 1, got {kappa}")
    if kappa > kappa0:
        raise InvalidInputError(f"kappa={kappa} exceeds kappa0={kappa0}")
    r0, r = np.sqrt(kappa0), np.sqrt(kappa)
    return float((r0 - r) / (r0 + r))


def distance_bound(
    pop: Population,
    alpha: float,
    gamma: float,
    theta: WeightScheme,
) -> float:
    """Spectral bound on the surrogate-to-empirical minimizer distance.

    With b the largest and a the smallest distortion eigenvalue across
    clients, the bound is const * C * (sqrt(b) - sqrt(a)) / (sqrt(b) + sqrt(a))
    with C the population's c_radius and const = 2 in dimension one and 8
    otherwise. When every mapped eigenvalue underflows to 0 (a last-only
    scheme at large K), sqrt(a/b) is taken from their logs instead.
    """
    qw.require_contractive(pop.bounds, alpha, gamma)
    q_eigs = scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta)
    b, a = float(q_eigs.max()), float(q_eigs.min())
    constant = 2.0 if pop.dim == 1 else 8.0
    if b == 0.0:
        logs = _log_mapped_spectra(pop.spectra, alpha, gamma, theta)
        if logs is None:
            raise ConditioningError("every distortion eigenvalue is zero")
        log_q = logs - np.log(pop.spectra)
        root = math.exp(0.5 * (log_q.min() - log_q.max()))  # sqrt(a / b)
        return float(constant * pop.bounds.c_radius * (1.0 - root) / (1.0 + root))
    sb, sa = np.sqrt(b), np.sqrt(a)
    return float(constant * pop.bounds.c_radius * (sb - sa) / (sb + sa))


def distance_bound_from_kappa(kappa: float, kappa0: float, c_radius: float) -> float:
    """Distance bound 8 C (sqrt(k0) - sqrt(k)) / (sqrt(k0) + sqrt(k)).

    kappa must be the phi/psi closed form of one of the two covered weight
    families under its precondition; the identity with delta_from_kappa makes
    the bound 8 C times the suboptimality.
    """
    check_c_radius(c_radius)
    return 8.0 * c_radius * delta_from_kappa(kappa, kappa0)


# ---------------------------------------------------------------------------
# Mean absolute deviation and its matrix-weighted analog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite discrete real distribution (values with probabilities)."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.array(real_array(self.values, "values"), ndmin=1, copy=None)
        probs = np.array(real_array(self.probs, "probs"), ndmin=1, copy=None)
        if values.ndim != 1 or values.size == 0 or values.shape != probs.shape:
            raise InvalidInputError("values and probs must be matching nonempty 1-d arrays")
        if not (np.isfinite(values).all() and np.isfinite(probs).all()):
            raise InvalidInputError("values and probs must be finite")
        if (probs < 0.0).any():
            raise InvalidInputError("probabilities must be nonnegative")
        check_sums_to_one(probs, "probabilities")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    @property
    def mean(self) -> float:
        return float(np.dot(self.probs, self.values))

    def support(self) -> np.ndarray:
        """Values carrying positive probability."""
        return self.values[self.probs > 0.0]


def mad(dist: DiscreteDistribution) -> float:
    """Mean absolute deviation E|X - E[X]|."""
    return float(np.dot(dist.probs, np.abs(dist.values - dist.mean)))


def mad_bound(dist: DiscreteDistribution) -> float:
    """Bhatia-Davis-style bound 2 (b - E[X]) (E[X] - a) / (b - a).

    a, b are the support extremes; a degenerate support (a = b) gives 0 by
    the constant-variable convention. Equality holds exactly when X is
    supported on {a, b}.
    """
    support = dist.support().tolist()
    a, b = min(support), max(support)
    if a == b:
        return 0.0
    mean = dist.mean
    return 2.0 * (b - mean) * (mean - a) / (b - a)


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """2-norm of each matrix of an (n, d, d) stack, bit-identical to one call each.

    This is np.linalg.norm(stack, 2, axis=(-2, -1)) without its dispatch: the
    largest singular value, which svd returns first.
    """
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _validated_family(family, name: str):
    """family as one checked (n, d, d) stack, or matrix by matrix if it is ragged, complex, non-numeric or empty."""
    try:
        stack = np.asarray(family)
    except (TypeError, ValueError):  # ragged, or an entry that is no number
        stack = None
    if stack is not None and stack.ndim == 3 and stack.size and stack.dtype.kind in "biuf":
        return check_symmetric_stack(stack, (name + "[{i}]").format)
    return [check_symmetric(matrix, f"{name}[{i}]") for i, matrix in enumerate(family)]


def _validate_weighted_family(xs, ys):
    """Validated X and Y stacks, (n, d, d) each.

    Every X, then every Y, goes through the symmetric-matrix rule (see
    _validated_family), which names the first bad matrix or symmetrises a
    rounding-level asymmetry. Pair checks then run in index order
    (dimension, then Y positive definite, then commutation), so the first
    violating pair is the one named; the eigenvalues and norms behind them
    come from stacked calls.
    """
    xs, ys = _validated_family(xs, "X"), _validated_family(ys, "Y")
    if len(xs) == 0 or len(xs) != len(ys):
        raise InvalidInputError("need matching nonempty X and Y lists")
    dim, n_pairs = xs[0].shape[0], len(xs)
    n_valid = next(
        (i for i, (x, y) in enumerate(zip(xs, ys)) if x.shape[0] != dim or y.shape[0] != dim), n_pairs
    )
    x_stack = np.asarray(xs[:n_valid]).reshape(n_valid, dim, dim)
    y_stack = np.asarray(ys[:n_valid]).reshape(n_valid, dim, dim)
    lam_mins = np.linalg.eigh(y_stack)[0][:, 0]
    norms = _spectral_norms(np.concatenate([x_stack @ y_stack - y_stack @ x_stack, x_stack, y_stack]))
    commutators, x_norms, y_norms = norms.reshape(3, n_valid)
    bad = (lam_mins <= SPD_LAMBDA_MIN) | (commutators > _COMMUTE_TOL * (1.0 + x_norms * y_norms))
    if bad.any():
        i = int(bad.argmax())
        if lam_mins[i] <= SPD_LAMBDA_MIN:
            raise InvalidInputError(f"weight Y[{i}] is not positive definite (lambda_min={lam_mins[i]:.3e})")
        raise InvalidInputError(f"pair {i} does not commute")
    if n_valid < n_pairs:
        raise InvalidInputError("all matrices must share one dimension")
    return x_stack, y_stack


def matrix_weighted_discrepancy(xs, ys) -> float:
    """Normalised matrix-weighted discrepancy of X with respect to Y.

    sum_i || Y^-1 f^-1 (X_i - f) Y_i || in the spectral norm, where f is the
    matrix-weighted mean. In dimension one this is the mean absolute
    deviation divided by |E[X]|. For a I <= X_i <= b I it is bounded by
    2 (b - a) / b. A singular f raises ConditioningError.
    """
    xs, ys = _validate_weighted_family(xs, ys)
    y_inv = np.linalg.inv(np.sum(ys, axis=0))
    f = np.sum(xs @ ys, axis=0) @ y_inv
    try:
        f_inv = np.linalg.inv(f)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError("matrix-weighted mean f is singular") from exc
    total = 0.0
    for norm in _spectral_norms(y_inv @ f_inv @ (xs - f) @ ys):
        total += float(norm)
    return total


# ---------------------------------------------------------------------------
# Tightness construction: two scalar clients, last-gradient scheme
# ---------------------------------------------------------------------------


def tightness_population(p: float) -> Population:
    """The two-client scalar family A = (4, 1), c = (1, -1), weights (p, 1-p)."""
    if not (0.0 < p < 1.0):
        raise InvalidInputError(f"p must lie in (0, 1), got {p}")
    clients = (
        qw.ClientModel(a_matrix=np.array([[4.0]]), center=np.array([1.0])),
        qw.ClientModel(a_matrix=np.array([[1.0]]), center=np.array([-1.0])),
    )
    return Population(
        clients=clients,
        weights=np.array([p, 1.0 - p]),
        bounds=SpectrumBounds(mu=1.0, ell=4.0, c_radius=1.0),
    )


def tightness_case_b2(k: int, p: float) -> tuple[float, float]:
    """Measured minimizer distance and 2C distance bound for the scalar family.

    Uses alpha = 0, gamma = 1/8, and the last-gradient scheme of length k.
    As k grows and p approaches 1, both values approach 2 (with C = 1),
    showing the one-dimensional bound is tight.
    """
    check_count(k, "k")
    pop = tightness_population(p)
    theta = WeightScheme.last_only(k)
    measured = qw.minimizer_distance(pop, 0.0, 0.125, theta)
    bound = distance_bound(pop, 0.0, 0.125, theta)
    return measured, bound
