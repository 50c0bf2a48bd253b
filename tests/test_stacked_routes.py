"""The stacked kernels equal the per-item loops they replaced, bit for bit.

The reference functions below are the per-client eigenpair distortion and
surrogate assembly, the per-pair matrix-weighted discrepancy and the
per-client random population, written one client (or pair) at a time. Every
comparison is np.array_equal or ==, never a tolerance.
"""

import numpy as np
import pytest

from local_update_lab import quadratics as qw
from local_update_lab.bounds import matrix_weighted_discrepancy, scheme_q_eigenvalues
from local_update_lab.cli import main
from local_update_lab.engine import _deterministic_updates
from local_update_lab.errors import InvalidInputError
from local_update_lab.matrices import SPD_LAMBDA_MIN, SpectrumBounds, check_symmetric, eigh, keyed_rng, symmetrize
from local_update_lab.quadratics import ClientModel, Population, WeightScheme, save_population
from local_update_lab.verify import (
    random_commuting_family,
    random_orthonormal,
    random_population,
    rate_check_population,
    theorem1_client_gap,
)

# ---------------------------------------------------------------------------
# Reference routes, one client or pair at a time
# ---------------------------------------------------------------------------


def ref_distortion_matrix(a, alpha, gamma, theta):
    if not (gamma >= 0.0 and alpha >= 0.0):
        raise InvalidInputError("alpha and gamma must be nonnegative")
    lams, v = np.linalg.eigh(a)
    return symmetrize((v * scheme_q_eigenvalues(lams, alpha, gamma, theta)) @ v.T)


def ref_client_surrogate_hessian(client, alpha, gamma, theta):
    return symmetrize(ref_distortion_matrix(client.a_matrix, alpha, gamma, theta) @ client.a_matrix)


def ref_surrogate_hessian(pop, alpha, gamma, theta):
    h = np.zeros((pop.dim, pop.dim))
    for weight, client in zip(pop.weights, pop.clients):
        h += weight * ref_client_surrogate_hessian(client, alpha, gamma, theta)
    return symmetrize(h)


def ref_surrogate_gradient(pop, x, alpha, gamma, theta):
    x = np.asarray(x, dtype=float)
    g = np.zeros(pop.dim)
    for weight, client in zip(pop.weights, pop.clients):
        g += weight * (ref_client_surrogate_hessian(client, alpha, gamma, theta) @ (x - client.center))
    return g


def ref_surrogate_minimizer(pop, alpha, gamma, theta):
    qw.require_contractive(pop.bounds, alpha, gamma)
    h = np.zeros((pop.dim, pop.dim))
    rhs = np.zeros(pop.dim)
    for weight, client in zip(pop.weights, pop.clients):
        qa = ref_client_surrogate_hessian(client, alpha, gamma, theta)
        h += weight * qa
        rhs += weight * (qa @ client.center)
    return np.linalg.solve(symmetrize(h), rhs)


def ref_theorem1_client_gap(pop, x, alpha, gamma, theta):
    updates = _deterministic_updates(
        np.stack([client.a_matrix for client in pop.clients]),
        np.stack([client.center for client in pop.clients]),
        x, alpha, gamma, theta,
    )
    worst = 0.0
    for client, update in zip(pop.clients, updates):
        predicted = ref_client_surrogate_hessian(client, alpha, gamma, theta) @ (x - client.center)
        worst = max(worst, float(np.linalg.norm(update - predicted)))
    return worst


def _norm2(m):
    return float(np.linalg.norm(m, 2))


def ref_matrix_weighted_discrepancy(xs, ys, commute_tol=1e-9):
    xs = [check_symmetric(x, f"X[{i}]") for i, x in enumerate(xs)]
    ys = [check_symmetric(y, f"Y[{i}]") for i, y in enumerate(ys)]
    if len(xs) == 0 or len(xs) != len(ys):
        raise InvalidInputError("need matching nonempty X and Y lists")
    dim = xs[0].shape[0]
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x.shape[0] != dim or y.shape[0] != dim:
            raise InvalidInputError("all matrices must share one dimension")
        lam_min = eigh(y).lambda_min
        if lam_min <= SPD_LAMBDA_MIN:
            raise InvalidInputError(f"weight Y[{i}] is not positive definite (lambda_min={lam_min:.3e})")
        if _norm2(x @ y - y @ x) > commute_tol * (1.0 + _norm2(x) * _norm2(y)):
            raise InvalidInputError(f"pair {i} does not commute")
    y_inv = np.linalg.inv(np.sum(ys, axis=0))
    f = np.sum([x @ y for x, y in zip(xs, ys)], axis=0) @ y_inv
    f_inv = np.linalg.inv(f)
    total = 0.0
    for x, y in zip(xs, ys):
        total += _norm2(y_inv @ f_inv @ (x - f) @ y)
    return total


def ref_random_commuting_family(rng, dim_max=6, n_max=6):
    dim = int(rng.integers(1, dim_max + 1))
    n = int(rng.integers(1, n_max + 1))
    basis = random_orthonormal(rng, dim)
    a_lo = rng.uniform(0.2, 2.0)
    b_hi = a_lo + rng.uniform(0.1, 5.0)
    xs, ys, x_eigs = [], [], []
    for _ in range(n):
        lx = rng.uniform(a_lo, b_hi, size=dim)
        if rng.random() < 0.3:
            lx[0] = a_lo
        if rng.random() < 0.3:
            lx[-1] = b_hi
        ly = rng.uniform(0.1, 2.0, size=dim)
        xs.append(symmetrize((basis * lx) @ basis.T))
        ys.append(symmetrize((basis * ly) @ basis.T))
        x_eigs.append(lx)
    x_eigs = np.concatenate(x_eigs)
    return xs, ys, float(x_eigs.min()), float(x_eigs.max())


def ref_random_client(rng, dim, mu, ell, c_radius, pin_extremes=False):
    if dim == 1:
        lams = np.array([ell if pin_extremes else rng.uniform(mu, ell)])
        a = lams.reshape(1, 1)
    else:
        basis = random_orthonormal(rng, dim)
        lams = np.exp(rng.uniform(np.log(mu), np.log(ell), size=dim))
        if pin_extremes:
            lams[0], lams[-1] = mu, ell
        a = 0.5 * ((basis * lams) @ basis.T + ((basis * lams) @ basis.T).T)
    center = rng.standard_normal(dim)
    center = center / max(np.linalg.norm(center), 1e-12) * rng.uniform(0.0, c_radius)
    return ClientModel(a_matrix=a, center=center)


def ref_random_population(rng, max_dim=20, max_clients=10, mu=1.0, ell=10.0, c_radius=1.0,
                          min_dim=1, min_clients=1, pin_extremes=False, uniform_weights=False):
    bounds = SpectrumBounds(mu, ell, c_radius)
    dim = int(rng.integers(min_dim, max_dim + 1))
    n = int(rng.integers(min_clients, max_clients + 1))
    clients = tuple(ref_random_client(rng, dim, mu, ell, c_radius, pin_extremes) for _ in range(n))
    if uniform_weights:
        weights = np.full(n, 1.0 / n)
    else:
        weights = rng.dirichlet(np.ones(n))
        weights = weights / weights.sum()
    return Population(clients=clients, weights=weights, bounds=bounds)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------


def thetas(rng, k):
    """first_k, last_only, and a general theta with interior and trailing zeros."""
    coeffs = rng.uniform(0.1, 1.0, size=k)
    coeffs[1::3] = 0.0
    return [WeightScheme.first_k(k), WeightScheme.last_only(k), WeightScheme(np.append(coeffs, [0.0, 0.0]))]


def population(rng, dim, n, zero_weights):
    pop = random_population(rng, min_dim=dim, max_dim=dim, min_clients=n, max_clients=n)
    if not zero_weights or n == 1:
        return pop
    weights = pop.weights.copy()
    weights[::2] = 0.0
    return Population(clients=pop.clients, weights=weights / weights.sum(), bounds=pop.bounds)


def assert_routes_equal(pop, x, alpha, gamma, theta):
    stacked = qw.distortion_matrix(pop.matrices, alpha, gamma, theta)
    for q, client in zip(stacked, pop.clients):
        alone = ref_distortion_matrix(client.a_matrix, alpha, gamma, theta)
        assert np.array_equal(q, alone)
        assert np.array_equal(qw.distortion_matrix(client.a_matrix, alpha, gamma, theta), alone)
    assert np.array_equal(qw.surrogate_hessian(pop, alpha, gamma, theta),
                          ref_surrogate_hessian(pop, alpha, gamma, theta))
    assert np.array_equal(qw.surrogate_gradient(pop, x, alpha, gamma, theta),
                          ref_surrogate_gradient(pop, x, alpha, gamma, theta))
    assert np.array_equal(qw.surrogate_minimizer(pop, alpha, gamma, theta),
                          ref_surrogate_minimizer(pop, alpha, gamma, theta))
    assert theorem1_client_gap(pop, x, alpha, gamma, theta) == ref_theorem1_client_gap(pop, x, alpha, gamma, theta)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", range(1, 49))
def test_surrogate_routes_bit_identical(dim):
    # n runs through 12..1 and K through 1..50 as dim runs through 1..48;
    # d = 1 with many clients is where a vectorised reduction would round differently
    n = 12 - (dim - 1) % 12
    rng = keyed_rng(7, dim)
    pop = population(rng, dim, n, zero_weights=dim % 2 == 0)
    x = rng.uniform(-2.0, 2.0, size=dim)
    for k in (dim, 1 + (dim + 24) % 50):
        # each theta kind meets a different alpha at each K, each pairing at some dim
        alphas = np.roll([0.0, 0.5, 2.0], dim + k)
        for alpha, theta in zip(alphas, thetas(rng, k)):
            gamma = float(rng.uniform(0.0, 0.95)) / (pop.bounds.ell + alpha)
            assert_routes_equal(pop, x, float(alpha), gamma, theta)


@pytest.mark.parametrize("dim, n", [(1, 3), (5, 12), (48, 2)])
def test_surrogate_routes_bit_identical_at_k1024(dim, n):
    rng = keyed_rng(8, dim)
    pop = population(rng, dim, n, zero_weights=True)
    x = rng.uniform(-2.0, 2.0, size=dim)
    for alpha, theta in zip((0.0, 0.5, 2.0), thetas(rng, 1024)):
        gamma = 1e-3 / (1.0 + alpha)
        assert_routes_equal(pop, x, alpha, gamma, theta)


@pytest.mark.parametrize("batch_entries", [1, 3 * 25 + 1, 1000])
def test_surrogate_routes_bit_identical_across_batches(batch_entries, monkeypatch):
    # 1 client per batch, 3 per batch with a short last batch, one batch, for
    # both eigh loops: the surrogate's and the validating one
    monkeypatch.setattr(qw, "_EIGH_BATCH_ENTRIES", batch_entries)
    rng = keyed_rng(13, batch_entries)
    pop = population(rng, 5, 11, zero_weights=True)
    for row, client in zip(pop.spectra, pop.clients):
        assert np.array_equal(row, np.linalg.eigh(client.a_matrix)[0])
    x = rng.uniform(-2.0, 2.0, size=5)
    for alpha, theta in zip((0.0, 0.5, 2.0), thetas(rng, 17)):
        assert_routes_equal(pop, x, alpha, 0.9 / (pop.bounds.ell + alpha), theta)


def test_default_batches_split_a_large_population():
    # 25 clients at d = 20 are 10000 entries: batches of 10, 10 and 5 clients
    rng = keyed_rng(14, 0)
    pop = population(rng, 20, 25, zero_weights=False)
    assert pop.n_clients * pop.dim**2 > 2 * qw._EIGH_BATCH_ENTRIES
    assert_routes_equal(pop, rng.uniform(-2.0, 2.0, size=20), 0.5, 0.05, WeightScheme.first_k(12))


def test_kernel_rejects_negative_rates_like_the_reference():
    client = ClientModel(a_matrix=np.eye(2), center=np.zeros(2))
    for alpha, gamma in ((-1.0, 0.1), (0.0, float("nan"))):
        with pytest.raises(InvalidInputError):
            qw.distortion_matrix(client.a_matrix, alpha, gamma, WeightScheme.first_k(2))
        with pytest.raises(InvalidInputError):
            qw.surrogate_hessian(Population.uniform([client]), alpha, gamma, WeightScheme.first_k(2))


def test_matrix_weighted_discrepancy_bit_identical():
    for trial in range(300):
        rng = keyed_rng(9, trial)
        dim_max = 48 if trial % 10 == 0 else 6
        xs, ys, _, _ = random_commuting_family(rng, dim_max=dim_max, n_max=12)
        assert matrix_weighted_discrepancy(xs, ys) == ref_matrix_weighted_discrepancy(xs, ys)


def test_random_commuting_family_bit_identical():
    for trial in range(300):
        dim_max = 48 if trial % 10 == 0 else 6
        rng, ref_rng = keyed_rng(13, trial), keyed_rng(13, trial)
        xs, ys, a, b = random_commuting_family(rng, dim_max=dim_max, n_max=12)
        ref_xs, ref_ys, ref_a, ref_b = ref_random_commuting_family(ref_rng, dim_max=dim_max, n_max=12)
        assert np.array_equal(xs, ref_xs) and np.array_equal(ys, ref_ys)
        assert (a, b) == (ref_a, ref_b)
        assert rng.random() == ref_rng.random()  # the stream ends where it did


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([np.eye(2), np.eye(3)], [np.eye(2), np.eye(3)]),
        ([np.eye(2)], [np.eye(3)]),
        ([np.eye(2), np.eye(2)], [-np.eye(2), np.eye(3)]),
        ([np.diag([1.0, 2.0]), np.eye(2)], [np.array([[1.0, 1.0], [1.0, 3.0]]), -np.eye(2)]),
        ([np.eye(2), np.diag([1.0, 2.0])], [np.eye(2), np.array([[1.0, 1.0], [1.0, 3.0]])]),
        ([], []),
        ([np.eye(2)], [np.eye(2), np.eye(2)]),
        ([np.ones((2, 3))], [np.eye(2)]),
        ([np.eye(2), np.diag([1.0, np.nan])], [np.eye(2), np.eye(2)]),
        ([np.eye(2), np.eye(2)], [np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])]),
        ([np.eye(2), np.eye(2)], [np.diag([1.0, 1e-13]), -np.eye(2)]),
    ],
)
def test_matrix_weighted_validation_names_the_first_bad_pair(xs, ys):
    with pytest.raises(InvalidInputError) as expected:
        ref_matrix_weighted_discrepancy(xs, ys)
    with pytest.raises(InvalidInputError) as got:
        matrix_weighted_discrepancy(xs, ys)
    assert str(got.value) == str(expected.value)


def _population_arrays(pop):
    return [pop.weights] + [m for client in pop.clients for m in (client.a_matrix, client.center)]


@pytest.mark.parametrize("pin_extremes", [False, True])
@pytest.mark.parametrize("uniform_weights", [False, True])
def test_random_population_bit_identical(pin_extremes, uniform_weights):
    for dim in range(1, 49):
        kwargs = dict(min_dim=dim, max_dim=dim, max_clients=12,
                      pin_extremes=pin_extremes, uniform_weights=uniform_weights)
        rng, ref_rng = keyed_rng(10, dim), keyed_rng(10, dim)
        got = _population_arrays(random_population(rng, **kwargs))
        expected = _population_arrays(ref_random_population(ref_rng, **kwargs))
        assert len(got) == len(expected)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert rng.random() == ref_rng.random()  # the stream ends where it did


def test_rate_check_population_bit_identical():
    for trial in range(20):
        got = rate_check_population(keyed_rng(11, trial))
        expected = ref_random_population(keyed_rng(11, trial), min_dim=3, max_dim=10, min_clients=4,
                                         max_clients=8, pin_extremes=True, uniform_weights=True)
        assert all(np.array_equal(a, b) for a, b in zip(_population_arrays(got), _population_arrays(expected)))


def test_simulate_csv_unchanged_under_reference_route(tmp_path, monkeypatch):
    path = tmp_path / "pop.txt"
    save_population(random_population(keyed_rng(12, 0), min_dim=6, max_dim=6, min_clients=5), path)
    argv = ["simulate", "--population", str(path), "--gamma", "0.01", "--theta", "first-k", "--k", "20"]
    assert main(argv + ["--out", str(tmp_path / "stacked.csv")]) == 0
    called = set()

    def counted(name, reference):
        def wrapper(*args):
            called.add(name)
            return reference(*args)
        return wrapper

    for name, reference in (
        ("distortion_matrix", ref_distortion_matrix),
        ("surrogate_hessian", ref_surrogate_hessian),
        ("surrogate_gradient", ref_surrogate_gradient),
        ("surrogate_minimizer", ref_surrogate_minimizer),
    ):
        monkeypatch.setattr(qw, name, counted(name, reference))
    assert main(argv + ["--out", str(tmp_path / "reference.csv")]) == 0
    assert {"surrogate_hessian", "surrogate_minimizer"} <= called
    stacked = (tmp_path / "stacked.csv").read_bytes()
    assert len(stacked.splitlines()) > 2
    assert stacked == (tmp_path / "reference.csv").read_bytes()
