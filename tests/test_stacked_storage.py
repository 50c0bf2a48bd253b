"""Clients and examples live once, in read-only stacks, and the engine's kernels read them.

A Population stores its client matrices and centers as (n, d, d) and (n, d)
stacks and its clients are views of them; a client with examples stores them
as (m, d, d) and (m, d) stacks with its examples as views. The K-step kernel
gathers a draw's mini-batches for all K steps at once and skips the
proximal term at alpha = 0; the reference kernel below is the per-step-gather
loop it replaced, and every comparison is bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from local_update_lab import bounds as tb
from local_update_lab import engine
from local_update_lab import verify
from local_update_lab.errors import ConditioningError, DimensionMismatchError, InvalidInputError, PopulationFormatError
from local_update_lab.matrices import SpectrumBounds, keyed_rng
from local_update_lab.quadratics import (
    ClientModel,
    Population,
    WeightScheme,
    load_population,
    save_population,
)
from local_update_lab.verify import random_client_with_examples, random_population

# ---------------------------------------------------------------------------
# Stacked storage
# ---------------------------------------------------------------------------


def _assert_views_of_stacks(pop):
    assert not pop.matrices.flags.writeable and not pop.centers.flags.writeable
    assert pop.matrices.shape == (pop.n_clients, pop.dim, pop.dim)
    assert pop.centers.shape == (pop.n_clients, pop.dim)
    for i, client in enumerate(pop.clients):
        assert client.a_matrix.base is pop.matrices and client.center.base is pop.centers
        assert np.shares_memory(client.a_matrix, pop.matrices[i])
        assert np.shares_memory(client.center, pop.centers[i])
        assert not client.a_matrix.flags.writeable and not client.center.flags.writeable
        with pytest.raises(ValueError):
            client.a_matrix[0, 0] = 0.0


def _populations(tmp_path):
    pop = random_population(keyed_rng(5, 1), min_dim=3, max_dim=3, min_clients=4, max_clients=4)
    save_population(pop, tmp_path / "pop.txt")
    clients = [ClientModel(a_matrix=a, center=c) for a, c in zip(pop.matrices, pop.centers)]
    return {
        "random_population": pop,
        "clients": Population(clients=clients, weights=pop.weights, bounds=pop.bounds),
        "from_stacks": Population.from_stacks(pop.matrices, pop.centers, pop.weights, pop.bounds),
        "load_population": load_population(tmp_path / "pop.txt"),
        "uniform": Population.uniform(clients),
    }


@pytest.mark.parametrize("route", ["random_population", "clients", "from_stacks", "load_population", "uniform"])
def test_clients_are_read_only_views_of_the_stacks(route, tmp_path):
    _assert_views_of_stacks(_populations(tmp_path)[route])


def test_every_route_builds_the_same_population(tmp_path):
    pops = _populations(tmp_path)
    first = pops["random_population"]
    for route, pop in pops.items():
        if route != "uniform":
            assert pop == first, route
        assert np.array_equal(pop.matrices, first.matrices) and np.array_equal(pop.centers, first.centers)
        assert pop.spectra.tobytes() == first.spectra.tobytes()


def test_a_population_copies_the_callers_arrays_once(tmp_path):
    matrices = random_population(keyed_rng(5, 2), min_dim=4, max_dim=4, min_clients=3, max_clients=3).matrices.copy()
    centers = np.zeros((3, 4))
    pop = Population.from_stacks(matrices, centers, np.full(3, 1 / 3))
    assert not np.shares_memory(pop.matrices, matrices) and not np.shares_memory(pop.centers, centers)
    matrices[0, 0, 0] = 1e6
    assert pop.matrices[0, 0, 0] != 1e6
    rebuilt = Population(clients=pop.clients, weights=pop.weights, bounds=pop.bounds)
    assert not np.shares_memory(rebuilt.matrices, pop.matrices)


def test_a_population_holds_one_copy_of_its_matrices():
    # one (n, d, d) stack plus the (n, d) centers and spectra, not a copy per client beside it
    drawn = random_population(keyed_rng(23, 0), min_dim=48, max_dim=48, min_clients=32, max_clients=32)
    stack_bytes = drawn.matrices.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pop = Population.from_stacks(drawn.matrices, drawn.centers, drawn.weights, drawn.bounds)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert pop.n_clients == 32
    assert stack_bytes < kept < 1.25 * stack_bytes


def test_examples_are_read_only_views_of_the_client_stacks():
    client = random_client_with_examples(keyed_rng(7, 1), dim=3)
    b_stack, c_stack = client.example_matrices, client.example_centers
    assert b_stack.shape == (len(client.examples), 3, 3) and c_stack.shape == (len(client.examples), 3)
    assert not b_stack.flags.writeable and not c_stack.flags.writeable
    for j, example in enumerate(client.examples):
        assert example.b_matrix.base is b_stack and example.center.base is c_stack
        assert np.shares_memory(example.b_matrix, b_stack[j]) and np.shares_memory(example.center, c_stack[j])
        assert not example.b_matrix.flags.writeable
    # a population's client keeps the same example stacks, not a copy of them
    pop = Population.uniform([client])
    assert pop.clients[0].example_matrices is b_stack and pop.clients[0].examples is client.examples
    assert pop.clients[0] == client


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("n_sets", [1, 4])
def test_from_examples_keeps_its_per_example_arithmetic(dim, n_sets):
    # the stacked moments equal the per-example loop, for 2-6 examples and,
    # pooling four clients' example sets, for 8-24
    examples = sum((random_client_with_examples(keyed_rng(7, dim, j), dim=dim).examples for j in range(n_sets)), ())
    client = ClientModel.from_examples(examples)
    mean = np.mean([ex.b_matrix for ex in examples], axis=0)
    a = 0.5 * (mean + mean.T)
    bc = np.mean([ex.b_matrix @ ex.center for ex in examples], axis=0)
    assert client.a_matrix.tobytes() == a.tobytes()
    assert client.center.tobytes() == np.linalg.solve(a, bc).tobytes()


ASYMMETRIC = np.array([[1.0, 2.0], [0.0, 1.0]])


@pytest.mark.parametrize(
    "matrices, centers, error, message",
    [
        (np.ones((2, 2, 3)), np.zeros((2, 2)), DimensionMismatchError,
         "matrices must be a nonempty (n, d, d) stack, got shape (2, 2, 3)"),
        (np.ones((0, 2, 2)), np.zeros((0, 2)), DimensionMismatchError,
         "matrices must be a nonempty (n, d, d) stack, got shape (0, 2, 2)"),
        (np.eye(2), np.zeros(2), DimensionMismatchError,
         "matrices must be a nonempty (n, d, d) stack, got shape (2, 2)"),
        (np.stack([np.eye(2)] * 2), np.zeros((2, 3)), DimensionMismatchError,
         "centers have shape (2, 3), expected (2, 2)"),
        (np.stack([np.eye(2), np.diag([1.0, np.nan])]), np.zeros((2, 2)), InvalidInputError,
         "client 1: a_matrix contains non-finite entries"),
        (np.stack([np.eye(2), ASYMMETRIC]), np.zeros((2, 2)), InvalidInputError,
         "client 1: a_matrix is not symmetric"),
        # the first bad client is named, and for it the matrix before the center
        (np.stack([np.eye(2), np.eye(2), ASYMMETRIC]), np.array([[0.0, 0.0], [np.inf, 0.0], [0.0, np.nan]]),
         InvalidInputError, "client 1: center contains non-finite entries"),
        (np.stack([np.diag([np.inf, 1.0]), np.eye(2)]), np.array([[np.nan, 0.0], [0.0, 0.0]]),
         InvalidInputError, "client 0: a_matrix contains non-finite entries"),
        (np.stack([np.eye(2)]) * (1 + 1j), np.zeros((1, 2)), InvalidInputError, "matrices has complex entries"),
        # a rounding-level asymmetry is no fault, so the client's center is named, as ClientModel names it
        (np.stack([np.eye(2), [[2.0, 1.0], [1.0 + 1e-15, 2.0]]]), np.array([[0.0, 0.0], [np.nan, 0.0]]),
         InvalidInputError, "client 1: center contains non-finite entries"),
    ],
)
def test_stacks_are_validated_in_one_pass(matrices, centers, error, message):
    with pytest.raises(InvalidInputError) as caught:
        Population.from_stacks(matrices, centers, np.full(len(matrices), 1.0 / max(len(matrices), 1)))
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_rounding_asymmetry_in_a_stack_is_symmetrised():
    a = np.array([[2.0, 1.0], [1.0 + 1e-15, 2.0]])
    pop = Population.from_stacks(np.stack([np.eye(2), a]), np.zeros((2, 2)), [0.5, 0.5])
    single = ClientModel(a_matrix=a, center=np.zeros(2))
    assert pop.matrices[1].tobytes() == single.a_matrix.tobytes()
    assert pop.matrices[0].tobytes() == np.eye(2).tobytes()


def test_clients_or_stacks_not_both():
    pop = random_population(keyed_rng(5, 3), min_dim=2, max_dim=2)
    with pytest.raises(InvalidInputError, match="a population takes clients or stacks, not both"):
        Population(pop.clients, pop.weights, pop.bounds, _stacks=(pop.matrices, pop.centers))


@pytest.mark.parametrize("line, value, message", [
    ("a", "nan", "line 7: a_matrix contains non-finite entries"),
    ("c", "inf", "line 7: center contains non-finite entries"),
])
def test_loader_names_the_line_of_a_non_finite_client(line, value, message, tmp_path):
    text = ("lul-population v1\ndim 1\nbounds mu 1 ell 4 c_radius 1\nclients 2\n"
            "client weight 0.5\na 4\nc 1\nclient weight 0.5\na 1\nc -1\n")
    text = text.replace(f"\n{line} {'4' if line == 'a' else '1'}\n", f"\n{line} {value}\n", 1)
    (tmp_path / "pop.txt").write_text(text, encoding="utf-8")
    with pytest.raises(PopulationFormatError) as caught:
        load_population(tmp_path / "pop.txt")
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# The K-step kernel against the per-step-gather loop it replaced
# ---------------------------------------------------------------------------


def ref_local_steps(x, n, alpha, gamma, theta, loss_gradient):
    coeffs = theta.coefficients[: theta.size]
    xk = np.tile(x, (n, 1))
    total = np.zeros_like(xk)
    for k, coeff in enumerate(coeffs):
        g = loss_gradient(k, xk) + alpha * (xk - x)
        if coeff != 0.0:
            total += coeff * g
        xk = xk - gamma * g
    return total


def ref_stochastic_client_updates(client, x, alpha, gamma, theta, batch_indices):
    b_stack = np.stack([ex.b_matrix for ex in client.examples])
    c_stack = np.stack([ex.center for ex in client.examples])
    batch = batch_indices.shape[2]

    def loss_gradient(k, xk):
        idx = batch_indices[:, k, :]
        diff = xk[:, None, :] - c_stack[idx]
        return np.einsum("sbij,sbj->si", b_stack[idx], diff) / batch

    return ref_local_steps(x, batch_indices.shape[0], alpha, gamma, theta, loss_gradient)


def ref_deterministic_updates(a_stack, c_stack, x, alpha, gamma, theta):
    return ref_local_steps(
        x, a_stack.shape[0], alpha, gamma, theta,
        lambda k, xk: np.matmul(a_stack, (xk - c_stack)[..., None])[..., 0],
    )


def same_bits(a, b, alpha):
    """Bit-identical; at alpha = 0 the kernel skips adding alpha (x_k - x), whose
    zero the reference adds, so the one allowed difference is the sign of an
    exactly-zero component (-0.0 + 0.0 is +0.0). The messages start from +0.0
    and absorb such a sign, so none has shown up in them."""
    if alpha == 0.0:
        a, b = a + 0.0, b + 0.0
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _stochastic_instance(seed):
    rng = keyed_rng(seed, 0x5C)
    client = random_client_with_examples(rng, dim=int(rng.integers(1, 6)))
    k = int(rng.integers(1, 12))
    theta = [WeightScheme.first_k(k), WeightScheme.last_only(k), verify.random_theta(rng, k_max=11)][seed % 3]
    batch = int(rng.integers(1, len(client.examples) + 1))
    n_sims = int(rng.integers(1, 6))
    idx = engine._draw_batch_indices(rng, len(client.examples), n_sims, theta.size, batch)
    x = rng.uniform(-2.0, 2.0, size=client.dim)
    gamma = float(rng.uniform(0.0, 0.9)) / 10.0
    return client, theta, idx, x, gamma


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_stochastic_kernel_matches_the_per_step_gather_loop(seed, alpha):
    client, theta, idx, x, gamma = _stochastic_instance(seed)
    got = engine._stochastic_client_updates(client, x, alpha, gamma, theta, idx)
    want = ref_stochastic_client_updates(client, x, alpha, gamma, theta, idx)
    assert same_bits(got, want, alpha)


@pytest.mark.parametrize("alpha", [0.0, 2.0])
def test_one_gather_of_all_steps_matches_the_per_step_gather_loop(alpha):
    # 13 steps, 2 draws, batch 2, d = 2: every step reads its slice of the one gather
    client = random_client_with_examples(keyed_rng(8, 1), dim=2)
    theta = WeightScheme.first_k(13)
    idx = engine._draw_batch_indices(keyed_rng(8, 2), len(client.examples), 2, 13, 2)
    x = np.array([0.7, -1.1])
    got = engine._stochastic_client_updates(client, x, alpha, 0.05, theta, idx)
    assert same_bits(got, ref_stochastic_client_updates(client, x, alpha, 0.05, theta, idx), alpha)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_deterministic_kernel_matches_the_reference_loop(seed, alpha):
    rng = keyed_rng(seed, 0xD7)
    pop = random_population(rng, max_dim=8, max_clients=6)
    theta = verify.random_theta(rng, k_max=20)
    gamma = float(rng.uniform(0.0, 0.95)) / (pop.bounds.ell + alpha)
    x = rng.uniform(-2.0, 2.0, size=pop.dim)
    got = engine._deterministic_updates(pop.matrices, pop.centers, x, alpha, gamma, theta)
    stacks = (np.stack([c.a_matrix for c in pop.clients]), np.stack([c.center for c in pop.clients]))
    assert same_bits(got, ref_deterministic_updates(*stacks, x, alpha, gamma, theta), alpha)


# ---------------------------------------------------------------------------
# Satellites: one closed-form bound per lemma34 trial, log-space last-only extremes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["lemma34_kappa_bounds", "lemma34_tightness"])
def test_lemma34_suites_compute_the_bound_once_per_trial(name, monkeypatch):
    calls = []
    original = tb.kappa_bound

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(tb, "kappa_bound", counted)
    result = verify.SUITES[name](3, 7)
    assert result.passed and result.instances == 7
    assert len(calls) == 7


def test_last_only_kappa_in_log_space_when_the_map_underflows():
    # both mapped eigenvalues xi^(K-1) lam underflow to 0 at K = 20000, yet
    # their ratio is about 3.6e4
    pop = Population.uniform([ClientModel(a_matrix=np.diag([1.0, 1.01]), center=np.zeros(2))])
    gamma, k = 0.05, 20000
    theta = WeightScheme.last_only(k)
    assert (tb.scheme_q_eigenvalues(pop.spectra, 0.0, gamma, theta) * pop.spectra == 0.0).all()
    report = tb.kappa_exact(pop, 0.0, gamma, theta)
    log_ratio = (k - 1) * (np.log(1 - gamma * 1.0) - np.log(1 - gamma * 1.01)) - np.log(1.01)
    assert report.kappa_exact == pytest.approx(np.exp(log_ratio), rel=1e-9)
    assert report.l_tilde == 0.0 and report.mu_tilde == 0.0


def test_log_space_extremes_follow_the_weights():
    # the second client's map underflows, the first's does not: the weighted
    # expectations in log space equal the direct ones wherever those are exact
    clients = [ClientModel(a_matrix=np.diag([1.0, 2.0]), center=np.zeros(2)),
               ClientModel(a_matrix=np.diag([9.0, 10.0]), center=np.zeros(2))]
    pop = Population(clients=clients, weights=np.array([0.25, 0.75]), bounds=SpectrumBounds(1.0, 10.0, 0.0))
    gamma, k = 0.099, 400
    theta = WeightScheme.last_only(k)
    mapped = tb.scheme_q_eigenvalues(pop.spectra, 0.0, gamma, theta) * pop.spectra
    assert mapped[0].min() > 0.0 and (mapped[1] == 0.0).all()
    report = tb.kappa_exact(pop, 0.0, gamma, theta)
    assert report.l_tilde == pytest.approx(0.25 * mapped[0].max(), rel=1e-12)
    assert report.mu_tilde == pytest.approx(0.25 * mapped[0].min(), rel=1e-12)
    assert report.kappa_exact == pytest.approx(mapped[0].max() / mapped[0].min(), rel=1e-12)


def test_a_general_scheme_that_underflows_still_raises():
    # only the last-only map has the log-space route
    pop = Population.uniform([ClientModel(a_matrix=np.diag([1.0, 10.0]), center=np.zeros(2))])
    theta = WeightScheme([0.0, 0.0, 0.0, 1e-320, 1e-320])
    with pytest.raises(ConditioningError, match="nonpositive distorted eigenvalue 0 encountered"):
        tb.kappa_exact(pop, 0.0, 0.099, theta)
