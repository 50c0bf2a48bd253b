"""Populations, distortion matrices, surrogate machinery, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from local_update_lab import (
    ClientModel,
    Population,
    QuadraticExample,
    SpectrumBounds,
    WeightScheme,
    distortion_matrix,
    empirical_minimizer,
    eigh,
    minimizer_distance,
    surrogate_gradient,
    surrogate_hessian,
    surrogate_minimizer,
)
from local_update_lab import quadratics as qw
from local_update_lab.bounds import kappa_exact, scheme_q_eigenvalues
from local_update_lab.errors import (
    ConditioningError,
    DimensionMismatchError,
    InvalidInputError,
    PopulationFormatError,
)
from local_update_lab.matrices import keyed_rng
from local_update_lab.quadratics import (
    load_population,
    save_population,
)
from local_update_lab.verify import random_population, random_theta

from closed_forms import horner_distortion_matrix


def scalar_client(a, c):
    return ClientModel(a_matrix=np.array([[float(a)]]), center=np.array([float(c)]))


def scalar_pair_population():
    """Two 1-d clients A = (4, 1), c = (1, -1), equal weights."""
    return Population.uniform(
        [scalar_client(4.0, 1.0), scalar_client(1.0, -1.0)],
        bounds=SpectrumBounds(mu=1.0, ell=4.0, c_radius=1.0),
    )


class TestWeightScheme:
    def test_constructors(self):
        assert WeightScheme.first_k(3).size == 3
        assert WeightScheme.first_k(3).coefficients.sum() == 3.0
        last = WeightScheme.last_only(5)
        assert last.size == 5
        assert last.coefficients.sum() == 1.0
        np.testing.assert_array_equal(last.coefficients, [0, 0, 0, 0, 1])
        assert WeightScheme.maml_equivalent(4).size == 9
        np.testing.assert_array_equal(WeightScheme.single().coefficients, [1.0])

    def test_size_ignores_trailing_zeros(self):
        theta = WeightScheme(np.array([0.5, 1.0, 0.0, 0.0]))
        assert theta.size == 2
        assert theta.coefficients.sum() == 1.5

    def test_structure_detection(self):
        assert WeightScheme.first_k(7).structure() == ("uniform_prefix", 7, 1.0)
        assert WeightScheme.last_only(7).structure() == ("last_only", 7, 1.0)
        assert WeightScheme(np.array([0.3, 0.0, 0.9])).structure()[0] == "general"
        # a single positive coefficient is last_only even if scaled
        assert WeightScheme(np.array([0.0, 2.5])).structure() == ("last_only", 2, 2.5)

    @pytest.mark.parametrize(
        "coefficients",
        [
            [0.3, 0.0, 0.9, 0.0, 0.0],
            [1.0],
            [2.0, 2.0, 2.0, 0.0],
            [0.0, 0.0, 2.5, 0.0],
            [1.0, 0.0, 1.0],
            [1.0, 1.0, 0.5],
            [0.0, 1.0, 1.0],
        ],
    )
    def test_cached_size_and_structure_match_definitions(self, coefficients):
        theta = WeightScheme(np.array(coefficients))
        coeffs = np.array(coefficients)
        size = int(np.flatnonzero(coeffs > 0.0)[-1]) + 1
        active = coeffs[:size]
        nonzero = np.flatnonzero(active > 0.0)
        if nonzero.size == 1:
            structure = ("last_only", size, float(active[-1]))
        elif nonzero.size == size and np.all(active == active[0]):
            structure = ("uniform_prefix", size, float(active[0]))
        else:
            structure = ("general", size, float("nan"))
        assert theta.size == size
        kind, k, coeff = theta.structure()
        assert (kind, k) == structure[:2]
        assert coeff == structure[2] or (np.isnan(coeff) and np.isnan(structure[2]))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            WeightScheme(np.array([0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            WeightScheme(np.array([-1.0, 2.0]))
        with pytest.raises(InvalidInputError):
            WeightScheme(np.array([np.inf]))
        with pytest.raises(InvalidInputError):
            WeightScheme.first_k(0)

    @pytest.mark.parametrize(
        "named, coefficients",
        [
            (WeightScheme.first_k(4), [1.0, 1.0, 1.0, 1.0]),
            (WeightScheme.last_only(4), [0.0, 0.0, 0.0, 1.0]),
            (WeightScheme.single(), [1.0]),
            (WeightScheme.maml_equivalent(2), [0.0, 0.0, 0.0, 0.0, 1.0]),
        ],
    )
    def test_named_and_general_schemes_agree(self, named, coefficients):
        general = WeightScheme(np.array(coefficients))
        assert named == general and general == named and not named != general
        assert named.size == general.size
        assert named.structure() == general.structure()
        np.testing.assert_array_equal(named.coefficients, general.coefficients)
        assert named.coefficients is named.coefficients  # built once
        for theta in (named, general):
            assert not theta.coefficients.flags.writeable
            with pytest.raises(ValueError):
                theta.coefficients[0] = 2.0

    def test_equality_is_by_value(self):
        assert WeightScheme.first_k(3) != WeightScheme.first_k(4)
        assert WeightScheme.first_k(3) != WeightScheme.last_only(3)
        assert WeightScheme([2.0, 2.0]) != WeightScheme.first_k(2)
        general = WeightScheme([0.3, 0.0, 0.9])
        assert general == WeightScheme([0.3, 0.0, 0.9, 0.0])  # trailing zeros are inert
        assert general != WeightScheme([0.3, 0.1, 0.9])
        assert WeightScheme.first_k(3) != (1.0, 1.0, 1.0)
        assert isinstance(WeightScheme.first_k(3) == WeightScheme([1.0, 1.0, 1.0]), bool)

    def test_general_scheme_copies_its_input(self):
        coeffs = np.array([0.5, 1.0])
        theta = WeightScheme(coeffs)
        coeffs[0] = 3.0
        np.testing.assert_array_equal(theta.coefficients, [0.5, 1.0])
        assert coeffs.flags.writeable

    def test_schemes_are_immutable(self):
        theta = WeightScheme.first_k(3)
        with pytest.raises(AttributeError):
            theta.coefficients = np.ones(2)
        with pytest.raises(AttributeError):
            theta._structure = ("last_only", 1, 1.0)

    def test_named_schemes_take_constant_memory_in_k(self):
        import tracemalloc

        pop = scalar_pair_population()
        for k in (10**7, 10**9):  # 10**7 first: a regression costs 80 MB there, not 8 GB
            tracemalloc.start()
            try:
                fed, maml = WeightScheme.first_k(k), WeightScheme.last_only(k)
                assert (fed.size, fed.structure()) == (k, ("uniform_prefix", k, 1.0))
                assert (maml.size, maml.structure()) == (k, ("last_only", k, 1.0))
                reports = [kappa_exact(pop, 0.0, 1e-12, theta) for theta in (fed, maml)]
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000
            for report in reports:
                assert 1.0 <= report.kappa_exact <= 4.0


class TestClientAndPopulation:
    def test_center_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            ClientModel(a_matrix=np.eye(2), center=np.zeros(3))

    def test_from_examples_moments(self):
        b1 = np.array([[3.0, 1.0], [1.0, 2.0]])
        b2 = np.array([[5.0, -1.0], [-1.0, 4.0]])
        examples = [
            QuadraticExample(b_matrix=b1, center=np.array([1.0, 0.0])),
            QuadraticExample(b_matrix=b2, center=np.array([0.0, -1.0])),
        ]
        client = ClientModel.from_examples(examples)
        np.testing.assert_allclose(client.a_matrix, 0.5 * (b1 + b2), atol=1e-15)
        expected_center = np.linalg.solve(
            0.5 * (b1 + b2), 0.5 * (b1 @ [1.0, 0.0] + b2 @ [0.0, -1.0])
        )
        np.testing.assert_allclose(client.center, expected_center, atol=1e-12)

    def test_inconsistent_examples_rejected(self):
        examples = [QuadraticExample(b_matrix=np.eye(2), center=np.zeros(2))]
        with pytest.raises(InvalidInputError):
            ClientModel(a_matrix=2 * np.eye(2), center=np.zeros(2), examples=examples)

    def test_indefinite_example_matrix_allowed(self):
        # individual B_z may be indefinite; only the mean must satisfy the bounds
        examples = [
            QuadraticExample(b_matrix=np.diag([3.0, -0.5]), center=np.zeros(2)),
            QuadraticExample(b_matrix=np.diag([1.0, 4.5]), center=np.zeros(2)),
        ]
        client = ClientModel.from_examples(examples)
        np.testing.assert_allclose(client.a_matrix, np.diag([2.0, 2.0]), atol=1e-15)

    def test_population_validates_spectrum(self):
        client = scalar_client(4.0, 0.0)
        with pytest.raises(InvalidInputError, match="above ell"):
            Population.uniform([client], bounds=SpectrumBounds(mu=1.0, ell=2.0, c_radius=1.0))
        with pytest.raises(InvalidInputError, match="below mu"):
            Population.uniform([client], bounds=SpectrumBounds(mu=5.0, ell=6.0, c_radius=1.0))

    def test_population_stores_read_only_spectra(self):
        pop = random_population(keyed_rng(12, 0), max_dim=8, max_clients=6, min_dim=2, min_clients=2)
        assert pop.spectra.shape == (pop.n_clients, pop.dim)
        for row, client in zip(pop.spectra, pop.clients):
            np.testing.assert_array_equal(row, np.linalg.eigh(client.a_matrix).eigenvalues)
        assert not pop.spectra.flags.writeable
        with pytest.raises(ValueError):
            pop.spectra[0, 0] = 0.0
        assert "spectra" not in repr(pop)

    @pytest.mark.parametrize("dim,n_clients", [(1, 7), (12, 6), (30, 10), (48, 5), (48, 30)])
    def test_batched_spectra_equal_per_client_eigh(self, dim, n_clients):
        # clients are decomposed in stacked batches (several batches at d = 30
        # and d = 48); every row must equal that client's own eigh bit for bit
        pop = random_population(
            keyed_rng(12, dim), min_dim=dim, max_dim=dim, min_clients=n_clients, max_clients=n_clients
        )
        for row, client in zip(pop.spectra, pop.clients):
            np.testing.assert_array_equal(row, np.linalg.eigh(client.a_matrix).eigenvalues)

    def test_uniform_infers_tight_bounds_from_one_decomposition(self, monkeypatch):
        clients = [
            ClientModel(a_matrix=np.diag([2.0, 3.0]), center=np.array([0.0, 0.5])),
            ClientModel(a_matrix=np.diag([0.5, 1.0]), center=np.array([1.0, 1.0])),
            ClientModel(a_matrix=np.array([[4.0, 1.0], [1.0, 4.0]]), center=np.zeros(2)),
            ClientModel(a_matrix=np.eye(2), center=np.array([-0.25, 0.0])),
        ]
        calls = []
        original = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or original(a))
        pop = Population.uniform(clients)
        assert calls == [(4, 2, 2)]
        assert pop.bounds == SpectrumBounds(mu=0.5, ell=5.0, c_radius=float(np.sqrt(2.0)))
        np.testing.assert_array_equal(pop.weights, np.full(4, 0.25))

    def test_uniform_rejects_indefinite_and_empty(self):
        with pytest.raises(InvalidInputError, match="positive definite, got eigenvalue -1"):
            Population.uniform([scalar_client(2.0, 0.0), scalar_client(-1.0, 0.0)])
        with pytest.raises(InvalidInputError, match="at least one client"):
            Population.uniform([])

    def test_population_names_first_violating_client(self):
        # clients 1 and 2 both violate; client 1 is named, and within one
        # client mu is checked before ell, ell before the center norm
        bounds = SpectrumBounds(mu=1.0, ell=2.0, c_radius=1.0)
        with pytest.raises(InvalidInputError, match=r"^client 1: eigenvalue 0.5 below mu=1.0$"):
            Population.uniform([scalar_client(1.5, 0.0), scalar_client(0.5, 3.0), scalar_client(3.0, 0.0)], bounds)
        with pytest.raises(InvalidInputError, match=r"^client 0: eigenvalue 3 above ell=2.0$"):
            Population.uniform([scalar_client(3.0, 3.0), scalar_client(0.5, 0.0)], bounds)
        with pytest.raises(InvalidInputError, match=r"^client 1: center norm 3 above c_radius=1.0$"):
            Population.uniform([scalar_client(1.5, 0.0), scalar_client(1.5, 3.0), scalar_client(0.5, 0.0)], bounds)

    def test_population_validates_center_norm(self):
        client = scalar_client(1.0, 3.0)
        with pytest.raises(InvalidInputError, match="center norm"):
            Population.uniform([client], bounds=SpectrumBounds(mu=1.0, ell=2.0, c_radius=1.0))

    def test_population_validates_weights(self):
        clients = (scalar_client(1.0, 0.0), scalar_client(2.0, 0.0))
        bounds = SpectrumBounds(mu=1.0, ell=2.0, c_radius=0.0)
        with pytest.raises(InvalidInputError, match="sum"):
            Population(clients=clients, weights=np.array([0.7, 0.6]), bounds=bounds)
        with pytest.raises(InvalidInputError):
            Population(clients=clients, weights=np.array([1.5, -0.5]), bounds=bounds)

    def test_construction_copies_the_callers_arrays(self):
        # writing to an array after construction changed the client while its
        # validated spectra, bounds and surrogate memo stayed as they were
        a = np.diag([1.0, 1.0])
        center = np.array([0.5, 0.0])
        weights = np.array([0.25, 0.75])
        b, example_center = np.diag([2.0, 3.0]), np.array([1.0, 0.0])
        example = QuadraticExample(b_matrix=b, center=example_center)
        pop = Population(
            clients=(ClientModel(a_matrix=a, center=center), ClientModel(a_matrix=a, center=-center)),
            weights=weights, bounds=None,
        )
        theta = WeightScheme.first_k(3)
        hessian = surrogate_hessian(pop, 0.0, 0.1, theta)
        for array in (a, center, weights, b, example_center):
            array[0] = 100.0
        np.testing.assert_array_equal(pop.clients[0].a_matrix, np.eye(2))
        np.testing.assert_array_equal(pop.clients[1].center, [-0.5, 0.0])
        np.testing.assert_array_equal(pop.weights, [0.25, 0.75])
        np.testing.assert_array_equal(pop.spectra, np.ones((2, 2)))
        np.testing.assert_array_equal(example.b_matrix, np.diag([2.0, 3.0]))
        np.testing.assert_array_equal(example.center, [1.0, 0.0])
        np.testing.assert_array_equal(surrogate_hessian(pop, 0.0, 0.1, theta), hessian)

    def test_arrays_are_read_only(self):
        example = QuadraticExample(b_matrix=np.diag([2.0, 3.0]), center=np.array([1.0, 0.0]))
        client = ClientModel.from_examples([example])
        pop = Population.uniform([client])
        arrays = [client.a_matrix, client.center, example.b_matrix, example.center, pop.weights]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        # a client's arrays are its own, not views of another client's
        for array in (client.a_matrix, client.center):
            assert array.base is None

    def test_empty_population_rejected(self):
        with pytest.raises(InvalidInputError):
            Population(clients=(), weights=np.array([]), bounds=SpectrumBounds(1.0, 2.0))

    def test_equality_is_by_value_and_never_raises(self, tmp_path):
        example = QuadraticExample(b_matrix=np.diag([2.0, 3.0]), center=np.array([1.0, 0.0]))
        other_example = QuadraticExample(b_matrix=np.diag([2.0, 3.0]), center=np.array([0.0, 1.0]))
        client = ClientModel.from_examples([example, other_example])
        pop = random_population(keyed_rng(40, 0), min_dim=3, max_dim=3, min_clients=3, max_clients=3)
        copy = Population(
            clients=tuple(ClientModel(a_matrix=c.a_matrix.copy(), center=c.center.copy()) for c in pop.clients),
            weights=pop.weights.copy(),
            bounds=pop.bounds,
        )
        reweighted = Population(clients=pop.clients, weights=pop.weights[::-1], bounds=pop.bounds)
        cases = [
            (example, QuadraticExample(b_matrix=example.b_matrix.copy(), center=example.center.copy()), True),
            (example, other_example, False),
            (client, ClientModel.from_examples([example, other_example]), True),
            (client, ClientModel(a_matrix=client.a_matrix, center=client.center), False),  # no examples
            (pop.clients[0], pop.clients[1], False),
            (pop, copy, True),
            (pop, reweighted, False),
            (pop, Population(clients=pop.clients, weights=pop.weights, bounds=None), False),
            (pop, pop.clients[0], False),
        ]
        for left, right, equal in cases:
            assert (left == right) is equal and (right == left) is equal
            assert (left != right) is (not equal)
        assert load_text(saved_text(pop, tmp_path), tmp_path) == pop


class TestDistortionMatrix:
    def test_nan_rates_rejected(self):
        client = scalar_client(2.0, 0.0)
        theta = WeightScheme.first_k(3)
        for alpha, gamma in ((np.nan, 0.1), (0.0, np.nan)):
            with pytest.raises(InvalidInputError, match="alpha and gamma must be nonnegative"):
                distortion_matrix(client.a_matrix, alpha, gamma, theta)

    def test_theta1_is_identity(self):
        client = scalar_client(4.0, 0.0)
        for alpha, gamma in [(0.0, 0.0), (0.5, 0.1), (3.0, 0.05)]:
            np.testing.assert_array_equal(
                distortion_matrix(client.a_matrix, alpha, gamma, WeightScheme.single()), np.eye(1)
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10])
    def test_scalar_last_only_geometric(self, k):
        # A = 4, gamma = 1/8: (1 - gamma A)^(K-1) = (1/2)^(K-1)
        client = scalar_client(4.0, 0.0)
        q = distortion_matrix(client.a_matrix, 0.0, 0.125, WeightScheme.last_only(k))
        assert q[0, 0] == pytest.approx(0.5 ** (k - 1), abs=1e-15)

    def test_scalar_first_k_sum(self):
        # A = 2, gamma = 0.1: 1 + 0.8 + 0.64 = 2.44
        client = scalar_client(2.0, 0.0)
        q = distortion_matrix(client.a_matrix, 0.0, 0.1, WeightScheme.first_k(3))
        assert q[0, 0] == pytest.approx(2.44, abs=1e-15)

    def test_commutes_with_client_matrix(self):
        rng = keyed_rng(11, 0)
        for trial in range(20):
            pop = random_population(keyed_rng(11, trial), max_dim=8, max_clients=3)
            theta = random_theta(keyed_rng(12, trial), k_max=12)
            gamma = 0.9 / pop.bounds.ell
            for client in pop.clients:
                q = distortion_matrix(client.a_matrix, 0.0, gamma, theta)
                a = client.a_matrix
                assert np.linalg.norm(q @ a - a @ q, 2) <= 1e-10

    def test_eigenvalue_mapping(self):
        # each eigenvalue lam of A maps to sum_k theta_k (1-gamma(lam+alpha))^(k-1)
        # for Q, and that times lam for QA, matched as multisets
        for trial in range(20):
            rng = keyed_rng(13, trial)
            pop = random_population(rng, max_dim=8, max_clients=3)
            theta = random_theta(keyed_rng(14, trial), k_max=12)
            alpha = 0.5
            gamma = 0.9 / (pop.bounds.ell + alpha)
            for client in pop.clients:
                lams = eigh(client.a_matrix).eigenvalues
                q = distortion_matrix(client.a_matrix, alpha, gamma, theta)
                qa = 0.5 * (q @ client.a_matrix + client.a_matrix @ q)
                np.testing.assert_allclose(
                    np.sort(eigh(q).eigenvalues),
                    np.sort(scheme_q_eigenvalues(lams, alpha, gamma, theta)),
                    atol=1e-9,
                )
                np.testing.assert_allclose(
                    np.sort(eigh(qa).eigenvalues),
                    np.sort(scheme_q_eigenvalues(lams, alpha, gamma, theta) * lams),
                    atol=1e-9,
                )

    def test_positive_definite_under_contractive_gamma(self):
        # Q is built from q(lam) > 0, the certificate lemma1_positive_definite
        # reads; eigh(Q)'s smallest eigenvalue itself can sit below eps * ||Q||,
        # where its sign is rounding noise
        for trial in range(20):
            rng = keyed_rng(15, trial)
            pop = random_population(rng, max_dim=8, max_clients=4)
            theta = random_theta(keyed_rng(16, trial), k_max=20)
            gamma = float(rng.uniform(0.0, 0.99)) / pop.bounds.ell
            mapped = scheme_q_eigenvalues(pop.spectra, 0.0, gamma, theta)
            assert (mapped > 0.0).all()
            for client, q_eigs in zip(pop.clients, mapped):
                q = distortion_matrix(client.a_matrix, 0.0, gamma, theta)
                np.testing.assert_allclose(eigh(q).eigenvalues, np.sort(q_eigs), atol=1e-9)


def _stack(kind, rng, d=6, n=3):
    """A symmetric positive definite (n, d, d) stack: dense, diagonal, block-diagonal or one client."""
    dense = random_population(rng, min_dim=d, max_dim=d, min_clients=n, max_clients=n).matrices
    if kind == "dense":
        return dense
    if kind == "diagonal":
        return np.stack([np.diag(rng.uniform(1.0, 10.0, d)) for _ in range(n)])
    if kind == "block_diagonal":
        blocks = dense.copy()
        blocks[:, :2, 2:] = 0.0
        blocks[:, 2:, :2] = 0.0
        return blocks
    return dense[:1]


def _relative_gap(got, expected):
    return float(np.abs(got - expected).max() / np.abs(expected).max())


class TestHornerReference:
    """The eigenpair kernel agrees with the literal Horner polynomial to rounding."""

    # Up to K = 64 q(lam) is well conditioned in lam. A last-only q = xi^1023
    # is not: its relative condition number is about 1023 gamma lam / xi, and
    # the two routes' Q then differ by up to 6e-13 relative here, so K = 1024
    # is compared on the surrogate below, at a small gamma.
    @pytest.mark.parametrize("kind", ["dense", "diagonal", "block_diagonal", "one_client"])
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 64])
    def test_stack_matches_horner(self, kind, k):
        rng = keyed_rng(47, k)
        a = _stack(kind, rng)
        ell = float(np.linalg.eigvalsh(a).max())
        general = rng.uniform(0.1, 1.0, size=k)
        general[1::3] = 0.0
        general[-1] = 1.0
        stacks = (a, a[0]) if kind == "one_client" else (a,)
        for theta in (WeightScheme.first_k(k), WeightScheme.last_only(k), WeightScheme(general)):
            for alpha in (0.0, 3.0 * ell):
                for gamma in (0.0, 0.5 / (ell + alpha), 0.95 / (ell + alpha)):
                    for stack in stacks:
                        q = distortion_matrix(stack, alpha, gamma, theta)
                        assert _relative_gap(q, horner_distortion_matrix(stack, alpha, gamma, theta)) <= 1e-12

    @pytest.mark.parametrize("named", [WeightScheme.first_k, WeightScheme.last_only])
    def test_surrogate_matches_horner_at_d48(self, named, monkeypatch):
        pop = random_population(keyed_rng(48, 0), min_dim=48, max_dim=48, min_clients=48, max_clients=48)
        gamma = 1e-3
        for k in (1, 4, 16, 64, 256, 1024):
            theta = named(k)
            h = surrogate_hessian(pop, 0.0, gamma, theta)
            x = surrogate_minimizer(pop, 0.0, gamma, theta)
            with monkeypatch.context() as patch:
                patch.setattr(qw, "distortion_matrix", horner_distortion_matrix)
                assert _relative_gap(h, surrogate_hessian(pop, 0.0, gamma, theta)) <= 1e-12
                assert _relative_gap(x, surrogate_minimizer(pop, 0.0, gamma, theta)) <= 1e-12


class TestSurrogateHessian:
    def test_single_client_theta1(self):
        client = scalar_client(4.0, 0.0)
        pop = Population.uniform([client])
        np.testing.assert_allclose(
            surrogate_hessian(pop, 0.0, 0.1, WeightScheme.single()), [[4.0]], atol=1e-15
        )

    def test_gamma_zero_scales_mean(self):
        pop = scalar_pair_population()
        theta = WeightScheme.first_k(4)
        np.testing.assert_allclose(
            surrogate_hessian(pop, 0.0, 0.0, theta), [[4.0 * 2.5]], atol=1e-12
        )

    def test_scalar_pair_value(self):
        # clients A = (4, 1), gamma = 1/8, first two gradients: (6 + 1.875) / 2
        pop = scalar_pair_population()
        h = surrogate_hessian(pop, 0.0, 0.125, WeightScheme.first_k(2))
        assert h[0, 0] == pytest.approx(3.9375, abs=1e-15)

    def test_gamma_to_zero_converges_monotonically(self):
        pop = random_population(keyed_rng(17, 0), max_dim=6, max_clients=4, min_dim=2)
        theta = WeightScheme.first_k(5)
        target = theta.coefficients.sum() * sum(
            w * c.a_matrix for w, c in zip(pop.weights, pop.clients)
        )
        gaps = []
        for k in range(1, 9):
            h = surrogate_hessian(pop, 0.0, 10.0**-k, theta)
            gaps.append(np.linalg.norm(h - target, 2))
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 1e-6 * np.linalg.norm(target, 2)


class TestSurrogateGradient:
    def test_zero_at_minimizer(self):
        pop = random_population(keyed_rng(18, 0), max_dim=6, max_clients=4)
        theta = random_theta(keyed_rng(18, 1), k_max=10)
        gamma = 0.5 / pop.bounds.ell
        x_star = surrogate_minimizer(pop, 0.0, gamma, theta)
        g = surrogate_gradient(pop, x_star, 0.0, gamma, theta)
        assert np.linalg.norm(g) <= 1e-10 * (1.0 + np.linalg.norm(x_star))

    def test_single_client_at_center(self):
        client = scalar_client(3.0, 0.7)
        pop = Population.uniform([client])
        g = surrogate_gradient(pop, np.array([0.7]), 0.0, 0.1, WeightScheme.single())
        np.testing.assert_allclose(g, [0.0], atol=1e-15)

    def test_scalar_pair_value(self):
        pop = scalar_pair_population()
        g = surrogate_gradient(pop, np.zeros(1), 0.0, 0.125, WeightScheme.first_k(2))
        assert g[0] == pytest.approx(-2.0625, abs=1e-15)


class TestMinimizers:
    def test_single_client_center(self):
        client = ClientModel(a_matrix=np.diag([2.0, 5.0]), center=np.array([0.3, -0.4]))
        pop = Population.uniform([client])
        np.testing.assert_allclose(
            surrogate_minimizer(pop, 0.5, 0.05, WeightScheme.first_k(6)), client.center, atol=1e-12
        )
        np.testing.assert_allclose(empirical_minimizer(pop), client.center, atol=1e-12)

    def test_gamma_zero_matches_empirical(self):
        pop = random_population(keyed_rng(19, 0), max_dim=6, max_clients=5)
        theta = WeightScheme.first_k(7)
        np.testing.assert_allclose(
            surrogate_minimizer(pop, 0.0, 0.0, theta), empirical_minimizer(pop), atol=1e-12
        )

    def test_scalar_pair_closed_form_and_grid_search(self):
        pop = scalar_pair_population()
        theta = WeightScheme.first_k(2)
        x_star = surrogate_minimizer(pop, 0.0, 0.125, theta)
        assert x_star[0] == pytest.approx(4.125 / 7.875, abs=1e-12)
        # grid-search oracle on [-1, 1] with step 1e-6
        grid = np.arange(-1.0, 1.0 + 1e-6, 1e-6)
        values = np.array(
            [
                0.5 * w * qa * (grid - c.center[0]) ** 2
                for w, qa, c in zip(
                    pop.weights,
                    [6.0, 1.875],  # Q_i A_i for the two scalar clients
                    pop.clients,
                )
            ]
        ).sum(axis=0)
        assert abs(grid[np.argmin(values)] - x_star[0]) <= 2e-6

    def test_symmetric_pair_empirical_zero(self):
        c = np.array([0.5, -0.5])
        a = np.diag([2.0, 3.0])
        pop = Population.uniform(
            [ClientModel(a_matrix=a, center=c), ClientModel(a_matrix=a, center=-c)]
        )
        np.testing.assert_allclose(empirical_minimizer(pop), np.zeros(2), atol=1e-14)

    def test_scalar_pair_empirical(self):
        assert empirical_minimizer(scalar_pair_population())[0] == pytest.approx(0.6, abs=1e-15)

    def test_empirical_residual(self):
        # E[A_i (x - c_i)] vanishes at the empirical minimizer
        for trial in range(10):
            pop = random_population(keyed_rng(22, trial), max_dim=10, max_clients=6)
            x_star = empirical_minimizer(pop)
            residual = sum(
                w * (c.a_matrix @ (x_star - c.center))
                for w, c in zip(pop.weights, pop.clients)
            )
            assert np.linalg.norm(residual) <= 1e-10

    def test_conditioning_error(self):
        pop = scalar_pair_population()
        with pytest.raises(ConditioningError):
            surrogate_minimizer(pop, 0.0, 0.25, WeightScheme.first_k(2))


class TestMinimizerDistance:
    def test_gamma_zero(self):
        pop = scalar_pair_population()
        assert minimizer_distance(pop, 0.0, 0.0, WeightScheme.first_k(3)) <= 1e-12

    def test_theta1_any_gamma(self):
        pop = scalar_pair_population()
        assert minimizer_distance(pop, 0.0, 0.2, WeightScheme.single()) <= 1e-12

    def test_scalar_pair_value(self):
        pop = scalar_pair_population()
        d = minimizer_distance(pop, 0.0, 0.125, WeightScheme.first_k(2))
        assert d == pytest.approx(abs(4.125 / 7.875 - 0.6), abs=1e-12)


class TestSurrogateQueries:
    """Every surrogate query builds fresh arrays, equal to a fresh population's, and checks its input."""

    def test_results_equal_a_fresh_population_and_stay_unaliased(self):
        pop = random_population(keyed_rng(42, 0), min_dim=5, max_dim=5, min_clients=4, max_clients=4)

        def fresh():
            return Population(clients=pop.clients, weights=pop.weights, bounds=pop.bounds)

        gamma = 0.5 / pop.bounds.ell
        keys = [(0.0, gamma, WeightScheme.first_k(6)), (0.5, gamma, WeightScheme([0.2, 0.0, 0.7])),
                (0.0, gamma / 2, WeightScheme.last_only(6))]
        for alpha, g, theta in keys + keys[::-1] + keys:
            h = surrogate_hessian(pop, alpha, g, theta)
            x = surrogate_minimizer(pop, alpha, g, theta)
            assert np.array_equal(h, surrogate_hessian(fresh(), alpha, g, theta))
            assert np.array_equal(x, surrogate_minimizer(fresh(), alpha, g, theta))
            assert minimizer_distance(pop, alpha, g, theta) == minimizer_distance(fresh(), alpha, g, theta)
            h[:] = 0.0
            x[:] = 0.0
            assert np.array_equal(surrogate_hessian(pop, alpha, g, theta), surrogate_hessian(fresh(), alpha, g, theta))
            assert np.array_equal(surrogate_minimizer(pop, alpha, g, theta),
                                  surrogate_minimizer(fresh(), alpha, g, theta))

    def test_checks_run_on_every_call(self):
        pop = scalar_pair_population()
        theta = WeightScheme.first_k(3)
        surrogate_hessian(pop, 0.0, 0.3, theta)  # gamma = 0.3 > 1/ell: not contractive
        with pytest.raises(ConditioningError):
            surrogate_minimizer(pop, 0.0, 0.3, theta)
        with pytest.raises(InvalidInputError):
            surrogate_hessian(pop, 0.0, float("nan"), theta)


def saved_text(pop, tmp_path) -> str:
    save_population(pop, tmp_path / "saved.txt")
    return (tmp_path / "saved.txt").read_text(encoding="utf-8")


def load_text(text: str, tmp_path):
    path = tmp_path / "pop.txt"
    path.write_bytes(text.encode("utf-8"))
    return load_population(path)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        pop = random_population(keyed_rng(21, 0), max_dim=5, max_clients=4, min_dim=2)
        text = saved_text(pop, tmp_path)
        back = load_text(text, tmp_path)
        assert back.dim == pop.dim
        assert back.n_clients == pop.n_clients
        np.testing.assert_array_equal(back.weights, pop.weights)
        assert back.bounds == pop.bounds
        for c1, c2 in zip(pop.clients, back.clients):
            np.testing.assert_array_equal(c1.a_matrix, c2.a_matrix)
            np.testing.assert_array_equal(c1.center, c2.center)
        assert saved_text(back, tmp_path) == text

    def test_parse_error_names_line(self, tmp_path):
        pop = scalar_pair_population()
        lines = saved_text(pop, tmp_path).splitlines()
        lines[4] = "client weigth 0.5"  # typo on line 5
        with pytest.raises(PopulationFormatError) as err:
            load_text("\n".join(lines), tmp_path)
        assert "line 5" in str(err.value)
        assert err.value.line_number == 5

    def test_bad_number_reported(self, tmp_path):
        text = "lul-population v1\ndim 1\nbounds mu 1 ell 2 c_radius 0\nclients 1\nclient weight 1\na nope\nc 0\n"
        with pytest.raises(PopulationFormatError) as err:
            load_text(text, tmp_path)
        assert err.value.line_number == 6

    def test_comments_and_blank_lines(self, tmp_path):
        pop = scalar_pair_population()
        text = "# header comment\n\n" + saved_text(pop, tmp_path).replace(
            "clients 2", "clients 2  # two scalar clients"
        )
        back = load_text(text, tmp_path)
        assert back.n_clients == 2

    def test_truncated_file(self, tmp_path):
        text = "lul-population v1\ndim 2\n"
        with pytest.raises(PopulationFormatError):
            load_text(text, tmp_path)

    def test_format_is_pinned(self, tmp_path):
        expected = (
            "lul-population v1\ndim 1\nbounds mu 1 ell 4 c_radius 1\nclients 2\n"
            "client weight 0.5\na 4\nc 1\nclient weight 0.5\na 1\nc -1\n"
        )
        save_population(scalar_pair_population(), tmp_path / "pop.txt")
        assert (tmp_path / "pop.txt").read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace("client weight", "client weigth", 1),
             "line 5: expected 'client weight <w>'"),
            (lambda text: text.replace("\na ", "\na nope ", 1),
             "line 6: expected 1 values for matrix lower triangle, got 2"),
            (lambda text: text.replace("\nc ", "\nc 1 ", 1), "line 7: expected 1 values for center, got 2"),
            (lambda text: text.replace("clients 2", "clients 3"), "line 10: unexpected end of file"),
            (lambda text: text.replace("mu 1 ell 4", "mu 5 ell 4"), "line 3: need 0 < mu <= ell, got mu=5.0, ell=4.0"),
            (lambda text: text.replace("\n", "\r\n").replace("c -1", "c -1 2"),
             "line 10: expected 1 values for center, got 2"),
            # a form feed ends a line, as in str.splitlines
            (lambda text: text.replace("dim 1\n", "dim 1\x0c\n\x0c\n# x\n").replace("a 4", "a 4 4"),
             "line 10: expected 1 values for matrix lower triangle, got 2"),
            (lambda text: text.replace("\n", "\n\n  # comment\n").replace("c -1", "c x"),
             "line 28: bad number in center: could not convert string to float: 'x'"),
            (lambda text: text[: text.index("client weight")], "line 4: unexpected end of file"),
        ],
    )
    def test_file_errors_name_the_line(self, edit, message, tmp_path):
        # load_population reads the file line by line; every error names the
        # line that str.splitlines() would number
        with pytest.raises(PopulationFormatError) as caught:
            load_text(edit(saved_text(scalar_pair_population(), tmp_path)), tmp_path)
        assert str(caught.value) == message
        assert caught.value.line_number == int(message.split(":")[0].removeprefix("line "))

    def test_files_stream_line_by_line(self, tmp_path):
        # neither direction holds the whole file text: peak allocation stays
        # under half the file size (the whole text costs it at least once)
        import tracemalloc

        pop = random_population(keyed_rng(23, 0), min_dim=48, max_dim=48, min_clients=32, max_clients=32)
        path = tmp_path / "pop.txt"
        tracemalloc.start()
        try:
            save_population(pop, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            back = load_population(path)
            kept, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert save_peak < size / 2
        assert load_peak - kept < size / 2
        assert saved_text(back, tmp_path) == path.read_text(encoding="utf-8")


@given(
    lam=st.floats(min_value=0.1, max_value=10.0),
    gamma_frac=st.floats(min_value=0.0, max_value=0.99),
    k=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=120, deadline=None)
def test_distortion_matches_eigen_map_scalar(lam, gamma_frac, k):
    """1x1 distortion equals the scalar eigenvalue map for every scheme shape."""
    client = scalar_client(lam, 0.0)
    gamma = gamma_frac / lam
    for theta in (WeightScheme.first_k(k), WeightScheme.last_only(k)):
        q = distortion_matrix(client.a_matrix, 0.0, gamma, theta)[0, 0]
        mapped = scheme_q_eigenvalues(np.array([lam]), 0.0, gamma, theta)[0]
        assert q == pytest.approx(mapped, rel=1e-11, abs=1e-13)
