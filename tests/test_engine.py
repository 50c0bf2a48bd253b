"""Simulation engine: client updates, MAML meta-gradients, server rounds, tuning."""

import itertools
from dataclasses import replace
from math import comb

import numpy as np
import pytest

from local_update_lab import (
    ClientModel,
    Population,
    QuadraticExample,
    RunConfig,
    ServerOptSpec,
    SpectrumBounds,
    WeightScheme,
    auto_tune,
    auto_tune_for,
    client_update,
    client_update_maml,
    distortion_matrix,
    eigh,
    empirical_minimizer,
    kappa_exact,
    rho_from_kappa,
    round_operator,
    run,
    save_population,
    server_round,
    surrogate_gradient,
    surrogate_hessian,
    surrogate_minimizer,
)
from local_update_lab import engine
from local_update_lab.bounds import OPTIMIZER_KINDS
from local_update_lab.cli import main as cli_main
from local_update_lab.engine import (
    OptState,
    Trajectory,
    _apply_server_opt,
    export_trajectory_csv,
)
from local_update_lab.errors import DivergenceError, InvalidInputError
from local_update_lab.matrices import keyed_rng, spectral_radius
from local_update_lab.verify import (
    exact_stochastic_mean,
    random_admissible_params,
    random_client_with_examples,
    random_population,
    rate_check_population,
)


def scalar_client(a, c):
    return ClientModel(a_matrix=np.array([[float(a)]]), center=np.array([float(c)]))


def det_cfg(alpha, gamma, theta, rounds=1, seed=0):
    return RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=rounds, seed=seed)


# The per-client K-step loop that the batched kernel replaced, kept as the
# reference the kernel must reproduce bit for bit.


def reference_client_update(client, x, alpha, gamma, theta):
    coeffs = theta.coefficients[: theta.size]
    a = client.a_matrix
    c = client.center
    xk = x.copy()
    total = np.zeros_like(x)
    for coeff in coeffs:
        g = a @ (xk - c) + alpha * (xk - x)
        if coeff != 0.0:
            total += coeff * g
        xk = xk - gamma * g
    return total


def reference_server_round(pop, x, cfg, opt, state=None):
    state = OptState() if state is None else state
    x = np.asarray(x, dtype=float)
    q = np.zeros_like(x)
    for weight, client in zip(pop.weights, pop.clients):
        q += weight * reference_client_update(client, x, cfg.alpha, cfg.gamma, cfg.theta)
    x_next, state = _apply_server_opt(opt, x, q, state)
    return x_next, state, q


def reference_run(pop, x0, cfg, opt):
    x, state = np.asarray(x0, dtype=float), OptState()
    iterates, gradients = [x], []
    for _ in range(cfg.rounds):
        x, state, q = reference_server_round(pop, x, cfg, opt, state)
        iterates.append(x)
        gradients.append(q)
    return Trajectory(iterates=np.array(iterates), pseudo_gradients=np.array(gradients))


def kernel_case(rng):
    """A random population (d 1-40, n 1-12, some zero weights) and (alpha, gamma, theta).

    theta has K in 1-50 with zero coefficients, trailing ones included.
    """
    pop = random_population(rng, max_dim=40, max_clients=12)
    weights = pop.weights * (rng.random(pop.n_clients) < 0.7)
    if not np.any(weights > 0.0):
        weights[0] = 1.0
    pop = Population(clients=pop.clients, weights=weights / weights.sum(), bounds=pop.bounds)
    alpha = float(rng.choice([0.0, 0.5, 2.0]))
    gamma = float(rng.uniform(0.0, 0.95)) / (pop.bounds.ell + alpha)
    k = int(rng.integers(1, 51))
    coeffs = rng.uniform(0.0, 1.0, k) * (rng.random(k) < 0.6)
    coeffs[rng.integers(0, k)] = 1.0
    return pop, alpha, gamma, WeightScheme(coeffs)


def example_client(rng, dim):
    """A client backed by exactly two examples, so batch_size=2 is a full batch."""
    return ClientModel.from_examples(random_client_with_examples(rng, dim=dim).examples[:2])


class TestConfigValidation:
    def test_run_config(self):
        theta = WeightScheme.single()
        for alpha, gamma in ((-1.0, 0.0), (np.nan, 0.0), (0.0, np.nan)):
            with pytest.raises(InvalidInputError, match="alpha and gamma must be nonnegative"):
                RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=1)
        with pytest.raises(InvalidInputError):
            RunConfig(alpha=0.0, gamma=0.0, theta=theta, rounds=0)
        with pytest.raises(InvalidInputError):
            RunConfig(alpha=0.0, gamma=0.0, theta=theta, rounds=1, mode="async")
        with pytest.raises(InvalidInputError):
            RunConfig(alpha=0.0, gamma=0.0, theta=theta, rounds=1, mode="stochastic")

    @pytest.mark.parametrize("alpha, gamma", [(np.inf, 0.0), (0.0, np.inf), (np.inf, np.inf)])
    def test_run_config_rejects_infinite_rates(self, alpha, gamma):
        with pytest.raises(InvalidInputError, match="alpha and gamma must be finite"):
            RunConfig(alpha=alpha, gamma=gamma, theta=WeightScheme.single(), rounds=1)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"rounds": 2.5}, "rounds must be an integer, got 2.5"),
            ({"rounds": 3.0}, "rounds must be an integer, got 3.0"),
            ({"mode": "stochastic", "clients_per_round": 2.5, "batch_size": 1},
             "clients_per_round must be an integer, got 2.5"),
            ({"mode": "stochastic", "clients_per_round": 2, "batch_size": 1.5},
             "batch_size must be an integer, got 1.5"),
            ({"mode": "stochastic", "clients_per_round": 2, "batch_size": "1"},
             "batch_size must be an integer, got '1'"),
        ],
    )
    def test_run_config_rejects_non_integer_counts(self, fields, message):
        config = {"alpha": 0.0, "gamma": 0.01, "theta": WeightScheme.single(), "rounds": 1} | fields
        with pytest.raises(InvalidInputError) as caught:
            RunConfig(**config)
        assert str(caught.value) == message

    def test_server_opt_spec(self):
        with pytest.raises(InvalidInputError):
            ServerOptSpec(kind="adam", step=0.1)
        with pytest.raises(InvalidInputError):
            ServerOptSpec(kind="plain", step=0.0)
        with pytest.raises(InvalidInputError):
            ServerOptSpec(kind="heavy_ball", step=0.1, momentum=1.0)
        # plain normalises momentum away
        assert ServerOptSpec(kind="plain", step=0.1, momentum=0.7).momentum == 0.0

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), -float("inf"), -0.1])
    def test_server_step_must_be_positive_and_finite(self, step):
        with pytest.raises(InvalidInputError, match="step must be positive and finite"):
            ServerOptSpec(kind="heavy_ball", step=step, momentum=0.5)

    def test_trajectory_shape_validation(self):
        with pytest.raises(InvalidInputError):
            Trajectory(iterates=np.zeros((3, 2)), pseudo_gradients=np.zeros((3, 2)))


class TestClientUpdateDeterministic:
    def test_gamma_zero_scales_plain_gradient(self):
        client = ClientModel(a_matrix=np.diag([2.0, 5.0]), center=np.array([0.5, -0.5]))
        x = np.array([1.0, 1.0])
        theta = WeightScheme.first_k(4)
        got = client_update(client, x, det_cfg(0.0, 0.0, theta))
        np.testing.assert_allclose(got, 4.0 * client.a_matrix @ (x - client.center), atol=1e-14)

    def test_scalar_step_by_step(self):
        # A=2, c=0, x=1, gamma=0.1, first three gradients: 2 + 1.6 + 1.28 = 4.88
        client = scalar_client(2.0, 0.0)
        got = client_update(client, np.array([1.0]), det_cfg(0.0, 0.1, WeightScheme.first_k(3)))
        assert got[0] == pytest.approx(4.88, abs=1e-15)
        # equals Q * A * x with Q = 2.44
        assert got[0] == pytest.approx(2.44 * 2.0 * 1.0, abs=1e-15)

    def test_matches_surrogate_gradient_fuzz(self):
        for trial in range(40):
            rng = keyed_rng(50, trial)
            pop = random_population(rng, max_dim=10, max_clients=4)
            alpha, gamma, theta = random_admissible_params(rng, pop.bounds.ell, k_max=30)
            x = rng.uniform(-2.0, 2.0, size=pop.dim)
            for client in pop.clients:
                single = Population.uniform([client], bounds=pop.bounds)
                predicted = surrogate_gradient(single, x, alpha, gamma, theta)
                got = client_update(client, x, det_cfg(alpha, gamma, theta))
                assert np.linalg.norm(got - predicted) <= 1e-10


    def test_equals_reference_loop_bitwise(self):
        for trial in range(30):
            rng = keyed_rng(70, trial)
            pop, alpha, gamma, theta = kernel_case(rng)
            x = rng.uniform(-2.0, 2.0, size=pop.dim)
            cfg = det_cfg(alpha, gamma, theta)
            for client in pop.clients:
                expected = reference_client_update(client, x, alpha, gamma, theta)
                np.testing.assert_array_equal(client_update(client, x, cfg), expected)


class TestClientUpdateStochastic:
    def test_requires_examples_and_rng(self):
        client = scalar_client(2.0, 0.0)
        cfg = RunConfig(
            alpha=0.0, gamma=0.05, theta=WeightScheme.single(), rounds=1,
            mode="stochastic", clients_per_round=1, batch_size=1,
        )
        with pytest.raises(InvalidInputError, match="examples"):
            client_update(client, np.zeros(1), cfg, keyed_rng(0, 0))

    def test_batch_size_checked(self):
        client = random_client_with_examples(keyed_rng(51, 0), dim_max=2)
        cfg = RunConfig(
            alpha=0.0, gamma=0.01, theta=WeightScheme.single(), rounds=1,
            mode="stochastic", clients_per_round=1, batch_size=len(client.examples) + 1,
        )
        with pytest.raises(InvalidInputError, match="batch_size"):
            client_update(client, np.zeros(client.dim), cfg, keyed_rng(0, 0))

    def test_unbiased_against_surrogate_gradient(self):
        # the exact mean over all C(n, B)^3 batch sequences is the surrogate gradient
        client = random_client_with_examples(keyed_rng(52, 0), dim_max=3)
        pop = Population.uniform([client])
        gamma = 0.3 / pop.bounds.ell
        theta = WeightScheme.first_k(3)
        x = np.full(client.dim, 1.5)
        predicted = surrogate_gradient(pop, x, 0.5, gamma, theta)
        for batch in (1, 2):
            mean = exact_stochastic_mean(client, x, 0.5, gamma, theta, batch)
            assert np.linalg.norm(mean - predicted) <= 1e-12 * (1.0 + np.linalg.norm(predicted))

    def test_single_draw_matches_batched_path(self):
        # client_update and the batched kernel behind the exact mean share the
        # local-step code: a fixed rng gives the same draw, and every row of a
        # batched call equals that draw computed alone
        client = random_client_with_examples(keyed_rng(53, 0), dim_max=3)
        theta = WeightScheme.first_k(2)
        cfg = RunConfig(
            alpha=0.0, gamma=0.02, theta=theta, rounds=1,
            mode="stochastic", clients_per_round=1, batch_size=1,
        )
        x = np.zeros(client.dim)
        one = client_update(client, x, cfg, keyed_rng(9, 9))
        idx = engine._draw_batch_indices(keyed_rng(9, 9), len(client.examples), 1, 2, 1)
        batched = engine._stochastic_client_updates(client, x, 0.0, 0.02, theta, idx)
        np.testing.assert_array_equal(one, batched[0])
        idx = engine._draw_batch_indices(keyed_rng(9, 10), len(client.examples), 40, 2, 1)
        rows = engine._stochastic_client_updates(client, x, 0.0, 0.02, theta, idx)
        for row, draw in zip(rows, idx):
            alone = engine._stochastic_client_updates(client, x, 0.0, 0.02, theta, draw[None])[0]
            np.testing.assert_array_equal(row, alone)

    @pytest.mark.parametrize("n_examples,batch", [(4, 1), (5, 2), (6, 3), (3, 3)])
    def test_batches_are_uniform_subsets(self, n_examples, batch):
        # the exact mean weighs every B-subset equally; the sampler must too
        draws = 20000
        idx = engine._draw_batch_indices(keyed_rng(58, n_examples, batch), n_examples, draws // 2, 2, batch)
        rows = np.sort(idx.reshape(-1, batch), axis=1)
        assert np.all(np.diff(rows, axis=1) > 0)  # no example twice in a batch
        subsets, counts = np.unique(rows, axis=0, return_counts=True)
        p = 1.0 / comb(n_examples, batch)
        assert len(subsets) == comb(n_examples, batch)
        assert np.all(np.abs(counts - p * draws) <= 5.0 * np.sqrt(draws * p * (1.0 - p)) + 1e-9)


class TestClientUpdateMaml:
    def test_scalar_hand_value(self):
        # K=1, A=2, gamma=0.1, x=1, c=0: (1 - 0.2)^2 * 2 = 1.28
        client = scalar_client(2.0, 0.0)
        got = client_update_maml(client, np.array([1.0]), 1, 0.1)
        assert got[0] == pytest.approx(1.28, abs=1e-15)

    def test_nan_rates_rejected(self):
        client = scalar_client(2.0, 0.0)
        for alpha, gamma in ((np.nan, 0.1), (0.0, np.nan)):
            with pytest.raises(InvalidInputError, match="alpha and gamma must be nonnegative"):
                client_update_maml(client, np.ones(1), 1, gamma, alpha)

    def test_gamma_zero_is_plain_gradient(self):
        client = ClientModel(a_matrix=np.diag([3.0, 1.0]), center=np.array([0.2, -0.2]))
        x = np.array([1.0, 2.0])
        got = client_update_maml(client, x, 5, 0.0)
        np.testing.assert_allclose(got, client.a_matrix @ (x - client.center), atol=1e-14)

    def test_matches_distortion_route(self):
        for trial in range(30):
            rng = keyed_rng(54, trial)
            dim = int(rng.integers(1, 6))
            pop = random_population(rng, max_dim=dim, min_dim=dim, max_clients=1)
            client = pop.clients[0]
            k = int(rng.integers(1, 15))
            alpha = float(rng.choice([0.0, 0.5]))
            gamma = float(rng.uniform(0.0, 0.9)) / (pop.bounds.ell + alpha)
            x = rng.uniform(-2.0, 2.0, size=dim)
            q = distortion_matrix(client.a_matrix, alpha, gamma, WeightScheme.maml_equivalent(k))
            expected = q @ client.a_matrix @ (x - client.center)
            got = client_update_maml(client, x, k, gamma, alpha)
            assert np.linalg.norm(got - expected) <= 1e-10


class TestServerRound:
    def test_fixed_point_at_minimizer(self):
        pop = random_population(keyed_rng(55, 0), max_dim=5, max_clients=4)
        theta = WeightScheme.first_k(3)
        gamma = 0.4 / pop.bounds.ell
        x_star = surrogate_minimizer(pop, 0.0, gamma, theta)
        opt = ServerOptSpec(kind="plain", step=0.1)
        x_next, _, q = server_round(pop, x_star, det_cfg(0.0, gamma, theta), opt)
        assert np.linalg.norm(q) <= 1e-10
        np.testing.assert_allclose(x_next, x_star, atol=1e-10)

    def test_gradient_step_definition(self):
        # single client with gradient (1, -2) at x = 0, step 1: x1 = (-1, 2)
        client = ClientModel(a_matrix=np.eye(2), center=np.array([-1.0, 2.0]))
        pop = Population.uniform([client])
        opt = ServerOptSpec(kind="plain", step=1.0)
        x_next, _, q = server_round(pop, np.zeros(2), det_cfg(0.0, 0.0, WeightScheme.single()), opt)
        np.testing.assert_allclose(q, [1.0, -2.0], atol=1e-15)
        np.testing.assert_allclose(x_next, [-1.0, 2.0], atol=1e-15)

    def test_deterministic_q_is_surrogate_gradient(self):
        pop = random_population(keyed_rng(56, 0), max_dim=6, max_clients=4)
        theta = WeightScheme.first_k(4)
        gamma = 0.3 / pop.bounds.ell
        x = np.full(pop.dim, 0.7)
        opt = ServerOptSpec(kind="plain", step=0.05)
        _, _, q = server_round(pop, x, det_cfg(0.0, gamma, theta), opt)
        assert np.linalg.norm(q - surrogate_gradient(pop, x, 0.0, gamma, theta)) <= 1e-10

    def test_heavy_ball_zero_momentum_equals_plain(self):
        pop = random_population(keyed_rng(57, 0), max_dim=4, max_clients=3)
        theta = WeightScheme.first_k(3)
        gamma = 0.3 / pop.bounds.ell
        cfg = det_cfg(0.0, gamma, theta, rounds=12)
        x0 = np.ones(pop.dim)
        plain = run(pop, x0, cfg, ServerOptSpec(kind="plain", step=0.04))
        heavy = run(pop, x0, cfg, ServerOptSpec(kind="heavy_ball", step=0.04, momentum=0.0))
        np.testing.assert_array_equal(plain.iterates, heavy.iterates)

    def test_deterministic_mode_requires_full_participation(self):
        pop = random_population(keyed_rng(58, 0), max_dim=3, max_clients=4, min_clients=2)
        cfg = RunConfig(
            alpha=0.0, gamma=0.0, theta=WeightScheme.single(), rounds=1,
            clients_per_round=1,
        )
        opt = ServerOptSpec(kind="plain", step=0.01)
        with pytest.raises(InvalidInputError, match="full participation"):
            server_round(pop, np.zeros(pop.dim), cfg, opt)

    def test_sampling_more_clients_than_population(self):
        clients = tuple(random_client_with_examples(keyed_rng(59, i), dim=2) for i in range(2))
        pop = Population.uniform(clients)
        cfg = RunConfig(
            alpha=0.0, gamma=0.01, theta=WeightScheme.single(), rounds=1,
            mode="stochastic", clients_per_round=3, batch_size=1,
        )
        opt = ServerOptSpec(kind="plain", step=0.01)
        with pytest.raises(InvalidInputError, match="clients_per_round 3 exceeds the 2 clients with nonzero weight"):
            server_round(pop, np.zeros(2), cfg, opt)

    def test_sampling_more_clients_than_nonzero_weights(self):
        # a round may not ask for more clients than carry weight, even though
        # draws are with replacement; it refuses before sampling, naming both counts
        clients = tuple(random_client_with_examples(keyed_rng(59, i), dim=2) for i in range(3))
        pop = Population(
            clients=clients,
            weights=np.array([0.5, 0.5, 0.0]),
            bounds=Population.uniform(clients).bounds,
        )
        cfg = RunConfig(
            alpha=0.0, gamma=0.01, theta=WeightScheme.single(), rounds=1,
            mode="stochastic", clients_per_round=3, batch_size=1,
        )
        opt = ServerOptSpec(kind="plain", step=0.01)
        with pytest.raises(InvalidInputError, match="clients_per_round 3 exceeds the 2 clients"):
            server_round(pop, np.zeros(2), cfg, opt)
        x_next, _, _ = server_round(pop, np.zeros(2), replace(cfg, clients_per_round=2), opt)
        assert np.all(np.isfinite(x_next))


    @pytest.mark.parametrize("kind", ["plain", "heavy_ball", "nesterov"])
    def test_batched_round_equals_reference_loop_bitwise(self, kind):
        for trial in range(20):
            rng = keyed_rng(71, trial)
            pop, alpha, gamma, theta = kernel_case(rng)
            x = rng.uniform(-2.0, 2.0, size=pop.dim)
            anchor = rng.uniform(-2.0, 2.0, size=pop.dim)
            opt = ServerOptSpec(kind=kind, step=0.05, momentum=0.5)
            state = OptState(round_index=3, anchor=anchor)
            cfg = det_cfg(alpha, gamma, theta)
            got = server_round(pop, x, cfg, opt, state)
            expected = reference_server_round(pop, x, cfg, opt, state)
            np.testing.assert_array_equal(got[2], expected[2])
            np.testing.assert_array_equal(got[0], expected[0])
            np.testing.assert_array_equal(got[1].anchor, expected[1].anchor)

    def test_one_dimension_sums_in_client_order(self):
        # numpy reduces a contiguous axis of more than 8 values pairwise, so at
        # d = 1 a vectorised weighted sum over 12 clients can differ from the
        # client-order loop in the last bit
        opt = ServerOptSpec(kind="plain", step=0.05)
        for trial in range(30):
            rng = keyed_rng(76, trial)
            pop = random_population(rng, max_dim=1, min_clients=12, max_clients=12)
            cfg = det_cfg(0.0, float(rng.uniform(0.0, 0.95)) / pop.bounds.ell, WeightScheme.first_k(3))
            x = rng.uniform(-2.0, 2.0, size=1)
            np.testing.assert_array_equal(
                server_round(pop, x, cfg, opt)[2], reference_server_round(pop, x, cfg, opt)[2]
            )

    def test_stochastic_round_is_unbiased_for_nonuniform_weights(self, monkeypatch):
        # Two of three clients per round with weights (0.7, 0.2, 0.1) and full
        # batches, so a round's pseudo-gradient depends only on the clients it
        # draws. Its exact mean is the sum over all 3^2 draw tuples of
        # server_round's pseudo-gradient for that tuple times the tuple's
        # probability; it must equal the surrogate gradient up to rounding.
        # Drawing without replacement with p=weights and averaging unweighted
        # missed it by 36 and 93 standard errors.
        clients = tuple(example_client(keyed_rng(72, i), dim=2) for i in range(3))
        weights = np.array([0.7, 0.2, 0.1])
        pop = Population(clients=clients, weights=weights, bounds=Population.uniform(clients).bounds)
        theta = WeightScheme.first_k(2)
        gamma = 0.3 / pop.bounds.ell
        x = np.array([1.0, -0.5])
        cfg = RunConfig(alpha=0.5, gamma=gamma, theta=theta, rounds=1, seed=0,
                        mode="stochastic", clients_per_round=2, batch_size=2)
        client_means = [exact_stochastic_mean(client, x, 0.5, gamma, theta, batch=2) for client in clients]
        predicted = surrogate_gradient(pop, x, 0.5, gamma, theta)
        scale = 1.0 + np.linalg.norm(predicted)

        class FixedDraws:
            def choice(self, n, size, p):
                return np.array(tuple_drawn)

        def sampler_draws_the_tuple(seed, *tags):
            return FixedDraws() if tags[0] == engine._DOMAIN_SAMPLING else keyed_rng(seed, *tags)

        monkeypatch.setattr(engine, "keyed_rng", sampler_draws_the_tuple)
        mean = np.zeros(2)
        for tuple_drawn in itertools.product(range(3), repeat=2):
            q = server_round(pop, x, cfg, ServerOptSpec(kind="plain", step=0.1))[2]
            # the round averages its clients' updates, each the client's exact expectation
            expected = np.mean([client_means[i] for i in tuple_drawn], axis=0)
            assert np.linalg.norm(q - expected) <= 1e-12 * scale
            mean += np.prod(weights[list(tuple_drawn)]) * q
        assert np.linalg.norm(mean - predicted) <= 1e-12 * scale

    def test_stochastic_draw_frequencies_follow_weights(self):
        # client i sends 10**i at x = 1, so a round's average names the pair it
        # drew; over 1500 seeds every pair's frequency must be within 5
        # standard errors of its probability under draws with replacement
        clients = tuple(
            ClientModel.from_examples(
                [QuadraticExample(b_matrix=np.eye(1), center=np.array([1.0 - 10.0**i]))] * 2
            )
            for i in range(3)
        )
        weights = np.array([0.7, 0.2, 0.1])
        pop = Population(clients=clients, weights=weights, bounds=Population.uniform(clients).bounds)
        opt = ServerOptSpec(kind="plain", step=0.1)
        rounds = 1500
        counts = {}
        for seed in range(rounds):
            cfg = RunConfig(
                alpha=0.0, gamma=0.0, theta=WeightScheme.single(), rounds=1, seed=seed,
                mode="stochastic", clients_per_round=2, batch_size=2,
            )
            q = float(server_round(pop, np.ones(1), cfg, opt)[2][0])
            counts[q] = counts.get(q, 0) + 1
        pairs = {(10.0**i + 10.0**j) / 2.0: (2.0 - (i == j)) * weights[i] * weights[j]
                 for i in range(3) for j in range(i, 3)}
        assert set(counts) <= set(pairs)
        for value, p in pairs.items():
            observed = counts.get(value, 0)
            assert abs(observed - p * rounds) <= 5.0 * np.sqrt(rounds * p * (1.0 - p)), (value, observed)

    def test_stochastic_draws_follow_weights(self):
        # client i sends 10**i at x = 1, so a round's average names the pair it
        # drew: the zero-weight client never appears, and one client may be
        # drawn twice in a round
        clients = tuple(
            ClientModel.from_examples(
                [QuadraticExample(b_matrix=np.eye(1), center=np.array([1.0 - 10.0**i]))] * 2
            )
            for i in range(3)
        )
        pop = Population(
            clients=clients, weights=np.array([0.5, 0.5, 0.0]),
            bounds=Population.uniform(clients).bounds,
        )
        opt = ServerOptSpec(kind="plain", step=0.1)
        seen = set()
        for seed in range(40):
            cfg = RunConfig(
                alpha=0.0, gamma=0.0, theta=WeightScheme.single(), rounds=1, seed=seed,
                mode="stochastic", clients_per_round=2, batch_size=2,
            )
            seen.add(float(server_round(pop, np.ones(1), cfg, opt)[2][0]))
        assert seen == {1.0, 5.5, 10.0}


class TestRun:
    def test_starts_at_fixed_point(self):
        pop = random_population(keyed_rng(60, 0), max_dim=4, max_clients=3)
        theta = WeightScheme.first_k(2)
        gamma = 0.3 / pop.bounds.ell
        x_star = surrogate_minimizer(pop, 0.0, gamma, theta)
        traj = run(pop, x_star, det_cfg(0.0, gamma, theta, rounds=6), ServerOptSpec(kind="plain", step=0.05))
        for x in traj.iterates:
            np.testing.assert_allclose(x, x_star, atol=1e-9)

    def test_exact_one_step_convergence(self):
        # d=1, A=1, c=0, gamma=0, theta_1, eta=1: x0=1 -> x1=0
        pop = Population.uniform([scalar_client(1.0, 0.0)])
        traj = run(
            pop, np.array([1.0]), det_cfg(0.0, 0.0, WeightScheme.single(), rounds=1),
            ServerOptSpec(kind="plain", step=1.0),
        )
        assert traj.iterates[1][0] == 0.0

    def test_divergence_names_round(self):
        pop = Population.uniform([scalar_client(1.0, 0.0)])
        with pytest.raises(DivergenceError) as err:
            run(
                pop, np.array([1.0]), det_cfg(0.0, 0.0, WeightScheme.single(), rounds=100),
                ServerOptSpec(kind="plain", step=1000.0),
            )
        assert err.value.round_index >= 0

    @pytest.mark.parametrize("kind", ["plain", "heavy_ball", "nesterov"])
    def test_equals_reference_run_bitwise(self, kind):
        for trial in range(6):
            rng = keyed_rng(74, trial)
            pop, alpha, gamma, theta = kernel_case(rng)
            opt = auto_tune_for(pop, alpha, gamma, theta, kind)
            cfg = det_cfg(alpha, gamma, theta, rounds=5)
            x0 = rng.uniform(-2.0, 2.0, size=pop.dim)
            got = run(pop, x0, cfg, opt)
            expected = reference_run(pop, x0, cfg, opt)
            np.testing.assert_array_equal(got.iterates, expected.iterates)
            np.testing.assert_array_equal(got.pseudo_gradients, expected.pseudo_gradients)

    @pytest.mark.parametrize("kind", ["plain", "heavy_ball"])
    def test_simulate_csv_equals_reference_export(self, kind, tmp_path, monkeypatch):
        # `run` calls engine.server_round by module name, so swapping in the
        # reference round gives the reference trajectory through the same CLI
        pop = random_population(keyed_rng(75, 0), min_dim=8, max_dim=8, min_clients=6, max_clients=6)
        path = tmp_path / "pop.txt"
        save_population(pop, path)
        argv = ["simulate", "--population", str(path), "--gamma", "0.01", "--theta", "first-k",
                "--k", "20", "--optimizer", kind, "--format", "csv", "--out"]
        assert cli_main(argv + [str(tmp_path / "batched.csv")]) == 0
        monkeypatch.setattr(engine, "server_round", reference_server_round)
        assert cli_main(argv + [str(tmp_path / "reference.csv")]) == 0
        batched = (tmp_path / "batched.csv").read_bytes()
        assert batched == (tmp_path / "reference.csv").read_bytes()
        assert len(batched.splitlines()) > 20

    def test_seed_determinism_stochastic(self):
        dim = 3
        clients = tuple(random_client_with_examples(keyed_rng(61, i), dim=dim) for i in range(4))
        pop = Population.uniform(clients)
        cfg = RunConfig(
            alpha=0.0, gamma=0.2 / pop.bounds.ell, theta=WeightScheme.first_k(2), rounds=10,
            seed=33, mode="stochastic", clients_per_round=2, batch_size=1,
        )
        opt = ServerOptSpec(kind="plain", step=0.05)
        t1 = run(pop, np.zeros(dim), cfg, opt)
        t2 = run(pop, np.zeros(dim), cfg, opt)
        np.testing.assert_array_equal(t1.iterates, t2.iterates)
        np.testing.assert_array_equal(t1.pseudo_gradients, t2.pseudo_gradients)
        # a different seed must change the trajectory
        cfg2 = RunConfig(
            alpha=0.0, gamma=0.2 / pop.bounds.ell, theta=WeightScheme.first_k(2), rounds=10,
            seed=34, mode="stochastic", clients_per_round=2, batch_size=1,
        )
        t3 = run(pop, np.zeros(dim), cfg2, opt)
        assert not np.array_equal(t1.iterates, t3.iterates)


class TestAutoTune:
    def test_perfectly_conditioned(self):
        plain = auto_tune("plain", 4.0, 4.0)
        assert plain.step == pytest.approx(0.25, abs=1e-15)
        heavy = auto_tune("heavy_ball", 4.0, 4.0)
        assert heavy.momentum == 0.0
        nesterov = auto_tune("nesterov", 4.0, 4.0)
        assert nesterov.momentum == pytest.approx(0.0, abs=1e-15)
        assert nesterov.step == pytest.approx(0.25, abs=1e-15)

    def test_heavy_ball_closed_forms(self):
        opt = auto_tune("heavy_ball", 10.0, 1.0)
        assert opt.step == pytest.approx(4.0 / (np.sqrt(10.0) + 1.0) ** 2, rel=1e-15)
        assert opt.momentum == pytest.approx(
            ((np.sqrt(10.0) - 1.0) / (np.sqrt(10.0) + 1.0)) ** 2, rel=1e-15
        )
        # frozen values from evaluating the stated closed forms
        assert opt.step == pytest.approx(0.2308861570204069, abs=1e-15)
        assert opt.momentum == pytest.approx(0.26987386361223836, abs=1e-15)

    def test_nesterov_closed_forms(self):
        opt = auto_tune("nesterov", 10.0, 1.0)
        assert opt.step == pytest.approx(4.0 / 31.0, rel=1e-15)
        root = np.sqrt(31.0)
        assert opt.momentum == pytest.approx((root - 2.0) / (root + 2.0), rel=1e-15)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            auto_tune("plain", 1.0, 2.0)
        with pytest.raises(InvalidInputError):
            auto_tune("plain", 1.0, 0.0)

    def test_auto_tune_for_targets_measured_spectrum(self):
        pop = random_population(keyed_rng(62, 0), max_dim=5, max_clients=3)
        theta = WeightScheme.first_k(3)
        gamma = 0.3 / pop.bounds.ell
        dec = eigh(surrogate_hessian(pop, 0.0, gamma, theta))
        opt = auto_tune_for(pop, 0.0, gamma, theta, "plain")
        assert opt.step == pytest.approx(2.0 / (dec.lambda_max + dec.lambda_min), rel=1e-14)


def rate_instance(trial):
    """A rate_check_population with a first-K scheme and a random state draw stream."""
    rng = keyed_rng(63, trial)
    pop = rate_check_population(rng)
    theta = WeightScheme.first_k(int(rng.integers(2, 8)))
    gamma = float(rng.uniform(0.2, 0.8)) / pop.bounds.ell
    return pop, det_cfg(0.0, gamma, theta), rng


def next_state(pop, cfg, opt, s):
    """server_round on the stacked state: x for plain, (x, anchor) for momentum."""
    d = pop.dim
    if opt.kind == "plain":
        return server_round(pop, s, cfg, opt)[0]
    x_next, state, _ = server_round(pop, s[:d], cfg, opt, OptState(anchor=s[d:]))
    return np.concatenate([x_next, state.anchor])


class TestRoundOperator:
    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_operator_is_the_engines_map(self, kind):
        # M s + F(0) is server_round's next state from a random state s
        for trial in range(5):
            pop, cfg, rng = rate_instance(trial)
            opt = auto_tune_for(pop, cfg.alpha, cfg.gamma, cfg.theta, kind)
            m = round_operator(pop, cfg, opt)
            width = pop.dim if kind == "plain" else 2 * pop.dim
            assert m.shape == (width, width)
            s = rng.uniform(-3.0, 3.0, size=width)
            expected = next_state(pop, cfg, opt, s)
            got = m @ s + next_state(pop, cfg, opt, np.zeros(width))
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_blocks_are_the_server_step_on_the_surrogate_hessian(self):
        pop, cfg, _ = rate_instance(0)
        h = surrogate_hessian(pop, cfg.alpha, cfg.gamma, cfg.theta)
        eye, zero = np.eye(pop.dim), np.zeros((pop.dim, pop.dim))
        for kind in OPTIMIZER_KINDS:
            opt = auto_tune_for(pop, cfg.alpha, cfg.gamma, cfg.theta, kind)
            step, beta = opt.step, opt.momentum
            expected = {
                "plain": eye - step * h,
                "heavy_ball": np.block([[(1.0 + beta) * eye - step * h, -beta * eye], [eye, zero]]),
                "nesterov": np.block([[(1.0 + beta) * (eye - step * h), -beta * eye], [eye - step * h, zero]]),
            }[kind]
            np.testing.assert_allclose(round_operator(pop, cfg, opt), expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_surrogate_optimum_is_the_fixed_point(self, kind):
        pop, cfg, _ = rate_instance(1)
        opt = auto_tune_for(pop, cfg.alpha, cfg.gamma, cfg.theta, kind)
        x_star = surrogate_minimizer(pop, cfg.alpha, cfg.gamma, cfg.theta)
        s_star = x_star if kind == "plain" else np.concatenate([x_star, x_star])
        m = round_operator(pop, cfg, opt)
        offset = next_state(pop, cfg, opt, np.zeros(m.shape[0]))
        np.testing.assert_allclose(m @ s_star + offset, s_star, rtol=0, atol=1e-12)

    def test_tuned_rates_are_theorem3s(self):
        # the plain operator is symmetric, so its rate is exact to rounding;
        # tuned momentum operators have double eigenvalues, resolved to ~sqrt(eps)
        for trial in range(5):
            pop, cfg, _ = rate_instance(trial)
            dec = eigh(surrogate_hessian(pop, cfg.alpha, cfg.gamma, cfg.theta))
            report = kappa_exact(pop, cfg.alpha, cfg.gamma, cfg.theta)
            for kind, tol in (("plain", 1e-12), ("heavy_ball", 1e-6), ("nesterov", 1e-6)):
                opt = auto_tune(kind, dec.lambda_max, dec.lambda_min)
                rho = spectral_radius(round_operator(pop, cfg, opt))
                assert rho == pytest.approx(rho_from_kappa(dec.lambda_max / dec.lambda_min, kind), abs=tol)
                assert rho <= rho_from_kappa(report.kappa_exact, kind) + tol

    def test_stochastic_round_has_no_operator(self):
        pop, cfg, _ = rate_instance(0)
        cfg = replace(cfg, mode="stochastic", clients_per_round=2, batch_size=1)
        with pytest.raises(InvalidInputError, match="deterministic"):
            round_operator(pop, cfg, ServerOptSpec(kind="plain", step=0.1))


class TestTrajectoryExport:
    def test_csv_header_and_round_trip(self):
        pop = random_population(keyed_rng(65, 0), max_dim=3, min_dim=3, max_clients=3)
        theta = WeightScheme.first_k(2)
        gamma = 0.3 / pop.bounds.ell
        traj = run(pop, np.zeros(3), det_cfg(0.0, gamma, theta, rounds=4), ServerOptSpec(kind="plain", step=0.05))
        text = export_trajectory_csv(traj, pop, 0.0, gamma, theta)
        lines = text.strip().split("\n")
        assert lines[0] == "round,comp_0,comp_1,comp_2,dist_to_surrogate_opt,dist_to_empirical_opt"
        assert len(lines) == 1 + 5  # header + T+1 iterates
        x_emp = empirical_minimizer(pop)
        row = lines[1].split(",")
        assert int(row[0]) == 0
        np.testing.assert_allclose([float(v) for v in row[1:4]], traj.iterates[0], rtol=0)
        assert float(row[5]) == pytest.approx(np.linalg.norm(traj.iterates[0] - x_emp), rel=1e-15)
