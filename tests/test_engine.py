"""Simulation engine: client updates, MAML meta-gradients, server rounds, tuning."""

from dataclasses import replace

import numpy as np
import pytest

from local_update_lab import (
    ClientModel,
    Population,
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
    run,
    server_round,
    surrogate_gradient,
    surrogate_hessian,
    surrogate_minimizer,
)
from local_update_lab.engine import (
    Trajectory,
    client_update_mc_mean,
    export_trajectory_csv,
    geometric_rate,
    max_step_contraction,
)
from local_update_lab.errors import DivergenceError, InvalidInputError
from local_update_lab.matrices import keyed_rng
from local_update_lab.verify import (
    random_admissible_params,
    random_client_with_examples,
    random_population,
    rate_check_population,
)


def scalar_client(a, c):
    return ClientModel(a_matrix=np.array([[float(a)]]), center=np.array([float(c)]))


def det_cfg(alpha, gamma, theta, rounds=1, seed=0):
    return RunConfig(alpha=alpha, gamma=gamma, theta=theta, rounds=rounds, seed=seed)


class TestConfigValidation:
    def test_run_config(self):
        theta = WeightScheme.single()
        with pytest.raises(InvalidInputError):
            RunConfig(alpha=-1.0, gamma=0.0, theta=theta, rounds=1)
        with pytest.raises(InvalidInputError):
            RunConfig(alpha=0.0, gamma=0.0, theta=theta, rounds=0)
        with pytest.raises(InvalidInputError):
            RunConfig(alpha=0.0, gamma=0.0, theta=theta, rounds=1, mode="async")
        with pytest.raises(InvalidInputError):
            RunConfig(alpha=0.0, gamma=0.0, theta=theta, rounds=1, mode="stochastic")

    def test_server_opt_spec(self):
        with pytest.raises(InvalidInputError):
            ServerOptSpec(kind="adam", step=0.1)
        with pytest.raises(InvalidInputError):
            ServerOptSpec(kind="plain", step=0.0)
        with pytest.raises(InvalidInputError):
            ServerOptSpec(kind="heavy_ball", step=0.1, momentum=1.0)
        # plain normalises momentum away
        assert ServerOptSpec(kind="plain", step=0.1, momentum=0.7).momentum == 0.0

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
        client = random_client_with_examples(keyed_rng(52, 0), dim_max=3)
        pop = Population.uniform([client])
        gamma = 0.3 / pop.bounds.ell
        theta = WeightScheme.first_k(3)
        x = np.full(client.dim, 1.5)
        cfg = RunConfig(
            alpha=0.5, gamma=gamma, theta=theta, rounds=1,
            mode="stochastic", clients_per_round=1, batch_size=1,
        )
        predicted = surrogate_gradient(pop, x, 0.5, gamma, theta)
        mean, stderr = client_update_mc_mean(client, x, cfg, keyed_rng(52, 1), 20000)
        assert np.all(np.abs(mean - predicted) <= 6.0 * stderr + 1e-10)

    def test_error_scales_like_inverse_sqrt_n(self):
        # at N = 1e3, 1e4, 1e5 the Monte-Carlo mean stays within a few
        # standard errors, and the standard error itself shrinks like 1/sqrt(N)
        client = random_client_with_examples(keyed_rng(52, 7), dim_max=3)
        pop = Population.uniform([client])
        gamma = 0.3 / pop.bounds.ell
        theta = WeightScheme.first_k(2)
        x = np.full(client.dim, -0.8)
        cfg = RunConfig(
            alpha=0.0, gamma=gamma, theta=theta, rounds=1,
            mode="stochastic", clients_per_round=1, batch_size=1,
        )
        predicted = surrogate_gradient(pop, x, 0.0, gamma, theta)
        stderr_norms = []
        for exponent, n_draws in ((3, 10**3), (4, 10**4), (5, 10**5)):
            mean, stderr = client_update_mc_mean(client, x, cfg, keyed_rng(52, exponent), n_draws)
            assert np.all(np.abs(mean - predicted) <= 6.0 * stderr + 1e-10)
            stderr_norms.append(np.linalg.norm(stderr))
        assert stderr_norms[0] == pytest.approx(np.sqrt(10.0) * stderr_norms[1], rel=0.2)
        assert stderr_norms[1] == pytest.approx(np.sqrt(10.0) * stderr_norms[2], rel=0.2)

    def test_single_draw_matches_batched_path(self):
        # the scalar path and the Monte-Carlo path share the local-step code;
        # a fixed rng must give the same draw
        client = random_client_with_examples(keyed_rng(53, 0), dim_max=3)
        cfg = RunConfig(
            alpha=0.0, gamma=0.02, theta=WeightScheme.first_k(2), rounds=1,
            mode="stochastic", clients_per_round=1, batch_size=1,
        )
        x = np.zeros(client.dim)
        one = client_update(client, x, cfg, keyed_rng(9, 9))
        mean, _ = client_update_mc_mean(client, x, cfg, keyed_rng(9, 9), 1)
        np.testing.assert_array_equal(one, mean)


class TestClientUpdateMaml:
    def test_scalar_hand_value(self):
        # K=1, A=2, gamma=0.1, x=1, c=0: (1 - 0.2)^2 * 2 = 1.28
        client = scalar_client(2.0, 0.0)
        got = client_update_maml(client, np.array([1.0]), 1, 0.1)
        assert got[0] == pytest.approx(1.28, abs=1e-15)

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
            q = distortion_matrix(client, alpha, gamma, WeightScheme.maml_equivalent(k))
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
        with pytest.raises(InvalidInputError, match="exceeds population"):
            server_round(pop, np.zeros(2), cfg, opt)

    def test_sampling_more_clients_than_nonzero_weights(self):
        # numpy's choice(replace=False, p=...) cannot draw more clients than
        # carry weight; the round must refuse before sampling, naming both counts
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
        assert opt.auto_tuned


class TestRates:
    def test_plain_per_step_contraction(self):
        for trial in range(5):
            rng = keyed_rng(63, trial)
            pop = rate_check_population(rng)
            gamma = 0.4 / pop.bounds.ell
            theta = WeightScheme.first_k(5)
            report = kappa_exact(pop, 0.0, gamma, theta)
            dec = eigh(surrogate_hessian(pop, 0.0, gamma, theta))
            opt = auto_tune("plain", dec.lambda_max, dec.lambda_min)
            x_star = surrogate_minimizer(pop, 0.0, gamma, theta)
            x0 = x_star + dec.eigenvectors @ (np.ones(pop.dim) / np.sqrt(pop.dim))
            traj = run(pop, x0, det_cfg(0.0, gamma, theta, rounds=25), opt)
            measured = max_step_contraction(traj, x_star, start_round=5)
            assert measured <= rho_from_kappa(report.kappa_exact, "plain") + 1e-6

    def test_geometric_rate_zero_when_started_at_optimum(self):
        pop = random_population(keyed_rng(64, 0), max_dim=4, max_clients=3)
        theta = WeightScheme.first_k(2)
        gamma = 0.3 / pop.bounds.ell
        x_star = surrogate_minimizer(pop, 0.0, gamma, theta)
        traj = run(pop, x_star, det_cfg(0.0, gamma, theta, rounds=10), ServerOptSpec(kind="plain", step=0.05))
        assert geometric_rate(traj, x_star, start_round=5) == 0.0


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
