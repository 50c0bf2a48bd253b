"""Closed-form analysis: phi/psi, condition numbers, rates, distance and MAD bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from local_update_lab import (
    ClientModel,
    DiscreteDistribution,
    Population,
    SpectrumBounds,
    WeightScheme,
    delta_from_kappa,
    distance_bound,
    distance_bound_from_kappa,
    distortion_matrix,
    kappa_bound,
    kappa_exact,
    mad,
    mad_bound,
    matrix_weighted_discrepancy,
    minimizer_distance,
    rho_from_kappa,
    tightness_case_b2,
)
from local_update_lab.bounds import (
    _geometric_sums,
    maml_bound_applies,
    scheme_q_eigenvalues,
    tightness_population,
)
from local_update_lab.errors import ConditioningError, InvalidInputError
from local_update_lab.matrices import eigh, keyed_rng, symmetrize
from local_update_lab.quadratics import require_contractive
from local_update_lab.verify import (
    random_commuting_family,
    random_orthonormal,
    random_population,
    random_theta,
)
from closed_forms import phi, psi


def diag_client_population(mu, ell):
    client = ClientModel(a_matrix=np.diag([ell, mu]), center=np.zeros(2))
    return Population.uniform([client], bounds=SpectrumBounds(mu, ell, 0.0))


class TestPhiPsi:
    def test_phi_k1(self):
        assert phi(3.7, 0.4, 0.05, 1) == 3.7

    def test_phi_gamma_zero(self):
        assert phi(2.0, 0.0, 0.0, 7) == 14.0

    def test_phi_hand_value(self):
        # lam=1, gamma=0.1, K=3: 1 + 0.9 + 0.81 = 2.71
        assert phi(1.0, 0.0, 0.1, 3) == pytest.approx(2.71, abs=1e-15)

    def test_psi_k1(self):
        assert psi(5.0, 0.2, 0.01, 1) == 5.0

    def test_psi_gamma_zero(self):
        assert psi(5.0, 0.0, 0.0, 9) == 5.0

    def test_psi_hand_value(self):
        # lam=10, gamma=0.01, K=2: (1 - 0.1) * 10 = 9
        assert psi(10.0, 0.0, 0.01, 2) == pytest.approx(9.0, abs=1e-14)

    @given(
        lam=st.floats(min_value=0.1, max_value=10.0),
        alpha=st.sampled_from([0.0, 0.5, 2.0]),
        gamma_frac=st.floats(min_value=0.0, max_value=0.999),
        k=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_phi_summation_vs_closed_form(self, lam, alpha, gamma_frac, k):
        """Direct summation (the definition) agrees with phi to 1e-12 relative."""
        gamma = gamma_frac / (lam + alpha)
        xi = 1.0 - gamma * (lam + alpha)
        direct = float(np.sum(xi ** np.arange(k)) * lam)
        assert phi(lam, alpha, gamma, k) == pytest.approx(direct, rel=1e-12)


class TestKappaBoundFedavg:
    def test_no_distortion_recovers_kappa0(self):
        assert kappa_bound(1.0, 10.0, 0.0, 0.0, WeightScheme.first_k(5)) == 10.0
        assert kappa_bound(1.0, 10.0, 0.0, 0.05, WeightScheme.first_k(1)) == 10.0

    def test_hand_value(self):
        # mu=1, L=10, gamma=0.05, K=2: 15 / 1.95
        bound = kappa_bound(1.0, 10.0, 0.0, 0.05, WeightScheme.first_k(2))
        assert bound == pytest.approx(15.0 / 1.95, rel=1e-15)

    def test_saturates_to_one(self):
        bound = kappa_bound(1.0, 10.0, 0.0, 0.05, WeightScheme.first_k(10**6))
        assert bound == pytest.approx(1.0, abs=1e-6)

    def test_saturation_never_dips_below_one(self):
        # deep saturation can land a trailing ulp below 1 in float; the bound
        # is provably >= 1 and must stay there so delta/rho stay defined
        for k in (10**4, 10**5, 10**6):
            assert kappa_bound(1.0, 4.0, 0.0, 0.1, WeightScheme.first_k(k)) >= 1.0
            assert kappa_bound(1.0, 4.0, 0.0, 0.9 / (4.0 * k), WeightScheme.last_only(k)) >= 1.0

    def test_equality_exactly_when_undistorted(self):
        # the bound equals L/mu iff gamma = 0 or K = 1 (alpha enters only
        # through the product gamma * alpha, so it cannot break equality)
        assert kappa_bound(1.0, 10.0, 0.5, 0.0, WeightScheme.first_k(1)) == 10.0
        assert kappa_bound(1.0, 10.0, 3.0, 0.0, WeightScheme.first_k(8)) == 10.0
        assert kappa_bound(1.0, 10.0, 0.0, 0.05, WeightScheme.first_k(1)) == 10.0
        assert kappa_bound(1.0, 10.0, 0.0, 0.01, WeightScheme.first_k(2)) < 10.0
        assert kappa_bound(1.0, 10.0, 0.5, 0.01, WeightScheme.first_k(2)) < 10.0

    def test_monotone_in_k_and_gamma(self):
        ks = [kappa_bound(1.0, 10.0, 0.0, 0.05, WeightScheme.first_k(k)) for k in (1, 2, 5, 20, 100)]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        gs = [kappa_bound(1.0, 10.0, 0.0, g, WeightScheme.first_k(10)) for g in (0.001, 0.01, 0.05, 0.09)]
        assert all(a > b for a, b in zip(gs, gs[1:]))

    def test_alpha_not_monotone_but_always_below_kappa0(self):
        # at fixed gamma the bound is NOT monotone in alpha (2.49 at alpha=0
        # vs 4.12 at alpha=5 for mu=1, L=10, gamma=0.05, K=10); it does stay
        # below L/mu
        als = [kappa_bound(1.0, 10.0, a, 0.05, WeightScheme.first_k(10)) for a in (0.0, 0.5, 1.0, 5.0)]
        assert als[0] < als[-1]
        assert all(1.0 <= v <= 10.0 for v in als)

    def test_precondition(self):
        with pytest.raises(ConditioningError):
            kappa_bound(1.0, 10.0, 0.0, 0.1, WeightScheme.first_k(5))


class TestKappaBoundMaml:
    def test_k1_and_gamma0(self):
        assert kappa_bound(1.0, 10.0, 0.0, 0.01, WeightScheme.last_only(1)) == 10.0
        assert kappa_bound(1.0, 10.0, 0.0, 0.0, WeightScheme.last_only(7)) == 10.0

    def test_hand_value(self):
        # mu=1, L=10, gamma=0.01, K=2: (0.9 / 0.99) * 10
        bound = kappa_bound(1.0, 10.0, 0.0, 0.01, WeightScheme.last_only(2))
        assert bound == pytest.approx(0.9 / 0.99 * 10.0, rel=1e-15)

    def test_decreasing_in_k_gamma_alpha(self):
        ks = [kappa_bound(1.0, 10.0, 0.0, 0.001, WeightScheme.last_only(k)) for k in (1, 2, 5, 20, 90)]
        assert all(a > b for a, b in zip(ks, ks[1:]))
        gs = [kappa_bound(1.0, 10.0, 0.0, g, WeightScheme.last_only(5)) for g in (0.001, 0.005, 0.019)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        als = [kappa_bound(1.0, 10.0, a, 0.001, WeightScheme.last_only(5)) for a in (0.0, 0.5, 1.0, 5.0)]
        assert all(a > b for a, b in zip(als, als[1:]))

    def test_precondition(self):
        with pytest.raises(ConditioningError) as caught:
            kappa_bound(1.0, 10.0, 0.0, 0.011, WeightScheme.last_only(10))
        assert str(caught.value) == "need gamma < 1/(K*ell+alpha) = 0.01, got gamma=0.011"

    def test_bad_mu_ell(self):
        with pytest.raises(InvalidInputError, match="need 0 < mu <= ell, got mu=2.0, ell=1.0"):
            kappa_bound(2.0, 1.0, 0.0, 0.01, WeightScheme.last_only(10))

    def test_applies(self):
        assert maml_bound_applies(10.0, 0.0, 0.0099, 10)
        assert not maml_bound_applies(10.0, 0.0, 0.01, 10)
        assert not maml_bound_applies(10.0, 2.0, 0.0099, 10)


class TestKappaBoundDispatch:
    """kappa_bound picks its family from the scheme's structure alone."""

    @pytest.mark.parametrize("coefficients", [[1.0, 2.0], [0.5, 0.0, 0.5], [3.0, 1.0, 1.0]])
    def test_general_scheme_has_no_closed_form(self, coefficients):
        with pytest.raises(InvalidInputError, match="first-K or last-only"):
            kappa_bound(1.0, 10.0, 0.0, 0.01, WeightScheme(coefficients))

    @pytest.mark.parametrize("alpha, gamma", [(0.0, 0.05), (0.5, 0.09), (3.0, 0.0)])
    def test_k1_is_kappa0_for_both_families(self, alpha, gamma):
        assert kappa_bound(1.0, 10.0, alpha, gamma, WeightScheme.first_k(1)) == 10.0
        assert kappa_bound(1.0, 10.0, alpha, gamma, WeightScheme.last_only(1)) == 10.0

    def test_uniform_prefix_vector_gets_the_first_k_bound(self):
        expected = phi(10.0, 0.5, 0.05, 3) / phi(1.0, 0.5, 0.05, 3)
        for theta in (WeightScheme([2.0, 2.0, 2.0]), WeightScheme([0.5, 0.5, 0.5, 0.0])):
            assert kappa_bound(1.0, 10.0, 0.5, 0.05, theta) == expected

    def test_last_only_vector_gets_the_psi_bound(self):
        expected = psi(10.0, 0.0, 0.01, 3) / psi(1.0, 0.0, 0.01, 3)
        assert kappa_bound(1.0, 10.0, 0.0, 0.01, WeightScheme([0.0, 0.0, 4.0])) == expected


class TestOneEigenvalueMap:
    """kappa_bound maps ell and mu through scheme_q_eigenvalues, bit for bit the paper's phi and psi."""

    def test_kappa_bound_is_the_closed_form_ratio_bit_for_bit(self):
        rng = keyed_rng(41, 0)
        compared = 0
        for k in (1, 2, 64, 65, 1000, 10**6):
            for alpha in (0.0, 0.5, 2.0):
                for _ in range(120):
                    mu = float(rng.uniform(0.1, 10.0))
                    ell = mu * float(np.exp(rng.uniform(0.0, np.log(100.0))))
                    gamma = float(rng.uniform(0.0, 1.0)) / (ell + alpha)
                    expected = max(1.0, phi(ell, alpha, gamma, k) / phi(mu, alpha, gamma, k))
                    assert kappa_bound(mu, ell, alpha, gamma, WeightScheme.first_k(k)) == expected
                    gamma = float(rng.uniform(0.0, 1.0)) / (k * ell + alpha)
                    expected = max(1.0, psi(ell, alpha, gamma, k) / psi(mu, alpha, gamma, k))
                    assert kappa_bound(mu, ell, alpha, gamma, WeightScheme.last_only(k)) == expected
                    compared += 2
        assert compared >= 2000

    def test_a_float_maps_in_scalar_arithmetic(self):
        # numpy's array power differs from Python's float ** in the last bit
        # on a few percent of draws, so a float must not take the array path
        rng = keyed_rng(42, 0)
        mismatches = 0
        for _ in range(2000):
            lam, alpha = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.0, 2.0))
            k = int(rng.integers(2, 10**6))
            gamma = float(rng.uniform(0.0, 1.0)) / (k * lam + alpha)
            q = scheme_q_eigenvalues(lam, alpha, gamma, WeightScheme.last_only(k))
            assert np.ndim(q) == 0
            mismatches += bool(q != (1.0 - gamma * (lam + alpha)) ** (k - 1))
        assert mismatches == 0


@pytest.mark.parametrize("k", [140000, 150000, 10**6])
def test_last_only_bound_in_log_space_where_psi_underflows(k):
    mu, ell, alpha = 0.0010394930174872018, 0.0015394059202718051, 2.0
    gamma = 0.0036505195050523273 if k < 10**6 else 0.9 / (k * ell + alpha)
    assert psi(ell, alpha, gamma, k) == psi(mu, alpha, gamma, k) == 0.0
    xi_ell, xi_mu = 1.0 - gamma * (ell + alpha), 1.0 - gamma * (mu + alpha)
    expected = ell / mu * math.exp((k - 1) * math.log(xi_ell / xi_mu))
    bound = kappa_bound(mu, ell, alpha, gamma, WeightScheme.last_only(k))
    assert 1.0 <= bound < ell / mu
    assert bound == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("alpha, gamma", [(np.nan, 0.01), (0.0, np.nan), (np.nan, np.nan)])
def test_nan_parameters_rejected(alpha, gamma):
    assert not maml_bound_applies(10.0, alpha, gamma, 5)
    with pytest.raises(InvalidInputError, match="nonnegative"):
        require_contractive(SpectrumBounds(mu=1.0, ell=10.0), alpha, gamma)
    for theta in (WeightScheme.first_k(5), WeightScheme.last_only(5)):
        with pytest.raises(InvalidInputError, match="nonnegative"):
            kappa_bound(1.0, 10.0, alpha, gamma, theta)


class TestKappaExact:
    def test_theta1_gives_hessian_conditioning(self):
        pop = random_population(keyed_rng(30, 0), max_dim=8, max_clients=5, min_dim=2)
        report = kappa_exact(pop, 0.0, 0.02, WeightScheme.single())
        e_max = sum(w * eigh(c.a_matrix).lambda_max for w, c in zip(pop.weights, pop.clients))
        e_min = sum(w * eigh(c.a_matrix).lambda_min for w, c in zip(pop.weights, pop.clients))
        assert report.kappa_exact == pytest.approx(e_max / e_min, rel=1e-12)
        assert report.l_tilde == pytest.approx(e_max, rel=1e-12)
        assert report.mu_tilde == pytest.approx(e_min, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 17, 50])
    def test_diag_tightness_first_k(self, k):
        pop = diag_client_population(1.0, 10.0)
        gamma = 0.05
        report = kappa_exact(pop, 0.0, gamma, WeightScheme.first_k(k))
        expected = phi(10.0, 0.0, gamma, k) / phi(1.0, 0.0, gamma, k)
        assert abs(report.kappa_exact - expected) <= 1e-10
        assert report.kappa_bound == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 5, 17])
    def test_diag_tightness_last_only(self, k):
        pop = diag_client_population(1.0, 10.0)
        gamma = 0.9 / (k * 10.0)
        report = kappa_exact(pop, 0.0, gamma, WeightScheme.last_only(k))
        expected = psi(10.0, 0.0, gamma, k) / psi(1.0, 0.0, gamma, k)
        assert abs(report.kappa_exact - expected) <= 1e-10

    def test_maml_nonmonotone_regime_supported(self):
        # gamma above (K L)^-1 but below L^-1: closed form inapplicable, exact fine
        pop = diag_client_population(1.0, 10.0)
        report = kappa_exact(pop, 0.0, 0.05, WeightScheme.last_only(20))
        assert report.kappa_bound is None
        assert report.kappa_exact >= 1.0

    def test_exact_below_bound_random(self):
        for trial in range(30):
            rng = keyed_rng(31, trial)
            pop = random_population(rng, max_dim=8, max_clients=5)
            k = int(rng.integers(1, 20))
            gamma = float(rng.uniform(0.0, 0.9)) / pop.bounds.ell
            report = kappa_exact(pop, 0.0, gamma, WeightScheme.first_k(k))
            assert report.kappa_exact <= report.kappa_bound * (1.0 + 1e-12)

    def test_precondition(self):
        pop = diag_client_population(1.0, 10.0)
        with pytest.raises(ConditioningError):
            kappa_exact(pop, 0.0, 0.2, WeightScheme.first_k(3))


def scalar_geometric_sum(xi: float, k: int) -> float:
    """Scalar sum_{j=0}^{k-1} xi^j, one eigenvalue at a time (reference)."""
    if k <= 64:
        total = 0.0
        power = 1.0
        for _ in range(k):
            total += power
            power *= xi
        return total
    if xi == 1.0:
        return float(k)
    if 0.0 < xi:
        return -np.expm1(k * np.log1p(xi - 1.0)) / (1.0 - xi)
    return (1.0 - xi**k) / (1.0 - xi)


def reference_q_eigenvalues(lams, alpha, gamma, theta):
    """Per-eigenvalue scalar distortion map for the two named families."""
    kind, k, coeff = theta.structure()
    out = []
    for lam in lams:
        xi = 1.0 - gamma * (float(lam) + alpha)
        if kind == "last_only":
            out.append(coeff * xi ** (k - 1))
        else:
            assert kind == "uniform_prefix"
            out.append(coeff * scalar_geometric_sum(xi, k))
    return np.array(out)


def route_cases(k, ell, alpha):
    """(theta, gamma) pairs at length k: all-gradients, last-gradient, gamma = 0.

    Short last-gradient schemes also get a gamma above (K ell + alpha)^-1,
    where the map is not monotone in lam.
    """
    cases = [
        (WeightScheme.first_k(k), 0.3 / (ell + alpha)),
        (WeightScheme.last_only(k), 0.5 / (k * ell + alpha)),
        (WeightScheme.first_k(k), 0.0),
    ]
    if k <= 64:
        cases.append((WeightScheme.last_only(k), 0.3 / (ell + alpha)))
    return cases


class TestEigenvalueRoute:
    @pytest.mark.parametrize("k", [65, 1000, 10**6])
    def test_vectorised_geometric_sums_match_scalar(self, k):
        # xi == 1 is gamma = 0; xi <= 0 takes the plain closed form
        xi = np.array(
            [1.0, 1.0 - 1e-12, 1.0 - 1e-7, 0.999, 0.5, 1e-3, 0.0, -1e-3, -0.5, -0.999]
        )
        expected = np.array([scalar_geometric_sum(float(v), k) for v in xi])
        np.testing.assert_allclose(_geometric_sums(xi, k), expected, rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(
            _geometric_sums(xi.reshape(2, 5), k), expected.reshape(2, 5), rtol=1e-15, atol=0.0
        )

    @pytest.mark.parametrize("k", [1, 64, 65, 1024, 10**6])
    def test_kappa_exact_and_distance_bound_match_client_loop(self, k):
        for trial in range(4):
            pop = random_population(keyed_rng(35, k, trial), max_dim=8, max_clients=6)
            alpha = 0.5 * (trial % 2)
            for theta, gamma in route_cases(k, pop.bounds.ell, alpha):
                e_max = e_min = 0.0
                b, a = -np.inf, np.inf
                for weight, client in zip(pop.weights, pop.clients):
                    lams = eigh(client.a_matrix).eigenvalues
                    q = reference_q_eigenvalues(lams, alpha, gamma, theta)
                    qa = q * lams
                    e_max += weight * qa.max()
                    e_min += weight * qa.min()
                    b, a = max(b, q.max()), min(a, q.min())
                report = kappa_exact(pop, alpha, gamma, theta)
                assert report.l_tilde == pytest.approx(e_max, rel=1e-12)
                assert report.mu_tilde == pytest.approx(e_min, rel=1e-12)
                assert report.kappa_exact == pytest.approx(max(1.0, e_max / e_min), rel=1e-12)
                constant = 2.0 if pop.dim == 1 else 8.0
                expected = constant * pop.bounds.c_radius * (np.sqrt(b) - np.sqrt(a)) / (
                    np.sqrt(b) + np.sqrt(a)
                )
                bound = distance_bound(pop, alpha, gamma, theta)
                assert bound == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_no_eigendecomposition_per_call(self, monkeypatch):
        pop = random_population(keyed_rng(36, 0), max_dim=8, max_clients=6)
        calls = []
        original = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        gamma = 0.3 / pop.bounds.ell
        for theta in (WeightScheme.first_k(1000), WeightScheme.last_only(3), random_theta(keyed_rng(37, 0))):
            kappa_exact(pop, 0.0, gamma, theta)
            distance_bound(pop, 0.0, gamma, theta)
        assert calls == []

    def test_distortion_matrix_spectrum_matches_map_at_k1000(self):
        pop = random_population(keyed_rng(38, 0), max_dim=6, max_clients=4, min_dim=2)
        alpha = 0.5
        gamma = 0.4 / (pop.bounds.ell + alpha)
        general = WeightScheme(keyed_rng(38, 1).uniform(0.0, 1.0, 1000))
        for theta in (WeightScheme.first_k(1000), WeightScheme.last_only(1000), general):
            mapped = scheme_q_eigenvalues(pop.spectra, alpha, gamma, theta)
            assert mapped.shape == (pop.n_clients, pop.dim)
            for row, client in zip(mapped, pop.clients):
                q = distortion_matrix(client.a_matrix, alpha, gamma, theta)
                spectrum = eigh(q).eigenvalues
                np.testing.assert_allclose(
                    spectrum, np.sort(row), rtol=1e-9, atol=1e-12 * np.abs(spectrum).max()
                )

    def test_fedavg_bound_uses_the_contractivity_check(self):
        with pytest.raises(ConditioningError) as direct:
            require_contractive(SpectrumBounds(mu=1.0, ell=10.0), 0.5, 0.1)
        with pytest.raises(ConditioningError) as fedavg:
            kappa_bound(1.0, 10.0, 0.5, 0.1, WeightScheme.first_k(5))
        assert str(fedavg.value) == str(direct.value)
        with pytest.raises(InvalidInputError, match="nonnegative"):
            kappa_bound(1.0, 10.0, -0.5, 0.01, WeightScheme.first_k(5))


class TestRho:
    def test_kappa_one_gives_zero(self):
        for kind in ("plain", "nesterov", "heavy_ball"):
            assert rho_from_kappa(1.0, kind) == pytest.approx(0.0, abs=1e-15)

    def test_hand_values(self):
        assert rho_from_kappa(9.0, "plain") == pytest.approx(0.8, abs=1e-15)
        assert rho_from_kappa(9.0, "heavy_ball") == pytest.approx(0.5, abs=1e-15)
        assert rho_from_kappa(9.0, "nesterov") == pytest.approx(1.0 - 2.0 / np.sqrt(28.0), abs=1e-15)

    def test_ordering_and_range(self):
        for kappa in np.logspace(0.01, 3, 40):
            plain = rho_from_kappa(kappa, "plain")
            nesterov = rho_from_kappa(kappa, "nesterov")
            heavy = rho_from_kappa(kappa, "heavy_ball")
            assert 0.0 < heavy < nesterov < plain < 1.0

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            rho_from_kappa(0.5, "plain")
        with pytest.raises(InvalidInputError):
            rho_from_kappa(2.0, "adam")


class TestDelta:
    def test_equal_kappas(self):
        assert delta_from_kappa(7.0, 7.0) == 0.0

    def test_algebraic_identity(self):
        # sqrt(10) = 2 sqrt(2.5), so delta(2.5 | 10) = 1/3 exactly (to float)
        assert delta_from_kappa(2.5, 10.0) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_full_reduction(self):
        expected = (np.sqrt(10.0) - 1.0) / (np.sqrt(10.0) + 1.0)
        assert delta_from_kappa(1.0, 10.0) == pytest.approx(expected, abs=1e-15)

    def test_monotone_in_kappa(self):
        deltas = [delta_from_kappa(k, 10.0) for k in (10.0, 8.0, 4.0, 2.0, 1.0)]
        assert all(a < b for a, b in zip(deltas, deltas[1:]))

    def test_kappa_above_kappa0_rejected(self):
        with pytest.raises(InvalidInputError):
            delta_from_kappa(11.0, 10.0)


class TestDistanceBound:
    def test_theta1_zero(self):
        pop = tightness_population(0.5)
        assert distance_bound(pop, 0.0, 0.1, WeightScheme.single()) == 0.0

    def test_gamma_zero(self):
        pop = tightness_population(0.5)
        assert distance_bound(pop, 0.0, 0.0, WeightScheme.first_k(5)) == 0.0

    def test_b2_family_approaches_2c(self):
        pop = tightness_population(0.5)
        bound = distance_bound(pop, 0.0, 0.125, WeightScheme.last_only(200))
        assert bound >= 1.999
        assert bound <= 2.0

    def test_dominates_measured_distance(self):
        for trial in range(40):
            rng = keyed_rng(32, trial)
            pop = random_population(rng, max_dim=12, max_clients=6)
            theta = random_theta(keyed_rng(33, trial), k_max=20)
            gamma = float(rng.uniform(0.0, 0.9)) / pop.bounds.ell
            measured = minimizer_distance(pop, 0.0, gamma, theta)
            assert measured <= distance_bound(pop, 0.0, gamma, theta) + 1e-12

    def test_conjectured_2c_constant_diagnostic(self):
        # whether the d > 1 bound holds with constant 2C instead of 8C is an
        # open conjecture; record the observed margin, gate nothing on it
        worst_ratio = 0.0
        for trial in range(60):
            rng = keyed_rng(39, trial)
            pop = random_population(rng, max_dim=12, max_clients=6, min_dim=2)
            theta = random_theta(keyed_rng(40, trial), k_max=20)
            gamma = float(rng.uniform(0.0, 0.9)) / pop.bounds.ell
            bound_8c = distance_bound(pop, 0.0, gamma, theta)
            if bound_8c <= 1e-12:
                continue
            measured = minimizer_distance(pop, 0.0, gamma, theta)
            worst_ratio = max(worst_ratio, measured / (bound_8c / 4.0))
        print(f"\n2C-conjecture diagnostic: max measured / (2C variant) = {worst_ratio:.4f}")


class TestDistanceBoundFromKappa:
    def test_zero_at_kappa0(self):
        assert distance_bound_from_kappa(10.0, 10.0, 1.0) == 0.0

    def test_hand_value(self):
        assert distance_bound_from_kappa(2.5, 10.0, 1.0) == pytest.approx(8.0 / 3.0, abs=1e-14)

    def test_dominates_measured_for_family(self):
        for trial in range(30):
            rng = keyed_rng(34, trial)
            pop = random_population(rng, max_dim=8, max_clients=5, min_dim=2)
            k = int(rng.integers(1, 20))
            gamma = float(rng.uniform(0.0, 0.9)) / pop.bounds.ell
            kappa = kappa_bound(pop.bounds.mu, pop.bounds.ell, 0.0, gamma, WeightScheme.first_k(k))
            measured = minimizer_distance(pop, 0.0, gamma, WeightScheme.first_k(k))
            bound = distance_bound_from_kappa(kappa, pop.bounds.kappa0, pop.bounds.c_radius)
            assert measured <= bound + 1e-12


class TestMad:
    def test_constant_distribution(self):
        dist = DiscreteDistribution(values=np.array([2.0, 2.0]), probs=np.array([0.5, 0.5]))
        assert mad(dist) == 0.0
        assert mad_bound(dist) == 0.0

    def test_fair_two_point(self):
        dist = DiscreteDistribution(values=np.array([0.0, 1.0]), probs=np.array([0.5, 0.5]))
        assert mad(dist) == pytest.approx(0.5, abs=1e-15)
        assert mad_bound(dist) == pytest.approx(0.5, abs=1e-15)

    def test_three_point(self):
        dist = DiscreteDistribution(
            values=np.array([0.0, 0.5, 1.0]), probs=np.array([0.25, 0.5, 0.25])
        )
        assert mad(dist) == pytest.approx(0.25, abs=1e-15)
        assert mad_bound(dist) == pytest.approx(0.5, abs=1e-15)

    def test_popoviciu_style_corollary(self):
        # D(X) <= (b - a) / 2 with equality only at the fair two-point law
        rng = keyed_rng(35, 0)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            values = rng.uniform(-3.0, 3.0, size=n)
            probs = rng.dirichlet(np.ones(n))
            dist = DiscreteDistribution(values=values, probs=probs / probs.sum())
            spread = dist.support().max() - dist.support().min()
            assert mad(dist) <= 0.5 * spread + 1e-12

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=150, deadline=None)
    def test_bound_holds_with_two_point_equality(self, seed):
        rng = keyed_rng(seed, 77)
        n = int(rng.integers(1, 8))
        values = rng.uniform(-5.0, 5.0, size=n)
        probs = rng.dirichlet(np.ones(n))
        dist = DiscreteDistribution(values=values, probs=probs / probs.sum())
        gap = mad_bound(dist) - mad(dist)
        assert gap >= -1e-12
        support = dist.support()
        if np.all((support == support.min()) | (support == support.max())):
            assert abs(gap) <= 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            DiscreteDistribution(values=np.array([1.0]), probs=np.array([0.5]))
        with pytest.raises(InvalidInputError):
            DiscreteDistribution(values=np.array([1.0, 2.0]), probs=np.array([1.5, -0.5]))


class TestMatrixWeighted:
    def test_single_pair(self):
        rng = keyed_rng(36, 0)
        basis = random_orthonormal(rng, 3)
        x = symmetrize((basis * np.array([1.0, 2.0, 3.0])) @ basis.T)
        y = symmetrize((basis * np.array([0.5, 1.0, 2.0])) @ basis.T)
        assert matrix_weighted_discrepancy([x], [y]) <= 1e-12

    def test_equal_xs_zero_discrepancy(self):
        rng = keyed_rng(36, 1)
        basis = random_orthonormal(rng, 3)
        x = symmetrize((basis * np.array([1.0, 2.0, 3.0])) @ basis.T)
        ys = [
            symmetrize((basis * rng.uniform(0.5, 2.0, size=3)) @ basis.T) for _ in range(4)
        ]
        assert matrix_weighted_discrepancy([x] * 4, ys) <= 1e-10

    def test_scalar_reduction(self):
        # values {2, 4} with unit weights: f = 3, M = D(X)/|E[X]| = 1/3
        xs = [np.array([[2.0]]), np.array([[4.0]])]
        ys = [np.array([[1.0]]), np.array([[1.0]])]
        m = matrix_weighted_discrepancy(xs, ys)
        assert m == pytest.approx(1.0 / 3.0, abs=1e-14)
        assert m <= 2.0 * (4.0 - 2.0) / 4.0

    def test_discrepancy_bound(self):
        for trial in range(60):
            xs, ys, a, b = random_commuting_family(keyed_rng(38, trial))
            assert matrix_weighted_discrepancy(xs, ys) <= 2.0 * (b - a) / b + 1e-9

    def test_non_commuting_rejected(self):
        x = np.diag([1.0, 2.0])
        y = np.array([[1.0, 0.5], [0.5, 1.0]])
        with pytest.raises(InvalidInputError, match="commute"):
            matrix_weighted_discrepancy([x], [y])

    def test_non_spd_weight_rejected(self):
        x = np.diag([1.0, 2.0])
        y = np.diag([1.0, -1.0])
        with pytest.raises(InvalidInputError, match="positive definite"):
            matrix_weighted_discrepancy([x], [y])

    def test_singular_weighted_mean_is_a_conditioning_error(self):
        # f = 0 here; numpy's inv would raise a raw LinAlgError
        with pytest.raises(ConditioningError, match="mean f is singular"):
            matrix_weighted_discrepancy([np.zeros((2, 2))], [np.eye(2)])
        with pytest.raises(ConditioningError, match="mean f is singular"):
            matrix_weighted_discrepancy([np.diag([1.0, 0.0]), np.diag([2.0, 0.0])], [np.eye(2), np.eye(2)])


class TestTightnessB2:
    def test_k1_no_distortion(self):
        measured, bound = tightness_case_b2(1, 0.3)
        assert measured <= 1e-12
        assert bound == 0.0

    @pytest.mark.parametrize("p", [0.3, 0.7, 0.9])
    def test_large_k_limit(self, p):
        measured, _ = tightness_case_b2(400, p)
        assert measured == pytest.approx(8.0 * p / (3.0 * p + 1.0), abs=1e-9)

    def test_near_saturation(self):
        measured, bound = tightness_case_b2(200, 0.999)
        assert measured >= 1.99
        assert bound >= 1.99

    def test_invalid_p(self):
        with pytest.raises(InvalidInputError):
            tightness_case_b2(10, 1.0)
