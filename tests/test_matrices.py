"""Symmetric-matrix substrate: decomposition, operations, random spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from local_update_lab import EigenDecomposition, SpectrumBounds, eigh, random_spd_with_spectrum
from local_update_lab.errors import InfeasibleSpectrumError, InvalidInputError
from local_update_lab.matrices import child_seed, keyed_rng, symmetrize


def random_symmetric(rng, dim):
    g = rng.standard_normal((dim, dim))
    return symmetrize(g)


class TestEigh:
    def test_identity(self):
        dec = eigh(np.eye(3))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0], rtol=0, atol=0)

    def test_diagonal_ascending_and_basis(self):
        dec = eigh(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 4.0], rtol=0, atol=0)
        # eigenvectors are the standard basis up to sign
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(2)[:, [1, 0]], atol=1e-15)

    def test_reconstruction_random(self):
        rng = keyed_rng(3, 1)
        a = random_symmetric(rng, 5)
        dec = eigh(a)
        norm = np.linalg.norm(a, 2)
        assert np.linalg.norm(dec.reconstruct() - a, 2) <= 1e-10 * (1.0 + norm)
        assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(5), 2) <= 1e-10

    def test_rotation_invariance(self):
        rng = keyed_rng(3, 2)
        a = random_symmetric(rng, 6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        rotated = symmetrize(q.T @ a @ q)
        np.testing.assert_allclose(eigh(rotated).eigenvalues, eigh(a).eigenvalues, atol=1e-9)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(InvalidInputError):
            eigh(bad)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSymmetrize:
    def test_exact_symmetry(self):
        rng = keyed_rng(3, 5)
        a = rng.standard_normal((7, 7))
        s = symmetrize(a)
        np.testing.assert_array_equal(s, s.T)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_symmetrize_idempotent(self, dim, seed):
        a = keyed_rng(seed, 9).standard_normal((dim, dim))
        s = symmetrize(a)
        np.testing.assert_array_equal(symmetrize(s), s)


class TestSpectrumBounds:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SpectrumBounds(mu=0.0, ell=1.0)
        with pytest.raises(InvalidInputError):
            SpectrumBounds(mu=2.0, ell=1.0)
        with pytest.raises(InvalidInputError):
            SpectrumBounds(mu=1.0, ell=2.0, c_radius=-1.0)
        for mu, ell in ((1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(InvalidInputError, match=f"ell={ell}"):
                SpectrumBounds(mu=mu, ell=ell)
        assert SpectrumBounds(mu=1.0, ell=4.0).kappa0 == 4.0


class TestRandomSpdWithSpectrum:
    def test_collapsed_spectrum_gives_scaled_identity(self):
        a = random_spd_with_spectrum(4, SpectrumBounds(mu=3.0, ell=3.0), seed=0)
        np.testing.assert_array_equal(a, 3.0 * np.eye(4))

    def test_extremes_hit_bounds(self):
        a = random_spd_with_spectrum(5, SpectrumBounds(mu=1.0, ell=10.0), seed=42)
        dec = eigh(a)
        assert abs(dec.lambda_min - 1.0) <= 1e-9
        assert abs(dec.lambda_max - 10.0) <= 1e-9

    def test_deterministic(self):
        a1 = random_spd_with_spectrum(6, SpectrumBounds(mu=1.0, ell=5.0), seed=7)
        a2 = random_spd_with_spectrum(6, SpectrumBounds(mu=1.0, ell=5.0), seed=7)
        np.testing.assert_array_equal(a1, a2)

    def test_different_seeds_differ(self):
        a1 = random_spd_with_spectrum(6, SpectrumBounds(mu=1.0, ell=5.0), seed=7)
        a2 = random_spd_with_spectrum(6, SpectrumBounds(mu=1.0, ell=5.0), seed=8)
        assert not np.array_equal(a1, a2)

    def test_infeasible_1x1(self):
        with pytest.raises(InfeasibleSpectrumError):
            random_spd_with_spectrum(1, SpectrumBounds(mu=1.0, ell=2.0), seed=0)

    def test_1x1_collapsed_ok(self):
        np.testing.assert_array_equal(
            random_spd_with_spectrum(1, SpectrumBounds(mu=2.0, ell=2.0), seed=0), [[2.0]]
        )

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_inside_bounds(self, seed):
        bounds = SpectrumBounds(mu=0.5, ell=8.0)
        dec = eigh(random_spd_with_spectrum(5, bounds, seed=seed))
        assert dec.lambda_min >= bounds.mu - 1e-9
        assert dec.lambda_max <= bounds.ell + 1e-9


class TestSeeding:
    def test_child_seed_deterministic_and_distinct(self):
        assert child_seed(1, 2, 3) == child_seed(1, 2, 3)
        assert child_seed(1, 2, 3) != child_seed(1, 3, 2)
        assert child_seed(1, 2) != child_seed(2, 2)

    def test_keyed_rng_streams(self):
        a = keyed_rng(5, 1, 2).standard_normal(4)
        b = keyed_rng(5, 1, 2).standard_normal(4)
        c = keyed_rng(5, 1, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
