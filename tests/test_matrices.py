"""Symmetric-matrix substrate: decomposition, operations, random spectra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from local_update_lab import EigenDecomposition, SpectrumBounds, eigh, random_spd_with_spectrum
from local_update_lab.errors import InfeasibleSpectrumError, InvalidInputError
from local_update_lab import engine, verify
from local_update_lab.matrices import child_seed, keyed_rng, spectral_radius, symmetrize


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


class TestSpectralRadius:
    def test_non_normal_and_complex_spectra(self):
        assert spectral_radius(np.array([[0.5, 100.0], [0.0, -0.75]])) == 0.75
        assert spectral_radius(np.array([[0.0, -2.0], [2.0, 0.0]])) == pytest.approx(2.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_entry_gives_nan(self, bad):
        assert np.isnan(spectral_radius(np.array([[1.0, bad], [0.0, 1.0]])))


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


def _reference_philox(seed, *tags):
    """Generator(Philox(key=...)) on the key keyed_rng derives, written out here."""
    mask = 2**64 - 1

    def splitmix(value):
        value = (value + 0x9E3779B97F4A7C15) & mask
        value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & mask
        value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & mask
        return value ^ (value >> 31)

    mixed = splitmix(len(tags))
    for tag in tags:
        mixed = splitmix(mixed ^ (tag & mask))
    return np.random.Generator(np.random.Philox(key=np.array([seed & mask, mixed], dtype=np.uint64)))


_SUITE_TAGS = (0x11, 0x12, 0x21, 0x31, 0x41, 0x42, 0x43, 0x44, 0x51, 0x52, 0x53, 0x61, 0x62, 0x71, 0x81)
_STREAM_TAGS = (
    [(tag, trial) for tag in _SUITE_TAGS for trial in (0, 1, 9999)]
    + [(engine._DOMAIN_SAMPLING, t) for t in (0, 1, 299)]
    + [(engine._DOMAIN_CLIENT, t, draw) for t in (0, 299) for draw in (0, 7)]
    + [(0x5D,), (0xA0, 0), ()]
)


@pytest.mark.parametrize("seed", [0, 1, 14, 2374950348, 2**64 - 1, -1])
def test_keyed_streams_are_philox_on_the_derived_key(seed):
    """keyed_rng builds its Philox without drawing OS entropy; its streams stay the same."""
    for tags in _STREAM_TAGS:
        got, expected = keyed_rng(seed, *tags), _reference_philox(seed, *tags)
        assert repr(got.bit_generator.state) == repr(expected.bit_generator.state), tags
        for draw in (
            lambda rng: rng.random(3),
            lambda rng: rng.integers(1, 21, size=2),
            lambda rng: rng.uniform(-2.0, 2.0, size=3),
            lambda rng: rng.standard_normal((2, 2)),
            lambda rng: rng.dirichlet(np.ones(4)),
            lambda rng: rng.choice(5, size=3, p=[0.5, 0.2, 0.1, 0.1, 0.1]),
            lambda rng: rng.choice([0.0, 0.0, 0.5, 2.0]),
        ):
            np.testing.assert_array_equal(draw(got), draw(expected))
        assert repr(got.bit_generator.state) == repr(expected.bit_generator.state), tags


def test_suite_streams_use_the_pinned_tags(monkeypatch):
    # every registered suite draws its trials from one of the tags pinned above
    seen = set()

    def recording(seed, *tags):
        seen.add(tags[0])
        return keyed_rng(seed, *tags)

    monkeypatch.setattr(verify, "keyed_rng", recording)
    for check in verify.SUITES.values():
        check(0, trials=1)
    assert seen == set(_SUITE_TAGS)
