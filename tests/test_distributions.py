"""Tests for the data sources and their spectral ground truth."""

import numpy as np
import pytest

from incpca.distributions import (
    CoordinateDistribution,
    GaussianSpectrum,
    random_unit_vector,
    random_unit_vectors,
    trial_rng,
)


def test_trial_rng_deterministic_and_distinct():
    a = trial_rng(42, 0).standard_normal(4)
    b = trial_rng(42, 0).standard_normal(4)
    c = trial_rng(42, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


class TestCoordinateDistribution:
    def test_ground_truth_values(self):
        dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
        gt = dist.ground_truth()
        assert gt.lambda1 == pytest.approx(0.2)
        assert gt.lambda2 == pytest.approx(0.25 * 0.8 / 9)
        assert dist.B == 1.0
        assert np.array_equal(gt.v_star, np.eye(10)[0])
        assert gt.gap == pytest.approx(0.2 - 0.25 * 0.8 / 9)

    def test_covariance_is_diagonal_with_stated_spectrum(self):
        dist = CoordinateDistribution(p=0.2, sigma=0.5, d=4)
        A = dist.covariance()
        off = 0.25 * 0.8 / 3
        assert np.allclose(A, np.diag([0.2, off, off, off]))

    def test_gap_condition_enforced(self):
        # sigma^2 (1-p)/(d-1) must stay below p
        with pytest.raises(ValueError):
            CoordinateDistribution(p=0.01, sigma=0.9, d=2)

    def test_samples_live_on_the_stated_support(self):
        dist = CoordinateDistribution(p=0.3, sigma=0.5, d=5)
        X = dist.sample_block(np.random.default_rng(0), 2000)
        assert X.shape == (2000, 5)
        nz = np.count_nonzero(X, axis=1)
        assert np.all(nz == 1)
        vals = X[np.nonzero(X)]
        assert set(np.round(np.abs(vals), 12)) <= {1.0, 0.5}
        # the heavy coordinate only ever carries the +-1 mass
        heavy = X[:, 0] != 0
        assert np.all(np.abs(X[heavy, 0]) == 1.0)
        assert np.all(np.abs(X[~heavy][np.nonzero(X[~heavy])]) == 0.5)

    def test_empirical_first_coordinate_frequency(self):
        dist = CoordinateDistribution(p=0.3, sigma=0.5, d=5)
        X = dist.sample_block(np.random.default_rng(1), 40000)
        freq = np.mean(X[:, 0] != 0)
        assert freq == pytest.approx(0.3, abs=0.01)

    def test_norm_bound(self):
        dist = CoordinateDistribution(p=0.5, sigma=0.8, d=3)
        X = dist.sample_block(np.random.default_rng(2), 500)
        assert np.all(np.linalg.norm(X, axis=1) <= 1.0)


class TestGaussianSpectrum:
    def test_spectrum_validation(self):
        with pytest.raises(ValueError):
            GaussianSpectrum([1.0, 1.0, 0.5])  # no gap at the top
        with pytest.raises(ValueError):
            GaussianSpectrum([1.0, 0.5, -0.1])

    def test_ground_truth_matches_rotation(self):
        rng = np.random.default_rng(9)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        dist = GaussianSpectrum([2.0, 1.0, 0.5], rotation=Q)
        gt = dist.ground_truth()
        assert gt.lambda1 == pytest.approx(2.0)
        assert gt.lambda2 == pytest.approx(1.0)
        assert np.linalg.norm(gt.v_star) == pytest.approx(1.0)
        A = Q @ np.diag([2.0, 1.0, 0.5]) @ Q.T
        assert np.allclose(A @ gt.v_star, 2.0 * gt.v_star, atol=1e-12)

    def test_sample_covariance_close(self):
        dist = GaussianSpectrum([2.0, 1.0, 0.5])
        X = dist.sample_block(np.random.default_rng(4), 200_000)
        S = X.T @ X / len(X)
        assert np.allclose(S, np.diag([2.0, 1.0, 0.5]), atol=0.05)

    def test_clipping_bounds_squared_norms(self):
        dist = GaussianSpectrum([2.0, 1.0, 0.5], clip_radius=2.0)
        X, rejected = dist.sample_block(
            np.random.default_rng(5), 5000, return_rejections=True
        )
        assert np.all(np.einsum("ij,ij->i", X, X) <= 2.0)
        assert rejected > 0
        assert dist.B == 2.0


# v* off every axis, and a clip radius below the trace, so rejections are common
CLIPPED = GaussianSpectrum(
    [2.0, 1.0, 0.5],
    rotation=np.linalg.qr(np.random.default_rng(9).standard_normal((3, 3)))[0],
    clip_radius=2.0,
)


def _allocating_gaussian_block(dist, rng, m):
    """Reference: each draw in a fresh array, the rotation as a new product."""
    scale = np.sqrt(dist.eigenvalues)
    x = rng.standard_normal((m, dist.d)) * scale
    rejected = 0
    while True:
        bad = np.einsum("ij,ij->i", x, x) > dist.clip_radius
        if not bad.any():
            break
        rejected += int(bad.sum())
        x[bad] = rng.standard_normal((int(bad.sum()), dist.d)) * scale
    return x @ dist.rotation.T, rejected


@pytest.mark.parametrize(
    "dist",
    [CoordinateDistribution(p=0.3, sigma=0.5, d=5), CLIPPED],
    ids=["coordinate", "gaussian"],
)
def test_sample_block_into_out_returns_out_with_the_same_bits(dist):
    ref = dist.sample_block(np.random.default_rng(6), 300)
    buf = np.full((300, dist.d), np.nan)  # every entry must be written
    assert dist.sample_block(np.random.default_rng(6), 300, out=buf) is buf
    assert np.array_equal(buf, ref)


def test_gaussian_sample_block_into_out_keeps_draws_and_rejection_count():
    ref, ref_rejected = _allocating_gaussian_block(CLIPPED, np.random.default_rng(7), 400)
    assert ref_rejected > 0
    x, rejected = CLIPPED.sample_block(np.random.default_rng(7), 400, return_rejections=True)
    buf = np.empty((400, 3))
    y, out_rejected = CLIPPED.sample_block(
        np.random.default_rng(7), 400, return_rejections=True, out=buf
    )
    assert y is buf
    assert rejected == out_rejected == ref_rejected
    assert np.array_equal(x, ref) and np.array_equal(y, ref)
    with pytest.raises(ValueError):
        CLIPPED.sample_block(np.random.default_rng(7), 399, out=buf)


def test_random_unit_vectors_are_unit_norm():
    rng = np.random.default_rng(12)
    V = random_unit_vectors(7, 100, rng)
    assert V.shape == (100, 7)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
    v = random_unit_vector(7, np.random.default_rng(12))
    assert np.linalg.norm(v) == pytest.approx(1.0)
