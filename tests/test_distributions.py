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
from incpca.linalg import top_eigs


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

    @pytest.mark.parametrize(
        "eigenvalues, clip_radius, message",
        [
            ([2.0, np.nan], 0.0, "eigenvalues must be finite"),
            ([np.inf, 1.0], 0.0, "eigenvalues must be finite"),
            ([2.0, 1.0], np.inf, "clip_radius must be positive and finite"),
            ([2.0, 1.0], np.nan, "clip_radius must be positive and finite"),
        ],
        ids=["nan-eigenvalue", "inf-eigenvalue", "inf-radius", "nan-radius"],
    )
    def test_non_finite_input_is_rejected(self, eigenvalues, clip_radius, message):
        with pytest.raises(ValueError, match=message):
            GaussianSpectrum(eigenvalues, clip_radius=clip_radius)

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

    def test_covariance_is_the_rotated_spectrum(self):
        lam = np.array([2.0, 1.0, 0.5, 0.25, 0.125])
        Q = np.linalg.qr(np.random.default_rng(3).standard_normal((5, 5)))[0]
        dist = GaussianSpectrum(lam, rotation=Q)
        A = dist.covariance()
        assert np.abs(A - Q @ np.diag(lam) @ Q.T).max() <= 1e-12
        assert np.array_equal(GaussianSpectrum(lam).covariance(), np.diag(lam))
        gt = dist.ground_truth()
        lams, vecs = top_eigs(A, 1, tol=1e-12)
        assert lams[0] == pytest.approx(gt.lambda1, abs=1e-12)
        v = vecs[0] * np.sign(vecs[0] @ gt.v_star)
        assert np.abs(v - gt.v_star).max() <= 1e-10

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
    chunk = np.full((300, 3, dist.d), np.nan)  # every entry must be written
    # a contiguous block, and one trial's strided column of a step-major chunk
    for buf in (np.full((300, dist.d), np.nan), chunk[:, 1]):
        assert dist.sample_block(np.random.default_rng(6), 300, out=buf) is buf
        assert np.array_equal(buf, ref)
    assert np.isnan(chunk[:, [0, 2]]).all()  # the other columns are untouched


@pytest.mark.parametrize(
    "dist",
    [CoordinateDistribution(p=0.2, sigma=0.5, d=4), CLIPPED],
    ids=["coordinate", "gaussian"],
)
@pytest.mark.parametrize("rows, extra_columns", [(5, 0), (3, 2)], ids=["rows", "columns"])
def test_sample_block_rejects_an_out_of_another_shape(dist, rows, extra_columns):
    out = np.ones((rows, dist.d + extra_columns))
    with pytest.raises(ValueError, match=r"out must have shape \(m, d\)"):
        dist.sample_block(np.random.default_rng(0), 3, out=out)
    assert (out == 1.0).all()  # nothing was written


@pytest.mark.parametrize(
    "dist",
    [CoordinateDistribution(p=0.2, sigma=0.5, d=4), CLIPPED],
    ids=["coordinate", "gaussian"],
)
@pytest.mark.parametrize("dtype", [np.int64, np.float32])
@pytest.mark.parametrize("strided", [False, True], ids=["contiguous", "strided"])
def test_sample_block_rejects_an_out_of_another_dtype(dist, dtype, strided):
    # writing draws into such a buffer would cast them (0/+-1 rows for int64)
    buf = np.ones((3, 2, dist.d), dtype=dtype)
    out = buf[:, 1] if strided else buf[:, 1].copy()
    with pytest.raises(ValueError, match="out must have shape \\(m, d\\) and dtype float64"):
        dist.sample_block(np.random.default_rng(0), 3, out=out)
    assert (out == 1).all()  # nothing was written


def _mask_draw_support(dist, rng, m):
    """Reference: the tail's coordinates picked by boolean-mask indexing."""
    u = rng.random(m)
    coords = np.empty(m, dtype=np.intp)
    head = u < dist.p
    coords[head] = 0
    tail = ~head
    frac = (u[tail] - dist.p) / (1.0 - dist.p)
    coords[tail] = 1 + np.minimum((frac * (dist.d - 1)).astype(np.intp), dist.d - 2)
    signs = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return coords, signs


@pytest.mark.parametrize("d", [2, 10])
@pytest.mark.parametrize("p", [0.05, 0.2, 0.9])
@pytest.mark.parametrize("m", [1, 5, 2048])
def test_draw_support_matches_the_boolean_mask_form(d, p, m):
    dist = CoordinateDistribution(p=p, sigma=0.1, d=d)
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        coords, signs = dist.draw_support(rng, m)
        ref_coords, ref_signs = _mask_draw_support(dist, ref_rng, m)
        assert coords.dtype == np.intp and np.array_equal(coords, ref_coords)
        assert np.array_equal(signs, ref_signs)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gaussian_sample_block_into_out_keeps_draws_and_rejection_count():
    ref, ref_rejected = _allocating_gaussian_block(CLIPPED, np.random.default_rng(7), 400)
    assert ref_rejected > 0
    x, rejected = CLIPPED.sample_block(np.random.default_rng(7), 400, return_rejections=True)
    assert rejected == ref_rejected and np.array_equal(x, ref)
    # a contiguous block, and one trial's strided column of a step-major chunk
    for buf in (np.empty((400, 3)), np.empty((400, 5, 3))[:, 2]):
        y, out_rejected = CLIPPED.sample_block(
            np.random.default_rng(7), 400, return_rejections=True, out=buf
        )
        assert y is buf
        assert out_rejected == ref_rejected
        assert np.array_equal(y, ref)


@pytest.mark.parametrize(
    "dist",
    [CoordinateDistribution(p=0.3, sigma=0.5, d=5), CLIPPED],
    ids=["coordinate", "gaussian"],
)
@pytest.mark.parametrize("size", [1, 300, 1000, 5000])
def test_sample_blocks_concatenate_to_one_sample_block(dist, size):
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    ref = dist.sample_block(ref_rng, 1000)
    blocks = list(dist.sample_blocks(rng, 1000, size))
    assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert np.array_equal(np.concatenate(blocks), ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_unit_vectors_are_unit_norm():
    rng = np.random.default_rng(12)
    V = random_unit_vectors(7, 100, rng)
    assert V.shape == (100, 7)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
    v = random_unit_vector(7, np.random.default_rng(12))
    assert np.linalg.norm(v) == pytest.approx(1.0)
