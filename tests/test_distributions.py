"""Tests for the data sources and their spectral ground truth."""

import tracemalloc

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


def test_gaussian_sample_block_keeps_draws_and_rejection_count():
    ref, ref_rejected = _allocating_gaussian_block(CLIPPED, np.random.default_rng(7), 400)
    assert ref_rejected > 0
    x, rejected = CLIPPED.sample_block(np.random.default_rng(7), 400, return_rejections=True)
    assert rejected == ref_rejected and np.array_equal(x, ref)


# CLIPPED's rotation at the default clip radius, where 1000 draws reject
# nothing, and at a radius where the first of 13 rejections (seed 8) is row 58
ROTATED = GaussianSpectrum(CLIPPED.eigenvalues, rotation=CLIPPED.rotation)
LATE_REJECTION = GaussianSpectrum(CLIPPED.eigenvalues, rotation=CLIPPED.rotation, clip_radius=15.0)


@pytest.mark.parametrize(
    "dist",
    [CoordinateDistribution(p=0.3, sigma=0.5, d=5), CLIPPED, ROTATED, LATE_REJECTION],
    ids=["coordinate", "gaussian", "rotated", "late-rejection"],
)
@pytest.mark.parametrize("size", [1, 2, 7, 300, 999, 1000, 5000])
def test_sample_blocks_concatenate_to_one_sample_block(dist, size):
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    ref = dist.sample_block(ref_rng, 1000)
    blocks = list(dist.sample_blocks(rng, 1000, size))
    assert [len(b) for b in blocks[:-1]] == [size] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= size
    assert np.array_equal(np.concatenate(blocks), ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _same_state(a, b):
    """Whether two bit generator states (nested dicts of ints and arrays) are equal."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937, np.random.SFC64])
@pytest.mark.parametrize("d", [5, 300])  # indices held as uint8, and as uint16
@pytest.mark.parametrize("n, size", [(1000, 1), (1000, 7), (1000, 5000), (0, 5)])
def test_coordinate_blocks_concatenate_on_any_bit_generator(bit_generator, d, n, size):
    dist = CoordinateDistribution(p=0.3, sigma=0.5, d=d)
    rng, ref_rng = np.random.Generator(bit_generator(8)), np.random.Generator(bit_generator(8))
    ref = dist.sample_block(ref_rng, n)
    blocks = list(dist.sample_blocks(rng, n, size))
    assert [len(b) for b in blocks] == [min(size, n - a) for a in range(0, n, size)]
    assert np.array_equal(np.concatenate([np.empty((0, d)), *blocks]), ref)
    assert _same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
    if d == 300 and n:
        assert ref.nonzero()[1].max() > 255  # past what a uint8 index holds


def test_a_coordinate_reader_holds_one_block_and_the_indices():
    dist = CoordinateDistribution(p=0.3, sigma=0.5, d=10)
    tracemalloc.start()
    try:
        # map drops each block before the next one is drawn
        rows = sum(map(len, dist.sample_blocks(np.random.default_rng(0), 1_000_000, 100_000)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1_000_000
    # a (1e5, 10) block is 8 MB and the 1e6 indices 1 MB; the rest is the
    # block's few (1e5,) temporaries.  The support of all 1e6 draws as intp
    # indices and float signs would be 16 MB.
    assert peak < 12.5e6


def test_the_gaussian_sources_reach_both_ways_of_drawing_blocks():
    # ROTATED draws every block on its own, LATE_REJECTION replays after row 58
    assert ROTATED.sample_block(np.random.default_rng(8), 1000, return_rejections=True)[1] == 0
    rows = np.random.default_rng(8).standard_normal((1000, 3)) * np.sqrt(CLIPPED.eigenvalues)
    rejected = np.nonzero(np.einsum("ij,ij->i", rows, rows) > LATE_REJECTION.clip_radius)[0]
    assert rejected[0] == 58


@pytest.mark.parametrize(
    "dist",
    [CoordinateDistribution(p=0.3, sigma=0.5, d=5), CLIPPED],
    ids=["coordinate", "gaussian"],
)
@pytest.mark.parametrize("n, size", [(10, 0), (10, -3), (-1, 5)])
def test_sample_blocks_rejects_a_bad_size_before_reading_the_stream(dist, n, size):
    rng = np.random.default_rng(8)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="need"):
        next(dist.sample_blocks(rng, n, size))
    assert rng.bit_generator.state == state
    assert list(dist.sample_blocks(rng, 0, 5)) == []
    assert rng.bit_generator.state == state


def test_random_unit_vectors_are_unit_norm():
    rng = np.random.default_rng(12)
    V = random_unit_vectors(7, 100, rng)
    assert V.shape == (100, 7)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0, atol=1e-12)
    v = random_unit_vector(7, np.random.default_rng(12))
    assert np.linalg.norm(v) == pytest.approx(1.0)
