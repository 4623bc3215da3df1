"""Tests for the small dense linear algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incpca.linalg import (
    EigenConvergenceError,
    potential,
    rayleigh_gradient,
    rayleigh_quotient,
    require_symmetric,
    top_eigs,
)


def _random_spd(d, rng):
    M = rng.standard_normal((d, d))
    return M @ M.T + 0.1 * np.eye(d)


def test_require_symmetric_accepts_and_rejects():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    out = require_symmetric(A)
    assert np.array_equal(out, A)
    with pytest.raises(ValueError):
        require_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        require_symmetric(np.ones((2, 3)))


def test_rayleigh_quotient_on_eigenvectors():
    A = np.diag([3.0, 1.0, 0.5])
    assert rayleigh_quotient(A, np.array([1.0, 0.0, 0.0])) == pytest.approx(3.0)
    # scale invariance
    v = np.array([0.0, 2.0, 0.0])
    assert rayleigh_quotient(A, v) == pytest.approx(1.0)


def test_rayleigh_quotient_bounds():
    rng = np.random.default_rng(7)
    A = _random_spd(6, rng)
    lams = np.linalg.eigvalsh(A)
    for _ in range(50):
        v = rng.standard_normal(6)
        q = rayleigh_quotient(A, v)
        assert lams[0] - 1e-10 <= q <= lams[-1] + 1e-10


def test_rayleigh_gradient_vanishes_at_eigenvectors():
    A = np.diag([3.0, 1.0, 0.5])
    for i in range(3):
        e = np.zeros(3)
        e[i] = 1.0
        assert np.linalg.norm(rayleigh_gradient(A, e)) < 1e-14


def test_rayleigh_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    A = _random_spd(5, rng)
    h = 1e-6
    for _ in range(20):
        v = rng.standard_normal(5)
        g = rayleigh_gradient(A, v)
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (rayleigh_quotient(A, v + e) - rayleigh_quotient(A, v - e)) / (
                2 * h
            )
        assert np.allclose(g, fd, rtol=1e-5, atol=1e-7)


def test_potential_basic_values():
    e1 = np.array([1.0, 0.0])
    assert potential(e1, e1) == 0.0
    assert potential(np.array([0.0, 3.0]), e1) == pytest.approx(1.0)
    v = np.array([1.0, 1.0])
    assert potential(v, e1) == pytest.approx(0.5)


def test_potential_requires_unit_reference():
    with pytest.raises(ValueError):
        potential(np.array([1.0, 0.0]), np.array([2.0, 0.0]))
    with pytest.raises(ValueError):
        potential(np.array([1.0, 0.0]), np.array([np.nan, 0.0]))


def test_potential_is_accurate_at_small_values():
    # 1 - (v.v*)^2/|v|^2 cancels to 0 here
    assert potential(np.array([1.0, 1e-9, 0.0]), np.array([1.0, 0.0, 0.0])) == pytest.approx(
        1e-18, rel=1e-12, abs=0.0
    )
    theta = 1e-8
    for phi in (0.3, 1.1, 2.5):
        vstar = np.array([np.cos(phi), np.sin(phi)])
        v = 3.0 * np.array([np.cos(phi + theta), np.sin(phi + theta)])
        assert potential(v, vstar) == pytest.approx(np.sin(theta) ** 2, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("d", [2, 3, 10, 20])
def test_potential_of_a_stack_is_its_rows_bitwise(d):
    rng = np.random.default_rng(d)
    vstar = rng.standard_normal(d)
    vstar /= np.linalg.norm(vstar)
    V = rng.standard_normal((4, 37, d)) * np.exp(rng.uniform(-20, 20, (4, 37, 1)))
    V[0, 0] = 2.5 * vstar  # potential 0 up to rounding
    out = potential(V, vstar)
    assert out.shape == (4, 37)
    rows = [[potential(v, vstar) for v in block] for block in V]
    assert np.array_equal(out, np.array(rows))
    assert np.all((out >= 0.0) & (out <= 1.0))


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, 1e200])
def test_potential_rejects_a_zero_or_nonfinite_row(bad):
    # 1e200 is finite, but its square overflows
    V = np.ones((3, 4))
    V[1] = 0.0 if bad == 0.0 else [1.0, bad, 0.0, 0.0]
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError):
            potential(V, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            potential(V[1], np.array([1.0, 0.0, 0.0, 0.0]))


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_potential_in_unit_interval_and_scale_invariant(d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d)
    if np.linalg.norm(v) < 1e-8:
        return
    vstar = rng.standard_normal(d)
    vstar /= np.linalg.norm(vstar)
    p = potential(v, vstar)
    assert 0.0 <= p <= 1.0
    assert potential(5.0 * v, vstar) == pytest.approx(p, abs=1e-12)
    assert potential(-v, vstar) == pytest.approx(p, abs=1e-12)


def test_top_eigs_against_dense_solver():
    rng = np.random.default_rng(3)
    A = _random_spd(8, rng)
    lams, vecs = top_eigs(A, 3)
    ref_lams, ref_vecs = np.linalg.eigh(A)
    ref_lams = ref_lams[::-1]
    ref_vecs = ref_vecs[:, ::-1]
    assert np.allclose(lams, ref_lams[:3], rtol=1e-9)
    for i in range(3):
        # eigenvectors up to sign
        overlap = abs(ref_vecs[:, i] @ vecs[i])
        assert overlap == pytest.approx(1.0, abs=1e-8)


def test_top_eigs_residuals_and_orthonormality():
    rng = np.random.default_rng(5)
    A = _random_spd(12, rng)
    lams, vecs = top_eigs(A, 4, tol=1e-12)
    fro = np.linalg.norm(A, "fro")
    for i in range(4):
        r = np.linalg.norm(A @ vecs[i] - lams[i] * vecs[i])
        assert r <= 1e-10 * fro
    gram = vecs @ vecs.T
    assert np.allclose(gram, np.eye(4), atol=1e-10)
    # descending order
    assert all(lams[i] >= lams[i + 1] - 1e-12 for i in range(3))


def test_top_eigs_deterministic_sign():
    A = np.diag([4.0, 2.0, 1.0])
    _, v1 = top_eigs(A, 1)
    _, v2 = top_eigs(A, 1)
    assert np.array_equal(v1, v2)
    assert v1[0][0] > 0


def test_top_eigs_nonconvergence_raises():
    # two equal top eigenvalues make the deflated iterate wander
    A = np.diag([2.0, 2.0, 1.0])
    with pytest.raises(EigenConvergenceError):
        top_eigs(A, 1, tol=1e-15, max_iter=5)
