"""Dense symmetric linear algebra primitives.

Everything here is a pure function of numpy arrays: Rayleigh quotient and
gradient, the alignment potential used to score eigenvector estimates, and a
small power-iteration eigensolver.  No check or command calls the solver:
the tests use it to recover planted spectra (AC9), and the benchmark
times it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EigenConvergenceError",
    "rayleigh_quotient",
    "rayleigh_gradient",
    "potential",
    "top_eigs",
    "require_symmetric",
]


def _c_einsum():
    """np.einsum's C core: the same bits with optimize unset, minus its Python wrapper.

    Private to numpy: numpy._core in numpy 2, numpy.core in 1.x (which warns on 2).
    """
    try:
        from numpy._core._multiarray_umath import c_einsum
    except ImportError:
        try:
            from numpy.core._multiarray_umath import c_einsum
        except ImportError:
            c_einsum = np.einsum
    return c_einsum


_einsum = _c_einsum()  # every einsum in the package, so all keep np.einsum's bits


class EigenConvergenceError(RuntimeError):
    """Power iteration failed to reach the requested residual.

    Usually a sign of a (near-)degenerate spectrum at the requested index.
    """


def _as_vector(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("expected a 1-d vector of length >= 1")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    return v


def require_symmetric(A) -> np.ndarray:
    """Validate and return A as a finite symmetric matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return A


def rayleigh_quotient(A, v) -> float:
    """v'Av / v'v.  Scale-invariant in v; rejects the zero vector."""
    A = require_symmetric(A)
    v = _as_vector(v)
    nsq = float(v @ v)
    if nsq == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero vector")
    return float(v @ (A @ v)) / nsq


def rayleigh_gradient(A, v) -> np.ndarray:
    """Gradient of the Rayleigh quotient: (2/|v|^2) (A - G(v) I) v.

    Always orthogonal to v.
    """
    A = require_symmetric(A)
    v = _as_vector(v)
    nsq = float(v @ v)
    if nsq == 0.0:
        raise ValueError("gradient undefined for the zero vector")
    Av = A @ v
    g = float(v @ Av) / nsq
    return (2.0 / nsq) * (Av - g * v)


def potential(V, v_star):
    """Misalignment with the unit target: |V - (V.v*) v*|^2 / |V|^2.

    V is one state (d,) or a stack (..., d); returns a float or an array of
    shape V.shape[:-1], in [0, 1].  Unlike 1 - (V.v*)^2 / |V|^2 it stays
    accurate at small values.  Every product is an einsum (`_einsum`) over
    the last axis, so a row gives the same bits alone or inside any stack.
    """
    V = np.asarray(V, dtype=float)
    v_star = _as_vector(v_star)
    if abs(float(_einsum("i,i->", v_star, v_star)) - 1.0) > 1e-10:
        raise ValueError("v_star must be a unit vector")
    # a nan or inf entry, or an overflowing one, makes its squared norm non-finite
    nsq = _einsum("...i,...i->...", V, V)
    if not np.all(np.isfinite(nsq)):
        raise ValueError("state has a non-finite squared norm")
    if np.any(nsq == 0.0):
        raise ValueError("potential undefined for the zero vector")
    # V - (V.v*) v* in one buffer: a stack's temporaries are large
    off = _einsum("...,i->...i", _einsum("...i,i->...", V, v_star), v_star)
    np.subtract(V, off, out=off)
    val = np.minimum(_einsum("...i,...i->...", off, off) / nsq, 1.0)
    return float(val) if V.ndim == 1 else val


def _fix_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its first non-negligible coordinate is positive."""
    idx = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
    if idx.size and v[idx[0]] < 0:
        return -v
    return v


def top_eigs(A, k: int, tol: float = 1e-10, max_iter: int = 10000):
    """Top-k eigenpairs of a symmetric matrix by power iteration + deflation.

    Returns (eigenvalues, eigenvectors) with eigenvalues descending and
    eigenvectors as unit rows of a (k, d) array, mutually orthogonal.  Each
    pair satisfies |A v - lam v| <= tol * |A|_F against the undeflated A.

    Raises EigenConvergenceError if some pair cannot reach that residual
    within max_iter sweeps (near-degenerate gap at that index).
    """
    A = require_symmetric(A)
    d = A.shape[0]
    if not (1 <= k <= d):
        raise ValueError("need 1 <= k <= d")
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(0)  # a fixed start, so repeated calls agree

    fro = float(np.linalg.norm(A))
    if fro == 0.0:
        # zero matrix: every vector is an eigenvector with eigenvalue 0
        vecs = np.eye(d)[:k]
        return np.zeros(k), vecs

    work = A.copy()
    vals = np.zeros(k)
    vecs = np.zeros((k, d))
    for j in range(k):
        v = rng.standard_normal(d)
        # keep iterates orthogonal to already-found pairs
        for it in range(max_iter):
            if j:
                v -= vecs[:j].T @ (vecs[:j] @ v)
            nv = np.linalg.norm(v)
            if nv < 1e-300:
                v = rng.standard_normal(d)
                continue
            v /= nv
            w = work @ v
            lam = float(v @ w)
            # residual against the original matrix, with earlier pairs folded back
            full = A @ v
            lam_full = float(v @ full)
            if np.linalg.norm(full - lam_full * v) <= tol * fro:
                vals[j] = lam_full
                vecs[j] = _fix_sign(v)
                break
            v = w
        else:
            raise EigenConvergenceError(
                f"pair {j} did not reach residual {tol:g}*|A|_F in {max_iter} iterations"
            )
        # Hotelling deflation
        work = work - vals[j] * np.outer(vecs[j], vecs[j])

    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[order]
