"""Krasulina, Oja, and block-Oja update rules.

The scalar API (`step`, which advances a Krasulina or Oja state by its
rule, and `block_oja_step`) mirrors the update equations one state at a
time.  The `*_update` kernels are the same arithmetic broadcast over a
batch of independent trials, which is how the experiment harness and the
Monte Carlo checks drive them; the block rule applies Oja's arithmetic
likewise to the p rows of its transposed frame.

Krasulina's rule never normalizes, and the iterate norm is nondecreasing;
to keep long runs clear of overflow, the state is renormalized to unit
length once the norm exceeds RENORM_THRESHOLD.  The potential is
scale-invariant, so this is observationally neutral.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import random_unit_vector
from .linalg import _einsum

__all__ = [
    "KRASULINA",
    "OJA",
    "RENORM_THRESHOLD",
    "InitError",
    "LearningRate",
    "EstimatorState",
    "BlockState",
    "xi",
    "z_increment",
    "krasulina_update",
    "oja_update",
    "step",
    "block_oja_step",
    "init_vector",
]

KRASULINA = "krasulina"
OJA = "oja"
RENORM_THRESHOLD = 1e100


class InitError(ValueError):
    """Initialization produced the zero vector; resample or change mode."""


@dataclass(frozen=True)
class LearningRate:
    """Step sizes gamma_n = c/n; the state's step count n is the clock."""

    c: float

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")

    def gamma(self, n: int) -> float:
        if n < 1:
            raise ValueError("gamma_n defined for n >= 1")
        return self.c / n


def _checked_norm(V: np.ndarray, rule: str) -> float:
    """|V|, raising for a V that is no valid state of `rule`.

    V must have a finite, nonzero squared norm (a nan or inf entry, or
    entries so large that it overflows, make it non-finite), and an Oja V
    unit norm.  EstimatorState and `step` run these checks.
    """
    nsq = float(V.dot(V))
    if not (math.isfinite(nsq) and nsq > 0.0):
        raise ValueError("state vector must be finite and nonzero")
    norm = math.sqrt(nsq)
    if rule == OJA and abs(norm - 1.0) > 1e-12:
        raise ValueError("Oja state must have unit norm")
    return norm


@dataclass(frozen=True)
class EstimatorState:
    V: np.ndarray
    n: int
    rule: str
    lr: LearningRate

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "V", V)
        _checked_norm(V, self.rule)
        if self.rule not in (KRASULINA, OJA):
            raise ValueError(f"unknown rule {self.rule!r}")


def _increment(v: np.ndarray, x: np.ndarray, nsq) -> np.ndarray:
    """xi(v, x) for a v whose squared norm nsq is already known."""
    dot = _einsum("...i,...i->...", v, x)
    inc = dot[..., None] * x
    inc -= (dot * dot / nsq)[..., None] * v
    return inc


def xi(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Krasulina increment direction: (v.x) x - ((v.x)^2/|v|^2) v.

    Orthogonal to v, and |xi|^2 <= B^2 |v|^2 / 4 whenever |x|^2 <= B.
    v and x may be (d,) or per-trial (T, d) rows, and one (d,) v may meet
    (m, d) rows of x; the result has one row per row of the inputs.
    """
    v = np.asarray(v, dtype=float)
    nsq = _einsum("...i,...i->...", v, v)
    if np.any(nsq == 0.0):
        raise ValueError("xi undefined for the zero vector")
    return _increment(v, np.asarray(x, dtype=float), nsq)


def z_increment(v, x, gamma, v_star):
    """Martingale decrease term: 2 gamma (v.v*) (xi.v*) / |v|^2, rows like xi.

    gamma may be a scalar or one value per row.  Every product is a
    `linalg._einsum` over the last axis, so a row gives the same bits alone or in a batch.
    """
    v = np.asarray(v, dtype=float)
    nsq = _einsum("...i,...i->...", v, v)
    if np.any(nsq == 0.0):
        raise ValueError("xi undefined for the zero vector")
    v_dot = _einsum("...i,i->...", v, v_star)
    xi_dot = _einsum("...i,i->...", _increment(v, np.asarray(x, dtype=float), nsq), v_star)
    return 2.0 * gamma * v_dot * xi_dot / nsq


def krasulina_update(V: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """One Krasulina step; V and x may be (d,) or per-trial (T, d) rows.

    V + gamma * xi, computed in place in the increment: IEEE + and * commute,
    so the bits are those of the written-out expression.
    """
    W = _increment(V, x, _einsum("...i,...i->...", V, V))
    W *= gamma
    W += V
    return W


def oja_update(V: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """One Oja step (rank-one growth + normalization); batched like above.

    (V + (gamma (V.x)) x) / |.|, computed in place in the growth array with
    the written-out expression's bits.  On (d,) inputs the dot and norm are
    numpy scalars, which the in-place operators rebind.
    """
    dot = _einsum("...i,...i->...", V, x)
    dot *= gamma
    W = dot[..., None] * x
    W += V
    norms = np.sqrt(_einsum("...i,...i->...", W, W))
    if np.count_nonzero(norms < 1e-300):
        raise FloatingPointError("Oja denominator underflow")
    W /= norms[..., None]
    return W


def _successor(state: EstimatorState, V: np.ndarray, n: int) -> EstimatorState:
    """`state` advanced to (V, n); `step` has run its checks on V."""
    succ = object.__new__(EstimatorState)
    succ.__dict__.update(V=V, n=n, rule=state.rule, lr=state.lr)
    return succ


def step(state: EstimatorState, x) -> EstimatorState:
    """One update of `state` by its rule, with gamma_n = c/n for n = state.n + 1.

    A Krasulina state whose norm passes RENORM_THRESHOLD is renormalized.
    """
    n = state.n + 1
    # the kernels are looked up at call time, so a wrapper set on the module sees the call
    update = krasulina_update if state.rule == KRASULINA else oja_update
    V = update(state.V, np.asarray(x, dtype=float), state.lr.gamma(n))
    norm = _checked_norm(V, state.rule)
    if norm > RENORM_THRESHOLD:
        V = V / norm
    return _successor(state, V, n)


@dataclass
class BlockState:
    """Top-p frame estimate with orthonormal columns (d x p)."""

    V: np.ndarray
    n: int
    lr: LearningRate
    collapse_events: int = 0
    _rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        if self.V.ndim != 2 or self.V.shape[1] < 1:
            raise ValueError(f"V must be a 2-D d x p frame, p >= 1, got shape {self.V.shape}")
        _require_orthonormal(self.V.T)


@functools.cache
def _eye(p: int) -> np.ndarray:
    """The p x p identity, read-only because every call shares it."""
    eye = np.eye(p)
    eye.flags.writeable = False
    return eye


def _require_orthonormal(Vt: np.ndarray) -> None:
    """Raise unless the rows of Vt (p x d) are orthonormal: max|Vt Vtᵀ - I| <= 1e-10.

    The one frame check of `BlockState` and `block_oja_step`.  It is what
    rejects a frame made non-finite by a nan or inf sample, and also a
    finite frame that Gram-Schmidt left off the Stiefel manifold, which a
    finiteness test would miss.
    """
    G = Vt @ Vt.T
    G -= _eye(len(G))
    # written so that a nan entry fails it too
    if not np.abs(G, out=G).max() <= 1e-10:
        raise ValueError("columns must be orthonormal")


def _mgs(W: np.ndarray, rng: np.random.Generator) -> int:
    """Modified Gram-Schmidt in place on the rows of W, order preserved.

    Right-looking: once row j is normalized, its projection leaves every
    later row in one matrix-vector product.  A row whose residual collapses
    below 1e-12 is replaced by a random unit vector orthogonal to the rows
    already accepted; returns the number of such replacements.
    """
    p, d = W.shape
    collapses = 0
    for j in range(p):
        w = W[j]
        norm = math.sqrt(_einsum("i,i->", w, w))
        if norm < 1e-12:
            collapses += 1
            while True:
                w = random_unit_vector(d, rng)
                for q in W[:j]:
                    w = w - _einsum("i,i->", q, w) * q
                norm = float(np.sqrt(_einsum("i,i->", w, w)))
                if norm >= 1e-6:
                    break
        w = np.divide(w, norm, out=W[j])
        if j < p - 1:
            rest = W[j + 1 :]
            rest -= (rest @ w)[:, None] * w
    return collapses


def block_oja_step(bstate: BlockState, x) -> BlockState:
    """Rank-one growth of the frame, then modified Gram-Schmidt.

    Both run in place on the rows of V' (p x d), copied from the input's V
    by the growth; the growth and each row's norm are oja_update's
    arithmetic, so p = 1 trajectories reproduce `step` on an Oja state bit-for-bit.
    The successor is built like `_successor`'s, without re-validation, once
    `_require_orthonormal` has passed on V'.
    """
    x = np.asarray(x, dtype=float)
    n = bstate.n + 1
    Vt = bstate.V.T
    W = Vt + (bstate.lr.gamma(n) * _einsum("...i,...i->...", Vt, x))[..., None] * x
    collapses = _mgs(W, bstate._rng)
    _require_orthonormal(W)
    succ = object.__new__(BlockState)
    succ.__dict__.update(
        V=W.T,
        n=n,
        lr=bstate.lr,
        collapse_events=bstate.collapse_events + collapses,
        _rng=bstate._rng,
    )
    return succ


def init_vector(mode, d: int, dist=None, rng=None, k: int | None = None) -> np.ndarray:
    """Initial estimate: 'random_unit', 'first_point', or 'average_k'.

    first_point takes the next sample from dist; average_k averages the next
    k.  An exactly-zero average raises InitError: on symmetric discrete data
    that cancellation is precisely the orthogonality trap, so it is
    surfaced, not silently resampled.
    """
    if mode == "random_unit":
        return random_unit_vector(d, rng)
    if mode == "first_point":
        return dist.sample_block(rng, 1)[0]
    if mode == "average_k":
        if not k or k < 1:
            raise ValueError("average_k needs k >= 1")
        v = dist.sample_block(rng, k).mean(axis=0)
        if float(v @ v) == 0.0:
            raise InitError("average of samples is the zero vector; resample")
        return v
    raise ValueError(f"unknown init mode {mode!r}")
