"""Krasulina, Oja, and block-Oja update rules.

The scalar API (`krasulina_step`, `oja_step`, `block_oja_step`) mirrors the
update equations one state at a time.  The `*_update` kernels are the same
arithmetic broadcast over a batch of independent trials, which is how the
experiment harness and the Monte Carlo checks drive them.

Krasulina's rule never normalizes, and the iterate norm is nondecreasing;
to keep long runs clear of overflow, the state is renormalized to unit
length once the norm exceeds RENORM_THRESHOLD.  The potential is
scale-invariant, so this is observationally neutral.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import random_unit_vector

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
    "krasulina_step",
    "oja_step",
    "step",
    "block_oja_step",
    "init_vector",
    "subspace_potential",
]

KRASULINA = "krasulina"
OJA = "oja"
RENORM_THRESHOLD = 1e100


class InitError(ValueError):
    """Initialization produced the zero vector; resample or change mode."""


@dataclass(frozen=True)
class LearningRate:
    """Step sizes gamma_n = c/n after the start time n_o."""

    c: float
    n_o: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.n_o < 0:
            raise ValueError("n_o must be >= 0")

    def gamma(self, n: int) -> float:
        if n < 1:
            raise ValueError("gamma_n defined for n >= 1")
        return self.c / n


@dataclass(frozen=True)
class EstimatorState:
    V: np.ndarray
    n: int
    rule: str
    lr: LearningRate

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        object.__setattr__(self, "V", V)
        if not np.all(np.isfinite(V)) or float(V @ V) == 0.0:
            raise ValueError("state vector must be finite and nonzero")
        if self.rule not in (KRASULINA, OJA):
            raise ValueError(f"unknown rule {self.rule!r}")
        if self.rule == OJA and abs(float(np.linalg.norm(V)) - 1.0) > 1e-12:
            raise ValueError("Oja state must have unit norm")


def _increment(v: np.ndarray, x: np.ndarray, nsq) -> np.ndarray:
    """xi(v, x) for a v whose squared norm nsq is already known."""
    dot = np.einsum("...i,...i->...", v, x)
    return dot[..., None] * x - (dot * dot / nsq)[..., None] * v


def xi(v: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Krasulina increment direction: (v.x) x - ((v.x)^2/|v|^2) v.

    Orthogonal to v, and |xi|^2 <= B^2 |v|^2 / 4 whenever |x|^2 <= B.
    v and x may be (d,) or per-trial (T, d) rows, and one (d,) v may meet
    (m, d) rows of x; the result has one row per row of the inputs.
    """
    v = np.asarray(v, dtype=float)
    nsq = np.einsum("...i,...i->...", v, v)
    if np.any(nsq == 0.0):
        raise ValueError("xi undefined for the zero vector")
    return _increment(v, np.asarray(x, dtype=float), nsq)


def z_increment(v, x, gamma, v_star):
    """Martingale decrease term: 2 gamma (v.v*) (xi.v*) / |v|^2, rows like xi.

    gamma may be a scalar or one value per row.
    """
    v = np.asarray(v, dtype=float)
    nsq = np.einsum("...i,...i->...", v, v)
    return 2.0 * gamma * (v @ v_star) * (xi(v, x) @ v_star) / nsq


def krasulina_update(V: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """One Krasulina step; V and x may be (d,) or per-trial (T, d) rows."""
    return V + gamma * _increment(V, x, np.einsum("...i,...i->...", V, V))


def oja_update(V: np.ndarray, x: np.ndarray, gamma: float) -> np.ndarray:
    """One Oja step (rank-one growth + normalization); batched like above."""
    dot = np.einsum("...i,...i->...", V, x)
    W = V + (gamma * dot)[..., None] * x
    norms = np.sqrt(np.einsum("...i,...i->...", W, W))
    if np.any(norms < 1e-300):
        raise FloatingPointError("Oja denominator underflow")
    return W / norms[..., None]


def krasulina_step(state: EstimatorState, x) -> EstimatorState:
    if state.rule != KRASULINA:
        raise ValueError("state is not a Krasulina state")
    n = state.n + 1
    V = krasulina_update(state.V, np.asarray(x, dtype=float), state.lr.gamma(n))
    if float(np.linalg.norm(V)) > RENORM_THRESHOLD:
        V = V / np.linalg.norm(V)
    return replace(state, V=V, n=n)


def oja_step(state: EstimatorState, x) -> EstimatorState:
    if state.rule != OJA:
        raise ValueError("state is not an Oja state")
    n = state.n + 1
    V = oja_update(state.V, np.asarray(x, dtype=float), state.lr.gamma(n))
    return replace(state, V=V, n=n)


def step(state: EstimatorState, x) -> EstimatorState:
    return krasulina_step(state, x) if state.rule == KRASULINA else oja_step(state, x)


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
        p = self.V.shape[1]
        if np.abs(self.V.T @ self.V - np.eye(p)).max() > 1e-10:
            raise ValueError("columns must be orthonormal")


def _mgs(columns, rng: np.random.Generator):
    """Modified Gram-Schmidt over a list of 1-d columns, order preserved.

    A column whose residual collapses below 1e-12 is replaced by a random
    unit vector orthogonal to the columns already accepted; returns the
    orthonormal columns and the number of such replacements.
    """
    d = columns[0].size
    out: list[np.ndarray] = []
    collapses = 0
    for w in columns:
        for q in out:
            w = w - np.einsum("i,i->", q, w) * q
        norm = float(np.sqrt(np.einsum("i,i->", w, w)))
        if norm < 1e-12:
            collapses += 1
            while True:
                w = random_unit_vector(d, rng)
                for q in out:
                    w = w - np.einsum("i,i->", q, w) * q
                norm = float(np.sqrt(np.einsum("i,i->", w, w)))
                if norm >= 1e-6:
                    break
        out.append(w / norm)
    return out, collapses


def block_oja_step(bstate: BlockState, x) -> BlockState:
    """Rank-one growth of the frame, then modified Gram-Schmidt.

    The per-column arithmetic is kept op-for-op identical to oja_update so
    that p = 1 trajectories reproduce oja_step bit-for-bit.
    """
    x = np.asarray(x, dtype=float)
    n = bstate.n + 1
    gamma = bstate.lr.gamma(n)
    V = bstate.V
    p = V.shape[1]
    grown = []
    for j in range(p):
        col = np.ascontiguousarray(V[:, j])
        dot = np.einsum("i,i->", col, x)
        grown.append(col + (gamma * dot) * x)
    cols, collapses = _mgs(grown, bstate._rng)
    return BlockState(
        V=np.column_stack(cols),
        n=n,
        lr=bstate.lr,
        collapse_events=bstate.collapse_events + collapses,
        _rng=bstate._rng,
    )


def subspace_potential(V: np.ndarray, V_star: np.ndarray) -> float:
    """Diagnostic for block runs: p - |V*' V|_F^2.

    Zero when the frames span the same subspace.  Reported as a convergence
    diagnostic only; no finite-sample guarantee is attached to it.
    """
    p = V.shape[1]
    return float(p - np.linalg.norm(V_star.T @ V, "fro") ** 2)


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
