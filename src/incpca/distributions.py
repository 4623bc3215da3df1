"""Data sources for the incremental PCA experiments.

All sources emit mean-zero samples with a hard norm bound B (the coordinate
distribution by construction, Gaussian sources via rejection at a clip
radius) and expose their exact ground truth.

Randomness contract: every trial owns a counter-based stream derived from
(master_seed, trial_id) via `trial_rng`, so sample sequences are a pure
function of those two integers regardless of execution schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import _einsum

__all__ = [
    "GroundTruth",
    "CoordinateDistribution",
    "GaussianSpectrum",
    "RejectionError",
    "trial_rng",
    "random_unit_vector",
    "random_unit_vectors",
]

# redrawn rows per requested row after which a Gaussian draw gives up: with
# acceptance rate a a draw redraws m (1 - a) / a rows on average, so a clip
# radius that accepts under about 1% of samples fails instead of looping
MAX_REDRAWS = 100


class RejectionError(ValueError):
    """A Gaussian draw redrew more than MAX_REDRAWS rows per requested row."""


def trial_rng(master_seed: int, trial_id: int) -> np.random.Generator:
    """Independent, reproducible per-trial generator."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial_id),))
    return np.random.default_rng(ss)


@dataclass(frozen=True)
class GroundTruth:
    """Target eigenvector and top two eigenvalues."""

    v_star: np.ndarray
    lambda1: float
    lambda2: float

    def __post_init__(self):
        v = np.asarray(self.v_star, dtype=float)
        object.__setattr__(self, "v_star", v)
        if abs(float(v @ v) - 1.0) > 1e-10:
            raise ValueError("v_star must be a unit vector")
        if self.lambda1 < self.lambda2:
            raise ValueError("need lambda1 >= lambda2")

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda2


@dataclass(frozen=True)
class CoordinateDistribution:
    """Discrete source supported on +-e_1 and +-sigma*e_i for i > 1.

    P(+-e_1) = p/2 each; the remaining mass 1-p spreads evenly over the
    2(d-1) scaled coordinate directions.  Covariance is
    diag(p, s, ..., s) with s = sigma^2 (1-p)/(d-1), and |X|^2 <= 1.
    """

    p: float
    sigma: float
    d: int

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must be in (0, 1)")
        if not 0.0 < self.sigma < 1.0:
            raise ValueError("sigma must be in (0, 1)")
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.p <= self.lambda2:
            raise ValueError("need p > sigma^2 (1-p)/(d-1) for an eigengap")

    @property
    def lambda2(self) -> float:
        return self.sigma**2 * (1.0 - self.p) / (self.d - 1)

    @property
    def B(self) -> float:
        return 1.0

    def covariance(self) -> np.ndarray:
        diag = np.full(self.d, self.lambda2)
        diag[0] = self.p
        return np.diag(diag)

    def ground_truth(self) -> GroundTruth:
        v = np.zeros(self.d)
        v[0] = 1.0
        return GroundTruth(v_star=v, lambda1=self.p, lambda2=self.lambda2)

    def sample_block(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """(m, d) block of i.i.d. draws."""
        return self._scatter(*self.draw_support(rng, m))

    def sample_blocks(self, rng: np.random.Generator, n: int, size: int):
        """Blocks of at most `size` rows that concatenate to sample_block(rng, n).

        The stream holds the n coordinate uniforms, then the n sign uniforms.
        The first block therefore reads all n coordinate uniforms, `size` at
        a time, and keeps their indices in one compact array (1 byte a
        sample at d <= 256); each block then draws its own signs.  So the
        stream is consumed as by one sample_block call with any bit
        generator, and only one dense block is built at a time.  n < 0 or
        size < 1 raises ValueError at the first block, before the stream is
        read.
        """
        _check_block_sizes(n, size)
        coords = np.empty(n, dtype=np.min_scalar_type(self.d - 1))
        for a in range(0, n, size):
            coords[a : a + size] = self._coords(rng.random(min(size, n - a)))
        for a in range(0, n, size):
            block = coords[a : a + size]
            yield self._scatter(block, _signs(rng, block.size))

    def _scatter(self, coords, signs) -> np.ndarray:
        """The dense (m, d) rows of a support draw."""
        m = coords.size
        out = np.zeros((m, self.d))
        out[np.arange(m), coords] = np.where(coords == 0, 1.0, self.sigma) * signs
        return out

    def _coords(self, u: np.ndarray) -> np.ndarray:
        """The coordinate indices (intp, 0-based) that uniforms u pick; u is overwritten.

        Index 0 has mass p, and the tail spreads evenly over 1..d-1.  The
        steps of (u - p) / (1 - p) * (d - 1) run in place, with the bits of
        the written-out expression.
        """
        head = u < self.p
        u -= self.p
        u /= 1.0 - self.p
        u *= self.d - 1
        coords = u.astype(np.intp)
        np.minimum(coords, self.d - 2, out=coords)
        coords += 1
        np.copyto(coords, 0, where=head)
        return coords

    def draw_support(self, rng: np.random.Generator, m: int):
        """Compact draw of m samples: coordinate indices (intp, 0-based) and signs.

        The stream holds the m coordinate uniforms, then the m sign uniforms.
        `sample_block` is built from it, and `sample_blocks` reads the stream
        in the same order, so all three consume it alike.
        """
        coords = self._coords(rng.random(m))
        return coords, _signs(rng, m)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_block(rng, 1)[0]


@dataclass(frozen=True)
class GaussianSpectrum:
    """N(0, Q diag(eigenvalues) Q') with samples rejected above a norm bound.

    Rejection at |X|^2 > clip_radius makes the bound B = clip_radius exact.
    The default radius (10 * trace) makes rejections rare; the observed
    rejection rate is reported by sample_block(..., return_rejections=True)
    rather than silently ignored.
    """

    eigenvalues: np.ndarray
    rotation: np.ndarray | None = None
    clip_radius: float = 0.0  # 0 means "use the 10 * trace default"

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", lam)
        if lam.ndim != 1 or lam.size < 2:
            raise ValueError("need at least two eigenvalues")
        if not np.isfinite(lam).all():
            raise ValueError(f"eigenvalues must be finite, got {lam.tolist()}")
        if np.any(lam <= 0) or np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be positive and descending")
        if lam[0] <= lam[1]:
            raise ValueError("need a strict gap lambda1 > lambda2")
        if self.rotation is not None:
            Q = np.asarray(self.rotation, dtype=float)
            object.__setattr__(self, "rotation", Q)
            if Q.shape != (lam.size, lam.size):
                raise ValueError("rotation has wrong shape")
            if np.abs(Q.T @ Q - np.eye(lam.size)).max() > 1e-10:
                raise ValueError("rotation is not orthogonal")
        if self.clip_radius == 0.0:
            object.__setattr__(self, "clip_radius", 10.0 * float(lam.sum()))
        if not 0 < self.clip_radius < math.inf:
            raise ValueError(f"clip_radius must be positive and finite, got {self.clip_radius}")

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    @property
    def B(self) -> float:
        return float(self.clip_radius)

    def covariance(self) -> np.ndarray:
        """Q diag(eigenvalues) Q', or diag(eigenvalues) with no rotation.

        This is the covariance before rejection at clip_radius, so the
        samples' own covariance matches it up to the rejection rate that
        sample_block(..., return_rejections=True) reports.
        """
        if self.rotation is None:
            return np.diag(self.eigenvalues)
        return (self.rotation * self.eigenvalues) @ self.rotation.T

    def ground_truth(self) -> GroundTruth:
        if self.rotation is None:
            v = np.zeros(self.d)
            v[0] = 1.0
        else:
            v = self.rotation[:, 0].copy()
        return GroundTruth(
            v_star=v,
            lambda1=float(self.eigenvalues[0]),
            lambda2=float(self.eigenvalues[1]),
        )

    def sample_block(self, rng, m, return_rejections: bool = False):
        """(m, d) block of i.i.d. draws; with return_rejections, also the rows redrawn.

        Raises RejectionError once more than MAX_REDRAWS * m rows are redrawn.
        """
        scale = np.sqrt(self.eigenvalues)
        block = rng.standard_normal((m, self.d))
        block *= scale
        rejected = 0
        while True:
            bad = _einsum("ij,ij->i", block, block) > self.clip_radius
            nbad = np.count_nonzero(bad)
            if nbad == 0:
                break
            rejected += nbad
            if rejected > MAX_REDRAWS * m:
                raise RejectionError(
                    f"clip_radius {self.clip_radius!r} accepts almost no samples: "
                    f"{rejected} rows redrawn for {m}"
                )
            block[bad] = rng.standard_normal((nbad, self.d)) * scale
        if self.rotation is not None:
            block = block @ self.rotation.T
        if return_rejections:
            return block, rejected
        return block

    def sample_blocks(self, rng: np.random.Generator, n: int, size: int):
        """Blocks of at most `size` rows that concatenate to sample_block(rng, n).

        Each block is drawn by its own sample_block call.  numpy's normal
        stream is prefix-consistent, so without a rejection these are the rows
        of the one n-row draw, and the generator ends where that draw leaves
        it.  That draw redraws a rejected row only after all n rows, so at the
        first block that rejects a row the generator is rewound to where this
        reader started, and one sample_block(rng, n) serves the rest.  No draw
        is 1 row high unless n is 1 (a 1-row tail is drawn with the block
        before it): a 1-row rotation is a matrix-vector product, whose bits
        differ from the same row's in a taller product.  n < 0 or size < 1
        raises ValueError at the first block, before the stream is read.
        """
        _check_block_sizes(n, size)
        start = rng.bit_generator.state
        height = max(size, 2)
        a = 0
        while a < n:
            m = n - a if n - a <= height + 1 else height
            block, rejected = self.sample_block(rng, m, return_rejections=True)
            if rejected:
                rng.bit_generator.state = start
                block = self.sample_block(rng, n)[a:]
                m = n - a
            a += m
            # handed over from a list, so that this frame keeps no reference
            # to a block the caller has let go of
            views = [block[b : b + size] for b in range(0, m, size)][::-1]
            del block
            while views:
                yield views.pop()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_block(rng, 1)[0]


def _signs(rng: np.random.Generator, m: int) -> np.ndarray:
    """m signs of +-1.0, one uniform each."""
    return np.where(rng.random(m) < 0.5, -1.0, 1.0)


def _check_block_sizes(n: int, size: int) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0 samples, got {n}")
    if size < 1:
        raise ValueError(f"need a block size >= 1, got {size}")


def random_unit_vectors(d: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """(m, d) block of vectors uniform on the unit sphere."""
    if d < 1:
        raise ValueError("d must be >= 1")
    z = rng.standard_normal((m, d))
    norms = np.linalg.norm(z, axis=1)
    while True:
        bad = norms < 1e-200
        if not bad.any():
            break
        z[bad] = rng.standard_normal((int(bad.sum()), d))
        norms[bad] = np.linalg.norm(z[bad], axis=1)
    z /= norms[:, None]
    return z


def random_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    return random_unit_vectors(d, 1, rng)[0]
