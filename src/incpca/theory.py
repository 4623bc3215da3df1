"""Closed-form bounds, schedules, and rate expressions.

These are plain evaluators: the epoch ladder, the final Krasulina/Oja
convergence bound with its explicit constants, the per-step slack, the
recurrence solver the final bound rests on, the Beta moment-generating
bound, and the never-trapped deviation bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .estimators import KRASULINA, OJA

__all__ = [
    "EpochSchedule",
    "BoundParams",
    "epoch_schedule",
    "krasulina_bound",
    "solve_recurrence",
    "mgf_bound",
    "always_good_bound",
    "beta_step",
    "A_EXPONENT",
]

# exponent on (4ed/delta^2) in the explicit final bound; lies in (1, 4)
A_EXPONENT = 5.0 / (2.0 * math.log(2.0))

# float slack for auditing inequalities that are exact in real arithmetic
_SLACK = 1e-12


# B_2k / (2k)! for k = 1..7: the Euler-Maclaurin corrections of _zeta
_EM_COEFS = tuple(
    b / math.factorial(2 * k)
    for k, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), start=1)
)


@functools.cache
def _zeta(s: float) -> float:
    """Riemann zeta(s) for s in (1, 2), the a < 1 recurrence tail's zeta(2 - a).

    Euler-Maclaurin at N = 10: the terms n^-s for n < N, the integral
    N^(1-s)/(s-1) and half-term N^-s/2 of the rest, and the corrections
    B_2k/(2k)! s(s+1)...(s+2k-2) N^(-s-2k+1) through B_14.  The first
    omitted correction is below 1e-16 relative on (1, 2), so the sum
    (math.fsum) is good to a few ulps.  Computed once per s.
    """
    if not 1.0 < s < 2.0:
        raise ValueError(f"zeta is computed for s in (1, 2), got {s!r}")
    N = 10
    terms = [n**-s for n in range(1, N)]
    terms += [N ** (1.0 - s) / (s - 1.0), 0.5 * N**-s]
    rise, power = s, N ** (-s - 1.0)  # s(s+1)...(s+2k-2) and N^(-s-2k+1) at k = 1
    for k, coef in enumerate(_EM_COEFS, start=1):
        terms.append(coef * rise * power)
        rise *= (s + 2 * k - 1) * (s + 2 * k)
        power /= N * N
    return math.fsum(terms)


@dataclass(frozen=True)
class EpochSchedule:
    """The (n_j, eps_j) ladder along which 1 - Psi doubles up to 1/2."""

    pairs: tuple  # ((n_0, eps_0), ..., (n_J, eps_J))
    delta: float
    c_o: float
    n_o_min: int
    eps0: float

    @property
    def J(self) -> int:
        return len(self.pairs) - 1

    def audit(self) -> list[tuple[str, bool]]:
        """Re-check every ladder condition; returns (name, ok) pairs."""
        eps = [e for _, e in self.pairs]
        ns = [n for n, _ in self.pairs]
        ratio = math.exp(5.0 / self.c_o)
        checks = [
            ("eps_0 = delta^2/(8ed)", abs(eps[0] - self.eps0) <= _SLACK * self.eps0),
            ("eps_J = 1/2", eps[-1] == 0.5),
            ("eps_{J-1} <= 1/4", self.J == 0 or eps[-2] <= 0.25 * (1 + _SLACK)),
            ("n_0 >= n_o_min", ns[0] >= self.n_o_min),
        ]
        grow_ok = all(
            1.5 * eps[j] <= eps[j + 1] * (1 + _SLACK)
            and eps[j + 1] <= 2.0 * eps[j] * (1 + _SLACK)
            for j in range(self.J)
        )
        checks.append(("3/2 eps_j <= eps_{j+1} <= 2 eps_j", grow_ok))
        time_ok = all(
            ns[j + 1] + 1 >= ratio * (ns[j] + 1) * (1 - _SLACK) for j in range(self.J)
        )
        checks.append(("(n_{j+1}+1) >= e^{5/c_o} (n_j+1)", time_ok))
        return checks


@dataclass(frozen=True)
class BoundParams:
    """Parameters of the final convergence bound.

    The rate constant is tied to the gap: c = c_o / (2 (lambda1 - lambda2)).
    """

    c_o: float
    B: float
    d: int
    delta: float
    n_o: int
    lambda1: float
    lambda2: float

    def __post_init__(self):
        # written so that nan fails every check
        if not self.lambda1 > self.lambda2:
            raise ValueError("need lambda1 > lambda2")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if not (self.c_o > 0 and self.B > 0 and self.d >= 2 and self.n_o >= 0):
            raise ValueError("bad bound parameters")

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda2

    @property
    def c(self) -> float:
        return self.c_o / (2.0 * self.gap)

    @property
    def a(self) -> float:
        return self.c_o / 2.0

    @property
    def b(self) -> float:
        return self.c**2 * self.B**2 / 4.0

    @property
    def dim_factor(self) -> float:
        """(4ed/delta^2) ** (5 / (2 ln 2))."""
        return (4.0 * math.e * self.d / self.delta**2) ** A_EXPONENT

    @property
    def n_J(self) -> float:
        """End of the doubling ladder under the pure-doubling schedule."""
        ratio = (4.0 * math.e * self.d / self.delta**2) ** (
            5.0 / (self.c_o * math.log(2.0))
        )
        return (self.n_o + 1) * ratio - 1.0


def _eps_ladder(eps0: float) -> list[float]:
    """Ladder from eps0 to 1/2, doubling wherever possible.

    The constraint eps_{J-1} <= 1/4 pins the final rung at exactly x2, so
    the non-power-of-two remainder is spread (as an equal factor in
    [3/2, 2]) over the smallest suffix of earlier rungs that absorbs it.
    """
    if eps0 > 0.25:
        raise ValueError("eps0 > 1/4: delta too large for this dimension")
    if eps0 == 0.25:
        return [0.25, 0.5]
    r_total = 0.5 / eps0
    J = math.ceil(math.log2(r_total))
    rem = r_total / 2.0  # product of the first J-1 factors
    # smallest k with (rem / 2^{J-1-k}) ** (1/k) >= 3/2
    for k in range(1, J):
        g = (rem / 2.0 ** (J - 1 - k)) ** (1.0 / k)
        if g >= 1.5:
            break
    else:
        k, g = J - 1, rem ** (1.0 / max(J - 1, 1))
    eps = [eps0]
    for j in range(J - 1):
        factor = 2.0 if j < J - 1 - k else g
        eps.append(eps[-1] * factor)
    # kill accumulated roundoff at the two pinned rungs
    eps[-1] = 0.25
    eps.append(0.5)
    return eps


def epoch_schedule(delta: float, d: int, c_o: float, c: float, B: float) -> EpochSchedule:
    """Construct the smallest admissible (n_j, eps_j) ladder.

    eps_0 = delta^2/(8ed); each n_j is the smallest integer satisfying
    (n_j+1) >= e^{5/c_o} (n_{j-1}+1), starting from
    n_0 = ceil((20 c^2 B^2 / eps_0^2) ln(4/delta)).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if d < 3:
        raise ValueError("d must be >= 3")
    if not (c_o > 0 and c > 0 and B > 0):  # nan fails too
        raise ValueError("c_o, c, B must be positive")
    eps0 = delta**2 / (8.0 * math.e * d)
    if eps0 >= 0.5:
        raise ValueError("eps0 >= 1/2: delta too large for this dimension")
    eps = _eps_ladder(eps0)
    n_o_min = math.ceil(20.0 * c**2 * B**2 / eps0**2 * math.log(4.0 / delta))
    ratio = math.exp(5.0 / c_o)
    ns = [n_o_min]
    for _ in range(len(eps) - 1):
        ns.append(math.ceil(ratio * (ns[-1] + 1)) - 1)
    return EpochSchedule(
        pairs=tuple(zip(ns, eps)), delta=delta, c_o=c_o, n_o_min=n_o_min, eps0=eps0
    )


def solve_recurrence(u_t0: float, t0: int, a: float, b: float, t) -> float:
    """Closed-form bound on u_t <= (1 - a/t) u_{t-1} + b/t^2.

    a > 1: ((t0+1)/(t+1))^a u_t0 + (b/(a-1)) (1 + 1/(t0+1))^{a+1} / (t+1).
    a < 1: ((t0+1)/(t+1))^a u_t0 + 4 b zeta(2-a) / (t+1)^a.
    a = 1 has no bound of this form and is rejected.

    A Python number t is taken as a Python float, so a scalar call pays
    for no 0-d array arithmetic; any other t goes through np.asarray.  The
    powers of t are np.power either way, so a scalar call has the bits of
    the same t in an array: numpy's array power need not round like the C
    library's pow behind `**` on floats.
    """
    if a <= 0 or b < 0 or u_t0 < 0:
        raise ValueError("need a > 0, b >= 0, u_t0 >= 0")
    if a == 1.0:
        raise ValueError("a = 1 is not covered")
    if isinstance(t, (int, float)):
        t = float(t)
        early = t <= t0
    else:
        t = np.asarray(t, dtype=float)
        early = np.any(t <= t0)
    if early:
        raise ValueError("need t > t0")
    head = np.power((t0 + 1.0) / (t + 1.0), a) * u_t0
    if a > 1.0:
        tail = b / (a - 1.0) * (1.0 + 1.0 / (t0 + 1.0)) ** (a + 1.0) / (t + 1.0)
    else:
        tail = 4.0 * b * _zeta(2.0 - a) / np.power(t + 1.0, a)
    out = head + tail
    return float(out) if out.ndim == 0 else out


def krasulina_bound(params: BoundParams, n) -> float:
    """Upper bound on the restricted mean potential at time n.

    For c_o > 2 this is the explicit O(1/n) form
        (1/2) ((n_o+1)/(n+1))^a (4ed/delta^2)^{5/(2 ln 2)}
        + (b/(a-1)) exp((a+1)/(n_J+1)) / (n+1)
    with a = c_o/2 and b = c^2 B^2/4.  For c_o < 2 the recurrence tail
    switches to its a < 1 branch and the rate degrades to O(n^{-c_o/2}).
    """
    a, b = params.a, params.b
    if a == 1.0:
        raise ValueError("c_o = 2 sits between the two recurrence branches")
    n = np.asarray(n, dtype=float)
    head = 0.5 * ((params.n_o + 1.0) / (n + 1.0)) ** a * params.dim_factor
    if a > 1.0:
        tail = b / (a - 1.0) * math.exp((a + 1.0) / (params.n_J + 1.0)) / (n + 1.0)
    else:
        tail = 4.0 * b * _zeta(2.0 - a) / (n + 1.0) ** a
    out = head + tail
    return float(out) if out.ndim == 0 else out


def mgf_bound(d: int, t: float) -> float:
    """Beta((d-1)/2, 1/2) MGF bound: e^t sqrt((d-1)/(2t))."""
    if d < 3:
        raise ValueError("d must be >= 3")
    if t <= 0:
        raise ValueError("t must be positive")
    return math.exp(t) * math.sqrt((d - 1) / (2.0 * t))


def always_good_bound(eps: float):
    """Never-trapped deviation bound.

    Returns (sqrt(2 e eps), n_o_min) where n_o_min(B, c, d) is the smallest
    admissible start time ceil(2 B^2 c^2 d^2 / eps^2).  The probability
    bound is vacuous (>= 1) once eps >= 1/(2e).
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    prob = math.sqrt(2.0 * math.e * eps)

    def n_o_min(B: float, c: float, d: int) -> int:
        return math.ceil(2.0 * B**2 * c**2 * d**2 / eps**2)

    return prob, n_o_min


def beta_step(rule: str, gamma: float, B: float) -> float:
    """Per-step additive slack in Psi_n <= Psi_{n-1} + beta_n - Z_n."""
    if gamma < 0 or B <= 0:
        raise ValueError("need gamma >= 0 and B > 0")
    if rule == KRASULINA:
        return gamma**2 * B**2 / 4.0
    if rule == OJA:
        return 5.0 * gamma**2 * B**2 + 2.0 * gamma**3 * B**3
    raise ValueError(f"unknown rule {rule!r}")
