"""Monte Carlo and numeric verification of the per-step claims.

Each check compares a simulated quantity against its closed form (two-sided),
or against an upper bound (one-sided), or asserts a pathwise identity with
explicit floating-point slack.  A failed gradient, gamma or pathwise check
means a bug.  The Monte Carlo checks also fail with correct code, at a
level fixed in advance: each two-sided check at alpha = 2(1 - Phi(3)),
about 0.27%, for normal z-scores.  z_expectation compares one z-score
with 3 (2 of seeds 0-999 at the `incpca verify` sizes).  xi_expectation
takes the largest of d z-scores and compares it with the Sidak cut
z* = Phi^-1(1 - (1 - (1 - alpha)^(1/d)) / 2), about 3.64 at d=10, which
would hold its rate at alpha for normal z-scores.  On the coordinate data
of `incpca verify` their tails are a little heavier than normal: there
the xi row failed correct code on 7 of seeds 0-999 (0.7%), against 16 of
seeds 0-399 when the cut was 3.  The one-sided mgf_beta and always_good
fail at most 0.13% each, and next to none at the `incpca verify`
settings, whose bounds lie far above the truth.  So `incpca verify`,
which runs these four, would fail correct code on about 0.54% of seeds
(1 - (1 - alpha)^2) for normal z-scores.  Measured over seeds 0-999 at
its defaults, its mgf, xi and z rows failed correct code on 9 seeds
(0.9%): xi on 7, z on 2, mgf_beta on none.  The pathwise check replays
`harness.trajectories`, the engine (and so the update kernels) that the
experiments run.  It forms each row's |V|^2 and xi once, by the arithmetic
of `estimators.xi`, and Z from them by the expression that
`estimators.z_increment` runs, so both keep those functions' bits.

The Monte Carlo checks hold one block of at most _BLOCK samples at a time,
not the sample matrix, and one block of their statistic: the xi and z
checks see the draws of one `sample_block` call, and on coordinate data
they also hold the coordinate indices of the whole draw (1 byte a sample
at d <= 256; the signs are drawn block by block), and on Gaussian data
the whole draw once a block rejects a row (`GaussianSpectrum.sample_blocks`
replays it from the start).  All three merge their block moments in
`_sample_moments`, so above _BLOCK samples their values differ from a
one-shot mean and standard deviation (n - 1 form) in the last bits only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators, harness, linalg, theory
from .distributions import random_unit_vectors
from .estimators import KRASULINA

__all__ = [
    "CheckReport",
    "check_xi_expectation",
    "check_z_expectation",
    "check_pathwise",
    "check_mgf",
    "check_gamma_inequality",
    "check_always_good",
    "check_gradient",
    "write_reports",
]

_BLOCK = 100_000  # sample block size for the Monte Carlo loops


@dataclass(frozen=True)
class CheckReport:
    name: str
    n_samples: int
    empirical: float
    reference: float
    std_error: float
    passed: bool
    slack_used: float
    vacuous: bool = False
    detail: str = ""


def write_reports(fh, reports) -> None:
    """One CSV row per report; a detail holding commas is quoted."""
    header = "name,n_samples,empirical,reference,std_error,pass,slack,vacuous,detail"
    rows = (
        [rep.name, rep.n_samples, float(rep.empirical), float(rep.reference),
         float(rep.std_error), str(rep.passed).lower(), float(rep.slack_used),
         str(rep.vacuous).lower(), rep.detail]
        for rep in reports
    )
    harness.write_csv(fh, header.split(","), rows)


def _sample_moments(blocks, n_samples: int, stat):
    """Mean and standard error of stat(X), per column, over the n_samples rows of `blocks`.

    `blocks` yields the samples in blocks of rows.  stat is evaluated
    harness.ROWS rows at a time into one array per block; each of its rows
    depends on its sample's row alone, so the bits are those of one call.
    Each block's mean and sum of squared deviations is merged by the
    pairwise update of Chan, Golub & LeVeque (1979).  The first block is
    taken as it is, so a single block gives the bits of
    stat(X).mean(axis=0) and stat(X).std(axis=0, ddof=1) / sqrt(n).
    """
    # a standard error needs two samples; with fewer a check tests nothing
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    seen = 0
    for X in blocks:
        m = X.shape[0]
        first = stat(X[: harness.ROWS])
        ys = np.empty((m, *first.shape[1:]))
        ys[: harness.ROWS] = first
        for a in range(harness.ROWS, m, harness.ROWS):
            ys[a : a + harness.ROWS] = stat(X[a : a + harness.ROWS])
        del X, first  # the next block is drawn without this one
        block_mean = ys.mean(axis=0)
        ys -= block_mean
        ys *= ys
        block_m2 = ys.sum(axis=0)
        del ys
        if seen == 0:
            mean, m2 = block_mean, block_m2
        else:
            delta = block_mean - mean
            total = seen + m
            mean = mean + delta * (m / total)
            m2 = m2 + block_m2 + delta * delta * (seen * m / total)
        seen += m
    return mean, np.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)


def check_xi_expectation(dist, v, n_samples: int, rng) -> CheckReport:
    """E[xi | v] against A v - G(v) v, per coordinate.

    empirical is the worst per-coordinate |z|; the check passes when it
    stays within the Sidak cut z* for d z-scores at the two-sided 3-sigma
    level alpha, so that correct code whose z-scores are normal fails with
    probability alpha (about 0.27%) for any d; the module docstring gives
    the measured rate.  slack holds z*, detail the worst coordinate.
    """
    from statistics import NormalDist  # at first use: it imports decimal and fractions

    v = np.asarray(v, dtype=float)
    A = dist.covariance()
    ref = A @ v - linalg.rayleigh_quotient(A, v) * v
    blocks = dist.sample_blocks(rng, n_samples, _BLOCK)
    mean, se = _sample_moments(blocks, n_samples, lambda X: estimators.xi(v, X))
    z = np.abs(mean - ref) / np.where(se > 0, se, 1.0)
    # coordinates with zero sample variance must match exactly
    exact_bad = np.any((se == 0) & (np.abs(mean - ref) > 1e-12))
    worst = int(z.argmax())
    max_z = float(z[worst])
    normal = NormalDist()
    alpha = 2.0 * (1.0 - normal.cdf(3.0))
    z_star = normal.inv_cdf(1.0 - (1.0 - (1.0 - alpha) ** (1.0 / z.size)) / 2.0)
    return CheckReport(
        name="xi_expectation",
        n_samples=n_samples,
        empirical=max_z,
        reference=0.0,
        std_error=1.0,
        passed=(max_z <= z_star) and not exact_bad,
        slack_used=z_star,
        detail=f"worst coordinate {worst}: z={max_z!r}",
    )


def check_z_expectation(dist, v, gamma: float, n_samples: int, rng) -> CheckReport:
    """E[Z | v] against 2 gamma (vhat.v*)^2 (lambda1 - G(v)).

    Also audits the closed form against its lower bound
    2 gamma (lambda1-lambda2) Psi (1-Psi).
    """
    v = np.asarray(v, dtype=float)
    gt = dist.ground_truth()
    A = dist.covariance()
    G = linalg.rayleigh_quotient(A, v)  # raises for the zero vector, before any draw
    vhat_dot = float(v @ gt.v_star) / math.sqrt(float(v @ v))
    ref = 2.0 * gamma * vhat_dot**2 * (gt.lambda1 - G)
    psi = linalg.potential(v, gt.v_star)
    lower = 2.0 * gamma * gt.gap * psi * (1.0 - psi)

    blocks = dist.sample_blocks(rng, n_samples, _BLOCK)
    mean, se = _sample_moments(
        blocks, n_samples, lambda X: estimators.z_increment(v, X, gamma, gt.v_star)
    )
    mean, se = float(mean), float(se)
    two_sided = abs(mean - ref) <= 3.0 * max(se, 1e-15)
    lower_ok = ref >= lower - 1e-12 * max(1.0, abs(ref))
    return CheckReport(
        name="z_expectation",
        n_samples=n_samples,
        empirical=mean,
        reference=ref,
        std_error=se,
        passed=two_sided and lower_ok,
        slack_used=3.0 * se,
        detail="" if lower_ok else "closed form fell below its gap lower bound",
    )


def _span_residual(V, x, V_new, nsq, norm_new):
    """Norm of V_new's residual outside span(V, x), per row, and its tolerance.

    Reads the batch's |V|^2 (nsq) and |V_new| (norm_new); every other row
    norm is the square root of one `linalg._einsum` row sum.  b1.x is
    formed from b1 = V/|V|, not as V.x/|V|: x - (b1.x) b1 cancels up to
    |x|/|x_perp| digits, so a last-bit change in b1.x would move the
    residual and the tolerance by about eps |x|/|x_perp|.
    The basis and the residual are built in place: at a few trials a
    batch's (rows, d) arrays are a large share of the sample chunk that is
    held beside them.
    """
    b1 = V / np.sqrt(nsq)[:, None]
    b2 = linalg._einsum("ij,ij->i", b1, x)[:, None] * b1
    np.subtract(x, b2, out=b2)  # x_perp, normalized in place below
    xp_norm = np.sqrt(linalg._einsum("ij,ij->i", b2, b2))
    safe = np.where(xp_norm > 1e-300, xp_norm, 1.0)
    b2 /= safe[:, None]
    b1 *= linalg._einsum("ij,ij->i", b1, V_new)[:, None]
    resid = np.subtract(V_new, b1, out=b1)
    b2 *= linalg._einsum("ij,ij->i", b2, V_new)[:, None]
    resid -= b2
    del b2
    # when x is nearly parallel to V the b2 basis vector loses
    # about eps * |x| / |x_perp| digits, so the tolerance has to
    # carry that conditioning factor
    cond = np.sqrt(linalg._einsum("ij,ij->i", x, x)) / safe
    span_tol = (1e-10 + 100.0 * np.finfo(float).eps * cond) * norm_new
    return np.sqrt(linalg._einsum("ij,ij->i", resid, resid)), span_tol


def _pathwise_violations(rule, v_star, B, trials, batch, last):
    """Count invariant violations over a batch of engine steps.

    Each (step, trial) is one row.  `last` is the (V, potential) pair of the
    step before the batch, or (None, None): a step whose V_prev is that
    very array reuses its potential, and only a new array (the initial
    states, a Krasulina renormalization) is scored afresh.  Returns the
    violation count, the detail of the first offending row (or "" when
    there is none) and the batch's own last (V, potential) pair.  `batch`
    is emptied once its arrays are stacked, so that they are not held twice.
    """
    gamma = np.repeat([b[1] for b in batch], trials)
    beta = np.repeat([theory.beta_step(rule, b[1], B) for b in batch], trials)
    x, V, V_new = (np.concatenate([b[i] for b in batch]) for i in (2, 3, 4))
    psi_new = linalg.potential(V_new, v_star)
    psi = np.empty_like(psi_new)
    for i, (_, _, _, V_prev, V_next) in enumerate(batch):
        rows = slice(i * trials, (i + 1) * trials)
        psi[rows] = last[1] if V_prev is last[0] else linalg.potential(V_prev, v_star)
        last = V_next, psi_new[rows]
    ns = [b[0] for b in batch]
    batch.clear()
    violations = 0
    first = []  # (row, kind, quantities) of each violated kind's first row

    def flag(kind, mask, quantities):
        nonlocal violations
        bad = np.flatnonzero(mask)
        violations += bad.size
        if bad.size:
            first.append((bad[0], kind, quantities))

    # |V|^2, V.x and xi are formed once per row, with the bits of
    # estimators.xi, and Z from them by the expression that
    # estimators.z_increment runs
    nsq = linalg._einsum("ij,ij->i", V, V)
    dot = linalg._einsum("ij,ij->i", V, x)
    xi = estimators._increment(V, x, nsq, dot)
    xi_nsq = linalg._einsum("ij,ij->i", xi, xi)
    xi_dot_v = linalg._einsum("ij,ij->i", xi, V)
    Z = estimators._z(V, xi, nsq, gamma, v_star)
    del xi

    # xi.V cancels two terms of magnitude (V.x)^2, so that is the
    # right scale for the rounding residual when xi itself is tiny
    ortho_scale = np.maximum(np.sqrt(xi_nsq * nsq), dot * dot)
    flag(
        "xi not orthogonal to V",
        np.abs(xi_dot_v) > 1e-10 * ortho_scale,
        {"xi.V": xi_dot_v},
    )
    flag(
        "xi norm bound",
        xi_nsq > (B**2 * nsq / 4.0) * (1.0 + 1e-12),
        {"xi_nsq": xi_nsq},
    )
    flag("Z range", np.abs(Z) > 4.0 * gamma * B * (1.0 + 1e-12), {"Z": Z})

    nsq_new = linalg._einsum("ij,ij->i", V_new, V_new)
    norm_new = np.sqrt(nsq_new)
    flag(
        "potential inequality",
        psi_new > psi + beta - Z + 1e-12 * np.maximum(1.0, psi),
        {"psi_new": psi_new, "psi": psi, "Z": Z},
    )
    if rule == KRASULINA:
        flag(
            "norm monotonicity",
            nsq_new < nsq * (1.0 - 1e-12),
            {"nsq_new": nsq_new, "nsq": nsq},
        )
    else:
        flag("unit norm", np.abs(norm_new - 1.0) > 1e-12, {"norm": norm_new})

    zero_dot = dot == 0.0
    if zero_dot.any():
        moved = (
            np.linalg.norm(V_new - V, axis=1) > 1e-12 * np.sqrt(nsq)
        ) & zero_dot
        flag("orthogonal-input no-op", moved, {"dot": dot})
    resid_norm, span_tol = _span_residual(V, x, V_new, nsq, norm_new)
    flag("span containment", resid_norm > span_tol, {"resid": resid_norm})

    if not first:
        return violations, "", last
    # the earliest step wins; within a step, the first kind checked
    r, kind, quantities = min(first, key=lambda f: f[0] // trials)
    return violations, (
        f"{kind} at step n={ns[r // trials]} trial={r % trials}: "
        f"V={V[r].tolist()} "
        f"{ {k: float(np.asarray(q)[r]) for k, q in quantities.items()} }"
    ), last


def _owned_samples(run):
    """The steps of `run`, each x copied out of its sample chunk.

    A batch of `harness.step_batches` holds up to ROWS // trials steps.
    Holding views, it would read samples that `harness.trajectories` has
    overwritten with the next block it drew.
    """
    for n, gamma, x, V_prev, V in run:
        x = x.copy()  # drops the view before the next step is asked for
        yield n, gamma, x, V_prev, V


def check_pathwise(
    dist,
    rule: str,
    steps: int,
    trials: int,
    master_seed: int,
    c: float = 1.0,
) -> CheckReport:
    """Run full trajectories asserting every per-step identity and bound.

    The trajectories come from `harness.trajectories`.  Checked at every
    step of every trial: the potential inequality
    Psi_n <= Psi_{n-1} + beta_n - Z_n, xi orthogonal to V, the xi norm
    bound, |Z| <= 4 gamma B, Krasulina norm monotonicity / Oja unit norm,
    the orthogonal-input no-op, and span containment.  empirical is the
    violation count; the first offending step is serialized in detail.

    The steps are scored in batches of about harness.ROWS (step, trial)
    rows.  A batch computes each row's |V|^2, xi, Z and |V_new| once, and
    every invariant that needs one of them reads that value: xi has the
    bits of `estimators.xi` and Z those of `estimators.z_increment`, and
    the span test reuses |V|^2 and |V_new|.  beta_n comes from
    `theory.beta_step` and the potentials from `linalg.potential`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if steps < 1:
        raise ValueError("need at least one step")
    gt = dist.ground_truth()
    v_star, B = gt.v_star, dist.B
    # a random unit start cannot fail, so no row of `failed` is set
    V, _, rngs = harness.init_states(dist, rule, "random_unit", None, master_seed, range(trials))

    violations, detail, last = 0, "", (None, None)
    run = _owned_samples(harness.trajectories(dist, rule, c, 0, steps, V, rngs))
    for batch in harness.step_batches(run, trials):
        bad, found, last = _pathwise_violations(rule, v_star, B, trials, batch, last)
        violations += bad
        detail = detail or found

    total = steps * trials
    return CheckReport(
        name=f"pathwise_{rule}",
        n_samples=total,
        empirical=float(violations),
        reference=0.0,
        std_error=0.0,
        passed=violations == 0,
        slack_used=1e-12,
        detail=detail,
    )


def check_mgf(d: int, t: float, n_samples: int, rng) -> CheckReport:
    """Empirical E[e^{tY}] for Y = 1 - V_1^2 on the sphere, vs the bound."""
    bound = theory.mgf_bound(d, t)
    blocks = (
        random_unit_vectors(d, min(_BLOCK, n_samples - a), rng)
        for a in range(0, n_samples, _BLOCK)
    )
    mean, se = _sample_moments(blocks, n_samples, lambda V: np.exp(t * (1.0 - V[:, 0] ** 2)))
    mean, se = float(mean), float(se)
    vacuous = bound > math.exp(t)  # weaker than the trivial Y <= 1 bound
    return CheckReport(
        name="mgf_beta",
        n_samples=n_samples,
        empirical=mean,
        reference=bound,
        std_error=se,
        passed=vacuous or (mean <= bound + 3.0 * se),
        slack_used=3.0 * se,
        vacuous=vacuous,
    )


def check_gamma_inequality(z_grid) -> CheckReport:
    """Gamma(z + 1/2) <= sqrt(z) Gamma(z), checked in log space.

    Both log-gammas are the standard library's `math.lgamma`, one grid
    point at a time; at z = 1e6 the log ratio is within 1e-9 of its -1/(8z).
    """
    z = np.asarray(z_grid, dtype=float)
    if np.any(z <= 0):
        raise ValueError("z grid must be positive")
    worst = max(
        math.lgamma(v + 0.5) - (0.5 * math.log(v) + math.lgamma(v)) for v in z.ravel().tolist()
    )
    return CheckReport(
        name="gamma_half_shift",
        n_samples=z.size,
        empirical=worst,
        reference=0.0,
        std_error=0.0,
        passed=worst <= 1e-10,
        slack_used=1e-10,
    )


def check_always_good(
    dist,
    c: float,
    eps: float,
    horizon: int,
    trials: int,
    master_seed: int,
) -> CheckReport:
    """Frequency of Krasulina's sup_n Psi_n >= 1 - eps/d against sqrt(2 e eps).

    The sup is truncated at the horizon, which only weakens the empirical
    event, so the one-sided comparison stays sound.  The report is vacuous,
    and passes without a run, when the bound is >= 1 or when the horizon
    does not pass the start time n_o, so that no step would run.

    At 50 trials and a frequency near 0.1, 3 standard errors come to about
    0.13, so a bound that far below the true frequency still passes.
    """
    gt = dist.ground_truth()
    d = gt.v_star.size
    bound, n_o_min = theory.always_good_bound(eps)
    n_o = n_o_min(dist.B, c, d)
    if bound >= 1.0 or horizon <= n_o:
        return CheckReport(
            name="always_good",
            n_samples=trials,
            empirical=0.0,
            reference=bound,
            std_error=0.0,
            passed=True,
            slack_used=0.0,
            vacuous=True,
            detail="" if bound >= 1.0 else f"no step runs: horizon {horizon} <= n_o {n_o}",
        )
    res = harness.simulate(
        dist,
        KRASULINA,
        c,
        n_o=n_o,
        horizon=horizon,
        trials=trials,
        master_seed=master_seed,
        init_mode="random_unit",
        track_max=True,
    )
    frac = float((res.max_psi >= 1.0 - eps / d).mean())
    se = math.sqrt(max(frac * (1.0 - frac), 1.0 / trials) / trials)
    return CheckReport(
        name="always_good",
        n_samples=trials,
        empirical=frac,
        reference=bound,
        std_error=se,
        passed=frac <= bound + 3.0 * se,
        slack_used=3.0 * se,
    )


def check_gradient(A, n_points: int, h: float, rng) -> CheckReport:
    """Analytic Rayleigh gradient vs central differences.

    Relative error uses an absolute floor of 1e-8, which covers the
    vanishing gradient at eigenvectors.
    """
    A = linalg.require_symmetric(A)
    d = A.shape[0]
    worst = 0.0
    for _ in range(n_points):
        v = rng.standard_normal(d)
        while float(v @ v) < 1e-6:
            v = rng.standard_normal(d)
        grad = linalg.rayleigh_gradient(A, v)
        fd = np.empty(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            fd[i] = (
                linalg.rayleigh_quotient(A, v + e) - linalg.rayleigh_quotient(A, v - e)
            ) / (2.0 * h)
        err = float(np.linalg.norm(grad - fd)) / (float(np.linalg.norm(fd)) + 1e-8)
        worst = max(worst, err)
    return CheckReport(
        name="rayleigh_gradient_fd",
        n_samples=n_points,
        empirical=worst,
        reference=0.0,
        std_error=0.0,
        passed=worst <= 1e-6,
        slack_used=1e-6,
    )
