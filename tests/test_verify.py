"""Tests for the runtime checking suite."""

import csv
import io
import math
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import hyp1f1

from incpca import estimators, harness, linalg, theory, verify
from incpca.distributions import CoordinateDistribution, GaussianSpectrum, random_unit_vectors
from incpca.harness import CHUNK
from incpca.linalg import potential
from incpca.estimators import krasulina_update, oja_update, xi, z_increment
from incpca.theory import beta_step
from incpca.verify import (
    CheckReport,
    check_always_good,
    check_gamma_inequality,
    check_gradient,
    check_mgf,
    check_pathwise,
    check_xi_expectation,
    check_z_expectation,
    write_reports,
)


DIST = CoordinateDistribution(p=0.2, sigma=0.5, d=5)
CLI_DIST = CoordinateDistribution(p=0.2, sigma=0.5, d=10)  # what `incpca verify` checks


def test_xi_expectation_zero_at_stationarity():
    rng = np.random.default_rng(0)
    v = np.eye(5)[0]
    rep = check_xi_expectation(DIST, v, 50_000, rng)
    assert rep.passed
    assert rep.n_samples == 50_000


def test_z_expectation_matches_closed_form():
    rng = np.random.default_rng(1)
    v = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
    rep = check_z_expectation(DIST, v, 0.01, 200_000, rng)
    assert rep.passed
    # closed form: 2 gamma (vhat . v*)^2 (lambda1 - G(v))
    assert rep.empirical == pytest.approx(rep.reference, abs=3 * rep.std_error)


# v* off every axis; the default clip radius makes rejections rare
ROTATED = GaussianSpectrum(
    [2.0, 1.0, 0.5, 0.25, 0.125],
    rotation=np.linalg.qr(np.random.default_rng(5).standard_normal((5, 5)))[0],
)


def test_xi_and_z_checks_run_on_gaussian_data():
    n = 250_000
    assert 2 * verify._BLOCK < n <= 3 * verify._BLOCK  # three blocks
    rng = np.random.default_rng(0)
    xi_rep = check_xi_expectation(ROTATED, rng.standard_normal(5), n, rng)
    z_rep = check_z_expectation(ROTATED, rng.standard_normal(5), 0.1, n, rng)
    for rep in (xi_rep, z_rep):
        assert rep.n_samples == n
        assert all(map(math.isfinite, (rep.empirical, rep.reference, rep.std_error)))


def test_xi_check_on_gaussian_data_passes_on_9_of_seeds_0_to_9():
    # with correct code the largest of d=5 |z| exceeds the cut z* (3.46) on
    # about 0.27% of seeds
    passed = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        passed += check_xi_expectation(ROTATED, rng.standard_normal(5), 250_000, rng).passed
    assert passed >= 9


def _sidak_cut(d):
    """z* with P(max of d independent |N(0, 1)| > z*) = 2 (1 - Phi(3))."""
    normal = NormalDist()
    alpha = 2.0 * (1.0 - normal.cdf(3.0))
    return normal.inv_cdf(1.0 - (1.0 - (1.0 - alpha) ** (1.0 / d)) / 2.0)


def test_the_xi_cut_holds_the_level_of_one_3_sigma_z_score():
    normal = NormalDist()
    alpha = 2.0 * (1.0 - normal.cdf(3.0))
    rng = np.random.default_rng(0)
    for dist in (CoordinateDistribution(p=0.5, sigma=0.5, d=2), DIST, CLI_DIST):
        rep = check_xi_expectation(dist, rng.standard_normal(dist.d), 1000, rng)
        z_star = rep.slack_used
        # each of d independent |z| stays within z* with probability (1 - alpha)^(1/d)
        assert (2.0 * normal.cdf(z_star) - 1.0) ** dist.d == pytest.approx(1.0 - alpha, rel=1e-12)
        assert rep.passed == (rep.empirical <= z_star)
        assert "," not in rep.detail and rep.detail.endswith(f"z={rep.empirical!r}")
    assert _sidak_cut(1) == pytest.approx(3.0, rel=1e-12)
    assert _sidak_cut(10) == pytest.approx(3.6422, abs=1e-4)


@pytest.mark.parametrize("check", ["xi", "z"])
def test_moment_checks_reject_a_zero_v_before_drawing(check):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="^Rayleigh quotient undefined for the zero vector$"):
        if check == "xi":
            check_xi_expectation(DIST, np.zeros(5), 1000, rng)
        else:
            check_z_expectation(DIST, np.zeros(5), 0.1, 1000, rng)
    assert rng.bit_generator.state == state


def _one_shot_reports(dist, n, seed):
    """The xi and z reports from one (n, d) sample block each, as a reference.

    Draws v, then the xi samples, then w and the z samples from one
    generator, as `incpca verify` does; returns the two reports and that
    generator.
    """
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dist.d)
    A = dist.covariance()
    ref = A @ v - linalg.rayleigh_quotient(A, v) * v
    xs = xi(v, dist.sample_block(rng, n))
    mean = xs.mean(axis=0)
    se = xs.std(axis=0, ddof=1) / math.sqrt(n)
    z = np.abs(mean - ref) / np.where(se > 0, se, 1.0)
    exact_bad = np.any((se == 0) & (np.abs(mean - ref) > 1e-12))
    max_z = float(z.max())
    z_star = _sidak_cut(dist.d)
    detail = f"worst coordinate {int(z.argmax())}: z={max_z!r}"
    xi_rep = CheckReport(
        "xi_expectation", n, max_z, 0.0, 1.0, max_z <= z_star and not exact_bad, z_star,
        detail=detail,
    )

    w = rng.standard_normal(dist.d)
    gt = dist.ground_truth()
    vhat_dot = float(w @ gt.v_star) / math.sqrt(float(w @ w))
    ref = 2.0 * 0.1 * vhat_dot**2 * (gt.lambda1 - linalg.rayleigh_quotient(A, w))
    psi = linalg.potential(w, gt.v_star)
    lower_ok = ref >= 2.0 * 0.1 * gt.gap * psi * (1.0 - psi) - 1e-12 * max(1.0, abs(ref))
    zs = z_increment(w, dist.sample_block(rng, n), 0.1, gt.v_star)
    mean = float(zs.mean())
    se = float(zs.std(ddof=1)) / math.sqrt(n)
    passed = abs(mean - ref) <= 3.0 * max(se, 1e-15) and lower_ok
    z_rep = CheckReport("z_expectation", n, mean, ref, se, passed, 3.0 * se)
    return xi_rep, z_rep, rng


def _blocked_reports(dist, n, seed):
    rng = np.random.default_rng(seed)
    xi_rep = check_xi_expectation(dist, rng.standard_normal(dist.d), n, rng)
    z_rep = check_z_expectation(dist, rng.standard_normal(dist.d), 0.1, n, rng)
    return xi_rep, z_rep, rng


@pytest.mark.parametrize("n", [50_000, 100_000])
@pytest.mark.parametrize("seed", [0, 1])
def test_moment_checks_within_one_block_give_the_one_shot_bits(n, seed):
    *ref, ref_rng = _one_shot_reports(CLI_DIST, n, seed)
    *got, rng = _blocked_reports(CLI_DIST, n, seed)
    assert got == ref
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_moment_checks_over_several_blocks_match_the_one_shot_moments(seed):
    # three full blocks and a partial one; the merged moments round
    # differently, by the tolerances stated in CHANGES.md
    ref_xi, ref_z, ref_rng = _one_shot_reports(CLI_DIST, 350_000, seed)
    got_xi, got_z, rng = _blocked_reports(CLI_DIST, 350_000, seed)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert got_xi.empirical == pytest.approx(ref_xi.empirical, rel=0, abs=1e-7)
    assert got_xi.passed == ref_xi.passed
    for field in ("empirical", "std_error", "slack_used"):
        assert getattr(got_z, field) == pytest.approx(getattr(ref_z, field), rel=1e-12)
    assert got_z.reference == ref_z.reference and got_z.passed == ref_z.passed


@pytest.mark.parametrize("check", ["xi", "z"])
def test_moment_checks_hold_one_block_at_a_time(check):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(10)
    tracemalloc.start()
    try:
        if check == "xi":
            check_xi_expectation(CLI_DIST, v, 1_000_000, rng)
        else:
            check_z_expectation(CLI_DIST, v, 0.1, 1_000_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (1e6, 10) sample matrix alone is 80 MB
    assert peak < 100e6


@pytest.mark.parametrize(
    "check, n, mb",
    [
        # one (1e5, 10) block of samples and one of xi, 8 MB each
        ("xi", 100_000, 20.5),
        # the same block and a (1e5,) column of Z
        ("z", 100_000, 12.5),
        # at 1e6 samples the coordinate support of the whole draw (16 MB) is held too
        ("xi", 1_000_000, 45.0),
        ("z", 1_000_000, 45.0),
        # a (1e5, 10) block of unit vectors and the squares that its norms sum
        ("mgf", 100_000, 19.5),
        ("mgf", 1_000_000, 19.5),
    ],
)
def test_moment_checks_hold_one_stat_block_beside_one_sample_block(check, n, mb):
    # the statistic is evaluated harness.ROWS rows at a time into one
    # array per block, squared in place, and dropped with its block
    rng = np.random.default_rng(0)
    v = rng.standard_normal(10)
    tracemalloc.start()
    try:
        if check == "xi":
            check_xi_expectation(CLI_DIST, v, n, rng)
        elif check == "z":
            check_z_expectation(CLI_DIST, v, 0.1, n, rng)
        else:
            check_mgf(10, 5.0, n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < mb * 1e6


def test_pathwise_zero_violations_both_rules():
    for rule in ("krasulina", "oja"):
        rep = check_pathwise(DIST, rule, steps=3000, trials=4, master_seed=2)
        assert rep.passed, rep.detail
        assert rep.empirical == 0.0


@pytest.mark.parametrize(
    "faults, expected, count",
    [
        # same step: the kind checked first wins over a lower trial number
        (
            {40: [("shrink", 3), ("leave span", 1)]},
            "norm monotonicity at step n=40 trial=3",
            2,
        ),
        # an earlier step wins over a kind checked earlier
        (
            {39: [("leave span", 2)], 40: [("shrink", 3), ("leave span", 1)]},
            "span containment at step n=39 trial=2",
            3,
        ),
    ],
)
def test_pathwise_reports_first_offending_step_of_the_kernel(
    monkeypatch, faults, expected, count
):
    true_update = estimators.krasulina_update
    step = 0

    def faulty(V, x, gamma):
        nonlocal step
        step += 1
        out = true_update(V, x, gamma)
        for kind, t in faults.get(step, []):
            if kind == "shrink":
                out[t] *= 0.5
            else:  # a small component orthogonal to V and x
                w = np.eye(V.shape[1])[-1]
                for b in (V[t], x[t]):
                    w = w - (w @ b) / (b @ b) * b
                out[t] += 1e-6 * np.linalg.norm(V[t]) * w / np.linalg.norm(w)
        return out

    monkeypatch.setattr(estimators, "krasulina_update", faulty)
    rep = check_pathwise(DIST, "krasulina", steps=100, trials=8, master_seed=1)
    assert not rep.passed
    assert rep.empirical == count
    assert rep.detail.startswith(expected + ": V=[")


@pytest.mark.parametrize(
    "rule, kind", [("krasulina", "norm monotonicity"), ("oja", "unit norm")]
)
def test_pathwise_report_does_not_depend_on_the_batch_size(monkeypatch, rule, kind):
    # with threshold 1 every Krasulina row is renormalized into a new array
    # at the end of the first chunk, so the next step's V_prev is scored afresh
    monkeypatch.setattr(harness, "RENORM_THRESHOLD", 1.0)
    name = f"{rule}_update"
    true_update = getattr(estimators, name)
    calls = 0

    def shrinks_trial_2_once(V, x, gamma):
        nonlocal calls
        calls += 1
        out = true_update(V, x, gamma)
        if calls == 2100:
            out[2] *= 0.5
        return out

    true_potential = linalg.potential
    scored = 0

    def counted_potential(V, v_star):
        nonlocal scored
        scored += np.asarray(V).size // np.shape(V)[-1]
        return true_potential(V, v_star)

    monkeypatch.setattr(estimators, name, shrinks_trial_2_once)
    monkeypatch.setattr(linalg, "potential", counted_potential)
    steps, trials = CHUNK + 200, 3
    fresh = 2 if rule == "krasulina" else 1  # the initial states, the renormalized
    reports = []
    for rows in (harness.ROWS, 1):
        monkeypatch.setattr(harness, "ROWS", rows)
        calls = scored = 0
        reports.append(check_pathwise(DIST, rule, steps, trials, master_seed=4))
        assert scored == trials * (steps + fresh)
    assert reports[0] == reports[1]
    assert reports[0].detail.startswith(f"{kind} at step n=2100 trial=2: V=[")


@pytest.mark.parametrize("rule", ["krasulina", "oja"])
def test_z_increment_keeps_the_bits_of_its_xi_form(rule):
    # z_increment reuses its |v|^2 for xi; the form that called xi(v, x),
    # which squares v again, must give the same Z, on random rows and on
    # the states the rule's own steps reach (Krasulina's norms grow, Oja's stay 1)
    def via_xi(v, x, gamma, v_star):
        v = np.asarray(v, dtype=float)
        nsq = np.einsum("...i,...i->...", v, v)
        v_dot = np.einsum("...i,i->...", v, v_star)
        xi_dot = np.einsum("...i,i->...", xi(v, x), v_star)
        return 2.0 * gamma * v_dot * xi_dot / nsq

    rng = np.random.default_rng(43)
    v_star = np.linalg.qr(rng.standard_normal((5, 5)))[0][:, 0]
    V, X, gamma = rng.standard_normal((64, 5)), rng.standard_normal((64, 5)), rng.random(64)
    assert np.array_equal(z_increment(V, X, gamma, v_star), via_xi(V, X, gamma, v_star))
    assert z_increment(V[0], X[0], 0.3, v_star) == via_xi(V[0], X[0], 0.3, v_star)
    update = krasulina_update if rule == "krasulina" else oja_update
    v_star = DIST.ground_truth().v_star
    V = random_unit_vectors(5, 8, rng)
    for n in range(1, 301):
        X, gamma = DIST.sample_block(rng, 8), 2.0 / (n + 10)
        assert np.array_equal(z_increment(V, X, gamma, v_star), via_xi(V, X, gamma, v_star))
        V = update(V, X, gamma)


ROTATED = GaussianSpectrum(
    eigenvalues=np.linspace(2.0, 0.2, 5),
    rotation=np.linalg.qr(np.random.default_rng(44).standard_normal((5, 5)))[0],
)


@pytest.mark.parametrize("dist", [DIST, ROTATED], ids=["coordinate", "rotated-gaussian"])
@pytest.mark.parametrize("rule", ["krasulina", "oja"])
def test_pathwise_scores_the_bits_of_xi_and_z_increment(monkeypatch, rule, dist):
    # the check forms |V|^2 and xi once per row and Z from them; on the rows
    # it scores they must be the bits of estimators.xi / z_increment
    monkeypatch.setattr(harness, "RENORM_THRESHOLD", 1.0)  # renormalized V_prev rows too
    true_violations, true_z = verify._pathwise_violations, estimators._z
    rows, scored, fresh, last_V = [], [], 0, None

    def recorded_violations(rule, v_star, B, trials, batch, last):
        nonlocal fresh, last_V
        for _, _, _, V_prev, V_next in batch:
            fresh += V_prev is not last_V
            last_V = V_next
        rows.append(
            (
                np.concatenate([b[3] for b in batch]),
                np.concatenate([b[2] for b in batch]),
                np.repeat([b[1] for b in batch], trials),
            )
        )
        return true_violations(rule, v_star, B, trials, batch, last)

    def recorded_z(v, inc, nsq, gamma, v_star):
        Z = true_z(v, inc, nsq, gamma, v_star)
        scored.append((v, inc, Z))
        return Z

    monkeypatch.setattr(verify, "_pathwise_violations", recorded_violations)
    monkeypatch.setattr(estimators, "_z", recorded_z)
    rep = check_pathwise(dist, rule, CHUNK + 200, 3, master_seed=6)
    assert rep.passed, rep.detail
    assert fresh == (2 if rule == "krasulina" else 1)  # the initial states, the renormalized
    assert len(scored) == len(rows) > 1
    v_star = dist.ground_truth().v_star
    for (V, x, gamma), (v, inc, Z) in zip(rows, scored):
        assert np.array_equal(v, V)
        assert np.array_equal(inc, xi(V, x))
        assert np.array_equal(Z, z_increment(V, x, gamma, v_star))


def _span_residual_as_written(V, x, V_new, nsq, norm_new):
    # the reference: the span test written out, with a Gram-Schmidt basis
    # (b1, b2) of span(V, x) and three np.linalg.norm calls
    def dots(a, b):
        return linalg._einsum("ij,ij->i", a, b)[:, None]

    b1 = V / np.sqrt(nsq)[:, None]
    x_perp = x - dots(b1, x) * b1
    xp_norm = np.linalg.norm(x_perp, axis=1)
    safe = np.where(xp_norm > 1e-300, xp_norm, 1.0)
    b2 = x_perp / safe[:, None]
    resid = V_new - dots(b1, V_new) * b1 - dots(b2, V_new) * b2
    cond = np.linalg.norm(x, axis=1) / safe
    span_tol = (1e-10 + 100.0 * np.finfo(float).eps * cond) * norm_new
    return np.linalg.norm(resid, axis=1), span_tol


@pytest.mark.parametrize("parallel", [1.0, 1e-2, 1e-4, 1e-6, 1e-8, "1-sparse"])
def test_span_residual_keeps_the_written_out_residual_and_tolerance(parallel):
    # |x_perp| / |x| = parallel, or x = +-s e_k as coordinate data draws it
    rng = np.random.default_rng(45)
    n, d = 2000, 10
    V = rng.standard_normal((n, d)) * rng.uniform(0.5, 3.0, (n, 1))
    nsq = np.einsum("ij,ij->i", V, V)
    if parallel == "1-sparse":
        x = np.zeros((n, d))
        s = rng.choice([-1.0, 1.0], n) * rng.uniform(0.1, 2.0, n)
        x[np.arange(n), rng.integers(0, d, n)] = s
    else:
        u = rng.standard_normal((n, d))
        u -= (np.einsum("ij,ij->i", u, V) / nsq)[:, None] * V
        u *= (parallel * np.sqrt(nsq) / np.linalg.norm(u, axis=1))[:, None]
        x = V * rng.uniform(0.2, 2.0, (n, 1)) + u
    eps = np.finfo(float).eps
    # a V_new off the span, where the residual is of the order of |V_new|
    V_new = rng.standard_normal((n, d))
    norm_new = np.sqrt(np.einsum("ij,ij->i", V_new, V_new))
    ref, ref_tol = _span_residual_as_written(V, x, V_new, nsq, norm_new)
    resid, span_tol = verify._span_residual(V, x, V_new, nsq, norm_new)
    assert np.all(np.abs(resid - ref) <= 1e-12 * ref)
    assert np.all(np.abs(span_tol - ref_tol) <= 1e-12 * ref_tol)
    # a Krasulina step stays in the span: its residual is rounding, which
    # moves by a few eps |V_new| and stays below the tolerance
    V_new = krasulina_update(V, x, 0.3)
    norm_new = np.sqrt(np.einsum("ij,ij->i", V_new, V_new))
    ref, ref_tol = _span_residual_as_written(V, x, V_new, nsq, norm_new)
    resid, span_tol = verify._span_residual(V, x, V_new, nsq, norm_new)
    assert np.all(np.abs(resid - ref) <= 4.0 * eps * norm_new)
    assert np.all(np.abs(span_tol - ref_tol) <= 1e-12 * ref_tol)
    assert np.all(resid <= span_tol)


def test_expectation_checks_move_only_in_the_last_digits():
    # the samples now go through estimators.xi / estimators.z_increment,
    # whose dot products and operation order differ from the former
    # inline formulas written out here
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    A, v_star = dist.covariance(), dist.ground_truth().v_star
    for seed in range(5):
        v = np.random.default_rng(seed).standard_normal(10)
        X = dist.sample_block(np.random.default_rng(seed), 100_000)
        nsq = float(v @ v)
        dots = X @ v
        xis = dots[:, None] * X - (dots * dots / nsq)[:, None] * v
        ref = A @ v - (v @ A @ v / nsq) * v
        se = xis.std(axis=0, ddof=1) / math.sqrt(100_000)
        rep = check_xi_expectation(dist, v, 100_000, np.random.default_rng(seed))
        assert rep.empirical == pytest.approx(
            float((np.abs(xis.mean(axis=0) - ref) / se).max()), rel=1e-12, abs=0
        )
        zs = 2.0 * 0.1 * float(v @ v_star) / nsq * (xis @ v_star)
        rep = check_z_expectation(dist, v, 0.1, 100_000, np.random.default_rng(seed))
        assert rep.empirical == pytest.approx(float(zs.mean()), rel=1e-12, abs=0)
        assert rep.std_error == pytest.approx(
            float(zs.std(ddof=1)) / math.sqrt(100_000), rel=1e-12, abs=0
        )


@pytest.mark.parametrize("n", [2, 100_000, 250_000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mgf_moments_are_the_written_out_mean_and_standard_error(n, seed):
    # y = e^{t(1 - V_1^2)} from one draw of all n vectors; the check draws
    # the same stream in blocks and merges their moments
    d, t = 10, 5.0
    rng = np.random.default_rng(seed)
    y = np.exp(t * (1.0 - random_unit_vectors(d, n, rng)[:, 0] ** 2))
    check_rng = np.random.default_rng(seed)
    rep = check_mgf(d, t, n, check_rng)
    assert check_rng.bit_generator.state == rng.bit_generator.state
    assert rep.empirical == pytest.approx(float(y.mean()), rel=1e-12, abs=0)
    assert rep.std_error == pytest.approx(
        float(y.std(ddof=1)) / math.sqrt(n), rel=1e-12, abs=0
    )


def test_pathwise_hand_worked_step():
    # V=(1,1), x=(1,0), gamma=0.1, v*=e1: every quantity by hand
    v = np.array([1.0, 1.0])
    x = np.array([1.0, 0.0])
    vstar = np.array([1.0, 0.0])
    gamma = 0.1
    before = potential(v, vstar)
    after = potential(krasulina_update(v, x, gamma), vstar)
    assert before == pytest.approx(0.5)
    assert after == pytest.approx(0.95**2 / (1.05**2 + 0.95**2), abs=1e-12)
    z = z_increment(v, x, gamma, vstar)
    assert z == pytest.approx(0.05, abs=1e-15)
    beta = beta_step("krasulina", gamma, 1.0)
    assert beta == pytest.approx(0.0025, abs=1e-18)
    assert after <= before + beta - z + 1e-15


def test_pathwise_orthogonal_step_is_tight():
    v = np.array([1.0, 0.0])
    x = np.array([0.0, 1.0])
    assert np.array_equal(xi(v, x), np.zeros(2))
    assert z_increment(v, x, 0.1, np.array([1.0, 0.0])) == 0.0


def test_mgf_check_passes_and_flags_vacuous_settings():
    rng = np.random.default_rng(3)
    rep = check_mgf(10, 5.0, 100_000, rng)
    assert rep.passed
    assert not rep.vacuous
    assert rep.reference == pytest.approx(140.797085251528, rel=1e-12)
    # small t makes the stated bound exceed e^t, so it can say nothing
    weak = check_mgf(3, 0.1, 1000, np.random.default_rng(4))
    assert weak.vacuous


@pytest.mark.parametrize("n_samples", [0, 1])
@pytest.mark.parametrize(
    "check",
    [
        lambda n: check_mgf(3, 1.0, n, np.random.default_rng(0)),
        lambda n: check_xi_expectation(DIST, np.ones(5), n, np.random.default_rng(0)),
        lambda n: check_z_expectation(DIST, np.ones(5), 0.1, n, np.random.default_rng(0)),
    ],
    ids=["mgf", "xi", "z"],
)
def test_monte_carlo_checks_need_two_samples(check, n_samples):
    # one sample has no standard error, and none has no mean
    with pytest.raises(ValueError, match="need at least 2 samples"):
        check(n_samples)


def test_pathwise_needs_a_step():
    with pytest.raises(ValueError, match="need at least one step"):
        check_pathwise(DIST, "krasulina", steps=0, trials=2, master_seed=0)


def test_gamma_inequality_over_wide_grid():
    z = np.geomspace(1e-3, 1e6, 500)
    rep = check_gamma_inequality(z)
    assert rep.passed
    assert rep.empirical <= 1e-10


def test_gradient_check_small_matrix():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    A = M @ M.T
    rep = check_gradient(A, n_points=50, h=1e-6, rng=rng)
    assert rep.passed
    assert rep.empirical <= 1e-6


def test_always_good_quick_run():
    # n_o = ceil(2 B^2 c^2 d^2 / eps^2) = 7200 here
    reports = [
        check_always_good(
            CoordinateDistribution(p=0.2, sigma=0.5, d=3),
            c=1.0,
            eps=0.05,
            horizon=horizon,
            trials=50,
            master_seed=6,
        )
        for horizon in (2000, 9200)
    ]
    for rep in reports:
        assert rep.passed
        assert rep.reference == pytest.approx(0.5213714442179439, rel=1e-12)
    assert reports[0].vacuous
    assert reports[0].detail == "no step runs: horizon 2000 <= n_o 7200"
    assert not reports[1].vacuous and reports[1].detail == ""


def test_write_reports_csv_shape():
    rep = CheckReport(
        name="demo",
        n_samples=10,
        empirical=0.5,
        reference=1.0,
        std_error=0.1,
        passed=True,
        slack_used=0.0,
    )
    buf = io.StringIO()
    write_reports(buf, [rep])
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "name,n_samples,empirical,reference,std_error,pass,slack,vacuous,detail"
    assert lines[1] == "demo,10,0.5,1.0,0.1,true,0.0,false,"


def test_write_reports_round_trips_a_detail_with_commas():
    detail = "unit norm at step n=3 trial=1: V=[0.6, 0.8] {'norm': 1.5}"
    rep = CheckReport("pathwise_oja", 40, 1.0, 0.0, 0.0, False, 1e-12, False, detail)
    buf = io.StringIO()
    write_reports(buf, [rep])
    header, row = csv.reader(io.StringIO(buf.getvalue()))
    assert row == ["pathwise_oja", "40", "1.0", "0.0", "0.0", "false", "1e-12", "false", detail]
    assert dict(zip(header, row))["detail"] == detail


# Planted faults: each check must catch a broken formula at the sizes
# `incpca verify` runs it at (1e5 samples, d = 10), on nearly every seed.


def _caught(check, seeds=20):
    return sum(not check(np.random.default_rng(seed)).passed for seed in range(seeds))


def test_xi_check_catches_a_missing_projection_term(monkeypatch):
    # xi without its -(v.x)^2/|v|^2 v term
    monkeypatch.setattr(
        estimators, "xi", lambda v, x: np.einsum("...i,...i->...", v, x)[..., None] * x
    )
    assert _caught(
        lambda rng: check_xi_expectation(CLI_DIST, rng.standard_normal(10), 100_000, rng)
    ) >= 19


def test_z_check_catches_a_missing_factor_two(monkeypatch):
    monkeypatch.setattr(estimators, "z_increment", lambda *args: z_increment(*args) / 2.0)
    assert _caught(
        lambda rng: check_z_expectation(CLI_DIST, rng.standard_normal(10), 0.1, 100_000, rng)
    ) >= 19


def test_mgf_check_catches_a_bound_below_the_true_mean(monkeypatch):
    # E[e^{tY}] for Y ~ Beta((d-1)/2, 1/2) is 1F1((d-1)/2; d/2; t)
    monkeypatch.setattr(theory, "mgf_bound", lambda d, t: 0.99 * hyp1f1((d - 1) / 2, d / 2, t))
    assert _caught(lambda rng: check_mgf(10, 5.0, 100_000, rng)) >= 19


def test_gradient_check_catches_a_missing_factor_two(monkeypatch):
    gradient = linalg.rayleigh_gradient
    monkeypatch.setattr(linalg, "rayleigh_gradient", lambda A, v: gradient(A, v) / 2.0)
    A = CLI_DIST.covariance()
    assert _caught(lambda rng: check_gradient(A, 100, 1e-5, rng)) >= 19


def test_always_good_misses_a_bound_of_zero_at_50_trials(monkeypatch):
    # At the CLI's 50 trials the frequency is about 0.1 and 3 standard
    # errors about 0.13, so even a bound of 0 passes on most seeds; the
    # docstring of check_always_good states this limit.
    bound = theory.always_good_bound
    monkeypatch.setattr(theory, "always_good_bound", lambda eps: (0.0, bound(eps)[1]))
    reports = [
        check_always_good(
            CoordinateDistribution(p=0.2, sigma=0.5, d=3),
            c=1.0,
            eps=0.05,
            horizon=20_000,
            trials=50,
            master_seed=seed,
        )
        for seed in range(10)
    ]
    assert all(rep.empirical > 0.0 for rep in reports)
    assert sum(not rep.passed for rep in reports) <= 2
