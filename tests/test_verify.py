"""Tests for the runtime checking suite."""

import io
import math

import numpy as np
import pytest

from incpca import estimators
from incpca.distributions import CoordinateDistribution
from incpca.linalg import potential
from incpca.estimators import InitError, krasulina_update, xi, z_increment
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


def test_pathwise_zero_violations_both_rules():
    for rule in ("krasulina", "oja"):
        rep = check_pathwise(DIST, rule, steps=3000, trials=4, master_seed=2)
        assert rep.passed, rep.detail
        assert rep.empirical == 0.0


def test_pathwise_init_failure_raises():
    with pytest.raises(InitError):
        check_pathwise(
            CoordinateDistribution(p=0.3, sigma=0.5, d=4),
            "krasulina",
            steps=10,
            trials=20,
            master_seed=0,
            init_mode="average_k",
            init_k=2,
        )


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
    rep = check_always_good(
        CoordinateDistribution(p=0.2, sigma=0.5, d=3),
        c=1.0,
        eps=0.05,
        horizon=2000,
        trials=50,
        master_seed=6,
    )
    assert rep.passed
    assert rep.reference == pytest.approx(0.5213714442179439, rel=1e-12)


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
    assert lines[0] == "name,n_samples,empirical,reference,std_error,pass,slack"
    assert lines[1].startswith("demo,10,0.5,1.0,0.1,true,")
