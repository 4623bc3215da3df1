"""Tests for the closed-form rates, schedules, and recurrence bounds."""

import math

import numpy as np
import pytest

from incpca import theory
from incpca.theory import (
    A_EXPONENT,
    BoundParams,
    EpochSchedule,
    always_good_bound,
    beta_step,
    epoch_schedule,
    krasulina_bound,
    mgf_bound,
    solve_recurrence,
)


class TestSolveRecurrence:
    def test_worked_example_a_above_one(self):
        # (11/101)^2 * 0.5 + (12/11)^3 / 101, evaluated once and frozen
        out = solve_recurrence(0.5, 10, 2.0, 1.0, 100)
        assert out == pytest.approx(0.018784969078693314, rel=1e-12)
        by_hand = (11 / 101) ** 2 * 0.5 + (12 / 11) ** 3 / 101
        assert out == pytest.approx(by_hand, rel=1e-12)

    def test_worked_example_a_below_one(self):
        out = solve_recurrence(0.5, 10, 0.5, 1.0, 100)
        assert out == pytest.approx(1.204772501310741, rel=1e-12)

    def test_zero_b_is_pure_power_decay(self):
        for a in (0.5, 2.0, 3.7):
            out = solve_recurrence(0.25, 10, a, 0.0, 1000)
            assert out == pytest.approx(0.25 * (11 / 1001) ** a, rel=1e-12)

    def test_a_equal_one_unsupported(self):
        with pytest.raises(ValueError):
            solve_recurrence(0.5, 10, 1.0, 1.0, 100)

    @pytest.mark.parametrize("a", [0.3, 0.8, 1.5, 2.0, 4.0])
    def test_dominates_exact_recurrence(self, a):
        # u_{t+1} <= (1 - a/(t+1)) u_t + b/(t+1)^2, iterated as the oracle
        rng = np.random.default_rng(int(a * 10))
        for _ in range(20):
            u0 = float(rng.uniform(0.0, 1.0))
            b = float(rng.uniform(0.1, 3.0))
            t0 = int(rng.integers(max(5, int(a) + 1), 40))
            u = u0
            for t in range(t0, 400):
                u = (1.0 - a / (t + 1)) * u + b / (t + 1) ** 2
                assert u <= solve_recurrence(u0, t0, a, b, t + 1) * (1 + 1e-12)


def test_zeta_agrees_with_scipy_on_1_to_2():
    # scipy is the reference here only: the package computes zeta itself
    from scipy.special import zeta

    ends = [np.nextafter(1.0, 2.0), 1.0 + 1e-9, 2.0 - 1e-9, np.nextafter(2.0, 1.0)]
    s = np.concatenate([ends, np.linspace(1.0, 2.0, 1001)[1:-1]])
    ours = np.array([theory._zeta(float(v)) for v in s])
    assert np.abs(ours / zeta(s) - 1.0).max() <= 4e-15


@pytest.mark.parametrize("s", [1.0, 2.0, 0.5, 3.0, math.nan])
def test_zeta_rejects_s_outside_1_to_2(s):
    with pytest.raises(ValueError, match="zeta"):
        theory._zeta(s)


@pytest.mark.parametrize("a_range", [(1.01, 5.0), (0.05, 0.99)], ids=["a>1", "a<1"])
def test_scalar_t_gives_the_bits_of_the_array_path(a_range):
    # a Python number t skips np.asarray; its powers must still round as
    # numpy's array power does, or a bound would depend on how t is passed
    rng = np.random.default_rng(int(a_range[1] * 100))
    for _ in range(50):
        a = float(rng.uniform(*a_range))
        u0, b = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 3.0))
        t0 = int(rng.integers(1, 50))
        ts = t0 + rng.uniform(0.5, 1e6, 100)
        for t_array in (ts, np.ceil(ts).astype(int)):
            want = solve_recurrence(u0, t0, a, b, t_array)
            for t, w in zip(t_array.tolist(), want.tolist()):
                got = solve_recurrence(u0, t0, a, b, t)
                assert type(got) is float and got == w, (a, t0, t)


def test_mgf_bound_frozen_value():
    assert mgf_bound(10, 5.0) == pytest.approx(140.797085251528, rel=1e-12)
    assert mgf_bound(10, 5.0) == pytest.approx(
        math.exp(5.0) * math.sqrt(9.0 / 10.0), rel=1e-12
    )


def test_beta_step_both_rules():
    assert beta_step("krasulina", 0.1, 2.0) == pytest.approx(0.01 * 4.0 / 4.0)
    assert beta_step("oja", 0.1, 2.0) == pytest.approx(
        5 * 0.01 * 4.0 + 2 * 0.001 * 8.0
    )
    with pytest.raises(ValueError):
        beta_step("nope", 0.1, 1.0)


def test_always_good_bound_frozen_values():
    bound, n_min = always_good_bound(0.05)
    assert bound == pytest.approx(0.5213714442179439, rel=1e-12)
    assert bound == pytest.approx(math.sqrt(2 * math.e * 0.05), rel=1e-12)
    assert n_min(1.0, 1.0, 3) == 7200
    # ceil(2 B^2 c^2 d^2 / eps^2)
    assert n_min(1.0, 1.0, 3) == math.ceil(2 * 9 / 0.05**2)


class TestEpochSchedule:
    def test_frozen_probe_values(self):
        s = epoch_schedule(delta=0.1, d=10, c_o=4.0, c=1.0, B=1.0)
        assert s.eps0 == pytest.approx(4.59849301464303e-05, rel=1e-12)
        assert s.eps0 == pytest.approx(0.1**2 / (8 * math.e * 10), rel=1e-12)
        assert s.J == 14
        assert s.pairs[-1][1] == 0.5
        assert s.pairs[-2][1] <= 0.25

    @pytest.mark.parametrize("arg", ["c_o", "c", "B"])
    def test_a_nan_rate_or_bound_is_rejected(self, arg):
        kw = dict(delta=0.1, d=10, c_o=4.0, c=1.0, B=1.0)
        with pytest.raises(ValueError, match="c_o, c, B must be positive"):
            epoch_schedule(**{**kw, arg: math.nan})

    def test_audit_passes_every_condition(self):
        for delta, d, c_o in [(0.1, 10, 4.0), (0.25, 3, 4.0), (0.05, 20, 6.0)]:
            s = epoch_schedule(delta=delta, d=d, c_o=c_o, c=1.0, B=1.0)
            failures = [name for name, ok in s.audit() if not ok]
            assert failures == []

    def test_targets_grow_within_the_stated_band(self):
        s = epoch_schedule(delta=0.1, d=10, c_o=4.0, c=1.0, B=1.0)
        eps = [e for _, e in s.pairs]
        for lo, hi in zip(eps, eps[1:]):
            assert 1.5 * lo <= hi * (1 + 1e-12)
            assert hi <= 2.0 * lo * (1 + 1e-12)

    def test_epoch_lengths_grow_geometrically(self):
        s = epoch_schedule(delta=0.1, d=10, c_o=4.0, c=1.0, B=1.0)
        ns = [n for n, _ in s.pairs]
        growth = math.exp(5.0 / 4.0)
        for a, b in zip(ns, ns[1:]):
            assert (b + 1) >= growth * (a + 1) * (1 - 1e-12)

    def test_audit_flags_a_broken_schedule(self):
        s = epoch_schedule(delta=0.1, d=10, c_o=4.0, c=1.0, B=1.0)
        bad_pairs = tuple(list(s.pairs[:-1]) + [(s.pairs[-1][0], 0.3)])
        bad = EpochSchedule(
            pairs=bad_pairs,
            delta=s.delta,
            c_o=s.c_o,
            n_o_min=s.n_o_min,
            eps0=s.eps0,
        )
        assert any(not ok for _, ok in bad.audit())


class TestBoundParams:
    def _params(self, **kw):
        base = dict(
            c_o=4.0, B=1.0, d=3, delta=0.25, n_o=1000, lambda1=0.9, lambda2=0.05
        )
        base.update(kw)
        return BoundParams(**base)

    @pytest.mark.parametrize("field", ["c_o", "B", "delta", "lambda1", "lambda2"])
    def test_a_nan_parameter_is_rejected(self, field):
        with pytest.raises(ValueError):
            self._params(**{field: math.nan})

    def test_derived_quantities(self):
        p = self._params()
        assert p.gap == pytest.approx(0.85)
        assert p.a == pytest.approx(2.0)
        assert p.c == pytest.approx(4.0 / (2 * 0.85))
        assert p.b == pytest.approx(p.c**2 / 4.0)
        assert p.dim_factor == pytest.approx(
            (4 * math.e * 3 / 0.25**2) ** A_EXPONENT, rel=1e-12
        )

    def test_bound_decreases_and_extends_to_arrays(self):
        p = self._params()
        ns = np.array([10**5, 10**6, 10**7, 10**8], dtype=float)
        vals = krasulina_bound(p, ns)
        assert np.all(np.diff(vals) < 0)
        assert krasulina_bound(p, 10**7) == pytest.approx(vals[2], rel=1e-12)

    def test_scaled_bound_converges_past_the_final_epoch(self):
        # (n+1) * bound approaches b/(a-1) * exp((a+1)/(n_J+1)) from above
        p = self._params()
        limit = p.b / (p.a - 1.0) * math.exp((p.a + 1.0) / (p.n_J + 1.0))
        ns = p.n_J * np.geomspace(10.0, 1e12, 12)
        scaled = (ns + 1.0) * krasulina_bound(p, ns)
        assert np.all(np.diff(scaled) < 0)
        assert np.all(scaled >= limit)
        assert scaled[-1] == pytest.approx(limit, rel=1e-2)

    def test_small_c_o_branch_uses_convergent_tail(self):
        p = self._params(c_o=1.0)
        assert p.a == pytest.approx(0.5)
        n = 10**6
        out = krasulina_bound(p, n)
        assert np.isfinite(out) and out > 0
        # tail decays like n^(-a), so scaling by n^a should level off
        big = np.array([1e10, 1e12, 1e14])
        lev = krasulina_bound(p, big) * big**0.5
        assert np.all(np.diff(lev) < lev[0] * 1e-2)
