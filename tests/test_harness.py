"""Tests for the experiment harness: determinism, aggregation, CSV output."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incpca import estimators, harness, verify
from incpca.distributions import CoordinateDistribution, GaussianSpectrum, trial_rng
from incpca.harness import (
    CHUNK,
    Aggregate,
    ExperimentConfig,
    _psi_rows,
    counterexample_experiment,
    estimate_slope,
    log_grid,
    run_experiment,
    simulate,
    write_experiment_csv,
)


DIST = CoordinateDistribution(p=0.3, sigma=0.5, d=4)
GAUSS = GaussianSpectrum(eigenvalues=np.array([1.0, 0.5, 0.25]))


def test_log_grid_properties():
    g = log_grid(0, 10_000, 50)
    assert g[0] == 0 and g[-1] == 10_000
    assert np.all(np.diff(g) > 0)
    g2 = log_grid(100, 10_000, 30)
    assert g2[0] >= 100 and g2[-1] == 10_000


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(dist=DIST)  # neither c nor c_o
    with pytest.raises(ValueError):
        ExperimentConfig(dist=DIST, c=1.0, c_o=4.0)
    with pytest.raises(ValueError):
        ExperimentConfig(dist=DIST, c=1.0, n_o=100, horizon=100)
    cfg = ExperimentConfig(dist=DIST, c_o=4.0)
    gt = DIST.ground_truth()
    assert cfg.resolved_c() == pytest.approx(4.0 / (2 * gt.gap))


def test_simulate_deterministic_in_seed_and_trial_id():
    def solo(trial_id):
        return simulate(DIST, "krasulina", 2.0, 0, 2000, 1, 5, trial_ids=[trial_id]).psi

    assert np.array_equal(solo(3), solo(3))
    assert not np.array_equal(solo(3), solo(4))


def test_trial_rows_independent_of_batch_composition():
    # trial 7 must produce the same trajectory alone or inside a batch
    res_batch = simulate(
        DIST, "krasulina", 2.0, 0, 2000, trials=10, master_seed=5
    )
    solo = simulate(DIST, "krasulina", 2.0, 0, 2000, 1, 5, trial_ids=[7])
    assert np.array_equal(res_batch.psi[7], solo.psi[0])


@given(
    data=st.data(),
    rule=st.sampled_from(["krasulina", "oja"]),
    gaussian=st.booleans(),
    n_o=st.sampled_from([0, 7]),
    horizon=st.sampled_from([1, 300, CHUNK + 150]),
)
@settings(max_examples=12, deadline=None)
def test_any_trial_subset_reproduces_its_rows(data, rule, gaussian, n_o, horizon):
    dist = GAUSS if gaussian else DIST
    full = simulate(dist, rule, 1.5, n_o, n_o + horizon, 6, 11, track_max=True)
    subset = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    part = simulate(
        dist, rule, 1.5, n_o, n_o + horizon, 6, 11, track_max=True, trial_ids=subset
    )
    assert np.array_equal(part.grid, full.grid)
    assert np.array_equal(part.psi, full.psi[subset])
    assert np.array_equal(part.max_psi, full.max_psi[subset])


@pytest.mark.parametrize("dist", [DIST, GAUSS], ids=["coordinate", "gaussian"])
@pytest.mark.parametrize("rule", ["krasulina", "oja"])
def test_simulate_matches_single_state_reference(dist, rule):
    # one estimators.step per sample, drawn per trial in CHUNK-sized blocks
    c, n_o, horizon, seed = 2.0, 5, CHUNK + 300, 9
    res = simulate(dist, rule, c, n_o, horizon, 3, seed)
    v_star = dist.ground_truth().v_star
    for tid in range(3):
        rng = trial_rng(seed, tid)
        v = estimators.init_vector("random_unit", dist.d, rng=rng)
        if rule == "oja":
            v = v / np.linalg.norm(v)
        state = estimators.EstimatorState(
            V=v, n=n_o, rule=rule, lr=estimators.LearningRate(c=c, n_o=n_o)
        )
        while state.n < horizon:
            for x in dist.sample_block(rng, min(CHUNK, horizon - state.n)):
                state = estimators.step(state, x)
        assert _psi_rows(state.V[None, :], v_star)[0] == res.psi[tid, -1]


def test_renormalization_leaves_results_unchanged(monkeypatch):
    # with threshold 1 every growing Krasulina row is renormalized at the
    # end of each chunk; the potential is scale-invariant
    steps = 2 * CHUNK + 10
    ref = simulate(DIST, "krasulina", 2.0, 0, steps, 4, 3)
    monkeypatch.setattr(harness, "RENORM_THRESHOLD", 1.0)
    res = simulate(DIST, "krasulina", 2.0, 0, steps, 4, 3)
    assert np.allclose(res.psi, ref.psi, rtol=1e-9, atol=1e-12)
    rep = verify.check_pathwise(DIST, "krasulina", steps, 4, 3)
    assert rep.passed, rep.detail


def test_simulate_holds_one_sample_chunk_at_a_time():
    chunk_bytes = 50 * CHUNK * DIST.d * 8
    tracemalloc.start()
    try:
        simulate(DIST, "oja", 1.0, 0, 3 * CHUNK, 50, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * chunk_bytes


def test_simulate_grid_and_track_max():
    grid = np.array([10, 100, 1000])
    res = simulate(
        DIST,
        "oja",
        1.0,
        0,
        1000,
        trials=5,
        master_seed=1,
        grid=grid,
        track_max=True,
    )
    assert res.psi.shape == (5, len(res.grid))
    assert res.grid[-1] == 1000
    assert res.max_psi.shape == (5,)
    assert np.all(res.max_psi >= res.psi.max(axis=1) - 1e-15)


def test_run_experiment_aggregates():
    cfg = ExperimentConfig(
        dist=DIST, c=2.0, horizon=3000, trials=20, master_seed=2, grid_points=40
    )
    agg = run_experiment(cfg)
    assert isinstance(agg, Aggregate)
    assert agg.trials_ok == 20
    assert np.all(agg.q10 <= agg.median + 1e-15)
    assert np.all(agg.median <= agg.q90 + 1e-15)
    assert np.all((agg.mean >= 0) & (agg.mean <= 1))
    # the potential should actually head toward zero on this easy problem
    assert agg.mean[-1] < agg.mean[0]


def test_estimate_slope_recovers_power_law():
    ns = np.geomspace(10, 10_000, 60)
    psi = 3.0 * ns**-1.7
    fit = estimate_slope(ns, psi, 10, 10_000)
    assert fit.slope == pytest.approx(-1.7, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.window_shrunk


def test_estimate_slope_drops_nonpositive_and_flags():
    ns = np.geomspace(10, 10_000, 60)
    psi = 3.0 * ns**-1.7
    psi[5] = 0.0
    fit = estimate_slope(ns, psi, 10, 10_000)
    assert fit.window_shrunk
    assert fit.slope == pytest.approx(-1.7, abs=1e-6)
    with pytest.raises(ValueError):
        estimate_slope(ns, psi, 10_001, 10_002)
    with pytest.raises(ValueError):
        estimate_slope(ns[:4], psi[:4], 10, 10_000)


def test_counterexample_experiment_traps_first_point():
    frac, se = counterexample_experiment(
        DIST, "first_point", trials=100, horizon=500, master_seed=3, c=5.0
    )
    assert 0.0 <= frac <= 1.0
    assert se <= 0.05
    # first_point lands off the top coordinate with probability 1 - p = 0.7
    assert frac > 0.5


def test_experiment_csv_is_byte_stable(tmp_path):
    cfg = ExperimentConfig(
        dist=DIST, c=2.0, horizon=1000, trials=10, master_seed=4, grid_points=20
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_experiment_csv(p1, cfg, run_experiment(cfg))
    write_experiment_csv(p2, cfg, run_experiment(cfg))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    text = b1.decode()
    assert "n,mean_psi,median_psi,q10_psi,q90_psi,trials_ok" in text
    # headers record the full configuration
    assert "# master_seed = 4" in text
