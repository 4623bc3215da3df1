"""Tests for the experiment harness: determinism, aggregation, CSV output."""

import io
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incpca import estimators, harness, linalg, verify
from incpca.distributions import CoordinateDistribution, GaussianSpectrum, trial_rng
from incpca.harness import (
    CHUNK,
    Aggregate,
    ExperimentConfig,
    counterexample_experiment,
    estimate_slope,
    log_grid,
    read_csv,
    run_experiment,
    simulate,
    write_csv,
    write_experiment_csv,
)


DIST = CoordinateDistribution(p=0.3, sigma=0.5, d=4)
GAUSS = GaussianSpectrum(eigenvalues=np.array([1.0, 0.5, 0.25]))
# v* off every axis, where a BLAS matrix-vector product would round a row
# differently depending on the rows beside it
ROTATED = GaussianSpectrum(
    eigenvalues=np.array([1.0, 0.5, 0.25]),
    rotation=np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))[0],
)


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
    with pytest.raises(ValueError, match="grid_points must be at least 1"):
        ExperimentConfig(dist=DIST, c=1.0, horizon=100, grid_points=0)
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
    dist=st.sampled_from([DIST, GAUSS, ROTATED]),
    n_o=st.sampled_from([0, 7]),
    horizon=st.sampled_from([1, 300, CHUNK + 150]),
    track_max=st.booleans(),
)
@settings(max_examples=24, deadline=None)
def test_any_trial_subset_reproduces_its_rows(data, rule, dist, n_o, horizon, track_max):
    # oja on coordinate data without track_max runs the closed-form engine
    full = simulate(dist, rule, 1.5, n_o, n_o + horizon, 6, 11, track_max=track_max)
    subset = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=6, unique=True))
    part = simulate(
        dist, rule, 1.5, n_o, n_o + horizon, 6, 11, track_max=track_max, trial_ids=subset
    )
    assert np.array_equal(part.grid, full.grid)
    assert np.array_equal(part.psi, full.psi[subset])
    if track_max:
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
        ref = linalg.potential(state.V, v_star)
        if rule == "oja" and dist is DIST:
            # the closed-form engine agrees to rounding
            assert res.psi[tid, -1] == pytest.approx(ref, rel=1e-10, abs=0.0)
        else:
            assert res.psi[tid, -1] == ref


@pytest.mark.parametrize("T", [1, 7])
def test_chunk_rows_do_not_depend_on_the_split(T):
    # clip radius below the trace, so the rejection loop runs on most rows
    dist = GaussianSpectrum(ROTATED.eigenvalues, rotation=ROTATED.rotation, clip_radius=1.0)
    assert dist.sample_block(trial_rng(3, 0), 50, return_rejections=True)[1] > 0
    ref = np.stack([dist.sample_block(trial_rng(3, t), 50) for t in range(T)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for workers in (1, 2, 3):  # T=7 over 2 or 3 parts is uneven
            X = np.full((T, 50, dist.d), np.nan)
            harness._draw_rows(X, dist, [trial_rng(3, t) for t in range(T)], 50, workers)
            assert np.array_equal(X, ref), workers
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_step_major_chunk_holds_the_same_bits_as_a_trial_major_one(workers):
    # _draw_rows fills the strided (T, m, d) view through a scratch block per
    # thread; clip radius below the trace, so the rejection loop runs
    dist = GaussianSpectrum(ROTATED.eigenvalues, rotation=ROTATED.rotation, clip_radius=1.0)
    T, m = 7, 50
    ref = np.empty((T, m, dist.d))
    harness._draw_rows(ref, dist, [trial_rng(3, t) for t in range(T)], m, 1)
    X = np.full((m, T, dist.d), np.nan).transpose(1, 0, 2)
    harness._draw_rows(X, dist, [trial_rng(3, t) for t in range(T)], m, workers)
    assert np.array_equal(X, ref)


@pytest.mark.parametrize("dist", [GAUSS, DIST], ids=["gaussian", "coordinate"])
def test_trajectories_steps_through_one_chunk_layout_per_source(dist):
    V, _, rngs = harness.init_states(dist, "oja", "random_unit", None, 0, range(5))
    steps = harness.trajectories(dist, "oja", 1.0, 0, CHUNK + 3, V, rngs)
    contiguous = {x.flags.c_contiguous for _, _, x, _, _ in steps}
    # Gaussian samples are one contiguous (T, d) block per step; coordinate
    # samples a strided view of the trial-major chunk
    assert contiguous == {dist is GAUSS}


@pytest.mark.parametrize("rule", ["krasulina", "oja"])
@pytest.mark.parametrize("dist", [GAUSS, ROTATED], ids=["gaussian", "rotated"])
def test_simulate_does_not_depend_on_the_cpu_count(monkeypatch, dist, rule):
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(harness, "CPUS", cpus)
        runs.append(simulate(dist, rule, 1.5, 0, CHUNK + 40, 7, 8, track_max=True))
    for res in runs[1:]:
        assert np.array_equal(res.psi, runs[0].psi)
        assert np.array_equal(res.max_psi, runs[0].max_psi)


@pytest.mark.parametrize("bad_row", [0, 5])  # the calling thread's part, a worker's
def test_a_failing_row_fails_the_run_after_every_part_ends(monkeypatch, bad_row):
    monkeypatch.setattr(harness, "CPUS", 3)  # parts: rows 0-1, 2-3, 4-6
    drawn = []
    sample_block = GaussianSpectrum.sample_block

    def failing(self, rng, m, **kwargs):
        row = rng.bit_generator.seed_seq.spawn_key[0]
        if row == bad_row:
            raise RuntimeError(f"row {row} failed")
        drawn.append(row)
        return sample_block(self, rng, m, **kwargs)

    monkeypatch.setattr(GaussianSpectrum, "sample_block", failing)
    with pytest.raises(RuntimeError, match=f"row {bad_row} failed"):
        simulate(GAUSS, "oja", 1.0, 0, 100, 7, 9)
    # every other part ran to its end; the failing part stopped at its row
    assert sorted(drawn) == [r for r in range(7) if r != bad_row and r != bad_row + 1]


def test_krasulina_records_small_potentials_as_positive():
    # a random_unit start keeps an off-axis part, so no recorded value is 0
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    res = simulate(dist, "krasulina", 11.25, 0, 5000, 10, 1)
    assert res.psi.min() > 0.0
    assert res.psi[:, -1].min() < 1e-16  # where 1 - (v.v*)^2/|v|^2 reads 0


@pytest.mark.parametrize(
    "init_mode, init_k, n_o, horizon, d, c",
    [
        ("random_unit", None, 0, CHUNK + 300, 10, 60.0),
        ("random_unit", None, 100, 2 * CHUNK + 7, 2, 0.3),
        ("first_point", None, 7, CHUNK + 1, 10, 0.3),
        ("average_k", 3, 0, 2 * CHUNK, 2, 60.0),
        ("average_k", 2, 50, 500, 10, 0.3),
    ],
)
def test_closed_form_oja_matches_the_dense_engine(init_mode, init_k, n_o, horizon, d, c):
    dist = CoordinateDistribution(p=0.5, sigma=0.5, d=d)
    args = (dist, "oja", c, n_o, horizon, 12, 4)
    # track_max sends the same run through trajectories
    dense = simulate(*args, init_mode=init_mode, init_k=init_k, track_max=True)
    fast = simulate(*args, init_mode=init_mode, init_k=init_k)
    assert np.array_equal(fast.grid, dense.grid)
    assert np.array_equal(fast.failed, dense.failed)
    assert np.allclose(fast.psi, dense.psi, rtol=1e-10, atol=0.0)


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


@pytest.mark.parametrize("rule", ["krasulina", "oja"])
def test_potential_batch_size_leaves_results_unchanged(monkeypatch, rule):
    def runs():
        return [
            simulate(dist, rule, 1.5, 3, CHUNK + 40, 7, 8, track_max=track_max)
            for dist in (DIST, GAUSS)
            for track_max in (False, True)
        ]

    ref = runs()
    monkeypatch.setattr(harness, "ROWS", 1)  # one potential call per kept step
    for a, b in zip(ref, runs()):
        assert np.array_equal(a.psi, b.psi)
        assert np.array_equal(a.max_psi, b.max_psi)


def test_simulate_holds_one_sample_chunk_at_a_time():
    chunk_bytes = 50 * CHUNK * DIST.d * 8
    for rule in ("krasulina", "oja"):  # the dense engine, the closed form
        tracemalloc.start()
        try:
            simulate(DIST, rule, 1.0, 0, 3 * CHUNK, 50, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * chunk_bytes, rule


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


@pytest.mark.parametrize("rule", ["krasulina", "oja"])  # dense, closed form
def test_simulate_records_every_copy_of_a_repeated_grid_point(rule):
    ref = simulate(DIST, rule, 1.0, 0, 100, 4, 1, grid=np.array([0, 10, 50]))
    grid = np.array([0, 0, 10, 10, 50, 100, 100])
    res = simulate(DIST, rule, 1.0, 0, 100, 4, 1, grid=grid)
    assert np.array_equal(res.grid, grid)
    assert np.array_equal(res.psi, ref.psi[:, [0, 0, 1, 1, 2, 3, 3]])
    listed = simulate(DIST, rule, 1.0, 0, 100, 4, 1, grid=[0, 10, 50])
    assert np.array_equal(listed.grid, ref.grid)
    assert np.array_equal(listed.psi, ref.psi)
    with pytest.raises(ValueError, match="nondecreasing"):
        simulate(DIST, rule, 1.0, 0, 100, 4, 1, grid=np.array([50, 10]))


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


def test_csv_writer_and_reader_round_trip():
    buf = io.StringIO()
    rows = [[1, 0.1, np.float64(1e-17), "a, b"], [2, 3.0, np.float32(0.5), ""]]
    write_csv(buf, ["n", "x", "y", "note"], rows, comments=["one", "two\nlines"], trailer=["end"])
    text = buf.getvalue()
    assert text == (
        "# one\n# two\n# lines\nn,x,y,note\n"
        '1,0.1,1e-17,"a, b"\n2,3.0,0.5,\n# end\n'
    )
    assert read_csv(io.StringIO(text + "\n")) == [
        ["n", "x", "y", "note"], ["1", "0.1", "1e-17", "a, b"], ["2", "3.0", "0.5", ""]
    ]
