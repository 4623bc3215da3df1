"""Tests for the experiment harness: determinism, aggregation, CSV output."""

import io
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incpca import estimators, harness, linalg, verify
from incpca.distributions import (
    CoordinateDistribution,
    GaussianSpectrum,
    random_unit_vector,
    trial_rng,
)
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
# about 400 rejections in 7 trials of CHUNK + 40 steps
TIGHT = GaussianSpectrum(eigenvalues=np.array([1.0, 0.5, 0.25]), clip_radius=6.0)


def budgets(T, d):
    """CHUNK_BYTES values at which a (T, d) run draws every chunk whole, or
    in sub-blocks of 1, 2, 7 or CHUNK - 1 steps (the last leaves a 1-step tail)."""
    return [CHUNK * T * d * 8] + [S * T * d * 8 for S in (1, 2, 7, CHUNK - 1)]


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
            V=v, n=n_o, rule=rule, lr=estimators.LearningRate(c=c)
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


# clip radius below the trace, so the rejection loop runs on most rows
CLIPPED = GaussianSpectrum(ROTATED.eigenvalues, rotation=ROTATED.rotation, clip_radius=1.0)


def _chunk(dist, trial_ids, m, steps):
    """The (trials, m, d) rows that _chunk_blocks yields for an m-step chunk, trial-major.

    The buffer holds `steps` steps: the whole chunk when steps >= m, and
    sub-blocks otherwise.  Every yielded block is a view of it.
    """
    buf = np.full((steps, len(trial_ids), dist.d), np.nan)
    blocks = []
    for X in harness._chunk_blocks(dist, [trial_rng(3, t) for t in trial_ids], m, buf):
        assert np.shares_memory(X, buf) and X.flags.c_contiguous
        blocks.append(X.copy())
    if steps > m:
        assert np.isnan(buf[m:]).all()  # the steps past the chunk are not written
    return np.concatenate(blocks).transpose(1, 0, 2)


@pytest.mark.parametrize("T", [1, 7])
def test_chunk_rows_do_not_depend_on_the_split(monkeypatch, T):
    assert CLIPPED.sample_block(trial_rng(3, 0), 50, return_rejections=True)[1] > 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for dist in (CLIPPED, DIST):
            ref = np.stack([dist.sample_block(trial_rng(3, t), 50) for t in range(T)])
            for workers in (1, 2, 3):  # T=7 over 2 or 3 parts is uneven
                monkeypatch.setattr(harness, "CPUS", workers)
                for steps in (50, 64, 7, 1):  # whole chunks, sub-blocks
                    got = _chunk(dist, range(T), 50, steps)
                    assert np.array_equal(got, ref), (dist, workers, steps)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_step_major_chunk_holds_the_same_bits_as_a_trial_major_one(monkeypatch, workers):
    # each trial's rows are copied into its strided column; alone, a trial's
    # column is contiguous.  7 trials are copied one at a time, 200 in groups
    # of 3, where parts of 100 or 66-67 trials end in a shorter group
    assert [T // harness.SCRATCH_SHARE for T in (7, 200)] == [0, 3]
    monkeypatch.setattr(harness, "CPUS", workers)
    m = 50
    for T in (7, 200):
        for dist in (CLIPPED, DIST):
            for steps in (m, 7):  # a whole chunk, 7-step sub-blocks with a 1-step tail
                alone = np.concatenate([_chunk(dist, [t], m, steps) for t in range(T)])
                got = _chunk(dist, range(T), m, steps)
                assert np.array_equal(got, alone), (T, dist, steps)


@pytest.mark.parametrize("dist", [GAUSS, DIST], ids=["gaussian", "coordinate"])
def test_trajectories_steps_through_one_chunk_layout_per_source(dist):
    V, _, rngs = harness.init_states(dist, "oja", "random_unit", None, 0, range(5))
    steps = harness.trajectories(dist, "oja", 1.0, 0, CHUNK + 3, V, rngs)
    contiguous = {x.flags.c_contiguous for _, _, x, _, _ in steps}
    # every source's samples are one contiguous (T, d) block per step
    assert contiguous == {True}


@pytest.mark.parametrize("rule", ["krasulina", "oja"])
@pytest.mark.parametrize(
    "dist", [GAUSS, ROTATED, DIST], ids=["gaussian", "rotated", "coordinate"]
)
def test_simulate_does_not_depend_on_the_cpu_count(monkeypatch, dist, rule):
    runs = []
    for budget in (harness.CHUNK_BYTES, 7 * 7 * dist.d * 8):  # whole chunks, 7-step sub-blocks
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(harness, "CPUS", cpus)
            runs.append(simulate(dist, rule, 1.5, 0, CHUNK + 40, 7, 8, track_max=True))
    for res in runs[1:]:
        assert np.array_equal(res.psi, runs[0].psi)
        assert np.array_equal(res.max_psi, runs[0].max_psi)


def test_the_named_gaussian_draw_is_rejected():
    # at master seed 0, trial 2 rejects the row of step 1158 at GAUSS's
    # default clip radius, so the sub-block path replays its first chunk
    rng = trial_rng(0, 2)
    random_unit_vector(GAUSS.d, rng)  # the random_unit init
    rows = rng.standard_normal((CHUNK, GAUSS.d)) * np.sqrt(GAUSS.eigenvalues)
    assert np.nonzero(np.einsum("ij,ij->i", rows, rows) > GAUSS.clip_radius)[0].tolist() == [1157]
    rejected = sum(TIGHT.sample_block(trial_rng(0, t), CHUNK + 40, return_rejections=True)[1]
                   for t in range(7))
    assert rejected > 300


def test_a_whole_chunk_that_rejects_rows_is_drawn_once(monkeypatch):
    # 7 trials of chunks of 2048, 2048 and 904 steps: one sample_block call
    # per trial and chunk, though each chunk rejects rows
    dist = GaussianSpectrum(eigenvalues=np.array([2.0, 1.0, 0.5]), clip_radius=4.0)
    sample_block, calls = GaussianSpectrum.sample_block, []

    def recorded(self, rng, m, **kwargs):
        block, rejected = sample_block(self, rng, m, return_rejections=True)
        calls.append((m, rejected))
        return (block, rejected) if kwargs else block

    monkeypatch.setattr(GaussianSpectrum, "sample_block", recorded)
    simulate(dist, "oja", 1.0, 0, 5000, 7, 0)
    assert len(calls) == 21 and sum(m for m, _ in calls) == 35_000
    assert all(rejected > 0 for _, rejected in calls)


@pytest.mark.parametrize("rule", ["krasulina", "oja"])
@pytest.mark.parametrize(
    "dist", [GAUSS, TIGHT, ROTATED, DIST], ids=["gaussian", "tight-clip", "rotated", "coordinate"]
)
def test_sub_blocks_keep_every_bit_of_simulate(monkeypatch, dist, rule):
    # CHUNK + 40 steps: a full chunk, then one of 40 steps; one thread, as
    # the cpu-count test covers the threads
    monkeypatch.setattr(harness, "CPUS", 1)
    runs = []
    for budget in budgets(7, dist.d):
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        runs.append(simulate(dist, rule, 1.5, 0, CHUNK + 40, 7, 0, track_max=True))
    for res in runs[1:]:
        assert np.array_equal(res.psi, runs[0].psi)
        assert np.array_equal(res.max_psi, runs[0].max_psi)


@pytest.mark.parametrize("dist", [ROTATED, DIST], ids=["rotated", "coordinate"])
@pytest.mark.parametrize("rule", ["krasulina", "oja"])
def test_sub_blocks_keep_the_pathwise_report(monkeypatch, dist, rule):
    reports = []
    for budget in budgets(5, dist.d)[::2]:  # whole, 2-step and CHUNK - 1 step sub-blocks
        monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
        reports.append(verify.check_pathwise(dist, rule, CHUNK + 40, 5, 3))
    assert reports[0].passed
    assert reports[1:] == reports[:1] * 2


def test_sub_blocks_keep_the_run_csv(monkeypatch, tmp_path):
    for dist in (GAUSS, TIGHT, DIST):
        cfg = ExperimentConfig(dist=dist, c=2.0, horizon=CHUNK + 40, trials=7, grid_points=30)
        files = []
        for budget in budgets(7, dist.d)[::2]:
            monkeypatch.setattr(harness, "CHUNK_BYTES", budget)
            files.append(tmp_path / f"{len(files)}.csv")
            write_experiment_csv(files[-1], cfg, run_experiment(cfg))
        assert files[1].read_bytes() == files[0].read_bytes() == files[2].read_bytes()


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


def test_one_part_runs_on_the_calling_thread_and_starts_no_thread():
    threads = threading.active_count()
    seen = []

    def fill(rows, stop):
        seen.append((rows, threading.current_thread(), threading.active_count(), stop.is_set()))

    harness._on_threads(fill, 5, 1)
    assert seen == [(range(5), threading.current_thread(), threads, False)]


@pytest.mark.parametrize("failing", [0, 1, 2], ids=["calling", "worker", "last-worker"])
def test_a_part_that_raises_stops_the_others_and_raises_after_they_end(failing):
    # three one-row parts; the others wait for stop, then take a while to end
    threads = threading.active_count()
    ended = []

    def fill(rows, stop):
        if rows[0] == failing:
            raise RuntimeError(f"part {failing} failed")
        assert stop.wait(10)
        time.sleep(0.05)
        ended.append(rows[0])

    with pytest.raises(RuntimeError, match=f"part {failing} failed"):
        harness._on_threads(fill, 3, 3)
    assert sorted(ended) == [r for r in range(3) if r != failing]
    assert threading.active_count() == threads


def test_ctrl_c_while_the_calling_thread_waits_stops_every_worker():
    # the calling thread's part has ended; Ctrl-C arrives while it waits for
    # two workers, which end only once stop is set
    threads = threading.active_count()
    waiting, ended = threading.Event(), []

    def fill(rows, stop):
        if rows[0] == 0:
            waiting.set()
            return
        if rows[0] == 1:
            assert waiting.wait(10)
            time.sleep(0.1)  # the calling thread is now waiting
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        assert stop.wait(10)
        time.sleep(0.05)
        ended.append(rows[0])

    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            harness._on_threads(fill, 3, 3)
    finally:
        signal.signal(signal.SIGINT, handler)
    assert sorted(ended) == [1, 2]
    assert threading.active_count() == threads


def test_krasulina_records_small_potentials_as_positive():
    # a random_unit start keeps an off-axis part, so no recorded value is 0
    dist = CoordinateDistribution(p=0.2, sigma=0.5, d=10)
    res = simulate(dist, "krasulina", 11.25, 0, 5000, 10, 1)
    assert res.psi.min() > 0.0
    assert res.psi[:, -1].min() < 1e-16  # where 1 - (v.v*)^2/|v|^2 reads 0


# eigenvalues 1, 0.5/k for k = 1..4 (the gauss_wide spectrum cut to d = 5)
GAUSS_5 = GaussianSpectrum(eigenvalues=np.array([1.0] + [0.5 / k for k in range(1, 5)]))


@pytest.mark.parametrize("rule", ["krasulina", "oja"])
def test_gaussian_potential_reaches_its_one_over_n_constant(rule):
    # Linearize either rule at v* = e_1 for N(0, diag(lam)) with gamma_n = c/n:
    # the off-axis coordinate w_j of the unit state follows
    #   w_j <- (1 - gamma (lam_1 - lam_j)) w_j + gamma x_1 x_j,
    # and E[(x_1 x_j)^2] = lam_1 lam_j, so to first order
    #   E[w_j^2] <- (1 - 2 gamma (lam_1 - lam_j)) E[w_j^2] + gamma^2 lam_1 lam_j.
    # Put n E[w_j^2] -> C_j: C_j = c^2 lam_1 lam_j / (2c (lam_1 - lam_j) - 1)
    # when 2c (lam_1 - lam_j) > 1, and Psi = sum_j w_j^2 to leading order, so
    # n E[Psi_n] -> C = sum_{j >= 2} C_j (Kushner & Yin, Stochastic
    # Approximation and Recursive Algorithms and Applications, 2003).  Here
    # c_o = 4 gives c = 4 and C = 4.27.  (On coordinate data x_1 x_j = 0, so
    # C = 0 and the potential falls like n^(-c_o) instead.)
    lam = GAUSS_5.eigenvalues
    c = 4.0 / (2.0 * (lam[0] - lam[1]))
    C = float(np.sum(c**2 * lam[0] * lam[1:] / (2.0 * c * (lam[0] - lam[1:]) - 1.0)))
    assert C == pytest.approx(4.27, abs=0.01)
    trials, horizon = 200, 20_000
    res = simulate(GAUSS_5, rule, c, 0, horizon, trials, 0, grid=[horizon])
    scaled = horizon * res.psi[:, -1]
    se = scaled.std(ddof=1) / np.sqrt(trials)
    # 3 standard errors over the trials, plus 5% of C for what the
    # linearization drops: terms of relative order c/n and Psi (both about
    # 2e-4 at the horizon), the mass the clip at 10 * trace removes (below
    # 1e-5) and the start-up transient, which decays like n^-3 against C/n
    assert abs(scaled.mean() - C) <= 3.0 * se + 0.05 * C, (scaled.mean(), se)


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


def _per_trial_oja_coordinate_states(dist, c, n_o, horizon, V, rngs, grid):
    """Reference: harness._oja_coordinate_states with one sample_block call per trial."""
    T, d = V.shape
    points = np.unique(grid[grid > n_o])
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(V))
    n = n_o
    while n < horizon:
        m = min(CHUNK, horizon - n)
        coords = np.empty((T, m), dtype=np.intp)
        for row, rng in enumerate(rngs):
            # each row has one nonzero coordinate: the sampled one
            coords[row] = np.abs(dist.sample_block(rng, m)).argmax(axis=1)
        steps = np.arange(n + 1, n + m + 1)
        gamma = c / steps
        logs = np.where(coords == 0, np.log1p(gamma), np.log1p(gamma * dist.sigma**2))
        seg = np.searchsorted(points, steps)
        nseg = int(seg[-1]) + 1
        bins = (np.arange(T)[:, None] * nseg + seg) * d + coords
        sums = np.bincount(bins.ravel(), weights=logs.ravel(), minlength=T * nseg * d)
        cum = logw[:, None, :] + np.cumsum(sums.reshape(T, nseg, d), axis=1)
        n += m
        done = int(np.searchsorted(points, n, side="right"))
        for j in range(done):
            L = cum[:, j]
            yield int(points[j]), np.exp(L - L.max(axis=1, keepdims=True))
        points = points[done:]
        logw = cum[:, -1]


@pytest.mark.parametrize("trials", [1, 3, 100])
@pytest.mark.parametrize("d", [2, 10])
def test_closed_form_oja_keeps_the_bits_of_a_draw_per_trial(monkeypatch, trials, d):
    dist = CoordinateDistribution(p=0.3, sigma=0.5, d=d)
    args = (dist, "oja", 2.0, 37, 2 * CHUNK + 301, trials, 5)
    batched = simulate(*args)
    monkeypatch.setattr(harness, "_oja_coordinate_states", _per_trial_oja_coordinate_states)
    per_trial = simulate(*args)
    assert np.array_equal(batched.grid, per_trial.grid)
    assert np.array_equal(batched.psi, per_trial.psi)


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


def test_a_chunk_over_the_budget_is_drawn_in_bounded_memory(monkeypatch):
    # a whole chunk would take 65.5 MB; readers that replay a chunk after a
    # rejection hold its full draw until the chunk ends
    dist, T = GaussianSpectrum(eigenvalues=np.linspace(2.0, 0.2, 10)), 400
    monkeypatch.setattr(harness, "CHUNK_BYTES", 16 * 2**20)
    heights = []
    sample_block = GaussianSpectrum.sample_block

    def recording(self, rng, m, **kwargs):
        heights.append(m)
        return sample_block(self, rng, m, **kwargs)

    monkeypatch.setattr(GaussianSpectrum, "sample_block", recording)
    tracemalloc.start()
    try:
        simulate(dist, "oja", 1.0, 0, 2 * CHUNK, T, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    replayed = heights.count(CHUNK) * CHUNK * dist.d * 8
    assert peak < 1.5 * harness.CHUNK_BYTES + replayed


@pytest.mark.parametrize("trials", [50, 400])
def test_check_pathwise_holds_one_sample_chunk_at_a_time(trials):
    chunk_bytes = trials * CHUNK * DIST.d * 8
    tracemalloc.start()
    try:
        rep = verify.check_pathwise(DIST, "krasulina", 3 * CHUNK, trials, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
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


@pytest.mark.parametrize("rule", ["krasulina", "oja"])
def test_simulate_rejects_a_horizon_below_the_start_time(rule):
    with pytest.raises(ValueError, match="horizon must be >= n_o"):
        simulate(DIST, rule, 1.0, 10, 5, 2, 0)
    with pytest.raises(ValueError, match="c must be positive"):
        simulate(DIST, rule, float("nan"), 10, 20, 2, 0)
    # at horizon == n_o no step runs, and the one grid point holds the initial states
    res = simulate(DIST, rule, 1.0, 10, 10, 2, 0)
    V, _, _ = harness.init_states(DIST, rule, "random_unit", None, 0, range(2))
    assert res.grid.tolist() == [10]
    assert np.array_equal(res.psi[:, 0], linalg.potential(V, DIST.ground_truth().v_star))


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
