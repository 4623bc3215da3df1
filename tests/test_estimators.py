"""Tests for the single-vector update rules and the block variant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from incpca.distributions import CoordinateDistribution, random_unit_vector, trial_rng
from incpca.estimators import (
    KRASULINA,
    OJA,
    RENORM_THRESHOLD,
    BlockState,
    EstimatorState,
    InitError,
    LearningRate,
    block_oja_step,
    init_vector,
    krasulina_update,
    oja_update,
    step,
    xi,
    z_increment,
)
from incpca.linalg import _einsum


def test_learning_rate_schedule():
    lr = LearningRate(c=2.0)
    assert lr.gamma(1) == 2.0
    assert lr.gamma(4) == 0.5
    with pytest.raises(ValueError):
        LearningRate(c=0.0)


def test_krasulina_orthogonal_input_is_noop():
    v = np.array([1.0, 0.0])
    x = np.array([0.0, 1.0])
    assert np.array_equal(krasulina_update(v, x, 0.1), v)


def test_krasulina_hand_worked_update():
    v = np.array([1.0, 1.0])
    x = np.array([1.0, 0.0])
    # xi = (v.x) x - ((v.x)^2/|v|^2) v = (0.5, -0.5)
    assert np.allclose(krasulina_update(v, x, 0.1), [1.05, 0.95], atol=1e-15)


def test_krasulina_aligned_input_is_noop():
    v = np.array([1.0, 0.0])
    x = np.array([1.0, 0.0])
    for gamma in (0.01, 0.5, 2.0):
        assert np.array_equal(krasulina_update(v, x, gamma), v)


def test_oja_hand_worked_update():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    x = np.array([1.0, 0.0])
    out = oja_update(v, x, 0.1)
    assert np.allclose(out, [0.73994007, 0.67267279], atol=1e-8)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-15)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_xi_orthogonal_to_v_with_bounded_norm(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 9))
    v = rng.standard_normal(d)
    x = rng.standard_normal(d)
    x /= max(np.linalg.norm(x), 1e-9)  # |x|^2 <= B = 1
    s = xi(v, x)
    assert abs(s @ v) <= 1e-10 * max(np.linalg.norm(s) * np.linalg.norm(v), 1e-30)
    assert s @ s <= (1.0 / 4.0) * (v @ v) * (1 + 1e-12)


def test_krasulina_norm_never_decreases():
    rng = np.random.default_rng(17)
    v = rng.standard_normal(5)
    for _ in range(500):
        x = rng.standard_normal(5)
        nxt = krasulina_update(v, x, 0.05)
        assert np.linalg.norm(nxt) >= np.linalg.norm(v) - 1e-12
        v = nxt


def test_z_increment_matches_definition():
    rng = np.random.default_rng(23)
    v = rng.standard_normal(4)
    x = rng.standard_normal(4)
    vstar = np.eye(4)[0]
    gamma = 0.3
    expect = 2.0 * gamma * (v @ vstar) * (xi(v, x) @ vstar) / (v @ v)
    assert z_increment(v, x, gamma, vstar) == pytest.approx(expect, rel=1e-12)


def test_z_increment_rejects_a_zero_v_like_xi():
    x = np.ones((3, 4))
    for v in (np.zeros(4), np.vstack([np.ones(4), np.zeros(4), np.ones(4)])):
        with pytest.raises(ValueError, match="xi undefined for the zero vector"):
            z_increment(v, x, 0.1, np.eye(4)[0])


def test_z_increment_rows_do_not_depend_on_the_batch():
    # a rotated v* makes every product inexact, so a BLAS product over the
    # batch would round some rows differently from single-row calls
    rng = np.random.default_rng(37)
    v_star = np.linalg.qr(rng.standard_normal((5, 5)))[0][:, 0]
    V = rng.standard_normal((64, 5))
    X = rng.standard_normal((64, 5))
    gamma = rng.uniform(0.01, 1.0, 64)
    batch = z_increment(V, X, gamma, v_star)
    block = z_increment(V[0], X, 0.3, v_star)
    for i in range(64):
        assert batch[i] == z_increment(V[i], X[i], gamma[i], v_star)
        assert block[i] == z_increment(V[0], X[i], 0.3, v_star)


def test_batched_updates_match_loop():
    rng = np.random.default_rng(29)
    V = rng.standard_normal((6, 4))
    X = rng.standard_normal((6, 4))
    gamma = 0.2
    batch_k = krasulina_update(V, X, gamma)
    batch_o = oja_update(V / np.linalg.norm(V, axis=1, keepdims=True), X, gamma)
    vstar = np.eye(4)[0]
    batch_xi = xi(V, X)
    batch_z = z_increment(V, X, gamma, vstar)
    # one state against a block of samples, as the Monte Carlo checks use it
    block_xi = xi(V[0], X)
    block_z = z_increment(V[0], X, gamma, vstar)
    for i in range(6):
        assert np.array_equal(batch_k[i], krasulina_update(V[i], X[i], gamma))
        vi = V[i] / np.linalg.norm(V[i])
        assert np.array_equal(batch_o[i], oja_update(vi, X[i], gamma))
        assert np.array_equal(batch_xi[i], xi(V[i], X[i]))
        assert batch_z[i] == z_increment(V[i], X[i], gamma, vstar)
        assert np.array_equal(block_xi[i], xi(V[0], X[i]))
        assert block_z[i] == z_increment(V[0], X[i], gamma, vstar)
    with pytest.raises(ValueError):
        xi(np.vstack([V[:2], np.zeros(4)]), X[:3])


@pytest.mark.parametrize("shape", [(7,), (50, 7)], ids=["vector", "rows"])
def test_in_place_kernels_keep_the_written_out_bits(shape):
    rng = np.random.default_rng(41)
    V, X = rng.standard_normal(shape), rng.standard_normal(shape)
    U = V / np.sqrt(_einsum("...i,...i->...", V, V))[..., None]
    V0, U0, X0 = V.copy(), U.copy(), X.copy()
    gamma = 0.37
    dot = _einsum("...i,...i->...", V, X)
    nsq = _einsum("...i,...i->...", V, V)
    ref_k = V + gamma * (dot[..., None] * X - (dot * dot / nsq)[..., None] * V)
    W = U + (gamma * _einsum("...i,...i->...", U, X))[..., None] * X
    ref_o = W / np.sqrt(_einsum("...i,...i->...", W, W))[..., None]
    assert np.array_equal(krasulina_update(V, X, gamma), ref_k)
    assert np.array_equal(oja_update(U, X, gamma), ref_o)
    # the in-place arithmetic writes only into arrays the kernels made
    assert np.array_equal(V, V0) and np.array_equal(U, U0) and np.array_equal(X, X0)


def test_step_dispatch_and_state_bookkeeping():
    lr = LearningRate(c=1.0)
    v0 = np.array([1.0, 1.0])
    st_k = EstimatorState(V=v0, n=9, rule=KRASULINA, lr=lr)
    nxt = step(st_k, np.array([1.0, 0.0]))
    assert nxt.n == 10
    assert np.array_equal(nxt.V, krasulina_update(v0, np.array([1.0, 0.0]), 0.1))
    st_o = EstimatorState(V=v0 / np.linalg.norm(v0), n=9, rule=OJA, lr=lr)
    nxt_o = step(st_o, np.array([1.0, 0.0]))
    assert np.linalg.norm(nxt_o.V) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
@pytest.mark.parametrize("rule", [KRASULINA, OJA])
def test_step_rejects_a_sample_that_makes_the_state_non_finite(rule, bad):
    state = EstimatorState(V=np.array([0.6, 0.8]), n=0, rule=rule, lr=LearningRate(c=1.0))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite and nonzero"):
        step(state, np.array([bad, 1.0]))
    # the constructor runs the same checks (1e200 squared overflows)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite and nonzero"):
        EstimatorState(V=np.array([bad, bad]), n=0, rule=rule, lr=LearningRate(c=1.0))


def test_krasulina_renormalizes_a_state_past_the_threshold():
    v = np.array([3e100, 4e100])
    x = np.array([0.3, -0.7])
    state = EstimatorState(V=v, n=4, rule=KRASULINA, lr=LearningRate(c=1.0))
    V = krasulina_update(v, x, 0.2)
    assert np.linalg.norm(V) > RENORM_THRESHOLD
    assert np.array_equal(step(state, x).V, V / np.linalg.norm(V))


def test_oja_state_requires_unit_norm():
    lr = LearningRate(c=1.0)
    with pytest.raises(ValueError):
        EstimatorState(V=np.array([2.0, 0.0]), n=0, rule=OJA, lr=lr)


def test_update_stays_in_span():
    rng = np.random.default_rng(31)
    for _ in range(50):
        v = rng.standard_normal(5)
        x = rng.standard_normal(5)
        nxt = krasulina_update(v, x, 0.2)
        # residual after projecting onto span(v, x)
        basis = np.linalg.qr(np.stack([v, x], axis=1))[0]
        resid = nxt - basis @ (basis.T @ nxt)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(nxt)


class TestInitVector:
    def test_random_unit(self):
        v = init_vector("random_unit", d=6, rng=np.random.default_rng(0))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_first_point(self):
        dist = CoordinateDistribution(p=0.3, sigma=0.5, d=6)
        v = init_vector("first_point", d=6, dist=dist, rng=np.random.default_rng(1))
        assert np.count_nonzero(v) == 1

    def test_average_k_can_cancel(self):
        class TwoPoint:
            def sample_block(self, rng, m):
                out = np.zeros((m, 2))
                out[:, 0] = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
                return out

        with pytest.raises(InitError):
            init_vector(
                "average_k", d=2, dist=TwoPoint(), rng=np.random.default_rng(2), k=2
            )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            init_vector("nope", d=3, rng=np.random.default_rng(0))


def _reference_mgs(W, rng):
    """Gram-Schmidt as first written: np.sqrt norms, a projection after every row."""
    p, d = W.shape
    collapses = 0
    for j in range(p):
        w = W[j]
        norm = float(np.sqrt(_einsum("i,i->", w, w)))
        if norm < 1e-12:
            collapses += 1
            while True:
                w = random_unit_vector(d, rng)
                for q in W[:j]:
                    w = w - _einsum("i,i->", q, w) * q
                norm = float(np.sqrt(_einsum("i,i->", w, w)))
                if norm >= 1e-6:
                    break
        w = np.divide(w, norm, out=W[j])
        rest = W[j + 1 :]
        rest -= (rest @ w)[:, None] * w
    return collapses


def _reference_block_step(bstate, x):
    """The block step with `_reference_mgs`, its successor built by BlockState's constructor."""
    x = np.asarray(x, dtype=float)
    n = bstate.n + 1
    Vt = bstate.V.T
    W = Vt + (bstate.lr.gamma(n) * _einsum("...i,...i->...", Vt, x))[..., None] * x
    collapses = _reference_mgs(W, bstate._rng)
    return BlockState(
        V=W.T,
        n=n,
        lr=bstate.lr,
        collapse_events=bstate.collapse_events + collapses,
        _rng=bstate._rng,
    )


class TestBlockOja:
    def test_orthonormality_preserved(self):
        rng = np.random.default_rng(41)
        V = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        bstate = BlockState(V=V, n=0, lr=LearningRate(c=1.0))
        for _ in range(2000):
            x = rng.standard_normal(8) * 0.3
            bstate = block_oja_step(bstate, x)
            G = bstate.V.T @ bstate.V
            assert np.abs(G - np.eye(3)).max() <= 1e-10

    def test_single_column_matches_vector_rule_bitwise(self):
        rng = np.random.default_rng(43)
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        lr = LearningRate(c=1.0)
        bstate = BlockState(V=v.reshape(-1, 1).copy(), n=0, lr=lr)
        state = EstimatorState(V=v.copy(), n=0, rule=OJA, lr=lr)
        for _ in range(300):
            x = rng.standard_normal(5)
            bstate = block_oja_step(bstate, x)
            state = step(state, x)
            assert np.array_equal(bstate.V[:, 0], state.V)

    def test_matches_qr_reference_on_ac10_data(self):
        # Gram-Schmidt of the grown frame is its QR factor with R's diagonal > 0
        rng = np.random.default_rng(42)
        V = np.linalg.qr(rng.standard_normal((20, 3)))[0]
        bstate = BlockState(V=V, n=0, lr=LearningRate(c=1.0))
        dist = CoordinateDistribution(p=0.3, sigma=0.5, d=20)
        data_rng = trial_rng(42, 0)
        worst = 0.0
        for n in range(1, 5001):
            x = dist.sample(data_rng)
            bstate = block_oja_step(bstate, x)
            Q, R = np.linalg.qr(V + (1.0 / n) * np.outer(x, x @ V))
            V = Q * np.sign(np.diag(R))
            worst = max(worst, np.abs(bstate.V - V).max())
        assert worst <= 1e-9

    def test_input_frame_is_never_written(self):
        rng = np.random.default_rng(47)
        bstate = BlockState(
            V=np.linalg.qr(rng.standard_normal((6, 3)))[0],
            n=0,
            lr=LearningRate(c=1.0),
        )
        for x in rng.standard_normal((20, 6)):
            kept = bstate.V.copy()
            bstate.V.flags.writeable = False  # a write into it would raise
            nxt = block_oja_step(bstate, x)
            assert np.array_equal(bstate.V, kept)
            assert not np.shares_memory(nxt.V, bstate.V)
            bstate = nxt

    def test_a_nan_frame_is_rejected(self):
        with pytest.raises(ValueError, match="orthonormal"):
            BlockState(V=np.full((4, 2), np.nan), n=0, lr=LearningRate(c=1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_sample_raises(self, bad):
        V = np.linalg.qr(np.random.default_rng(53).standard_normal((4, 2)))[0]
        bstate = BlockState(V=V, n=0, lr=LearningRate(c=1.0))
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="orthonormal"):
            block_oja_step(bstate, np.array([0.5, bad, 0.0, 1.0]))

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_steps_match_the_written_out_step_bit_for_bit(self, p):
        rng = np.random.default_rng(42 + p)
        V = np.linalg.qr(rng.standard_normal((20, p)))[0]
        lr = LearningRate(c=1.0)
        bstate = BlockState(V=V, n=0, lr=lr, _rng=np.random.default_rng(p))
        ref = BlockState(V=V, n=0, lr=lr, _rng=np.random.default_rng(p))
        dist = CoordinateDistribution(p=0.3, sigma=0.5, d=20)
        for x in dist.sample_block(trial_rng(42, p), 3000):
            bstate, ref = block_oja_step(bstate, x), _reference_block_step(ref, x)
            assert np.array_equal(bstate.V, ref.V)
        assert (bstate.n, bstate.collapse_events) == (ref.n, ref.collapse_events) == (3000, 0)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
            [[0.0, 0.0, 0.0], [1.0, 2.0, 0.0]],
            [[1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]],
        ],
        ids=["second-of-two", "first", "middle", "last"],
    )
    def test_collapse_repair_matches_the_written_out_mgs_bit_for_bit(self, rows):
        from incpca.estimators import _mgs

        W, W_ref = np.array(rows), np.array(rows)
        rng, ref_rng = np.random.default_rng(7), np.random.default_rng(7)
        assert _mgs(W, rng) == _reference_mgs(W_ref, ref_rng) == 1
        assert np.array_equal(W, W_ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_a_finite_sample_that_leaves_the_frame_off_orthonormal_raises(self):
        # finite throughout, and the frame keeps squared norm 2.0; only the Gram check sees
        # the 5e-7 drift that Gram-Schmidt leaves at this scale
        V = np.linalg.qr(np.random.default_rng(53).standard_normal((4, 2)))[0]
        bstate = BlockState(V=V, n=0, lr=LearningRate(c=1.0))
        with pytest.raises(ValueError, match="orthonormal"):
            block_oja_step(bstate, 1e5 * np.array([1.0, 0.3, -0.2, 1e-6]))

    @pytest.mark.parametrize(
        "V", [np.ones(3), np.ones((2, 2, 1)), np.zeros((3, 0))], ids=["1-d", "3-d", "no-column"]
    )
    def test_a_malformed_frame_shape_is_rejected(self, V):
        with pytest.raises(ValueError, match="2-D"):
            BlockState(V=V, n=0, lr=LearningRate(c=1.0))

    def test_collapse_is_repaired_and_counted(self):
        from incpca.estimators import _mgs

        e1 = np.array([1.0, 0.0, 0.0])
        W = np.array([e1, 1.5 * e1])
        collapses = _mgs(W, np.random.default_rng(7))
        assert collapses == 1
        V = W.T
        assert np.abs(V.T @ V - np.eye(2)).max() <= 1e-10
