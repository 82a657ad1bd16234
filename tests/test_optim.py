"""Optimizers against hand-computed single steps and simulation oracles."""

import numpy as np
import pytest

from munmt.errors import ConfigError, NumericError
from munmt.model import ModelParams
from munmt.config import LrSpec
from munmt.optim import BLOCK, OptimState, lr_at, optimizer_step


def _single(value=1.0):
    params = ModelParams({"p": np.asarray([value], dtype=np.float64)})
    return params


def _step(params, grads, state, **kw):
    """One step from `grads` ({name: array}; a missing name is zero), written
    into `params.grad` as backward would leave it."""
    params.grad[...] = 0
    for name, g in grads.items():
        params.tensors[name].grad[...] = g
    optimizer_step(params, state, **kw)


def test_adam_first_step_hand_arithmetic():
    # independent longhand: m=0.1*g, v=0.001*g^2, mhat=m/0.1, vhat=v/0.001,
    # p -= lr * mhat / (sqrt(vhat) + eps)
    params = _single(1.0)
    state = OptimState.init(params, "adam")
    _step(params, {"p": np.asarray([1.0])}, state, lr=0.1)
    m = 0.1 * 1.0
    v = 0.001 * 1.0
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    expect = 1.0 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert params.arrays["p"][0] == pytest.approx(expect, rel=1e-12)


def test_zero_grad_weight_decay_only():
    params = _single(1.0)
    state = OptimState.init(params, "adam")
    optimizer_step(params, state, lr=0.0002, weight_decay=0.2)
    assert params.arrays["p"][0] == pytest.approx(1.0 * (1.0 - 0.0002 * 0.2), rel=1e-15)


def test_adam_three_steps_simulation_oracle():
    rng = np.random.default_rng(7)
    shape = (3, 4)
    p0 = rng.normal(size=shape)
    gs = [rng.normal(size=shape) for _ in range(3)]
    params = ModelParams({"w": p0.copy()})
    state = OptimState.init(params, "adam")
    lr, wd = 0.01, 0.1
    for g in gs:
        _step(params, {"w": g}, state, lr=lr, weight_decay=wd)
    # oracle simulation written independently
    p, m, v = p0.copy(), np.zeros(shape), np.zeros(shape)
    for t, g in enumerate(gs, start=1):
        p = p * (1 - lr * wd)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p = p - lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    np.testing.assert_allclose(params.arrays["w"], p, rtol=1e-12)
    assert state.step == 3


def test_adamax_simulation_oracle():
    rng = np.random.default_rng(11)
    shape = (5,)
    p0 = rng.normal(size=shape)
    gs = [rng.normal(size=shape) for _ in range(4)]
    params = ModelParams({"w": p0.copy()})
    state = OptimState.init(params, "adamax")
    lr = 0.02
    for g in gs:
        _step(params, {"w": g}, state, lr=lr)
    p, m, u = p0.copy(), np.zeros(shape), np.zeros(shape)
    for t, g in enumerate(gs, start=1):
        m = 0.9 * m + 0.1 * g
        u = np.maximum(0.999 * u, np.abs(g))
        p = p - (lr / (1 - 0.9**t)) * m / (u + 1e-8)
    np.testing.assert_allclose(params.arrays["w"], p, rtol=1e-12)


def test_missing_grad_means_no_update_beyond_decay():
    params = ModelParams({"a": np.asarray([2.0]), "b": np.asarray([3.0])})
    state = OptimState.init(params, "adam")
    _step(params, {"a": np.asarray([1.0])}, state, lr=0.1, weight_decay=0.0)
    assert params.arrays["b"][0] == 3.0
    assert params.arrays["a"][0] != 2.0


def test_step_updates_the_store_that_every_view_shares():
    params = ModelParams({"a": np.zeros((2, 3)), "b": np.ones(4)})
    state = OptimState.init(params, "adam")
    before = params.flat.copy()
    _step(params, {"a": np.ones((2, 3)), "b": np.ones(4)}, state, lr=0.1)
    for k, t in params.tensors.items():
        assert np.shares_memory(t.data, params.flat)
        assert t.data is params.arrays[k]
    assert not np.any(params.flat == before)
    np.testing.assert_array_equal(params.tensors["a"].data.reshape(-1), params.flat[:6])
    np.testing.assert_array_equal(params.tensors["b"].data, params.flat[6:])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        OptimState.init(_single(), "sgd")


def test_determinism_bitwise():
    rng = np.random.default_rng(3)
    p0 = rng.normal(size=(7,)).astype(np.float32)
    g = rng.normal(size=(7,)).astype(np.float32)
    outs = []
    for _ in range(2):
        params = ModelParams({"w": p0.copy()})
        state = OptimState.init(params, "adam")
        for _ in range(5):
            _step(params, {"w": g}, state, lr=0.003, weight_decay=0.05)
        outs.append(params.arrays["w"].copy())
    assert outs[0].tobytes() == outs[1].tobytes()


def test_clip_norm_applied():
    params = ModelParams({"w": np.zeros(4)})
    state = OptimState.init(params, "adam")
    big = np.full(4, 100.0)
    _step(params, {"w": big}, state, lr=0.1, clip_norm=1.0)
    # clipped grad has norm 1, every component 0.5; first adam step moves by
    # lr * sign-ish magnitude ~ lr regardless, so just check state saw clipping
    assert np.allclose(state.m, 0.1 * 0.5, rtol=1e-6)
    np.testing.assert_array_equal(params.grad, big)  # clipping reads, never writes


def _allocating_step(p, g, m, v, t, kind, lr, weight_decay, clip_norm):
    """The textbook update, one temporary array per operation: the step
    evaluates these same expressions into scratch buffers."""
    if clip_norm is not None:
        norm = float(np.sqrt(np.sum(g.astype(np.float64) ** 2)))
        if norm > clip_norm:
            g = g * np.asarray(clip_norm / norm, dtype=g.dtype)
    if weight_decay:
        p *= 1.0 - lr * weight_decay
    m *= 0.9
    m += (1.0 - 0.9) * g
    bc1 = 1.0 - 0.9 ** t
    if kind == "adam":
        v *= 0.999
        v += (1.0 - 0.999) * (g * g)
        denom = np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8
        p -= lr * (m / bc1) / denom
    else:
        np.maximum(0.999 * v, np.abs(g), out=v)
        p -= (lr / bc1) * m / (v + 1e-8)


@pytest.mark.parametrize("kind", ["adam", "adamax"])
@pytest.mark.parametrize("clip_norm", [None, 30.0])
def test_scratch_step_is_bit_identical_to_the_allocating_formula(kind, clip_norm):
    # 50 float32 steps with a varying lr and weight decay; gradient norms
    # spread around the clip norm, so clipped and unclipped steps both occur.
    # The second store is three blocks, the last one partial.
    for n in (1000, 2 * BLOCK + 1000):
        rng = np.random.default_rng(29)
        clip = clip_norm and clip_norm * np.sqrt(n / 1000)
        p0 = rng.normal(size=n).astype(np.float32)
        params = ModelParams({"a": p0[:600].reshape(20, 30), "b": p0[600:]})
        state = OptimState.init(params, kind)
        p, m, v = p0.copy(), np.zeros(n, np.float32), np.zeros(n, np.float32)
        clipped = 0
        for t in range(1, 51):
            g = (rng.normal(size=n) * rng.uniform(0.2, 2.0)).astype(np.float32)
            lr = 1e-3 * t / 50 + 1e-4
            params.grad[...] = g
            optimizer_step(params, state, lr=lr, weight_decay=0.01, clip_norm=clip)
            _allocating_step(p, g, m, v, t, kind, lr, 0.01, clip)
            clipped += clip is not None and np.linalg.norm(g) > clip
            assert params.flat.tobytes() == p.tobytes(), (n, t)
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes(), (n, t)
            np.testing.assert_array_equal(params.grad, g)  # the gradient is only read
        assert clip is None or 0 < clipped < 50


def test_non_finite_gradient_in_the_last_block_writes_nothing():
    n = 2 * BLOCK + 10
    params = ModelParams({"a": np.linspace(-1, 1, n, dtype=np.float32)})
    state = OptimState.init(params)
    params.grad[...] = 0.5
    optimizer_step(params, state, lr=1e-3)
    before = [a.copy() for a in (params.flat, state.m, state.v)]
    params.grad[-3] = np.nan
    with pytest.raises(NumericError):
        optimizer_step(params, state, lr=1e-3, weight_decay=0.1)
    for a, b in zip((params.flat, state.m, state.v), before):
        assert a.tobytes() == b.tobytes()
    assert state.step == 1


# --- learning-rate schedule ---


def test_schedule_interpolation_points():
    s = LrSpec(peak=0.0002, warmup=4000, total=1_200_000)
    assert lr_at(s, 0) == 0.0
    assert lr_at(s, 2000) == pytest.approx(0.0001, rel=1e-12)
    assert lr_at(s, 4000) == pytest.approx(0.0002, rel=1e-12)
    assert lr_at(s, 602_000) == pytest.approx(0.0001, rel=1e-12)
    assert lr_at(s, 1_200_000) == 0.0
    assert lr_at(s, 2_000_000) == 0.0


def test_schedule_piecewise_linear_increments():
    s = LrSpec(peak=0.0002, warmup=4000, total=20_000)
    ulp = 4 * np.finfo(np.float64).eps * s.peak
    ramp = s.peak / s.warmup
    for step in [0, 1, 17, 1999, 3998]:
        d = lr_at(s, step + 1) - lr_at(s, step)
        assert abs(d - ramp) <= ulp
    decay = -s.peak / (s.total - s.warmup)
    for step in [4000, 5000, 19_998]:
        d = lr_at(s, step + 1) - lr_at(s, step)
        assert abs(d - decay) <= ulp


def test_schedule_never_negative_and_peak_bounded():
    s = LrSpec(peak=0.001, warmup=10, total=50)
    vals = [lr_at(s, i) for i in range(80)]
    assert min(vals) >= 0.0
    assert max(vals) == pytest.approx(0.001, rel=1e-12)


def test_schedule_rejects_a_negative_step():
    with pytest.raises(ConfigError):
        lr_at(LrSpec(), -1)
