"""Reverse-mode autodiff against finite differences, hand arithmetic and
the chains of primitives that the fused nodes stand for."""

import numpy as np
import pytest

import chain as T
from munmt import tensor
from munmt.errors import NumericError

from fdutil import REL_TOL, check_grads
from test_acceptance import PRIMS

RNG = np.random.default_rng(20260819)


def randu(*shape):
    return RNG.uniform(-2.0, 2.0, size=shape)


def test_square_gradient_hand_value():
    # d(x*x)/dx at 3 is exactly 6
    x = T.parameter(np.asarray(3.0), "x")
    loss = T.mul(x, x)
    g = T.backward(loss, {"x": x})
    assert g["x"] == pytest.approx(6.0, abs=0.0)


def test_softmax_sum_gradient_is_zero():
    # sum(softmax(x)) == 1 for all x, so the gradient vanishes identically
    x = T.parameter(randu(7), "x")
    loss = T.sum_all(T.softmax(x))
    g = T.backward(loss, {"x": x})
    assert np.max(np.abs(g["x"])) < 1e-12


def test_unreachable_param_gets_zeros():
    x = T.parameter(randu(3), "x")
    y = T.parameter(randu(4, 2), "y")
    loss = T.sum_all(T.mul(x, x))
    g = T.backward(loss, {"x": x, "y": y})
    assert g["y"].shape == (4, 2)
    assert np.all(g["y"] == 0.0)


def test_second_backward_replaces_the_first():
    # x*y reaches both leaves, x*x only x: the second call must leave y at
    # zero and x at exactly 2x, with nothing of the first call added on
    x = T.parameter(randu(3), "x")
    y = T.parameter(randu(3), "y")
    T.backward(T.sum_all(T.mul(x, y)), {"x": x, "y": y})
    assert np.all(y.grad != 0.0)
    g = T.backward(T.sum_all(T.mul(x, x)), {"x": x, "y": y})
    np.testing.assert_array_equal(g["x"], 2.0 * x.data)
    assert np.all(g["y"] == 0.0)


def test_loss_that_is_a_leaf_gets_gradient_one():
    x = T.parameter(np.asarray(2.5), "x")
    g = T.backward(x, {"x": x})
    assert g["x"] == 1.0 and g["x"] is x.grad


def test_negative_zero_gradient_keeps_its_sign():
    # the total is copied into the buffer, not added onto zeros: 0.0 + -0.0 is 0.0
    x = T.parameter(np.asarray(2.5), "x")
    g = T.backward(T.mul(x, T.Tensor(-0.0)), {"x": x})
    assert g["x"] == 0.0 and np.signbit(g["x"])


def test_non_scalar_loss_rejected():
    x = T.parameter(randu(3), "x")
    with pytest.raises(NumericError):
        T.backward(T.mul(x, x), {"x": x})


def test_cycle_guard():
    x = T.parameter(np.asarray(1.0), "x")
    y = T.mul(x, x)
    y.parents = (y, x)  # deliberately corrupt the graph
    with pytest.raises(NumericError):
        T.backward(y, {"x": x})


def test_no_grad_blocks_recording():
    x = T.parameter(randu(3), "x")
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad
    assert y.parents == ()


def test_float32_dtype_preserved():
    a = T.parameter(randu(3, 4).astype(np.float32), "a")
    b = T.parameter(randu(4, 2).astype(np.float32), "b")
    out = T.relu(T.matmul(a, b))
    assert out.dtype == np.float32


# --- per-primitive finite differences -------------------------------------
# c1 (test_acceptance.py) holds the one table of FD cases and runs each seven
# times from one seed as the gate, reporting only its worst error. These runs
# draw a primitive's cases from ten more seeds each, so a failure names it.

CASES = {case.__name__.removeprefix("_case_"): case for case in PRIMS}


def _fd(trial, *names):
    rng = np.random.default_rng(trial)
    for name in names:
        build, leaves = CASES[name](rng)
        worst = check_grads(build, leaves, rng)
        assert worst <= REL_TOL, f"{name}: rel err {worst:.3g}"


@pytest.mark.parametrize("trial", range(10))
def test_add_sub_mul_broadcast_fd(trial):
    _fd(trial, "add", "sub", "mul")


@pytest.mark.parametrize("trial", range(10))
def test_matmul_fd(trial):
    _fd(trial, "matmul", "matmul_batched")


@pytest.mark.parametrize("trial", range(10))
def test_relu_fd(trial):
    _fd(trial, "relu")


@pytest.mark.parametrize("trial", range(10))
def test_softmax_logsoftmax_fd(trial):
    _fd(trial, "softmax", "log_softmax")


@pytest.mark.parametrize("trial", range(10))
def test_layernorm_fd(trial):
    _fd(trial, "layernorm")


@pytest.mark.parametrize("trial", range(10))
def test_embedding_fd_with_repeats(trial):
    _fd(trial, "embedding")


@pytest.mark.parametrize("trial", range(10))
def test_take_along_last_fd(trial):
    _fd(trial, "take_along_last", "take_along_last_repeated")


@pytest.mark.parametrize("trial", range(10))
def test_reshape_transpose_scale_fd(trial):
    _fd(trial, "reshape", "transpose", "scale")


@pytest.mark.parametrize("trial", range(5))
def test_small_network_composition_fd(trial):
    # matmul, relu and layernorm composed, at the shapes a real model uses
    _fd(trial, "matmul_2d", "ffn_sublayer")


def test_gradient_accumulation_on_shared_input():
    # y = x*x + 3x uses x twice; grad = 2x + 3
    x = T.parameter(np.asarray(2.5), "x")
    loss = T.add(T.mul(x, x), T.scale(x, 3.0))
    g = T.backward(loss, {"x": x})
    assert g["x"] == pytest.approx(8.0, abs=1e-12)


# --- fused nodes against the chains of primitives they replace ------------
# Each chain in chain.py is the composition of primitives that a fused node
# stands for.
# In float32 the fused forward and every input gradient must equal the
# chain's byte for byte, not just closely.

NEG = -1e9


def _f32(*shape):
    return randu(*shape).astype(np.float32)


def _outputs_and_grads(build, leaves):
    """Bytes of build's output and of each leaf's gradient; a non-scalar
    output is reduced against fixed weights first."""
    tensors = {k: T.parameter(v.copy(), k) for k, v in leaves.items()}
    out = build(tensors)
    loss = out
    if out.data.ndim:
        weights = np.linspace(-1, 1, out.data.size, dtype=np.float32).reshape(out.shape)
        loss = T.sum_all(T.mul(out, T.Tensor(weights)))
    grads = T.backward(loss, tensors)
    return out.data.tobytes(), {k: g.tobytes() for k, g in grads.items()}


def _key_padding(B, Lk):
    keep = RNG.random((B, Lk)) < 0.6
    keep[:, 0] = True
    return np.where(keep, 0.0, NEG).astype(np.float32)[:, None, None, :]


@pytest.mark.parametrize("lq, lk, mask, H, heads", [
    (5, 7, "padding", 12, 4), (6, 6, "causal", 10, 2), (4, 9, None, 12, 4),
    (1, 8, "padding", 10, 2),
])
def test_fused_attention_is_bit_identical_to_the_chain(lq, lk, mask, H, heads):
    # head sizes of 3 and 5, so the 1/sqrt(dh) scaling rounds
    B = 3
    if mask == "padding":
        mask = _key_padding(B, lk)
    elif mask == "causal":
        mask = np.triu(np.full((lq, lk), NEG, dtype=np.float32), k=1)[None, None]
    leaves = {"q": _f32(B, lq, H), "k": _f32(B, lk, H), "v": _f32(B, lk, H)}
    fused = _outputs_and_grads(
        lambda t: T.attention(t["q"], t["k"], t["v"], heads, mask), leaves)
    chain = _outputs_and_grads(
        lambda t: T.chained_attention(t["q"], t["k"], t["v"], heads, mask), leaves)
    assert fused == chain


@pytest.mark.parametrize("upstream", [1.0, -0.3])
def test_fused_nll_is_bit_identical_to_the_chain(upstream):
    targets = RNG.integers(1, 11, size=(4, 6))
    targets[0, 3:] = 0  # PAD
    targets[2, :] = 0  # a row with nothing to score
    mask = targets != 0
    leaves = {"logits": _f32(4, 6, 11) * 3}
    fused = _outputs_and_grads(
        lambda t: T.scale(T.masked_mean_nll(t["logits"], targets, mask), upstream), leaves)
    chain = _outputs_and_grads(
        lambda t: T.scale(T.chained_nll(t["logits"], targets, mask), upstream), leaves)
    assert fused == chain


def test_fused_nodes_form_no_mask_gradient():
    # the mask is closed over, not a parent: nothing is summed down for it
    q = T.parameter(_f32(2, 3, 4), "q")
    out = T.attention(q, q, q, 2, _key_padding(2, 3))
    assert out.parents == (q, q, q)
    nll = T.masked_mean_nll(q, np.ones((2, 3), dtype=np.int64), np.ones((2, 3), bool))
    assert nll.parents == (q,)


# --- the residual sublayer nodes against the primitive chains -------------


@pytest.mark.parametrize("case", ["causal", "padding", "cross", "bank_row", "row_groups"])
def test_attention_sublayer_is_bit_identical_to_the_chain(case):
    # H = 12 in 4 heads, so the 1/sqrt(3) scaling rounds
    B, L, H, heads = 4, 5, 12, 4
    mask = {"causal": np.triu(np.full((L, L), NEG, dtype=np.float32), k=1)[None, None],
            "padding": _key_padding(B, L), "cross": _key_padding(B, 7),
            "bank_row": _key_padding(B, 7), "row_groups": None}[case]
    bank_rows = {"bank_row": (2,), "row_groups": (1, 2)}.get(case)
    leaves = {"x": _f32(B, L, H), "g": 1 + _f32(H) / 4, "b": _f32(H),
              "wq": _f32(H, H), "wk": _f32(H, H), "wv": _f32(H, H),
              "wo": _f32(H, H) if bank_rows is None else _f32(3, H, H)}
    if case in ("cross", "bank_row"):
        leaves["m"] = _f32(B, 7, H)

    def args(t):
        return ((t["x"], (t["g"], t["b"]), tuple(t[n] for n in ("wq", "wk", "wv", "wo")),
                 heads, mask),
                {"memory": t.get("m"), "bank_rows": bank_rows})

    fused = _outputs_and_grads(lambda t: T.attention_sublayer(*args(t)[0], **args(t)[1]), leaves)
    chain = _outputs_and_grads(lambda t: T.chained_attention_sublayer(*args(t)[0], **args(t)[1]),
                               leaves)
    assert fused == chain


def test_ffn_sublayer_is_bit_identical_to_the_chain():
    leaves = {"x": _f32(3, 5, 12), "g": 1 + _f32(12) / 4, "b": _f32(12),
              "w1": _f32(12, 20), "b1": _f32(20), "w2": _f32(20, 12), "b2": _f32(12)}
    names = ("w1", "b1", "w2", "b2")
    fused = _outputs_and_grads(
        lambda t: T.ffn_sublayer(t["x"], (t["g"], t["b"]), *(t[n] for n in names)), leaves)
    chain = _outputs_and_grads(
        lambda t: T.chained_ffn_sublayer(t["x"], (t["g"], t["b"]), *(t[n] for n in names)), leaves)
    assert fused == chain


@pytest.mark.parametrize("lq, lk, mask", [(5, 7, "padding"), (6, 6, "causal"), (1, 48, None)])
def test_attention_row_max_matches_ndarray_max(monkeypatch, lq, lk, mask):
    # outputs and gradients, not the max itself: of a +0.0/-0.0 tie either
    # zero may come out, and exp maps both to 1
    B, H, heads = 3, 12, 4
    if mask == "padding":
        mask = _key_padding(B, lk)
    elif mask == "causal":
        mask = np.triu(np.full((lq, lk), NEG, dtype=np.float32), k=1)[None, None]
    leaves = {"q": _f32(B, lq, H), "k": _f32(B, lk, H), "v": _f32(B, lk, H)}
    leaves["q"][0] = 0.0  # a row of exactly equal scores
    build = lambda t: T.attention(t["q"], t["k"], t["v"], heads, mask)  # noqa: E731
    fast = _outputs_and_grads(build, leaves)
    monkeypatch.setattr(tensor, "_row_max", lambda p: p.max(axis=-1, keepdims=True))
    assert fast == _outputs_and_grads(build, leaves)


def test_attention_row_max_propagates_nan():
    q = _f32(2, 3, 4)
    q[1, 2, 0] = np.nan
    out = T.attention(T.Tensor(q), T.Tensor(_f32(2, 5, 4)), T.Tensor(_f32(2, 5, 4)), 2)
    assert np.isnan(out.data[1, 2]).any() and not np.isnan(out.data[0]).any()


def test_two_group_nll_is_the_sum_of_two_calls():
    # the groups share their padded length here, so each half's value and
    # gradient are those of a separate call, and the means add as `add` adds
    targets = RNG.integers(1, 11, size=(6, 5))
    targets[0, 2:] = 0
    targets[4, 1:] = 0
    mask = targets != 0
    logits = _f32(6, 5, 11) * 3
    merged = _outputs_and_grads(
        lambda t: T.masked_mean_nll(t["a"], targets, mask, 2), {"a": logits})
    halves = _outputs_and_grads(
        lambda t: T.add(T.masked_mean_nll(t["a"], targets[:3], mask[:3]),
                        T.masked_mean_nll(t["b"], targets[3:], mask[3:])),
        {"a": logits[:3], "b": logits[3:]})
    assert merged[0] == halves[0]
    assert merged[1]["a"] == halves[1]["a"] + halves[1]["b"]


# --- byte identity of the rewritten layernorm and embedding vjps ----------


def _mean_formulation(x, gain, bias, g, eps=1e-5):
    """The np.mean layernorm and its vjp, gain/bias summed like `add` sums."""
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gain + bias, inv * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=axes),
            g.sum(axis=axes))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(7,), (5, 12), (3, 4, 64), (2, 6, 10)])
def test_layernorm_bytes_match_the_mean_formulation(dtype, shape):
    x, g = randu(*shape).astype(dtype), randu(*shape).astype(dtype)
    gain, bias = randu(shape[-1]).astype(dtype), randu(shape[-1]).astype(dtype)
    tensors = {"x": T.parameter(x, "x"), "g": T.parameter(gain, "g"), "b": T.parameter(bias, "b")}
    out = T.layernorm(tensors["x"], tensors["g"], tensors["b"])
    grads = T.backward(T.sum_all(T.mul(out, T.Tensor(g))), tensors)
    want = _mean_formulation(x, gain, bias, g)
    got = (out.data, grads["x"], grads["g"], grads["b"])
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["scalar", "unique", "repeated", "2d", "bank_rows"])
def test_embedding_vjp_bytes_match_add_at(dtype, kind):
    table = randu(9, 4, 3) if kind == "bank_rows" else randu(9, 5)
    ids = {"scalar": np.int64(4), "unique": RNG.permutation(9)[:6],
           "repeated": RNG.integers(0, 3, size=40),  # runs of 8 and more per row
           "2d": RNG.integers(0, 9, size=(4, 6)), "bank_rows": np.asarray([7, 2])}[kind]
    g = randu(*np.shape(ids), *table.shape[1:]).astype(dtype)
    g.reshape(-1)[::5] = -0.0
    if kind == "scalar":
        g[...] = -0.0 * np.sign(g)
    t = T.parameter(table.astype(dtype), "t")
    got = T.backward(T.sum_all(T.mul(T.embedding(t, ids), T.Tensor(g))), {"t": t})["t"]
    want = np.zeros(table.shape, dtype)
    np.add.at(want, ids, g)
    assert got.tobytes() == want.tobytes()
