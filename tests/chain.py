"""Reference forms for the autodiff tests: the unfused primitives, the
batched matmul, and one chain of primitives for each fused node of
`munmt.tensor`.

Training and decoding run only the engine. Its fused nodes' oracle tests
compare each node byte for byte with its chain here, and the gradient suite
(c1) finite-difference checks every engine node and every primitive here.
The module re-exports the engine's public names, so a test imports it as `T`
and reaches the engine and its reference forms through one namespace.
"""

import math

import numpy as np

from munmt import tensor as _engine
from munmt.objectives import apply_mask, cross_entropy_loss
from munmt.tensor import (Tensor, _make, _unbroadcast, add, attention_sublayer,  # noqa: F401
                          backward, embedding, ffn_sublayer, layernorm, masked_mean_nll,
                          no_grad, parameter, scale, transpose)

# ---------------------------------------------------------------------------
# unfused primitives


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _make(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _make(out, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy matmul broadcasting rules. A 2-D
    right operand goes to the engine's row-folding `matmul`, as in training."""
    if b.data.ndim == 2:
        return _engine.matmul(a, b)
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return _make(out, (a, b), vjp)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def vjp(g):
        return (g * (a.data > 0),)

    return _make(out, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    out = a.data.sum()

    def vjp(g):
        return (np.ones_like(a.data) * g,)

    return _make(out, (a,), vjp)


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis, numerically stabilized."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _make(out, (a,), vjp)


def log_softmax(a: Tensor) -> Tensor:
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

    return _make(out, (a,), vjp)


def take_along_last(a: Tensor, idx) -> Tensor:
    """Gather along the last axis: out[..., j] = a[..., idx[..., j]]."""
    idx = np.asarray(idx)
    out = np.take_along_axis(a.data, idx, axis=-1)

    def vjp(g):
        ga = np.zeros_like(a.data)
        grid = np.meshgrid(*[np.arange(n) for n in idx.shape], indexing="ij")
        np.add.at(ga, tuple(grid[:-1]) + (idx,), g)
        return (ga,)

    return _make(out, (a,), vjp)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None) -> Tensor:
    """Scaled dot-product attention of (B, Lq, H) queries over (B, Lk, H) keys
    and values in `heads` heads: one node over the engine's `_attend`, the
    math inside `attention_sublayer`. `mask` is a constant additive array
    that broadcasts against the (B, heads, Lq, Lk) scores, or None."""
    out, saved = _engine._attend(q.data, k.data, v.data, heads, mask)

    def vjp(g):
        return _engine._attend_vjp(g, saved)

    return _make(out, (q, k, v), vjp)


# ---------------------------------------------------------------------------
# the chains the fused nodes stand for


def chained_attention(q, k, v, heads, mask):
    """`attention` from primitives: split heads, scores, scale, mask,
    softmax, mix and merge."""
    def split(x):
        B, L, H = x.shape
        return transpose(reshape(x, (B, L, heads, H // heads)), (0, 2, 1, 3))

    q, k, v = split(q), split(k), split(v)
    scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = add(scores, Tensor(mask))
    out = transpose(matmul(softmax(scores), v), (0, 2, 1, 3))
    B, L, h, dh = out.shape
    return reshape(out, (B, L, h * dh))


def chained_nll(logits, targets, mask):
    """`masked_mean_nll` of one group from primitives."""
    picked = take_along_last(log_softmax(logits), targets[..., None].astype(np.int64))
    picked = reshape(picked, targets.shape)
    masked = mul(picked, Tensor(mask.astype(logits.dtype)))
    return scale(sum_all(masked), -1.0 / int(mask.sum()))


def chained_attention_sublayer(x, ln, w, heads, mask=None, memory=None, bank_rows=None,
                               kv=None):
    """`attention_sublayer` from primitives and `attention`, with the same
    arguments. `kv` is a (keys, values) array pair, or a function of the
    projected ones that returns all of them."""
    wq, wk, wv, wo = w
    h = layernorm(x, *ln)
    if isinstance(kv, tuple):
        k, v = map(Tensor, kv)
    else:
        m = h if memory is None else memory
        k, v = matmul(m, wk), matmul(m, wv)
        if kv is not None:
            k, v = map(Tensor, kv(k.data, v.data))
    a = attention(matmul(h, wq), k, v, heads, mask)
    if bank_rows is None:
        return add(x, matmul(a, wo))
    if len(bank_rows) == 1:
        return add(x, matmul(a, embedding(wo, bank_rows[0])))
    B, L, H = a.shape
    G = len(bank_rows)
    proj = matmul(reshape(a, (G, B // G * L, H)), embedding(wo, np.asarray(bank_rows)))
    return add(x, reshape(proj, (B, L, H)))


def chained_ffn_sublayer(x, ln, w1, b1, w2, b2):
    """`ffn_sublayer` from primitives."""
    h = relu(add(matmul(layernorm(x, *ln), w1), b1))
    return add(x, add(matmul(h, w2), b2))


def mass_loss_for_spec(params, cfg, ids, lang, spec):
    """The masked-span loss of one sentence at a fixed span: CE from the
    masked sentence to the hidden span."""
    masked, segment = apply_mask(ids, spec)
    return cross_entropy_loss(params, cfg, [masked], [segment], lang)
