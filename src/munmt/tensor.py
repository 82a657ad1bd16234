"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Operations on tensors record a DAG of
primitive nodes; ``backward`` walks that DAG once in reverse topological
order and writes exact gradients straight into the buffers of named leaf
parameters. Training runs in float32; gradient checks run the same code in
float64.

Fused nodes stand for chains of primitives, with vjps that repeat the
chains' operations in the same order: `attention`, `masked_mean_nll`, and
the two residual sublayers of a transformer layer. `attention_sublayer` is
pre-LN, the q/k/v projections (keys and values from the normed input or from
`memory`), attention, the output projection and the residual; `ffn_sublayer`
is pre-LN, w1 + b1, relu, w2 + b2 and the residual. They share their math
with `layernorm` and `attention` through the private helpers `_ln`,
`_ln_vjp`, `_attend` and `_attend_vjp`. The softmax row max, `_row_max`, is
an exact elementwise maximum over a transposed copy, fast on short rows.

The row-group rule: a node given one weight row per group (`bank_rows`) or
asked for per-group means (`groups`) splits the batch rows into equal
consecutive groups, so one forward serves several languages.

Each fused node is bit-identical to its chain on its own. A cross-attention
sublayer hands `memory` the sum of its key and value gradients, so where
several layers read one memory its gradient sums per layer, not per
projection as the chain does. `matmul` by a 2-D right operand (a weight)
folds the left operand's leading axes into rows: the forward, the input
gradient and the weight gradient are one BLAS call each. That can sum in
another order than one product per leading index (the weight gradient
always does), so it is not bit-identical to the batched form; float32
gradients stay within a relative L2 of 1e-5 of a float64 reference.

Values are expected to stay finite. Nothing here scans intermediates (that
would double step cost); the trainer checks each loss before backpropagating
it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


class _GradMode:
    enabled = True


class no_grad:
    """Context manager: ops inside record nothing and return constants."""

    def __enter__(self):
        self._prev = _GradMode.enabled
        _GradMode.enabled = False
        return self

    def __exit__(self, *exc):
        _GradMode.enabled = self._prev
        return False


class Tensor:
    __slots__ = ("data", "requires_grad", "parents", "vjp", "name", "grad")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None, name=None):
        self.data = data if isinstance(data, np.ndarray) else np.asarray(data)
        self.requires_grad = requires_grad
        self.parents = parents
        self.vjp = vjp
        self.name = name
        self.grad = None  # a parameter's gradient buffer, shaped like data

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}, name={self.name})"


def constant(data) -> Tensor:
    return Tensor(np.asarray(data))


def parameter(data, name: str, grad=None) -> Tensor:
    """A leaf whose gradient `backward` writes into `grad`, or into its own buffer."""
    t = Tensor(np.asarray(data), requires_grad=True, name=name)
    t.grad = np.zeros_like(t.data) if grad is None else grad
    return t


def _make(data, parents, vjp) -> Tensor:
    if _GradMode.enabled and any(p.requires_grad for p in parents):
        return Tensor(data, True, tuple(parents), vjp)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitive operations


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), vjp)


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


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * s

    def vjp(g):
        return (g * s,)

    return _make(out, (a,), vjp)


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product with numpy matmul broadcasting rules.

    A 2-D right operand (a weight) folds the left operand's leading axes into
    rows, so the forward, the input gradient and the weight gradient are one
    2-D product each instead of one per leading index plus a sum.
    """
    if b.data.ndim == 2 and a.data.ndim > 2:
        a2 = a.data.reshape(-1, a.data.shape[-1])
        out = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[-1:])

        def vjp(g):
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.data.shape), a2.T @ g2

        return _make(out, (a, b), vjp)

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


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = a.data.transpose(axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (g.transpose(inv),)

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


def layernorm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain/bias."""
    out, xhat, inv = _ln(x.data, gain.data, bias.data, eps)

    def vjp(g):
        return _ln_vjp(g, xhat, inv, gain.data)

    return _make(out, (x, gain, bias), vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: out[...] = table[ids]. `ids` is a constant int array or int."""
    idx = np.asarray(ids)
    out = table.data[idx]

    def vjp(g):
        return (_scatter_add(table.data, idx, g),)

    return _make(out, (table,), vjp)


def _scatter_add(table: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The bytes of np.add.at(zeros_like(table), idx, g). Unless an index
    repeats that is one slice or fancy-index write; repeats go through
    np.add.at over the flat buffer, which adds in the same index order about
    three times faster. (np.add.reduceat sums runs of 8 or more pairwise.)"""
    gt = np.zeros_like(table)
    if idx.ndim == 0 or np.bincount(idx.reshape(-1)).max() == 1:
        gt[idx] += g  # 0 + g, as np.add.at adds: a -0.0 comes out +0.0
    else:
        row = g.size // idx.size
        at = idx.reshape(-1, 1).astype(np.intp) * row + np.arange(row)
        np.add.at(gt.reshape(-1), at.reshape(-1), g.reshape(-1))
    return gt


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


# ---------------------------------------------------------------------------
# shared math of the layernorm, attention and sublayer nodes, on arrays


def _ln(x, gain, bias, eps=1e-5):
    """Layer norm over the last axis: (out, xhat, inv). Means are a sum then
    `/= n`, the bits of np.mean without its Python wrapper."""
    n = x.shape[-1]
    mu = np.add.reduce(x, axis=-1, keepdims=True)
    mu /= n
    xc = x - mu
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, xhat, inv


def _ln_vjp(g, xhat, inv, gain):
    """(dx, dgain, dbias) of `_ln`; gain and bias gradients sum 2-D rows."""
    n = g.shape[-1]
    g2 = g.reshape(-1, n)
    dgain = np.add.reduce(g2 * xhat.reshape(-1, n), axis=0)
    dbias = np.add.reduce(g2, axis=0)
    dxhat = g * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True)
    m1 /= n
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True)
    m2 /= n
    return inv * (dxhat - m1 - xhat * m2), dgain, dbias


def _row_max(p):
    """p.max(axis=-1, keepdims=True), NaN included; of a +0.0/-0.0 tie
    either zero may come out, which exp(p - max) does not see."""
    L = p.shape[-1]
    return np.maximum.reduce(p.reshape(-1, L).T.copy(), axis=0).reshape(p.shape[:-1] + (1,))


def _attend(q, k, v, heads, mask):
    """Scaled dot-product attention on (B, L, H) arrays: (out, saved)."""
    B, Lq, H = q.shape
    Lk = k.shape[1]
    dh = H // heads
    qh = q.reshape(B, Lq, heads, dh).transpose(0, 2, 1, 3)
    kh = k.reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3)
    vh = v.reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3)
    s = 1.0 / math.sqrt(dh)
    p = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    p *= s
    if mask is not None:
        p += mask
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)  # the attention weights
    out = np.matmul(p, vh).transpose(0, 2, 1, 3).reshape(B, Lq, H)
    return out, (qh, kh, vh, p, s)


def _attend_vjp(g, saved):
    """(gq, gk, gv) of `_attend`, each (B, L, H)."""
    qh, kh, vh, p, s = saved
    B, heads, Lq, dh = qh.shape
    go = g.reshape(B, Lq, heads, dh).transpose(0, 2, 1, 3)
    gv = np.matmul(p.swapaxes(-1, -2), go)
    gs = np.matmul(go, vh.swapaxes(-1, -2))
    gs -= (gs * p).sum(axis=-1, keepdims=True)
    gs *= p
    gs *= s
    gq = np.matmul(gs, kh)
    gk = np.matmul(qh.swapaxes(-1, -2), gs).swapaxes(-1, -2)
    return tuple(t.transpose(0, 2, 1, 3).reshape(B, t.shape[2], heads * dh)
                 for t in (gq, gk, gv))


# ---------------------------------------------------------------------------
# fused nodes: one node for a chain of the primitives above, whose vjp repeats
# that chain's operations in the same order, so values and gradients are
# bit-identical to the chain's


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask=None) -> Tensor:
    """Scaled dot-product attention of (B, Lq, H) queries over (B, Lk, H) keys
    and values, split into `heads` heads of H // heads.

    `mask` is a constant additive array that broadcasts against the
    (B, heads, Lq, Lk) scores, or None; no gradient is formed for it. The
    node replaces split heads, scores, scale, mask, softmax, mix and merge.
    """
    out, saved = _attend(q.data, k.data, v.data, heads, mask)

    def vjp(g):
        return _attend_vjp(g, saved)

    return _make(out, (q, k, v), vjp)


def attention_sublayer(x: Tensor, ln, w, heads: int, mask=None, memory: Tensor | None = None,
                       bank_rows=None, kv=None) -> Tensor:
    """x + attention(h wq, m wk, m wv) wo, where h = layernorm(x) and m is
    `memory` (cross-attention) or h; `ln` is (gain, bias), `w` (wq, wk, wv, wo).

    With `bank_rows`, wo is an (L, H, H) bank and row group j of the batch is
    projected through wo[bank_rows[j]], all groups in one batched product.
    `kv` serves cached decoding under `no_grad`: a (keys, values) array pair
    to attend over instead of projecting any, or a function that takes the
    newly projected keys and values and returns all of them.
    """
    if kv is not None and _GradMode.enabled:
        raise NumericError("cached keys and values serve no-grad decoding only")
    gain, bias = ln
    wq, wk, wv, wo = w
    B, L, H = x.data.shape
    h, xhat, inv = _ln(x.data, gain.data, bias.data)
    h2 = h.reshape(-1, H)
    m2 = h2 if memory is None else memory.data.reshape(-1, H)
    if isinstance(kv, tuple):
        k, v = kv
    else:
        Lk = m2.shape[0] // B
        k, v = (m2 @ wk.data).reshape(B, Lk, H), (m2 @ wv.data).reshape(B, Lk, H)
        if kv is not None:
            k, v = kv(k, v)
    a, saved = _attend((h2 @ wq.data).reshape(B, L, H), k, v, heads, mask)
    W = wo.data[None] if bank_rows is None else wo.data[list(bank_rows)]
    a3 = a.reshape(W.shape[0], -1, H)
    out = x.data + np.matmul(a3, W).reshape(B, L, H)

    def vjp(g):
        g3 = g.reshape(a3.shape)
        gW = np.matmul(a3.swapaxes(-1, -2), g3)
        gwo = gW[0] if bank_rows is None else _scatter_add(wo.data, np.asarray(bank_rows), gW)
        gq, gk, gv = (t.reshape(-1, H) for t in _attend_vjp(
            np.matmul(g3, W.swapaxes(-1, -2)).reshape(B, L, H), saved))
        gh = gq @ wq.data.T
        gm = (gk @ wk.data.T, gv @ wv.data.T)
        if memory is None:
            gh = gh + gm[0] + gm[1]  # the order the chain's q, k, v nodes sum in
            gmem = ()
        else:
            gmem = ((gm[0] + gm[1]).reshape(memory.data.shape),)
        dx, dgain, dbias = _ln_vjp(gh.reshape(B, L, H), xhat, inv, gain.data)
        return (g + dx, dgain, dbias, h2.T @ gq, m2.T @ gk, m2.T @ gv, gwo) + gmem

    parents = (x, gain, bias, wq, wk, wv, wo) + (() if memory is None else (memory,))
    return _make(out, parents, vjp)


def ffn_sublayer(x: Tensor, ln, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """A pre-LN residual feed-forward sublayer:
    x + relu(layernorm(x) w1 + b1) w2 + b2, with `ln` the (gain, bias) pair."""
    gain, bias = ln
    shape, H = x.data.shape, x.data.shape[-1]
    h, xhat, inv = _ln(x.data, gain.data, bias.data)
    h2 = h.reshape(-1, H)
    r = h2 @ w1.data
    r += b1.data
    np.maximum(r, 0, out=r)  # r > 0 exactly where its input was
    f = r @ w2.data
    f += b2.data
    out = x.data + f.reshape(shape)

    def vjp(g):
        g2 = g.reshape(-1, H)
        ga = g2 @ w2.data.T
        ga *= r > 0
        dx, dgain, dbias = _ln_vjp((ga @ w1.data.T).reshape(shape), xhat, inv, gain.data)
        return (g + dx, dgain, dbias, h2.T @ ga, np.add.reduce(ga, axis=0), r.T @ g2,
                np.add.reduce(g2, axis=0))

    return _make(out, (x, gain, bias, w1, b1, w2, b2), vjp)


def masked_mean_nll(logits: Tensor, targets, mask, groups: int = 1) -> Tensor:
    """Mean negative log-likelihood of the int `targets` under (..., V)
    `logits`, over the positions where the boolean `mask` holds. Replaces
    log_softmax, take_along_last, reshape, mul by the mask, sum_all and
    scale; the gradient is (onehot - softmax) * mask * -1/count. With
    `groups`, each row group's mean is over its own positions (at least one),
    and the means are summed in group order, as `add` sums separate calls.
    """
    idx = np.asarray(targets)[..., None].astype(np.int64)
    maskc = np.asarray(mask).astype(logits.data.dtype)
    s = [-1.0 / int(c) for c in np.count_nonzero(np.reshape(mask, (groups, -1)), axis=1)]
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, idx, axis=-1).reshape(maskc.shape)
    parts = np.split(picked * maskc, groups)
    out = parts[0].sum() * s[0]
    for part, sj in zip(parts[1:], s[1:]):
        out = out + part.sum() * sj
    rows = np.repeat(np.asarray(s, dtype=maskc.dtype), maskc.shape[0] // groups)
    rows = rows.reshape((-1,) + (1,) * (maskc.ndim - 1))

    def vjp(g):
        coef = ((g * rows) * maskc)[..., None]
        onehot = np.zeros_like(logp)
        np.put_along_axis(onehot, idx, coef, axis=-1)
        grad = np.exp(logp)
        grad *= coef
        return (np.subtract(onehot, grad, out=grad),)

    return _make(out, (logits,), vjp)


# ---------------------------------------------------------------------------
# reverse pass


def _toposort(root: Tensor):
    """Iterative post-order over grad-requiring ancestry, with a cycle guard."""
    order = []
    visiting = set()
    done = set()
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        nid = id(node)
        if processed:
            visiting.discard(nid)
            done.add(nid)
            order.append(node)
            continue
        if nid in done:
            continue
        if nid in visiting:
            raise NumericError("cycle detected in autodiff graph")
        visiting.add(nid)
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in done:
                stack.append((p, False))
    return order


def backward(loss: Tensor, params: dict) -> dict:
    """Gradients of scalar `loss` for every leaf in `params` (name -> array).

    Each reached leaf's gradient is written straight into its `grad` buffer:
    the first contribution is copied there (signed zeros survive), later ones
    are added in place. Unreached leaves get zeros; leaves outside `params`
    are not written. Returns the buffers by name.
    """
    if loss.data.ndim != 0:
        raise NumericError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    leaves = {id(p) for p in params.values()}
    written = set()
    grads = {}

    def deliver(p, g):  # into a leaf's buffer, or summed for an inner node
        pid = id(p)
        if pid in written:
            p.grad += g
        elif pid in leaves:
            np.copyto(p.grad, g)
            written.add(pid)
        elif p.vjp is not None:
            grads[pid] = grads[pid] + g if pid in grads else g

    if loss.requires_grad:
        deliver(loss, np.ones_like(loss.data))
        for node in reversed(_toposort(loss)):
            g = grads.pop(id(node), None)
            if g is not None:
                for p, pg in zip(node.parents, node.vjp(g)):
                    if pg is not None and p.requires_grad:
                        deliver(p, pg)
    for p in params.values():
        if id(p) not in written:
            p.grad[...] = 0
    return {name: p.grad for name, p in params.items()}
