"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Operations on tensors record a DAG of
primitive nodes; ``backward`` walks that DAG once in reverse topological
order and writes exact gradients into the buffers of named leaf parameters.
Training runs in float32; gradient checks run the same code in float64.

Besides the primitives there are two fused nodes, `attention` and
`masked_mean_nll`. Each stands for a chain of primitives and its vjp repeats
that chain's operations in the same order, so it is bit-identical to the
chain, with far fewer nodes and temporaries. `matmul` by a 2-D right
operand (a weight) folds the left operand's leading axes into rows: the
forward, the input gradient and the weight gradient are one BLAS call each.
That can sum in another order than one product per leading index (the
weight gradient always does), so it is not bit-identical to the batched
form; float32 gradients stay within a relative L2 of 1e-5 of a float64
reference.

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
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def vjp(g):
        dgain = _unbroadcast(g * xhat, gain.data.shape)
        dbias = _unbroadcast(g, bias.data.shape)
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv * (dxhat - m1 - xhat * m2)
        return dx, dgain, dbias

    return _make(out, (x, gain, bias), vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Row gather: out[...] = table[ids]. `ids` is a constant int array or int."""
    idx = np.asarray(ids)
    out = table.data[idx]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return (gt,)

    return _make(out, (table,), vjp)


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
    B, Lq, H = q.data.shape
    Lk = k.data.shape[1]
    dh = H // heads
    qh = q.data.reshape(B, Lq, heads, dh).transpose(0, 2, 1, 3)
    kh = k.data.reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3)
    vh = v.data.reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3)
    s = 1.0 / math.sqrt(dh)
    p = np.matmul(qh, kh.transpose(0, 1, 3, 2))
    p *= s
    if mask is not None:
        p += mask
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)  # the attention weights
    out = np.matmul(p, vh).transpose(0, 2, 1, 3).reshape(B, Lq, H)

    def vjp(g):
        go = g.reshape(B, Lq, heads, dh).transpose(0, 2, 1, 3)
        gv = np.matmul(p.swapaxes(-1, -2), go)
        gs = np.matmul(go, vh.swapaxes(-1, -2))
        gs -= (gs * p).sum(axis=-1, keepdims=True)
        gs *= p
        gs *= s
        gq = np.matmul(gs, kh)
        gk = np.matmul(qh.swapaxes(-1, -2), gs).swapaxes(-1, -2)
        return tuple(t.transpose(0, 2, 1, 3).reshape(t.shape[0], t.shape[2], H)
                     for t in (gq, gk, gv))

    return _make(out, (q, k, v), vjp)


def masked_mean_nll(logits: Tensor, targets, mask) -> Tensor:
    """Mean negative log-likelihood of the int `targets` under (..., V)
    `logits`, over the positions where the boolean `mask` holds (at least
    one). Replaces log_softmax, take_along_last, reshape, mul by the mask,
    sum_all and scale; the gradient is (onehot - softmax) * mask * -1/count.
    """
    idx = np.asarray(targets)[..., None].astype(np.int64)
    maskc = np.asarray(mask).astype(logits.data.dtype)
    s = -1.0 / int(np.count_nonzero(mask))
    logp = logits.data - logits.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    picked = np.take_along_axis(logp, idx, axis=-1).reshape(maskc.shape)
    out = (picked * maskc).sum() * s

    def vjp(g):
        coef = ((g * s) * maskc)[..., None]
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

    Each leaf's summed gradient, or zeros where no path reaches it, is copied
    into its `grad` buffer, which is returned. Other leaves are not written.
    """
    if loss.data.ndim != 0:
        raise NumericError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    grads = {}
    if loss.requires_grad:
        order = _toposort(loss)
        grads[id(loss)] = np.ones_like(loss.data)
        for node in reversed(order):
            if node.vjp is None:
                continue  # leaf: keep its accumulated grad for collection below
            g = grads.pop(id(node), None)
            if g is None:
                continue
            parent_grads = node.vjp(g)
            for p, pg in zip(node.parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                pid = id(p)
                if pid in grads:
                    grads[pid] = grads[pid] + pg
                else:
                    grads[pid] = pg
    for p in params.values():
        p.grad[...] = grads.get(id(p), 0)  # a copy, not +=: signed zeros survive
    return {name: p.grad for name, p in params.items()}
