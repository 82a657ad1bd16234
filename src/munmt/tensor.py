"""Dense tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array. Operations on tensors record a DAG of
primitive nodes; ``backward`` walks that DAG once in reverse topological
order and writes exact gradients into the buffers of named leaf parameters.
Training runs in float32; gradient checks run the same code in float64.

Values are expected to stay finite. Nothing here scans intermediates (that
would double step cost); the trainer checks each loss before backpropagating
it.
"""

from __future__ import annotations

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
    """Batched matrix product with numpy matmul broadcasting rules."""
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
