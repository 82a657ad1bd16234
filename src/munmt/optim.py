"""Adam/Adamax with decoupled weight decay, and the linear warmup/decay schedule.

The schedule reads a `config.LrSpec`; the Adam betas and epsilon are fixed.

The optimizer is a pure function of (params, state, lr, weight_decay):
identical inputs give bit-identical outputs. The layout belongs to
`ModelParams`: the optimizer reads its gradient buffer, updates its flat
buffer in place, and the moment buffers share that layout, so one step is a
handful of vectorized passes instead of hundreds of small array ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import OPTIMIZERS, LrSpec
from .errors import ConfigError, NumericError
from .model import ModelParams


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


def lr_at(lr: LrSpec, step: int) -> float:
    """Learning rate at optimizer step `step` (0-based): linear warmup 0 -> peak
    over `lr.warmup` steps, then linear decay to 0 at `lr.total`. Clamps to 0
    past the end."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    peak = float(lr.peak)
    if lr.warmup > 0 and step < lr.warmup:
        return peak * (step / lr.warmup)
    span = lr.total - lr.warmup
    if span <= 0:
        return peak if step <= lr.total else 0.0
    frac = (lr.total - step) / span
    if frac <= 0.0:
        return 0.0
    if frac >= 1.0:
        return peak
    return peak * frac


@dataclass
class OptimState:
    """First/second-moment buffers laid out like `ModelParams.flat`, plus the
    shared step counter."""

    kind: str  # "adam" | "adamax"
    m: np.ndarray
    v: np.ndarray  # second moment (adam) or infinity norm (adamax)
    step: int = 0

    def __post_init__(self):
        if self.kind not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")

    @classmethod
    def init(cls, params: ModelParams, kind: str = "adam") -> "OptimState":
        return cls(kind=kind, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def optimizer_step(params: ModelParams, state: OptimState, lr: float,
                   weight_decay: float = 0.0, clip_norm: float | None = None) -> ModelParams:
    """One update from `params.grad`, as `T.backward` left it. Mutates `state`
    and writes the new values into `params.flat`; the gradient is only read.

    Weight decay is decoupled and scaled by lr: p *= 1 - lr * weight_decay.
    Returns `params` for convenience.
    """
    p = params.flat
    g = params.grad
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient")
    if clip_norm is not None:
        norm = float(np.sqrt(np.sum(g.astype(np.float64) ** 2)))
        if norm > clip_norm:
            g = g * np.asarray(clip_norm / norm, dtype=g.dtype)

    state.step += 1
    t = state.step
    b1, b2, eps = BETA1, BETA2, EPS

    if weight_decay:
        p *= 1.0 - lr * weight_decay

    state.m *= b1
    state.m += (1.0 - b1) * g
    if state.kind == "adam":
        state.v *= b2
        state.v += (1.0 - b2) * (g * g)
        bc1 = 1.0 - b1 ** t
        bc2 = 1.0 - b2 ** t
        denom = np.sqrt(state.v / bc2) + eps
        p -= lr * (state.m / bc1) / denom
    else:  # adamax
        np.maximum(b2 * state.v, np.abs(g), out=state.v)
        bc1 = 1.0 - b1 ** t
        p -= (lr / bc1) * state.m / (state.v + eps)

    return params
