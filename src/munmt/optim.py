"""Adam/Adamax with decoupled weight decay, and the linear warmup/decay schedule.

The optimizer is a pure function of (params, grads, state, lr, weight_decay):
identical inputs give bit-identical outputs. The parameter layout belongs to
`ModelParams`: the optimizer updates its flat buffer in place, and the moment
buffers share that layout, so one step is a handful of vectorized passes
instead of hundreds of small array ops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .model import ModelParams


@dataclass
class LrSchedule:
    """Linear warmup 0 -> peak over `warmup_steps`, then linear decay to 0 at `total_steps`."""

    peak: float = 0.0002
    warmup_steps: int = 4000
    total_steps: int = 1_200_000

    def validate(self):
        bad = []
        if not (self.peak > 0):
            bad.append(f"lr peak must be > 0, got {self.peak}")
        if self.warmup_steps < 0:
            bad.append(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.total_steps < self.warmup_steps:
            bad.append(
                f"total_steps ({self.total_steps}) must be >= warmup_steps ({self.warmup_steps})"
            )
        if bad:
            raise ConfigError(bad)
        return self


def lr_at(sched: LrSchedule, step: int) -> float:
    """Learning rate at optimizer step `step` (0-based). Clamps to 0 past the end."""
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    peak = float(sched.peak)
    if sched.warmup_steps > 0 and step < sched.warmup_steps:
        return peak * (step / sched.warmup_steps)
    span = sched.total_steps - sched.warmup_steps
    if span <= 0:
        return peak if step <= sched.total_steps else 0.0
    frac = (sched.total_steps - step) / span
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
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("adam", "adamax"):
            raise ConfigError(f"unknown optimizer kind {self.kind!r}")

    @classmethod
    def init(cls, params: ModelParams, kind: str = "adam", beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "OptimState":
        return cls(kind=kind, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat),
                   step=0, beta1=beta1, beta2=beta2, eps=eps)


def optimizer_step(params: ModelParams, grads: dict, state: OptimState, lr: float,
                   weight_decay: float = 0.0, clip_norm: float | None = None) -> ModelParams:
    """One update. Mutates `state` and writes the new values into `params.flat`.

    `grads` maps a subset of the parameter names to same-shaped arrays;
    missing names mean zero gradient. Weight decay is decoupled and scaled by
    lr: p *= 1 - lr * weight_decay. Returns `params` for convenience.
    """
    p = params.flat
    g = params.flat_grad(grads)
    if not np.all(np.isfinite(g)):
        raise NumericError("non-finite gradient")
    if clip_norm is not None:
        norm = float(np.sqrt(np.sum(g.astype(np.float64) ** 2)))
        if norm > clip_norm:
            g = g * np.asarray(clip_norm / norm, dtype=g.dtype)

    state.step += 1
    t = state.step
    b1, b2, eps = state.beta1, state.beta2, state.eps

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
