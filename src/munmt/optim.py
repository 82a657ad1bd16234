"""Adam/Adamax with decoupled weight decay, and the linear warmup/decay schedule.

The optimizer is a pure function of (params, grads, state, lr, weight_decay):
identical inputs give bit-identical outputs. Params and state live in flat
contiguous buffers so one step is a handful of vectorized passes instead of
hundreds of small array ops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericError


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
    """Flat first/second-moment buffers plus the shared step counter."""

    kind: str  # "adam" | "adamax"
    names: list
    offsets: dict  # name -> (start, end, shape)
    m: np.ndarray
    v: np.ndarray  # second moment (adam) or infinity norm (adamax)
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def init(cls, params: dict, kind: str = "adam", beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> "OptimState":
        if kind not in ("adam", "adamax"):
            raise ConfigError(f"unknown optimizer kind {kind!r}")
        names = list(params.keys())
        offsets = {}
        pos = 0
        for n in names:
            arr = np.asarray(params[n])
            offsets[n] = (pos, pos + arr.size, arr.shape)
            pos += arr.size
        dtype = np.asarray(params[names[0]]).dtype if names else np.float32
        return cls(kind=kind, names=names, offsets=offsets,
                   m=np.zeros(pos, dtype=dtype), v=np.zeros(pos, dtype=dtype),
                   step=0, beta1=beta1, beta2=beta2, eps=eps)


def _flatten(arrs: dict, state: OptimState, what: str) -> np.ndarray:
    total = state.m.size
    flat = np.zeros(total, dtype=state.m.dtype)
    for name, a in arrs.items():
        if name not in state.offsets:
            raise ConfigError(f"{what} key {name!r} not in optimizer state")
        start, end, shape = state.offsets[name]
        a = np.asarray(a)
        if a.shape != shape:
            raise ConfigError(f"{what} {name!r} has shape {a.shape}, expected {shape}")
        flat[start:end] = a.reshape(-1)
    return flat


def optimizer_step(params: dict, grads: dict, state: OptimState, lr: float,
                   weight_decay: float = 0.0, clip_norm: float | None = None) -> dict:
    """One update. Mutates `state`, writes new values into the param arrays in place.

    `params` maps name -> np.ndarray (written through), `grads` maps a subset
    of those names to same-shaped arrays; missing names mean zero gradient.
    Weight decay is decoupled and scaled by lr: p *= 1 - lr * weight_decay.
    Returns the params dict for convenience.
    """
    unknown = set(grads) - set(state.offsets)
    if unknown:
        raise ConfigError(f"gradient keys not in params: {sorted(unknown)}")
    if set(params) != set(state.names):
        raise ConfigError("params keys do not match optimizer state")
    p = _flatten(params, state, "param")
    g = _flatten(grads, state, "grad")
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

    # write back through the caller's arrays
    for name in state.names:
        start, end, shape = state.offsets[name]
        np.copyto(params[name], p[start:end].reshape(shape))
    return params
