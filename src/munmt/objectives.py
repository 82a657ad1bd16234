"""The four training losses: plain CE, masked-span reconstruction (mass),
back-translation (bt) and cross-translation (ct).

All losses reduce to token-mean negative log-likelihood over non-PAD target
positions. bt and ct first greedy-decode an intermediate sentence with
gradients disabled (stop-gradient: the decode contributes no graph nodes)
and then score a CE loss through it. Decodes that come back empty are
skipped and counted, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .corpus import pad_block
from .errors import ConfigError, DataError
from .model import ModelConfig, ModelParams, forward_logits, greedy_decode_batch, strip_body
from .tokenizer import BOS, EOS, MASK, PAD


def _teacher_blocks(tgt_rows: list):
    """Decoder inputs (BOS + y) and targets (y + EOS), right-padded."""
    dec_in = [np.concatenate(([BOS], r)).astype(np.int32) for r in tgt_rows]
    target = [np.concatenate((r, [EOS])).astype(np.int32) for r in tgt_rows]
    return pad_block(dec_in), pad_block(target)


def sequence_nll(logits: T.Tensor, targets: np.ndarray) -> T.Tensor:
    """Mean NLL over non-PAD target positions of a (B, L, V) logits tensor."""
    targets = np.asarray(targets)
    mask = (targets != PAD)
    count = int(mask.sum())
    if count == 0:
        raise DataError("loss over a batch with no scoreable tokens")
    logp = T.log_softmax(logits)
    picked = T.take_along_last(logp, targets[..., None].astype(np.int64))
    picked = T.reshape(picked, targets.shape)
    maskc = T.constant(mask.astype(logits.dtype))
    return T.scale(T.sum_all(T.mul(picked, maskc)), -1.0 / count)


def cross_entropy_loss(params: ModelParams, cfg: ModelConfig, src, tgt,
                       tgt_lang: str) -> T.Tensor:
    """Teacher-forced translation loss src -> tgt in language tgt_lang.

    `src`/`tgt` are sequences of unpadded id rows (no BOS/EOS; those are
    added here), padded once, here."""
    if len(src) != len(tgt):
        raise DataError("source and target batches differ in size")
    if any(len(r) == 0 for r in src) or any(len(r) == 0 for r in tgt):
        raise DataError("empty sentence in a loss batch")
    dec_in, target = _teacher_blocks(tgt)
    logits = forward_logits(params, cfg, pad_block(src), dec_in, tgt_lang)
    return sequence_nll(logits, target)


# ---------------------------------------------------------------------------
# masked-span reconstruction


@dataclass(frozen=True)
class MaskSpec:
    start: int
    length: int


def draw_mask_spec(length: int, rng: np.random.Generator) -> MaskSpec:
    """Span of floor(l/2) tokens (min 1). Start is 0 with p=0.2, floor(l/2)
    with p=0.2, otherwise uniform over all valid starts {0..l-floor(l/2)}."""
    if length < 1:
        raise DataError("cannot mask an empty sequence")
    seg = max(1, length // 2)
    r = rng.random()
    if r < 0.2:
        start = 0
    elif r < 0.4:
        start = length // 2
    else:
        start = int(rng.integers(0, length - seg + 1))
    return MaskSpec(start=start, length=seg)


def apply_mask(ids: np.ndarray, spec: MaskSpec):
    """Returns (masked copy, original segment). Only the span changes."""
    ids = np.asarray(ids)
    if spec.start < 0 or spec.start + spec.length > ids.size:
        raise DataError(f"mask span {spec} out of bounds for length {ids.size}")
    masked = ids.copy()
    masked[spec.start : spec.start + spec.length] = MASK
    segment = ids[spec.start : spec.start + spec.length].copy()
    return masked, segment


def mass_loss_for_spec(params, cfg, ids: np.ndarray, lang: str, spec: MaskSpec) -> T.Tensor:
    """Definitional reduction: CE from the masked sentence to the hidden span."""
    masked, segment = apply_mask(ids, spec)
    return cross_entropy_loss(params, cfg, [masked], [segment], lang)


def mass_loss(params, cfg, rows, lang: str, rng: np.random.Generator) -> T.Tensor:
    """Batched masked-span loss over id rows; each row draws its own span
    from `rng`."""
    masked_rows, segments = [], []
    for r in rows:
        spec = draw_mask_spec(len(r), rng)
        m, s = apply_mask(r, spec)
        masked_rows.append(m)
        segments.append(s)
    return cross_entropy_loss(params, cfg, masked_rows, segments, lang)


# ---------------------------------------------------------------------------
# decode-through losses


@dataclass
class DecodeLossResult:
    loss: T.Tensor | None
    used: int
    skipped: int


def _decode_then_score(params, cfg, src_rows, tgt_rows, via_lang: str,
                       tgt_lang: str, max_len: int) -> DecodeLossResult:
    """Greedy-decode src_rows into via_lang with gradients off, drop the rows
    whose decode comes back empty, and score CE from each remaining decode to
    its tgt row in tgt_lang."""
    decoded = greedy_decode_batch(params, cfg, pad_block(src_rows), via_lang, max_len)
    kept = []
    for d, y in zip(decoded, tgt_rows):
        body = strip_body(d)
        if body:
            kept.append((np.asarray(body, dtype=np.int32), y))
    skipped = len(tgt_rows) - len(kept)
    if not kept:
        return DecodeLossResult(None, 0, skipped)
    loss = cross_entropy_loss(params, cfg, [d for d, _ in kept], [y for _, y in kept],
                              tgt_lang)
    return DecodeLossResult(loss, len(kept), skipped)


def back_translation_loss(params, cfg, rows, x_lang: str, via_lang: str,
                          max_len: int) -> DecodeLossResult:
    """Round-trip loss on mono id rows: translate x into via_lang with
    gradients off, then score translating that intermediate back into x."""
    if via_lang == x_lang:
        raise ConfigError("back-translation needs a different intermediate language")
    if not rows:
        raise DataError("empty back-translation batch")
    return _decode_then_score(params, cfg, rows, rows, via_lang, x_lang, max_len)


def cross_translation_loss(params, cfg, src_rows, tgt_rows, src_lang: str,
                           tgt_lang: str, via_lang: str,
                           max_len: int) -> DecodeLossResult:
    """Pivot loss on parallel id rows (x, y): translate x into a third
    language with gradients off, then score translating that into y."""
    if via_lang in (src_lang, tgt_lang):
        raise ConfigError(
            f"cross-translation language {via_lang!r} must differ from the pair "
            f"({src_lang!r}, {tgt_lang!r})"
        )
    if len(src_rows) != len(tgt_rows):
        raise DataError("source and target batches differ in size")
    return _decode_then_score(params, cfg, src_rows, tgt_rows, via_lang, tgt_lang,
                              max_len)
