"""Shared-encoder transformer with per-language decoder conditioning.

Pre-layernorm encoder-decoder. The encoder gets no language signal at all;
the decoder adds a learned language embedding to its inputs and routes every
attention sublayer's output projection through a per-language weight bank,
so each target language owns that slice of the decoder while everything
else is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError
from .rng import named_rng
from .tokenizer import BOS, EOS, PAD

NEG = -1e9  # additive mask value; exp() underflows to exactly 0 after shift


@dataclass
class ModelConfig:
    languages: list  # language names; index order defines embedding rows
    vocab_size: int
    layers: int = 2
    hidden: int = 64
    ffn: int = 256
    heads: int = 4
    max_positions: int = 64

    def validate(self):
        bad = []
        if not self.languages or len(set(self.languages)) != len(self.languages):
            bad.append("languages must be non-empty and unique")
        if self.vocab_size < 6:
            bad.append(f"vocab_size must cover the specials, got {self.vocab_size}")
        if self.layers < 1:
            bad.append(f"layers must be >= 1, got {self.layers}")
        if self.hidden < 1 or self.ffn < 1:
            bad.append("hidden and ffn must be >= 1")
        if self.heads < 1 or self.hidden % self.heads != 0:
            bad.append(f"heads must divide hidden ({self.hidden}/{self.heads})")
        if self.max_positions < 2:
            bad.append("max_positions must be >= 2")
        if bad:
            raise ConfigError(bad)
        return self

    def lang_index(self, name: str) -> int:
        try:
            return self.languages.index(name)
        except ValueError:
            raise ConfigError(f"unknown language {name!r}") from None


def param_shapes(cfg: ModelConfig) -> dict:
    """Every parameter name and shape, in a fixed order."""
    H, F, L = cfg.hidden, cfg.ffn, len(cfg.languages)
    shapes = {
        "tok_emb": (cfg.vocab_size, H),
        "pos_emb": (cfg.max_positions, H),
        "lang_emb": (L, H),
    }
    for i in range(cfg.layers):
        p = f"enc.{i}"
        shapes[f"{p}.ln1.g"] = (H,)
        shapes[f"{p}.ln1.b"] = (H,)
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{w}"] = (H, H)
        shapes[f"{p}.ln2.g"] = (H,)
        shapes[f"{p}.ln2.b"] = (H,)
        shapes[f"{p}.ffn.w1"] = (H, F)
        shapes[f"{p}.ffn.b1"] = (F,)
        shapes[f"{p}.ffn.w2"] = (F, H)
        shapes[f"{p}.ffn.b2"] = (H,)
    shapes["enc.final_ln.g"] = (H,)
    shapes["enc.final_ln.b"] = (H,)
    for i in range(cfg.layers):
        p = f"dec.{i}"
        for ln in ("ln1", "ln2", "ln3"):
            shapes[f"{p}.{ln}.g"] = (H,)
            shapes[f"{p}.{ln}.b"] = (H,)
        for blk in ("self", "cross"):
            for w in ("wq", "wk", "wv"):
                shapes[f"{p}.{blk}.{w}"] = (H, H)
            shapes[f"{p}.{blk}.wo_bank"] = (L, H, H)
        shapes[f"{p}.ffn.w1"] = (H, F)
        shapes[f"{p}.ffn.b1"] = (F,)
        shapes[f"{p}.ffn.w2"] = (F, H)
        shapes[f"{p}.ffn.b2"] = (H,)
    shapes["dec.final_ln.g"] = (H,)
    shapes["dec.final_ln.b"] = (H,)
    return shapes


def count_params(cfg: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(cfg).values())


class ModelParams:
    """The parameter store, and the only owner of the parameter layout.

    Every parameter lives in one contiguous buffer, `flat`, in the order of
    `arrays`. `arrays[name]` are reshaped views into `flat` and
    `tensors[name]` wrap those views, so an in-place write to `flat` (an
    optimizer step, a restore) is seen through every name.
    """

    def __init__(self, arrays: dict):
        arrays = {k: np.asarray(v) for k, v in arrays.items()}
        dtype = next(iter(arrays.values())).dtype if arrays else np.float32
        self.flat = np.empty(sum(a.size for a in arrays.values()), dtype=dtype)
        self.arrays = {}
        self._spans = {}
        pos = 0
        for k, a in arrays.items():
            self._spans[k] = (pos, pos + a.size)
            self.arrays[k] = self.flat[pos:pos + a.size].reshape(a.shape)
            self.arrays[k][...] = a
            pos += a.size
        self.tensors = {k: T.Tensor(v, requires_grad=True, name=k)
                        for k, v in self.arrays.items()}

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def copy(self) -> "ModelParams":
        return ModelParams(self.arrays)

    def flat_grad(self, grads: dict) -> np.ndarray:
        """A {name: grad} dict laid out like `flat`; missing names are zero."""
        unknown = set(grads) - set(self.arrays)
        if unknown:
            raise ConfigError(f"gradient keys not in params: {sorted(unknown)}")
        g = np.zeros_like(self.flat)
        for name, a in grads.items():
            a = np.asarray(a)
            if a.shape != self.arrays[name].shape:
                raise ConfigError(f"grad {name!r} has shape {a.shape}, "
                                  f"expected {self.arrays[name].shape}")
            start, end = self._spans[name]
            g[start:end] = a.reshape(-1)
        return g


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic init: embeddings N(0, 0.02), matrices N(0, fan_in^-0.5),
    layernorm gains 1, all biases 0. One named stream, fixed draw order."""
    cfg.validate()
    rng = named_rng(seed, "init")
    arrays = {}
    for name, shape in param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("g",):
            arrays[name] = np.ones(shape, dtype=dtype)
        elif leaf in ("b", "b1", "b2"):
            arrays[name] = np.zeros(shape, dtype=dtype)
        elif name in ("tok_emb", "pos_emb", "lang_emb"):
            arrays[name] = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        else:
            fan_in = shape[-2]
            std = fan_in ** -0.5
            arrays[name] = rng.normal(0.0, std, size=shape).astype(dtype)
    return ModelParams(arrays)


# ---------------------------------------------------------------------------
# forward pieces


def _split_heads(x: T.Tensor, heads: int) -> T.Tensor:
    B, L, H = x.shape
    x = T.reshape(x, (B, L, heads, H // heads))
    return T.transpose(x, (0, 2, 1, 3))


def _merge_heads(x: T.Tensor) -> T.Tensor:
    B, h, L, dh = x.shape
    x = T.transpose(x, (0, 2, 1, 3))
    return T.reshape(x, (B, L, h * dh))


def _attention(q_in, kv_in, wq, wk, wv, heads: int, mask) -> T.Tensor:
    q = _split_heads(T.matmul(q_in, wq), heads)
    k = _split_heads(T.matmul(kv_in, wk), heads)
    v = _split_heads(T.matmul(kv_in, wv), heads)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = T.add(scores, T.constant(mask))
    return _merge_heads(T.matmul(T.softmax(scores), v))


def _ffn(params, prefix: str, x: T.Tensor) -> T.Tensor:
    h = T.relu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return T.add(T.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _ln(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.layernorm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _embed(params, cfg: ModelConfig, ids: np.ndarray, lang: str | None):
    B, L = ids.shape
    if L > cfg.max_positions:
        raise DataError(f"sequence length {L} exceeds max_positions {cfg.max_positions}")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise DataError("token id out of range for the model vocabulary")
    x = T.scale(T.embedding(params["tok_emb"], ids), math.sqrt(cfg.hidden))
    x = T.add(x, T.embedding(params["pos_emb"], np.arange(L)))
    if lang is not None:
        x = T.add(x, T.embedding(params["lang_emb"], cfg.lang_index(lang)))
    return x


def src_key_mask(src_ids: np.ndarray, dtype) -> np.ndarray:
    """(B,1,1,Ls) additive mask hiding PAD keys."""
    B, L = src_ids.shape
    m = np.zeros((B, 1, 1, L), dtype=dtype)
    m[:, 0, 0, :][src_ids == PAD] = NEG
    return m


def causal_mask(L: int, dtype) -> np.ndarray:
    m = np.zeros((1, 1, L, L), dtype=dtype)
    m[0, 0][np.triu_indices(L, k=1)] = NEG
    return m


def encode(params: ModelParams, cfg: ModelConfig, src_ids: np.ndarray):
    """Returns (enc_out Tensor (B,Ls,H), src additive mask array (B,1,1,Ls))."""
    src_ids = np.asarray(src_ids)
    dtype = params.arrays["tok_emb"].dtype
    mask = src_key_mask(src_ids, dtype)
    x = _embed(params, cfg, src_ids, lang=None)
    for i in range(cfg.layers):
        p = f"enc.{i}"
        h = _ln(params, f"{p}.ln1", x)
        a = _attention(h, h, params[f"{p}.attn.wq"], params[f"{p}.attn.wk"],
                       params[f"{p}.attn.wv"], cfg.heads, mask)
        x = T.add(x, T.matmul(a, params[f"{p}.attn.wo"]))
        x = T.add(x, _ffn(params, f"{p}.ffn", _ln(params, f"{p}.ln2", x)))
    return _ln(params, "enc.final_ln", x), mask


def _decoder_stack(params: ModelParams, cfg: ModelConfig, enc_out: T.Tensor,
                   src_mask: np.ndarray, dec_x: T.Tensor, lang_idx: int) -> T.Tensor:
    """Decoder body from embedded inputs to final hidden states."""
    Lq = dec_x.shape[1]
    cmask = causal_mask(Lq, dec_x.dtype)
    x = dec_x
    for i in range(cfg.layers):
        p = f"dec.{i}"
        h = _ln(params, f"{p}.ln1", x)
        a = _attention(h, h, params[f"{p}.self.wq"], params[f"{p}.self.wk"],
                       params[f"{p}.self.wv"], cfg.heads, cmask)
        wo = T.embedding(params[f"{p}.self.wo_bank"], lang_idx)
        x = T.add(x, T.matmul(a, wo))
        h = _ln(params, f"{p}.ln2", x)
        a = _attention(h, enc_out, params[f"{p}.cross.wq"], params[f"{p}.cross.wk"],
                       params[f"{p}.cross.wv"], cfg.heads, src_mask)
        wo = T.embedding(params[f"{p}.cross.wo_bank"], lang_idx)
        x = T.add(x, T.matmul(a, wo))
        x = T.add(x, _ffn(params, f"{p}.ffn", _ln(params, f"{p}.ln3", x)))
    return _ln(params, "dec.final_ln", x)


def decode_logits(params: ModelParams, cfg: ModelConfig, enc_out: T.Tensor,
                  src_mask: np.ndarray, dec_ids: np.ndarray, tgt_lang: str) -> T.Tensor:
    """Teacher-forced decoder logits (B, Lt, V); output projection tied to tok_emb."""
    dec_ids = np.asarray(dec_ids)
    lang_idx = cfg.lang_index(tgt_lang)
    x = _embed(params, cfg, dec_ids, lang=tgt_lang)
    h = _decoder_stack(params, cfg, enc_out, src_mask, x, lang_idx)
    return T.matmul(h, T.transpose(params["tok_emb"], (1, 0)))


def forward_logits(params, cfg, src_ids, dec_ids, tgt_lang) -> T.Tensor:
    enc_out, mask = encode(params, cfg, src_ids)
    return decode_logits(params, cfg, enc_out, mask, dec_ids, tgt_lang)


# ---------------------------------------------------------------------------
# greedy decoding


def greedy_decode_batch(params: ModelParams, cfg: ModelConfig, src_ids: np.ndarray,
                        tgt_lang: str, max_len: int = 32):
    """Greedy decode every row of a padded source batch.

    Returns a list of int lists: generated ids up to and including EOS when
    EOS is produced within max_len steps, else max_len ids with no EOS.
    Ties at the argmax go to the lowest token id. Pure function of inputs.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    max_len = min(max_len, cfg.max_positions - 1)
    src_ids = np.asarray(src_ids)
    B = src_ids.shape[0]
    with T.no_grad():
        enc_out, mask = encode(params, cfg, src_ids)
        rows = np.full((B, 1), BOS, dtype=np.int32)
        finished = np.zeros(B, dtype=bool)
        outs = [[] for _ in range(B)]
        for _ in range(max_len):
            logits = decode_logits(params, cfg, enc_out, mask, rows, tgt_lang)
            step = np.argmax(logits.data[:, -1, :], axis=-1)
            for b in range(B):
                if not finished[b]:
                    outs[b].append(int(step[b]))
                    if step[b] == EOS:
                        finished[b] = True
            if finished.all():
                break
            rows = np.concatenate([rows, step.reshape(B, 1).astype(np.int32)], axis=1)
    return outs


def greedy_decode(params, cfg, src: np.ndarray, tgt_lang: str, max_len: int = 32):
    """Single-sentence greedy decode; `src` is a 1-D id array."""
    src = np.asarray(src).reshape(1, -1)
    return greedy_decode_batch(params, cfg, src, tgt_lang, max_len)[0]


def strip_body(ids) -> list:
    """Generated ids minus the trailing EOS (and anything after it)."""
    out = []
    for i in ids:
        if i == EOS:
            break
        out.append(int(i))
    return out
