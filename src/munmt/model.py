"""Shared-encoder transformer with per-language decoder conditioning.

Pre-layernorm encoder-decoder. The encoder gets no language signal at all;
the decoder adds a learned language embedding to its inputs and routes every
attention sublayer's output projection through a per-language weight bank,
so each target language owns that slice of the decoder while everything
else is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .config import ModelSpec
from .errors import ConfigError, DataError
from .rng import named_rng
from .tokenizer import BOS, EOS, PAD

NEG = -1e9  # additive mask value; exp() underflows to exactly 0 after shift


@dataclass(kw_only=True)
class ModelConfig(ModelSpec):
    """The config's model section plus what the data fixes: the languages
    and the vocabulary size."""

    languages: list  # language names; index order defines embedding rows
    vocab_size: int

    def validate(self):
        bad = []
        if not self.languages or len(set(self.languages)) != len(self.languages):
            bad.append("languages must be non-empty and unique")
        if self.vocab_size < 6:
            bad.append(f"vocab_size must cover the specials, got {self.vocab_size}")
        super().validate("model", bad)
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
    """The parameter count, from the one- and two-layer layouts: every layer
    is the same size, so the cost does not grow with `layers` (a checkpoint
    sizes an untrusted geometry by this before laying it out)."""
    one, two = (sum(math.prod(s) for s in param_shapes(replace(cfg, layers=n)).values())
                for n in (1, 2))
    return one + (cfg.layers - 1) * (two - one)


class ModelParams:
    """The parameter store, and the only owner of the parameter layout.

    Every parameter lives in one contiguous buffer, `flat`, in the order of
    `arrays`, and its gradient at the same span of `grad`. `arrays[name]` are
    reshaped views into `flat`, and `tensors[name]` wrap them with the
    matching views of `grad`, so an in-place write to `flat` (an optimizer
    step, a restore) is seen through every name, and `T.backward` leaves the
    gradient laid out like `flat`. `np.zeros` maps pages only when written,
    so a model that never trains pays nothing for `grad`.
    """

    def __init__(self, arrays: dict):
        arrays = {k: np.asarray(v) for k, v in arrays.items()}
        dtype = next(iter(arrays.values())).dtype if arrays else np.float32
        size = sum(a.size for a in arrays.values())
        self.flat = np.empty(size, dtype=dtype)
        self.grad = np.zeros(size, dtype=dtype)
        self.arrays = {}
        self.tensors = {}
        pos = 0
        for k, a in arrays.items():
            span = slice(pos, pos + a.size)
            self.arrays[k] = self.flat[span].reshape(a.shape)
            self.arrays[k][...] = a
            self.tensors[k] = T.parameter(self.arrays[k], k, self.grad[span].reshape(a.shape))
            pos += a.size

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def copy(self) -> "ModelParams":
        return ModelParams(self.arrays)


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


def _attention(q, k, v, heads: int, mask) -> T.Tensor:
    """Scaled dot-product attention over projected (B, L, H) queries, keys
    and values."""
    q, k, v = (_split_heads(t, heads) for t in (q, k, v))
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(q.shape[-1]))
    if mask is not None:
        scores = T.add(scores, T.constant(mask))
    return _merge_heads(T.matmul(T.softmax(scores), v))


def _kv(params, prefix: str, x: T.Tensor):
    """The keys and values that attention block `prefix` reads from x."""
    return T.matmul(x, params[f"{prefix}.wk"]), T.matmul(x, params[f"{prefix}.wv"])


def _ffn(params, prefix: str, x: T.Tensor) -> T.Tensor:
    h = T.relu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return T.add(T.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _ln(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.layernorm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _embed(params, cfg: ModelConfig, ids: np.ndarray, lang: str | None, offset: int = 0):
    """Embeds ids as positions offset .. offset+L-1."""
    B, L = ids.shape
    if offset + L > cfg.max_positions:
        raise DataError(f"sequence length {offset + L} exceeds max_positions {cfg.max_positions}")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise DataError("token id out of range for the model vocabulary")
    x = T.scale(T.embedding(params["tok_emb"], ids), math.sqrt(cfg.hidden))
    x = T.add(x, T.embedding(params["pos_emb"], np.arange(offset, offset + L)))
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
        a = _attention(T.matmul(h, params[f"{p}.attn.wq"]), *_kv(params, f"{p}.attn", h),
                       cfg.heads, mask)
        x = T.add(x, T.matmul(a, params[f"{p}.attn.wo"]))
        x = T.add(x, _ffn(params, f"{p}.ffn", _ln(params, f"{p}.ln2", x)))
    return _ln(params, "enc.final_ln", x), mask


class DecoderCache:
    """What step decoding keeps between steps, per decoder layer: the
    cross-attention keys and values, projected once from the encoder output,
    and the self-attention keys and values of every position fed so far
    (fairseq's incremental state, Ott et al., 2019). Both are (layers, 2,
    B, positions, H) constant arrays, so it serves `T.no_grad` decoding only;
    the self-attention one holds `max_len` positions, filled step by step.
    """

    def __init__(self, params: ModelParams, cfg: ModelConfig, enc_out: T.Tensor,
                 max_len: int):
        self.cross_kv = np.stack([[t.data for t in _kv(params, f"dec.{i}.cross", enc_out)]
                                  for i in range(cfg.layers)])
        self.self_kv = np.empty((cfg.layers, 2, enc_out.shape[0], max_len, cfg.hidden),
                                dtype=enc_out.dtype)
        self.length = 0  # positions fed so far

    def extend(self, layer: int, k: T.Tensor, v: T.Tensor):
        """Writes the newest positions' self-attention keys and values after
        layer `layer`'s cached ones and returns all of them. The last
        layer's call completes the step."""
        t, n = self.length, k.shape[1]
        kv = self.self_kv[layer]
        kv[0, :, t:t + n] = k.data
        kv[1, :, t:t + n] = v.data
        if layer == len(self.self_kv) - 1:
            self.length += n
        return T.constant(kv[0, :, :t + n]), T.constant(kv[1, :, :t + n])

    def keep(self, rows: np.ndarray) -> None:
        """Drops every batch row that the index or mask `rows` leaves out."""
        self.cross_kv = self.cross_kv[:, :, rows]
        self.self_kv = self.self_kv[:, :, rows]


def _decoder_stack(params: ModelParams, cfg: ModelConfig, enc_out: T.Tensor | None,
                   src_mask: np.ndarray, dec_x: T.Tensor, lang_idx: int,
                   cache: DecoderCache | None = None) -> T.Tensor:
    """Decoder body from embedded inputs to final hidden states.

    Without a cache `dec_x` holds whole prefixes, which attend causally.
    With one it holds the next positions: their self-attention keys and
    values join the cache's, which they attend to in full, and the
    cross-attention keys and values come from the cache, so `enc_out` is
    not read.
    """
    cmask = None if cache else causal_mask(dec_x.shape[1], dec_x.dtype)
    x = dec_x
    for i in range(cfg.layers):
        p = f"dec.{i}"
        h = _ln(params, f"{p}.ln1", x)
        k, v = _kv(params, f"{p}.self", h)
        if cache:
            k, v = cache.extend(i, k, v)
        a = _attention(T.matmul(h, params[f"{p}.self.wq"]), k, v, cfg.heads, cmask)
        wo = T.embedding(params[f"{p}.self.wo_bank"], lang_idx)
        x = T.add(x, T.matmul(a, wo))
        h = _ln(params, f"{p}.ln2", x)
        k, v = map(T.constant, cache.cross_kv[i]) if cache else _kv(params, f"{p}.cross", enc_out)
        a = _attention(T.matmul(h, params[f"{p}.cross.wq"]), k, v, cfg.heads, src_mask)
        wo = T.embedding(params[f"{p}.cross.wo_bank"], lang_idx)
        x = T.add(x, T.matmul(a, wo))
        x = T.add(x, _ffn(params, f"{p}.ffn", _ln(params, f"{p}.ln3", x)))
    return _ln(params, "dec.final_ln", x)


def decode_logits(params: ModelParams, cfg: ModelConfig, enc_out: T.Tensor | None,
                  src_mask: np.ndarray, dec_ids: np.ndarray, tgt_lang: str,
                  cache: DecoderCache | None = None) -> T.Tensor:
    """Decoder logits (B, Lt, V); output projection tied to tok_emb.

    Teacher-forced without a cache. With one, `dec_ids` are the positions
    that follow the cached ones; see `_decoder_stack`.
    """
    dec_ids = np.asarray(dec_ids)
    lang_idx = cfg.lang_index(tgt_lang)
    x = _embed(params, cfg, dec_ids, lang=tgt_lang, offset=cache.length if cache else 0)
    h = _decoder_stack(params, cfg, enc_out, src_mask, x, lang_idx, cache)
    return T.matmul(h, T.transpose(params["tok_emb"], (1, 0)))


def forward_logits(params, cfg, src_ids, dec_ids, tgt_lang) -> T.Tensor:
    enc_out, mask = encode(params, cfg, src_ids)
    return decode_logits(params, cfg, enc_out, mask, dec_ids, tgt_lang)


# ---------------------------------------------------------------------------
# greedy decoding


def greedy_decode_batch(params: ModelParams, cfg: ModelConfig, src_ids: np.ndarray,
                        tgt_lang: str, max_len: int):
    """Greedy decode every row of a padded source batch.

    Returns a list of int lists: generated ids up to and including EOS when
    EOS is produced within max_len steps, else max_len ids with no EOS.
    Ties at the argmax go to the lowest token id. Pure function of inputs.

    The source is encoded once; each step feeds only the newest token of
    each unfinished row, against a DecoderCache, and a row leaves the
    working batch when it emits EOS.
    """
    if max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    max_len = min(max_len, cfg.max_positions - 1)
    src_ids = np.asarray(src_ids)
    outs = [[] for _ in range(src_ids.shape[0])]
    with T.no_grad():
        enc_out, mask = encode(params, cfg, src_ids)
        cache = DecoderCache(params, cfg, enc_out, max_len)
        live = np.arange(len(outs))  # the batch row of each working row
        step = np.full(len(outs), BOS, dtype=np.int32)
        for _ in range(max_len):
            logits = decode_logits(params, cfg, None, mask, step[:, None], tgt_lang, cache)
            step = np.argmax(logits.data[:, -1, :], axis=-1).astype(np.int32)
            for b, tok in zip(live, step):
                outs[b].append(int(tok))
            going = step != EOS
            if not going.any():
                break
            if not going.all():
                live, step, mask = live[going], step[going], mask[going]
                cache.keep(going)
    return outs


def strip_body(ids) -> list:
    """Generated ids minus the trailing EOS (and anything after it)."""
    out = []
    for i in ids:
        if i == EOS:
            break
        out.append(int(i))
    return out
