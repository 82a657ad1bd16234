"""Shared-encoder transformer with per-language decoder conditioning.

Pre-layernorm encoder-decoder. The encoder gets no language signal at all;
the decoder adds a learned language embedding to its inputs and routes every
attention sublayer's output projection through a per-language weight bank,
so each target language owns that slice of the decoder while everything
else is shared.
"""

from __future__ import annotations

import functools
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

    languages: list[str]  # index order defines embedding rows
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


def _ln_pair(params, prefix: str):
    return params[f"{prefix}.g"], params[f"{prefix}.b"]


def _ln(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.layernorm(x, *_ln_pair(params, prefix))


def _attn(params, ln: str, prefix: str, wo: str, x: T.Tensor, heads: int, mask, **kw):
    w = tuple(params[f"{prefix}.{n}"] for n in ("wq", "wk", "wv", wo))
    return T.attention_sublayer(x, _ln_pair(params, ln), w, heads, mask, **kw)


def _ffn(params, ln: str, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.ffn_sublayer(x, _ln_pair(params, ln),
                          *(params[f"{prefix}.{n}"] for n in ("w1", "b1", "w2", "b2")))


def _lang_rows(cfg: ModelConfig, lang) -> tuple:
    """The language row of each row group. `lang` is one language, or a
    tuple of languages under the row-group rule: the batch rows split into
    that many equal consecutive groups, and group j is in language j."""
    return tuple(cfg.lang_index(n) for n in ((lang,) if isinstance(lang, str) else lang))


def _embed(params, cfg: ModelConfig, ids: np.ndarray, rows: tuple | None, offset: int = 0):
    """Embeds ids as positions offset .. offset+L-1, plus the language
    embedding of each row's group when `rows` (see `_lang_rows`) is given."""
    B, L = ids.shape
    if offset + L > cfg.max_positions:
        raise DataError(f"sequence length {offset + L} exceeds max_positions {cfg.max_positions}")
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise DataError("token id out of range for the model vocabulary")
    x = T.scale(T.embedding(params["tok_emb"], ids), math.sqrt(cfg.hidden))
    x = T.add(x, T.embedding(params["pos_emb"], np.arange(offset, offset + L)))
    if rows is not None:
        if B % len(rows):
            raise DataError(f"{B} rows do not split into {len(rows)} language groups")
        idx = rows[0] if len(rows) == 1 else np.repeat(rows, B // len(rows))[:, None]
        x = T.add(x, T.embedding(params["lang_emb"], idx))
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
    x = _embed(params, cfg, src_ids, None)
    for i in range(cfg.layers):
        p = f"enc.{i}"
        x = _attn(params, f"{p}.ln1", f"{p}.attn", "wo", x, cfg.heads, mask)
        x = _ffn(params, f"{p}.ln2", f"{p}.ffn", x)
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
        enc = enc_out.data.reshape(-1, cfg.hidden)  # rows folded, as the sublayer node does
        self.cross_kv = np.stack([[enc @ params.arrays[f"dec.{i}.cross.{w}"] for w in ("wk", "wv")]
                                  for i in range(cfg.layers)]).reshape(
            cfg.layers, 2, *enc_out.shape)
        self.self_kv = np.empty((cfg.layers, 2, enc_out.shape[0], max_len, cfg.hidden),
                                dtype=enc_out.dtype)
        self.length = 0  # positions fed so far

    def extend(self, layer: int, k: np.ndarray, v: np.ndarray):
        """Writes the newest positions' self-attention keys and values after
        layer `layer`'s cached ones and returns all of them. The last
        layer's call completes the step."""
        t, n = self.length, k.shape[1]
        kv = self.self_kv[layer]
        kv[0, :, t:t + n] = k
        kv[1, :, t:t + n] = v
        if layer == len(self.self_kv) - 1:
            self.length += n
        return kv[0, :, :t + n], kv[1, :, :t + n]

    def keep(self, rows: np.ndarray) -> None:
        """Drops every batch row that the index or mask `rows` leaves out."""
        self.cross_kv = self.cross_kv[:, :, rows]
        self.self_kv = self.self_kv[:, :, rows]


def _decoder_stack(params: ModelParams, cfg: ModelConfig, enc_out: T.Tensor | None,
                   src_mask: np.ndarray, dec_x: T.Tensor, rows: tuple,
                   cache: DecoderCache | None = None) -> T.Tensor:
    """Decoder body from embedded inputs to final hidden states, with the
    bank rows `rows` of `_lang_rows`.

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
        x = _attn(params, f"{p}.ln1", f"{p}.self", "wo_bank", x, cfg.heads, cmask,
                  bank_rows=rows, kv=cache and functools.partial(cache.extend, i))
        x = _attn(params, f"{p}.ln2", f"{p}.cross", "wo_bank", x, cfg.heads, src_mask,
                  bank_rows=rows, memory=None if cache else enc_out,
                  kv=cache and tuple(cache.cross_kv[i]))
        x = _ffn(params, f"{p}.ln3", f"{p}.ffn", x)
    return _ln(params, "dec.final_ln", x)


def decode_logits(params: ModelParams, cfg: ModelConfig, enc_out: T.Tensor | None,
                  src_mask: np.ndarray, dec_ids: np.ndarray, tgt_lang,
                  cache: DecoderCache | None = None) -> T.Tensor:
    """Decoder logits (B, Lt, V); output projection tied to tok_emb.

    `tgt_lang` is a language, or a tuple of them under the row-group rule
    (see `_lang_rows`). Teacher-forced without a cache. With one, `dec_ids`
    are the positions that follow the cached ones; see `_decoder_stack`.
    """
    dec_ids = np.asarray(dec_ids)
    rows = _lang_rows(cfg, tgt_lang)
    x = _embed(params, cfg, dec_ids, rows, offset=cache.length if cache else 0)
    h = _decoder_stack(params, cfg, enc_out, src_mask, x, rows, cache)
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
