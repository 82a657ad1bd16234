"""Transformer wiring: independent forward oracle, masks, language isolation."""

import math

import numpy as np
import pytest

from munmt import tensor as T
from munmt.errors import ConfigError, DataError
from munmt.model import (
    DecoderCache,
    ModelConfig,
    _decoder_stack,
    count_params,
    decode_logits,
    encode,
    forward_logits,
    greedy_decode_batch,
    init_params,
    param_shapes,
    strip_body,
)
from munmt.tokenizer import BOS, EOS, PAD

LANGS = ["en", "xa", "aa", "ab"]


def small_cfg(**kw):
    d = dict(languages=LANGS, vocab_size=23, layers=2, hidden=8, ffn=16,
             heads=2, max_positions=16)
    d.update(kw)
    return ModelConfig(**d)


def test_config_validation_enumerates():
    with pytest.raises(ConfigError) as ei:
        ModelConfig(languages=[], vocab_size=2, layers=0, hidden=7, heads=2).validate()
    msg = str(ei.value)
    assert "languages" in msg and "vocab_size" in msg and "layers" in msg and "heads" in msg


def test_init_deterministic_and_counted():
    cfg = small_cfg()
    a = init_params(cfg, seed=5)
    b = init_params(cfg, seed=5)
    for name in a.arrays:
        assert a.arrays[name].tobytes() == b.arrays[name].tobytes()
    c = init_params(cfg, seed=6)
    assert any(a.arrays[n].tobytes() != c.arrays[n].tobytes() for n in a.arrays)
    total = sum(v.size for v in a.arrays.values())
    assert total == count_params(cfg)


def test_param_count_closed_form():
    cfg = small_cfg()
    H, F, V, P = cfg.hidden, cfg.ffn, cfg.vocab_size, cfg.max_positions
    L, n = len(cfg.languages), cfg.layers
    emb = V * H + P * H + L * H
    enc = n * (4 * H * H + 2 * H * F + F + H + 4 * H) + 2 * H
    dec = n * (2 * (3 * H * H + L * H * H) + 2 * H * F + F + H + 6 * H) + 2 * H
    assert count_params(cfg) == emb + enc + dec


def _np_layernorm(x, g, b, eps=1e-5):
    mu = x.mean(-1, keepdims=True)
    var = ((x - mu) ** 2).mean(-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * g + b


def _np_softmax(x):
    e = np.exp(x - x.max(-1, keepdims=True))
    return e / e.sum(-1, keepdims=True)


def _np_attn(q_in, kv_in, wq, wk, wv, heads, mask):
    B, Lq, H = q_in.shape
    Lk = kv_in.shape[1]
    dh = H // heads
    q = (q_in @ wq).reshape(B, Lq, heads, dh).transpose(0, 2, 1, 3)
    k = (kv_in @ wk).reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3)
    v = (kv_in @ wv).reshape(B, Lk, heads, dh).transpose(0, 2, 1, 3)
    s = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
    if mask is not None:
        s = s + mask
    return (_np_softmax(s) @ v).transpose(0, 2, 1, 3).reshape(B, Lq, H)


def test_forward_matches_independent_numpy_mirror():
    # plain straight-line numpy reimplementation of the whole forward pass
    cfg = small_cfg()
    params = init_params(cfg, seed=11, dtype=np.float64)
    A = params.arrays
    src = np.asarray([[5, 6, 7, PAD], [8, 9, 10, 11]], dtype=np.int32)
    dec = np.asarray([[BOS, 12, 13], [BOS, 14, PAD]], dtype=np.int32)
    lang = "xa"
    got = forward_logits(params, cfg, src, dec, lang).data

    H = cfg.hidden
    smask = np.zeros((2, 1, 1, 4))
    smask[:, 0, 0, :][src == PAD] = -1e9
    x = A["tok_emb"][src] * math.sqrt(H) + A["pos_emb"][: src.shape[1]]
    for i in range(cfg.layers):
        p = f"enc.{i}"
        h = _np_layernorm(x, A[f"{p}.ln1.g"], A[f"{p}.ln1.b"])
        x = x + _np_attn(h, h, A[f"{p}.attn.wq"], A[f"{p}.attn.wk"],
                         A[f"{p}.attn.wv"], cfg.heads, smask) @ A[f"{p}.attn.wo"]
        h = _np_layernorm(x, A[f"{p}.ln2.g"], A[f"{p}.ln2.b"])
        x = x + (np.maximum(h @ A[f"{p}.ffn.w1"] + A[f"{p}.ffn.b1"], 0)
                 @ A[f"{p}.ffn.w2"] + A[f"{p}.ffn.b2"])
    enc_out = _np_layernorm(x, A["enc.final_ln.g"], A["enc.final_ln.b"])

    li = cfg.lang_index(lang)
    Lq = dec.shape[1]
    cmask = np.zeros((1, 1, Lq, Lq))
    cmask[0, 0][np.triu_indices(Lq, k=1)] = -1e9
    y = A["tok_emb"][dec] * math.sqrt(H) + A["pos_emb"][:Lq] + A["lang_emb"][li]
    for i in range(cfg.layers):
        p = f"dec.{i}"
        h = _np_layernorm(y, A[f"{p}.ln1.g"], A[f"{p}.ln1.b"])
        y = y + _np_attn(h, h, A[f"{p}.self.wq"], A[f"{p}.self.wk"],
                         A[f"{p}.self.wv"], cfg.heads, cmask) @ A[f"{p}.self.wo_bank"][li]
        h = _np_layernorm(y, A[f"{p}.ln2.g"], A[f"{p}.ln2.b"])
        y = y + _np_attn(h, enc_out, A[f"{p}.cross.wq"], A[f"{p}.cross.wk"],
                         A[f"{p}.cross.wv"], cfg.heads, smask) @ A[f"{p}.cross.wo_bank"][li]
        h = _np_layernorm(y, A[f"{p}.ln3.g"], A[f"{p}.ln3.b"])
        y = y + (np.maximum(h @ A[f"{p}.ffn.w1"] + A[f"{p}.ffn.b1"], 0)
                 @ A[f"{p}.ffn.w2"] + A[f"{p}.ffn.b2"])
    y = _np_layernorm(y, A["dec.final_ln.g"], A["dec.final_ln.b"])
    want = y @ A["tok_emb"].T

    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_pad_extension_leaves_real_positions_unchanged():
    cfg = small_cfg()
    params = init_params(cfg, seed=3, dtype=np.float64)
    src = np.asarray([[5, 6, 7]], dtype=np.int32)
    padded = np.asarray([[5, 6, 7, PAD, PAD]], dtype=np.int32)
    a, _ = encode(params, cfg, src)
    b, _ = encode(params, cfg, padded)
    np.testing.assert_allclose(a.data, b.data[:, :3, :], rtol=1e-9, atol=1e-11)


def test_language_embedding_changes_decoder_output():
    cfg = small_cfg()
    params = init_params(cfg, seed=4)
    src = np.asarray([[5, 6, 7]], dtype=np.int32)
    dec = np.asarray([[BOS, 8]], dtype=np.int32)
    a = forward_logits(params, cfg, src, dec, "xa").data
    b = forward_logits(params, cfg, src, dec, "aa").data
    assert not np.allclose(a, b)


def test_encoder_has_no_language_input():
    # same source through encode() is the only path; nothing accepts a language
    cfg = small_cfg()
    params = init_params(cfg, seed=4)
    out, _ = encode(params, cfg, np.asarray([[5, 6]], dtype=np.int32))
    assert out.shape == (1, 2, cfg.hidden)


def test_identical_batch_rows_identical_outputs():
    cfg = small_cfg()
    params = init_params(cfg, seed=9)
    src = np.asarray([[5, 6, 7], [5, 6, 7]], dtype=np.int32)
    dec = np.asarray([[BOS, 8, 9], [BOS, 8, 9]], dtype=np.int32)
    out = forward_logits(params, cfg, src, dec, "en").data
    np.testing.assert_allclose(out[0], out[1], rtol=1e-6, atol=1e-7)


def test_causal_masking_via_gradients():
    # grad of an early position's logits wrt later decoder inputs must vanish
    cfg = small_cfg()
    params = init_params(cfg, seed=8, dtype=np.float64)
    src = np.asarray([[5, 6]], dtype=np.int32)
    enc_out, mask = encode(params, cfg, src)
    rng = np.random.default_rng(0)
    dec_emb = T.parameter(rng.normal(size=(1, 4, cfg.hidden)), "dec_emb")
    h = _decoder_stack(params, cfg, enc_out, mask, dec_emb, 1)
    pick = np.zeros((1, 4, cfg.hidden))
    pick[0, 1, :] = 1.0  # position 1 outputs only
    loss = T.sum_all(T.mul(h, T.constant(pick)))
    g = T.backward(loss, {"dec_emb": dec_emb})["dec_emb"]
    assert np.max(np.abs(g[0, 2:, :])) == 0.0
    assert np.max(np.abs(g[0, :2, :])) > 0.0


def test_causality_via_input_perturbation():
    cfg = small_cfg()
    params = init_params(cfg, seed=8)
    src = np.asarray([[5, 6]], dtype=np.int32)
    enc_out, mask = encode(params, cfg, src)
    d1 = np.asarray([[BOS, 7, 8, 9]], dtype=np.int32)
    d2 = np.asarray([[BOS, 7, 10, 11]], dtype=np.int32)  # differs from pos 2 on
    l1 = decode_logits(params, cfg, enc_out, mask, d1, "xa").data
    l2 = decode_logits(params, cfg, enc_out, mask, d2, "xa").data
    np.testing.assert_allclose(l1[:, :2, :], l2[:, :2, :], rtol=1e-6, atol=1e-7)
    assert not np.allclose(l1[:, 2:, :], l2[:, 2:, :])


def test_per_language_bank_isolation():
    # training with tgt_lang "xa" must leave every other language's bank rows
    # untouched: their gradients are exactly zero
    cfg = small_cfg()
    params = init_params(cfg, seed=13, dtype=np.float64)
    src = np.asarray([[5, 6, 7]], dtype=np.int32)
    dec = np.asarray([[BOS, 8, 9]], dtype=np.int32)
    logits = forward_logits(params, cfg, src, dec, "xa")
    loss = T.sum_all(T.mul(logits, logits))
    grads = T.backward(loss, params.tensors)
    xa = cfg.lang_index("xa")
    for i in range(cfg.layers):
        for blk in ("self", "cross"):
            g = grads[f"dec.{i}.{blk}.wo_bank"]
            for li in range(len(cfg.languages)):
                if li == xa:
                    assert np.max(np.abs(g[li])) > 0.0
                else:
                    assert np.max(np.abs(g[li])) == 0.0
    # language embedding rows behave the same way
    ge = grads["lang_emb"]
    assert np.max(np.abs(ge[xa])) > 0.0
    others = [li for li in range(len(cfg.languages)) if li != xa]
    assert np.max(np.abs(ge[others])) == 0.0


def _rigged(cfg, winner):
    """All-zero model whose decoder always argmaxes `winner`."""
    params = init_params(cfg, seed=0, dtype=np.float32)
    for k in params.arrays:
        params.arrays[k][:] = 0.0
    # final-ln bias picks direction e0; only `winner` projects onto it
    params.arrays["dec.final_ln.b"][0] = 1.0
    params.arrays["tok_emb"][winner, 0] = 1.0
    return params


def decode_one(params, cfg, ids, tgt_lang, max_len):
    """Greedy decode of one sentence, as a one-row block."""
    return greedy_decode_batch(params, cfg, np.asarray([ids], dtype=np.int32),
                               tgt_lang, max_len)[0]


def _sq_logits_loss(params, cfg):
    src = np.asarray([[5, 6, 7]], dtype=np.int32)
    dec = np.asarray([[BOS, 8, 9]], dtype=np.int32)
    logits = forward_logits(params, cfg, src, dec, "xa")
    return T.sum_all(T.mul(logits, logits))


def test_backward_lays_the_gradient_out_like_the_parameters():
    cfg = small_cfg()
    params = init_params(cfg, seed=13, dtype=np.float64)
    grads = T.backward(_sq_logits_loss(params, cfg), params.tensors)
    assert list(grads) == list(params.arrays)
    flat = np.concatenate([grads[k].reshape(-1) for k in params.arrays])
    assert flat.tobytes() == params.grad.tobytes()
    assert np.any(params.grad != 0.0)
    for k, g in grads.items():
        assert g.shape == params.arrays[k].shape
        assert np.shares_memory(g, params.grad)


def test_backward_leaves_parameters_outside_its_set_unwritten():
    cfg = small_cfg()
    params = init_params(cfg, seed=13, dtype=np.float64)
    params.grad[...] = 7.0
    only = {"tok_emb": params.tensors["tok_emb"]}
    g = T.backward(_sq_logits_loss(params, cfg), only)["tok_emb"]
    assert np.any(g != 7.0)
    for k, t in params.tensors.items():
        if k != "tok_emb":
            assert np.all(t.grad == 7.0), k


def test_greedy_decode_eos_rig_gives_empty_body():
    cfg = small_cfg()
    params = _rigged(cfg, EOS)
    out = decode_one(params, cfg, [5, 6], "xa", max_len=32)
    assert out == [EOS]
    assert strip_body(out) == []


def test_greedy_decode_never_eos_hits_max_len():
    cfg = small_cfg()
    params = _rigged(cfg, 7)
    out = decode_one(params, cfg, [5, 6], "xa", max_len=5)
    assert out == [7, 7, 7, 7, 7]


def test_greedy_decode_tie_breaks_to_lowest_id():
    cfg = small_cfg()
    params = init_params(cfg, seed=0)
    for k in params.arrays:
        params.arrays[k][:] = 0.0
    # all logits identical: argmax must return id 0 every step
    out = decode_one(params, cfg, [5], "en", max_len=3)
    assert out == [0, 0, 0]


def test_batch_decode_matches_single_decode():
    cfg = small_cfg()
    params = init_params(cfg, seed=21)
    rows = [
        np.asarray([5, 6, 7], dtype=np.int32),
        np.asarray([8, 9], dtype=np.int32),
        np.asarray([10, 11, 12, 13], dtype=np.int32),
    ]
    width = max(len(r) for r in rows)
    block = np.full((3, width), PAD, dtype=np.int32)
    for i, r in enumerate(rows):
        block[i, : len(r)] = r
    batched = greedy_decode_batch(params, cfg, block, "xa", max_len=8)
    for i, r in enumerate(rows):
        single = decode_one(params, cfg, r, "xa", max_len=8)
        assert batched[i] == single


def test_cached_step_logits_equal_teacher_forced_last_rows():
    # feeding one position at a time against the cache gives, at every step,
    # the last row of the teacher-forced logits of the whole prefix; in float64
    # up to a few ulps, because a one-row product may sum in another order
    cfg = small_cfg()
    params = init_params(cfg, seed=17, dtype=np.float64)
    src = np.asarray([[5, 6, 7, PAD], [8, 9, 10, 11], [12, PAD, PAD, PAD]], dtype=np.int32)
    prefix = np.asarray([[BOS, 13, 14, 15, 16, 17, 18],
                         [BOS, 19, 20, 21, 22, 5, 6],
                         [BOS, 7, 8, 9, 10, 11, 12]], dtype=np.int32)
    with T.no_grad():
        enc_out, mask = encode(params, cfg, src)
        cache = DecoderCache(params, cfg, enc_out, prefix.shape[1])
        for t in range(prefix.shape[1]):
            step = decode_logits(params, cfg, None, mask, prefix[:, t:t + 1], "xa", cache)
            full = decode_logits(params, cfg, enc_out, mask, prefix[:, :t + 1], "xa")
            assert cache.length == t + 1
            np.testing.assert_allclose(step.data[:, 0], full.data[:, -1], rtol=0, atol=1e-12)


def test_rows_finishing_at_different_steps_decode_as_alone():
    # rows leave the working batch as they emit EOS; the rest must not notice
    cfg = small_cfg()
    params = init_params(cfg, seed=27)
    params.arrays["tok_emb"][EOS] *= 2.0  # makes EOS likely, at varied steps
    rows = [[5, 6, 7, 8, 9], [10, 11, 12], [13, 14, 15, 16], [17, 18],
            [19, 20, 21, 22, 5], [6]]
    block = np.full((len(rows), 5), PAD, dtype=np.int32)
    for i, r in enumerate(rows):
        block[i, : len(r)] = r
    batched = greedy_decode_batch(params, cfg, block, "xa", max_len=12)
    eos_steps = {len(out) for out in batched if out[-1] == EOS}
    assert len(eos_steps) >= 3 and any(out[-1] != EOS for out in batched)
    for out, r in zip(batched, rows):
        assert out == decode_one(params, cfg, r, "xa", max_len=12)


def test_greedy_decode_caps_max_len_at_the_position_table():
    cfg = small_cfg(max_positions=6)
    params = _rigged(cfg, 7)
    assert decode_one(params, cfg, [5, 6], "xa", max_len=50) == [7] * 5


def test_too_long_sequence_rejected():
    cfg = small_cfg(max_positions=4)
    params = init_params(cfg, seed=2)
    with pytest.raises(DataError):
        encode(params, cfg, np.zeros((1, 5), dtype=np.int32) + 5)
    with pytest.raises(DataError):
        encode(params, cfg, np.asarray([[5, 6, cfg.vocab_size]], dtype=np.int32))


def test_unknown_language_rejected():
    cfg = small_cfg()
    params = init_params(cfg, seed=2)
    src = np.asarray([[5]], dtype=np.int32)
    enc_out, mask = encode(params, cfg, src)
    with pytest.raises(ConfigError):
        decode_logits(params, cfg, enc_out, mask, np.asarray([[BOS]], dtype=np.int32), "zz")
