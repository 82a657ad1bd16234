"""Transformer wiring: independent forward oracle, masks, language isolation."""

import math

import numpy as np
import pytest

from munmt import tensor as T
from munmt.errors import ConfigError, DataError, NumericError
from munmt.objectives import cross_entropy_loss
from munmt.model import (
    DecoderCache,
    ModelConfig,
    ModelParams,
    _decoder_stack,
    count_params,
    decode_logits,
    encode,
    forward_logits,
    greedy_decode_batch,
    init_params,
    param_shapes,
    src_key_mask,
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
    h = _decoder_stack(params, cfg, enc_out, mask, dec_emb, (1,))
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


def _graph_nodes(loss):
    """Nodes reachable from `loss` through grad-requiring parents: the set
    backward walks, leaves included."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


# teacher-forced `ce` at the small geometry (2 layers, 67 parameter leaves):
# one node per residual sublayer; with one node per attention block and the
# projections, layernorms, relu and residual adds as primitives it built 156
CE_NODES_MAX = 92


def test_teacher_forced_loss_graph_stays_fused(monkeypatch):
    cfg = small_cfg()
    params = init_params(cfg, seed=13)
    made = {"attention_sublayer": [], "ffn_sublayer": []}
    for kind, out in made.items():
        def recorded(*args, _real=getattr(T, kind), _out=out, **kw):
            _out.append(_real(*args, **kw))
            return _out[-1]
        monkeypatch.setattr(T, kind, recorded)
    src = [np.asarray([5, 6, 7]), np.asarray([8, 9])]
    tgt = [np.asarray([10, 11]), np.asarray([12, 13, 14])]
    nodes = _graph_nodes(cross_entropy_loss(params, cfg, src, tgt, "xa"))
    assert len(nodes) <= CE_NODES_MAX
    assert len(made["attention_sublayer"]) == 3 * cfg.layers
    assert len(made["ffn_sublayer"]) == 2 * cfg.layers
    # each sublayer is one node, whose parents are its residual input and
    # its own parameters
    ids = {id(n) for n in nodes}
    for out in made["attention_sublayer"] + made["ffn_sublayer"]:
        assert id(out) in ids
        names = [p.name.rsplit(".", 1)[-1] for p in out.parents[1:7]]
        assert names in (["g", "b", "wq", "wk", "wv", "wo"],
                         ["g", "b", "wq", "wk", "wv", "wo_bank"],
                         ["g", "b", "w1", "b1", "w2", "b2"]), names


def _chain_ln(P, name, x):
    return T.layernorm(x, P[f"{name}.g"], P[f"{name}.b"])


def _chain_ffn(P, ln, name, x):
    h = T.relu(T.add(T.matmul(_chain_ln(P, ln, x), P[f"{name}.w1"]), P[f"{name}.b1"]))
    return T.add(x, T.add(T.matmul(h, P[f"{name}.w2"]), P[f"{name}.b2"]))


def _chain_attn(P, ln, name, wo, x, heads, mask, kv=None, memory=None):
    h = _chain_ln(P, ln, x)
    if kv is None:
        m = h if memory is None else memory
        kv = T.matmul(m, P[f"{name}.wk"]), T.matmul(m, P[f"{name}.wv"])
    a = T.attention(T.matmul(h, P[f"{name}.wq"]), *kv, heads, mask)
    return T.add(x, T.matmul(a, wo))


def _chained_step_logits(params, cfg, src, prefix, lang):
    """Cached greedy-decoding step logits built from primitives, the chain
    the sublayer nodes replace: the encoder once, then one position a step
    against the self-attention keys and values of the earlier ones."""
    P, heads = params.tensors, cfg.heads
    mask = src_key_mask(src, np.float32)
    x = T.add(T.scale(T.embedding(P["tok_emb"], src), math.sqrt(cfg.hidden)),
              T.embedding(P["pos_emb"], np.arange(src.shape[1])))
    for i in range(cfg.layers):
        p = f"enc.{i}"
        x = _chain_attn(P, f"{p}.ln1", f"{p}.attn", P[f"{p}.attn.wo"], x, heads, mask)
        x = _chain_ffn(P, f"{p}.ln2", f"{p}.ffn", x)
    enc = _chain_ln(P, "enc.final_ln", x)
    store = DecoderCache(params, cfg, enc, prefix.shape[1])  # storage only
    li = cfg.lang_index(lang)
    steps = []
    for t in range(prefix.shape[1]):
        y = T.add(T.scale(T.embedding(P["tok_emb"], prefix[:, t:t + 1]), math.sqrt(cfg.hidden)),
                  T.embedding(P["pos_emb"], np.arange(t, t + 1)))
        y = T.add(y, T.embedding(P["lang_emb"], li))
        for i in range(cfg.layers):
            p = f"dec.{i}"
            h = _chain_ln(P, f"{p}.ln1", y)
            kv = store.extend(i, T.matmul(h, P[f"{p}.self.wk"]).data,
                              T.matmul(h, P[f"{p}.self.wv"]).data)
            y = _chain_attn(P, f"{p}.ln1", f"{p}.self", T.embedding(P[f"{p}.self.wo_bank"], li),
                            y, heads, None, kv=tuple(map(T.constant, kv)))
            y = _chain_attn(P, f"{p}.ln2", f"{p}.cross", T.embedding(P[f"{p}.cross.wo_bank"], li),
                            y, heads, mask, memory=enc)
            y = _chain_ffn(P, f"{p}.ln3", f"{p}.ffn", y)
        y = _chain_ln(P, "dec.final_ln", y)
        steps.append(T.matmul(y, T.transpose(P["tok_emb"], (1, 0))).data)
    return steps


def test_cached_decode_step_is_bit_identical_to_the_primitive_chain():
    cfg = small_cfg()
    params = init_params(cfg, seed=17)
    src = np.asarray([[5, 6, 7, PAD], [8, 9, 10, 11], [12, PAD, PAD, PAD]], dtype=np.int32)
    prefix = np.asarray([[BOS, 13, 14, 15, 16, 17],
                         [BOS, 19, 20, 21, 22, 5],
                         [BOS, 7, 8, 9, 10, 11]], dtype=np.int32)
    with T.no_grad():
        want = _chained_step_logits(params, cfg, src, prefix, "xa")
        enc_out, mask = encode(params, cfg, src)
        cache = DecoderCache(params, cfg, enc_out, prefix.shape[1])
        for t in range(prefix.shape[1]):
            got = decode_logits(params, cfg, None, mask, prefix[:, t:t + 1], "xa", cache)
            assert got.data.tobytes() == want[t].tobytes(), t


def test_cached_keys_and_values_refuse_a_gradient():
    cfg = small_cfg()
    params = init_params(cfg, seed=17)
    src = np.asarray([[5, 6]], dtype=np.int32)
    with T.no_grad():
        enc_out, mask = encode(params, cfg, src)
        cache = DecoderCache(params, cfg, enc_out, 2)
    with pytest.raises(NumericError):
        decode_logits(params, cfg, None, mask, np.asarray([[BOS]], dtype=np.int32), "xa", cache)


def test_two_language_groups_decode_as_two_batches():
    # the row-group rule: rows 0-1 in xa and rows 2-3 in en give the logits
    # of two separate batches of the same padded lengths
    cfg = small_cfg()
    params = init_params(cfg, seed=19, dtype=np.float64)
    src = np.asarray([[5, 6, 7], [8, 9, PAD], [10, 11, 12], [13, PAD, PAD]], dtype=np.int32)
    dec = np.asarray([[BOS, 8, 9], [BOS, 14, PAD], [BOS, 15, 16], [BOS, 17, 18]], dtype=np.int32)
    both = forward_logits(params, cfg, src, dec, ("xa", "en")).data
    np.testing.assert_allclose(both[:2], forward_logits(params, cfg, src[:2], dec[:2], "xa").data,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(both[2:], forward_logits(params, cfg, src[2:], dec[2:], "en").data,
                               rtol=1e-12, atol=1e-12)
    with pytest.raises(DataError):
        forward_logits(params, cfg, src[:3], dec[:3], ("xa", "en"))


def test_float32_gradient_within_tolerance_of_float64():
    # toy geometry, a `ce2` batch (both directions of a parallel pair): the
    # row-folded products sum in another order than per-row ones, which is
    # allowed only within this relative L2 of a float64 reference
    cfg = ModelConfig(languages=LANGS, vocab_size=240, layers=2, hidden=64, ffn=256,
                      heads=4, max_positions=64)
    p32 = init_params(cfg, seed=21)
    p64 = ModelParams({k: v.astype(np.float64) for k, v in p32.arrays.items()})
    rng = np.random.default_rng(4)
    rows = [rng.integers(5, 240, size=rng.integers(4, 20)) for _ in range(16)]
    src, tgt = rows[:8], rows[8:]
    for params in (p32, p64):
        T.backward(cross_entropy_loss(params, cfg, src, tgt, "xa", "en"), params.tensors)
    rel = np.linalg.norm(p32.grad - p64.grad) / np.linalg.norm(p64.grad)
    assert rel <= 1e-5, rel


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
