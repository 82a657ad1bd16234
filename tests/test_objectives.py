"""Loss definitions: hand arithmetic, masking distribution, decode-through."""

import numpy as np
import pytest

from munmt import objectives as obj
from munmt import tensor as T
from munmt.errors import ConfigError, DataError
from munmt.model import ModelConfig, init_params
from munmt.objectives import (
    MaskSpec,
    apply_mask,
    back_translation_loss,
    cross_entropy_loss,
    cross_translation_loss,
    draw_mask_spec,
    mass_loss,
    mass_loss_for_spec,
    sequence_nll,
)
from munmt.rng import named_rng
from munmt.tokenizer import BOS, EOS, MASK, PAD

LANGS = ["en", "xa", "aa"]


def small_cfg(**kw):
    d = dict(languages=LANGS, vocab_size=19, layers=1, hidden=8, ffn=16,
             heads=2, max_positions=24)
    d.update(kw)
    return ModelConfig(**d)


def test_sequence_nll_uniform_two_way_is_ln2():
    # two classes, equal logits: -log p = ln 2 per token, hand arithmetic
    logits = T.constant(np.zeros((1, 3, 2)))
    targets = np.asarray([[1, 1, 1]])
    loss = sequence_nll(logits, targets)
    assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-12)


def test_sequence_nll_excludes_pad_positions():
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(2, 4, 7))
    targets = np.asarray([[5, 6, PAD, PAD], [5, PAD, PAD, PAD]])
    loss = float(sequence_nll(T.constant(raw), targets).data)
    # independent per-token computation
    want = []
    for b in range(2):
        for t in range(4):
            y = targets[b, t]
            if y == PAD:
                continue
            row = raw[b, t]
            want.append(-(row[y] - np.log(np.exp(row - row.max()).sum()) - row.max()))
    assert loss == pytest.approx(np.mean(want), rel=1e-10)


def test_sequence_nll_one_hot_drives_to_zero():
    logits = np.full((1, 2, 5), -30.0)
    logits[0, 0, 3] = 30.0
    logits[0, 1, 4] = 30.0
    loss = sequence_nll(T.constant(logits), np.asarray([[3, 4]]))
    assert float(loss.data) < 1e-8


def test_sequence_nll_empty_batch_rejected():
    with pytest.raises(DataError):
        sequence_nll(T.constant(np.zeros((1, 2, 5))), np.asarray([[PAD, PAD]]))


def test_zeroed_model_gives_log_vocab():
    cfg = small_cfg()
    params = init_params(cfg, seed=1, dtype=np.float64)
    for k in params.arrays:
        params.arrays[k][:] = 0.0
    loss = cross_entropy_loss(params, cfg, [np.asarray([5, 6])], [np.asarray([7])], "xa")
    assert float(loss.data) == pytest.approx(np.log(cfg.vocab_size), rel=1e-9)


def test_cross_entropy_batch_mean_matches_manual_split():
    cfg = small_cfg()
    params = init_params(cfg, seed=3, dtype=np.float64)
    a_src, a_tgt = np.asarray([5, 6, 7]), np.asarray([8, 9])
    b_src, b_tgt = np.asarray([10, 11]), np.asarray([12, 13, 14])
    joint = float(cross_entropy_loss(params, cfg, [a_src, b_src], [a_tgt, b_tgt], "aa").data)
    la = float(cross_entropy_loss(params, cfg, [a_src], [a_tgt], "aa").data)
    lb = float(cross_entropy_loss(params, cfg, [b_src], [b_tgt], "aa").data)
    # joint mean weights rows by token count (+1 for EOS each)
    want = (la * 3 + lb * 4) / 7
    assert joint == pytest.approx(want, rel=1e-9)


def test_cross_entropy_validates_batches():
    cfg = small_cfg()
    params = init_params(cfg, seed=3)
    with pytest.raises(DataError):
        cross_entropy_loss(params, cfg, [np.asarray([5])], [], "xa")
    with pytest.raises(DataError):
        cross_entropy_loss(params, cfg, [np.asarray([], dtype=np.int32)],
                           [np.asarray([5])], "xa")


def test_cross_entropy_gradient_finite_difference():
    from fdutil import REL_TOL, fd_grad, rel_err

    cfg = small_cfg(layers=1, hidden=4, ffn=8, heads=2, vocab_size=12)
    params = init_params(cfg, seed=7, dtype=np.float64)
    src, tgt = [np.asarray([5, 6])], [np.asarray([7, 8])]
    loss = cross_entropy_loss(params, cfg, src, tgt, "xa")
    grads = T.backward(loss, params.tensors)
    name = "dec.0.self.wq"

    def f(x):
        probe = init_params(cfg, seed=7, dtype=np.float64)
        probe.arrays[name][:] = x
        return float(cross_entropy_loss(probe, cfg, src, tgt, "xa").data)

    fd = fd_grad(f, params.arrays[name])
    assert rel_err(grads[name], fd) <= REL_TOL


# --- masking ---


def test_mask_spec_bounds_and_segment():
    rng = named_rng(0, "mask")
    for L in (1, 2, 3, 7, 10, 15):
        for _ in range(200):
            spec = draw_mask_spec(L, rng)
            assert spec.length == max(1, L // 2)
            assert 0 <= spec.start <= L - spec.length
    ids = np.arange(5, 15, dtype=np.int32)
    spec = MaskSpec(3, 5)
    masked, seg = apply_mask(ids, spec)
    assert seg.tolist() == list(range(8, 13))
    assert np.all(masked[3:8] == MASK)
    # everything outside the span unchanged
    assert masked[:3].tolist() == ids[:3].tolist()
    assert masked[8:].tolist() == ids[8:].tolist()


def test_mask_spec_out_of_bounds_rejected():
    with pytest.raises(DataError):
        apply_mask(np.arange(4), MaskSpec(2, 3))
    with pytest.raises(DataError):
        draw_mask_spec(0, named_rng(0, "m"))


def test_mask_length_two_uniform_start():
    rng = named_rng(3, "l2")
    counts = {0: 0, 1: 0}
    for _ in range(20000):
        counts[draw_mask_spec(2, rng).start] += 1
    assert counts[0] / 20000 == pytest.approx(0.5, abs=0.02)


def test_mask_start_distribution_length_ten():
    # P(0)=P(5)=0.2+0.6/6=0.3, P(1..4)=0.1
    rng = named_rng(11, "dist")
    n = 100_000
    counts = np.zeros(6)
    for _ in range(n):
        counts[draw_mask_spec(10, rng).start] += 1
    freqs = counts / n
    assert freqs[0] == pytest.approx(0.3, abs=0.01)
    assert freqs[5] == pytest.approx(0.3, abs=0.01)
    for k in range(1, 5):
        assert freqs[k] == pytest.approx(0.1, abs=0.01)


def test_mass_loss_equals_ce_on_masked_input():
    cfg = small_cfg()
    params = init_params(cfg, seed=5, dtype=np.float64)
    ids = np.asarray([5, 6, 7, 8, 9, 10], dtype=np.int32)
    spec = MaskSpec(2, 3)
    masked, seg = apply_mask(ids, spec)
    a = float(mass_loss_for_spec(params, cfg, ids, "xa", spec).data)
    b = float(cross_entropy_loss(params, cfg, [masked], [seg], "xa").data)
    assert a == b


def test_mass_loss_batch_deterministic_under_named_stream():
    cfg = small_cfg()
    params = init_params(cfg, seed=5)
    batch = [np.asarray([5, 6, 7, 8]), np.asarray([9, 10, 11, 12, 13])]
    l1 = float(mass_loss(params, cfg, batch, "en", named_rng(9, "s")).data)
    l2 = float(mass_loss(params, cfg, batch, "en", named_rng(9, "s")).data)
    assert l1 == l2


# --- decode-through losses ---


def test_bt_identity_rig_reduces_to_autoencoding(monkeypatch):
    cfg = small_cfg()
    params = init_params(cfg, seed=8, dtype=np.float64)
    rows = [np.asarray([5, 6, 7], dtype=np.int32), np.asarray([8, 9], dtype=np.int32)]

    def fake_decode(p, c, block, lang, max_len):
        return [list(r) + [EOS] for r in rows]

    monkeypatch.setattr(obj, "greedy_decode_batch", fake_decode)
    res = back_translation_loss(params, cfg, rows, "xa", "en", max_len=32)
    want = cross_entropy_loss(params, cfg, rows, rows, "xa")
    assert res.used == 2 and res.skipped == 0
    assert float(res.loss.data) == float(want.data)
    # stop-gradient: grads identical to the plain CE with constant inputs
    # copied: both calls return views of the same buffer, params.grad
    ga = {k: g.copy() for k, g in T.backward(res.loss, params.tensors).items()}
    gb = T.backward(want, params.tensors)
    for k in ga:
        np.testing.assert_array_equal(ga[k], gb[k])


def test_bt_skips_empty_decodes(monkeypatch):
    cfg = small_cfg()
    params = init_params(cfg, seed=8)
    rows = [np.asarray([5, 6], dtype=np.int32), np.asarray([7, 8], dtype=np.int32)]

    def fake_decode(p, c, block, lang, max_len):
        return [[EOS], [9, EOS]]

    monkeypatch.setattr(obj, "greedy_decode_batch", fake_decode)
    res = back_translation_loss(params, cfg, rows, "xa", "en", max_len=32)
    assert res.used == 1 and res.skipped == 1 and res.loss is not None

    def all_empty(p, c, block, lang, max_len):
        return [[EOS], [EOS]]

    monkeypatch.setattr(obj, "greedy_decode_batch", all_empty)
    res = back_translation_loss(params, cfg, rows, "xa", "en", max_len=32)
    assert res.loss is None and res.used == 0 and res.skipped == 2


def test_bt_same_language_rejected():
    cfg = small_cfg()
    params = init_params(cfg, seed=8)
    with pytest.raises(ConfigError):
        back_translation_loss(params, cfg, [np.asarray([5])], "en", "en", max_len=32)


def test_bt_real_decode_runs_end_to_end():
    cfg = small_cfg()
    params = init_params(cfg, seed=10)
    rows = [np.asarray([5, 6, 7], dtype=np.int32)] * 3
    res = back_translation_loss(params, cfg, rows, "xa", "en", max_len=6)
    assert res.used + res.skipped == 3
    if res.loss is not None:
        assert np.isfinite(float(res.loss.data))


def test_ct_requires_genuinely_third_language():
    cfg = small_cfg()
    params = init_params(cfg, seed=2)
    x = [np.asarray([5, 6])]
    y = [np.asarray([7])]
    with pytest.raises(ConfigError):
        cross_translation_loss(params, cfg, x, y, "aa", "en", "aa", max_len=32)
    with pytest.raises(ConfigError):
        cross_translation_loss(params, cfg, x, y, "aa", "en", "en", max_len=32)


def test_ct_scores_target_through_pivot(monkeypatch):
    cfg = small_cfg()
    params = init_params(cfg, seed=12, dtype=np.float64)
    x = [np.asarray([5, 6, 7], dtype=np.int32)]
    y = [np.asarray([8, 9], dtype=np.int32)]
    ztilde = [np.asarray([10, 11], dtype=np.int32)]

    def fake_decode(p, c, block, lang, max_len):
        assert lang == "xa"  # decodes into the pivot language
        return [list(ztilde[0]) + [EOS]]

    monkeypatch.setattr(obj, "greedy_decode_batch", fake_decode)
    res = cross_translation_loss(params, cfg, x, y, "aa", "en", "xa", max_len=32)
    want = cross_entropy_loss(params, cfg, ztilde, y, "en")
    assert float(res.loss.data) == float(want.data)


def test_loss_values_deterministic():
    cfg = small_cfg()
    params = init_params(cfg, seed=4)
    src = [np.asarray([5, 6, 7])]
    tgt = [np.asarray([8, 9])]
    a = float(cross_entropy_loss(params, cfg, src, tgt, "xa").data)
    b = float(cross_entropy_loss(params, cfg, src, tgt, "xa").data)
    assert a == b
