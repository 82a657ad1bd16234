"""Acceptance gate. One test per criterion, tolerances pinned in place.

Criteria c1..c6 are property and determinism suites that finish in seconds
to a couple of minutes. The c7 family trains three full pipelines from
configs/toy.json (several minutes of CPU in total); they share a single
session-scoped fixture so the training cost is paid once, and c5 reads the
stage-3 audit of the same main run.
"""

import json
import os
import time
from collections import Counter

import numpy as np
import pytest

import chain as T
from bleu_oracle import ORACLE_CASES, oracle_bleu
from chain import mass_loss_for_spec
from fdutil import REL_TOL, check_grads, fd_grad, rel_err
from munmt import objectives, tokenizer as tok
from munmt.checkpoint import load_checkpoint
from munmt.cli import main as cli_main
from munmt.config import (EvalSpec, ExperimentConfig, LrSpec, ModelSpec,
                          Stage3Spec, StageSpec, SyntheticSpec)
from munmt.corpus import Dataset, choose_dataset
from munmt.evaluation import bleu, tokenize_13a
from munmt.model import NEG, ModelConfig, ModelParams, init_params
from munmt.objectives import (MaskSpec, back_translation_loss,
                              cross_entropy_loss, cross_translation_loss,
                              draw_mask_spec)
from munmt.pipeline import build_context, run_algorithm1, run_pipeline, run_stage1
from munmt.rng import named_rng

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY_CONFIG = os.path.join(REPO, "configs", "toy.json")


# ---------------------------------------------------------------------------
# c1: gradient suite. Every differentiable primitive and all four losses,
# central differences in float64 at h=1e-5, relative error <= 1e-4, at least
# 100 random instances, under two minutes.

PRIMS = []


def prim(fn):
    PRIMS.append(fn)
    return fn


def _u(rng, *shape):
    return rng.uniform(-1.2, 1.2, size=shape)


def _off_zero(rng, *shape):
    # keeps |x| >= 0.1 so the relu kink cannot sit inside an FD step
    return rng.uniform(0.1, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape)


@prim
def _case_add(rng):
    c = T.Tensor(_u(rng, 3, 4))
    leaves = {"a": _u(rng, 3, 4), "b": _u(rng, 4)}
    return lambda t: T.sum_all(T.mul(T.add(t["a"], t["b"]), c)), leaves


@prim
def _case_sub(rng):
    c = T.Tensor(_u(rng, 2, 5))
    leaves = {"a": _u(rng, 2, 5), "b": _u(rng, 2, 1)}
    return lambda t: T.sum_all(T.mul(T.sub(t["a"], t["b"]), c)), leaves


@prim
def _case_mul(rng):
    c = T.Tensor(_u(rng, 3, 4))
    leaves = {"a": _u(rng, 3, 4), "b": _u(rng, 1, 4)}
    return lambda t: T.sum_all(T.mul(T.mul(t["a"], t["b"]), c)), leaves


@prim
def _case_scale(rng):
    c = T.Tensor(_u(rng, 4, 3))
    leaves = {"a": _u(rng, 4, 3)}
    return lambda t: T.sum_all(T.mul(T.scale(t["a"], 0.37), c)), leaves


@prim
def _case_neg(rng):
    c = T.Tensor(_u(rng, 2, 6))
    leaves = {"a": _u(rng, 2, 6)}
    return lambda t: T.sum_all(T.mul(T.neg(t["a"]), c)), leaves


@prim
def _case_matmul(rng):
    c = T.Tensor(_u(rng, 2, 3, 5))
    leaves = {"a": _u(rng, 2, 3, 4), "b": _u(rng, 4, 5)}
    return lambda t: T.sum_all(T.mul(T.matmul(t["a"], t["b"]), c)), leaves


@prim
def _case_relu(rng):
    c = T.Tensor(_u(rng, 3, 5))
    leaves = {"a": _off_zero(rng, 3, 5)}
    return lambda t: T.sum_all(T.mul(T.relu(t["a"]), c)), leaves


@prim
def _case_reshape(rng):
    c = T.Tensor(_u(rng, 6, 2))
    leaves = {"a": _u(rng, 3, 4)}
    return lambda t: T.sum_all(T.mul(T.reshape(t["a"], (6, 2)), c)), leaves


@prim
def _case_transpose(rng):
    c = T.Tensor(_u(rng, 3, 2, 4))
    leaves = {"a": _u(rng, 2, 3, 4)}
    return lambda t: T.sum_all(T.mul(T.transpose(t["a"], (1, 0, 2)), c)), leaves


@prim
def _case_sum_all(rng):
    leaves = {"a": _u(rng, 5, 3)}
    return lambda t: T.scale(T.sum_all(T.mul(t["a"], t["a"])), 0.5), leaves


@prim
def _case_softmax(rng):
    c = T.Tensor(_u(rng, 3, 7))
    leaves = {"a": _u(rng, 3, 7)}
    return lambda t: T.sum_all(T.mul(T.softmax(t["a"]), c)), leaves


@prim
def _case_log_softmax(rng):
    c = T.Tensor(_u(rng, 2, 9))
    leaves = {"a": _u(rng, 2, 9)}
    return lambda t: T.sum_all(T.mul(T.log_softmax(t["a"]), c)), leaves


@prim
def _case_layernorm(rng):
    c = T.Tensor(_u(rng, 2, 3, 8))
    leaves = {"x": _u(rng, 2, 3, 8), "g": _u(rng, 8), "b": _u(rng, 8)}
    return lambda t: T.sum_all(T.mul(T.layernorm(t["x"], t["g"], t["b"]), c)), leaves


@prim
def _case_embedding(rng):
    ids = rng.integers(0, 9, size=(2, 4))
    ids[0, 1] = ids[1, 2]  # force a repeated row so gradients accumulate
    c = T.Tensor(_u(rng, 2, 4, 5))
    leaves = {"tab": _u(rng, 9, 5)}
    return lambda t: T.sum_all(T.mul(T.embedding(t["tab"], ids), c)), leaves


@prim
def _case_take_along_last(rng):
    idx = rng.integers(0, 6, size=(2, 4, 3))
    c = T.Tensor(_u(rng, 2, 4, 3))
    leaves = {"a": _u(rng, 2, 4, 6)}
    return lambda t: T.sum_all(T.mul(T.take_along_last(t["a"], idx), c)), leaves


def _attention_case(rng, lq, lk, mask):
    c = T.Tensor(_u(rng, 2, lq, 4))
    leaves = {"q": _u(rng, 2, lq, 4), "k": _u(rng, 2, lk, 4), "v": _u(rng, 2, lk, 4)}
    return (lambda t: T.sum_all(T.mul(T.attention(t["q"], t["k"], t["v"], 2, mask), c)),
            leaves)


@prim
def _case_attention_key_padding(rng):
    keep = rng.random((2, 5)) < 0.7
    keep[:, 0] = True  # every row keeps a key
    return _attention_case(rng, 3, 5, np.where(keep, 0.0, NEG)[:, None, None, :])


@prim
def _case_attention_causal(rng):
    # the last 3 of 5 positions query all 5, each seeing only itself and earlier
    mask = np.triu(np.full((3, 5), NEG), k=3)[None, None]
    return _attention_case(rng, 3, 5, mask)


@prim
def _case_attention_unmasked(rng):
    return _attention_case(rng, 4, 2, None)


@prim
def _case_masked_mean_nll(rng):
    targets = rng.integers(1, 6, size=(3, 4))
    targets[0, 2:] = tok.PAD
    targets[2, 3] = tok.PAD
    mask = targets != tok.PAD
    leaves = {"a": _u(rng, 3, 4, 6)}
    return lambda t: T.scale(T.masked_mean_nll(t["a"], targets, mask), 1.7), leaves


@prim
def _case_masked_mean_nll_two_groups(rng):
    # rows 0-1 and 2-3 are two groups, each the mean over its own positions
    targets = rng.integers(1, 6, size=(4, 3))
    targets[0, 1:] = tok.PAD
    targets[3, 2] = tok.PAD
    mask = targets != tok.PAD
    leaves = {"a": _u(rng, 4, 3, 6)}
    return lambda t: T.scale(T.masked_mean_nll(t["a"], targets, mask, 2), 1.7), leaves


def _sublayer_case(rng, lq, mask, cross=False, bank_rows=None):
    # H = 4 in 2 heads; a bank has 3 rows, of which `bank_rows` are used
    c = T.Tensor(_u(rng, 2, lq, 4))
    leaves = {"x": _u(rng, 2, lq, 4), "g": 1.0 + 0.3 * _u(rng, 4), "b": _u(rng, 4)}
    for n in ("wq", "wk", "wv"):
        leaves[n] = _u(rng, 4, 4)
    leaves["wo"] = _u(rng, 4, 4) if bank_rows is None else _u(rng, 3, 4, 4)
    if cross:
        leaves["m"] = _u(rng, 2, 5, 4)

    def build(t):
        w = tuple(t[n] for n in ("wq", "wk", "wv", "wo"))
        out = T.attention_sublayer(t["x"], (t["g"], t["b"]), w, 2, mask,
                                   memory=t["m"] if cross else None, bank_rows=bank_rows)
        return T.sum_all(T.mul(out, c))

    return build, leaves


@prim
def _case_attention_sublayer_causal(rng):
    return _sublayer_case(rng, 3, np.triu(np.full((3, 3), NEG), k=1)[None, None])


@prim
def _case_attention_sublayer_key_padded(rng):
    keep = rng.random((2, 3)) < 0.7
    keep[:, 0] = True
    return _sublayer_case(rng, 3, np.where(keep, 0.0, NEG)[:, None, None, :])


@prim
def _case_attention_sublayer_cross(rng):
    keep = rng.random((2, 5)) < 0.7
    keep[:, 0] = True
    return _sublayer_case(rng, 3, np.where(keep, 0.0, NEG)[:, None, None, :], cross=True)


@prim
def _case_attention_sublayer_bank_row(rng):
    return _sublayer_case(rng, 3, None, cross=True, bank_rows=(2,))


@prim
def _case_attention_sublayer_two_row_groups(rng):
    # batch row 0 through bank row 1, batch row 1 through bank row 0
    return _sublayer_case(rng, 3, np.triu(np.full((3, 3), NEG), k=1)[None, None],
                          bank_rows=(1, 0))


@prim
def _case_ffn_sublayer(rng):
    c = T.Tensor(_u(rng, 2, 3, 4))
    leaves = {"x": _u(rng, 2, 3, 4), "g": 1.0 + 0.3 * _u(rng, 4), "b": _u(rng, 4),
              "w1": _u(rng, 4, 6), "b1": _u(rng, 6), "w2": _u(rng, 6, 4), "b2": _u(rng, 4)}

    def build(t):
        out = T.ffn_sublayer(t["x"], (t["g"], t["b"]), t["w1"], t["b1"], t["w2"], t["b2"])
        return T.sum_all(T.mul(out, c))

    return build, leaves


# shapes the cases above leave out; last, so the draws above stay as they were


@prim
def _case_matmul_batched(rng):
    c = T.Tensor(_u(rng, 2, 3, 2))
    leaves = {"a": _u(rng, 2, 3, 4), "b": _u(rng, 2, 4, 2)}
    return lambda t: T.sum_all(T.mul(T.matmul(t["a"], t["b"]), c)), leaves


@prim
def _case_matmul_2d(rng):
    c = T.Tensor(_u(rng, 3, 8))
    leaves = {"a": _u(rng, 3, 6), "b": _u(rng, 6, 8)}
    return lambda t: T.sum_all(T.mul(T.matmul(t["a"], t["b"]), c)), leaves


@prim
def _case_take_along_last_repeated(rng):
    idx = rng.integers(0, 6, size=(4, 3))
    idx[0, 0] = idx[0, 1]  # a repeated gather within a row accumulates
    c = T.Tensor(_u(rng, 4, 3))
    leaves = {"a": _u(rng, 4, 6)}
    return lambda t: T.sum_all(T.mul(T.take_along_last(t["a"], idx), c)), leaves


def _loss_cfg():
    return ModelConfig(languages=["en", "aa", "xa"], vocab_size=12, layers=1,
                       hidden=4, ffn=8, heads=2, max_positions=16)


def _fd_one_leaf(build_loss, cfg, seed, name):
    """FD check of one named parameter leaf of a full-model loss."""
    base = init_params(cfg, seed=seed, dtype=np.float64)
    loss = build_loss(base)
    grads = T.backward(loss, base.tensors)

    def f(x):
        probe = ModelParams(base.arrays)
        probe.arrays[name][:] = x
        return float(build_loss(probe).data)

    fd = fd_grad(f, base.arrays[name])
    return rel_err(grads[name], fd)


def _fixed_decode(params, cfg, block, lang, max_len):
    # constant stand-in for the gradient-free decoder so the loss surface
    # stays smooth under parameter perturbation
    return [np.asarray([tok.BOS, 7, 9, tok.EOS], dtype=np.int32)
            for _ in range(block.shape[0])]


def test_c1_gradient_suite_fd(monkeypatch):
    t0 = time.monotonic()
    rng = np.random.default_rng(20240817)
    instances = 0
    worst = 0.0

    for case in PRIMS:
        for _ in range(7):
            build, leaves = case(rng)
            worst = max(worst, check_grads(build, leaves, rng))
            instances += 1

    cfg = _loss_cfg()
    monkeypatch.setattr(objectives, "greedy_decode_batch", _fixed_decode)
    src = [np.asarray([5, 6, 7], dtype=np.int32)]
    tgt = [np.asarray([8, 9], dtype=np.int32)]
    mono = [np.asarray([5, 6], dtype=np.int32), np.asarray([7, 8, 9], dtype=np.int32)]
    ids = np.arange(5, 11, dtype=np.int32)
    losses = [
        lambda p: cross_entropy_loss(p, cfg, src, tgt, "xa"),
        lambda p: mass_loss_for_spec(p, cfg, ids, "aa", MaskSpec(start=2, length=3)),
        lambda p: back_translation_loss(p, cfg, mono, x_lang="en",
                                        via_lang="xa", max_len=8).loss,
        lambda p: cross_translation_loss(p, cfg, mono, [t.copy() for t in mono],
                                         "aa", "en", "xa", max_len=8).loss,
    ]
    for k, build in enumerate(losses):
        for leaf in ("dec.0.self.wq", "tok_emb"):
            worst = max(worst, _fd_one_leaf(build, cfg, seed=40 + k, name=leaf))
            instances += 1

    elapsed = time.monotonic() - t0
    assert instances >= 100, f"only {instances} gradient instances"
    assert worst <= REL_TOL, f"worst relative error {worst:.3g}"
    assert elapsed <= 120.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# c2: masked-span start distribution at length 10 over 100k draws.


def test_c2_mask_start_distribution():
    rng = named_rng(0, "acceptance:mask")
    n = 100_000
    counts = Counter(draw_mask_spec(10, rng).start for _ in range(n))
    want = {0: 0.3, 1: 0.1, 2: 0.1, 3: 0.1, 4: 0.1, 5: 0.3}
    assert set(counts) <= set(want)
    for start, p in want.items():
        assert abs(counts[start] / n - p) <= 0.01, (start, counts[start] / n)


# ---------------------------------------------------------------------------
# c3: sampler conformance over 100k draws. Branch probability 0.5; the
# parallel branch weights by n^(1/5) (normalized independently here); the
# mono branch is uniform.


def test_c3_sampler_conformance():
    def ds(ident, kind, n):
        return Dataset(id=ident, kind=kind, lang="aa", src="aa", tgt="en",
                       items=[None] * n)

    registry = [
        ds("mono.a", "mono", 500),
        ds("mono.b", "mono", 40),
        ds("mono.c", "mono", 2000),
        ds("par.d", "parallel", 100),
        ds("par.e", "parallel", 10),
    ]
    rng = named_rng(0, "acceptance:sampler")
    n = 100_000
    counts = Counter(choose_dataset(registry, 0.5, 5.0, rng).id for _ in range(n))

    par_total = (counts["par.d"] + counts["par.e"]) / n
    assert abs(par_total - 0.5) <= 0.01

    raw = np.array([100.0, 10.0]) ** (1.0 / 5.0)
    w = raw / raw.sum()
    par_n = counts["par.d"] + counts["par.e"]
    assert abs(counts["par.d"] / par_n - w[0]) <= 0.01
    assert abs(counts["par.e"] / par_n - w[1]) <= 0.01

    mono_n = counts["mono.a"] + counts["mono.b"] + counts["mono.c"]
    for ident in ("mono.a", "mono.b", "mono.c"):
        assert abs(counts[ident] / mono_n - 1.0 / 3.0) <= 0.01


# ---------------------------------------------------------------------------
# c4: corpus BLEU agrees with the brute-force oracle on 20 fixed cases; the
# identical-corpus cases score exactly 100.


def test_c4_bleu_oracle_equivalence():
    assert len(ORACLE_CASES) == 20
    identical = 0
    for hyps, refs, mode in ORACLE_CASES:
        want = oracle_bleu(hyps, refs, mode, tokenize_13a)
        got = bleu(hyps, refs, mode=mode).score
        assert abs(got - want) <= 0.01, (hyps, refs, mode, got, want)
        if hyps == refs:
            identical += 1
            assert got == 100.0
    assert identical >= 1


# ---------------------------------------------------------------------------
# c7 fixture: three full benchmark pipelines from the recorded toy config
# (main, no-synthetic, single-aux), trained once per session through the
# real command surface. c5 reads the main run's stage-3 audit.


@pytest.fixture(scope="session")
def toy_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept")
    t0 = time.monotonic()
    dirs = {}
    plans = [
        ("main", ["pipeline"]),
        ("no-synthetic", ["ablate", "--arm", "no-synthetic"]),
        ("single-aux", ["ablate", "--arm", "single-aux"]),
    ]
    for name, head in plans:
        out = root / name.replace("-", "_")
        rc = cli_main(head + ["--config", TOY_CONFIG, "--out", str(out), "--quiet"])
        assert rc == 0, f"{name} run exited {rc}"
        dirs[name] = out
    elapsed = time.monotonic() - t0
    summaries = {}
    for name, d in dirs.items():
        with open(d / "summary.json", "r", encoding="utf-8") as fh:
            summaries[name] = json.load(fh)
    return {"dirs": dirs, "summaries": summaries, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# c5: one stage-3 sweep's audit equals the statically enumerated update
# multiset for the default toy manifest. Enumerated by hand: English mono
# back-translates through the target, target mono back-translates through
# English and through its pivot, the pivot's parallel data cross-translates,
# and each second-round synthetic corpus trains its labeled direction.

SWEEP_MULTISET = Counter([
    ("mono.en", "bt", "xa", "en"),
    ("mono.xa", "bt", "en", "xa"),
    ("mono.xa", "bt", "aa", "xa"),
    ("parallel.aa-en", "ct", "xa", "en"),
    ("synth.r2.en-xa", "ce", "en", "xa"),
    ("synth.r2.xa-en", "ce", "xa", "en"),
])


def test_c5_stage3_sweep_update_multiset(toy_runs):
    path = toy_runs["dirs"]["main"] / "audit.stage3.tsv"
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh if line.strip()]
    per_sweep = sum(SWEEP_MULTISET.values())
    assert rows and len(rows) % per_sweep == 0
    first = rows[:per_sweep]
    assert Counter(tuple(r[1:5]) for r in first) == SWEEP_MULTISET
    # every later sweep issues the same updates
    for k in range(per_sweep, len(rows), per_sweep):
        chunk = rows[k : k + per_sweep]
        assert Counter(tuple(r[1:5]) for r in chunk) == SWEEP_MULTISET


# ---------------------------------------------------------------------------
# c6: determinism and persistence.


def _tiny_cfg():
    return ExperimentConfig(
        seed=5, vocab_size=200, batch_size=4, pivots={"xa": ["aa"]},
        benchmark=dict(vocab_types=30, len_min=3, len_max=6, mono_lines=120,
                       parallel_lines=60, dev_lines=10, test_lines=12,
                       auxiliaries=["aa", "ab"],
                       targets={"xa": {"window": 2,
                                       "cognates": {"aa": 0.4, "ab": 0.4}}}),
        model=ModelSpec(layers=1, hidden=32, ffn=64, heads=2),
        stage1=StageSpec(steps=6, lr=LrSpec(peak=5e-4, warmup=2, total=12)),
        stage2a=StageSpec(steps=6, lr=LrSpec(peak=5e-4, warmup=2, total=12)),
        stage2b=StageSpec(steps=4, lr=LrSpec(peak=5e-4, warmup=2, total=12)),
        stage3=Stage3Spec(sweeps=2, eval_every=0, max_tokens=256, max_len=16),
        synthetic=SyntheticSpec(round1_mono_fraction=0.1, round2_multiplier=2,
                                english_lines_per_target=10),
        eval=EvalSpec(max_len=16, batch_size=16),
    ).validate()


def test_c6_same_seed_pipelines_bit_identical(tmp_path):
    a = run_pipeline(_tiny_cfg(), str(tmp_path / "a"), quiet=True)
    b = run_pipeline(_tiny_cfg(), str(tmp_path / "b"), quiet=True)
    assert a["stages"] == b["stages"]
    pa = load_checkpoint(str(tmp_path / "a" / "stage3.ckpt")).params
    pb = load_checkpoint(str(tmp_path / "b" / "stage3.ckpt")).params
    assert set(pa.arrays) == set(pb.arrays)
    for name in pa.arrays:
        assert pa.arrays[name].tobytes() == pb.arrays[name].tobytes(), name


def _audit_rows(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def test_c6_resume_reproduces_loss_sequence(tmp_path):
    cfg = _tiny_cfg()
    cfg.stage1 = StageSpec(steps=10, lr=LrSpec(peak=5e-4, warmup=2, total=20),
                           checkpoint_interval=5)
    ctx_a = build_context(cfg, str(tmp_path / "straight"), quiet=True)
    run_stage1(ctx_a)
    full = _audit_rows(tmp_path / "straight" / "audit.stage1.tsv")
    assert [r[0] for r in full] == [str(i) for i in range(10)]

    mid = load_checkpoint(str(tmp_path / "straight" / "stage1.step000005.ckpt"))
    assert mid.step == 5
    ctx_b = build_context(cfg, str(tmp_path / "resumed"), quiet=True)
    _, datasets = ctx_b.registry()
    run_algorithm1(ctx_b, mid.params, datasets, "stage1", ctx_b.cfg.stage1,
                   opt=mid.opt, start_step=mid.step)
    tail = _audit_rows(tmp_path / "resumed" / "audit.stage1.tsv")
    # the resumed half reproduces the uninterrupted run line for line,
    # loss strings included
    assert tail == full[5:]


# ---------------------------------------------------------------------------
# c7: trend reproduction on the recorded toy benchmark.


def test_c7_runtime_within_budget(toy_runs):
    assert toy_runs["elapsed"] <= 45 * 60, f"{toy_runs['elapsed']:.0f}s"


def test_c7a_stage1_asymmetry(toy_runs):
    s1 = toy_runs["summaries"]["main"]["stages"]["stage1"]
    assert s1["xa-en"] >= s1["en-xa"] + 10.0, s1


def test_c7b_stage2_rescue(toy_runs):
    stages = toy_runs["summaries"]["main"]["stages"]
    assert stages["stage2a"]["en-xa"] >= stages["stage1"]["en-xa"] + 5.0, stages


def test_c7c_stage3_does_not_degrade(toy_runs):
    stages = toy_runs["summaries"]["main"]["stages"]
    for direction in ("en-xa", "xa-en"):
        assert stages["stage3"][direction] >= stages["stage2b"][direction] - 1.0, stages


def test_c7d_synthetic_data_ablation(toy_runs):
    with_syn = toy_runs["summaries"]["main"]["stages"]["stage3"]["en-xa"]
    without = toy_runs["summaries"]["no-synthetic"]["stages"]["stage3"]["en-xa"]
    assert with_syn - without >= 3.0, (with_syn, without)


def test_c7e_auxiliary_ablation(toy_runs):
    full = toy_runs["summaries"]["main"]["stages"]["stage3"]["xa-en"]
    single = toy_runs["summaries"]["single-aux"]["stages"]["stage3"]["xa-en"]
    assert single < full, (single, full)
