"""Stage orchestration: the sampled loop, synthetic rounds, sweep plan,
resume, and the end-to-end pipeline at toy scale."""

import copy
import dataclasses
import json
import os

import numpy as np
import pytest

from munmt import corpus, objectives, pipeline
from munmt.checkpoint import load_checkpoint
from munmt.config import (EvalSpec, ExperimentConfig, LrSpec, ModelSpec,
                          Stage3Spec, StageSpec, SyntheticSpec)
from munmt.corpus import load_manifest, read_lines, save_manifest
from munmt.errors import ConfigError, DataError, NumericError
from munmt.model import ModelParams, init_params
from munmt.pipeline import (build_context, check_manifest_compat, generate_synthetic,
                            predict_sweep, run_algorithm1, run_pipeline,
                            run_stage1, run_stage2, run_stage3, stage_entries)
from munmt.synthlang import BenchmarkConfig, TargetSpec, build_benchmark


def tiny_experiment(manifest, testsets):
    return ExperimentConfig(
        seed=11, vocab_size=200, batch_size=4,
        pivots={"xa": ["aa"]}, manifest=manifest, testsets=testsets,
        model=ModelSpec(layers=1, hidden=32, ffn=64, heads=2),
        stage1=StageSpec(steps=6, lr=LrSpec(peak=5e-4, warmup=2, total=12),
                         checkpoint_interval=2),
        stage2a=StageSpec(steps=6, lr=LrSpec(peak=5e-4, warmup=2, total=12)),
        stage2b=StageSpec(steps=4, lr=LrSpec(peak=5e-4, warmup=2, total=12)),
        stage3=Stage3Spec(sweeps=2, eval_every=0, max_tokens=256, max_len=16),
        synthetic=SyntheticSpec(round1_mono_fraction=0.1, round2_multiplier=2,
                                english_lines_per_target=10),
        eval=EvalSpec(max_len=16, batch_size=16),
    ).validate()


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipe")
    bench = BenchmarkConfig(
        out_dir=str(root / "bench"), seed=3, vocab_types=30, len_min=3,
        len_max=6, mono_lines=120, parallel_lines=60, dev_lines=10,
        test_lines=12, auxiliaries=["aa", "ab"],
        targets={"xa": TargetSpec(window=2, cognates={"aa": 0.4, "ab": 0.4})})
    paths = build_benchmark(bench)
    cfg = tiny_experiment(paths["manifest"], paths["testsets"])
    ctx = build_context(cfg, str(root / "base"), quiet=True)
    return root, cfg, ctx


def ctx_at(env, name, cfg=None, arm=None):
    root, base_cfg, ctx = env
    out = root / name
    out.mkdir(exist_ok=True)
    return dataclasses.replace(ctx, out_dir=str(out),
                               cfg=cfg if cfg is not None else base_cfg,
                               arm=arm or ctx.arm)


def read_audit(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


def params_equal(a, b):
    return set(a.arrays) == set(b.arrays) and all(
        np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)


# ---------------------------------------------------------------------------
# the sampled loop


def test_zero_steps_is_a_passthrough(env):
    ctx = ctx_at(env, "zero")
    _, datasets = ctx.registry()
    params = init_params(ctx.model_cfg, 7)
    before = ModelParams(params.arrays)
    spec = StageSpec(steps=0, lr=LrSpec(peak=5e-4, warmup=2, total=12))
    ck = run_algorithm1(ctx, params, datasets, "stage1", spec)
    assert ck.step == 0
    assert params_equal(params, before)
    loaded = load_checkpoint(os.path.join(ctx.out_dir, "stage1.ckpt"))
    assert params_equal(loaded.params, before)


def test_same_seed_gives_identical_audit_and_params(env):
    finals = []
    audits = []
    for name in ("det1", "det2"):
        ctx = ctx_at(env, name)
        ck = run_stage1(ctx)
        finals.append(ck.params)
        with open(os.path.join(ctx.out_dir, "audit.stage1.tsv"), "rb") as fh:
            audits.append(fh.read())
    assert audits[0] == audits[1]
    assert params_equal(finals[0], finals[1])


def test_stage1_audit_has_only_mass_and_ce2(env):
    ctx = ctx_at(env, "det1")  # reuse the run above
    rows = read_audit(os.path.join(ctx.out_dir, "audit.stage1.tsv"))
    assert len(rows) == 6
    assert [int(r[0]) for r in rows] == list(range(6))
    assert set(r[2] for r in rows) <= {"mass", "ce2"}
    for r in rows:
        float(r[5])  # every stage-1 update has a numeric loss


def test_non_finite_loss_raises_with_location(env):
    ctx = ctx_at(env, "nan")
    _, datasets = ctx.registry()
    params = init_params(ctx.model_cfg, 7)
    params.arrays["tok_emb"][:] = np.nan
    spec = StageSpec(steps=3, lr=LrSpec(peak=5e-4, warmup=2, total=12))
    with pytest.raises(NumericError, match="stage1 step 0"):
        run_algorithm1(ctx, params, datasets, "stage1", spec)


def test_schedule_built_in_code_is_checked_like_a_config(env):
    ctx = ctx_at(env, "badlr")
    _, datasets = ctx.registry()
    params = init_params(ctx.model_cfg, 7)
    spec = StageSpec(steps=3, lr=LrSpec(peak=5e-4, warmup=5, total=2))
    with pytest.raises(ConfigError, match="stage1.lr.total must be >= warmup"):
        run_algorithm1(ctx, params, datasets, "stage1", spec)


def test_mid_checkpoints_and_exact_resume(env):
    ctx_a = ctx_at(env, "full")
    ck_full = run_stage1(ctx_a)  # checkpoint_interval=2, steps=6
    assert os.path.exists(os.path.join(ctx_a.out_dir, "stage1.step000002.ckpt"))
    mid_path = os.path.join(ctx_a.out_dir, "stage1.step000004.ckpt")
    assert os.path.exists(mid_path)
    assert not os.path.exists(os.path.join(ctx_a.out_dir, "stage1.step000006.ckpt"))

    mid = load_checkpoint(mid_path)
    assert mid.step == 4 and mid.stage == "1"
    ctx_b = ctx_at(env, "resumed")
    _, datasets = ctx_b.registry()
    ck_res = run_algorithm1(ctx_b, mid.params, datasets, "stage1",
                            ctx_b.cfg.stage1, opt=mid.opt, start_step=mid.step)
    assert params_equal(ck_res.params, ck_full.params)
    # the resumed audit covers exactly the remaining steps
    rows = read_audit(os.path.join(ctx_b.out_dir, "audit.stage1.tsv"))
    assert [int(r[0]) for r in rows] == [4, 5]


def test_stage1_rejects_synthetic_manifests(env, tmp_path):
    cfg = env[1]
    languages, entries = load_manifest(cfg.manifest)  # paths come back resolved
    entries[-1]["synthetic"] = True
    bad = tmp_path / "manifest.json"
    save_manifest(bad, languages, entries)
    cfg2 = copy.deepcopy(cfg)
    cfg2.manifest = str(bad)
    ctx2 = build_context(cfg2, str(tmp_path / "run"), quiet=True)
    with pytest.raises(DataError, match="synthetic"):
        run_stage1(ctx2)


def test_stage2_requires_synthetic_data(env):
    ctx = ctx_at(env, "s2bare")
    params = init_params(ctx.model_cfg, 7)
    with pytest.raises(DataError, match="synthetic"):
        run_stage2(ctx, params, "stage2a")


def test_stage2_of_a_no_synthetic_context_trains_real_data_only(env, tmp_path):
    cfg = env[1]
    out = tmp_path / "realonly"
    ctx = build_context(cfg, str(out), quiet=True, arm="no-synthetic")
    assert ctx.arm == "no-synthetic"
    run_stage2(ctx, init_params(ctx.model_cfg, 7), "stage2a")
    rows = read_audit(out / "audit.stage2a.tsv")
    assert len(rows) == cfg.stage2a.steps
    assert {r[2] for r in rows} <= {"mass", "ce2"}
    assert {r[1] for r in rows} <= {e["id"] for e in ctx.entries}
    assert not (out / "synthetic").exists()


# ---------------------------------------------------------------------------
# synthetic rounds


@pytest.fixture(scope="module")
def synth(env):
    ctx = ctx_at(env, "synth")
    params = init_params(ctx.model_cfg, 5)
    r1 = generate_synthetic(ctx, params, 1)
    r2 = generate_synthetic(ctx, params, 2)
    return ctx, params, r1, r2


def test_round1_selects_the_configured_fraction(synth):
    ctx, _, r1, _ = synth
    assert [e["id"] for e in r1] == ["synth.r1.en-xa"]
    e = r1[0]
    assert e["src"] == "en" and e["tgt"] == "xa" and e["synthetic"]
    en_lines = read_lines(e["src_path"])
    xa_lines = read_lines(e["tgt_path"])
    assert len(en_lines) == len(xa_lines) == 12  # 10% of 120
    mono = set(read_lines(os.path.join(
        os.path.dirname(ctx.cfg.manifest), "mono.xa.txt")))
    assert set(xa_lines) <= mono  # the target side is real text, verbatim
    meta = json.load(open(os.path.join(
        ctx.out_dir, "synthetic", "r1.en-xa.meta.json")))
    assert meta["round"] == 1 and meta["source_dataset"] == "mono.xa"
    assert meta["line_indices"] == sorted(meta["line_indices"])
    assert len(meta["line_indices"]) == 12
    # the entries file names its corpora relative to itself; the returned
    # entries carry them resolved
    synthetic = os.path.join(ctx.out_dir, "synthetic")
    on_disk = json.load(open(os.path.join(synthetic, "r1.entries.json")))
    assert on_disk[0]["src_path"] == "r1.en-xa.en.txt"
    assert e["src_path"] == os.path.join(synthetic, "r1.en-xa.en.txt")


def test_round2_is_larger_disjoint_and_bidirectional(synth):
    ctx, _, r1, r2 = synth
    assert [e["id"] for e in r2] == ["synth.r2.en-xa", "synth.r2.xa-en"]
    fwd, rev = r2
    assert len(read_lines(fwd["tgt_path"])) == 24  # 2x round 1
    m1 = json.load(open(os.path.join(ctx.out_dir, "synthetic", "r1.en-xa.meta.json")))
    m2 = json.load(open(os.path.join(ctx.out_dir, "synthetic", "r2.en-xa.meta.json")))
    assert not set(m1["line_indices"]) & set(m2["line_indices"])
    # reverse direction: decoded xa against real English lines
    assert rev["src"] == "xa" and rev["tgt"] == "en"
    en_side = read_lines(rev["tgt_path"])
    assert len(en_side) == 10
    mono_en = set(read_lines(os.path.join(
        os.path.dirname(ctx.cfg.manifest), "mono.en.txt")))
    assert set(en_side) <= mono_en
    # entries file round-trips: stage2b trains round 2 alone by default
    assert stage_entries(ctx, "stage2b") == r2


def test_stage2_trains_synthetic_in_its_labeled_direction_only(synth):
    ctx, params, r1, _ = synth
    _, datasets = ctx.registry(extra_entries=r1)
    wanted = [d for d in datasets if d.id in ("mono.xa", "synth.r1.en-xa")]
    assert len(wanted) == 2
    spec = StageSpec(steps=8, lr=LrSpec(peak=5e-4, warmup=2, total=12))
    run_algorithm1(ctx, ModelParams(params.arrays), wanted, "stage2a", spec)
    rows = read_audit(os.path.join(ctx.out_dir, "audit.stage2a.tsv"))
    objs = set(r[2] for r in rows)
    assert objs <= {"mass", "ce"}
    ce_rows = [r for r in rows if r[2] == "ce"]
    assert ce_rows, "sampler never drew the synthetic dataset"
    for r in ce_rows:
        assert (r[3], r[4]) == ("en", "xa")  # labeled direction, never reversed


@pytest.mark.parametrize("keep_round1, later", [(False, ["r2"]), (True, ["r2", "r1"])])
def test_stage_entries_per_stage(synth, keep_round1, later):
    ctx, _, _, _ = synth
    cfg = copy.deepcopy(ctx.cfg)
    cfg.synthetic.keep_round1 = keep_round1
    ctx = dataclasses.replace(ctx, cfg=cfg)
    rounds = {label: list(dict.fromkeys(e["id"].split(".")[1]
                                        for e in stage_entries(ctx, label)))
              for label in ("stage2a", "stage2b", "stage3")}
    assert rounds == {"stage2a": ["r1"], "stage2b": later, "stage3": later}
    for label in rounds:  # the no-synthetic arm trains on the manifest alone
        assert stage_entries(dataclasses.replace(ctx, arm="no-synthetic"), label) == []
    # each round's entries file sits under the run's synthetic directory
    assert pipeline.entries_path(ctx, 2) == os.path.join(ctx.out_dir, "synthetic",
                                                         "r2.entries.json")


def test_synthetic_entries_are_checked_like_manifest_entries(synth):
    ctx, _, r1, _ = synth
    bad = [dict(r1[0], id="mono.en"),  # a manifest id
           {k: v for k, v in r1[0].items() if k != "src_path"},
           dict(r1[0], id="synth.zz", tgt="zz")]
    for entry in bad:
        with pytest.raises(DataError, match="dataset"):
            ctx.registry(extra_entries=[entry])


def test_entries_files_with_absolute_paths_still_load(synth, tmp_path):
    ctx, _, r1, _ = synth
    moved = dataclasses.replace(ctx, out_dir=str(tmp_path))
    (tmp_path / "synthetic").mkdir()
    with open(tmp_path / "synthetic" / "r1.entries.json", "w") as fh:
        json.dump(r1, fh)  # as older runs wrote them: absolute paths
    assert pipeline.stage_entries(moved, "stage2a") == r1


def test_unreadable_entries_files_are_data_errors(env, tmp_path):
    ctx = dataclasses.replace(env[2], out_dir=str(tmp_path))
    with pytest.raises(DataError, match="run synth-bt --round 1 first"):
        pipeline.stage_entries(ctx, "stage2a")
    (tmp_path / "synthetic").mkdir()
    entries = tmp_path / "synthetic" / "r1.entries.json"
    for text, match in (("{}", "the document must be a list, got {}"),
                        ("[", "cannot read entries file"),
                        ('[{"id": "s", "kind": "mono", "synthetic": "true"}]',
                         r'\[0\]\.synthetic must be a bool, got "true"')):
        entries.write_text(text)
        with pytest.raises(DataError, match=match):
            pipeline.stage_entries(ctx, "stage2a")


def test_all_empty_synthetic_corpus_is_refused(env, monkeypatch):
    ctx = ctx_at(env, "deadround")
    monkeypatch.setattr(pipeline, "translate_corpus",
                        lambda params, mcfg, vocab, texts, lang, **kw:
                        ["" for _ in texts])
    params = init_params(ctx.model_cfg, 5)
    with pytest.raises(DataError, match="synth.r1.en-xa: all 12 decodes"):
        generate_synthetic(ctx, params, 1)
    assert not os.path.exists(os.path.join(ctx.out_dir, "synthetic",
                                           "r1.entries.json"))


def test_round2_needs_enough_lines(env):
    root, cfg, _ = env
    big = copy.deepcopy(cfg)
    big.synthetic = SyntheticSpec(round1_mono_fraction=0.4, round2_multiplier=2,
                                  english_lines_per_target=10)
    ctx = ctx_at(env, "scarce", cfg=big)
    params = init_params(ctx.model_cfg, 5)
    with pytest.raises(DataError, match="distinct"):
        generate_synthetic(ctx, params, 2)  # 0.4*120*3 > 120


# ---------------------------------------------------------------------------
# the sweep plan


def _stub(id, kind, **kw):
    from munmt.corpus import Dataset
    return Dataset(id=id, kind=kind, **kw)


def _stub_languages():
    from munmt.corpus import LanguageId
    return [LanguageId("en", is_english=True), LanguageId("aa"),
            LanguageId("ab"), LanguageId("xa", is_target=True)]


def test_predict_sweep_is_the_documented_plan():
    datasets = [
        _stub("mono.en", "mono", lang="en"),
        _stub("mono.aa", "mono", lang="aa"),
        _stub("mono.xa", "mono", lang="xa"),
        _stub("parallel.aa-en", "parallel", src="aa", tgt="en"),
        _stub("parallel.ab-en", "parallel", src="ab", tgt="en"),
        _stub("synth.r2.en-xa", "parallel", src="en", tgt="xa", synthetic=True),
    ]
    plan = predict_sweep(_stub_languages(), datasets, {"xa": ["aa"]})
    assert plan == [
        ("mono.en", "bt", "xa", "en"),
        ("mono.xa", "bt", "en", "xa"),
        ("mono.xa", "bt", "aa", "xa"),
        ("parallel.aa-en", "ct", "xa", "en"),
        ("synth.r2.en-xa", "ce", "en", "xa"),
    ]
    # auxiliary mono contributes nothing; ab pivots for nobody
    ids = [p[0] for p in plan]
    assert "mono.aa" not in ids and "parallel.ab-en" not in ids


def test_predict_sweep_objective_filter():
    datasets = [
        _stub("mono.xa", "mono", lang="xa"),
        _stub("parallel.aa-en", "parallel", src="aa", tgt="en"),
    ]
    plan = predict_sweep(_stub_languages(), datasets, {"xa": ["aa"]},
                         objectives=("bt",))
    assert all(p[1] == "bt" for p in plan)
    assert plan == [("mono.xa", "bt", "en", "xa"), ("mono.xa", "bt", "aa", "xa")]


def test_stage3_audit_matches_the_plan_exactly(env):
    ctx = ctx_at(env, "s3", arm="no-synthetic")
    languages, _ = load_manifest(ctx.cfg.manifest)
    _, datasets = ctx.registry()
    plan = predict_sweep(languages, datasets, ctx.cfg.pivots)
    params = init_params(ctx.model_cfg, 5)
    ck = run_stage3(ctx, params)
    rows = read_audit(os.path.join(ctx.out_dir, "audit.stage3.tsv"))
    sweeps = ctx.cfg.stage3.sweeps
    assert len(rows) == sweeps * len(plan)
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    for s in range(sweeps):
        got = [(r[1], r[2], r[3], r[4])
               for r in rows[s * len(plan):(s + 1) * len(plan)]]
        assert got == plan
    assert ck.stage == "3" and ck.step == len(rows)
    assert ck.meta["sweeps_run"] == sweeps


def test_stage3_zero_sweeps_passes_params_through(env):
    cfg = copy.deepcopy(env[1])
    cfg.stage3 = Stage3Spec(sweeps=0, eval_every=0, max_tokens=256, max_len=16)
    ctx = ctx_at(env, "s3zero", cfg=cfg, arm="no-synthetic")
    params = init_params(ctx.model_cfg, 5)
    before = ModelParams(params.arrays)
    ck = run_stage3(ctx, params)
    assert ck.step == 0
    assert params_equal(params, before)


def test_stage3_logs_skips_and_leaves_params_alone(env, monkeypatch):
    ctx = ctx_at(env, "s3skip", arm="no-synthetic")
    params = init_params(ctx.model_cfg, 5)
    before = ModelParams(params.arrays)
    monkeypatch.setattr(objectives, "greedy_decode_batch",
                        lambda p, c, ids, lang, max_len=32: [[] for _ in ids])
    run_stage3(ctx, params)
    rows = read_audit(os.path.join(ctx.out_dir, "audit.stage3.tsv"))
    assert rows and all(r[5] == "skip" for r in rows)
    assert params_equal(params, before)


def test_stage3_non_finite_loss_raises_with_location(env):
    ctx = ctx_at(env, "s3nan", arm="no-synthetic")
    _, datasets = ctx.registry()
    ds_id, obj, _, _ = predict_sweep(ctx.languages, datasets, ctx.cfg.pivots)[0]
    params = init_params(ctx.model_cfg, 5)
    params.arrays["tok_emb"][:] = np.nan
    with pytest.raises(NumericError,
                       match=rf"stage3 step 0 \(dataset {ds_id}, {obj}\)$"):
        run_stage3(ctx, params)


def test_stage3_early_stop_restores_the_best_params(env, monkeypatch):
    import munmt.pipeline as pipe
    cfg = copy.deepcopy(env[1])
    cfg.stage3 = Stage3Spec(sweeps=6, eval_every=1, patience=2,
                            max_tokens=256, max_len=16)
    ctx = ctx_at(env, "s3stop", cfg=cfg, arm="no-synthetic")
    seen = []
    scores = iter([10.0, 5.0, 4.0])

    def fake_eval(_ctx, params, _sets):
        seen.append(ModelParams(params.arrays))
        return next(scores), []

    monkeypatch.setattr(pipe, "_mean_bleu", fake_eval)
    params = init_params(ctx.model_cfg, 5)
    ck = run_stage3(ctx, params)
    assert ck.meta["sweeps_run"] == 3  # stopped after the third dev check
    assert ck.meta["best_dev"] == 10.0
    assert params_equal(params, seen[0])  # best snapshot restored
    for t in params.tensors.values():  # ... in place, into the one store
        assert np.shares_memory(t.data, params.flat)


# ---------------------------------------------------------------------------
# compatibility checks and manifest filtering


def test_compat_rejects_bad_pivot_tables(env):
    root, cfg, ctx = env
    languages, entries = load_manifest(cfg.manifest)
    for pivots, fragment in [
        ({"xa": ["zz"]}, "not in the manifest"),
        ({"aa": ["ab"]}, "not a target"),
        ({"zz": ["aa"]}, "unknown language"),
    ]:
        bad = copy.deepcopy(cfg)
        bad.pivots = pivots
        with pytest.raises(ConfigError, match=fragment):
            check_manifest_compat(bad, languages, entries)


def test_compat_rejects_supervised_targets(env):
    root, cfg, ctx = env
    languages, entries = load_manifest(cfg.manifest)
    leak = entries + [{"id": "parallel.xa-en", "kind": "parallel", "src": "xa",
                       "tgt": "en", "src_path": "a", "tgt_path": "b"}]
    with pytest.raises(ConfigError, match="target language"):
        check_manifest_compat(cfg, languages, leak)


def test_single_aux_drops_other_auxiliaries_in_memory(env, tmp_path, monkeypatch):
    root, cfg, ctx = env
    cfg = copy.deepcopy(cfg)
    cfg.pivots = {"xa": ["ab", "aa"]}
    parses = count_calls(monkeypatch, "load_manifest", corpus, pipeline)
    kept = build_context(cfg, str(tmp_path / "oneaux"), quiet=True, arm="single-aux")
    assert len(parses) == 1
    # the alphabetically first pivot is kept; the caller's config is untouched
    assert kept.cfg.pivots == {"xa": ["aa"]} and cfg.pivots == {"xa": ["ab", "aa"]}
    # the context's entries are the manifest's, in order, minus parallel.ab-en
    assert [e["id"] for e in kept.entries] == [
        e["id"] for e in ctx.entries if e["id"] != "parallel.ab-en"]
    assert [d.id for d in kept.registry()[1]] == [e["id"] for e in kept.entries]
    assert os.listdir(tmp_path / "oneaux") == ["vocab.txt"]  # no manifest copy
    # a first pivot with no parallel data leaves the pivots unbridged
    languages, entries = load_manifest(cfg.manifest)
    save_manifest(tmp_path / "manifest.json", languages,
                  [e for e in entries if e["id"] != "parallel.aa-en"])
    cfg.manifest = str(tmp_path / "manifest.json")
    with pytest.raises(ConfigError, match="no parallel data"):
        build_context(cfg, str(tmp_path / "noaux"), quiet=True, arm="single-aux")


def test_single_aux_refuses_an_unbridged_target_before_writing(env, tmp_path):
    cfg = copy.deepcopy(env[1])
    cfg.pivots = {"xa": ["ab"], "xb": ["aa"]}  # keeps aa, which xa lacks
    with pytest.raises(ConfigError, match=r"single-aux arm keeps 'aa', but targets \['xa'\]"):
        build_context(cfg, str(tmp_path / "run"), quiet=True, arm="single-aux")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("arm", ["bt_only", "BT-only", "full"])
def test_unknown_arm_refused(env, tmp_path, arm):
    with pytest.raises(ConfigError, match="unknown ablation arm"):
        build_context(env[1], str(tmp_path / "run"), quiet=True, arm=arm)
    with pytest.raises(ConfigError, match="unknown ablation arm"):
        run_pipeline(env[1], str(tmp_path / "run"), quiet=True, arm=arm)
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# the whole pipeline, smoke scale


def count_calls(monkeypatch, name, *modules):
    """Count the calls to `name` made through any of `modules`."""
    calls = []
    fn = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_run_pipeline_end_to_end(env, tmp_path, monkeypatch):
    root, cfg, _ = env
    builds = count_calls(monkeypatch, "build_registry", pipeline)
    parses = count_calls(monkeypatch, "load_manifest", corpus, pipeline)
    checks = count_calls(monkeypatch, "check_manifest_compat", pipeline)
    summary = run_pipeline(cfg, str(tmp_path / "run"), quiet=True)
    # the manifest is tokenized once; synthetic rounds are added per stage
    assert len(builds) == 1
    # read and checked once, by build_context; the registry build parses nothing
    assert len(parses) == 1 and len(checks) == 1
    assert set(summary["stages"]) == {"stage1", "stage2a", "stage2b", "stage3"}
    for scores in summary["stages"].values():
        assert set(scores) == {"en-xa", "xa-en"}
        for v in scores.values():
            assert 0.0 <= v <= 100.0
    out = tmp_path / "run"
    for fn in ("vocab.txt", "resolved_config.json", "summary.json",
               "run_meta.json", "stage1.ckpt", "stage2a.ckpt", "stage2b.ckpt",
               "stage3.ckpt", "audit.stage1.tsv", "audit.stage2a.tsv",
               "audit.stage2b.tsv", "audit.stage3.tsv", "report.stage3.tsv",
               "report.stage3.json",
               os.path.join("synthetic", "r1.entries.json"),
               os.path.join("synthetic", "r2.entries.json")):
        assert (out / fn).exists(), fn
    # stage-3 sweeps included synthetic CE (round-2 data is in the pool)
    rows = read_audit(out / "audit.stage3.tsv")
    assert any(r[2] == "ce" for r in rows)
    disk = json.load(open(out / "summary.json"))
    assert disk["stages"] == summary["stages"]


def test_no_synthetic_arm_skips_generation(env, tmp_path, monkeypatch):
    root, cfg, _ = env
    small = copy.deepcopy(cfg)
    small.stage2a = StageSpec(steps=2, lr=LrSpec(peak=5e-4, warmup=2, total=12))
    small.stage2b = StageSpec(steps=2, lr=LrSpec(peak=5e-4, warmup=2, total=12))
    small.stage1 = StageSpec(steps=2, lr=LrSpec(peak=5e-4, warmup=2, total=12))
    small.stage3 = Stage3Spec(sweeps=1, eval_every=0, max_tokens=256, max_len=16)
    out = tmp_path / "nosynth"
    builds = count_calls(monkeypatch, "build_registry", pipeline)
    summary = run_pipeline(small, str(out), quiet=True, arm="no-synthetic")
    assert len(builds) == 1
    assert not (out / "synthetic").exists()
    assert set(summary["stages"]) == {"stage1", "stage2a", "stage2b", "stage3"}
    rows = read_audit(out / "audit.stage3.tsv")
    assert all(r[2] in ("bt", "ct") for r in rows)
