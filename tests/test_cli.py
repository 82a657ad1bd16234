"""Command surface: exit codes, artifact layout, command chaining."""

import copy
import json
import os
import shutil

import pytest

from munmt import corpus, pipeline
from munmt.cli import main
from munmt.config import apply_overrides, from_dict

CFG_DOC = {
    "seed": 11, "vocab_size": 200, "batch_size": 4,
    "pivots": {"xa": ["aa"]},
    "benchmark": {"vocab_types": 30, "len_min": 3, "len_max": 6,
                  "mono_lines": 120, "parallel_lines": 60, "dev_lines": 10,
                  "test_lines": 12, "auxiliaries": ["aa", "ab"],
                  "targets": {"xa": {"window": 2,
                                     "cognates": {"aa": 0.4, "ab": 0.4}}}},
    "model": {"layers": 1, "hidden": 32, "ffn": 64, "heads": 2},
    "stage1": {"steps": 4, "checkpoint_interval": 2,
               "lr": {"peak": 0.0005, "warmup": 2, "total": 12}},
    "stage2a": {"steps": 2, "lr": {"peak": 0.0005, "warmup": 2, "total": 12}},
    "stage2b": {"steps": 2, "lr": {"peak": 0.0005, "warmup": 2, "total": 12}},
    "stage3": {"sweeps": 1, "eval_every": 0, "max_tokens": 256, "max_len": 16},
    "synthetic": {"round1_mono_fraction": 0.1, "round2_multiplier": 2,
                  "english_lines_per_target": 10},
    "eval": {"max_len": 16, "batch_size": 16},
}

CHAIN = [["synth-data"], ["train-vocab"], ["stage1"],
         ["synth-bt", "--round", "1"], ["stage2", "--round", "a"],
         ["synth-bt", "--round", "2"], ["stage2", "--round", "b"],
         ["stage3"], ["evaluate"]]


def count_parses(mp):
    """Record each manifest parse, through every module that binds it."""
    parses = []
    real = corpus.load_manifest

    def counted(path):
        parses.append(path)
        return real(path)

    for module in (corpus, pipeline):
        mp.setattr(module, "load_manifest", counted)
    return parses


def tree_bytes(root, skip=("run_meta.json",)):
    """{relative path: bytes} of every file under root, minus `skip`."""
    found = {}
    for d, _, files in os.walk(root):
        for fn in files:
            if fn not in skip:
                path = os.path.join(d, fn)
                with open(path, "rb") as fh:
                    found[os.path.relpath(path, root)] = fh.read()
    return found


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "exp.json"
    cfg_path.write_text(json.dumps(CFG_DOC))
    out = root / "run"
    codes, parses = {}, {}
    for cmd in CHAIN:
        with pytest.MonkeyPatch.context() as mp:
            seen = count_parses(mp)
            codes[" ".join(cmd)] = main(
                cmd + ["--config", str(cfg_path), "--out", str(out), "--quiet"])
        parses[" ".join(cmd)] = len(seen)
    return root, cfg_path, out, codes, parses


def test_every_chained_command_succeeds(chain):
    _, _, _, codes, _ = chain
    assert codes == {k: 0 for k in codes}


def test_every_chained_command_parses_the_manifest_once(chain):
    parses = chain[4]
    # synth-data writes the manifest and reads nothing
    assert parses == {k: 0 if k == "synth-data" else 1 for k in parses}


def test_chain_leaves_the_documented_artifacts(chain):
    _, _, out, _, _ = chain
    for fn in ("benchmark/manifest.json", "benchmark/testsets.json",
               "vocab.txt", "resolved_config.json", "run_meta.json",
               "stage1.ckpt", "stage1.step000002.ckpt", "stage2a.ckpt",
               "stage2b.ckpt", "stage3.ckpt", "synthetic/r1.entries.json",
               "synthetic/r2.entries.json", "audit.stage1.tsv",
               "audit.stage3.tsv", "report.stage3.test.tsv",
               "report.stage3.test.json"):
        assert (out / fn).exists(), fn
    meta = json.load(open(out / "run_meta.json"))
    assert meta["command"] == "evaluate"  # last writer wins; timestamps live here


def test_synth_data_is_idempotent(chain):
    root, cfg_path, out, _, _ = chain
    manifest = out / "benchmark" / "manifest.json"
    before = manifest.read_bytes()
    assert main(["synth-data", "--config", str(cfg_path),
                 "--out", str(out), "--quiet"]) == 0
    assert manifest.read_bytes() == before


def test_stage1_resume_reproduces_the_final_checkpoint(chain):
    root, cfg_path, out, _, _ = chain
    final = (out / "stage1.ckpt").read_bytes()
    audit = (out / "audit.stage1.tsv").read_bytes()
    code = main(["stage1", "--config", str(cfg_path), "--out", str(out),
                 "--quiet", "--resume", str(out / "stage1.step000002.ckpt")])
    assert code == 0
    assert (out / "stage1.ckpt").read_bytes() == final
    # the steps run again replace their rows instead of repeating them
    assert (out / "audit.stage1.tsv").read_bytes() == audit


def test_resume_rejects_another_stages_checkpoint(chain, capsys):
    root, cfg_path, out, _, _ = chain
    final = (out / "stage1.ckpt").read_bytes()
    code = main(["stage1", "--config", str(cfg_path), "--out", str(out),
                 "--quiet", "--resume", str(out / "stage2a.ckpt")])
    assert code == 3
    assert "cannot resume stage1" in capsys.readouterr().err
    assert (out / "stage1.ckpt").read_bytes() == final


def test_resume_rejects_another_configs_checkpoint(chain, capsys):
    root, cfg_path, out, _, _ = chain
    final = (out / "stage1.ckpt").read_bytes()
    code = main(["stage1", "--config", str(cfg_path), "--out", str(out),
                 "--quiet", "--resume", str(out / "stage1.step000002.ckpt"),
                 "--override", "stage1.lr.peak=0.001"])
    assert code == 3
    assert "config digest mismatch" in capsys.readouterr().err
    assert (out / "stage1.ckpt").read_bytes() == final


def test_evaluate_prints_a_report(chain, capsys):
    root, cfg_path, out, _, _ = chain
    code = main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--quiet", "--split", "dev"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("direction\tscore")
    assert "en-xa" in text and "xa-en" in text
    assert (out / "report.stage3.dev.tsv").exists()


def test_seed_flag_lands_in_the_resolved_config(chain, tmp_path):
    root, cfg_path, _, _, _ = chain
    out = tmp_path / "seeded"
    assert main(["synth-data", "--config", str(cfg_path), "--out", str(out),
                 "--seed", "99", "--quiet"]) == 0
    doc = json.load(open(out / "resolved_config.json"))
    assert doc["seed"] == 99


@pytest.mark.parametrize("val", ["100.5", "1e300"])
def test_fractional_benchmark_line_count_exits_2(tmp_path, capsys, val):
    # a float line count used to be rounded up by the generator and recorded
    # as given
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG_DOC))
    out = tmp_path / "frac"
    code = main(["synth-data", "--config", str(cfg_path), "--out", str(out), "--quiet",
                 "--override", f"benchmark.mono_lines={val}"])
    assert code == 2
    assert "mono_lines must be an int" in capsys.readouterr().err
    assert not (out / "benchmark").exists()


@pytest.mark.parametrize("override, path", [
    ("benchmark.targets.xa.foo=1", "benchmark.targets.xa.foo"),
    ("benchmark.out_dir=x", "benchmark.out_dir"),
], ids=["target-key", "out_dir"])
def test_unknown_benchmark_key_exits_2_naming_it(tmp_path, capsys, override, path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG_DOC))
    out = tmp_path / "o"
    assert main(["train-vocab", "--config", str(cfg_path), "--out", str(out), "--quiet",
                 "--override", override]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"unknown key {path}" in err
    assert not out.exists()


def test_benchmark_bounds_checked_before_anything_is_written(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG_DOC))
    out = tmp_path / "o"
    assert main(["train-vocab", "--config", str(cfg_path), "--out", str(out), "--quiet",
                 "--override", "benchmark.len_min=9",
                 "--override", "benchmark.len_max=4"]) == 2
    assert "len_min <= len_max" in capsys.readouterr().err
    assert not (out / "benchmark").exists()


def test_cognate_fraction_checked_before_anything_is_written(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG_DOC))
    out = tmp_path / "o"
    assert main(["train-vocab", "--config", str(cfg_path), "--out", str(out), "--quiet",
                 "--override", "benchmark.targets.xa.cognates.aa=0.33"]) == 2
    assert "not a multiple of 1/20" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("override, said", [
    ("benchmark.targets.xa=null", "benchmark.targets.xa must be an object, got null"),
    ("schema_version=true", "schema_version must be 1, got true"),
    ("benchmark.vocab_types=1e400", "benchmark.vocab_types must be an int, got Infinity"),
], ids=["null", "true", "inf"])
def test_config_errors_spell_values_as_json(tmp_path, capsys, override, said):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(CFG_DOC))
    assert main(["train-vocab", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--quiet", "--override", override]) == 2
    assert said in capsys.readouterr().err


def test_vocab_digest_mismatch_is_a_data_error(chain, tmp_path, capsys):
    root, cfg_path, out, _, _ = chain
    code = main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--quiet", "--override", "vocab_size=80"])
    assert code == 3
    assert "vocab" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes off the happy path


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_unknown_arm_exits_2(tmp_path):
    with pytest.raises(SystemExit) as e:
        main(["ablate", "--arm", "nope", "--out", str(tmp_path)])
    assert e.value.code == 2


def test_bad_config_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train-vocab", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--override", "seed=1"]])
def test_config_root_that_is_no_object_exits_2(tmp_path, capsys, flag):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[]")
    assert main(["train-vocab", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--quiet"] + flag) == 2
    assert "config root must be a JSON object" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path):
    assert main(["train-vocab", "--out", str(tmp_path / "o"),
                 "--override", "stge1.steps=3"]) == 2


def test_override_through_scalar_exits_2(tmp_path):
    assert main(["train-vocab", "--out", str(tmp_path / "o"),
                 "--override", "seed.deep=3"]) == 2


def test_negative_stage3_clip_norm_exits_2(tmp_path, capsys):
    assert main(["stage3", "--out", str(tmp_path / "o"), "--quiet",
                 "--override", "stage3.clip_norm=-1"]) == 2
    assert "stage3.clip_norm" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["override", "file"])
@pytest.mark.parametrize("key, text", [("stage1.weight_decay", "NaN"),
                                       ("stage1.lr.peak", "Infinity"),
                                       ("stage1.clip_norm", "-Infinity")])
def test_non_finite_config_float_exits_2(tmp_path, capsys, key, text, route):
    if route == "override":
        args = ["--override", f"{key}={text}"]
    else:  # json.dumps writes the NaN / Infinity literals that json reads
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(apply_overrides({}, [f"{key}={text}"])))
        assert text in cfg_path.read_text()
        args = ["--config", str(cfg_path)]
    assert main(["train-vocab", "--out", str(tmp_path / "o"), "--quiet"] + args) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err


def test_missing_manifest_exits_3(tmp_path):
    assert main(["train-vocab", "--out", str(tmp_path / "o"), "--quiet",
                 "--override", "manifest=/no/such/manifest.json"]) == 3


def test_incompatible_pivot_table_exits_2(chain, tmp_path, capsys):
    root, cfg_path, _, _, _ = chain
    assert main(["train-vocab", "--config", str(cfg_path),
                 "--out", str(tmp_path / "o"), "--quiet",
                 "--override", 'pivots={"xa": ["zz"]}']) == 2
    assert "not in the manifest" in capsys.readouterr().err


def test_malformed_synthetic_entry_exits_3(chain, tmp_path, capsys):
    root, cfg_path, out, _, _ = chain
    run = tmp_path / "run"
    (run / "synthetic").mkdir(parents=True)
    shutil.copy(out / "stage1.ckpt", run / "stage1.ckpt")
    entries = json.loads((out / "synthetic" / "r1.entries.json").read_text())
    del entries[0]["src_path"]
    (run / "synthetic" / "r1.entries.json").write_text(json.dumps(entries))
    assert main(["stage2", "--round", "a", "--config", str(cfg_path),
                 "--out", str(run), "--quiet"]) == 3
    assert "needs src_path and tgt_path" in capsys.readouterr().err


def test_synth_bt_round2_decodes_with_stage2a(chain, tmp_path, capsys):
    root, cfg_path, out, _, _ = chain
    run = tmp_path / "run"
    run.mkdir()
    shutil.copy(out / "stage1.ckpt", run / "stage1.ckpt")  # round 1's, not round 2's
    assert main(["synth-bt", "--round", "2", "--config", str(cfg_path),
                 "--out", str(run), "--quiet"]) == 3
    assert str(run / "stage2a.ckpt") in capsys.readouterr().err
    assert not (run / "synthetic").exists()


def test_missing_checkpoint_exits_3(chain):
    root, cfg_path, out, _, _ = chain
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--quiet", "--from", str(out / "nope.ckpt")]) == 3


def test_flipped_payload_byte_exits_3(chain, tmp_path, capsys):
    root, cfg_path, out, _, _ = chain
    raw = bytearray((out / "stage3.ckpt").read_bytes())
    raw[len(raw) - 100] ^= 0x01  # a byte of the second moment
    bad = tmp_path / "flipped.ckpt"
    bad.write_bytes(bytes(raw))
    assert main(["evaluate", "--config", str(cfg_path), "--out", str(out),
                 "--quiet", "--from", str(bad)]) == 3
    assert "digest mismatch" in capsys.readouterr().err


def test_manifest_that_is_no_object_exits_3(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text("[]")
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(dict(CFG_DOC, manifest="manifest.json")))
    assert main(["train-vocab", "--config", str(cfg_path),
                 "--out", str(tmp_path / "run"), "--quiet"]) == 3
    assert "not a munmt-manifest document" in capsys.readouterr().err


def test_out_dir_collision_exits_5(tmp_path):
    blocked = tmp_path / "file"
    blocked.write_text("x")
    assert main(["synth-data", "--out", str(blocked), "--quiet"]) == 5


def test_non_utf8_corpus_exits_3(chain, tmp_path, capsys):
    root, cfg_path, out, _, _ = chain
    bench = tmp_path / "bench"
    shutil.copytree(out / "benchmark", bench)
    mono = bench / "mono.en.txt"
    lines = mono.read_bytes().count(b"\n")
    with open(mono, "ab") as fh:
        fh.write(b"caf\xe9\n")
    assert main(["train-vocab", "--config", str(cfg_path), "--quiet",
                 "--out", str(tmp_path / "run"),
                 "--override", f"manifest={bench / 'manifest.json'}"]) == 3
    assert f"mono.en.txt line {lines + 1} is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "pipeline"])
def test_empty_eval_directions_exit_3(chain, tmp_path, capsys, command):
    root, cfg_path, out, _, _ = chain
    bench = out / "benchmark"
    doc = json.loads((bench / "testsets.json").read_text())
    for split in ("dev", "test"):
        doc[split] = {l: str(bench / p) for l, p in doc[split].items()}
    doc["eval_directions"] = []
    bad = tmp_path / "testsets.json"
    bad.write_text(json.dumps(doc))
    run = tmp_path / "run"
    start = ["--from", str(out / "stage3.ckpt")] if command == "evaluate" else []
    assert main([command, "--config", str(cfg_path), "--out", str(run), "--quiet",
                 *start, "--override", f"manifest={bench / 'manifest.json'}",
                 "--override", f"testsets={bad}"]) == 3
    assert "eval_directions must be a non-empty list" in capsys.readouterr().err
    assert not (run / "summary.json").exists()


@pytest.mark.parametrize("rows, message", [
    (b"0\tmono.en\tmass\ten\ten\t5.5\nx\tgarbage\n",
     "line 2: step 'x' is not an integer"),
    (b"0\tcaf\xe9\n", "line 1 is not UTF-8")], ids=["step", "utf8"])
def test_malformed_audit_log_on_resume_exits_3(chain, tmp_path, capsys, rows,
                                               message):
    root, cfg_path, out, _, _ = chain
    run = tmp_path / "run"
    shutil.copytree(out, run)
    (run / "audit.stage1.tsv").write_bytes(rows)
    assert main(["stage1", "--config", str(cfg_path), "--out", str(run), "--quiet",
                 "--resume", str(run / "stage1.step000002.ckpt")]) == 3
    assert message in capsys.readouterr().err
    assert (run / "audit.stage1.tsv").read_bytes() == rows


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exits_4(chain, tmp_path, capsys):
    root, cfg_path, _, _, _ = chain
    code = main(["stage1", "--config", str(cfg_path),
                 "--out", str(tmp_path / "boom"), "--quiet",
                 "--override", "stage1.lr.peak=1e30",
                 "--override", "stage1.steps=3",
                 "--override", "stage1.checkpoint_interval=0"])
    assert code == 4
    assert "non-finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pipeline and ablation plumbing


def test_pipeline_command_prints_stage_scores(chain, tmp_path, capsys):
    root, cfg_path, _, _, _ = chain
    out = tmp_path / "pipe"
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "stage3:" in text and "xa-en=" in text
    assert (out / "summary.json").exists()


def test_chain_and_pipeline_keep_round1_alike(chain, tmp_path):
    root, cfg_path, _, _, _ = chain
    keep = ["--config", str(cfg_path), "--quiet",
            "--override", "synthetic.keep_round1=true"]
    steps, whole = tmp_path / "steps", tmp_path / "whole"
    for cmd in CHAIN[:CHAIN.index(["stage3"]) + 1]:
        assert main(cmd + keep + ["--out", str(steps)]) == 0
    assert main(["pipeline", "--out", str(whole)] + keep) == 0
    for label in ("stage2b", "stage3"):
        audit = f"audit.{label}.tsv"
        assert (steps / audit).read_bytes() == (whole / audit).read_bytes()
    # stage 3 sweeps every dataset, so the kept round-1 corpus shows there
    assert "\tsynth.r1.en-xa\t" in (whole / "audit.stage3.tsv").read_text()


def test_ablate_no_synthetic(chain, tmp_path):
    root, cfg_path, _, _, _ = chain
    out = tmp_path / "nosynth"
    assert main(["ablate", "--arm", "no-synthetic", "--config", str(cfg_path),
                 "--out", str(out), "--quiet"]) == 0
    assert not (out / "synthetic").exists()
    assert (out / "summary.json").exists()


def test_single_aux_arm_trims_pivots_and_drops_parallel(chain, tmp_path):
    root, cfg_path, out, _, _ = chain
    doc = copy.deepcopy(CFG_DOC)
    doc["pivots"] = {"xa": ["aa", "ab"]}
    doc["manifest"] = str(out / "benchmark" / "manifest.json")
    doc["testsets"] = str(out / "benchmark" / "testsets.json")
    cfg = from_dict(doc)
    ctx = pipeline.build_context(cfg, str(tmp_path / "one"), quiet=True, arm="single-aux")
    assert ctx.cfg.pivots == {"xa": ["aa"]} and cfg.pivots == {"xa": ["aa", "ab"]}
    assert not any("ab" in (e.get("src"), e.get("tgt")) for e in ctx.entries)
    # the pivots shrink before the run's own benchmark is built, whatever
    # English is called, and the digest covers the shrunk table
    doc = {k: v for k, v in doc.items() if k not in ("manifest", "testsets")}
    doc["benchmark"] = dict(doc["benchmark"], base_name="zz")
    cfg2 = from_dict(doc)
    ctx2 = pipeline.build_context(cfg2, str(tmp_path / "two"), quiet=True,
                                  arm="single-aux")
    assert ctx2.cfg.pivots == {"xa": ["aa"]} and cfg2.manifest is None
    assert [e["id"] for e in ctx2.entries if e["kind"] == "parallel"] == ["parallel.aa-zz"]
    full = pipeline.build_context(cfg2, str(tmp_path / "full"), quiet=True)
    assert full.config_digest != ctx2.config_digest


def test_single_aux_arm_ablation_with_another_base_name(chain, tmp_path,
                                                        monkeypatch):
    root, cfg_path, _, _, _ = chain
    out = tmp_path / "oneaux"
    parses = count_parses(monkeypatch)
    assert main(["ablate", "--arm", "single-aux", "--config", str(cfg_path),
                 "--out", str(out), "--quiet",
                 "--override", "benchmark.base_name=zz"]) == 0
    assert len(parses) == 1
    assert not (out / "manifest.filtered.json").exists()
    audits = {fn: (out / fn).read_text() for fn in os.listdir(out)
              if fn.startswith("audit.")}
    assert len(audits) == 4
    assert not any("\tparallel.ab-zz\t" in text for text in audits.values())
    assert "\tparallel.aa-zz\t" in audits["audit.stage3.tsv"]  # the kept pivot


def test_single_aux_arm_rejects_unbridged_targets(tmp_path, capsys):
    doc = copy.deepcopy(CFG_DOC)
    doc["pivots"] = {"xa": ["aa"], "xb": ["ab"]}
    doc["benchmark"]["targets"] = {
        "xa": {"window": 2, "cognates": {"aa": 0.4, "ab": 0.4}},
        "xb": {"window": 3, "cognates": {"aa": 0.4, "ab": 0.4}}}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["ablate", "--arm", "single-aux", "--config", str(cfg_path),
                 "--out", str(out), "--quiet"]) == 2
    assert "single-aux arm keeps 'aa'" in capsys.readouterr().err
    assert not out.exists()  # refused before the benchmark is built


# ---------------------------------------------------------------------------
# run directories: relative, spelled another way, copied


def test_pipeline_with_a_relative_out_matches_an_absolute_one(chain, tmp_path,
                                                                monkeypatch):
    root, cfg_path, _, _, _ = chain
    monkeypatch.chdir(tmp_path)
    parses = count_parses(monkeypatch)
    assert main(["pipeline", "--config", os.path.relpath(cfg_path),
                 "--out", "rel/run", "--quiet"]) == 0
    assert len(parses) == 1
    assert main(["pipeline", "--config", str(cfg_path),
                 "--out", str(tmp_path / "abs"), "--quiet"]) == 0
    rel = tree_bytes(tmp_path / "rel" / "run")
    whole = tree_bytes(tmp_path / "abs")
    assert "summary.json" in rel and "synthetic/r2.entries.json" in rel
    assert "resolved_config.json" in rel
    assert sorted(rel) == sorted(whole)
    assert [fn for fn in rel if rel[fn] != whole[fn]] == []


def test_resume_under_another_spelling_of_out(chain, tmp_path, monkeypatch):
    root, cfg_path, _, _, _ = chain
    monkeypatch.chdir(tmp_path)
    stage1 = ["stage1", "--config", str(cfg_path), "--quiet"]
    assert main(stage1 + ["--out", "relrun"]) == 0
    final = (tmp_path / "relrun" / "stage1.ckpt").read_bytes()
    assert main(stage1 + ["--out", "./relrun",
                          "--resume", "relrun/stage1.step000002.ckpt"]) == 0
    assert (tmp_path / "relrun" / "stage1.ckpt").read_bytes() == final


def test_a_copied_run_directory_reads_its_own_files(chain, tmp_path):
    root, cfg_path, _, _, _ = chain
    orig, moved = tmp_path / "orig", tmp_path / "moved"
    common = ["--config", str(cfg_path), "--quiet"]
    assert main(["stage1", "--out", str(orig)] + common) == 0
    assert main(["synth-bt", "--round", "1", "--out", str(orig)] + common) == 0
    shutil.copytree(orig, moved)
    shutil.rmtree(orig)
    assert main(["stage2", "--round", "a", "--out", str(moved)] + common) == 0
    entries = json.loads((moved / "synthetic" / "r1.entries.json").read_text())
    assert [(e["src_path"], e["tgt_path"]) for e in entries] == [
        ("r1.en-xa.en.txt", "r1.en-xa.xa.txt")]


def test_a_run_config_reads_back_from_another_directory(chain, tmp_path,
                                                         monkeypatch):
    root, cfg_path, out, _, _ = chain
    (tmp_path / "d").mkdir()
    monkeypatch.chdir(tmp_path / "d")
    assert main(["train-vocab", "--config", str(cfg_path), "--out", "runA",
                 "--quiet"]) == 0
    run = tmp_path / "d" / "runA"
    resolved = (run / "resolved_config.json").read_bytes()
    doc = json.loads(resolved)
    assert (doc["manifest"], doc["testsets"]) == (
        os.path.join("benchmark", "manifest.json"),
        os.path.join("benchmark", "testsets.json"))
    # a config file's data paths are relative to the file, not to the
    # working directory
    monkeypatch.chdir(tmp_path)
    assert main(["evaluate", "--config", str(run / "resolved_config.json"),
                 "--out", str(run), "--from", str(out / "stage3.ckpt"),
                 "--quiet"]) == 0
    assert (run / "report.stage3.test.tsv").exists()
    assert (run / "resolved_config.json").read_bytes() == resolved


def test_stage3_without_round2_runs_as_the_no_synthetic_arm(chain, tmp_path):
    root, cfg_path, out, _, _ = chain
    run = tmp_path / "noround2"
    assert main(["stage3", "--config", str(cfg_path), "--out", str(run),
                 "--from", str(out / "stage2b.ckpt"), "--quiet"]) == 0
    assert not (run / "synthetic").exists()
    rows = (run / "audit.stage3.tsv").read_text().splitlines()
    assert rows and {r.split("\t")[2] for r in rows} <= {"bt", "ct"}


def test_dead_synthetic_round_exits_3(chain, tmp_path, monkeypatch, capsys):
    root, cfg_path, out, _, _ = chain
    monkeypatch.setattr(pipeline, "translate_corpus",
                        lambda params, mcfg, vocab, texts, lang, **kw:
                        ["" for _ in texts])
    dead = tmp_path / "dead"
    assert main(["synth-bt", "--round", "1", "--config", str(cfg_path),
                 "--out", str(dead), "--from", str(out / "stage1.ckpt"),
                 "--quiet"]) == 3
    err = capsys.readouterr().err
    assert "synth.r1.en-xa" in err and "all 12 decodes" in err
    assert not (dead / "synthetic" / "r1.entries.json").exists()
