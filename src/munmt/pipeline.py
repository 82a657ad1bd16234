"""Training orchestration: three stages, synthetic rounds, audit logs.

Every stage yields its updates to one loop, which checks, applies, audits
and checkpoints them. Stages 1 and 2 yield sampled updates (they differ only
in which datasets exist); stage 3 yields deterministic sweeps over a
precomputed update plan. Every random draw comes from a stream named after
the stage and step number, so a run can be stopped at any checkpoint and
resumed bit-exactly.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tensor as T
from .checkpoint import Checkpoint, save_checkpoint
from .config import (DATA_PATH_KEYS, ExperimentConfig, config_digest,
                     file_digest, to_dict)
from .corpus import (SamplingPolicy, bucket_batches, build_registry,
                     choose_dataset, draw_batch, entry_problems, load_dataset,
                     load_manifest, resolve_paths, write_json)
from .errors import ConfigError, DataError, NumericError
from .evaluation import evaluate_model, translate_corpus, write_report
from .model import ModelConfig, ModelParams, init_params
from .objectives import (back_translation_loss, cross_entropy_loss,
                         cross_translation_loss, mass_loss)
from .optim import OptimState, lr_at, optimizer_step
from .rng import named_rng
from .synthlang import BenchmarkConfig, build_benchmark, load_testsets
from .tokenizer import (read_json, read_lines, read_text, save_vocab, train_bpe,
                        vocab_digest, write_lines)

STAGE_TAGS = {"stage1": "1", "stage2a": "2a", "stage2b": "2b", "stage3": "3"}


@dataclass
class ArmOptions:
    """Ablation switches. The default is the full method."""

    use_synthetic: bool = True
    keep_aux: str | None = None  # keep only this auxiliary's real parallel data
    stage3_objectives: tuple | None = None  # None = all of bt/ct/ce


@dataclass
class RunContext:
    """Everything the stage runners share: config, model geometry, vocab,
    the manifest's languages and dataset entries (read, with their paths
    resolved, and checked against the pivot table once, by build_context),
    the ablation arm, which picks each stage's datasets and objectives, and
    where artifacts go."""

    cfg: ExperimentConfig
    model_cfg: ModelConfig
    vocab: object
    languages: list
    entries: list
    out_dir: str
    vocab_digest: str = ""
    config_digest: str = ""
    quiet: bool = False
    arm: ArmOptions = field(default_factory=ArmOptions)
    # the manifest's tokenized corpora, built on the first registry() call
    _registry: list | None = field(default=None, init=False, repr=False,
                                    compare=False)

    def say(self, msg: str) -> None:
        if not self.quiet:
            print(msg, flush=True)

    def registry(self, extra_entries=()):
        """(languages, datasets): the manifest's corpora, tokenized once per
        context, followed by `extra_entries` (e.g. synthetic rounds), which
        are checked like manifest entries and tokenized on every call. Each
        call returns a fresh list."""
        problems = entry_problems(extra_entries, self.languages,
                                  taken={e["id"] for e in self.entries})
        if problems:
            raise DataError("; ".join(problems))
        limit = self.cfg.piece_limit
        if self._registry is None:
            self._registry = build_registry(self.entries, self.vocab, limit)
        return self.languages, self._registry + [
            load_dataset(e, self.vocab, limit) for e in extra_entries]


def _english_and_targets(languages):
    english = [l.name for l in languages if l.is_english]
    if len(english) != 1:
        raise DataError(f"expected exactly one English language, got {english}")
    targets = sorted(l.name for l in languages if l.is_target)
    return english[0], targets


def check_manifest_compat(cfg: ExperimentConfig, languages, entries) -> None:
    """Pivot table and manifest must agree: every pivot auxiliary has real
    parallel data with English, and no target appears in real parallel data."""
    english, targets = _english_and_targets(languages)
    names = {l.name for l in languages}
    real_parallel = [e for e in entries
                     if e["kind"] == "parallel" and not e.get("synthetic")]
    problems = []
    for tgt, pivots in sorted(cfg.pivots.items()):
        if tgt not in names:
            problems.append(f"pivot entry for unknown language {tgt!r}")
            continue
        if tgt not in targets:
            problems.append(f"pivot entry for {tgt!r}, which is not a target")
        for aux in pivots:
            if aux not in names:
                problems.append(f"pivot {aux!r} for {tgt!r} is not in the manifest")
            elif not any({e["src"], e["tgt"]} == {aux, english}
                         for e in real_parallel):
                problems.append(
                    f"pivot {aux!r} for {tgt!r} has no parallel data with {english!r}")
    for e in real_parallel:
        for side in (e["src"], e["tgt"]):
            if side in targets:
                problems.append(
                    f"target language {side!r} appears in real parallel dataset {e['id']}")
    if problems:
        raise ConfigError(problems)


# ---------------------------------------------------------------------------
# the update loop every stage runs through


def _audit_rows(path, start_step: int) -> list:
    """The rows of the audit log `path` that a run resumed at `start_step`
    keeps: the complete rows of the earlier steps, so the steps run again are
    logged once. A missing log keeps nothing; a partial last row is dropped."""
    if start_step == 0 or not os.path.exists(path):
        return []
    kept = []
    for n, row in enumerate(read_text(path, "audit log").split("\n")[:-1], 1):
        step = row.split("\t", 1)[0]
        try:
            if int(step) < start_step:
                kept.append(row + "\n")
        except ValueError:
            raise DataError(f"audit log {path} line {n}: step {step!r} "
                            "is not an integer") from None
    return kept


def _run_updates(ctx: RunContext, params: ModelParams, opt: OptimState, spec,
                 label: str, stage_tag: str, updates, start_step: int,
                 steps: int, interval: int = 0, meta: dict | None = None
                 ) -> Checkpoint:
    """Apply the updates a stage yields, numbered from `start_step`. An
    update is (dataset, objective, src_lang, tgt_lang, loss, lr); a loss of
    None, a batch whose every decode came back empty, costs no step.

    Each loss is checked to be finite, backpropagated and applied by one
    optimizer step. Each update is one row of audit.<label>.tsv: step,
    dataset, objective, src_lang, tgt_lang, and the loss as %.10g or "skip".
    Every `interval` updates before `steps` the log is flushed and a
    mid-stage checkpoint saved. The final checkpoint's step is the number of
    updates run, and its header carries `meta` as the stage left it."""
    def checkpoint(step):
        return Checkpoint(params, opt, stage_tag, step, ctx.vocab_digest,
                          ctx.config_digest, dict(meta or {}, stage_label=label,
                                                  model=asdict(ctx.model_cfg)))

    path = os.path.join(ctx.out_dir, f"audit.{label}.tsv")
    kept = _audit_rows(path, start_step)
    t = start_step
    with open(path, "w", encoding="utf-8") as audit:
        audit.writelines(kept)
        for ds_id, obj, src_l, tgt_l, loss, lr in updates:
            logged = "skip"
            if loss is not None:
                val = float(loss.data)
                if not np.isfinite(val):
                    raise NumericError(f"non-finite loss at {label} step {t} "
                                       f"(dataset {ds_id}, {obj})")
                T.backward(loss, params.tensors)
                optimizer_step(params, opt, lr, weight_decay=spec.weight_decay,
                               clip_norm=spec.clip_norm or None)
                logged = "%.10g" % val
            audit.write(f"{t}\t{ds_id}\t{obj}\t{src_l}\t{tgt_l}\t{logged}\n")
            t += 1
            if interval and t % interval == 0 and t < steps:
                audit.flush()  # a resume from this checkpoint needs every earlier row
                save_checkpoint(checkpoint(t), os.path.join(
                    ctx.out_dir, f"{label}.step{t:06d}.ckpt"))
    final = checkpoint(t)
    save_checkpoint(final, os.path.join(ctx.out_dir, f"{label}.ckpt"))
    return final


# ---------------------------------------------------------------------------
# stages 1 and 2: sampled updates


def run_algorithm1(ctx: RunContext, params: ModelParams, datasets, label: str,
                   spec, stage_tag: str, opt: OptimState | None = None,
                   start_step: int = 0) -> Checkpoint:
    """Sampled training: each step picks a dataset, draws a batch, and
    applies one update. Mono batches train the masked-span objective; real
    parallel batches train supervised CE in both directions; synthetic
    parallel batches train CE in their labeled direction only.

    Resumable: pass the checkpoint's optimizer state and step count. Step t
    always draws from the stream "{label}:step{t}" regardless of where the
    run started.
    """
    if stage_tag not in ("1", "2a", "2b"):
        raise ConfigError(f"run_algorithm1 got stage tag {stage_tag!r}")
    if start_step < 0 or start_step > spec.steps:
        raise ConfigError(f"start_step {start_step} outside [0, {spec.steps}]")
    policy = SamplingPolicy(ctx.cfg.p_parallel, ctx.cfg.temperature).validate()
    if opt is None:
        opt = OptimState.init(params, kind=spec.optimizer)
    bad = []
    spec.lr.validate(label, bad)
    if bad:
        raise ConfigError(bad)
    mcfg = ctx.model_cfg

    def updates():
        for t in range(start_step, spec.steps):
            rng = named_rng(ctx.cfg.seed, f"{label}:step{t}")
            ds = choose_dataset(datasets, policy, rng)
            batch = draw_batch(ds, ctx.cfg.batch_size, rng)
            if ds.kind == "mono":
                loss = mass_loss(params, mcfg, batch, ds.lang, rng)
                obj, src_l, tgt_l = "mass", ds.lang, ds.lang
            else:
                src, tgt = zip(*batch)
                loss = cross_entropy_loss(params, mcfg, src, tgt, ds.tgt)
                obj, src_l, tgt_l = "ce", ds.src, ds.tgt
                if not ds.synthetic:
                    rev = cross_entropy_loss(params, mcfg, tgt, src, ds.src)
                    loss, obj = T.add(loss, rev), "ce2"
            yield ds.id, obj, src_l, tgt_l, loss, lr_at(spec.lr, t)
            done = t + 1
            if done % 500 == 0 or done == spec.steps:
                ctx.say(f"[{label}] step {done}/{spec.steps} loss "
                        f"{float(loss.data):.4f}")

    return _run_updates(ctx, params, opt, spec, label, stage_tag, updates(),
                        start_step, spec.steps, spec.checkpoint_interval)


def run_stage1(ctx: RunContext, params: ModelParams | None = None,
               opt: OptimState | None = None, start_step: int = 0) -> Checkpoint:
    if any(e.get("synthetic") for e in ctx.entries):
        raise DataError("stage 1 must run before any synthetic data exists")
    _, datasets = ctx.registry()
    if params is None:
        params = init_params(ctx.model_cfg, ctx.cfg.seed)
    return run_algorithm1(ctx, params, datasets, "stage1", ctx.cfg.stage1, "1",
                          opt=opt, start_step=start_step)


def run_stage2(ctx: RunContext, params: ModelParams, label: str,
               opt: OptimState | None = None, start_step: int = 0) -> Checkpoint:
    """label is "stage2a" or "stage2b". Trains on the manifest's data plus
    the synthetic rounds stage_entries gives the label; under an arm without
    synthetic data, on the manifest's data alone, with the same budget."""
    if label not in ("stage2a", "stage2b"):
        raise ConfigError(f"unknown stage label {label!r}")
    synthetic = stage_entries(ctx, label)
    if ctx.arm.use_synthetic and not any(
            e.get("synthetic") for e in ctx.entries + synthetic):
        raise DataError(f"{label} expects at least one synthetic parallel dataset")
    _, datasets = ctx.registry(extra_entries=synthetic)
    return run_algorithm1(ctx, params, datasets, label, getattr(ctx.cfg, label),
                          STAGE_TAGS[label], opt=opt, start_step=start_step)


# ---------------------------------------------------------------------------
# synthetic parallel data


def _synthesize(ctx, params, round_idx, source, lines, sel, into):
    """Decode the selected lines of the mono dataset `source` into language
    `into`, write both sides and a sidecar naming the lines used, and return
    the entry of the synthetic corpus labeled into -> source language, its
    paths relative to the synthetic directory. Refuses a corpus whose every
    decode came back empty."""
    orig = source["lang"]
    src_texts = [lines[i] for i in sel]
    ctx.say(f"[synthetic r{round_idx}] decoding {len(sel)} {orig} lines into {into}")
    decoded = translate_corpus(params, ctx.model_cfg, ctx.vocab, src_texts, into,
                               max_len=ctx.cfg.eval.max_len,
                               batch_size=ctx.cfg.eval.batch_size)
    stem = f"r{round_idx}.{into}-{orig}"
    if not any(decoded):
        raise DataError(f"synthetic corpus synth.{stem}: all {len(decoded)} "
                        f"decodes into {into} came back empty")
    out_root = os.path.join(ctx.out_dir, "synthetic")
    into_name, orig_name = f"{stem}.{into}.txt", f"{stem}.{orig}.txt"
    write_lines(os.path.join(out_root, into_name), decoded)
    write_lines(os.path.join(out_root, orig_name), src_texts)
    write_json(os.path.join(out_root, f"{stem}.meta.json"), {
        "round": round_idx, "source_dataset": source["id"],
        "line_indices": [int(i) for i in sel],
        "empty_decodes": sum(1 for d in decoded if not d)})
    return {"id": f"synth.{stem}", "kind": "parallel", "src": into, "tgt": orig,
            "src_path": into_name, "tgt_path": orig_name, "synthetic": True}


def generate_synthetic(ctx: RunContext, params: ModelParams, round_idx: int):
    """Decode slices of the mono corpora into synthetic parallel datasets.

    Round 1: for each target X, a fraction of X's mono corpus is decoded into
    English, giving (decoded English, original X) pairs labeled English->X.
    Round 2: a disjoint slice of X mono, `round2_multiplier` times larger, is
    decoded the same way, and additionally a disjoint slice of English mono is
    decoded into each X, giving (decoded X, original English) pairs labeled
    X->English. Selection uses one permutation per corpus, so rounds never
    reuse a line. Writes the round's entries file, its paths relative to the
    file, and returns the entries resolved as stage_entries reads them back.
    """
    path = synthetic_rounds(ctx, f"r{round_idx}")[round_idx]  # rejects other rounds
    english, targets = _english_and_targets(ctx.languages)
    mono = {e["lang"]: e for e in ctx.entries if e["kind"] == "mono"}
    syn = ctx.cfg.synthetic
    os.makedirs(os.path.dirname(path), exist_ok=True)

    def mono_lines(lang):
        if lang not in mono:
            raise DataError(f"no mono dataset for {lang!r} in the manifest")
        return mono[lang], read_lines(mono[lang]["path"])

    out_entries = []
    for x in targets:
        entry, lines = mono_lines(x)
        n = len(lines)
        k = int(syn.round1_mono_fraction * n)
        if k < 1:
            raise DataError(
                f"round-1 fraction {syn.round1_mono_fraction} of {n} {x} lines "
                "selects nothing")
        perm = named_rng(ctx.cfg.seed, f"synthetic:mono:{x}").permutation(n)
        if round_idx == 1:
            sel = np.sort(perm[:k])
        else:
            k2 = k * syn.round2_multiplier
            if k + k2 > n:
                raise DataError(
                    f"round 2 needs {k + k2} distinct {x} lines, corpus has {n}")
            sel = np.sort(perm[k:k + k2])
        out_entries.append(_synthesize(ctx, params, round_idx, entry, lines, sel,
                                       english))

    if round_idx == 2:
        entry, en_lines = mono_lines(english)
        n = len(en_lines)
        m = syn.english_lines_per_target
        perm = named_rng(ctx.cfg.seed, f"synthetic:mono:{english}").permutation(n)
        for i, x in enumerate(targets):
            if (i + 1) * m > n:
                raise DataError(
                    f"round 2 needs {(i + 1) * m} {english} lines for "
                    f"{len(targets)} targets, corpus has {n}")
            sel = np.sort(perm[i * m:(i + 1) * m])
            out_entries.append(_synthesize(ctx, params, 2, entry, en_lines, sel, x))

    write_json(path, out_entries)
    return resolve_paths(out_entries, path)


def synthetic_rounds(ctx: RunContext, label: str) -> dict:
    """{round: path of its entries file} for the synthetic rounds `label`
    trains on: stage2a trains round 1; stage2b and stage3 train round 2,
    plus round 1 when synthetic.keep_round1 is set. The label "r1" or "r2"
    names that one round, whose file generate_synthetic writes."""
    later = (2, 1) if ctx.cfg.synthetic.keep_round1 else (2,)
    rounds = {"r1": (1,), "r2": (2,), "stage2a": (1,), "stage2b": later,
              "stage3": later}
    if label not in rounds:
        raise ConfigError(f"no synthetic rounds for {label!r}")
    return {n: os.path.join(ctx.out_dir, "synthetic", f"r{n}.entries.json")
            for n in rounds[label]}


def stage_entries(ctx: RunContext, label: str) -> list:
    """The synthetic dataset entries `label` trains on, read back from the
    entries files of its rounds (see synthetic_rounds), each path resolved
    against its entries file; none under an arm without synthetic data."""
    if not ctx.arm.use_synthetic:
        return []
    entries = []
    for n, path in synthetic_rounds(ctx, label).items():
        if not os.path.exists(path):
            raise DataError(f"{path} not found: run synth-bt --round {n} first")
        doc = read_json(path, "entries file")
        if not isinstance(doc, list):
            raise DataError(f"{path}: expected a JSON list of dataset entries")
        entries += resolve_paths(doc, path)
    return entries


# ---------------------------------------------------------------------------
# stage 3: deterministic sweeps


def predict_sweep(languages, datasets, pivots, objectives=None):
    """The exact, ordered update plan for one stage-3 sweep.

    Returns (dataset_id, objective, src_lang, tgt_lang) tuples, where src/tgt
    name the direction the update trains. English mono back-translates through
    every target; target mono back-translates through English and each of its
    pivots; auxiliary mono is skipped; real parallel data cross-translates
    through every target it pivots for; synthetic data trains plain CE in its
    labeled direction. The trainer executes this list literally, so audit
    logs can be checked against it.
    """
    english, targets = _english_and_targets(languages)
    allow = set(objectives) if objectives is not None else {"bt", "ct", "ce"}
    plan = []
    for ds in datasets:
        if ds.kind == "mono":
            if "bt" not in allow:
                continue
            if ds.lang == english:
                for t in targets:
                    plan.append((ds.id, "bt", t, english))
            elif ds.lang in targets:
                for via in [english] + sorted(pivots.get(ds.lang, [])):
                    plan.append((ds.id, "bt", via, ds.lang))
        elif ds.synthetic:
            if "ce" in allow:
                plan.append((ds.id, "ce", ds.src, ds.tgt))
        else:
            if "ct" not in allow:
                continue
            aux = ds.tgt if ds.src == english else ds.src
            for t in targets:
                if aux in pivots.get(t, []):
                    plan.append((ds.id, "ct", t, english))
    return plan


def _load_eval_sets(testsets_path, split):
    doc = load_testsets(testsets_path)
    sets = []
    for d in doc["eval_directions"]:
        s, t = d.split("-")
        sets.append((read_lines(doc[split][s]), read_lines(doc[split][t]), d))
    return sets


def _mean_bleu(ctx, params, sets):
    """Score `params` on `sets` under the run's eval settings: the mean BLEU
    and the per-direction rows. Every evaluation of a run comes through here."""
    rows = evaluate_model(params, ctx.model_cfg, ctx.vocab, sets,
                          mode=ctx.cfg.eval.mode, max_len=ctx.cfg.eval.max_len,
                          batch_size=ctx.cfg.eval.batch_size)
    return sum(r.bleu.score for r in rows) / len(rows), rows


def _scores_line(rows) -> str:
    return " ".join(f"{r.direction}={r.bleu.score:.2f}" for r in rows)


def run_stage3(ctx: RunContext, params: ModelParams) -> Checkpoint:
    """Fine-tune with back-translation, cross-translation, and synthetic CE,
    on the manifest's data plus stage_entries(ctx, "stage3"), restricted to
    the arm's stage-3 objectives.

    Deterministic: no sampling. Update t is plan entry t mod len(plan) of
    sweep t div len(plan). Batches come from a fixed length-bucketed
    partition of each dataset; sweep s uses batch s modulo the partition size.
    A decode that comes back empty for the whole batch is logged as a skip
    and costs no update. Dev BLEU is checked every `eval_every` sweeps; after
    `patience` checks without improvement the run stops and the best
    parameters are restored.
    """
    spec = ctx.cfg.stage3
    english, _ = _english_and_targets(ctx.languages)
    _, datasets = ctx.registry(extra_entries=stage_entries(ctx, "stage3"))
    plan = predict_sweep(ctx.languages, datasets, ctx.cfg.pivots,
                         ctx.arm.stage3_objectives)
    if not plan:
        raise DataError("stage 3 plan is empty: nothing to train")
    by_id = {ds.id: ds for ds in datasets}
    batches = {ds_id: bucket_batches(by_id[ds_id], spec.max_tokens, spec.bucket_width)
               for ds_id in {p[0] for p in plan}}  # a dataset is never empty

    opt = OptimState.init(params, kind=spec.optimizer)
    lr = ctx.cfg.stage1.lr.peak / spec.lr_divisor
    mcfg = ctx.model_cfg

    dev_sets = None
    if ctx.cfg.testsets and spec.eval_every > 0:
        dev_sets = _load_eval_sets(ctx.cfg.testsets, "dev")
    meta = {"sweeps_run": 0, "best_dev": None}

    def sweeps():
        best = None  # (params.flat, opt.m, opt.v, opt.step) at the best dev check
        stale = 0
        for sweep in range(spec.sweeps):
            for ds_id, obj, src_l, tgt_l in plan:
                ds, blist = by_id[ds_id], batches[ds_id]
                batch = blist[sweep % len(blist)]
                if obj == "bt":
                    loss = back_translation_loss(params, mcfg, batch, x_lang=tgt_l,
                                                 via_lang=src_l,
                                                 max_len=spec.max_len).loss
                elif obj == "ct":  # from the auxiliary side to the English one
                    x, y = zip(*batch)
                    x_lang = ds.src
                    if ds.src == english:
                        x, y, x_lang = y, x, ds.tgt
                    loss = cross_translation_loss(params, mcfg, x, y, src_lang=x_lang,
                                                  tgt_lang=tgt_l, via_lang=src_l,
                                                  max_len=spec.max_len).loss
                else:
                    src, tgt = zip(*batch)
                    loss = cross_entropy_loss(params, mcfg, src, tgt, ds.tgt)
                yield ds_id, obj, src_l, tgt_l, loss, lr
            meta["sweeps_run"] = done = sweep + 1
            ctx.say(f"[stage3] sweep {done}/{spec.sweeps} done "
                    f"({done * len(plan)} updates attempted)")
            if dev_sets and done % spec.eval_every == 0:
                score, rows = _mean_bleu(ctx, params, dev_sets)
                ctx.say(f"[stage3] dev mean {score:.2f} ({_scores_line(rows)})")
                if meta["best_dev"] is None or score > meta["best_dev"]:
                    meta["best_dev"] = score
                    best = (params.flat.copy(), opt.m.copy(), opt.v.copy(), opt.step)
                    stale = 0
                else:
                    stale += 1
                    if spec.patience and stale >= spec.patience:
                        ctx.say(f"[stage3] stopping early after {done} sweeps")
                        break
        if best is not None:
            params.flat[...] = best[0]
            opt.m, opt.v, opt.step = best[1:]

    return _run_updates(ctx, params, opt, spec, "stage3", "3", sweeps(), 0,
                        spec.sweeps * len(plan), meta=meta)


# ---------------------------------------------------------------------------
# the whole pipeline


def generate_benchmark(cfg: ExperimentConfig, out_dir) -> None:
    """Build the toy benchmark under out_dir/benchmark (its seed defaults to
    the experiment seed) and point cfg's manifest and testsets at it."""
    bench = dict(cfg.benchmark)
    bench.setdefault("seed", cfg.seed)
    paths = build_benchmark(BenchmarkConfig(out_dir=os.path.join(out_dir, "benchmark"),
                                            **bench))
    cfg.manifest = paths["manifest"]
    cfg.testsets = paths["testsets"]


def save_resolved_config(cfg: ExperimentConfig, out_dir) -> None:
    """Snapshot the config a run actually used to out_dir/resolved_config.json,
    naming a data file inside out_dir (its own benchmark) relative to it and
    any other by its absolute path, so it reads back from any directory."""
    doc = to_dict(cfg)
    root = os.path.abspath(out_dir)
    for key in DATA_PATH_KEYS:
        if doc[key] is not None:
            path = os.path.abspath(doc[key])
            inside = os.path.commonpath([root, path]) == root
            doc[key] = os.path.relpath(path, root) if inside else path
    write_json(os.path.join(out_dir, "resolved_config.json"), doc)


def save_run_meta(out_dir, started: float, **extra) -> None:
    """Write out_dir/run_meta.json, the one artifact with wall-clock times."""
    write_json(os.path.join(out_dir, "run_meta.json"),
               dict(extra, started=started, finished=time.time()))


def build_context(cfg: ExperimentConfig, out_dir, quiet: bool = False,
                  arm: ArmOptions | None = None) -> RunContext:
    """Resolve data, train the vocabulary, and fix the model geometry.

    If the config names no manifest, generate_benchmark builds one under
    out_dir/benchmark. An arm with keep_aux drops every other auxiliary's
    real parallel data from the entries before anything reads them. The
    returned context's cfg is a resolved copy; the caller's is untouched.
    """
    arm = arm or ArmOptions()
    cfg = copy.deepcopy(cfg)
    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    if cfg.manifest is None:
        if not quiet:
            print(f"[data] building benchmark in {os.path.join(out_dir, 'benchmark')}",
                  flush=True)
        generate_benchmark(cfg, out_dir)

    languages, entries = load_manifest(cfg.manifest)
    if arm.keep_aux is not None:
        entries = [e for e in entries
                   if e["kind"] != "parallel" or e.get("synthetic")
                   or arm.keep_aux in (e["src"], e["tgt"])]
    check_manifest_compat(cfg, languages, entries)
    sides = {"mono": ("path",), "parallel": ("src_path", "tgt_path")}
    lines = [line for e in entries for key in sides[e["kind"]]
             for line in read_lines(e[key])]
    if not quiet:
        print(f"[vocab] training BPE ({cfg.vocab_size} pieces) on "
              f"{len(lines)} lines", flush=True)
    vocab = train_bpe(lines, cfg.vocab_size)
    vocab_path = os.path.join(out_dir, "vocab.txt")
    save_vocab(vocab, vocab_path)

    mcfg = ModelConfig(languages=[l.name for l in languages],
                       vocab_size=vocab.size, **asdict(cfg.model)).validate()
    return RunContext(cfg, mcfg, vocab, languages, entries, out_dir,
                      vocab_digest(vocab_path), config_digest(cfg), quiet, arm)


def _report(ctx, params, test_sets, label, scores):
    if not test_sets:
        return
    _, rows = _mean_bleu(ctx, params, test_sets)
    write_report(rows, os.path.join(ctx.out_dir, f"report.{label}.tsv"),
                 os.path.join(ctx.out_dir, f"report.{label}.json"))
    scores[label] = {r.direction: round(r.bleu.score, 4) for r in rows}
    ctx.say(f"[eval] {label}: {_scores_line(rows)}")


def run_pipeline(cfg: ExperimentConfig, out_dir, quiet: bool = False,
                 arm: ArmOptions | None = None) -> dict:
    """Data, vocab, stage 1, two synthetic rounds with stage-2 training,
    stage 3, and per-stage test reports. Returns a summary dict, also written
    to out_dir/summary.json. Wall-clock timestamps only ever land in
    run_meta.json, so everything else is byte-stable for a fixed config."""
    started = time.time()
    ctx = build_context(cfg, out_dir, quiet=quiet, arm=arm)
    cfg = ctx.cfg
    save_resolved_config(cfg, out_dir)

    test_sets = _load_eval_sets(cfg.testsets, "test") if cfg.testsets else None
    scores = {}

    params = init_params(ctx.model_cfg, cfg.seed)
    run_stage1(ctx, params)
    _report(ctx, params, test_sets, "stage1", scores)

    for round_idx, label in ((1, "stage2a"), (2, "stage2b")):
        if ctx.arm.use_synthetic:
            generate_synthetic(ctx, params, round_idx)
        run_stage2(ctx, params, label)
        _report(ctx, params, test_sets, label, scores)

    ck = run_stage3(ctx, params)
    _report(ctx, params, test_sets, "stage3", scores)

    summary = {"stages": scores, "best_dev": ck.meta.get("best_dev"),
               "vocab_digest": ctx.vocab_digest,
               "config_digest": ctx.config_digest,
               "manifest_digest": file_digest(ctx.cfg.manifest)}
    write_json(os.path.join(out_dir, "summary.json"), summary)
    save_run_meta(out_dir, started)
    return summary
