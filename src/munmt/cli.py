"""Command-line interface.

Commands compose through the artifact directory, not through hidden state:
each one rebuilds its context (benchmark, vocabulary, model geometry)
deterministically from the config, picks up checkpoints by their well-known
filenames, and verifies digests on every load. Exit codes: 0 success,
2 configuration, 3 data/checkpoint, 4 numeric failure, 5 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict

from .config import apply_overrides, from_dict, read_config_doc
from .checkpoint import load_checkpoint
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .evaluation import format_report, write_report
from .pipeline import (STAGE_TAGS, ArmOptions, _load_eval_sets, _mean_bleu,
                       build_context, generate_benchmark, generate_synthetic, run_pipeline,
                       run_stage1, run_stage2, run_stage3, save_resolved_config,
                       save_run_meta, synthetic_rounds)

ARMS = ("no-synthetic", "single-aux", "bt-only")

DEFAULT_FROM = {("synth-bt", "1"): "stage1.ckpt",
                ("synth-bt", "2"): "stage2a.ckpt",
                ("stage2", "a"): "stage1.ckpt",
                ("stage2", "b"): "stage2a.ckpt",
                ("stage3", None): "stage2b.ckpt",
                ("evaluate", None): "stage3.ckpt"}


def _config(args):
    doc = read_config_doc(args.config) if args.config else {}
    doc = apply_overrides(doc, args.override)
    if args.seed is not None:
        doc["seed"] = args.seed  # --seed wins over every --override
    return from_dict(doc)


def _context(args):
    ctx = build_context(_config(args), args.out, quiet=args.quiet)
    save_resolved_config(ctx.cfg, ctx.out_dir)
    return ctx


def _check_geometry(ctx, path, ck):
    if ck.meta["model"] != asdict(ctx.model_cfg):
        raise DataError(f"{path}: checkpoint model geometry differs from the "
                        "config's; evaluate it with the config it was trained under")
    return ck


def _load_ckpt(ctx, path):
    """A checkpoint to start from: only its vocabulary must match, because
    chained commands may override per-stage settings."""
    return _check_geometry(ctx, path, load_checkpoint(
        path, expect_vocab_digest=ctx.vocab_digest))


def _resume_ckpt(ctx, path, label):
    """A mid-stage checkpoint to continue: it must come from stage `label`
    run under the active config."""
    ck = _check_geometry(ctx, path, load_checkpoint(
        path, expect_vocab_digest=ctx.vocab_digest,
        expect_config_digest=ctx.config_digest))
    if ck.stage != STAGE_TAGS[label]:
        raise CheckpointError(
            f"{path}: a stage {ck.stage!r} checkpoint cannot resume {label}")
    return ck


def _from_path(args, command, variant=None):
    if getattr(args, "src", None):
        return args.src
    return os.path.join(args.out, DEFAULT_FROM[(command, variant)])


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args):
    started = time.time()
    cfg = _config(args)
    os.makedirs(args.out, exist_ok=True)
    if cfg.manifest:
        print(f"config already names a manifest: {cfg.manifest}")
    else:
        generate_benchmark(cfg, args.out)
        save_resolved_config(cfg, args.out)
        print(f"manifest: {cfg.manifest}")
        print(f"testsets: {cfg.testsets}")
    save_run_meta(args.out, started, command="synth-data")
    return 0


def cmd_train_vocab(args):
    started = time.time()
    ctx = _context(args)
    print(f"vocab: {os.path.join(args.out, 'vocab.txt')} "
          f"({ctx.vocab.size} pieces, digest {ctx.vocab_digest})")
    save_run_meta(args.out, started, command="train-vocab")
    return 0


def cmd_stage1(args):
    started = time.time()
    ctx = _context(args)
    if args.resume:
        ck = _resume_ckpt(ctx, args.resume, "stage1")
        final = run_stage1(ctx, ck.params, opt=ck.opt, start_step=ck.step)
    else:
        final = run_stage1(ctx)
    print(f"stage1 done at step {final.step}: "
          f"{os.path.join(args.out, 'stage1.ckpt')}")
    save_run_meta(args.out, started, command="stage1")
    return 0


def cmd_synth_bt(args):
    started = time.time()
    ctx = _context(args)
    ck = _load_ckpt(ctx, _from_path(args, "synth-bt", args.round))
    entries = generate_synthetic(ctx, ck.params, int(args.round))
    print(f"round {args.round}: {len(entries)} synthetic datasets under "
          f"{os.path.join(args.out, 'synthetic')}")
    save_run_meta(args.out, started, command="synth-bt")
    return 0


def cmd_stage2(args):
    started = time.time()
    ctx = _context(args)
    label = f"stage2{args.round}"
    if args.resume:
        ck = _resume_ckpt(ctx, args.resume, label)
        final = run_stage2(ctx, ck.params, label, opt=ck.opt, start_step=ck.step)
    else:
        ck = _load_ckpt(ctx, _from_path(args, "stage2", args.round))
        final = run_stage2(ctx, ck.params, label)
    print(f"{label} done at step {final.step}: "
          f"{os.path.join(args.out, label + '.ckpt')}")
    save_run_meta(args.out, started, command=label)
    return 0


def cmd_stage3(args):
    started = time.time()
    ctx = _context(args)
    if not os.path.exists(synthetic_rounds(ctx, "r2")[2]):
        ctx.say("[stage3] no round-2 entries file; running as the no-synthetic arm")
        ctx.arm = ArmOptions(use_synthetic=False)
    ck = _load_ckpt(ctx, _from_path(args, "stage3"))
    final = run_stage3(ctx, ck.params)
    print(f"stage3 done after {final.meta['sweeps_run']} sweeps: "
          f"{os.path.join(args.out, 'stage3.ckpt')}")
    save_run_meta(args.out, started, command="stage3")
    return 0


def cmd_evaluate(args):
    started = time.time()
    ctx = _context(args)
    if not ctx.cfg.testsets:
        raise ConfigError("config names no testsets file; nothing to evaluate on")
    src = _from_path(args, "evaluate")
    ck = _load_ckpt(ctx, src)
    sets = _load_eval_sets(ctx.cfg.testsets, args.split)
    _, rows = _mean_bleu(ctx, ck.params, sets)
    stem = os.path.splitext(os.path.basename(src))[0]
    write_report(rows,
                 os.path.join(args.out, f"report.{stem}.{args.split}.tsv"),
                 os.path.join(args.out, f"report.{stem}.{args.split}.json"))
    print(format_report(rows), end="")
    save_run_meta(args.out, started, command="evaluate")
    return 0


def _print_summary(summary, quiet):
    if quiet:
        return
    for label in ("stage1", "stage2a", "stage2b", "stage3"):
        scores = summary["stages"].get(label)
        if scores:
            line = " ".join(f"{d}={s:.2f}" for d, s in sorted(scores.items()))
            print(f"{label}: {line}")


def cmd_pipeline(args):
    summary = run_pipeline(_config(args), args.out, quiet=args.quiet)
    _print_summary(summary, args.quiet)
    return 0


def _single_aux_arm(cfg):
    """Keep exactly one auxiliary's parallel data (the alphabetically first
    pivot); every pivot list shrinks to it. Fails if some target never
    listed that auxiliary."""
    all_pivots = sorted({a for pl in cfg.pivots.values() for a in pl})
    keep = all_pivots[0]
    bad = [t for t, pl in cfg.pivots.items() if keep not in pl]
    if bad:
        raise ConfigError(
            f"single-aux arm keeps {keep!r}, but targets {bad} do not pivot "
            "through it")
    cfg.pivots = {t: [keep] for t in cfg.pivots}
    return ArmOptions(keep_aux=keep)


def cmd_ablate(args):
    cfg = _config(args)
    if args.arm == "no-synthetic":
        arm = ArmOptions(use_synthetic=False)
    elif args.arm == "bt-only":
        arm = ArmOptions(stage3_objectives=("bt",))
    else:
        arm = _single_aux_arm(cfg)
    summary = run_pipeline(cfg, args.out, quiet=args.quiet, arm=arm)
    _print_summary(summary, args.quiet)
    return 0


# ---------------------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON")
    common.add_argument("--out", required=True, help="artifact directory")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="dotted-key config override, repeatable")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output")

    p = argparse.ArgumentParser(prog="munmt",
                                description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-data", parents=[common],
                        help="generate the toy-language benchmark")
    sp.set_defaults(func=cmd_synth_data)

    sp = sub.add_parser("train-vocab", parents=[common],
                        help="train the joint BPE vocabulary")
    sp.set_defaults(func=cmd_train_vocab)

    sp = sub.add_parser("stage1", parents=[common],
                        help="masked-span + supervised pretraining")
    sp.add_argument("--resume", help="mid-stage checkpoint to continue from")
    sp.set_defaults(func=cmd_stage1)

    sp = sub.add_parser("synth-bt", parents=[common],
                        help="decode mono slices into synthetic parallel data")
    sp.add_argument("--round", choices=("1", "2"), required=True)
    sp.add_argument("--from", dest="src", help="checkpoint to decode with")
    sp.set_defaults(func=cmd_synth_bt)

    sp = sub.add_parser("stage2", parents=[common],
                        help="retrain with synthetic parallel data")
    sp.add_argument("--round", choices=("a", "b"), required=True)
    sp.add_argument("--from", dest="src", help="checkpoint to start from")
    sp.add_argument("--resume", help="mid-stage checkpoint to continue from")
    sp.set_defaults(func=cmd_stage2)

    sp = sub.add_parser("stage3", parents=[common],
                        help="back/cross-translation fine-tuning sweeps")
    sp.add_argument("--from", dest="src", help="checkpoint to start from")
    sp.set_defaults(func=cmd_stage3)

    sp = sub.add_parser("evaluate", parents=[common],
                        help="score a checkpoint on the held-out sets")
    sp.add_argument("--from", dest="src", help="checkpoint to score")
    sp.add_argument("--split", choices=("dev", "test"), default="test")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("pipeline", parents=[common],
                        help="run every stage end to end")
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("ablate", parents=[common],
                        help="run the pipeline with one component removed")
    sp.add_argument("--arm", choices=ARMS, required=True)
    sp.set_defaults(func=cmd_ablate)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args) or 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
