"""Command-line interface.

Commands compose through the artifact directory, not through hidden state:
each one rebuilds its context (benchmark, vocabulary, model geometry)
deterministically from the config, picks up checkpoints by their well-known
filenames, and verifies digests on every load. Without --from, a command
starts from the checkpoint of the stage before its own in config.STAGES
(synth-bt --round n: before the stage round n feeds; evaluate: the last);
ablate runs the pipeline as one of pipeline.ARMS. Exit codes: 0 success,
2 configuration, 3 data/checkpoint, 4 numeric failure, 5 I/O.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import asdict

from .config import STAGES, apply_overrides, from_dict, read_config_doc
from .checkpoint import load_checkpoint
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .evaluation import format_report, write_report
from .pipeline import (ARMS, _load_eval_sets, _mean_bleu, build_context, entries_path,
                       generate_benchmark, generate_synthetic, run_pipeline,
                       run_stage1, run_stage2, run_stage3, save_resolved_config,
                       save_run_meta)


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
    if ck.stage != STAGES[label]:
        raise CheckpointError(
            f"{path}: a stage {ck.stage!r} checkpoint cannot resume {label}")
    return ck


def _from_path(args, label=None):
    """--from, or the checkpoint of the stage before `label` (None: the last)."""
    labels = list(STAGES) + [None]
    return args.src or os.path.join(args.out, f"{labels[labels.index(label) - 1]}.ckpt")


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args, cfg):
    os.makedirs(args.out, exist_ok=True)
    if cfg.manifest:
        print(f"config already names a manifest: {cfg.manifest}")
    else:
        generate_benchmark(cfg, args.out)
        save_resolved_config(cfg, args.out)
        print(f"manifest: {cfg.manifest}")
        print(f"testsets: {cfg.testsets}")


def cmd_train_vocab(args, ctx):
    print(f"vocab: {os.path.join(args.out, 'vocab.txt')} "
          f"({ctx.vocab.size} pieces, digest {ctx.vocab_digest})")


def cmd_stage1(args, ctx):
    if args.resume:
        ck = _resume_ckpt(ctx, args.resume, "stage1")
        final = run_stage1(ctx, ck.params, opt=ck.opt, start_step=ck.step)
    else:
        final = run_stage1(ctx)
    print(f"stage1 done at step {final.step}: "
          f"{os.path.join(args.out, 'stage1.ckpt')}")


def cmd_synth_bt(args, ctx):
    n = int(args.round)
    ck = _load_ckpt(ctx, _from_path(args, list(STAGES)[n]))  # round 1 feeds stage2a
    entries = generate_synthetic(ctx, ck.params, n)
    print(f"round {args.round}: {len(entries)} synthetic datasets under "
          f"{os.path.join(args.out, 'synthetic')}")


def cmd_stage2(args, ctx):
    label = f"stage2{args.round}"
    if args.resume:
        ck = _resume_ckpt(ctx, args.resume, label)
        final = run_stage2(ctx, ck.params, label, opt=ck.opt, start_step=ck.step)
    else:
        ck = _load_ckpt(ctx, _from_path(args, label))
        final = run_stage2(ctx, ck.params, label)
    print(f"{label} done at step {final.step}: "
          f"{os.path.join(args.out, label + '.ckpt')}")


def cmd_stage3(args, ctx):
    if not os.path.exists(entries_path(ctx, 2)):
        ctx.say("[stage3] no round-2 entries file; running as the no-synthetic arm")
        ctx.arm = "no-synthetic"
    ck = _load_ckpt(ctx, _from_path(args, "stage3"))
    final = run_stage3(ctx, ck.params)
    print(f"stage3 done after {final.meta['sweeps_run']} sweeps: "
          f"{os.path.join(args.out, 'stage3.ckpt')}")


def cmd_evaluate(args, ctx):
    if not ctx.cfg.testsets:
        raise ConfigError("config names no testsets file; nothing to evaluate on")
    src = _from_path(args)
    ck = _load_ckpt(ctx, src)
    sets = _load_eval_sets(ctx.cfg.testsets, args.split)
    _, rows = _mean_bleu(ctx, ck.params, sets)
    stem = os.path.splitext(os.path.basename(src))[0]
    write_report(rows,
                 os.path.join(args.out, f"report.{stem}.{args.split}.tsv"),
                 os.path.join(args.out, f"report.{stem}.{args.split}.json"))
    print(format_report(rows), end="")


def cmd_pipeline(args, cfg):
    summary = run_pipeline(cfg, args.out, quiet=args.quiet, arm=args.arm)
    if not args.quiet:
        for label, scores in summary["stages"].items():
            line = " ".join(f"{d}={s:.2f}" for d, s in sorted(scores.items()))
            print(f"{label}: {line}")


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
    sp.set_defaults(func=cmd_pipeline, arm=None)

    sp = sub.add_parser("ablate", parents=[common],
                        help="run the pipeline with one component removed")
    sp.add_argument("--arm", choices=ARMS, required=True)
    sp.set_defaults(func=cmd_pipeline)
    return p


def main(argv=None) -> int:
    """Run one command on the config (synth-data, pipeline, ablate) or on the
    context build_context makes of it, record run_meta.json under its name
    unless run_pipeline wrote it, and map the errors it raises to exit codes."""
    args = _build_parser().parse_args(argv)
    started = time.time()
    try:
        doc = apply_overrides(read_config_doc(args.config) if args.config else {},
                              args.override)
        if args.seed is not None:
            doc["seed"] = args.seed  # --seed wins over every --override
        cfg = from_dict(doc)
        if args.func in (cmd_synth_data, cmd_pipeline):
            args.func(args, cfg)
        else:
            ctx = build_context(cfg, args.out, quiet=args.quiet)
            save_resolved_config(ctx.cfg, ctx.out_dir)
            args.func(args, ctx)
        if args.func is not cmd_pipeline:
            command = f"stage2{args.round}" if args.command == "stage2" else args.command
            save_run_meta(args.out, started, command=command)
        return 0
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
