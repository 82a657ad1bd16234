"""The munmt benchmark: workloads, timing, correctness checks and metrics.

Each workload generates the toy benchmark data of ``configs/toy.json`` from
the workload seed, sets up a few times (``setup_s`` is the median), runs one
warm-up repetition that is discarded, then repeats its timed phase until
``seconds`` have been measured (``wall_s`` is the median). Every repetition,
warm-up included, is checked for correct output. A traced run alternates
untraced and traced repetitions, so it yields both the per-layer metrics and
the overhead of tracing.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses any other copy of munmt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import munmt  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(munmt.__file__))) != SRC:
    raise ImportError(f"munmt was imported from {munmt.__file__}, not {SRC}")

from munmt import evaluation, pipeline, synthlang  # noqa: E402
from munmt.config import apply_overrides, from_dict  # noqa: E402
from munmt.corpus import read_lines  # noqa: E402
from munmt.model import init_params  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

CONFIG = os.path.join(ROOT, "configs", "toy.json")
WORK = os.path.join(ROOT, ".bench_work")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # what ops_per_s counts
    overrides: tuple  # dotted-key config overrides on top of configs/toy.json
    setup: object  # (cfg, directory) -> state
    run: object  # state -> output; the timed phase
    check: object  # (state, output) -> RepResult


@dataclasses.dataclass
class RepResult:
    ops: int  # work units done: source lines or optimizer updates
    checked: int  # operations the correctness check covered
    failed: int
    digest: str  # must be equal on every repetition
    detail: dict
    wall_s: float = 0.0


# -- translate --------------------------------------------------------------


def setup_translate(cfg, d):
    ctx = pipeline.build_context(cfg, d, quiet=True)
    doc = synthlang.load_testsets(ctx.cfg.testsets)
    root = os.path.dirname(os.path.abspath(ctx.cfg.testsets))
    sets = []
    for direction in doc["eval_directions"]:
        s, t = direction.split("-")
        sets.append((read_lines(os.path.join(root, doc["test"][s])),
                     read_lines(os.path.join(root, doc["test"][t])), t))
    return {"ctx": ctx, "sets": sets,
            "params": init_params(ctx.model_cfg, cfg.seed)}


def run_translate(state):
    """What evaluate_model does, keeping the hypotheses for the check."""
    ctx, ev = state["ctx"], state["ctx"].cfg.eval
    out = []
    for src, ref, tgt in state["sets"]:
        hyps = evaluation.translate_corpus(state["params"], ctx.model_cfg, ctx.vocab,
                                           src, tgt, max_len=ev.max_len,
                                           batch_size=ev.batch_size)
        out.append((hyps, evaluation.bleu(hyps, ref, ev.mode).score))
    return out


def check_translate(state, out):
    """Exactly one hypothesis per source line."""
    lines = sum(len(src) for src, _, _ in state["sets"])
    failed = sum(len(src) for (src, _, _), (hyps, _) in zip(state["sets"], out)
                 if len(hyps) != len(src))
    blob = "\n\n".join("\n".join(hyps) for hyps, _ in out).encode("utf-8")
    return RepResult(lines, lines, failed, _sha(blob),
                     {"bleu": statistics.fmean(score for _, score in out)})


# -- pipeline ---------------------------------------------------------------

STAGES = ("stage1", "stage2a", "stage2b", "stage3")


def setup_pipeline(cfg, d):
    bench = dict(cfg.benchmark, seed=cfg.seed)
    paths = synthlang.build_benchmark(
        synthlang.BenchmarkConfig(out_dir=os.path.join(d, "benchmark"), **bench))
    cfg = dataclasses.replace(cfg, manifest=paths["manifest"],
                              testsets=paths["testsets"])
    return {"cfg": cfg, "out": os.path.join(d, "run")}


def run_pipeline(state):
    shutil.rmtree(state["out"], ignore_errors=True)
    pipeline.run_pipeline(state["cfg"], state["out"], quiet=True)


def check_pipeline(state, _):
    """summary.json names all four stages; its bytes are the digest."""
    out = state["out"]
    with open(os.path.join(out, "summary.json"), "rb") as fh:
        blob = fh.read()
    stages = json.loads(blob).get("stages", {})
    updates = 0
    for label in STAGES:
        with open(os.path.join(out, f"audit.{label}.tsv"), encoding="utf-8") as fh:
            updates += sum(1 for row in fh if not row.rstrip("\n").endswith("\tskip"))
    final = stages.get("stage3", {})
    return RepResult(updates, len(STAGES), sum(1 for s in STAGES if s not in stages),
                     _sha(blob),
                     {"bleu": statistics.fmean(final.values()) if final else 0.0})


# translate isolates decoding and reaches no training layer, so a change to
# the training step must leave it unchanged; pipeline reaches every layer the
# per-layer metrics name, so a decoding change that helps translate must not
# cost it.
WORKLOADS = {w.name: w for w in (
    # Untrained weights decode every row to the length cap (48): the
    # quadratic-prefix worst case, with no backward, optimizer or sampler, so
    # a training-step change must not move it and row pruning has nothing to
    # prune.
    Workload(
        "translate",
        "no-grad greedy decoding of untrained weights to the length cap, plus BLEU",
        "sentences",
        ("benchmark.mono_lines=10000", "benchmark.parallel_lines=2500",
         "benchmark.test_lines=128"),
        setup_translate, run_translate, check_translate),
    # run_pipeline on pre-generated corpora: BPE, 4 registry builds, stage 1,
    # both synthetic rounds, stage 2a/2b, stage 3 with one dev evaluation, and
    # the test reports. Its sampled stage-1/2 loop is the training step at
    # batch 8 (76% of a full pipeline); stage 3 runs ~125-row batches, and a
    # weakly trained model decodes short outputs with early EOS, so a change
    # that helps translate at this path's expense shows here. The short lr
    # warmup moves every seed past the phase where round-2 decodes come back
    # all empty, which build_registry rejects.
    Workload(
        "pipeline",
        "the munmt pipeline command at reduced budgets: every stage, large stage-3 batches",
        "updates",
        ("benchmark.mono_lines=2000", "benchmark.parallel_lines=500",
         "benchmark.dev_lines=50", "benchmark.test_lines=50",
         "stage1.steps=120", "stage2a.steps=80", "stage2b.steps=30",
         "stage1.lr.warmup=40", "stage2a.lr.warmup=40", "stage2b.lr.warmup=40",
         "stage3.sweeps=2", "stage3.eval_every=2", "stage3.max_tokens=1000",
         "stage3.max_len=16", "eval.max_len=16",
         "synthetic.round1_mono_fraction=0.05",
         "synthetic.english_lines_per_target=150"),
        setup_pipeline, run_pipeline, check_pipeline),
)}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}
MIN_SETUPS = 3
MIN_REPS = 3


def run_rep(workload, state, tracer=None) -> RepResult:
    t0 = time.perf_counter()
    if tracer:
        with tracer.active("rep"):
            out = tracer.call("bench.rep", workload.run, state)
    else:
        out = workload.run(state)
    wall = time.perf_counter() - t0
    res = workload.check(state, out)
    res.wall_s = wall
    return res


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def load_config(workload, seed, extra_overrides=()):
    with open(CONFIG, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc = apply_overrides(doc, list(workload.overrides) + list(extra_overrides))
    doc["seed"] = seed
    return from_dict(doc)


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass  # not Linux: keep the machine type
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "threads": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")}}


def run_workload(name, seed, seconds, trace, extra_overrides=()) -> dict:
    """Run one workload and return its result document: the printed
    `correct`/`attempted`/`failed`/`metrics` under "result", plus detail.

    Sets up at least MIN_SETUPS times and for at least an eighth of
    `seconds`; measures at least MIN_REPS repetitions and at least `seconds`.
    `extra_overrides` shrink the budgets further for the smoke test."""
    workload = WORKLOADS[name]
    cfg = load_config(workload, seed, extra_overrides)
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK)
    tracer = Tracer() if trace else None
    try:
        setup_times, state = [], None
        while len(setup_times) < MIN_SETUPS or sum(setup_times) < seconds / 8:
            if state is not None:  # keep only the last set-up's files
                shutil.rmtree(d)
            d = os.path.join(work, f"setup{len(setup_times)}")
            t0 = time.perf_counter()
            if tracer:
                with tracer.active("setup"):
                    state = tracer.call("bench.setup", workload.setup, cfg, d)
            else:
                state = workload.setup(cfg, d)
            setup_times.append(time.perf_counter() - t0)

        results = [run_rep(workload, state)]  # warm-up, checked but not timed
        timed, traced = [], []
        measured = 0.0
        while measured < seconds or len(timed) < MIN_REPS:
            res = run_rep(workload, state)
            timed.append(res)
            measured += res.wall_s
            if tracer:
                traced.append(run_rep(workload, state, tracer))
        results += timed + traced

        attempted = sum(r.checked for r in results)
        failed = sum(r.failed for r in results)
        # a repetition whose output differs from the warm-up's fails throughout
        failed += sum(r.checked - r.failed for r in results
                      if r.digest != results[0].digest)
        walls = [r.wall_s for r in timed]
        ops = timed[0].ops
        e2e = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(ops / w for w in walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail = dict(timed[0].detail)
        detail.update({f"{workload.unit}_per_rep": ops,
                       f"{workload.unit}_per_s": e2e["ops_per_s"],
                       "failed_share": failed / attempted, "reps": len(timed),
                       "wall_s_all": walls, "setup_s_all": setup_times})
        doc = {"workload": name, "seed": seed, "trace": trace,
               "env": environment(), "detail": detail,
               "e2e": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}}
        if tracer:
            traced_walls = [r.wall_s for r in traced]
            overhead = statistics.median(traced_walls) / e2e["wall_s"] - 1.0
            units = {"setup": len(setup_times), "rep": len(traced)}
            layers = layer_metrics(tracer, units, overhead)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            doc.update(layers=tracer.layer_table(units),
                       traced_wall_s_all=traced_walls)
        else:
            metrics = doc["e2e"]
        doc["result"] = {"correct": failed == 0, "attempted": attempted,
                         "failed": failed, "metrics": metrics}
        stem = os.path.join(WORK, f"{name}.s{seed}.t{trace}")
        if tracer:
            tracer.write(stem + ".spans.jsonl")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        return doc
    finally:
        shutil.rmtree(work, ignore_errors=True)
