"""Outside-in layer tracing for the benchmark.

While a ``Tracer`` is active it replaces the public functions of each munmt
layer, at the module attributes their callers look them up through, with
wrappers that record one span per call: name, start, end, parent span, the
optimizer update in progress, and a few counts read from the arguments or
the result. Leaving the ``active`` block puts every original function back,
so untraced repetitions run the program untouched. Spans stay in memory
until the run ends and are then written out with their self time (span time
minus the time covered by child spans).
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

import numpy as np

from munmt import evaluation, objectives, pipeline, synthlang, tensor

# span fields, kept as plain lists while tracing to keep the wrappers cheap
ID, NAME, PARENT, UPDATE, PHASE, START, END, EXTRA = range(8)

STAGE_SPANS = ("pipeline.stage1", "pipeline.synthetic_r1", "pipeline.stage2a",
               "pipeline.synthetic_r2", "pipeline.stage2b", "pipeline.stage3")


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def graph_nodes(loss) -> int:
    """Autodiff nodes reachable from `loss` through grad-requiring parents,
    the set the reverse pass walks."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []
        self.update = 0  # optimizer updates finished while traced
        self._open = []
        self._phase = ""
        self._wraps = self._wrap_table()

    def _wrap_table(self):
        """(module, attribute, span name or name function, before, after)."""

        def nodes(args, kwargs):
            return {"nodes": graph_nodes(_arg(args, kwargs, 0, "loss"))}

        def rows_used(args, kwargs, result, extra):
            return {"used": result.used, "skipped": result.skipped}

        def decoded(args, kwargs, result, extra):
            return {"rows": len(result),
                    "steps": max((len(r) for r in result), default=0),
                    "tokens": sum(len(r) for r in result)}

        def next_update(args, kwargs, result, extra):
            self.update += 1
            return extra

        def synthetic(args, kwargs):
            return f"pipeline.synthetic_r{_arg(args, kwargs, 2, 'round_idx')}"

        def stage2(args, kwargs):
            return f"pipeline.{_arg(args, kwargs, 2, 'label')}"

        return [
            (synthlang, "build_benchmark", "synthlang.build_benchmark", None, None),
            (pipeline, "build_benchmark", "synthlang.build_benchmark", None, None),
            (pipeline, "train_bpe", "tokenizer.train_bpe", None, None),
            (pipeline, "build_registry", "corpus.build_registry", None, None),
            (pipeline, "choose_dataset", "corpus.sample", None, None),
            (pipeline, "draw_batch", "corpus.sample", None, None),
            (pipeline, "mass_loss", "objectives.loss_fwd", None, None),
            (pipeline, "cross_entropy_loss", "objectives.loss_fwd", None, None),
            (pipeline, "back_translation_loss", "objectives.bt_ct", None, rows_used),
            (pipeline, "cross_translation_loss", "objectives.bt_ct", None, rows_used),
            (tensor, "backward", "tensor.backward", nodes, None),
            (pipeline, "optimizer_step", "optim.step", None, next_update),
            (objectives, "greedy_decode_batch", "model.decode", None, decoded),
            (evaluation, "greedy_decode_batch", "model.decode", None, decoded),
            (pipeline, "translate_corpus", "evaluation.translate_corpus", None, None),
            (evaluation, "translate_corpus", "evaluation.translate_corpus", None, None),
            (evaluation, "bleu", "evaluation.bleu", None, None),
            (pipeline, "evaluate_model", "evaluation.evaluate_model", None, None),
            (pipeline, "save_checkpoint", "checkpoint.save", None, None),
            (pipeline, "run_stage1", "pipeline.stage1", None, None),
            (pipeline, "generate_synthetic", synthetic, None, None),
            (pipeline, "run_stage2", stage2, None, None),
            (pipeline, "run_stage3", "pipeline.stage3", None, None),
        ]

    def _wrap(self, fn, name, before, after):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = before(args, kwargs) if before else None
            label = name(args, kwargs) if callable(name) else name
            rec = [len(spans), label, stack[-1] if stack else -1, self.update,
                   self._phase, 0.0, 0.0, extra]
            spans.append(rec)
            stack.append(rec[ID])
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if after:
                rec[EXTRA] = after(args, kwargs, result, extra)
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, phase: str):
        """Install every wrapper for the duration of the block."""
        saved = []
        self._phase = phase
        try:
            for module, attr, name, before, after in self._wraps:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, before, after))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def call(self, name: str, fn, *args):
        """Run fn(*args) under a span of its own."""
        return self._wrap(fn, name, None, None)(*args)

    # -- after the run ------------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({
                    "id": s[ID], "name": s[NAME], "parent": s[PARENT],
                    "update": s[UPDATE], "phase": s[PHASE], "start": s[START],
                    "end": s[END], "self_s": self_s, "extra": s[EXTRA]}) + "\n")

    def layer_table(self, units: dict) -> dict:
        """Per phase and span name: the number of spans (the sample count
        behind each percentile), and total and self seconds per traced unit
        (`units` maps phase -> number of traced set-ups or repetitions)."""
        table = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = table.setdefault(f"{s[PHASE]}:{s[NAME]}",
                                   {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            row["spans"] += 1
            row["total_s"] += (s[END] - s[START]) / units[s[PHASE]]
            row["self_s"] += self_s / units[s[PHASE]]
        return dict(sorted(table.items()))


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, units: dict, overhead_share: float) -> dict:
    """The per-layer metric set, as {name: (value, unit)}.

    Totals and call counts are per traced unit: spans of the set-up phase are
    divided by the number of traced set-ups, spans of the timed phase by the
    number of traced repetitions. Percentiles pool every traced call. A layer
    the workload never reaches reports 0.
    """
    spans = tracer.spans
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def dur_ms(name):
        return [(s[END] - s[START]) * 1e3 for s in by_name.get(name, [])]

    def per_unit(name, fn):
        totals = {}
        for s in by_name.get(name, []):
            totals[s[PHASE]] = totals.get(s[PHASE], 0.0) + fn(s)
        return sum((v / units[phase] for phase, v in totals.items()), 0.0)

    def total_s(name):
        return per_unit(name, lambda s: s[END] - s[START])

    def per_update_ms(name):
        sums = {}
        for s in by_name.get(name, []):
            sums[s[UPDATE]] = sums.get(s[UPDATE], 0.0) + (s[END] - s[START]) * 1e3
        return list(sums.values())

    def extras(name, key):
        return [s[EXTRA][key] for s in by_name.get(name, [])]

    # test reports: evaluations that no pipeline stage span encloses
    stage_ids = {s[ID] for s in spans if s[NAME] in STAGE_SPANS}

    def in_stage(s):
        while s[PARENT] >= 0:
            if s[PARENT] in stage_ids:
                return True
            s = spans[s[PARENT]]
        return False

    eval_s = sum(((s[END] - s[START]) / units[s[PHASE]]
                  for s in by_name.get("evaluation.evaluate_model", [])
                  if not in_stage(s)), 0.0)

    sample = per_update_ms("corpus.sample")
    loss = per_update_ms("objectives.loss_fwd")
    nodes = extras("tensor.backward", "nodes")
    used, skipped = sum(extras("objectives.bt_ct", "used")), sum(
        extras("objectives.bt_ct", "skipped"))
    tokens = sum(extras("model.decode", "tokens"))
    slots = sum(r * n for r, n in zip(extras("model.decode", "rows"),
                                      extras("model.decode", "steps")))
    decode_ms = dur_ms("model.decode")
    m = {
        "synthlang.build_benchmark_s": (total_s("synthlang.build_benchmark"), "s"),
        "tokenizer.train_bpe_s": (total_s("tokenizer.train_bpe"), "s"),
        "corpus.build_registry_s": (total_s("corpus.build_registry"), "s"),
        "corpus.build_registry_calls": (per_unit("corpus.build_registry", lambda s: 1), "count"),
        "corpus.sample_ms.p50": (_p(sample, 50), "ms"),
        "objectives.loss_fwd_ms.p50": (_p(loss, 50), "ms"),
        "objectives.loss_fwd_ms.p99": (_p(loss, 99), "ms"),
        "tensor.graph_nodes": (statistics.fmean(nodes) if nodes else 0.0, "count"),
        "tensor.backward_ms.p50": (_p(dur_ms("tensor.backward"), 50), "ms"),
        "tensor.backward_ms.p99": (_p(dur_ms("tensor.backward"), 99), "ms"),
        "optim.step_ms.p50": (_p(dur_ms("optim.step"), 50), "ms"),
        "optim.step_ms.p99": (_p(dur_ms("optim.step"), 99), "ms"),
        "objectives.bt_ct_ms.p50": (_p(dur_ms("objectives.bt_ct"), 50), "ms"),
        "objectives.decode_rows_used_share": (_ratio(used, used + skipped), "ratio"),
        "model.decode_ms.p50": (_p(decode_ms, 50), "ms"),
        "model.decode_tokens": (per_unit("model.decode", lambda s: s[EXTRA]["tokens"]), "count"),
        "model.decode_ms_per_token": (_ratio(sum(decode_ms), tokens), "ms/token"),
        "model.decode_useful_share": (_ratio(tokens, slots), "ratio"),
        "evaluation.bleu_ms": (_p(dur_ms("evaluation.bleu"), 50), "ms"),
        "evaluation.translate_corpus_s": (total_s("evaluation.translate_corpus"), "s"),
        "checkpoint.save_ms": (_p(dur_ms("checkpoint.save"), 50), "ms"),
        "checkpoint.save_calls": (per_unit("checkpoint.save", lambda s: 1), "count"),
    }
    for name in STAGE_SPANS:
        m[name + "_s"] = (total_s(name), "s")
    m["pipeline.eval_s"] = (eval_s, "s")
    m["trace.overhead_share"] = (overhead_share, "ratio")
    return m
