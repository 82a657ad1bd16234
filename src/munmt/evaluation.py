"""Corpus BLEU and per-direction evaluation reports.

Scoring follows the standard corpus BLEU-4 recipe: case-sensitive,
single reference, clipped n-gram precision sums over the whole corpus.
Zero precisions are smoothed exponentially: the k-th order with a zero
match count scores 1 / (2^k * total_ngrams) instead of zero. Orders for
which the hypotheses contain no n-grams at all (everything shorter than
n tokens) are dropped from the geometric mean rather than zeroing the
score, so identical corpora always score exactly 100.

Two tokenization modes:
  "13a"          reimplementation of the mteval-v13a rules (whitespace
                 normalization, punctuation split off words, period and
                 comma kept attached between digits). Language-agnostic.
  "pretokenized" whitespace split, for corpora that are already token
                 sequences (the toy languages are).
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass

from .corpus import pad_block
from .errors import ConfigError, DataError
from .files import write_bytes
from .model import ModelConfig, greedy_decode_batch, strip_body
from .tokenizer import Vocab, decode as piece_decode, encode_line

MAX_ORDER = 4

_R13A = [
    (re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])"), r" \1 "),
    (re.compile(r"([^0-9])([\.,])"), r"\1 \2 "),
    (re.compile(r"([\.,])([^0-9])"), r" \1 \2"),
    (re.compile(r"([0-9])(-)"), r"\1 \2 "),
]


def tokenize_13a(text: str) -> list:
    line = text.replace("<skipped>", "").replace("-\n", "").replace("\n", " ")
    if "&" in line:
        line = (line.replace("&quot;", '"').replace("&amp;", "&")
                .replace("&lt;", "<").replace("&gt;", ">"))
    line = f" {line} "
    for pat, repl in _R13A:
        line = pat.sub(repl, line)
    return line.split()


@dataclass
class BleuScore:
    score: float  # in [0, 100]
    precisions: tuple  # p1..p4 as fractions in [0, 1]
    bp: float
    hyp_len: int
    ref_len: int

    def as_dict(self) -> dict:
        return {"score": self.score, "p1": self.precisions[0],
                "p2": self.precisions[1], "p3": self.precisions[2],
                "p4": self.precisions[3], "bp": self.bp,
                "hyp_len": self.hyp_len, "ref_len": self.ref_len}


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _tokenize_all(lines, mode: str):
    if mode == "13a":
        return [tokenize_13a(s) for s in lines]
    if mode == "pretokenized":
        return [s.split() for s in lines]
    raise ConfigError(f"unknown tokenization mode {mode!r}")


def bleu(hyps, refs, mode: str) -> BleuScore:
    if len(hyps) != len(refs):
        raise DataError(f"hypothesis/reference count mismatch: {len(hyps)} vs {len(refs)}")
    if not hyps:
        raise DataError("cannot score an empty corpus")
    htoks = _tokenize_all(hyps, mode)
    rtoks = _tokenize_all(refs, mode)

    hyp_len = sum(len(t) for t in htoks)
    ref_len = sum(len(t) for t in rtoks)
    correct = [0] * MAX_ORDER
    total = [0] * MAX_ORDER
    for h, r in zip(htoks, rtoks):
        for n in range(1, MAX_ORDER + 1):
            hc = _ngrams(h, n)
            if not hc:
                continue
            rc = _ngrams(r, n)
            total[n - 1] += sum(hc.values())
            correct[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())

    precisions = [0.0] * MAX_ORDER
    smooth = 1.0
    log_sum, orders = 0.0, 0
    for n in range(MAX_ORDER):
        if total[n] == 0:
            continue
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 1.0 / (smooth * total[n])
        else:
            precisions[n] = correct[n] / total[n]
        log_sum += math.log(precisions[n])
        orders += 1

    if hyp_len == 0 or orders == 0:
        return BleuScore(0.0, (0.0,) * MAX_ORDER, 0.0, hyp_len, ref_len)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    score = bp * math.exp(log_sum / orders) * 100.0
    return BleuScore(score, tuple(precisions), bp, hyp_len, ref_len)


# ---------------------------------------------------------------------------
# model evaluation


@dataclass
class DirectionResult:
    direction: str  # "src-tgt"
    bleu: BleuScore


def parse_direction(direction: str, cfg: ModelConfig):
    parts = direction.split("-")
    if len(parts) != 2:
        raise ConfigError(f"direction must look like 'src-tgt', got {direction!r}")
    src, tgt = parts
    cfg.lang_index(src)
    cfg.lang_index(tgt)
    return src, tgt


def translate_corpus(params, cfg: ModelConfig, vocab: Vocab, lines, tgt_lang: str,
                     max_len: int, batch_size: int = 64) -> list:
    """Greedy-decode every line into tgt_lang; returns detokenized strings.
    Sources longer than the position table are truncated, never dropped, and
    blank sources translate to "" without decoding: every input line gets
    exactly one output line."""
    keep = cfg.max_positions - 2
    out = []
    for lo in range(0, len(lines), batch_size):
        chunk = [encode_line(vocab, s)[:keep] for s in lines[lo:lo + batch_size]]
        rows = [c for c in chunk if c.size]
        decoded = iter(greedy_decode_batch(params, cfg, pad_block(rows), tgt_lang,
                                           max_len=max_len) if rows else [])
        for c in chunk:
            out.append(piece_decode(vocab, strip_body(next(decoded))) if c.size else "")
    return out


def evaluate_model(params, cfg: ModelConfig, vocab: Vocab, testsets, mode: str,
                   max_len: int, batch_size: int) -> list:
    """testsets: iterable of (src_lines, ref_lines, direction)."""
    rows = []
    for src_lines, ref_lines, direction in testsets:
        _, tgt = parse_direction(direction, cfg)
        if len(src_lines) != len(ref_lines):
            raise DataError(f"{direction}: source/reference count mismatch")
        hyps = translate_corpus(params, cfg, vocab, src_lines, tgt,
                                max_len=max_len, batch_size=batch_size)
        rows.append(DirectionResult(direction, bleu(hyps, ref_lines, mode)))
    return rows


def format_report(rows) -> str:
    out = ["direction\tscore\tp1\tp2\tp3\tp4\tbp"]
    for r in rows:
        b = r.bleu
        out.append("%s\t%.2f\t%.4f\t%.4f\t%.4f\t%.4f\t%.4f"
                   % (r.direction, b.score, *b.precisions, b.bp))
    return "\n".join(out) + "\n"


def report_as_json(rows) -> str:
    return json.dumps([{"direction": r.direction, **r.bleu.as_dict()} for r in rows],
                      indent=2, sort_keys=True) + "\n"


def write_report(rows, txt_path, json_path) -> None:
    write_bytes(txt_path, format_report(rows).encode("utf-8"))
    write_bytes(json_path, report_as_json(rows).encode("utf-8"))
