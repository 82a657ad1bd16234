"""BLEU scoring against hand arithmetic and the brute-force oracle."""

import json

import numpy as np
import pytest

from bleu_oracle import ORACLE_CASES, oracle_bleu
from munmt import evaluation as ev
from munmt.errors import ConfigError, DataError
from munmt.evaluation import (
    bleu,
    evaluate_model,
    format_report,
    report_as_json,
    tokenize_13a,
    translate_corpus,
    write_report,
)
from munmt.model import ModelConfig, init_params
from munmt.tokenizer import EOS, train_bpe


# --- tokenizer rules ---


def test_13a_splits_basic_punctuation():
    assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]


def test_13a_trivial_inputs():
    assert tokenize_13a("") == []
    assert tokenize_13a("abc") == ["abc"]
    assert tokenize_13a("   spaced    out   ") == ["spaced", "out"]


def test_13a_digit_adjacency_keeps_decimal_points():
    assert tokenize_13a("It costs 3.50 now.") == ["It", "costs", "3.50", "now", "."]
    assert tokenize_13a("1,000 items") == ["1,000", "items"]
    assert tokenize_13a("pages 5-6") == ["pages", "5", "-", "6"]
    assert tokenize_13a("well-known") == ["well-known"]


def test_13a_entities_and_symbols():
    assert tokenize_13a("&quot;hi&quot;") == ['"', "hi", '"']
    assert tokenize_13a("a&amp;b") == ["a", "&", "b"]
    assert tokenize_13a("(x)") == ["(", "x", ")"]
    assert tokenize_13a("case-sensitive Case") == ["case-sensitive", "Case"]


# --- bleu arithmetic ---


def test_identical_corpora_score_exactly_100():
    got = bleu(["a b c d e"], ["a b c d e"], mode="pretokenized")
    assert got.score == 100.0
    assert got.precisions == (1.0, 1.0, 1.0, 1.0)
    assert got.bp == 1.0


def test_hand_computed_cat_example():
    # p = (5/5, 3/4, 2/3, 1/2), bp = exp(1 - 6/5)
    got = bleu(["the cat sat on mat"], ["the cat sat on the mat"], mode="pretokenized")
    assert got.precisions == (1.0, 0.75, 2 / 3, 0.5)
    assert got.bp == pytest.approx(np.exp(-0.2), rel=1e-12)
    assert got.score == pytest.approx(57.893, abs=0.01)
    assert got.hyp_len == 5 and got.ref_len == 6


def test_zero_overlap_scores_below_one():
    hyps = ["h1 h2 h3 h4 h5 h6 h7 h8"] * 4
    refs = ["r1 r2 r3 r4 r5 r6 r7 r8"] * 4
    got = bleu(hyps, refs, mode="pretokenized")
    assert 0.0 < got.score < 1.0  # smoothing keeps it positive but tiny


def test_clipping_limits_repeated_tokens():
    # hyp "the"*5 vs ref with one "the": clipped 1-gram precision 1/5
    got = bleu(["the the the the the"], ["the cat sat"], mode="pretokenized")
    assert got.precisions[0] == pytest.approx(0.2)


@pytest.mark.parametrize("case_idx", range(len(ORACLE_CASES)))
def test_matches_brute_force_oracle(case_idx):
    hyps, refs, mode = ORACLE_CASES[case_idx]
    want = oracle_bleu(hyps, refs, mode, tokenize_13a)
    got = bleu(hyps, refs, mode=mode).score
    assert got == pytest.approx(want, abs=0.01)


def test_permutation_invariance():
    hyps = ["a b c d", "e f g h", "i j k l m"]
    refs = ["a b x d", "e f g h", "i j k m l"]
    base = bleu(hyps, refs, mode="pretokenized").score
    order = [2, 0, 1]
    got = bleu([hyps[i] for i in order], [refs[i] for i in order], mode="pretokenized").score
    assert got == pytest.approx(base, rel=1e-12)


def test_brevity_penalty_monotone_under_truncation():
    refs = ["a b c d e f g h"] * 3
    prev_bp = 1.0
    for keep in (8, 6, 4, 2):
        hyps = [" ".join("a b c d e f g h".split()[:keep])] * 3
        got = bleu(hyps, refs, mode="pretokenized")
        assert got.bp <= prev_bp + 1e-15
        prev_bp = got.bp


def test_input_validation():
    with pytest.raises(DataError):
        bleu(["a"], ["a", "b"], mode="13a")
    with pytest.raises(DataError):
        bleu([], [], mode="13a")
    with pytest.raises(ConfigError):
        bleu(["a"], ["a"], mode="nope")


def test_score_bounds_on_oracle_cases():
    for hyps, refs, mode in ORACLE_CASES:
        s = bleu(hyps, refs, mode=mode)
        assert 0.0 <= s.score <= 100.0
        assert all(0.0 <= p <= 1.0 for p in s.precisions)


# --- reports and model evaluation ---

CORPUS = ["aba abba bab", "abba bab bab aba", "bab aba abba", "aba aba bab abba"]
EVAL = {"mode": "pretokenized", "max_len": 64, "batch_size": 64}


@pytest.fixture(scope="module")
def tiny_setup():
    vocab = train_bpe(CORPUS, vocab_size=30)
    cfg = ModelConfig(languages=["en", "xa"], vocab_size=vocab.size, layers=1,
                      hidden=8, ffn=16, heads=2, max_positions=32)
    params = init_params(cfg, seed=0)
    return vocab, cfg, params


def _echo_decoder(params, cfg, block, lang, max_len):
    out = []
    for row in block:
        body = [int(t) for t in row if t != 0]
        out.append(body + [EOS])
    return out


def test_identity_rigged_model_scores_100(tiny_setup, monkeypatch):
    vocab, cfg, params = tiny_setup
    monkeypatch.setattr(ev, "greedy_decode_batch", _echo_decoder)
    rows = evaluate_model(params, cfg, vocab, [(CORPUS, CORPUS, "en-xa"),
                                               (CORPUS, CORPUS, "xa-en")], **EVAL)
    assert [r.direction for r in rows] == ["en-xa", "xa-en"]
    assert all(r.bleu.score == 100.0 for r in rows)


def test_blank_source_lines_translate_to_empty_lines(tiny_setup, monkeypatch):
    vocab, cfg, params = tiny_setup
    monkeypatch.setattr(ev, "greedy_decode_batch", _echo_decoder)
    # batches of two: all blank, one line then a blank, one line
    lines = ["", " \t ", CORPUS[0], "", CORPUS[1]]
    assert translate_corpus(params, cfg, vocab, lines, "xa", max_len=64,
                            batch_size=2) == [
        "", "", CORPUS[0], "", CORPUS[1]]


def test_empty_testset_list_gives_empty_report(tiny_setup):
    vocab, cfg, params = tiny_setup
    rows = evaluate_model(params, cfg, vocab, [], **EVAL)
    assert rows == []
    assert format_report(rows) == "direction\tscore\tp1\tp2\tp3\tp4\tbp\n"
    assert json.loads(report_as_json(rows)) == []


def test_unknown_direction_rejected(tiny_setup):
    vocab, cfg, params = tiny_setup
    with pytest.raises(ConfigError):
        evaluate_model(params, cfg, vocab, [(CORPUS, CORPUS, "en-zz")], **EVAL)
    with pytest.raises(ConfigError):
        evaluate_model(params, cfg, vocab, [(CORPUS, CORPUS, "en")], **EVAL)


def test_untrained_model_decodes_and_scores(tiny_setup):
    vocab, cfg, params = tiny_setup
    rows = evaluate_model(params, cfg, vocab, [(CORPUS, CORPUS, "en-xa")],
                          **dict(EVAL, max_len=12))
    assert len(rows) == 1
    assert 0.0 <= rows[0].bleu.score <= 100.0


def test_report_roundtrip_files(tiny_setup, tmp_path, monkeypatch):
    vocab, cfg, params = tiny_setup
    monkeypatch.setattr(ev, "greedy_decode_batch", _echo_decoder)
    rows = evaluate_model(params, cfg, vocab, [(CORPUS, CORPUS, "xa-en")], **EVAL)
    write_report(rows, tmp_path / "r.tsv", tmp_path / "r.json")
    text = (tmp_path / "r.tsv").read_text()
    assert text.startswith("direction\tscore")
    assert "xa-en\t100.00" in text
    blob = json.loads((tmp_path / "r.json").read_text())
    assert blob[0]["direction"] == "xa-en"
    assert blob[0]["score"] == 100.0
    assert blob[0]["hyp_len"] == blob[0]["ref_len"]
