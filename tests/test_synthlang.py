"""Toy language generator: oracle exactness, Zipf shape, benchmark layout."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from munmt.corpus import build_registry, load_manifest
from munmt.errors import ConfigError, DataError
from munmt.synthlang import (
    BenchmarkConfig,
    CorpusSpec,
    TargetSpec,
    build_benchmark,
    derive_sentence,
    gen_base_corpus,
    gen_rank_lines,
    load_language_specs,
    load_testsets,
    make_base_spec,
    make_derived_spec,
    oracle_translate,
    to_base,
    window_reverse,
    zipf_probs,
)
from munmt.tokenizer import train_bpe


# --- window reversal ---


def test_window_reverse_hand_cases():
    assert window_reverse("a b c d".split(), 2) == ["b", "a", "d", "c"]
    assert window_reverse("a b c d e".split(), 2) == ["b", "a", "d", "c", "e"]
    assert window_reverse("a b c d e".split(), 3) == ["c", "b", "a", "e", "d"]
    assert window_reverse(["x"], 4) == ["x"]
    assert window_reverse([], 2) == []
    assert window_reverse("a b c".split(), 0) == ["a", "b", "c"]


@given(st.lists(st.text(alphabet="abc", min_size=1, max_size=3), max_size=12),
       st.integers(min_value=2, max_value=5))
@settings(max_examples=200)
def test_window_reverse_is_involution(words, w):
    assert window_reverse(window_reverse(words, w), w) == words


# --- lexicons and the oracle ---


def family():
    base = make_base_spec("en", 40)
    aa = make_derived_spec("aa", base)
    ab = make_derived_spec("ab", base)
    xa = make_derived_spec("xa", base, window=2, donors=[(aa, 0.4), (ab, 0.4)])
    return base, aa, ab, xa


def test_derive_applies_lexicon_then_reversal():
    base, aa, ab, xa = family()
    assert derive_sentence("en0 en1 en2", aa) == "aa0 aa1 aa2"
    # type 0 borrows from aa (slot 0 of the cognate cycle), then windows flip
    s = derive_sentence("en0 en1 en2 en3", xa)
    words = s.split()
    assert len(words) == 4
    assert words[1] == xa.lexicon["en0"]
    assert words[0] == xa.lexicon["en1"]


def test_cognate_shares_are_exact():
    base, aa, ab, xa = family()
    borrowed_aa = sum(1 for v in xa.lexicon.values() if v.startswith("aa"))
    borrowed_ab = sum(1 for v in xa.lexicon.values() if v.startswith("ab"))
    own = sum(1 for v in xa.lexicon.values() if v.startswith("xa"))
    assert borrowed_aa == 16  # 0.4 of 40
    assert borrowed_ab == 16
    assert own == 8
    # borrowing keeps meaning: shared surface, same base word
    for bw, surf in xa.lexicon.items():
        if surf.startswith("aa"):
            assert aa.lexicon[bw] == surf


def test_round_trip_and_cycles_are_identity():
    base, aa, ab, xa = family()
    s = "en3 en0 en17 en4 en9"
    for spec in (aa, ab, xa):
        assert to_base(derive_sentence(s, spec), spec) == s
        assert oracle_translate(derive_sentence(s, spec), spec, base) == s
    # a full cycle through three languages
    t = oracle_translate(s, base, xa)
    t = oracle_translate(t, xa, aa)
    t = oracle_translate(t, aa, ab)
    assert oracle_translate(t, ab, base) == s


def test_unmapped_word_rejected():
    base, aa, _, _ = family()
    with pytest.raises(DataError):
        derive_sentence("en0 zz9", aa)
    with pytest.raises(DataError):
        to_base("en0", aa)  # an en word is not an aa word


def test_bad_specs_rejected():
    base = make_base_spec("en", 40)
    with pytest.raises(ConfigError):
        make_derived_spec("xa", base, window=1)


# --- base corpus statistics ---


def test_base_corpus_deterministic_and_in_range():
    spec = CorpusSpec(vocab_types=30, len_min=3, len_max=7, lines=200, seed=5)
    a = gen_base_corpus(spec)
    b = gen_base_corpus(spec)
    assert a == b
    for line in a:
        assert 3 <= len(line.split()) <= 7
    c = gen_base_corpus(CorpusSpec(30, 3, 7, 200, seed=6))
    assert c != a


def zipf_ks_distance(counts) -> float:
    """KS distance between empirical rank frequencies and the Zipf target."""
    emp = np.cumsum(counts / counts.sum())
    return float(np.max(np.abs(emp - np.cumsum(zipf_probs(len(counts))))))


def test_unigram_distribution_matches_zipf():
    # ~100k tokens
    spec = CorpusSpec(vocab_types=50, len_min=4, len_max=9, lines=16000, seed=1)
    counts = np.zeros(50)
    for sent in gen_rank_lines(spec):
        for r in sent:
            counts[r] += 1
    assert counts.sum() >= 100_000 * 0.6
    assert zipf_ks_distance(counts) <= 0.05


def test_markov_wrinkle_adds_context_dependence():
    # Contexts with (prev2*131 + prev1*31) even leave the (10,11) pair alone,
    # odd ones swap it, so P(10 | 10 or 11) moves between p10- and p11-weighted
    # values. The generator is deterministic, so the measured gap is stable.
    spec = CorpusSpec(vocab_types=50, len_min=6, len_max=9, lines=12000, seed=2)
    after = {}  # context class -> counts of rank 10 vs 11
    for sent in gen_rank_lines(spec):
        for i in range(2, len(sent)):
            if sent[i] in (10, 11):
                key = (sent[i - 2] * 131 + sent[i - 1] * 31) % 2
                a, b = after.get(key, (0, 0))
                after[key] = (a + (sent[i] == 10), b + (sent[i] == 11))
    assert set(after) == {0, 1}
    r0 = after[0][0] / sum(after[0])  # no-swap contexts: rank 10 more common
    r1 = after[1][0] / sum(after[1])  # swap contexts: 10 appears when 11 drawn
    assert r0 > r1
    assert r0 - r1 > 0.03


def test_ks_helper_zero_on_exact_counts():
    counts = zipf_probs(25) * 1e6
    assert zipf_ks_distance(counts) == pytest.approx(0.0, abs=1e-12)


# --- benchmark ---


def small_cfg(out_dir, **kw):
    d = dict(out_dir=str(out_dir), seed=3, vocab_types=40, len_min=3, len_max=6,
             mono_lines=80, parallel_lines=40, dev_lines=10, test_lines=15)
    d.update(kw)
    return BenchmarkConfig(**d)


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    cfg = small_cfg(out)
    paths = build_benchmark(cfg)
    return cfg, paths


def test_manifest_structure(bench):
    cfg, paths = bench
    languages, entries = load_manifest(paths["manifest"])
    names = {l.name for l in languages}
    assert names == {"en", "aa", "ab", "xa"}
    assert [l.name for l in languages if l.is_english] == ["en"]
    assert [l.name for l in languages if l.is_target] == ["xa"]
    parallel = [e for e in entries if e["kind"] == "parallel"]
    assert len(parallel) == 2
    # the unsupervised constraint, checked structurally
    for e in parallel:
        assert "xa" not in (e["src"], e["tgt"])
    mono = {e["lang"] for e in entries if e["kind"] == "mono"}
    assert mono == {"en", "aa", "ab", "xa"}


def test_corpus_sizes_match_config_exactly(bench):
    cfg, paths = bench
    for lang in ("en", "aa", "ab", "xa"):
        lines = open(paths[f"mono.{lang}.txt"]).read().splitlines()
        assert len(lines) == cfg.mono_lines
    for aux in ("aa", "ab"):
        a = open(paths[f"parallel.{aux}-en.{aux}.txt"]).read().splitlines()
        e = open(paths[f"parallel.{aux}-en.en.txt"]).read().splitlines()
        assert len(a) == len(e) == cfg.parallel_lines
    for split, n in (("dev", cfg.dev_lines), ("test", cfg.test_lines)):
        for lang in ("en", "aa", "ab", "xa"):
            lines = open(paths[f"{split}.{lang}.txt"]).read().splitlines()
            assert len(lines) == n


def test_heldout_hygiene(bench):
    cfg, paths = bench
    train = set()
    for name, p in paths.items():
        if name.startswith(("mono.", "parallel.")):
            train.update(open(p).read().splitlines())
    for name, p in paths.items():
        if name.startswith(("dev.", "test.")):
            for line in open(p).read().splitlines():
                assert line not in train


def test_written_files_agree_with_oracle(bench):
    cfg, paths = bench
    specs = load_language_specs(paths["languages"])
    en = open(paths["test.en.txt"]).read().splitlines()
    xa = open(paths["test.xa.txt"]).read().splitlines()
    for e_line, x_line in zip(en, xa):
        assert derive_sentence(e_line, specs["xa"]) == x_line
        assert oracle_translate(x_line, specs["xa"], specs["en"]) == e_line


def test_parallel_sides_are_translations(bench):
    cfg, paths = bench
    specs = load_language_specs(paths["languages"])
    a = open(paths["parallel.aa-en.aa.txt"]).read().splitlines()
    e = open(paths["parallel.aa-en.en.txt"]).read().splitlines()
    for s_a, s_e in zip(a, e):
        assert derive_sentence(s_e, specs["aa"]) == s_a


def test_testsets_file(bench):
    cfg, paths = bench
    doc = load_testsets(paths["testsets"])
    assert doc["eval_directions"] == ["en-xa", "xa-en"]
    assert set(doc["dev"]) == {"en", "aa", "ab", "xa"}
    assert set(doc["test"]) == {"en", "aa", "ab", "xa"}
    # read back resolved against the file's directory; stored as bare names
    assert doc["test"]["en"] == paths["test.en.txt"]
    with open(paths["testsets"]) as fh:
        assert json.load(fh)["test"]["en"] == "test.en.txt"


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(eval_directions=["en-xa-zz"]),  # three languages
    lambda doc: doc.update(eval_directions=["en-qq"]),  # a language no split maps
    lambda doc: doc.pop("eval_directions"),
], ids=["three-languages", "unmapped-language", "no-directions"])
def test_malformed_testsets_file_is_a_data_error(bench, tmp_path, edit):
    _, paths = bench
    with open(paths["testsets"]) as fh:
        doc = json.load(fh)
    edit(doc)
    bad = tmp_path / "testsets.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="eval"):
        load_testsets(bad)


def test_testsets_and_language_files_that_are_not_objects_rejected(tmp_path):
    bad = tmp_path / "doc.json"
    bad.write_text("[]")
    with pytest.raises(DataError, match="not a munmt-testsets document"):
        load_testsets(bad)
    with pytest.raises(DataError, match="not a munmt-languages document"):
        load_language_specs(bad)
    lexicon_list = {"name": "xa", "base": False, "lexicon": ["en0"], "window": 0,
                    "prefix": "xa"}
    for languages, match in ((None, "must be a list"), ([1], "bad language entry"),
                             ([lexicon_list], r"languages\[0\]\.lexicon must be an object")):
        bad.write_text(json.dumps({"format": "munmt-languages", "version": 1,
                                   "languages": languages}))
        with pytest.raises(DataError, match=match):
            load_language_specs(bad)


def test_benchmark_deterministic(tmp_path):
    p1 = build_benchmark(small_cfg(tmp_path / "one"))
    p2 = build_benchmark(small_cfg(tmp_path / "two"))
    for name in ("mono.xa.txt", "parallel.aa-en.aa.txt", "test.en.txt",
                 "manifest", "testsets", "benchmark"):
        assert open(p1[name]).read() == open(p2[name]).read()  # wherever built


def test_registry_ingests_benchmark(bench):
    cfg, paths = bench
    lines = []
    for lang in ("en", "aa", "ab", "xa"):
        lines += open(paths[f"mono.{lang}.txt"]).read().splitlines()
    vocab = train_bpe(lines, vocab_size=220)
    _, entries = load_manifest(paths["manifest"])
    datasets = build_registry(entries, vocab, max_pieces=88)
    assert len(datasets) == 6
    for ds in datasets:
        assert ds.size > 0
        if ds.kind == "parallel":
            assert ds.size == cfg.parallel_lines  # nothing filtered out


def test_noise_knob_thins_mono_only(tmp_path):
    noisy = build_benchmark(small_cfg(tmp_path / "n", noise_dropout=0.4))
    clean = build_benchmark(small_cfg(tmp_path / "c"))
    n_tokens = sum(len(l.split()) for l in open(noisy["mono.en.txt"]).read().splitlines())
    c_tokens = sum(len(l.split()) for l in open(clean["mono.en.txt"]).read().splitlines())
    assert n_tokens < c_tokens * 0.8
    assert open(noisy["test.en.txt"]).read() == open(clean["test.en.txt"]).read()


def test_config_violations_rejected(tmp_path):
    with pytest.raises(ConfigError):
        small_cfg(tmp_path, auxiliaries=["aa", "xa"]).validate()
    with pytest.raises(ConfigError):
        small_cfg(tmp_path, targets={"xa": TargetSpec(cognates={"en": 0.4})}).validate()
    with pytest.raises(ConfigError):
        small_cfg(tmp_path, targets={"xa": TargetSpec(cognates={"zz": 0.4})}).validate()
    with pytest.raises(ConfigError):
        small_cfg(tmp_path, targets={"xa": TargetSpec(window=1)}).validate()
    with pytest.raises(ConfigError):
        small_cfg(tmp_path, auxiliaries=[]).validate()
    with pytest.raises(ConfigError, match="not a multiple of 1/20"):
        small_cfg(tmp_path, targets={"xa": TargetSpec(cognates={"aa": 0.33})}).validate()
    with pytest.raises(ConfigError, match="cognate fractions exceed 1"):
        small_cfg(tmp_path, targets={"xa": TargetSpec(
            cognates={"aa": 0.6, "ab": 0.6})}).validate()


def test_corpus_bounds_rejected(tmp_path):
    """The base corpus bounds are the benchmark's, checked before anything
    is generated."""
    with pytest.raises(ConfigError, match="vocab_types must be >= 12"):
        small_cfg(tmp_path, vocab_types=5).validate()  # too small for the tail
    with pytest.raises(ConfigError, match="len_min <= len_max"):
        small_cfg(tmp_path, len_min=0).validate()
    with pytest.raises(ConfigError, match="len_min <= len_max"):
        small_cfg(tmp_path, len_min=5, len_max=4).validate()


def test_targets_accept_plain_dicts(tmp_path):
    cfg = small_cfg(tmp_path / "d",
                    targets={"xa": {"window": 3, "cognates": {"aa": 0.5}}})
    paths = build_benchmark(cfg)
    specs = load_language_specs(paths["languages"])
    assert specs["xa"].window == 3
    blob = json.load(open(paths["benchmark"]))
    assert blob["targets"]["xa"]["window"] == 3
