"""Toy language generator: oracle exactness, Zipf shape, the whole-chunk
generator against its per-line reference, benchmark layout and pinned bytes."""

import dataclasses
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_line
from munmt import synthlang
from munmt.config import load_config
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
    save_language_specs,
    to_base,
    window_reverse,
    zipf_probs,
)
from munmt.pipeline import generate_benchmark
from munmt.tokenizer import train_bpe

TOY_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs", "toy.json")


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


@pytest.mark.parametrize("vocab_types,len_min,len_max", [
    (50, 4, 9), (51, 4, 9), (12, 2, 2), (13, 1, 3), (50, 1, 1), (1000, 3, 40)])
def test_chunk_generator_matches_per_line_reference(vocab_types, len_min, len_max):
    """The whole-chunk generator makes the per-line draws: a numpy change to
    PCG64's half-word buffering or to `integers`' Lemire method fails here."""
    for seed in range(10):
        spec = CorpusSpec(vocab_types, len_min, len_max, 4096, seed, label=f"bench:{seed}")
        assert gen_rank_lines(spec) == per_line.gen_rank_lines(spec)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_whose_first_word_is_zero(h: int):
    """PCG64 steps its 128-bit state, then outputs rotr(high ^ low, high >> 122):
    a stepped state whose halves are equal outputs 0."""
    gen = np.random.Generator(np.random.PCG64(0))
    inc = gen.bit_generator.state["state"]["inc"]
    stepped = (h << 64) | h
    state = (stepped - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) % (1 << 128)
    gen.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
    return gen


@pytest.mark.parametrize("lines", [1, 3])
def test_chunk_generator_follows_a_lemire_rejection(monkeypatch, lines):
    """A zero first word makes `integers(1, 4)` reject both of its halves
    (3 * 0 leaves 0, under the threshold 2**32 % 3 = 1) and read the next
    word. At one line of length 3 the draws take five words, past the block
    of len_max + 1."""
    h = next(h for h in range(100)
             if _generator_whose_first_word_is_zero(h).integers(1, 4) == 3)
    assert _generator_whose_first_word_is_zero(h).bit_generator.random_raw() == 0
    for module in (synthlang, per_line):
        monkeypatch.setattr(module, "named_rng",
                            lambda seed, name: _generator_whose_first_word_is_zero(h))
    spec = CorpusSpec(50, 1, 3, lines, seed=0)
    ranks = gen_rank_lines(spec)
    assert len(ranks[0]) == 3
    assert ranks == per_line.gen_rank_lines(spec)


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
    for languages, match in ((None, "languages must be a list, got null"),
                             ([1], r"languages\[0\] must be an object, got 1"),
                             ([lexicon_list], r"languages\[0\]\.lexicon must be an object")):
        bad.write_text(json.dumps({"format": "munmt-languages", "version": 1,
                                   "languages": languages}))
        with pytest.raises(DataError, match=match):
            load_language_specs(bad)


def test_language_file_at_version_true_rejected(bench, tmp_path):
    _, paths = bench
    with open(paths["languages"]) as fh:
        doc = json.load(fh)
    assert set(load_language_specs(paths["languages"])) == {l["name"] for l in doc["languages"]}
    bad = tmp_path / "languages.json"
    bad.write_text(json.dumps(dict(doc, version=True)))
    with pytest.raises(DataError, match="version must be 1, got true"):
        load_language_specs(bad)


# sha256 of each file `configs/toy.json`'s benchmark section writes at seed 0
TOY_BENCHMARK_SHA256 = {
    "benchmark.json": "ef940c6399e60270da813ed34f6c4d101edb272016fc42ccbdff5adf51a45af4",
    "dev.aa.txt": "8afc7c20465674b1f08874ad0ca1c022e7fafe6d6cedb32af69b3ea68df9dbaa",
    "dev.ab.txt": "b14a5682f30fc287de84b5fdc751ab5b5c2a01c82312356113697f6d0a6ad046",
    "dev.en.txt": "4813ef743beb96389ce540d9869f39c416ea76ab4d8484aed3f7fe6ce173d193",
    "dev.xa.txt": "1603b7a35c137b47023c10a35e678ec6b82bd43460183633216a32bbcde6ed12",
    "languages.json": "92f5cd6b01f56feeb259a0b1e46d9873ff7c4523fd9f7ae83b6dd0aecb7d1358",
    "manifest.json": "2caad3b4e5cd58bd6d19ffa43fd945e38a7b5adc727f0d8757e13d4d793c419a",
    "mono.aa.txt": "adadf222043f9de151560224a2a848cd015fb6783b4c45178dacc6dc730c8030",
    "mono.ab.txt": "b1dd2f72ebf5495ec4dbf91afec0b15aa8ebdc069cf1c8de9c8e4afabe063e69",
    "mono.en.txt": "8e8f719195173c8a0b156e6063788c0d5c62520d65dcab760c0983a34c721c61",
    "mono.xa.txt": "fd6763bb42d310f8893b1d51b3902dbb05ceda1fb94cadb0e88a7a7ffb311529",
    "parallel.aa-en.aa.txt": "8a11511fd837034ce354dbf8e656c870a64383cb77cd1ed2fb99cc122febacd4",
    "parallel.aa-en.en.txt": "2870ae17d56adee8038184692bc044a3ca10e8a57e4a792f74ced3053fd617f0",
    "parallel.ab-en.ab.txt": "5edd5089176a2e9dc4606da701dbfd56ae43de7c6003ff44e9c15e4ac255550d",
    "parallel.ab-en.en.txt": "83caac486a4be48b17c0a25a4ba0daa6535ffdd296a47b08b75c52fee9e21a9c",
    "test.aa.txt": "28e02837b6e24b479f7af6e7547d13c99c96cf7057273278602e0212fb789b5c",
    "test.ab.txt": "32de78a0ea15877dfb448dc8c1a9b02651006ace121c198a91c9ca5e3e9a6fb7",
    "test.en.txt": "94095c24608679e5d1607181c52eda13c8845c5732cda89a1109fce616c765f4",
    "test.xa.txt": "fe1d4dd84d0179c2e23facaf9ee977e19109f14d411052d7ad386fe8fe9d333b",
    "testsets.json": "7eafca978208e4e9bc77987010e2f774b9cbdca428ac3752b47f22b8295b8110",
}


def test_toy_benchmark_bytes_are_pinned(tmp_path):
    generate_benchmark(load_config(TOY_CONFIG), tmp_path)
    root = tmp_path / "benchmark"
    written = {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
               for name in sorted(os.listdir(root))}
    assert written == TOY_BENCHMARK_SHA256


def test_stream_refuses_only_chunks_that_add_nothing(tmp_path, monkeypatch):
    # 1,000 lines in one take need over 200 chunks of 4 lines, each adding some
    monkeypatch.setattr(synthlang, "CHUNK_LINES", 4)
    paths = build_benchmark(small_cfg(tmp_path / "many", mono_lines=1000))
    assert len(open(paths["mono.en.txt"]).read().splitlines()) == 1000
    # a 12-sentence space (12 types, one word a line) cannot give 13 lines
    with pytest.raises(DataError, match="base sentence space too small"):
        build_benchmark(small_cfg(tmp_path / "few", vocab_types=12, len_min=1,
                                  len_max=1, mono_lines=13))


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


def test_repeated_language_name_refused(bench, tmp_path):
    _, paths = bench
    specs = load_language_specs(paths["languages"])
    listed = [specs["en"], specs["aa"], specs["ab"], specs["xa"]]
    bad = tmp_path / "languages.json"
    save_language_specs(bad, listed + [dataclasses.replace(specs["ab"], name="aa")])
    with pytest.raises(DataError, match="language 'aa' is listed twice"):
        load_language_specs(bad)
