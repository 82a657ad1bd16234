"""Sampling arithmetic, batch construction, bucketing, manifest handling."""

import json

import numpy as np
import pytest

from munmt.corpus import (
    Dataset,
    LanguageId,
    SamplingPolicy,
    bucket_batches,
    build_registry,
    choose_dataset,
    draw_batch,
    load_manifest,
    pad_block,
    save_manifest,
    temperature_weights,
)
from munmt.errors import ConfigError, DataError
from munmt.rng import named_rng
from munmt.tokenizer import train_bpe


def mono(id_, n, lang="en", length=5):
    items = [np.arange(5, 5 + length, dtype=np.int32) for _ in range(n)]
    return Dataset(id_, "mono", lang=lang, items=items)


def para(id_, n, src="aa", tgt="en", length=4):
    items = [
        (np.arange(5, 5 + length, dtype=np.int32), np.arange(6, 6 + length, dtype=np.int32))
        for _ in range(n)
    ]
    return Dataset(id_, "parallel", src=src, tgt=tgt, items=items)


def test_temperature_weights_hand_arithmetic():
    # sizes [100, 10], T=5: shares (100/110, 10/110) ** 0.2 normalized.
    # 0.90909^0.2 = 0.98107..., 0.090909^0.2 = 0.61912...;
    # normalized: [0.61312, 0.38688] (hand arithmetic, frozen to 3 decimals)
    w = temperature_weights([100, 10], 5.0)
    assert w[0] == pytest.approx(0.613, abs=5e-4)
    assert w[1] == pytest.approx(0.387, abs=5e-4)
    assert w.sum() == pytest.approx(1.0, rel=1e-12)


def test_temperature_weights_equal_sizes_uniform():
    w = temperature_weights([7, 7, 7], 5.0)
    np.testing.assert_allclose(w, [1 / 3] * 3, rtol=1e-12)


def test_temperature_one_recovers_proportional():
    w = temperature_weights([30, 10], 1.0)
    np.testing.assert_allclose(w, [0.75, 0.25], rtol=1e-12)


def test_temperature_weights_flatten_toward_uniform():
    # larger T moves weights toward uniform, ordering preserved
    lo = temperature_weights([100, 10], 1.0)
    hi = temperature_weights([100, 10], 50.0)
    assert lo[0] > hi[0] > 0.5


def test_temperature_weights_errors():
    with pytest.raises(DataError):
        temperature_weights([], 5.0)
    with pytest.raises(DataError):
        temperature_weights([3, 0], 5.0)


def test_choose_dataset_p_parallel_zero_and_one():
    reg = [mono("m", 10), para("p", 10)]
    rng = named_rng(1, "t")
    for _ in range(50):
        assert choose_dataset(reg, SamplingPolicy(0.0, 5.0), rng).id == "m"
        assert choose_dataset(reg, SamplingPolicy(1.0, 5.0), rng).id == "p"


def test_choose_dataset_empty_branch_error():
    rng = named_rng(1, "t")
    with pytest.raises(DataError):
        choose_dataset([mono("m", 5)], SamplingPolicy(1.0, 5.0), rng)


def test_choose_dataset_frequencies():
    # 100k draws: parallel share ~0.5; conditional parallel split matches
    # temperature weights of sizes [100, 10]
    reg = [mono("m1", 50), mono("m2", 950), para("p1", 100), para("p2", 10)]
    rng = named_rng(7, "freq")
    policy = SamplingPolicy(0.5, 5.0)
    counts = {"m1": 0, "m2": 0, "p1": 0, "p2": 0}
    n = 100_000
    for _ in range(n):
        counts[choose_dataset(reg, policy, rng).id] += 1
    par = counts["p1"] + counts["p2"]
    assert par / n == pytest.approx(0.5, abs=0.01)
    assert counts["p1"] / par == pytest.approx(0.613, abs=0.01)
    # mono branch is uniform over datasets regardless of size
    mono_total = counts["m1"] + counts["m2"]
    assert counts["m1"] / mono_total == pytest.approx(0.5, abs=0.015)


def test_draw_batch_with_replacement_returns_the_dataset_items():
    ds = Dataset("m", "mono", lang="en",
                 items=[np.asarray([5, 6], dtype=np.int32),
                        np.asarray([7, 8, 9, 10], dtype=np.int32)])
    rng = named_rng(3, "draw")
    b = draw_batch(ds, 16, rng)  # more draws than items: must not exhaust
    assert len(b) == 16
    # the rows are the dataset's own id arrays, unpadded, at the indices the
    # stream draws
    want = named_rng(3, "draw").integers(0, ds.size, size=16)
    assert all(row is ds.items[i] for row, i in zip(b, want))
    pairs = para("p", 3)
    assert all(any(row is item for item in pairs.items)
               for row in draw_batch(pairs, 5, rng))


def test_draw_batch_uniform_over_items():
    items = [np.asarray([i + 5], dtype=np.int32) for i in range(4)]
    ds = Dataset("m", "mono", lang="en", items=items)
    rng = named_rng(9, "uniform")
    counts = np.zeros(4)
    for _ in range(200):
        for row in draw_batch(ds, 50, rng):
            counts[int(row[0]) - 5] += 1
    freqs = counts / counts.sum()
    np.testing.assert_allclose(freqs, 0.25, atol=0.02)


def test_draw_batch_errors():
    rng = named_rng(1, "e")
    with pytest.raises(DataError):
        draw_batch(Dataset("m", "mono", lang="en", items=[]), 4, rng)
    with pytest.raises(ConfigError):
        draw_batch(mono("m", 3), 0, rng)


def test_bucket_batches_partition_and_budget():
    rng = np.random.default_rng(5)
    items = [np.arange(5, 5 + rng.integers(1, 40), dtype=np.int32) for _ in range(300)]
    ds = Dataset("m", "mono", lang="en", items=items)
    batches = bucket_batches(ds, max_tokens=100, bucket_width=8)
    for b in batches:
        assert len(b) * max(len(item) for item in b) <= 100
    # exact partition: every item object lands in exactly one batch
    assert sorted(id(item) for b in batches for item in b) == sorted(map(id, items))


def test_bucket_batches_similar_lengths():
    items = [np.arange(5, 6, dtype=np.int32)] * 10 + [np.arange(5, 35, dtype=np.int32)] * 10
    ds = Dataset("m", "mono", lang="en", items=items)
    for b in bucket_batches(ds, max_tokens=64, bucket_width=8):
        lens = {len(item) for item in b}
        # one bucket only: width-8 groups keep 1 and 30 apart
        assert lens <= {1} or lens <= {30}


def test_bucket_batches_oversized_item_rejected():
    ds = Dataset("m", "mono", lang="en", items=[np.arange(50, dtype=np.int32)])
    with pytest.raises(DataError):
        bucket_batches(ds, max_tokens=40, bucket_width=8)


def test_bucket_batches_pairs_use_longest_side():
    items = [(np.arange(2, dtype=np.int32), np.arange(20, dtype=np.int32))] * 6
    ds = Dataset("p", "parallel", src="aa", tgt="en", items=items)
    batches = bucket_batches(ds, max_tokens=60, bucket_width=8)
    assert sum(len(b) for b in batches) == 6
    for b in batches:
        assert all(isinstance(item, tuple) for item in b)
        assert len(b) * 20 <= 60


def test_pad_block_empty_rejected():
    with pytest.raises(DataError):
        pad_block([])


# --- manifest ---


def write_corpus(tmp_path, name, lines):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


def test_manifest_roundtrip_and_registry(tmp_path):
    langs = [LanguageId("en", True, False), LanguageId("aa", False, False)]
    m_en = write_corpus(tmp_path, "mono.en.txt", ["ab ab", "ba ba ba", "", "ab"])
    src = write_corpus(tmp_path, "para.aa.txt", ["ba ab", "ab"])
    tgt = write_corpus(tmp_path, "para.en.txt", ["ab ba", "ba"])
    entries = [
        {"id": "mono_en", "kind": "mono", "lang": "en", "path": m_en},
        {"id": "para_aa", "kind": "parallel", "src": "aa", "tgt": "en",
         "src_path": src, "tgt_path": tgt, "synthetic": False},
    ]
    mp = tmp_path / "manifest.json"
    save_manifest(mp, langs, entries)
    langs2, entries2 = load_manifest(mp)
    assert [l.name for l in langs2] == ["en", "aa"]
    assert len(entries2) == 2

    vocab = train_bpe(["ab ba"], vocab_size=16)
    datasets = build_registry(entries2, vocab, max_pieces=88)
    by_id = {d.id: d for d in datasets}
    assert by_id["mono_en"].size == 3  # empty line dropped
    assert by_id["para_aa"].size == 2
    assert by_id["para_aa"].items[0][0].dtype == np.int32


def test_manifest_paths_resolve_against_its_directory(tmp_path, monkeypatch):
    data = tmp_path / "data"
    data.mkdir()
    name = write_corpus(data, "mono.en.txt", ["ab ba"])
    elsewhere = write_corpus(tmp_path, "mono.aa.txt", ["ba"])
    save_manifest(data / "manifest.json",
                  [LanguageId("en", True, False), LanguageId("aa", False, False)],
                  [{"id": "mono_en", "kind": "mono", "lang": "en", "path": name},
                   {"id": "mono_aa", "kind": "mono", "lang": "aa",
                    "path": str(tmp_path / elsewhere)}])
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)  # relative to the manifest, not the working dir
    _, entries = load_manifest("../data/manifest.json")
    assert entries[0]["path"] == str(data / name)
    assert entries[1]["path"] == str(tmp_path / elsewhere)  # absolute: kept
    vocab = train_bpe(["ab ba"], vocab_size=16)
    assert [d.size for d in build_registry(entries, vocab, max_pieces=88)] == [1, 1]
    # the file itself still holds the relative name
    doc = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
    assert doc["datasets"][0]["path"] == name


def test_manifest_validation_enumerates_problems(tmp_path):
    doc = {
        "format": "munmt-manifest",
        "version": 1,
        "languages": [{"name": "en", "english": False}],
        "datasets": [
            {"id": "d1", "kind": "mono", "lang": "zz", "path": "x.txt"},
            {"id": "d1", "kind": "mono", "lang": "en", "path": "y.txt"},
            {"id": "d2", "kind": "nope"},
        ],
    }
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(DataError) as ei:
        load_manifest(p)
    msg = str(ei.value)
    assert "exactly one English" in msg
    assert "duplicate dataset id" in msg
    assert "unknown kind" in msg


def test_manifest_rejects_wrong_format(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"format": "other", "version": 1}), encoding="utf-8")
    with pytest.raises(DataError):
        load_manifest(p)
    p2 = tmp_path / "m2.json"
    p2.write_text("{not json", encoding="utf-8")
    with pytest.raises(DataError):
        load_manifest(p2)


def test_registry_drops_long_and_mismatched(tmp_path):
    langs = [LanguageId("en", True, False)]
    long_line = " ".join(["ab"] * 100)
    m = write_corpus(tmp_path, "m.txt", ["ab ab", long_line])
    mp = tmp_path / "manifest.json"
    save_manifest(mp, langs, [{"id": "m", "kind": "mono", "lang": "en", "path": m}])
    vocab = train_bpe(["ab"], vocab_size=12)
    datasets = build_registry(load_manifest(mp)[1], vocab, max_pieces=88)
    assert datasets[0].size == 1

    # a pair goes when either side is blank or too long
    s = write_corpus(tmp_path, "s.txt", ["ab", "ab", long_line, " "])
    t = write_corpus(tmp_path, "t.txt", ["ab", long_line, "ab", "ab"])
    save_manifest(mp, langs, [{"id": "p", "kind": "parallel", "src": "en", "tgt": "en",
                               "src_path": s, "tgt_path": t}])
    datasets = build_registry(load_manifest(mp)[1], vocab, max_pieces=88)
    assert datasets[0].size == 1

    s = write_corpus(tmp_path, "s.txt", ["ab", "ab"])
    t = write_corpus(tmp_path, "t.txt", ["ab"])
    save_manifest(mp, langs, [{"id": "p", "kind": "parallel", "src": "en", "tgt": "en",
                               "src_path": s, "tgt_path": t}])
    with pytest.raises(DataError):
        build_registry(load_manifest(mp)[1], vocab, max_pieces=88)
