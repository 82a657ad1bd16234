"""Tokenizer: hand-counted merges, roundtrips, file format."""

import re
import unicodedata

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from munmt.errors import ConfigError, DataError
from munmt.files import file_digest, read_lines, write_lines
from munmt.tokenizer import (
    BOS,
    EOS,
    MARKER,
    MASK,
    PAD,
    SPECIAL_PIECES,
    UNK,
    decode,
    encode_line,
    load_vocab,
    normalize,
    save_vocab,
    train_bpe,
)


def test_special_ids_fixed():
    assert (PAD, BOS, EOS, UNK, MASK) == (0, 1, 2, 3, 4)
    v = train_bpe(["ab"], vocab_size=16)
    assert v.pieces[:5] == list(SPECIAL_PIECES)


def test_normalize_rules():
    assert normalize("a\t b  c\n") == "a b c"
    assert normalize("  x   y ") == "x y"
    # NFC: e + combining acute composes
    assert normalize("é") == "é"


def _normalize_reference(text):
    """The general rule normalize applies to every line: NFC, drop category
    C, collapse whitespace runs, strip."""
    text = unicodedata.normalize("NFC", text)
    text = "".join(ch for ch in text if not unicodedata.category(ch).startswith("C"))
    return re.sub(r"\s+", " ", text).strip()


def test_normalize_ascii_fast_path_matches_the_general_rule():
    ascii_chars = [chr(c) for c in range(128)]
    others = ["é", "e\u0301", "\u200b", "\u00a0", "\u3000", "\u0085", "\ufeff"]
    for ch in ascii_chars + others:
        for s in (ch, f"a{ch}b", f" {ch} x{ch}{ch}y {ch}"):
            assert normalize(s) == _normalize_reference(s), repr(s)
    rng = np.random.default_rng(0)
    alphabet = ascii_chars + others
    for ascii_only in (True, False):
        pool = ascii_chars if ascii_only else alphabet
        for _ in range(2000):
            s = "".join(pool[i] for i in rng.integers(0, len(pool), rng.integers(0, 12)))
            assert normalize(s) == _normalize_reference(s), repr(s)


def test_first_merge_hand_counted():
    # corpus {aaab, aaab}: marked words give pairs (_,a)=2, (a,a)=4, (a,b)=2,
    # so the first learned merge is (a, a)
    v = train_bpe(["aaab", "aaab"], vocab_size=5 + 3 + 1)
    assert v.merges[0] == ("a", "a")


def test_tie_break_lexicographic():
    # "ab" and "cd" each appear once; pairs (_,a)... all count 1.
    # smallest pair lexicographically starts with the marker char, which
    # sorts above ascii letters, so ties resolve to an ascii pair first.
    v = train_bpe(["ab cd"], vocab_size=5 + 5 + 1)
    assert v.merges[0] == ("a", "b")


def test_merge_count_matches_requested_size():
    corpus = ["the cat sat", "the cat ran", "a cat sat on the mat"] * 3
    v = train_bpe(corpus, vocab_size=30)
    assert v.size == 30
    alphabet = {c for w in corpus for c in MARKER + w.replace(" ", "")}
    assert len(v.merges) == 30 - 5 - len(alphabet)
    # tiny corpus exhausts its pairs before an oversized target: fewer pieces
    small = train_bpe(corpus, vocab_size=400)
    assert small.size < 400
    # once every word is a single piece there is nothing left to merge
    for line in corpus:
        assert all(
            len(encode_line(small, w)) == 1 for w in line.split()
        )


def test_vocab_size_too_small_rejected():
    with pytest.raises(ConfigError):
        train_bpe(["abcdefgh"], vocab_size=6)


def test_empty_corpus_rejected():
    with pytest.raises(DataError):
        train_bpe(["", "  "], vocab_size=10)


def test_corpus_scaling_invariance():
    base = ["red fish blue fish", "one fish two fish"]
    v1 = train_bpe(base, vocab_size=30)
    v2 = train_bpe(base * 3, vocab_size=30)
    assert v1.pieces == v2.pieces
    assert v1.merges == v2.merges


def test_roundtrip_corpus_lines():
    corpus = ["the cat sat on the mat", "a dog ran", "cat and dog and cat"]
    v = train_bpe(corpus, vocab_size=48)
    for line in corpus:
        ids = encode_line(v, line)
        assert ids.dtype == np.int32
        assert decode(v, ids) == normalize(line)
        assert len(ids) >= 1


def test_unknown_character_becomes_unk():
    v = train_bpe(["ab ab"], vocab_size=12)
    assert UNK in encode_line(v, "aZb").tolist()


def test_blank_line_encodes_to_no_ids():
    v = train_bpe(["ab"], vocab_size=10)
    for blank in ("", "   ", " \t "):
        ids = encode_line(v, blank)
        assert ids.dtype == np.int32 and ids.tolist() == []


def test_decode_bad_id_rejected():
    v = train_bpe(["ab"], vocab_size=10)
    with pytest.raises(DataError):
        decode(v, np.asarray([v.size]))
    with pytest.raises(DataError):
        decode(v, np.asarray([-1]))


def test_determinism_same_inputs():
    corpus = ["some words here", "other words there", "words words words"]
    a = train_bpe(corpus, vocab_size=42)
    b = train_bpe(list(corpus), vocab_size=42)
    assert a.pieces == b.pieces and a.merges == b.merges
    ea = encode_line(a, "some other words")
    eb = encode_line(b, "some other words")
    assert ea.tolist() == eb.tolist()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abcde ", min_size=1, max_size=20).filter(
            lambda s: s.strip() != ""
        ),
        min_size=1,
        max_size=8,
    )
)
def test_roundtrip_property(lines):
    v = train_bpe(lines, vocab_size=64)
    for line in lines:
        norm = normalize(line)
        if not norm:
            continue
        assert decode(v, encode_line(v, line)) == norm


def test_vocab_file_roundtrip(tmp_path):
    v = train_bpe(["watch the river run", "the river ran dry"], vocab_size=44)
    p = tmp_path / "vocab.txt"
    save_vocab(v, p)
    first = p.read_text(encoding="utf-8").splitlines()[0]
    assert first == f"#munmt-vocab v1 size={v.size}"
    w = load_vocab(p)
    assert w.pieces == v.pieces
    assert w.merges == v.merges
    text = "the river run"
    assert encode_line(w, text).tolist() == encode_line(v, text).tolist()
    assert isinstance(file_digest(p, "vocab"), str) and len(file_digest(p, "vocab")) == 64


def test_unreadable_file_digest_is_a_data_error(tmp_path):
    missing = tmp_path / "vocab.txt"
    with pytest.raises(DataError, match=re.escape(str(missing))):
        file_digest(missing, "vocab")


def test_vocab_file_corruption_detected(tmp_path):
    v = train_bpe(["ab cd"], vocab_size=12)
    p = tmp_path / "vocab.txt"
    save_vocab(v, p)
    lines = p.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(["#wrong header"] + lines[1:]), encoding="utf-8")
    with pytest.raises(DataError):
        load_vocab(bad)
    # drop one piece line: ids no longer dense
    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("\n".join([lines[0]] + lines[2:]), encoding="utf-8")
    with pytest.raises(DataError):
        load_vocab(bad2)
    # an id that is not a number
    bad3 = tmp_path / "bad3.txt"
    bad3.write_text("\n".join([lines[0], "<pad>\tx"] + lines[2:]), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape("bad vocab line '<pad>\\tx'")):
        load_vocab(bad3)


# every character str.splitlines breaks at, apart from "\n" itself
OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.text(st.one_of(st.sampled_from(OTHER_BREAKS),
                                  st.characters(exclude_characters="\n"))),
                min_size=1, max_size=6))
@example(["one two", "three\x85four"])
@example(["crlf\r", "", "last"])
def test_lines_break_at_newline_only(tmp_path_factory, lines):
    p = tmp_path_factory.mktemp("lines") / "lines.txt"
    write_lines(p, lines)
    assert read_lines(p) == lines


def test_a_last_line_without_newline_counts(tmp_path):
    p = tmp_path / "lines.txt"
    p.write_bytes(b"a\r\nb")
    assert read_lines(p) == ["a\r", "b"]
    assert normalize(read_lines(p)[0]) == "a"


def test_marker_is_single_char_and_restores_spaces():
    v = train_bpe(["aa bb", "bb aa"], vocab_size=20)
    assert decode(v, encode_line(v, "aa bb")) == "aa bb"
    assert len(MARKER) == 1
