"""Joint subword vocabulary: greedy BPE over whitespace-marked words, and
the vocab file, a line file that munmt.files reads and writes.

Words carry a leading U+2581 marker so detokenization is lossless: pieces
concatenate back to the marked string and markers become spaces. Training
is deterministic; ties go to the lexicographically smallest pair.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .files import read_lines, write_lines

MARKER = "▁"

PAD, BOS, EOS, UNK, MASK = 0, 1, 2, 3, 4
SPECIAL_PIECES = ("<pad>", "<s>", "</s>", "<unk>", "<mask>")

_WS_RUN = re.compile(r"\s+")
_ASCII_CONTROLS = dict.fromkeys((*range(32), 127))
VOCAB_HEADER = re.compile(r"^#munmt-vocab v1 size=(\d+)$")


def normalize(text: str) -> str:
    """NFC, drop control characters, collapse whitespace runs, strip ends."""
    if text.isascii():
        # NFC leaves ASCII as it is, and its category-C characters are
        # exactly code points 0-31 and 127: the same result without a
        # per-character category lookup, for the all-ASCII toy corpora.
        return " ".join(text.translate(_ASCII_CONTROLS).split())
    text = unicodedata.normalize("NFC", text)
    text = "".join(ch for ch in text if not unicodedata.category(ch).startswith("C"))
    return _WS_RUN.sub(" ", text).strip()


@dataclass
class Vocab:
    pieces: list  # id -> piece string
    merges: list  # ordered (left, right) piece pairs
    piece_to_id: dict = field(default_factory=dict)
    _ranks: dict = field(default_factory=dict)
    _word_cache: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.piece_to_id:
            self.piece_to_id = {p: i for i, p in enumerate(self.pieces)}
        self._ranks = {pair: r for r, pair in enumerate(self.merges)}
        self._word_cache = {}

    @property
    def size(self) -> int:
        return len(self.pieces)


def train_bpe(corpora, vocab_size: int) -> Vocab:
    """Learn a joint BPE vocabulary of exactly `vocab_size` pieces (or fewer
    if the corpus runs out of mergeable pairs).

    `corpora` is an iterable of text lines (already mixed across languages).
    Greedy training is fully deterministic.
    """
    freqs = {}
    for line in corpora:
        line = normalize(line)
        if not line:
            continue
        for word in line.split(" "):
            marked = MARKER + word
            freqs[marked] = freqs.get(marked, 0) + 1
    if not freqs:
        raise DataError("cannot train a vocabulary on an empty corpus")

    alphabet = sorted({ch for word in freqs for ch in word})
    base = len(SPECIAL_PIECES) + len(alphabet)
    if vocab_size < base:
        raise ConfigError(
            f"vocab_size {vocab_size} is smaller than specials+alphabet ({base})"
        )

    words = [(list(w), f) for w, f in sorted(freqs.items())]
    pair_counts = {}
    pair_words = {}
    for wi, (pieces, f) in enumerate(words):
        for pair in zip(pieces, pieces[1:]):
            pair_counts[pair] = pair_counts.get(pair, 0) + f
            pair_words.setdefault(pair, set()).add(wi)

    merges = []
    n_pieces = base
    while n_pieces < vocab_size and pair_counts:
        top = max(pair_counts.values())
        # ties go to the lexicographically smallest pair
        best_pair = min(p for p, c in pair_counts.items() if c == top)
        merges.append(best_pair)
        new_piece = best_pair[0] + best_pair[1]
        touched = pair_words.pop(best_pair, set())
        for wi in touched:
            pieces, f = words[wi]
            for pair in zip(pieces, pieces[1:]):
                pair_counts[pair] -= f
                if pair_counts[pair] <= 0:
                    pair_counts.pop(pair, None)
                s = pair_words.get(pair)
                if s is not None:
                    s.discard(wi)
                    if not s:
                        pair_words.pop(pair, None)
            merged = []
            j = 0
            while j < len(pieces):
                if (
                    j + 1 < len(pieces)
                    and pieces[j] == best_pair[0]
                    and pieces[j + 1] == best_pair[1]
                ):
                    merged.append(new_piece)
                    j += 2
                else:
                    merged.append(pieces[j])
                    j += 1
            words[wi] = (merged, f)
            for pair in zip(merged, merged[1:]):
                pair_counts[pair] = pair_counts.get(pair, 0) + f
                pair_words.setdefault(pair, set()).add(wi)
        n_pieces += 1

    pieces = list(SPECIAL_PIECES) + alphabet + ["".join(m) for m in merges]
    return Vocab(pieces=pieces, merges=merges)


def _apply_merges(vocab: Vocab, word: str):
    pieces = list(word)
    ranks = vocab._ranks
    while len(pieces) > 1:
        best_rank = None
        best_i = -1
        for i in range(len(pieces) - 1):
            r = ranks.get((pieces[i], pieces[i + 1]))
            if r is not None and (best_rank is None or r < best_rank):
                best_rank = r
                best_i = i
        if best_rank is None:
            break
        pieces[best_i : best_i + 2] = [pieces[best_i] + pieces[best_i + 1]]
    return pieces


def encode_line(vocab: Vocab, text: str) -> np.ndarray:
    """Normalize `text`, then map it to int32 piece ids. A line that
    normalizes to nothing gives no ids. Unknown characters become UNK pieces."""
    norm = normalize(text)
    if not norm:
        return np.zeros(0, dtype=np.int32)
    ids = []
    cache = vocab._word_cache
    for word in norm.split(" "):
        marked = MARKER + word
        got = cache.get(marked)
        if got is None:
            got = [vocab.piece_to_id.get(p, UNK) for p in _apply_merges(vocab, marked)]
            cache[marked] = got
        ids.extend(got)
    return np.asarray(ids, dtype=np.int32)


def decode(vocab: Vocab, ids) -> str:
    ids = np.asarray(ids).reshape(-1)
    out = []
    for i in ids:
        i = int(i)
        if i < 0 or i >= vocab.size:
            raise DataError(f"token id {i} out of range for vocab of size {vocab.size}")
        out.append(vocab.pieces[i])
    return "".join(out).replace(MARKER, " ").strip()


# ---------------------------------------------------------------------------
# the vocab file format


def save_vocab(vocab: Vocab, path) -> None:
    lines = [f"#munmt-vocab v1 size={vocab.size}"]
    lines.extend(f"{p}\t{i}" for i, p in enumerate(vocab.pieces))
    lines.append("#merges")
    lines.extend(f"{l} {r}" for l, r in vocab.merges)
    write_lines(path, lines)


def load_vocab(path) -> Vocab:
    raw = read_lines(path)
    if not raw:
        raise DataError(f"empty vocab file {path}")
    m = VOCAB_HEADER.match(raw[0])
    if not m:
        raise DataError(f"bad vocab header {raw[0]!r}")
    size = int(m.group(1))
    pieces = [None] * size
    merges = []
    in_merges = False
    for line in raw[1:]:
        if not line:
            continue
        if line == "#merges":
            in_merges = True
            continue
        if in_merges:
            parts = line.split(" ")
            if len(parts) != 2:
                raise DataError(f"bad merge line {line!r}")
            merges.append((parts[0], parts[1]))
        else:
            parts = line.split("\t")
            if len(parts) != 2 or not parts[1].isdecimal():
                raise DataError(f"bad vocab line {line!r}")
            piece, pid = parts[0], int(parts[1])
            if pid >= size or pieces[pid] is not None:
                raise DataError(f"bad or duplicate id in vocab line {line!r}")
            pieces[pid] = piece
    if any(p is None for p in pieces):
        raise DataError("vocab file does not cover ids 0..size-1")
    if tuple(pieces[: len(SPECIAL_PIECES)]) != SPECIAL_PIECES:
        raise DataError("vocab file does not start with the special pieces")
    return Vocab(pieces=pieces, merges=merges)

