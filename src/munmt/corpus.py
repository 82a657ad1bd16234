"""Datasets, the manifest file, and the two batch-construction regimes.

Stage 1/2 sampling: a Bernoulli(p_parallel) coin picks mono vs parallel;
the mono branch is uniform over mono datasets, the parallel branch weights
datasets by size with temperature T. Stage 3 walks every dataset once per
sweep using token-bucketed batches.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import tokenizer as tok
from .errors import ConfigError, DataError
from .files import Document, read_json, read_lines, write_json

MANIFEST_FORMAT = "munmt-manifest"


@dataclass(frozen=True)
class LanguageId:
    name: str
    is_english: bool = False
    is_target: bool = False


@dataclass
class Dataset:
    """One corpus: mono (items are int32 id arrays) or parallel (pairs of them)."""

    id: str
    kind: str  # "mono" | "parallel"
    lang: str | None = None  # mono
    src: str | None = None  # parallel
    tgt: str | None = None
    synthetic: bool = False
    items: list = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.items)


def temperature_weights(sizes, temperature: float = 5.0) -> np.ndarray:
    """Sampling weights proportional to (n_i / sum n)^(1/T), normalized."""
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.size == 0:
        raise DataError("no datasets to weight")
    if np.any(sizes <= 0):
        raise DataError("dataset sizes must be positive")
    w = (sizes / sizes.sum()) ** (1.0 / temperature)
    return w / w.sum()


def choose_dataset(registry, p_parallel: float, temperature: float,
                   rng: np.random.Generator) -> Dataset:
    """Pick the dataset for one stage-1/2 update: the parallel branch with
    probability `p_parallel`, weighted at `temperature` there."""
    mono = [d for d in registry if d.kind == "mono"]
    parallel = [d for d in registry if d.kind == "parallel"]
    take_parallel = rng.random() < p_parallel
    pool = parallel if take_parallel else mono
    if not pool:
        raise DataError(
            f"sampler chose the {'parallel' if take_parallel else 'mono'} branch "
            "but that pool is empty"
        )
    if take_parallel:
        weights = temperature_weights([d.size for d in pool], temperature)
        idx = int(rng.choice(len(pool), p=weights))
    else:
        idx = int(rng.integers(0, len(pool)))
    return pool[idx]


def pad_block(seqs, pad_id: int = tok.PAD) -> np.ndarray:
    """Stack variable-length id arrays into a right-padded int32 matrix."""
    if not seqs:
        raise DataError("cannot pad an empty batch")
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), pad_id, dtype=np.int32)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


def draw_batch(ds: Dataset, batch_size: int, rng: np.random.Generator) -> list:
    """`batch_size` of the dataset's items, drawn uniformly with replacement."""
    if ds.size == 0:
        raise DataError(f"dataset {ds.id} is empty")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    return [ds.items[i] for i in rng.integers(0, ds.size, size=batch_size)]


def bucket_batches(ds: Dataset, max_tokens: int = 2000, bucket_width: int = 8):
    """Partition a dataset's items into batches (lists of items) of similar
    length.

    Items are grouped by length bucket (width `bucket_width`) and each batch
    satisfies  (#items * padded_length) <= max_tokens, padded_length being the
    batch's longest item (longest side for pairs). Every item appears exactly
    once. Deterministic: buckets ascend, items keep corpus order inside one.
    """
    if max_tokens < 1 or bucket_width < 1:
        raise ConfigError("max_tokens and bucket_width must be >= 1")

    def length(item):
        if isinstance(item, tuple):
            return max(len(item[0]), len(item[1]))
        return len(item)

    buckets = {}
    for item in ds.items:
        L = length(item)
        if L > max_tokens:
            raise DataError(
                f"item of length {L} in {ds.id} cannot fit a {max_tokens}-token batch"
            )
        buckets.setdefault((L - 1) // bucket_width, []).append(item)

    batches = []
    for b in sorted(buckets):
        cur, cur_max = [], 0
        for item in buckets[b]:
            L = length(item)
            new_max = max(cur_max, L)
            if cur and (len(cur) + 1) * new_max > max_tokens:
                batches.append(cur)
                cur, new_max = [], L
            cur.append(item)
            cur_max = new_max
        if cur:
            batches.append(cur)
    return batches


# ---------------------------------------------------------------------------
# manifest


@dataclass
class DatasetEntry:
    """A dataset as a manifest or an entries file lists it: mono (lang and
    path) or parallel (src, tgt, src_path and tgt_path)."""

    id: str
    kind: str
    lang: str | None = None
    path: str | None = None
    src: str | None = None
    tgt: str | None = None
    src_path: str | None = None
    tgt_path: str | None = None
    synthetic: bool = False


@dataclass
class _LanguageEntry:
    name: str
    english: bool = False
    target: bool = False


@dataclass
class _Manifest(Document):
    languages: list[_LanguageEntry]
    datasets: list[DatasetEntry]


def load_manifest(path):
    """Parse and check the manifest. Returns (languages, dataset entries),
    each entry's paths resolved against the manifest's directory."""
    doc = read_json(path, "manifest", _Manifest, MANIFEST_FORMAT)
    declared = doc["languages"]
    languages = [LanguageId(e["name"], e.get("english", False), e.get("target", False))
                 for e in declared]
    problems = [f"bad or duplicate language entry {e!r}" for i, e in enumerate(declared)
                if not e["name"] or e["name"] in (d["name"] for d in declared[:i])]
    if sum(1 for l in languages if l.is_english) != 1:
        problems.append("manifest must declare exactly one English language")
    problems += entry_problems(doc["datasets"], languages)
    if problems:
        raise DataError("; ".join(problems))
    return languages, resolve_paths(doc["datasets"], path)


PATH_KEYS = ("path", "src_path", "tgt_path")


def resolve_paths(entries, listed_in) -> list:
    """Copies of the dataset entries listed in the file `listed_in`, each
    path joined to that file's directory (an absolute path stays as it is)."""
    root = os.path.dirname(os.path.abspath(listed_in))
    return [{k: os.path.join(root, v) if k in PATH_KEYS and v else v
             for k, v in e.items()} for e in entries]


def entry_problems(entries, languages, taken=()) -> list:
    """What is wrong with each DatasetEntry, wherever it was read from: an
    empty id or one already used (here or in `taken`), an unknown kind, a
    language not in `languages`, or an empty or missing path."""
    names = {l.name for l in languages}
    ids = set(taken)
    problems = []
    for entry in entries:
        did, kind = entry["id"], entry["kind"]
        if not did or did in ids:
            problems.append(f"bad or duplicate dataset id {entry!r}")
            continue
        ids.add(did)
        if kind == "mono":
            if entry.get("lang") not in names or not entry.get("path"):
                problems.append(f"mono dataset {did} needs a known lang and a path")
        elif kind == "parallel":
            if entry.get("src") not in names or entry.get("tgt") not in names:
                problems.append(f"parallel dataset {did} has unknown languages")
            if not entry.get("src_path") or not entry.get("tgt_path"):
                problems.append(f"parallel dataset {did} needs src_path and tgt_path")
        else:
            problems.append(f"dataset {did} has unknown kind {kind!r}")
    return problems


def save_manifest(path, languages, entries) -> None:
    write_json(path, asdict(_Manifest(MANIFEST_FORMAT, 1, [
        _LanguageEntry(l.name, l.is_english, l.is_target) for l in languages], entries)))


def _encode_kept(vocab: tok.Vocab, line: str, max_pieces: int):
    """The piece ids of one corpus line, or None when the line is blank or
    longer than `max_pieces` pieces."""
    ids = tok.encode_line(vocab, line)
    return ids if 0 < ids.size <= max_pieces else None


def load_dataset(entry, vocab: tok.Vocab, max_pieces: int) -> Dataset:
    """Read and tokenize one dataset entry, applying the length filter.
    Blank lines are dropped at ingestion; a pair is dropped when either side
    is blank or too long."""
    if entry["kind"] == "mono":
        lines = read_lines(entry["path"])
        kept = (_encode_kept(vocab, line, max_pieces) for line in lines)
        items = [ids for ids in kept if ids is not None]
        ds = Dataset(entry["id"], "mono", lang=entry["lang"], items=items)
    else:
        src_lines = read_lines(entry["src_path"])
        tgt_lines = read_lines(entry["tgt_path"])
        if len(src_lines) != len(tgt_lines):
            raise DataError(
                f"parallel dataset {entry['id']} sides have different line counts"
            )
        items = []
        for s, t in zip(src_lines, tgt_lines):
            si = _encode_kept(vocab, s, max_pieces)
            ti = _encode_kept(vocab, t, max_pieces)
            if si is not None and ti is not None:
                items.append((si, ti))
        ds = Dataset(entry["id"], "parallel", src=entry["src"], tgt=entry["tgt"],
                     synthetic=entry.get("synthetic", False), items=items)
    if not ds.items:
        raise DataError(f"dataset {entry['id']} is empty after filtering")
    return ds


def build_registry(entries, vocab: tok.Vocab, max_pieces: int) -> list:
    """Tokenize every entry's corpus into a Dataset (see load_dataset), in
    entry order."""
    return [load_dataset(e, vocab, max_pieces) for e in entries]
