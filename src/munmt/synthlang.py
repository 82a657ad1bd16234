"""Toy language families with an exact translation oracle.

Every language derives from a shared base (the English stand-in) through
two mechanical transforms: a bijective word-for-word lexicon, then an
optional reordering that reverses every consecutive window of w words.
Both are exactly invertible, so ground-truth translations exist for any
language pair, in any direction, for free.

The base corpus draws word types from a Zipf(1.1) distribution through an
order-2 Markov wrinkle: in the rank tail, adjacent rank pairs swap places
depending on the two previous words, which adds real context dependence
while leaving the unigram marginal within a whisker of the Zipf target.

A derived language may borrow surface forms from donor languages for a
fraction of its word types ("cognates"). Borrowed words keep their
meaning, so a target language that shares cognates with supervised
auxiliary languages gives the model a lexical bridge without any target
parallel data.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import LanguageId, save_manifest
from .errors import ConfigError, DataError
from .files import Document, read_json, write_json, write_lines
from .rng import named_rng

ZIPF_EXPONENT = 1.1
TAIL_START = 10  # ranks below this never swap; head mass stays exact


# ---------------------------------------------------------------------------
# base corpus generation


@dataclass
class CorpusSpec:
    vocab_types: int
    len_min: int
    len_max: int
    lines: int
    seed: int
    label: str = "base"  # names the rng stream


def zipf_probs(vocab_types: int, exponent: float = ZIPF_EXPONENT) -> np.ndarray:
    ranks = np.arange(1, vocab_types + 1, dtype=np.float64)
    p = ranks ** (-exponent)
    return p / p.sum()


def _swap_partner(rank: int, vocab_types: int) -> int:
    # tail ranks pair up (10,11), (12,13), ...; head ranks have no partner
    if rank < TAIL_START:
        return rank
    pair = TAIL_START + 2 * ((rank - TAIL_START) // 2)
    partner = pair + (1 - (rank - pair))
    return partner if partner < vocab_types else rank


def _context_swaps(prev2: int, prev1: int, rank: int) -> bool:
    return (prev2 * 131 + prev1 * 31 + rank) % 2 == 1


def gen_rank_lines(spec: CorpusSpec) -> list:
    """Sentences as lists of word-type ranks. Deterministic given `spec`,
    whose bounds BenchmarkConfig.validate checks."""
    rng = named_rng(spec.seed, f"synthlang:{spec.label}")
    cdf = np.cumsum(zipf_probs(spec.vocab_types))
    partners = [_swap_partner(r, spec.vocab_types) for r in range(spec.vocab_types)]
    out = []
    for _ in range(spec.lines):
        n = int(rng.integers(spec.len_min, spec.len_max + 1))
        draws = np.searchsorted(cdf, rng.random(n), side="right").tolist()
        prev2, prev1 = spec.vocab_types + 1, spec.vocab_types + 2
        sent = []
        for r in draws:
            r = min(r, spec.vocab_types - 1)
            partner = partners[r]
            if partner != r and _context_swaps(prev2, prev1, min(r, partner)):
                r = partner
            sent.append(r)
            prev2, prev1 = prev1, r
        out.append(sent)
    return out


def base_surfaces(prefix: str, vocab_types: int) -> list:
    return [f"{prefix}{t}" for t in range(vocab_types)]


def gen_base_corpus(spec: CorpusSpec, surfaces=None) -> list:
    """Base-language text lines, one sentence per line."""
    surfaces = surfaces or base_surfaces("en", spec.vocab_types)
    if len(surfaces) < spec.vocab_types:
        raise ConfigError("surface table smaller than vocab_types")
    return [" ".join(surfaces[r] for r in sent) for sent in gen_rank_lines(spec)]


# ---------------------------------------------------------------------------
# languages


@dataclass
class LanguageSpec:
    name: str
    base: bool
    lexicon: dict[str, str]  # base surface -> this language's surface, bijective
    window: int  # 0 keeps base order; w >= 2 reverses each w-window
    prefix: str

    def validate(self):
        bad = []
        if not self.lexicon:
            bad.append(f"{self.name}: empty lexicon")
        if len(set(self.lexicon.values())) != len(self.lexicon):
            bad.append(f"{self.name}: lexicon is not a bijection")
        if self.window == 1 or self.window < 0:
            bad.append(f"{self.name}: window must be 0 or >= 2, got {self.window}")
        if self.base and (self.window != 0 or any(k != v for k, v in self.lexicon.items())):
            bad.append(f"{self.name}: base language must be the identity")
        if bad:
            raise ConfigError(bad)
        return self

    def inverse_lexicon(self) -> dict:
        inv = getattr(self, "_inv", None)
        if inv is None:
            inv = {v: k for k, v in self.lexicon.items()}
            object.__setattr__(self, "_inv", inv)
        return inv


def window_reverse(words, w: int) -> list:
    """Reverse each consecutive window of w words; an involution."""
    words = list(words)
    if w <= 1:
        return words
    out = []
    for i in range(0, len(words), w):
        out.extend(reversed(words[i:i + w]))
    return out


def _map_words(words, table: dict, lang: str) -> list:
    out = []
    for w in words:
        s = table.get(w)
        if s is None:
            raise DataError(f"word {w!r} has no mapping for language {lang}")
        out.append(s)
    return out


def derive_sentence(base_sentence: str, spec: LanguageSpec) -> str:
    mapped = _map_words(base_sentence.split(), spec.lexicon, spec.name)
    return " ".join(window_reverse(mapped, spec.window))


def to_base(sentence: str, spec: LanguageSpec) -> str:
    unordered = window_reverse(sentence.split(), spec.window)
    return " ".join(_map_words(unordered, spec.inverse_lexicon(), spec.name))


def oracle_translate(sentence: str, frm: LanguageSpec, to: LanguageSpec) -> str:
    return derive_sentence(to_base(sentence, frm), to)


def make_base_spec(name: str, vocab_types: int) -> LanguageSpec:
    surf = base_surfaces(name, vocab_types)
    return LanguageSpec(name, True, {s: s for s in surf}, 0, name).validate()


_COGNATE_CYCLE = 20  # cognate shares quantized to twentieths, spread over ranks


def make_derived_spec(name: str, base: LanguageSpec, window: int = 0,
                      donors=None) -> LanguageSpec:
    """donors: list of (donor_spec, fraction); BenchmarkConfig.validate checks the fractions.

    Word type t borrows donor j's surface when t mod 20 falls in donor j's
    share, so cognates spread evenly across frequency ranks.
    """
    base_words = list(base.lexicon)
    slots = []
    for donor, frac in donors or []:
        slots.extend([donor] * round(frac * _COGNATE_CYCLE))
    lexicon = {}
    for t, bw in enumerate(base_words):
        slot = t % _COGNATE_CYCLE
        if slot < len(slots):
            lexicon[bw] = slots[slot].lexicon[bw]
        else:
            lexicon[bw] = f"{name}{t}"
    return LanguageSpec(name, False, lexicon, window, name).validate()


def save_language_specs(path, specs) -> None:
    write_json(path, asdict(_LanguageFile("munmt-languages", 1, list(specs))))


@dataclass
class _LanguageFile(Document):
    languages: list[LanguageSpec]


def load_language_specs(path) -> dict:
    doc = read_json(path, "language file", _LanguageFile, "munmt-languages")
    specs = (LanguageSpec(**entry).validate() for entry in doc["languages"])
    return {spec.name: spec for spec in specs}


# ---------------------------------------------------------------------------
# benchmark construction


@dataclass
class TargetSpec:
    window: int = 2
    cognates: dict[str, float] = field(default_factory=dict)  # auxiliary -> fraction


@dataclass
class BenchmarkConfig:
    out_dir: str
    seed: int = 0
    vocab_types: int = 50
    len_min: int = 4
    len_max: int = 9
    base_name: str = "en"
    auxiliaries: list[str] = field(default_factory=lambda: ["aa", "ab"])
    targets: dict[str, TargetSpec] = field(default_factory=lambda: {
        "xa": TargetSpec(window=2, cognates={"aa": 0.4, "ab": 0.4})})
    mono_lines: int = 2000
    parallel_lines: int = 1000
    dev_lines: int = 150
    test_lines: int = 300
    noise_dropout: float = 0.0  # word dropout on mono training text only

    LINE_COUNTS = ("mono_lines", "parallel_lines", "dev_lines", "test_lines")

    def normalized_targets(self) -> dict:
        out = {}
        for name, t in self.targets.items():
            if isinstance(t, dict):
                t = TargetSpec(**t)
            out[name] = t
        return out

    @property
    def language_names(self) -> list:
        return [self.base_name] + list(self.auxiliaries) + list(self.targets)

    def validate(self):
        """Ranges and relations between fields. The types are the caller's:
        config checks the section's against these fields first."""
        bad = []
        names = self.language_names
        if len(set(names)) != len(names):
            bad.append("language names must be distinct (a target listed as an "
                       "auxiliary would receive parallel data)")
        if not self.targets:
            bad.append("need at least one target language")
        if not self.auxiliaries:
            bad.append("need at least one auxiliary language")
        if self.vocab_types < TAIL_START + 2:
            bad.append(f"vocab_types must be >= {TAIL_START + 2}, got {self.vocab_types}")
        if not (1 <= self.len_min <= self.len_max):
            bad.append(f"need 1 <= len_min <= len_max, got {self.len_min}..{self.len_max}")
        for name, t in self.normalized_targets().items():
            if t.window == 1 or t.window < 0:
                bad.append(f"target {name}: window must be 0 or >= 2")
            for donor, frac in t.cognates.items():
                if donor == self.base_name:
                    bad.append(f"target {name}: cognates with the base language "
                               "would leak supervision")
                elif donor not in self.auxiliaries:
                    bad.append(f"target {name}: unknown cognate donor {donor!r}")
                if not (0.0 <= frac <= 1.0):
                    bad.append(f"target {name}: cognate fraction {frac!r} out of range")
                elif abs(frac * _COGNATE_CYCLE - round(frac * _COGNATE_CYCLE)) > 1e-9:
                    bad.append(f"target {name}: cognate fraction {frac!r} is not a "
                               f"multiple of 1/{_COGNATE_CYCLE}")
            if sum(t.cognates.values()) > 1.0 + 1e-9:
                bad.append(f"target {name}: cognate fractions exceed 1")
        if not (0.0 <= self.noise_dropout < 1.0):
            bad.append(f"noise_dropout must be in [0,1), got {self.noise_dropout!r}")
        if min(getattr(self, key) for key in self.LINE_COUNTS) < 1:
            bad.append("all line counts must be >= 1")
        if bad:
            raise ConfigError(bad)
        return self

    @property
    def max_line_pieces(self) -> int:
        """The most BPE pieces a generated line can take: len_max words of
        the longest surface (name prefix + decimal rank), one piece per
        character plus the word marker."""
        longest = (max(len(n) for n in self.language_names)
                   + len(str(self.vocab_types - 1)))
        return self.len_max * (longest + 1)


def _word_dropout(line: str, p: float, rng) -> str:
    if p <= 0.0:
        return line
    words = line.split()
    kept = [w for w in words if rng.random() >= p]
    return " ".join(kept) if kept else words[0]


class _BaseStream:
    """Deduplicated base sentences, drawn lazily in chunks."""

    def __init__(self, cfg: BenchmarkConfig):
        self.cfg = cfg
        self.seen = set()
        self.buf = deque()
        self.chunk = 0

    def take(self, n: int, reject=None) -> list:
        out = []
        stall = 0
        while len(out) < n:
            if not self.buf:
                spec = CorpusSpec(self.cfg.vocab_types, self.cfg.len_min,
                                  self.cfg.len_max, 4096, self.cfg.seed,
                                  label=f"bench:{self.chunk}")
                self.buf = deque(gen_base_corpus(
                    spec, base_surfaces(self.cfg.base_name, self.cfg.vocab_types)))
                self.chunk += 1
                stall += 1
                if stall > 200:
                    raise DataError("base sentence space too small for the "
                                    "requested corpus sizes")
            line = self.buf.popleft()
            if line in self.seen:
                continue
            self.seen.add(line)
            if reject is not None and reject(line):
                continue
            out.append(line)
        return out


def build_benchmark(cfg: BenchmarkConfig) -> dict:
    """Generate corpora, manifest, language table, and test sets.

    Returns a dict of the file paths written. Directory layout is flat under
    cfg.out_dir; all manifest paths are relative to it.
    """
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    targets = cfg.normalized_targets()

    base = make_base_spec(cfg.base_name, cfg.vocab_types)
    specs = {cfg.base_name: base}
    for name in cfg.auxiliaries:
        specs[name] = make_derived_spec(name, base, window=0)
    for name, t in targets.items():
        donors = [(specs[d], f) for d, f in sorted(t.cognates.items())]
        specs[name] = make_derived_spec(name, base, window=t.window, donors=donors)

    stream = _BaseStream(cfg)
    lang_order = [cfg.base_name] + sorted(cfg.auxiliaries) + sorted(targets)
    paths = {}
    train_strings = set()

    def write(name, lines):
        paths[name] = os.path.join(cfg.out_dir, name)
        write_lines(paths[name], lines)
        return name

    entries = []
    for lang in lang_order:
        raw = stream.take(cfg.mono_lines)
        derived = [derive_sentence(s, specs[lang]) for s in raw]
        noise_rng = named_rng(cfg.seed, f"bench:noise:{lang}")
        noisy = [_word_dropout(s, cfg.noise_dropout, noise_rng) for s in derived]
        train_strings.update(noisy)
        fn = write(f"mono.{lang}.txt", noisy)
        entries.append({"id": f"mono.{lang}", "kind": "mono", "lang": lang, "path": fn})

    for aux in sorted(cfg.auxiliaries):
        raw = stream.take(cfg.parallel_lines)
        side_a = [derive_sentence(s, specs[aux]) for s in raw]
        side_e = list(raw)  # base spec is the identity
        train_strings.update(side_a)
        train_strings.update(side_e)
        fa = write(f"parallel.{aux}-{cfg.base_name}.{aux}.txt", side_a)
        fe = write(f"parallel.{aux}-{cfg.base_name}.{cfg.base_name}.txt", side_e)
        entries.append({"id": f"parallel.{aux}-{cfg.base_name}", "kind": "parallel",
                        "src": aux, "tgt": cfg.base_name,
                        "src_path": fa, "tgt_path": fe})

    def collides(base_line: str) -> bool:
        return any(derive_sentence(base_line, specs[l]) in train_strings
                   for l in lang_order)

    split_files = {}
    for split, count in (("dev", cfg.dev_lines), ("test", cfg.test_lines)):
        raw = stream.take(count, reject=collides)
        split_files[split] = {}
        for lang in lang_order:
            fn = write(f"{split}.{lang}.txt",
                       [derive_sentence(s, specs[lang]) for s in raw])
            split_files[split][lang] = fn

    languages = [LanguageId(l, is_english=(l == cfg.base_name),
                            is_target=(l in targets)) for l in lang_order]
    manifest_path = os.path.join(cfg.out_dir, "manifest.json")
    save_manifest(manifest_path, languages, entries)

    directions = []
    for t in sorted(targets):
        directions += [f"{cfg.base_name}-{t}", f"{t}-{cfg.base_name}"]
    testsets_path = os.path.join(cfg.out_dir, "testsets.json")
    write_json(testsets_path, asdict(_Testsets("munmt-testsets", 1, split_files["dev"],
                                               split_files["test"], directions)))

    langs_path = os.path.join(cfg.out_dir, "languages.json")
    save_language_specs(langs_path, [specs[l] for l in lang_order])

    cfg_path = os.path.join(cfg.out_dir, "benchmark.json")
    doc = asdict(cfg)
    del doc["out_dir"]  # the file's own directory: its bytes must not depend on it
    doc["targets"] = {k: asdict(v) for k, v in targets.items()}
    write_json(cfg_path, doc)

    paths.update(manifest=manifest_path, testsets=testsets_path,
                 languages=langs_path, benchmark=cfg_path)
    return paths


@dataclass
class _Testsets(Document):
    dev: dict[str, str]  # language -> file, relative to the testsets file
    test: dict[str, str]
    eval_directions: list[str]


def load_testsets(path) -> dict:
    """The testsets document, each dev and test file resolved against the
    directory of `path`, each eval direction checked to name two languages
    that both splits map."""
    doc = read_json(path, "testsets file", _Testsets, "munmt-testsets")
    root = os.path.dirname(os.path.abspath(path))
    for split in ("dev", "test"):
        doc[split] = {lang: os.path.join(root, p) for lang, p in doc[split].items()}
    if not doc["eval_directions"]:
        raise DataError(f"{path}: eval_directions must be a non-empty list of "
                        "directions")
    for d in doc["eval_directions"]:
        pair = d.split("-")
        if len(pair) != 2 or not all(l in doc[s] for s in ("dev", "test") for l in pair):
            raise DataError(f"{path}: eval direction {d!r} must name two languages "
                            "that dev and test both map")
    return doc
