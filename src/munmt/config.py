"""Experiment configuration: JSON file, dotted-key overrides, validation.

One top-level seed drives every random stream in a run through named
sub-seeds, so configs stay small and runs stay reproducible. Validation
collects every violation before raising: the types, by files.type_problems
as in every JSON document munmt reads, then the ranges and relations.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Literal

from .errors import ConfigError
from .files import file_digest, read_json, type_problems
from .synthlang import BenchmarkConfig

SCHEMA_VERSION = 1
OPTIMIZERS = ("adam", "adamax")


@dataclass
class LrSpec:
    peak: float = 1e-3
    warmup: int = 250
    total: int = 6000

    def validate(self, where, bad):
        if not (self.peak > 0):
            bad.append(f"{where}.lr.peak must be > 0, got {self.peak}")
        if self.warmup < 0:
            bad.append(f"{where}.lr.warmup must be >= 0, got {self.warmup}")
        if self.total < self.warmup:
            bad.append(f"{where}.lr.total must be >= warmup, got {self.total}")


def _check_optimizer(spec, where, bad):
    """The optimizer fields StageSpec and Stage3Spec share."""
    if spec.optimizer not in OPTIMIZERS:
        bad.append(f"{where}.optimizer must be adam or adamax, got {spec.optimizer!r}")
    if spec.weight_decay < 0:
        bad.append(f"{where}.weight_decay must be >= 0")
    if spec.clip_norm < 0:
        bad.append(f"{where}.clip_norm must be >= 0")


@dataclass
class StageSpec:
    steps: int = 5000
    optimizer: str = "adam"
    lr: LrSpec = field(default_factory=LrSpec)
    weight_decay: float = 0.0
    clip_norm: float = 0.0  # 0 disables clipping
    checkpoint_interval: int = 0  # 0 means final checkpoint only

    def validate(self, where, bad):
        if self.steps < 0:
            bad.append(f"{where}.steps must be >= 0, got {self.steps}")
        _check_optimizer(self, where, bad)
        if self.checkpoint_interval < 0:
            bad.append(f"{where}.checkpoint_interval must be >= 0")
        self.lr.validate(where, bad)


@dataclass
class Stage3Spec:
    sweeps: int = 20
    optimizer: str = "adamax"
    lr_divisor: float = 4.0  # applied to stage1's peak lr
    max_tokens: int = 2000
    bucket_width: int = 8
    eval_every: int = 5  # sweeps between dev evaluations; 0 disables early stopping
    patience: int = 2  # dev evaluations without improvement before stopping
    max_len: int = 48  # decode budget for bt/ct translations
    weight_decay: float = 0.0
    clip_norm: float = 0.0

    def validate(self, where, bad):
        if self.sweeps < 0:
            bad.append(f"{where}.sweeps must be >= 0")
        _check_optimizer(self, where, bad)
        if not (self.lr_divisor > 0):
            bad.append(f"{where}.lr_divisor must be > 0")
        if self.max_tokens < 1 or self.bucket_width < 1:
            bad.append(f"{where}.max_tokens and bucket_width must be >= 1")
        if self.eval_every < 0 or self.patience < 0:
            bad.append(f"{where}.eval_every and patience must be >= 0")
        if self.max_len < 2:
            bad.append(f"{where}.max_len must be >= 2")


@dataclass
class SyntheticSpec:
    round1_mono_fraction: float = 0.10
    round2_multiplier: int = 2
    english_lines_per_target: int = 1000
    keep_round1: bool = False  # round 2 replaces round 1 unless set

    def validate(self, where, bad):
        if not (0.0 < self.round1_mono_fraction <= 1.0):
            bad.append(f"{where}.round1_mono_fraction must be in (0,1]")
        if self.round2_multiplier < 1:
            bad.append(f"{where}.round2_multiplier must be >= 1")
        if self.english_lines_per_target < 1:
            bad.append(f"{where}.english_lines_per_target must be >= 1")


@dataclass
class EvalSpec:
    mode: str = "pretokenized"
    max_len: int = 48
    batch_size: int = 64

    def validate(self, where, bad):
        if self.mode not in ("pretokenized", "13a"):
            bad.append(f"{where}.mode must be pretokenized or 13a")
        if self.max_len < 2 or self.batch_size < 1:
            bad.append(f"{where}.max_len/batch_size out of range")


@dataclass
class ModelSpec:
    layers: int = 2
    hidden: int = 64
    ffn: int = 256
    heads: int = 4
    max_positions: int = 64

    def validate(self, where, bad):
        if self.layers < 1:
            bad.append(f"{where}.layers must be >= 1")
        if self.hidden < 1 or self.ffn < 1:
            bad.append(f"{where}.hidden/ffn must be >= 1")
        if self.heads < 1 or self.hidden % self.heads:
            bad.append(f"{where}.heads must divide hidden")
        if self.max_positions < 2:
            bad.append(f"{where}.max_positions must be >= 2")


# The run's stages in order: label (config section, file names) -> checkpoint tag
STAGES = {"stage1": "1", "stage2a": "2a", "stage2b": "2b", "stage3": "3"}


@dataclass
class ExperimentConfig:
    seed: int = 0
    vocab_size: int = 240
    max_pieces: int = 88
    batch_size: int = 8
    p_parallel: float = 0.5
    temperature: float = 5.0
    pivots: dict[str, list[str]] = field(default_factory=lambda: {"xa": ["aa"]})
    benchmark: dict = field(default_factory=dict)  # synthlang.BenchmarkConfig fields
    manifest: str | None = None  # filled in by synth-data, or points at real data
    testsets: str | None = None
    model: ModelSpec = field(default_factory=ModelSpec)
    stage1: StageSpec = field(default_factory=StageSpec)
    stage2a: StageSpec = field(default_factory=StageSpec)
    stage2b: StageSpec = field(default_factory=lambda: StageSpec(steps=1000))
    stage3: Stage3Spec = field(default_factory=Stage3Spec)
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    eval: EvalSpec = field(default_factory=EvalSpec)

    @property
    def piece_limit(self) -> int:
        """The longest corpus line, in pieces, a run trains on: max_pieces,
        capped by the model's position table (BOS/EOS take two slots)."""
        return min(self.max_pieces, self.model.max_positions - 2)

    def validate(self) -> "ExperimentConfig":
        bad = []
        if self.vocab_size < 6:
            bad.append(f"vocab_size must be >= 6, got {self.vocab_size}")
        if self.max_pieces < 2:
            bad.append(f"max_pieces must be >= 2, got {self.max_pieces}")
        if self.batch_size < 1:
            bad.append(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0.0 <= self.p_parallel <= 1.0):
            bad.append(f"p_parallel must be in [0,1], got {self.p_parallel}")
        if not (self.temperature > 0):
            bad.append(f"temperature must be > 0, got {self.temperature}")
        if not self.pivots:
            bad.append("pivots must name at least one target language")
        for t, pl in self.pivots.items():
            if not pl:
                bad.append(f"pivots.{t} must list at least one auxiliary language")
            if t in pl:
                bad.append(f"pivots.{t} lists the target itself")
        self.model.validate("model", bad)
        for label in STAGES:
            getattr(self, label).validate(label, bad)
        self.synthetic.validate("synthetic", bad)
        self.eval.validate("eval", bad)
        if self.benchmark or self.manifest is None:  # the run generates it
            # a plain dict, so its types are checked here rather than by
            # from_dict; the run chooses out_dir
            types_bad = type_problems(BenchmarkConfig, self.benchmark, "benchmark",
                                      skip=("out_dir",))
            bad += types_bad
            if not types_bad:
                try:
                    bench = BenchmarkConfig(out_dir="_probe", **self.benchmark).validate()
                except ConfigError as e:
                    bad.append(f"benchmark: {e}")
                else:
                    if bench.max_line_pieces > self.piece_limit:
                        bad.append(f"benchmark lines can reach {bench.max_line_pieces} "
                                   f"pieces, over the run's {self.piece_limit}-piece "
                                   "limit (max_pieces, or model.max_positions - 2)")
        if bad:
            raise ConfigError(bad)
        return self


def _build(default, doc: dict):
    """A copy of `default` with the keys `doc` gives replaced. A field whose
    default is a dataclass is built the same way from that default, so a
    partial section keeps the defaults of the keys it omits."""
    return replace(default, **{
        key: _build(getattr(default, key), val)
        if is_dataclass(getattr(default, key)) else val
        for key, val in doc.items()})


def from_dict(doc: dict) -> ExperimentConfig:
    """Build and validate a config; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    doc = dict(doc)
    version = doc.pop("schema_version", SCHEMA_VERSION)
    bad = type_problems(Literal[SCHEMA_VERSION], version, "schema_version")
    bad += type_problems(ExperimentConfig, doc)
    if bad:
        raise ConfigError(bad)
    return _build(ExperimentConfig(), doc).validate()


def to_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    doc["schema_version"] = SCHEMA_VERSION
    return doc


DATA_PATH_KEYS = ("manifest", "testsets")


def read_config_doc(path) -> dict:
    """The raw JSON document of a config file, before overrides and checks.
    Its manifest and testsets paths are relative to the file, and come back
    joined to its directory (an absolute path stays as it is)."""
    doc = read_json(path, "config", error=ConfigError)
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    root = os.path.dirname(os.path.abspath(path))
    for key in DATA_PATH_KEYS:
        if isinstance(doc.get(key), str) and doc[key]:
            doc[key] = os.path.join(root, doc[key])
    return doc


def load_config(path) -> ExperimentConfig:
    return from_dict(read_config_doc(path))


def parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like dotted.key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw  # bare strings allowed
    return key, val


def apply_overrides(doc: dict, overrides) -> dict:
    """Apply dotted-key overrides onto a raw config dict (pre-validation)."""
    doc = json.loads(json.dumps(doc))  # deep copy, JSON semantics
    for text in overrides or []:
        key, val = parse_override(text)
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = node[part] = {}
            elif not isinstance(nxt, dict):
                raise ConfigError(f"override {key!r} descends into non-object {part!r}")
            node = nxt
        node[parts[-1]] = val
    return doc


def config_digest(cfg: ExperimentConfig) -> str:
    """The digest of the config a run trains under. The manifest and testsets
    files count by the digest of their bytes, not by their paths, so the same
    run under another spelling of its directory has the same digest."""
    doc = to_dict(cfg)
    for key in DATA_PATH_KEYS:
        if doc[key] is not None:
            doc[key] = file_digest(doc[key], key)[:16]
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
