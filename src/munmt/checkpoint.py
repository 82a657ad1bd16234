"""Training-state persistence.

File layout, all integers little-endian:

    magic  b"MUNM"
    u16    format version (currently 2)
    u32    header length in bytes
    bytes  header, UTF-8 JSON
    f32    the parameters, laid out like `ModelParams.flat`
    f32    with an optimizer: its first, then its second moment, each laid
           out like the parameters
    32     sha256 of every byte before it

The header carries stage tag, step, vocab/config digests, the optimizer's
kind and step, and `meta`, whose "model" entry (a ModelConfig as a dict) is
the model geometry. The geometry fixes the payload: `param_shapes` gives
every parameter's name, shape and place in the flat buffer, so no name or
shape is stored. A load checks the digest before it trusts any header field,
and sizes the payload from the geometry before it lays out any parameter.
Writes go to a temp file in the same directory and are renamed into place,
so a crash never leaves a partial checkpoint at the target path.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .config import OPTIMIZERS, STAGES, type_problems
from .errors import CheckpointError, ConfigError
from .model import ModelConfig, ModelParams, count_params, param_shapes
from .optim import OptimState

MAGIC = b"MUNM"
VERSION = 2
PREAMBLE = struct.Struct("<4sHI")  # magic, version, header length
DIGEST_SIZE = 32


@dataclass
class _OptimizerHeader:
    kind: str
    step: int


@dataclass
class _Header:
    """The JSON header, as it is written and as a load requires it."""

    stage: str
    step: int
    vocab_digest: str
    config_digest: str
    optimizer: _OptimizerHeader | None
    meta: dict


class Checkpoint:
    """A full training snapshot: parameters, optimizer state, provenance."""

    def __init__(self, params: ModelParams, opt: OptimState | None, stage: str,
                 step: int, vocab_digest: str = "", config_digest: str = "",
                 meta: dict | None = None):
        if stage not in STAGES.values():
            raise CheckpointError(f"unknown stage tag {stage!r}")
        self.params = params
        self.opt = opt
        self.stage = stage
        self.step = int(step)
        self.vocab_digest = vocab_digest
        self.config_digest = config_digest
        self.meta = dict(meta or {})


def _check(path, doc, tp, where: str) -> None:
    """Refuse `doc` unless it names every field of `tp`, and only those,
    each of its declared type."""
    if bad := type_problems(tp, doc, where, complete=True):
        raise CheckpointError(f"{path}: " + "; ".join(bad))


def _geometry(path, meta: dict) -> ModelConfig:
    """The model geometry in `meta`, checked field by field; nothing is
    built per layer here."""
    if "model" not in meta:
        raise CheckpointError(f"{path}: meta names no model geometry")
    _check(path, meta["model"], ModelConfig, "meta.model")
    try:
        return ModelConfig(**meta["model"]).validate()
    except ConfigError as e:
        raise CheckpointError(f"{path}: bad model geometry in meta ({e})") from None


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    path = os.fspath(path)
    flat = ckpt.params.flat
    shapes = [(k, a.shape) for k, a in ckpt.params.arrays.items()]
    if shapes != list(param_shapes(_geometry(path, ckpt.meta)).items()):
        raise CheckpointError(f"{path}: parameters do not match the model geometry in meta")
    buffers = [flat]
    opt_header = None
    if ckpt.opt is not None:
        o = ckpt.opt
        if o.m.shape != flat.shape or o.v.shape != flat.shape:
            raise CheckpointError(f"{path}: optimizer moments are not laid out "
                                  "like the parameters")
        opt_header = _OptimizerHeader(o.kind, o.step)
        buffers += [o.m, o.v]
    header = _Header(ckpt.stage, ckpt.step, ckpt.vocab_digest, ckpt.config_digest,
                     opt_header, ckpt.meta)
    blob = json.dumps(asdict(header), sort_keys=True).encode("utf-8")
    chunks = [PREAMBLE.pack(MAGIC, VERSION, len(blob)), blob]
    chunks += [np.ascontiguousarray(b, dtype="<f4") for b in buffers]
    digest = hashlib.sha256()
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                digest.update(chunk)
                fh.write(chunk)
            fh.write(digest.digest())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path, expect_vocab_digest: str | None = None,
                    expect_config_digest: str | None = None) -> Checkpoint:
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            raw = memoryview(fh.read())
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    if len(raw) < PREAMBLE.size + DIGEST_SIZE:
        raise CheckpointError(f"{path}: truncated checkpoint file ({len(raw)} bytes)")
    magic, version, hlen = PREAMBLE.unpack_from(raw)
    if magic != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    if version != VERSION:
        raise CheckpointError(f"{path}: unknown checkpoint version {version}")
    body = raw[:-DIGEST_SIZE]
    if hashlib.sha256(body).digest() != raw[-DIGEST_SIZE:]:
        raise CheckpointError(f"{path}: digest mismatch, the file is corrupt")
    payload = len(body) - PREAMBLE.size - hlen
    if payload < 0:
        raise CheckpointError(f"{path}: header length {hlen} runs past the end of the file")
    try:
        header = json.loads(bytes(body[PREAMBLE.size:PREAMBLE.size + hlen]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt header ({e})") from None
    _check(path, header, _Header, "header")

    if expect_vocab_digest is not None and header["vocab_digest"] != expect_vocab_digest:
        raise CheckpointError(
            f"{path}: vocab digest mismatch "
            f"(file {header['vocab_digest']!r}, active {expect_vocab_digest!r})")
    if expect_config_digest is not None and header["config_digest"] != expect_config_digest:
        raise CheckpointError(
            f"{path}: config digest mismatch "
            f"(file {header['config_digest']!r}, active {expect_config_digest!r})")

    oh = header["optimizer"]
    if oh is not None and oh["kind"] not in OPTIMIZERS:
        raise CheckpointError(f"{path}: unknown optimizer kind {oh['kind']!r}")
    geom = _geometry(path, header["meta"])
    n = count_params(geom)
    want = 4 * n * (1 if oh is None else 3)
    if payload != want:
        raise CheckpointError(f"{path}: payload is {payload} bytes, the model geometry "
                              f"in meta needs {want}")
    floats = np.frombuffer(body, dtype="<f4", offset=PREAMBLE.size + hlen)
    params = ModelParams({k: np.empty(s, np.float32) for k, s in param_shapes(geom).items()})
    params.flat[...] = floats[:n]
    opt = None
    if oh is not None:
        opt = OptimState(kind=oh["kind"], m=floats[n:2 * n].astype(np.float32),
                         v=floats[2 * n:].astype(np.float32), step=oh["step"])

    return Checkpoint(params, opt, header["stage"], header["step"],
                      header["vocab_digest"], header["config_digest"], header["meta"])
