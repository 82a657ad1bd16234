"""Training-state persistence.

File layout, all integers little-endian:

    magic  b"MUNM"
    u16    format version (currently 1)
    u32    header length in bytes
    bytes  header, UTF-8 JSON
    N records, one per tensor:
        u16   name length, then that many UTF-8 bytes
        u8    rank
        u32   one per dimension
        f32   payload, C order

The header carries stage tag, step, vocab/config digests, optimizer
scalars, and the tensor count. Optimizer moment buffers are stored as
tensors under the reserved "optim/" prefix, which never collides with
parameter names (those use dots). Writes go to a temp file in the same
directory and are renamed into place, so a crash never leaves a partial
checkpoint at the target path.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile

import numpy as np

from .config import OPTIMIZERS
from .errors import CheckpointError
from .model import ModelConfig, ModelParams, param_shapes
from .optim import BETA1, BETA2, EPS, OptimState

MAGIC = b"MUNM"
VERSION = 1

STAGES = ("1", "2a", "2b", "3")
HEADER_TYPES = {"stage": str, "step": int, "tensor_count": int, "vocab_digest": str,
                "config_digest": str, "meta": dict, "optimizer": (dict, type(None))}
OPTIMIZER_TYPES = {"kind": str, "step": int, "names": list}


class Checkpoint:
    """A full training snapshot: parameters, optimizer state, provenance."""

    def __init__(self, params: ModelParams, opt: OptimState | None, stage: str,
                 step: int, vocab_digest: str = "", config_digest: str = "",
                 meta: dict | None = None):
        if stage not in STAGES:
            raise CheckpointError(f"unknown stage tag {stage!r}")
        self.params = params
        self.opt = opt
        self.stage = stage
        self.step = int(step)
        self.vocab_digest = vocab_digest
        self.config_digest = config_digest
        self.meta = dict(meta or {})


def _write_tensor(fh, name: str, arr: np.ndarray) -> None:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise CheckpointError(f"tensor name too long: {name[:40]}...")
    a = np.ascontiguousarray(arr, dtype="<f4")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", a.ndim))
    for d in a.shape:
        fh.write(struct.pack("<I", d))
    fh.write(a.tobytes())


def _read_exact(fh, n: int) -> bytes:
    """The next n bytes, refused before reading when fewer are left."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(f"truncated checkpoint file: {n} bytes wanted, {left} left")
    return fh.read(n)


def _wrong_types(doc: dict, types: dict) -> list:
    """The keys of `doc` whose value is not of the type `types` gives it."""
    return [k for k, kind in types.items() if k in doc and (
        not isinstance(doc[k], kind) or (kind is int and isinstance(doc[k], bool)))]


def _read_tensor(fh):
    (nlen,) = struct.unpack("<H", _read_exact(fh, 2))
    try:
        name = _read_exact(fh, nlen).decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"tensor name is not UTF-8 ({e})") from None
    (rank,) = struct.unpack("<B", _read_exact(fh, 1))
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank))
    data = np.frombuffer(_read_exact(fh, 4 * math.prod(dims)), dtype="<f4").reshape(dims)
    return name, data.astype(np.float32, copy=True)


def _check_geometry(path, tensors: dict, geom) -> None:
    """The parameter tensors must be exactly those of the model geometry
    `geom` (a ModelConfig as a dict), in order and in shape."""
    try:
        want = param_shapes(ModelConfig(**geom))
    except TypeError as e:
        raise CheckpointError(f"{path}: bad model geometry in meta ({e})") from None
    got = {name: arr.shape for name, arr in tensors.items()}
    if list(got.items()) != list(want.items()):
        wrong = sorted(n for n in got.keys() | want.keys() if got.get(n) != want.get(n))
        raise CheckpointError(f"{path}: tensors do not match the model geometry in meta: "
                              + (", ".join(wrong[:5]) or "out of order"))


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    path = os.fspath(path)
    tensors = list(ckpt.params.arrays.items())
    opt_header = None
    if ckpt.opt is not None:
        o = ckpt.opt
        opt_header = {
            "kind": o.kind, "step": o.step, "beta1": BETA1,
            "beta2": BETA2, "eps": EPS, "names": list(ckpt.params.arrays),
        }
        tensors.append(("optim/m", o.m))
        tensors.append(("optim/v", o.v))
    header = {
        "stage": ckpt.stage,
        "step": ckpt.step,
        "vocab_digest": ckpt.vocab_digest,
        "config_digest": ckpt.config_digest,
        "optimizer": opt_header,
        "meta": ckpt.meta,
        "tensor_count": len(tensors),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=d)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<H", VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for name, arr in tensors:
                _write_tensor(fh, name, arr)
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
        fh = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from None
    with fh:
        if _read_exact(fh, 4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<H", _read_exact(fh, 2))
        if version != VERSION:
            raise CheckpointError(f"{path}: unknown checkpoint version {version}")
        (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
        try:
            header = json.loads(_read_exact(fh, hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: corrupt header ({e})") from None
        if not isinstance(header, dict) or not {"stage", "step", "tensor_count"} <= header.keys():
            raise CheckpointError(f"{path}: header lacks stage, step or tensor_count")
        if bad := _wrong_types(header, HEADER_TYPES):
            raise CheckpointError(f"{path}: header fields of the wrong type: {bad}")
        tensors = {}
        for _ in range(header["tensor_count"]):
            name, arr = _read_tensor(fh)
            if name in tensors:
                raise CheckpointError(f"{path}: duplicate tensor {name!r}")
            tensors[name] = arr
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after last tensor")

    if expect_vocab_digest is not None and header.get("vocab_digest") != expect_vocab_digest:
        raise CheckpointError(
            f"{path}: vocab digest mismatch "
            f"(file {header.get('vocab_digest')!r}, active {expect_vocab_digest!r})")
    if expect_config_digest is not None and header.get("config_digest") != expect_config_digest:
        raise CheckpointError(
            f"{path}: config digest mismatch "
            f"(file {header.get('config_digest')!r}, active {expect_config_digest!r})")

    oh = header.get("optimizer")
    if oh is not None:
        missing = [k for k in ("kind", "step", "names", "beta1", "beta2", "eps")
                   if k not in oh]
        if missing:
            raise CheckpointError(f"{path}: optimizer header missing {missing}")
        if bad := _wrong_types(oh, OPTIMIZER_TYPES):
            raise CheckpointError(f"{path}: optimizer fields of the wrong type: {bad}")
        if oh["kind"] not in OPTIMIZERS:
            raise CheckpointError(f"{path}: unknown optimizer kind {oh['kind']!r}")
        if (oh["beta1"], oh["beta2"], oh["eps"]) != (BETA1, BETA2, EPS):
            raise CheckpointError(
                f"{path}: optimizer betas/eps {oh['beta1']}, {oh['beta2']}, "
                f"{oh['eps']} differ from {BETA1}, {BETA2}, {EPS}")
        for aux in ("optim/m", "optim/v"):
            if aux not in tensors:
                raise CheckpointError(f"{path}: optimizer header present but {aux} missing")
        m = tensors.pop("optim/m")
        v = tensors.pop("optim/v")
        if oh["names"] != list(tensors):
            raise CheckpointError(f"{path}: optimizer names do not match the saved tensors")
    if "model" in header.get("meta", {}):
        _check_geometry(path, tensors, header["meta"]["model"])
    params = ModelParams(tensors)
    opt = None
    if oh is not None:
        if m.shape != params.flat.shape or v.shape != params.flat.shape:
            raise CheckpointError(f"{path}: optimizer buffer size mismatch")
        opt = OptimState(kind=oh["kind"], m=m, v=v, step=int(oh["step"]))

    return Checkpoint(params, opt, header["stage"], header["step"],
                      header.get("vocab_digest", ""), header.get("config_digest", ""),
                      header.get("meta", {}))
