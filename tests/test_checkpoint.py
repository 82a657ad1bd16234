"""Checkpoint format: roundtrip fidelity and corruption detection."""

import hashlib
import json
import struct
import time
from dataclasses import asdict

import numpy as np
import pytest

from munmt.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from munmt.errors import CheckpointError
from munmt.model import ModelConfig, ModelParams, init_params
from munmt.optim import OptimState


def cfg():
    return ModelConfig(languages=["en", "xa"], vocab_size=17, layers=1,
                       hidden=8, ffn=16, heads=2, max_positions=16)


GEOM = {"model": asdict(cfg())}


def _save(path, opt_kind=None, step=0, meta=GEOM):
    """Save a one-layer checkpoint of cfg() at `path` and return its params."""
    params = init_params(cfg(), seed=5)
    opt = OptimState.init(params, kind=opt_kind) if opt_kind else None
    save_checkpoint(Checkpoint(params, opt, "1", step, meta=meta), path)
    return params


def _reseal(path, body):
    """Write `body` to `path` followed by its sha256, as save_checkpoint does,
    so a deliberate edit reaches the check after the digest."""
    path.write_bytes(body + hashlib.sha256(body).digest())


def _header(path):
    """The JSON header of the checkpoint at `path`, and the payload after it
    (the digest trailer dropped)."""
    raw = path.read_bytes()[:-32]
    (hlen,) = struct.unpack("<I", raw[6:10])
    return json.loads(raw[10:10 + hlen]), raw[10 + hlen:]


def _rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the checkpoint at `path` in place,
    and re-seal the file."""
    header, payload = _header(path)
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    _reseal(path, path.read_bytes()[:6] + struct.pack("<I", len(blob)) + blob + payload)


def test_roundtrip_bit_identical(tmp_path):
    params = init_params(cfg(), seed=3)
    ck = Checkpoint(params, None, "1", 42, "vd", "cd", {"note": "x", **GEOM})
    p = tmp_path / "a.ckpt"
    save_checkpoint(ck, p)
    back = load_checkpoint(p)
    assert back.stage == "1" and back.step == 42
    assert back.vocab_digest == "vd" and back.config_digest == "cd"
    assert back.meta == {"note": "x", **GEOM}
    assert back.opt is None
    assert list(back.params.arrays) == list(params.arrays)
    for k in params.arrays:
        assert back.params.arrays[k].dtype == np.float32
        np.testing.assert_array_equal(back.params.arrays[k], params.arrays[k])


def test_roundtrip_preserves_optimizer_state(tmp_path):
    params = init_params(cfg(), seed=4)
    opt = OptimState.init(params, kind="adamax")
    opt.m[:] = np.linspace(-1, 1, opt.m.size, dtype=np.float32)
    opt.v[:] = np.linspace(0, 2, opt.v.size, dtype=np.float32)
    opt.step = 7
    p = tmp_path / "b.ckpt"
    save_checkpoint(Checkpoint(params, opt, "2a", 9, meta=GEOM), p)
    back = load_checkpoint(p)
    assert back.opt.kind == "adamax" and back.opt.step == 7
    assert _header(p)[0]["optimizer"] == {"kind": "adamax", "step": 7}
    np.testing.assert_array_equal(back.opt.m, opt.m)
    np.testing.assert_array_equal(back.opt.v, opt.v)
    back.opt.m += 1  # the moments are the loader's own, writable buffers
    for a in back.params.arrays.values():
        assert np.shares_memory(a, back.params.flat)


def test_wrongly_sized_second_moment_rejected(tmp_path):
    """Moments not laid out like params.flat are refused when saved, and no
    file is left behind."""
    params = init_params(cfg(), seed=4)
    opt = OptimState.init(params, kind="adam")
    opt.v = np.zeros(5, dtype=np.float32)
    with pytest.raises(CheckpointError, match="not laid out like the parameters"):
        save_checkpoint(Checkpoint(params, opt, "1", 3, meta=GEOM), tmp_path / "v5.ckpt")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("key, value, match", [
    ("kind", None, "missing"), ("step", None, "missing"),
    ("kind", "sgd", "unknown optimizer kind"), ("step", "3", r"header\.optimizer\.step"),
], ids=["kind-None", "step-None", "kind-sgd", "step-3"])
def test_untrusted_optimizer_header_rejected(tmp_path, key, value, match):
    """A missing key, an unknown kind, or a step that is no integer: the
    header is refused (value None removes the key)."""
    p = tmp_path / "oh.ckpt"
    _save(p, opt_kind="adam", step=3)
    load_checkpoint(p)

    def edit(header):
        if value is None:
            del header["optimizer"][key]
        else:
            header["optimizer"][key] = value

    _rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


def test_digest_enforcement(tmp_path):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(params, None, "3", 1, "vocA", "cfgA", GEOM), p)
    load_checkpoint(p, expect_vocab_digest="vocA", expect_config_digest="cfgA")
    with pytest.raises(CheckpointError, match="vocab digest mismatch"):
        load_checkpoint(p, expect_vocab_digest="vocB")
    with pytest.raises(CheckpointError, match="config digest mismatch"):
        load_checkpoint(p, expect_config_digest="cfgB")


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(p)


def test_unknown_version_rejected(tmp_path):
    """Version 1 (the per-tensor record layout) has no reader any more."""
    p = tmp_path / "v.ckpt"
    _save(p)
    for version in (1, 99):
        raw = bytearray(p.read_bytes())
        raw[4:6] = version.to_bytes(2, "little")
        _reseal(p, bytes(raw[:-32]))
        with pytest.raises(CheckpointError, match=f"unknown checkpoint version {version}"):
            load_checkpoint(p)


def test_truncation_rejected(tmp_path):
    p = tmp_path / "t.ckpt"
    _save(p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(p)
    p.write_bytes(raw[:20])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)


def test_trailing_garbage_rejected(tmp_path):
    p = tmp_path / "g.ckpt"
    _save(p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(p)


def test_every_flipped_byte_rejected(tmp_path):
    """The digest covers header and payload: a flipped bit anywhere, in the
    magic, version, header length, header, parameters, moments or the digest
    itself, is refused."""
    p = tmp_path / "f.ckpt"
    _save(p, opt_kind="adam")
    raw = p.read_bytes()
    hlen = struct.unpack("<I", raw[6:10])[0]
    spread = np.linspace(0, len(raw) - 1, 300).astype(int).tolist()
    positions = sorted({*range(10 + hlen + 8), *spread, *range(len(raw) - 40, len(raw))})
    assert len(positions) > 300
    for at in positions:
        flipped = bytearray(raw)
        flipped[at] ^= 0x10
        p.write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)


@pytest.mark.parametrize("key, value", [
    ("vocab_digest", 1), ("step", "3"), ("step", True), ("meta", [1]),
])
def test_header_field_of_the_wrong_type_rejected(tmp_path, key, value):
    p = tmp_path / "w.ckpt"
    _save(p, step=3)
    _rewrite_header(p, lambda header: header.update({key: value}))
    with pytest.raises(CheckpointError, match=rf"header\.{key} must be"):
        load_checkpoint(p)


def test_geometry_larger_than_the_file_rejected(tmp_path):
    """A header length or a geometry that claims more than the file holds is
    refused before anything that size is built: a billion layers must not be
    laid out one by one. A geometry that needs less than the payload is
    refused too."""
    p = tmp_path / "d.ckpt"
    _save(p)
    raw = bytearray(p.read_bytes()[:-32])
    raw[6:10] = struct.pack("<I", 0xFFFFFFFF)
    _reseal(p, bytes(raw))
    with pytest.raises(CheckpointError, match="runs past the end of the file"):
        load_checkpoint(p)

    for field, value in (("layers", 10 ** 9), ("hidden", 16), ("hidden", 4)):
        _save(p)
        _rewrite_header(p, lambda h: h["meta"]["model"].update({field: value}))
        started = time.perf_counter()
        with pytest.raises(CheckpointError, match="the model geometry in meta needs"):
            load_checkpoint(p)
        assert time.perf_counter() - started < 2.0


@pytest.mark.parametrize("value", [8.5, "8", True], ids=["float", "str", "bool"])
def test_geometry_field_of_the_wrong_type_rejected(tmp_path, value):
    p = tmp_path / "gt.ckpt"
    _save(p)
    _rewrite_header(p, lambda h: h["meta"]["model"].update(hidden=value))
    with pytest.raises(CheckpointError, match=r"meta\.model\.hidden must be an int"):
        load_checkpoint(p)


def test_missing_geometry_rejected(tmp_path):
    """The geometry fixes the layout, so a checkpoint without one is refused
    when saved and when read."""
    p = tmp_path / "ng.ckpt"
    with pytest.raises(CheckpointError, match="no model geometry"):
        _save(p, meta={"note": "x"})
    assert not p.exists()
    _save(p)
    _rewrite_header(p, lambda h: h["meta"].pop("model"))
    with pytest.raises(CheckpointError, match="no model geometry"):
        load_checkpoint(p)
    _save(p)
    _rewrite_header(p, lambda h: h["meta"]["model"].pop("ffn"))
    with pytest.raises(CheckpointError, match=r"meta\.model\.ffn is missing"):
        load_checkpoint(p)


@pytest.mark.parametrize("edit, match", [
    (lambda h: h.pop("config_digest"), r"header\.config_digest is missing"),
    (lambda h: h.update(extra=1), r"unknown key header\.extra"),
    (lambda h: h["meta"]["model"].update(depth=2), r"unknown key meta\.model\.depth"),
    (lambda h: h["meta"]["model"].update(languages=["en", 1]),
     r"meta\.model\.languages\[1\] must be a string"),
], ids=["missing-digest", "unknown-key", "unknown-geometry-key", "language-not-str"])
def test_header_names_exactly_its_fields(tmp_path, edit, match):
    """Every header and geometry field must be there, and nothing else:
    no default fills in a missing one."""
    p = tmp_path / "x.ckpt"
    _save(p)
    _rewrite_header(p, edit)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


@pytest.mark.parametrize("edit", ["renamed", "reshaped"])
def test_tensor_names_and_shapes_checked(tmp_path, edit):
    """Parameters whose names or shapes differ from the model geometry in
    meta ("tok_emb" becomes "zok_emb", or the hidden size no longer fits) are
    refused when saved. (A file whose geometry was edited is refused when
    read: test_geometry_larger_than_the_file_rejected.)"""
    params = init_params(cfg(), seed=5)
    p = tmp_path / "n.ckpt"
    if edit == "renamed":
        arrays = {("zok_emb" if k == "tok_emb" else k): a for k, a in params.arrays.items()}
        bad, meta = ModelParams(arrays), GEOM
    else:
        bad, meta = params, {"model": {**asdict(cfg()), "hidden": 16}}
    with pytest.raises(CheckpointError, match="do not match the model geometry"):
        save_checkpoint(Checkpoint(bad, None, "1", 0, meta=meta), p)
    assert not p.exists()


def test_checkpoint_matching_its_model_geometry_loads(tmp_path):
    p = tmp_path / "m.ckpt"
    params = _save(p)
    assert list(load_checkpoint(p).params.arrays) == list(params.arrays)


def test_corrupt_header_rejected(tmp_path):
    p = tmp_path / "h.ckpt"
    _save(p)
    raw = bytearray(p.read_bytes()[:-32])
    raw[10:14] = b"\xff\xfe\xfd\xfc"  # stomp inside the JSON header
    _reseal(p, bytes(raw))
    with pytest.raises(CheckpointError, match="corrupt header"):
        load_checkpoint(p)


def test_invalid_stage_tag_rejected():
    params = init_params(cfg(), seed=5)
    with pytest.raises(CheckpointError):
        Checkpoint(params, None, "4", 0)


def test_no_temp_file_left_behind(tmp_path):
    _save(tmp_path / "z.ckpt")
    names = {f.name for f in tmp_path.iterdir()}
    assert names == {"z.ckpt"}
