"""Checkpoint format: roundtrip fidelity and corruption detection."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from munmt.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from munmt.errors import CheckpointError
from munmt.model import ModelConfig, init_params
from munmt.optim import OptimState


def cfg():
    return ModelConfig(languages=["en", "xa"], vocab_size=17, layers=1,
                       hidden=8, ffn=16, heads=2, max_positions=16)


def _header(path):
    """The JSON header of the checkpoint at `path`, and the bytes after it."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    return json.loads(raw[10:10 + hlen]), raw[10 + hlen:]


def _rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the checkpoint at `path` in place."""
    header, records = _header(path)
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(path.read_bytes()[:6] + struct.pack("<I", len(blob)) + blob + records)


def test_roundtrip_bit_identical(tmp_path):
    params = init_params(cfg(), seed=3)
    ck = Checkpoint(params, None, "1", 42, "vd", "cd", {"note": "x"})
    p = tmp_path / "a.ckpt"
    save_checkpoint(ck, p)
    back = load_checkpoint(p)
    assert back.stage == "1" and back.step == 42
    assert back.vocab_digest == "vd" and back.config_digest == "cd"
    assert back.meta == {"note": "x"}
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
    save_checkpoint(Checkpoint(params, opt, "2a", 9), p)
    back = load_checkpoint(p)
    assert back.opt.kind == "adamax" and back.opt.step == 7
    oh = _header(p)[0]["optimizer"]
    assert (oh["beta1"], oh["beta2"], oh["eps"]) == (0.9, 0.999, 1e-8)
    np.testing.assert_array_equal(back.opt.m, opt.m)
    np.testing.assert_array_equal(back.opt.v, opt.v)
    for a in back.params.arrays.values():
        assert np.shares_memory(a, back.params.flat)


def test_wrongly_sized_second_moment_rejected(tmp_path):
    params = init_params(cfg(), seed=4)
    opt = OptimState.init(params, kind="adam")
    opt.v = np.zeros(5, dtype=np.float32)
    p = tmp_path / "v5.ckpt"
    save_checkpoint(Checkpoint(params, opt, "1", 3), p)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


@pytest.mark.parametrize("key, value", [
    ("kind", None), ("step", None), ("names", None),
    ("beta1", None), ("beta2", None), ("eps", None),
    ("kind", "sgd"), ("beta1", 0.88), ("beta2", 0.97), ("eps", 2e-8),
    ("step", "3"),
])
def test_untrusted_optimizer_header_rejected(tmp_path, key, value):
    """A missing key, an unknown kind, a step that is no integer, or betas/eps
    other than the optimizer's constants: the header is refused (value None
    removes the key)."""
    params = init_params(cfg(), seed=4)
    p = tmp_path / "oh.ckpt"
    save_checkpoint(Checkpoint(params, OptimState.init(params, kind="adam"), "1", 3), p)
    load_checkpoint(p)

    def edit(header):
        if value is None:
            del header["optimizer"][key]
        else:
            header["optimizer"][key] = value

    _rewrite_header(p, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_digest_enforcement(tmp_path):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "c.ckpt"
    save_checkpoint(Checkpoint(params, None, "3", 1, "vocA", "cfgA"), p)
    load_checkpoint(p, expect_vocab_digest="vocA", expect_config_digest="cfgA")
    with pytest.raises(CheckpointError):
        load_checkpoint(p, expect_vocab_digest="vocB")
    with pytest.raises(CheckpointError):
        load_checkpoint(p, expect_config_digest="cfgB")


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_unknown_version_rejected(tmp_path):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "v.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 0), p)
    raw = bytearray(p.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_truncation_rejected(tmp_path):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "t.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 0), p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 10])
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_trailing_garbage_rejected(tmp_path):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "g.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 0), p)
    p.write_bytes(p.read_bytes() + b"xx")
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


@pytest.mark.parametrize("key, value", [
    ("tensor_count", "1"), ("step", "3"), ("step", True), ("meta", [1]),
])
def test_header_field_of_the_wrong_type_rejected(tmp_path, key, value):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "w.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 3), p)
    _rewrite_header(p, lambda header: header.update({key: value}))
    with pytest.raises(CheckpointError, match="wrong type"):
        load_checkpoint(p)


def test_record_larger_than_the_file_rejected(tmp_path):
    """A corrupt dimension must not ask for a buffer of that size."""
    params = init_params(cfg(), seed=5)
    p = tmp_path / "d.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 0), p)
    header, records = _header(p)
    (nlen,) = struct.unpack("<H", records[:2])
    first_dim = len(p.read_bytes()) - len(records) + 2 + nlen + 1
    raw = bytearray(p.read_bytes())
    raw[first_dim:first_dim + 4] = struct.pack("<I", 0xFFFFFFFF)
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(p)


def _first_name_byte(path):
    """The offset of the first byte of the first tensor's name."""
    _, records = _header(path)
    return len(path.read_bytes()) - len(records) + 2


@pytest.mark.parametrize("name_byte, meta, match", [
    (b"\xff", {}, "not UTF-8"),
    (b"z", {"model": asdict(cfg())}, "tensors do not match the model geometry"),
    (b"t", {"model": {**asdict(cfg()), "hidden": 16}},
     "tensors do not match the model geometry"),
], ids=["not-utf8", "renamed", "reshaped"])
def test_tensor_names_and_shapes_checked(tmp_path, name_byte, meta, match):
    """A name that is not UTF-8, or names and shapes other than the model
    geometry in meta would give (here "tok_emb" becomes "zok_emb", or the
    hidden size no longer fits), must be refused when read, not at the
    first forward."""
    params = init_params(cfg(), seed=5)
    p = tmp_path / "n.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 0, meta=meta), p)
    raw = bytearray(p.read_bytes())
    at = _first_name_byte(p)
    assert raw[at:at + 7] == b"tok_emb"
    raw[at:at + 1] = name_byte
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(p)


def test_checkpoint_matching_its_model_geometry_loads(tmp_path):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "m.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 0, meta={"model": asdict(cfg())}), p)
    assert list(load_checkpoint(p).params.arrays) == list(params.arrays)


def test_corrupt_header_rejected(tmp_path):
    params = init_params(cfg(), seed=5)
    p = tmp_path / "h.ckpt"
    save_checkpoint(Checkpoint(params, None, "1", 0), p)
    raw = bytearray(p.read_bytes())
    raw[10:14] = b"\xff\xfe\xfd\xfc"  # stomp inside the JSON header
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(p)


def test_invalid_stage_tag_rejected():
    params = init_params(cfg(), seed=5)
    with pytest.raises(CheckpointError):
        Checkpoint(params, None, "4", 0)


def test_no_temp_file_left_behind(tmp_path):
    params = init_params(cfg(), seed=6)
    save_checkpoint(Checkpoint(params, None, "1", 0), tmp_path / "z.ckpt")
    names = {f.name for f in tmp_path.iterdir()}
    assert names == {"z.ckpt"}
