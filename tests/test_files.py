"""munmt.files: the one reader and the one atomic writer, and the guard that
keeps every file access in src/munmt behind them."""

import ast
import glob
import os
import stat
from dataclasses import asdict

import pytest

from munmt import files
from munmt.checkpoint import Checkpoint, save_checkpoint
from munmt.errors import CheckpointError, DataError
from munmt.evaluation import BleuScore, DirectionResult, write_report
from munmt.model import ModelConfig, init_params

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "munmt")

# calls that open, create or rename a file; any use of `tempfile` counts too
FILE_CALLS = {"open", "os.open", "os.fdopen", "os.replace", "os.rename"}
# the one stream: the audit log each stage appends rows to as it runs
STREAMS = {("pipeline", "_run_updates", "open")}


def _dotted(func) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return ""


def _file_access(module: str, tree) -> list:
    """(module, enclosing top-level function, call) for each file call and
    each use of tempfile in `tree`."""
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _dotted(node.func) in FILE_CALLS:
                found.append((module, owner, _dotted(node.func)))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None)]
                if "tempfile" in names:
                    found.append((module, owner, "tempfile"))
            elif isinstance(node, ast.Name) and node.id == "tempfile":
                found.append((module, owner, "tempfile"))
    return found


def _trees() -> dict:
    trees = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            trees[os.path.splitext(os.path.basename(path))[0]] = ast.parse(fh.read())
    return trees


def test_only_files_opens_writes_or_renames_a_file():
    found = [hit for module, tree in _trees().items() if module != "files"
             for hit in _file_access(module, tree)]
    assert set(found) == STREAMS and len(found) == len(STREAMS), found


def test_the_type_check_lives_in_files_and_imports_are_top_level():
    trees = _trees()
    defined = [m for m, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "type_problems"]
    assert defined == ["files"]
    nested = [(m, node.name) for m, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_the_guard_sees_each_kind_of_file_access():
    tree = ast.parse("import tempfile\n"
                     "def f(p):\n"
                     "    open(p).read()\n"
                     "    os.replace(p, p)\n"
                     "    return tempfile.mkstemp()\n")
    assert sorted(_file_access("m", tree)) == [
        ("m", "", "tempfile"), ("m", "f", "open"), ("m", "f", "os.replace"),
        ("m", "f", "tempfile")]


@pytest.mark.parametrize("fail", ["chunk", "fsync"])
def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path, monkeypatch,
                                                             fail):
    target = tmp_path / "corpus.txt"
    files.write_lines(target, ["old", "lines"])
    before = target.read_bytes()
    chunks = [b"new bytes, part one\n", "not bytes"]  # the second cannot be written
    if fail == "fsync":
        chunks = chunks[:1]

        def broken_fsync(fd):
            raise OSError("no space left on device")
        monkeypatch.setattr(files.os, "fsync", broken_fsync)
    with pytest.raises((TypeError, OSError)):
        files.write_bytes(target, *chunks)
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["corpus.txt"]


def test_a_write_replaces_the_file_whole(tmp_path):
    target = tmp_path / "doc.json"
    files.write_json(target, {"b": [1, 2], "a": None})
    files.write_json(target, {"c": True})
    assert target.read_bytes() == b'{\n "c": true\n}\n'
    assert os.listdir(tmp_path) == ["doc.json"]


def _mode(path) -> int:
    return stat.S_IMODE(os.stat(path).st_mode)


def test_written_files_get_the_mode_a_plain_open_gives(tmp_path):
    old = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        rows = [DirectionResult("en-xa", BleuScore(12.5, (0.5, 0.25, 0.125, 0.0625),
                                                   1.0, 10, 10))]
        write_report(rows, tmp_path / "report.tsv", tmp_path / "report.json")
        mcfg = ModelConfig(languages=["en", "xa"], vocab_size=17, layers=1,
                           hidden=8, ffn=16, heads=2, max_positions=16)
        save_checkpoint(Checkpoint(init_params(mcfg, seed=1), None, "1", 0,
                                   meta={"model": asdict(mcfg)}), tmp_path / "a.ckpt")
    finally:
        os.umask(old)
    assert _mode(tmp_path / "plain") == 0o666 & ~0o027
    for name in ("report.tsv", "report.json", "a.ckpt"):
        assert _mode(tmp_path / name) == 0o666 & ~0o027, name


def test_a_read_failure_raises_the_callers_error(tmp_path):
    missing = tmp_path / "nope.ckpt"
    with pytest.raises(CheckpointError, match=f"cannot read checkpoint {missing}: "):
        files.read_bytes(missing, "checkpoint", CheckpointError)
    with pytest.raises(DataError, match=f"cannot read manifest {missing}: "):
        files.file_digest(missing, "manifest")
