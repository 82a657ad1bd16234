"""Every file munmt reads or writes, and the type check of its JSON documents.

A write goes to <path>.tmp beside the target, is fsynced and renamed over it,
so a killed run leaves the old file or the new one, never part of either.
The one stream is each stage's audit log (pipeline._run_updates), of which a
resume keeps only the complete rows.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass
from types import NoneType, UnionType
from typing import Literal, get_args, get_origin, get_type_hints

from .errors import DataError


@dataclass
class Document:
    """The head of a versioned JSON document; each format declares the rest."""

    format: str
    version: Literal[1]


def read_bytes(path, what: str, error=DataError) -> bytes:
    """The bytes of the file `path`, a `what` such as "checkpoint". A failure
    raises `error` as "cannot read <what> <path>: <reason>"."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise error(f"cannot read {what} {path}: {e}") from None


def read_text(path, what: str) -> str:
    """The UTF-8 text of the file `path`. Bytes that do not decode raise
    DataError naming their line."""
    data = read_bytes(path, what)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise DataError(f"{what} {path} line {line} is not UTF-8: {e.reason}") from None


def read_lines(path):
    """The lines of a UTF-8 text file. Lines break at "\\n" only, and a last
    line without one still counts, so this reads back what write_lines
    wrote. A "\\r" stays in its line; normalize drops it before encoding."""
    lines = read_text(path, "corpus file").split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def read_json(path, what: str, tp=None, fmt: str | None = None, error=DataError):
    """The JSON document in the file `path`: with `fmt`, an object of that
    "format", and with `tp`, of that type. A failure raises `error`."""
    try:
        doc = json.loads(read_bytes(path, what, error).decode("utf-8"))
    except ValueError as e:
        raise error(f"cannot read {what} {path}: {e}") from None
    if fmt is not None and not (isinstance(doc, dict) and doc.get("format") == fmt):
        raise error(f"{path}: not a {fmt} document")
    if tp is not None and (bad := type_problems(tp, doc)):
        raise error(f"{path}: " + "; ".join(bad))
    return doc


def file_digest(path, what: str) -> str:
    """The sha256 of a file's bytes, in hex. A vocabulary is known by all 64
    digits, a config and a manifest by the first 16."""
    return hashlib.sha256(read_bytes(path, what)).hexdigest()


def write_bytes(path, *chunks) -> None:
    """Write the bytes-like `chunks` to `path` atomically, with the mode a
    plain open() gives. A failure leaves the target as it was and no temp file."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def write_lines(path, lines) -> None:
    write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def write_json(path, doc) -> None:
    """`doc` as JSON, indented, keys sorted, with a final newline."""
    write_bytes(path, (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8"))


_KINDS = {int: "an int", float: "a finite float", str: "a string", bool: "a bool",
          dict: "an object", list: "a list"}


def type_problems(tp, val, where: str = "", skip=(), complete: bool = False) -> list:
    """What keeps the JSON value `val` from having the type `tp`, a field
    annotation, one line per problem naming its dotted path `where`:
    `int` (a bool is not one), a finite `float`, `str`, `bool`, `dict`,
    `list`, `list[T]`, `dict[str, T]`, `X | None`, `Literal[v]` (the same
    JSON value), or a dataclass, as an object of its fields other than
    `skip`. A key that names no field is a problem, and so is a missing
    field without a default (with `complete`, any missing field)."""
    if is_dataclass(tp):
        if not isinstance(val, dict):
            return [f"{where or 'the document'} must be an object, got {_json(val)}"]
        hints = get_type_hints(tp)
        known = {f.name: f for f in fields(tp) if f.init and f.name not in skip}
        bad = [f"unknown key {_join(where, k)}" for k in val if k not in known]
        for name, f in known.items():
            if name in val:
                bad += type_problems(hints[name], val[name], _join(where, name),
                                     complete=complete)
            elif complete or f.default is f.default_factory is MISSING:
                bad.append(f"{_join(where, name)} is missing")
        return bad
    origin, args = get_origin(tp), get_args(tp)
    if origin is Literal:  # true is not 1
        if any(type(val) is type(a) and val == a for a in args):
            return []
        return [f"{where} must be {' or '.join(map(_json, args))}, got {_json(val)}"]
    if origin is UnionType:  # X | None
        inner, = (a for a in args if a is not NoneType)
        return [] if val is None else type_problems(inner, val, where, complete=complete)
    if not _is_kind(origin or tp, val):
        return [f"{where or 'the document'} must be {_KINDS[origin or tp]}, got {_json(val)}"]
    if origin is list:
        return [p for i, v in enumerate(val)
                for p in type_problems(args[0], v, f"{where}[{i}]", complete=complete)]
    if origin is dict:
        return [p for k, v in val.items()
                for p in type_problems(args[1], v, _join(where, k), complete=complete)]
    return []


def _is_kind(kind, val) -> bool:
    if kind is bool or isinstance(val, bool):  # a bool is only a bool
        return kind is bool and isinstance(val, bool)
    if kind is float:  # finite: JSON reads NaN, which passes any `< 0` check
        return isinstance(val, (int, float)) and abs(val) <= sys.float_info.max
    return isinstance(val, kind)


def _json(val) -> str:
    """`val` as JSON spells it, as the user wrote it (1e400 reads as Infinity)."""
    return json.dumps(val, default=repr)


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key
