"""Canonical on-disk formats for tilings and words.

Text files are UTF-8 and line-oriented: a version marker, then ``dim``,
``shapes``, ``window`` and ``seed`` header lines, then one sorted record per
placement (``tile x_1 .. x_d``) or per assigned cell
(``x_1 .. x_d tile o_1 .. o_d``).  The JSON flavour mirrors the same fields
one for one.  Writes are atomic (temp file + rename) and byte-deterministic
for a given object, which is what makes seeded runs diffable.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from ..geometry import Box
from ..sft import Alphabet, Symbol, SymbolicWord, Tiling, tile_sort_key

TILING_MAGIC = "dominofill tiling v1"
WORD_MAGIC = "dominofill word v1"


class ParseError(ValueError):
    pass


@contextmanager
def _fields_of(what: str) -> Iterator[None]:
    """Report a malformed field (a bad int, a bad box, a missing key) as a ParseError."""
    try:
        yield
    except ParseError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad {what} field: {exc}") from exc


class VersionMismatch(ParseError):
    pass


def _parse_tile(token: str):
    return int(token) if token.lstrip("-").isdigit() else token


def _fmt_shapes(shapes: Mapping) -> str:
    items = sorted(shapes.items(), key=lambda kv: tile_sort_key(kv[0]))
    return " ".join(f"{t}:{'x'.join(str(e) for e in s)}" for t, s in items)


def _parse_shapes(text: str) -> dict:
    out = {}
    for token in text.split():
        tile, _, dims = token.partition(":")
        if not dims:
            raise ParseError(f"bad shapes token {token!r}")
        out[_parse_tile(tile)] = tuple(int(x) for x in dims.split("x"))
    return out


def _window_line(window: Box | None) -> str:
    if window is None:
        return "window none"
    coords = " ".join(str(x) for x in window.anchor)
    extents = " ".join(str(x) for x in window.shape)
    return f"window {coords} {extents}"


def _parse_window(rest: list[str], dim: int) -> Box | None:
    if rest == ["none"]:
        return None
    if len(rest) != 2 * dim:
        raise ParseError(f"window line needs {2 * dim} integers")
    values = [int(x) for x in rest]
    return Box(tuple(values[:dim]), tuple(values[dim:]))


def _read_header(lines: list[str], magic: str) -> tuple[int, dict, Box | None, int, int]:
    if not lines:
        raise ParseError("empty file")
    if lines[0] != magic:
        if lines[0].startswith("dominofill "):
            raise VersionMismatch(f"expected {magic!r}, found {lines[0]!r}")
        raise ParseError(f"missing {magic!r} marker")
    header = {}
    idx = 1
    for key in ("dim", "shapes", "window", "seed"):
        if idx >= len(lines):
            raise ParseError(f"missing header line {key!r}")
        name, _, rest = lines[idx].partition(" ")
        if name != key:
            raise ParseError(f"expected header {key!r}, found {name!r}")
        header[key] = rest
        idx += 1
    dim = int(header["dim"])
    shapes = _parse_shapes(header["shapes"])
    window = _parse_window(header["window"].split(), dim)
    seed = int(header["seed"])
    return dim, shapes, window, seed, idx


def serialize_tiling(tiling: Tiling, seed: int = 0) -> str:
    canon = tiling.sorted_canonical()
    dim = canon.dim if len(canon) else (canon.window.dim if canon.window else 1)
    lines = [
        TILING_MAGIC,
        f"dim {dim}",
        f"shapes {_fmt_shapes(canon.tile_shapes)}",
        _window_line(canon.window),
        f"seed {seed}",
    ]
    order = canon.tile_order
    for code, anchor in zip(canon.codes, canon.anchors):
        coords = " ".join(str(int(x)) for x in anchor)
        lines.append(f"{order[int(code)]} {coords}")
    return "\n".join(lines) + "\n"


def _tiling_from_records(
    shapes: dict, dim: int, window: Box | None, tiles: list, anchors: list
) -> Tiling:
    """Placements from parallel tile and anchor lists, in canonical order.

    Raises ParseError on a bad tile shape, an unknown tile or an anchor of
    the wrong length.
    """
    if any(len(s) != dim or min(s) < 1 for s in shapes.values()):
        raise ParseError(f"every tile shape needs {dim} positive extents")
    index = {tile: i for i, tile in enumerate(shapes)}
    try:
        rows_tile = np.array([index[t] for t in tiles], dtype=np.intp)
    except KeyError as exc:
        raise ParseError(f"unknown tile {exc.args[0]!r}") from None
    try:
        rows = np.array(anchors, dtype=np.int64).reshape(len(tiles), dim)
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"every anchor needs {dim} int64 coordinates") from exc
    parts = [(tile, rows[rows_tile == i]) for tile, i in index.items()]
    return Tiling.from_parts(shapes, parts, window).sorted_canonical()


@_fields_of("tiling")
def parse_tiling(text: str) -> tuple[Tiling, int]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim, shapes, window, seed, idx = _read_header(lines, TILING_MAGIC)
    tiles = []
    anchors = []
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) != dim + 1:
            raise ParseError(f"bad placement line {ln!r}")
        tiles.append(_parse_tile(parts[0]))
        anchors.append([int(x) for x in parts[1:]])
    return _tiling_from_records(shapes, dim, window, tiles, anchors), seed


def serialize_word(word: SymbolicWord, seed: int = 0) -> str:
    lines = [
        WORD_MAGIC,
        f"dim {word.alphabet.dim}",
        f"shapes {_fmt_shapes(word.alphabet.tile_shapes)}",
        _window_line(word.box),
        f"seed {seed}",
    ]
    for cell, sym in word.iter_cells():
        coords = " ".join(str(x) for x in cell)
        offs = " ".join(str(x) for x in sym.offset)
        lines.append(f"{coords} {sym.tile} {offs}")
    return "\n".join(lines) + "\n"


def _word_from_records(shapes: dict, dim: int, window: Box | None, records) -> SymbolicWord:
    """Word from ``(cell, tile, offset)`` records.

    Raises ParseError on a missing window, an unknown tile, a cell outside
    the window or listed twice, or an offset the tile does not have.
    """
    if window is None:
        raise ParseError("word files need an explicit window")
    word = SymbolicWord(Alphabet(dim, shapes), window)
    for cell, tile, offset in records:
        if tile not in shapes:
            raise ParseError(f"unknown tile {tile!r} at cell {cell}")
        if len(cell) != dim or not window.contains_cell(cell):
            raise ParseError(f"cell {cell} outside window")
        if word.cell(cell) is not None:
            raise ParseError(f"cell {cell} listed twice")
        try:
            word.set_cell(cell, Symbol(tile, offset))
        except KeyError as exc:
            raise ParseError(f"offset {offset} invalid for tile {tile!r}") from exc
    return word


@_fields_of("word")
def parse_word(text: str) -> tuple[SymbolicWord, int]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim, shapes, window, seed, idx = _read_header(lines, WORD_MAGIC)
    records = []
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) != 2 * dim + 1:
            raise ParseError(f"bad cell line {ln!r}")
        cell = tuple(int(x) for x in parts[:dim])
        records.append((cell, _parse_tile(parts[dim]), tuple(int(x) for x in parts[dim + 1 :])))
    return _word_from_records(shapes, dim, window, records), seed


@dataclass(frozen=True)
class LoadedFile:
    """Either a tiling or a word, as found on disk."""

    kind: str
    tiling: Tiling | None
    word: SymbolicWord | None
    seed: int


def load_any(path: str) -> LoadedFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(stripped)
    first = stripped.splitlines()[0] if stripped else ""
    if first == TILING_MAGIC:
        tiling, seed = parse_tiling(text)
        return LoadedFile("tiling", tiling, None, seed)
    if first == WORD_MAGIC:
        word, seed = parse_word(text)
        return LoadedFile("word", None, word, seed)
    if first.startswith("dominofill "):
        raise VersionMismatch(f"unsupported format marker {first!r}")
    raise ParseError(f"unrecognized file {path!r}")


def tiling_to_json(tiling: Tiling, seed: int = 0) -> str:
    canon = tiling.sorted_canonical()
    dim = canon.dim if len(canon) else (canon.window.dim if canon.window else 1)
    doc = {
        "format": "dominofill tiling",
        "version": 1,
        "dim": dim,
        "shapes": {str(t): list(s) for t, s in canon.tile_shapes.items()},
        "window": None
        if canon.window is None
        else {"anchor": list(canon.window.anchor), "shape": list(canon.window.shape)},
        "seed": seed,
        "placements": [
            {"tile": canon.tile_order[int(c)], "anchor": [int(x) for x in a]}
            for c, a in zip(canon.codes, canon.anchors)
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def word_to_json(word: SymbolicWord, seed: int = 0) -> str:
    doc = {
        "format": "dominofill word",
        "version": 1,
        "dim": word.alphabet.dim,
        "shapes": {str(t): list(s) for t, s in word.alphabet.tile_shapes.items()},
        "window": {"anchor": list(word.box.anchor), "shape": list(word.box.shape)},
        "seed": seed,
        "cells": [
            {"cell": list(cell), "tile": sym.tile, "offset": list(sym.offset)}
            for cell, sym in word.iter_cells()
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _from_json(text: str) -> LoadedFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("JSON file is not an object")
    if doc.get("version") != 1:
        raise VersionMismatch(f"unsupported version {doc.get('version')!r}")
    return _from_json_doc(doc)


@_fields_of("JSON")
def _from_json_doc(doc: dict) -> LoadedFile:
    fmt = doc.get("format", "")
    dim = int(doc["dim"])
    shapes = {_parse_tile(t): tuple(int(x) for x in s) for t, s in doc["shapes"].items()}
    win = doc.get("window")
    window = None if win is None else Box(tuple(win["anchor"]), tuple(win["shape"]))
    seed = int(doc.get("seed", 0))
    if fmt == "dominofill tiling":
        placements = doc["placements"]
        tiles = [_parse_tile(str(rec["tile"])) for rec in placements]
        anchors = [[int(x) for x in rec["anchor"]] for rec in placements]
        tiling = _tiling_from_records(shapes, dim, window, tiles, anchors)
        return LoadedFile("tiling", tiling, None, seed)
    if fmt == "dominofill word":
        records = (
            (
                tuple(int(x) for x in rec["cell"]),
                _parse_tile(str(rec["tile"])),
                tuple(int(x) for x in rec["offset"]),
            )
            for rec in doc["cells"]
        )
        return LoadedFile("word", None, _word_from_records(shapes, dim, window, records), seed)
    raise ParseError(f"unknown JSON format {fmt!r}")


def write_atomic(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
