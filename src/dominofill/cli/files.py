"""Canonical on-disk formats for tilings and words.

Text files are UTF-8 and line-oriented: a version marker, then ``dim``,
``shapes``, ``window`` and ``seed`` header lines, then one sorted record per
placement (``tile x_1 .. x_d``) or per assigned cell
(``x_1 .. x_d tile o_1 .. o_d``).  The JSON flavour mirrors the same fields
one for one.  Writes are atomic (temp file + rename) and byte-deterministic
for a given object, which is what makes seeded runs diffable.
"""

from __future__ import annotations

import gc
import json
import os
import string
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
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
    """An int where ``int()`` reads the signed digits, else the label itself
    (``isdigit`` also accepts digits such as ``²`` that ``int()`` refuses)."""
    try:
        return int(token) if token.lstrip("-").isdigit() else token
    except ValueError:
        return token


def _json_int(value) -> int:
    """An integer field of a JSON file; a float or a bool is refused, as the
    text reader refuses ``0.5``."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


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


_CHUNK_ROWS = 1 << 16


def _label_table(tiles) -> np.ndarray:
    """One row of zero-padded UTF-8 label bytes per tile, in the given order."""
    names = [str(t).encode("utf-8") for t in tiles]
    width = max((len(b) for b in names), default=1)
    return np.array(names, dtype=f"S{width}").view(np.uint8).reshape(len(names), width)


def _text_lines(fields: list[np.ndarray], sep: bytes = b" ", end: bytes = b"\n") -> str:
    """Rows of ``sep``-separated fields, each row followed by ``end``.

    A field is an integer column, written in decimal, or a uint8 matrix of
    label bytes padded with zero bytes.  Each field fills its own columns of
    one byte matrix (a decimal right-aligned behind its sign column), and
    the zero bytes are deleted from the matrix's bytes in one pass, so a
    ``sep`` of ``b"\\0"`` joins fields with nothing between them.  The rows
    go ``_CHUNK_ROWS`` at a time, so the matrix stays small.
    """
    return "".join(
        _text_block([field[lo : lo + _CHUNK_ROWS] for field in fields], sep[0], end[0])
        for lo in range(0, len(fields[0]), _CHUNK_ROWS)
    )


def _text_block(fields: list[np.ndarray], sep: int, end: int) -> str:
    n = len(fields[0])
    columns = []
    for field in fields:
        if field.dtype == np.uint8:
            columns.append((field, None, field.shape[1]))
            continue
        neg = field < 0
        mag = field.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
        top = int(mag.max())
        columns.append((mag.astype(np.uint32) if top < 2**32 else mag, neg, 1 + len(str(top))))
    mat = np.zeros((n, sum(width + 1 for *_, width in columns)), dtype=np.uint8)
    at = 0
    for data, neg, width in columns:
        block = mat[:, at : at + width]
        if neg is None:
            block[...] = data
        else:
            block[:, 0] = np.where(neg, ord("-"), 0)
            rest, digit = np.divmod(data, 10)
            block[:, -1] = digit + ord("0")
            for j in range(width - 2, 0, -1):
                shown = rest > 0
                rest, digit = np.divmod(rest, 10)
                block[:, j] = np.where(shown, digit + ord("0"), 0)
        at += width
        mat[:, at] = sep
        at += 1
    mat[:, -1] = end
    return mat.tobytes().translate(None, b"\0").decode("utf-8")


def serialize_tiling(tiling: Tiling, seed: int = 0) -> str:
    canon = tiling.sorted_canonical()
    header = [
        TILING_MAGIC,
        f"dim {canon.dim}",
        f"shapes {_fmt_shapes(canon.tile_shapes)}",
        _window_line(canon.window),
        f"seed {seed}",
    ]
    labels = _label_table(canon.tile_order)[canon.codes]
    body = _text_lines([labels] + [canon.anchors[:, a] for a in range(canon.dim)])
    return "\n".join(header) + "\n" + body


def _tiling_from_records(
    shapes: dict, dim: int, window: Box | None, tiles: list, anchors: list
) -> Tiling:
    """Placements from parallel tile and anchor lists, in canonical order."""
    index: dict = {}
    inverse = np.array([index.setdefault(t, len(index)) for t in tiles], dtype=np.intp)
    return _tiling_from_columns(shapes, dim, window, list(index), inverse, anchors)


def _tiling_from_columns(
    shapes: dict, dim: int, window: Box | None, tiles: list, inverse: np.ndarray, anchors
) -> Tiling:
    """Placement k is tile ``tiles[inverse[k]]`` at ``anchors[k]``; canonical order.

    Raises ParseError on a bad tile shape, an unknown tile or an anchor of
    the wrong length, checked in that order; the first unknown tile in
    placement order is the one named.
    """
    if any(len(s) != dim or min(s) < 1 for s in shapes.values()):
        raise ParseError(f"every tile shape needs {dim} positive extents")
    unknown = np.array([t not in shapes for t in tiles], dtype=bool)
    if np.any(unknown):
        first = np.flatnonzero(unknown[inverse])[0]
        raise ParseError(f"unknown tile {tiles[inverse[first]]!r}")
    try:
        rows = np.asarray(anchors, dtype=np.int64).reshape(len(inverse), dim)
    except (OverflowError, ValueError) as exc:
        raise ParseError(f"every anchor needs {dim} int64 coordinates") from exc
    if len(inverse) == 0:
        return Tiling.from_parts(shapes, [], window)
    code_of = {t: i for i, t in enumerate(sorted(shapes, key=tile_sort_key))}
    codes = np.array([code_of[t] for t in tiles], dtype=np.int32)[inverse]
    return Tiling(shapes, codes, rows, window).sorted_canonical()


_LABEL_BYTES = (string.ascii_letters + string.digits + "-").encode()
_MAX_TOKEN = 20  # a sign and 19 digits hold every int64; longer tokens go to the line walk
_CHUNK_BYTES = 1 << 17


def _parse_tiling_bulk(text: str) -> tuple[Tiling, int] | None:
    """Parse a tiling in numpy passes over the bytes of its body.

    Returns None, leaving the file to the line walk, unless the text is
    ASCII, each header line ends in a bare ``\\n``, every body line is dim + 1
    tokens of at most ``_MAX_TOKEN`` bytes joined by single spaces and ended
    by ``\\n``, every tile token is letters, digits and ``-``, every anchor
    is an optional ``-`` and digits that fit in int64, and every tile token
    reads as a tile id.  On such files the line walk reaches the same
    tiling.  The body goes in chunks of whole lines, so the scratch arrays
    stay small; the anchors come out one contiguous column per axis.
    """
    if not text.isascii():
        return None
    lines: list[str] = []
    pos = 0
    while len(lines) < 5:
        end = text.find("\n", pos)
        if end < 0:
            return None
        line = text[pos:end]
        pos = end + 1
        if line.strip():
            if line.splitlines() != [line]:
                return None
            lines.append(line)
    dim, shapes, window, seed, _ = _read_header(lines, TILING_MAGIC)
    if not 1 <= dim < 2**62:  # (0, dim) arrays need dim to fit in intp
        return None
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    tokens: dict[bytes, int] = {}
    inverse = [np.zeros(0, dtype=np.intp)]
    columns = [np.zeros((dim, 0), dtype=np.int64)]
    while pos < len(text):
        cut = text.find("\n", pos + _CHUNK_BYTES)
        end = len(text) if cut < 0 else cut + 1
        parsed = _parse_lines(buf[pos:end], dim)
        if parsed is None:
            return None
        distinct, local, values = parsed
        ids = np.array([tokens.setdefault(tok, len(tokens)) for tok in distinct], dtype=np.intp)
        inverse.append(ids[local])
        columns.append(values)
        pos = end
    if any(tok.translate(None, _LABEL_BYTES) for tok in tokens):
        return None
    try:
        tiles = [_parse_tile(tok.decode("ascii")) for tok in tokens]
    except ValueError:
        return None
    rows = np.concatenate(columns, axis=1).T
    return _tiling_from_columns(shapes, dim, window, tiles, np.concatenate(inverse), rows), seed


def _parse_lines(chunk: np.ndarray, dim: int) -> tuple | None:
    """(distinct tile tokens, index of each line's token among them, anchor
    columns as a (dim, lines) array) of a run of whole body lines, or None
    where the line walk decides."""
    width = dim + 1
    # Token k ends at the k-th separator and starts after the one before.
    stops = np.flatnonzero((chunk == ord(" ")) | (chunk == ord("\n")))
    if len(stops) % width or chunk[-1] != ord("\n"):
        return None
    starts = np.empty_like(stops)
    starts[0] = 0
    starts[1:] = stops[:-1] + 1
    n = len(stops) // width
    stops = stops.reshape(n, width)
    starts = starts.reshape(n, width)
    kinds = chunk[stops]
    if np.any(kinds[:, :-1] != ord(" ")) or np.any(kinds[:, -1] != ord("\n")):
        return None
    lengths = stops - starts
    if int(lengths.min()) < 1 or int(lengths.max()) > _MAX_TOKEN:
        return None
    values = np.empty((dim, n), dtype=np.int64)
    for axis in range(dim):
        column = _int64_tokens(chunk, starts[:, axis + 1], stops[:, axis + 1])
        if column is None:
            return None
        values[axis] = column
    labels = _token_matrix(chunk, starts[:, 0], lengths[:, 0])
    if np.count_nonzero(labels) != int(lengths[:, 0].sum()):
        return None  # a zero byte inside a tile token
    if labels.shape[1] <= 8:  # group short labels as packed uint64 keys
        packed = np.zeros((n, 8), dtype=np.uint8)
        packed[:, : labels.shape[1]] = labels
        keys = packed.view(np.uint64).ravel()
    else:
        keys = labels.view(f"S{labels.shape[1]}").ravel()
    distinct, inverse = np.unique(keys, return_inverse=True)
    return [bytes(tok) for tok in distinct.view(f"S{distinct.itemsize}")], inverse.ravel(), values


def _token_matrix(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The tokens as rows of a uint8 matrix, left-aligned and zero-padded."""
    out = np.zeros((len(starts), int(lengths.max())), dtype=np.uint8)
    for j in range(out.shape[1]):
        out[:, j] = np.where(lengths > j, buf.take(starts + j, mode="clip"), 0)
    return out


def _int64_tokens(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """Values of the decimal tokens ``buf[starts:stops]``, or None if one is
    not an optional ``-`` followed by at most 19 digits, or leaves int64."""
    neg = buf[starts] == ord("-")
    digits = stops - starts - neg
    if digits.min() < 1 or digits.max() > 19:
        return None
    wide = int(digits.max())
    dtype = np.uint64 if wide > 9 else np.uint32
    mag = np.zeros(starts.shape, dtype=dtype)
    bad = np.zeros(starts.shape, dtype=bool)
    pos = stops - 1
    for j in range(wide):
        value = buf.take(pos, mode="clip") - np.uint8(ord("0"))
        value *= digits > j
        bad |= value > 9
        # Widen first: on numpy 1.x a uint8 array times a numpy scalar stays uint8.
        mag += value.astype(dtype) * dtype(10**j)
        pos -= 1
    mag = mag.astype(np.uint64)
    if np.any(bad) or np.any(mag > np.uint64(2**63 - 1) + neg):
        return None
    values = mag.view(np.int64)
    np.negative(values, out=values, where=neg)
    return values


@_fields_of("tiling")
def parse_tiling(text: str) -> tuple[Tiling, int]:
    parsed = _parse_tiling_bulk(text)
    if parsed is not None:
        return parsed
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
    alphabet = word.alphabet
    header = [
        WORD_MAGIC,
        f"dim {alphabet.dim}",
        f"shapes {_fmt_shapes(alphabet.tile_shapes)}",
        _window_line(word.box),
        f"seed {seed}",
    ]
    assigned = word.grid >= 0
    syms = word.grid[assigned]
    cells = np.argwhere(assigned) + np.array(word.box.anchor, dtype=np.int64)
    offsets = alphabet.offsets[syms]
    labels = _label_table(alphabet.tiles)[alphabet.tile_codes[syms]]
    body = _text_lines(
        [cells[:, a] for a in range(alphabet.dim)]
        + [labels]
        + [offsets[:, a] for a in range(alphabet.dim)]
    )
    return "\n".join(header) + "\n" + body


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json(stripped)
    # The first non-blank line, unstripped, as parse_tiling and parse_word read it.
    end = text.find("\n", len(text) - len(stripped))
    head = text if end < 0 else text[:end]
    first = next((ln for ln in head.splitlines() if ln.strip()), "")
    if first == TILING_MAGIC:
        tiling, seed = parse_tiling(text)
        return LoadedFile("tiling", tiling, None, seed)
    if first == WORD_MAGIC:
        word, seed = parse_word(text)
        return LoadedFile("word", None, word, seed)
    if first.startswith("dominofill "):
        raise VersionMismatch(f"unsupported format marker {first!r}")
    raise ParseError(f"unrecognized file {path!r}")


def _literal(text: bytes, rows: int) -> np.ndarray:
    """A label field that holds ``text`` on every row."""
    return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (rows, len(text)))


def tiling_to_json(tiling: Tiling, seed: int = 0) -> str:
    """The tiling as one line of JSON with sorted keys and no spaces.

    The placements are written by the column writer, one
    ``{"anchor":[..],"tile":..}`` object a row, and spliced into the dump of
    the other fields; a JSON string cannot hold ``"placements":0`` unescaped.
    """
    canon = tiling.sorted_canonical()
    n = len(canon)
    fields = [_literal(b'{"anchor":[', n)]
    for a in range(canon.dim):
        fields += [canon.anchors[:, a], _literal(b"," if a + 1 < canon.dim else b"]", n)]
    labels = _label_table([json.dumps(t) for t in canon.tile_order])[canon.codes]
    fields += [_literal(b',"tile":', n), labels, _literal(b"}", n)]
    rows = _text_lines(fields, sep=b"\0", end=b",")[:-1]
    doc = {
        "format": "dominofill tiling",
        "version": 1,
        "dim": canon.dim,
        "shapes": {str(t): list(s) for t, s in canon.tile_shapes.items()},
        "window": None
        if canon.window is None
        else {"anchor": list(canon.window.anchor), "shape": list(canon.window.shape)},
        "seed": seed,
        "placements": 0,
    }
    head, key, tail = json.dumps(doc, sort_keys=True, separators=(",", ":")).partition(
        '"placements":0'
    )
    return f"{head}{key[:-1]}[{rows}]{tail}\n"


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
    # A decoded document holds no reference cycles, so the cyclic collector
    # has nothing to find in it; pausing it spares its passes over millions
    # of new records.
    collecting = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}") from exc
    finally:
        if collecting:
            gc.enable()
    if not isinstance(doc, dict):
        raise ParseError("JSON file is not an object")
    if doc.get("version") != 1:
        raise VersionMismatch(f"unsupported version {doc.get('version')!r}")
    return _from_json_doc(doc)


@_fields_of("JSON")
def _from_json_doc(doc: dict) -> LoadedFile:
    fmt = doc.get("format", "")
    dim = _json_int(doc["dim"])
    shapes = {_parse_tile(t): tuple(map(_json_int, s)) for t, s in doc["shapes"].items()}
    win = doc.get("window")
    window = (
        None
        if win is None
        else Box(tuple(map(_json_int, win["anchor"])), tuple(map(_json_int, win["shape"])))
    )
    seed = _json_int(doc.get("seed", 0))
    if fmt == "dominofill tiling":
        placements = doc["placements"]
        columns = _json_columns(placements, dim)
        if columns is not None:
            tiling = _tiling_from_columns(shapes, dim, window, *columns)
        else:
            tiles = [_parse_tile(str(rec["tile"])) for rec in placements]
            anchors = [list(map(_json_int, rec["anchor"])) for rec in placements]
            tiling = _tiling_from_records(shapes, dim, window, tiles, anchors)
        return LoadedFile("tiling", tiling, None, seed)
    if fmt == "dominofill word":
        records = (
            (
                tuple(map(_json_int, rec["cell"])),
                _parse_tile(str(rec["tile"])),
                tuple(map(_json_int, rec["offset"])),
            )
            for rec in doc["cells"]
        )
        return LoadedFile("word", None, _word_from_records(shapes, dim, window, records), seed)
    raise ParseError(f"unknown JSON format {fmt!r}")


def _json_columns(placements, dim: int) -> tuple[list, np.ndarray, np.ndarray] | None:
    """(tiles, inverse, anchors) of JSON placement records, in bulk passes.

    Tile values are mapped through their distinct values and the anchors
    convert in one ``np.array``.  Returns None, leaving the records to the
    per-record walk and its messages, unless every record is an object with
    a ``tile`` that is an int or a string and the anchors form an int64
    array of ``dim`` coordinates a row, none of them a bool (a bool would
    compare equal to an int, and numpy reads one beside ints as an int).
    """
    try:
        raw = [rec["tile"] for rec in placements]
        rows = [rec["anchor"] for rec in placements]
        anchors = np.array(rows)
    except (IndexError, KeyError, TypeError, ValueError):
        return None
    if anchors.dtype != np.int64 or anchors.shape != (len(raw), dim):
        return None
    if not set(map(type, raw)) <= {int, str}:
        return None
    if bool in set(map(type, chain.from_iterable(rows))):
        return None
    index = {t: i for i, t in enumerate(dict.fromkeys(raw))}
    inverse = np.fromiter(map(index.__getitem__, raw), dtype=np.intp, count=len(raw))
    return [_parse_tile(str(t)) for t in index], inverse, anchors


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
