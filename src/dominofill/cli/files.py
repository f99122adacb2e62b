"""Canonical on-disk formats for tilings and words.

Text files are UTF-8 and line-oriented: a version marker, then ``dim``,
``shapes``, ``window`` and ``seed`` header lines, then one sorted record per
placement (``tile x_1 .. x_d``) or per assigned cell (``x_1 .. x_d tile
o_1 .. o_d``); JSON has the same fields, and one record layout (``TILING``,
``WORD``) serves both kinds.  Writes are atomic (temp file + rename) and
byte-deterministic for a given object, which is what makes seeded runs diffable.
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
from typing import Callable, Iterator, Mapping, NamedTuple

import numpy as np

from ..geometry import Box
from ..sft import Alphabet, SymbolicWord, Tiling, tile_sort_key
from .verify import MAX_PAINT_CELLS


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


def _shape_map(pairs) -> dict:
    """Tile shapes from ``(tile token, extents)`` pairs; a tile is listed once."""
    out = {}
    for token, extents in pairs:
        tile = _parse_tile(token)
        if tile in out:
            raise ParseError(f"tile {tile!r} listed twice in shapes")
        out[tile] = tuple(extents)
    return out


def _parse_shapes(text: str) -> dict:
    pairs = []
    for token in text.split():
        tile, _, dims = token.partition(":")
        if not dims:
            raise ParseError(f"bad shapes token {token!r}")
        pairs.append((tile, [int(x) for x in dims.split("x")]))
    return _shape_map(pairs)


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
    for idx, key in enumerate(("dim", "shapes", "window", "seed"), 1):
        if idx >= len(lines):
            raise ParseError(f"missing header line {key!r}")
        name, _, rest = lines[idx].partition(" ")
        if name != key:
            raise ParseError(f"expected header {key!r}, found {name!r}")
        header[key] = rest
    dim = int(header["dim"])
    shapes = _parse_shapes(header["shapes"])
    window = _parse_window(header["window"].split(), dim)
    seed = int(header["seed"])
    return dim, shapes, window, seed, len(header) + 1


class _Kind(NamedTuple):
    """A file kind's record layout: ``fields`` of ``dim`` coordinates each, the
    tile label after ``label_at`` of them, the records listed under ``key`` in
    JSON; ``build(shapes, dim, window, *records)`` makes the object."""

    name: str
    magic: str
    fields: tuple[str, ...]
    label_at: int
    key: str
    build: Callable


_CHUNK_ROWS = 1 << 16


def _label_table(tiles) -> np.ndarray:
    """One row of zero-padded UTF-8 label bytes per tile, in the given order."""
    names = [str(t).encode("utf-8") for t in tiles]
    width = max((len(b) for b in names), default=1)
    return np.array(names, dtype=f"S{width}").view(np.uint8).reshape(len(names), width)


def _text_lines(fields: list[np.ndarray], sep: bytes = b" ", end: bytes = b"\n") -> str:
    """Rows of ``sep``-separated fields, each row followed by ``end``.

    A field is an integer column, written in decimal, or a uint8 matrix of
    label bytes padded with zero bytes.  Each field fills its own byte
    columns of one matrix (a decimal right-aligned behind its sign column),
    laid out one matrix row per byte column so that every store is
    contiguous; the matrix is transposed once into the pass that deletes its
    zero bytes, so a ``sep`` of ``b"\\0"`` joins fields with nothing between
    them.  The rows go ``_CHUNK_ROWS`` at a time, so the matrix stays small.
    """
    return "".join(
        _text_block([field[lo : lo + _CHUNK_ROWS] for field in fields], sep[0], end[0])
        for lo in range(0, len(fields[0]), _CHUNK_ROWS)
    )


def _text_block(fields: list[np.ndarray], sep: int, end: int) -> str:
    columns = []
    for field in fields:
        if field.dtype == np.uint8:
            columns.append((field.T, None, field.shape[1]))
            continue
        neg = field < 0
        mag = field.astype(np.uint64)
        np.negative(mag, out=mag, where=neg)
        top = int(mag.max())
        columns.append((mag.astype(np.uint32) if top < 2**32 else mag, neg, 1 + len(str(top))))
    mat = np.empty((sum(width + 1 for *_, width in columns), len(fields[0])), dtype=np.uint8)
    at = 0
    for data, neg, width in columns:
        if neg is None:
            mat[at : at + width] = data
        else:
            # ``//`` by the dtype's own 10 and a product back: cheaper than np.divmod,
            # and one dtype under numpy 1.x's value-based casting too.
            mat[at] = neg * np.uint8(ord("-"))
            ten = data.dtype.type(10)
            for j in range(at + width - 1, at, -1):
                rest, row = data // ten, mat[j]
                np.subtract(data, rest * ten, out=row, casting="unsafe")
                row += ord("0")
                if j < at + width - 1:
                    row *= data > 0  # a leading zero is blanked
                data = rest
        at += width
        mat[at] = sep
        at += 1
    mat[-1] = end
    return mat.T.tobytes().translate(None, b"\0").decode("utf-8")


def _literal(text: bytes, rows: int) -> np.ndarray:
    """A label field that holds ``text`` on every row."""
    return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (rows, len(text)))


def _write_text(kind: _Kind, seed: int, dim, shapes, window, tiles, codes, fields) -> str:
    """The text file of records: tile ``tiles[codes[k]]`` and ``fields`` row k."""
    header = [kind.magic, f"dim {dim}", f"shapes {_fmt_shapes(shapes)}", _window_line(window)]
    columns = [field[:, a] for field in fields for a in range(dim)]
    columns.insert(kind.label_at * dim, _label_table(tiles).take(codes, axis=0))
    return "\n".join(header + [f"seed {seed}"]) + "\n" + _text_lines(columns)


def _write_json(kind: _Kind, seed: int, dim, shapes, window, tiles, codes, fields) -> str:
    """One line of JSON with sorted keys and no spaces: the column writer's
    records, one object a row, spliced into the dump of the other fields (a
    JSON string cannot hold ``"<key>":0`` unescaped)."""
    n, lead, row = len(codes), b"{", []
    for key in sorted([*kind.fields, "tile"]):
        if key == "tile":
            labels = _label_table([json.dumps(t) for t in tiles]).take(codes, axis=0)
            row += [_literal(lead + b'"tile":', n), labels]
        else:
            row.append(_literal(lead + f'"{key}":['.encode(), n))
            for a in range(dim):
                column = fields[kind.fields.index(key)][:, a]
                row += [column, _literal(b"," if a + 1 < dim else b"]", n)]
        lead = b","
    rows = _text_lines(row + [_literal(b"}", n)], sep=b"\0", end=b",")[:-1]
    doc = {
        "format": kind.magic[: -len(" v1")],
        "version": 1,
        "dim": dim,
        "shapes": {str(t): list(s) for t, s in shapes.items()},
        "window": None
        if window is None
        else {"anchor": list(window.anchor), "shape": list(window.shape)},
        "seed": seed,
        kind.key: 0,
    }
    dump = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    head, key, tail = dump.partition(f'"{kind.key}":0')
    return f"{head}{key[:-1]}[{rows}]{tail}\n"


def _tiling_records(tiling: Tiling) -> tuple:
    t = tiling.sorted_canonical()
    return t.dim, t.tile_shapes, t.window, t.tile_order, t.codes, [t.anchors]


def _word_records(word: SymbolicWord) -> tuple:
    alphabet, assigned = word.alphabet, word.grid >= 0
    syms = word.grid[assigned]
    cells = np.argwhere(assigned) + np.array(word.box.anchor, dtype=np.int64)
    codes, fields = alphabet.tile_codes[syms], [cells, alphabet.offsets[syms]]
    return alphabet.dim, alphabet.tile_shapes, word.box, alphabet.tiles, codes, fields


def serialize_tiling(tiling: Tiling, seed: int = 0) -> str:
    return _write_text(TILING, seed, *_tiling_records(tiling))


def serialize_word(word: SymbolicWord, seed: int = 0) -> str:
    return _write_text(WORD, seed, *_word_records(word))


def tiling_to_json(tiling: Tiling, seed: int = 0) -> str:
    return _write_json(TILING, seed, *_tiling_records(tiling))


def word_to_json(word: SymbolicWord, seed: int = 0) -> str:
    return _write_json(WORD, seed, *_word_records(word))


_LABEL_BYTES = (string.ascii_letters + string.digits + "-").encode()
_MAX_TOKEN = 20  # a sign and 19 digits hold every int64; longer tokens go to the line walk
_CHUNK_BYTES = 1 << 17


def _distinct(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in order of first appearance, and each one's index among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.get, values), dtype=np.intp, count=len(values))


def _parse_bulk(text: str, kind: _Kind) -> tuple | None:
    """``((dim, shapes, window, seed), (tiles, inverse, fields))`` of a text
    file, in numpy passes over the bytes of its body.

    Returns None, leaving the file to the line walk, unless the text is
    ASCII, each header line ends in a bare ``\\n``, every body line is a
    label and one token per coordinate, each of at most ``_MAX_TOKEN`` bytes,
    joined by single spaces and ended by ``\\n``, every label is letters,
    digits and ``-``, and every coordinate is an optional ``-`` and digits
    that fit in int64; the line walk reads such files the same.  The body
    goes in chunks of whole lines, so the scratch arrays stay small.
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
    dim, shapes, window, seed, _ = _read_header(lines, kind.magic)
    if not 1 <= dim < 2**62:  # (2 * dim, 0) arrays need 2 * dim to fit in intp
        return None
    width = len(kind.fields) * dim + 1
    buf = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # The header's labels of 1 to 8 label bytes, packed as the body's are and
    # sorted: label k of the table has id k, and a label it lacks the next free id.
    named = [s for s in map(str, shapes) if s and not s.encode().translate(None, _LABEL_BYTES)]
    table = np.unique(_packed_keys(_label_table([s for s in named if len(s) <= 8])))
    tokens = {bytes(tok): k for k, tok in enumerate(table.view("S8"))}
    inverse = [np.zeros(0, dtype=np.intp)]
    columns = [np.zeros((width - 1, 0), dtype=np.int64)]
    while pos < len(text):
        cut = text.find("\n", pos + _CHUNK_BYTES)
        end = len(text) if cut < 0 else cut + 1
        parsed = _parse_lines(buf[pos:end], width, kind.label_at * dim)
        if parsed is None:
            return None
        keys, values = parsed
        inverse.append(_label_ids(keys, table, tokens))
        columns.append(values)
        pos = end
    if any(tok.translate(None, _LABEL_BYTES) for tok in tokens):
        return None
    tiles = [_parse_tile(tok.decode("ascii")) for tok in tokens]
    fields = [f.T for f in np.split(np.concatenate(columns, axis=1), len(kind.fields))]
    return (dim, shapes, window, seed), (tiles, np.concatenate(inverse), fields)


def _label_ids(keys: np.ndarray, table: np.ndarray, tokens: dict[bytes, int]) -> np.ndarray:
    """Each label key's id: its place in the sorted ``table`` when the table
    holds every key, else from one sort of the keys, a label new to
    ``tokens`` taking the next free id."""
    if keys.dtype == table.dtype and len(table):
        ids = np.searchsorted(table, keys)
        if np.array_equal(table.take(ids, mode="clip"), keys):
            return ids
    distinct, local = np.unique(keys, return_inverse=True)
    names = distinct.view(f"S{distinct.itemsize}")
    ids = np.array([tokens.setdefault(bytes(tok), len(tokens)) for tok in names], dtype=np.intp)
    return ids[local.ravel()]


def _packed_keys(labels: np.ndarray) -> np.ndarray:
    """Rows of at most 8 zero-padded label bytes, each as one uint64."""
    packed = np.zeros((len(labels), 8), dtype=np.uint8)
    packed[:, : labels.shape[1]] = labels
    return packed.view(np.uint64).ravel()


def _parse_lines(chunk: np.ndarray, width: int, at: int) -> tuple | None:
    """(label keys, the other tokens' values as a (width - 1, lines) array)
    of whole body lines of ``width`` tokens, the label at token ``at``; or
    None where the line walk decides.  A key is the label packed into a
    uint64 when every label has at most 8 bytes, else its bytes."""
    # Token k ends at the k-th separator and starts after the one before.
    newlines = chunk == ord("\n")
    stops = np.flatnonzero(newlines | (chunk == ord(" ")))
    n = len(stops) // width
    if len(stops) % width or chunk[-1] != ord("\n") or np.count_nonzero(newlines) != n:
        return None
    starts = np.empty_like(stops)
    starts[0] = 0
    starts[1:] = stops[:-1] + 1
    stops = stops.reshape(n, width)
    starts = starts.reshape(n, width)
    # As many line ends as lines, and each line's last separator is one.
    if not np.all(chunk[stops[:, -1]] == ord("\n")):
        return None
    lengths = stops - starts
    if int(lengths.min()) < 1 or int(lengths.max()) > _MAX_TOKEN:
        return None
    labels = _token_matrix(chunk, starts[:, at], lengths[:, at])
    label_bytes = int(lengths[:, at].sum())
    if np.count_nonzero(labels) != label_bytes:
        return None  # a zero byte inside a tile token
    # Each byte's digit value, 0 for a byte that is no digit.  Those bytes
    # must be the separators, the labels' own and one minus sign at most
    # leading each coordinate.
    digits = chunk - np.uint8(ord("0"))
    is_digit = digits <= 9
    digits *= is_digit
    allowed = n * width + np.count_nonzero(labels - np.uint8(ord("0")) > 9)
    allowed -= labels.size - label_bytes  # the zero bytes padding the label rows
    values = np.empty((width - 1, n), dtype=np.int64)
    for row, token in enumerate(t for t in range(width) if t != at):
        neg = chunk[starts[:, token]] == ord("-")
        if not _int64_tokens(digits, starts[:, token], stops[:, token], neg, values[row]):
            return None
        allowed += np.count_nonzero(neg)
    if len(chunk) - np.count_nonzero(is_digit) != allowed:
        return None
    if labels.shape[1] <= 8:
        return _packed_keys(labels), values
    return labels.view(f"S{labels.shape[1]}").ravel(), values


def _token_matrix(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The tokens as rows of a uint8 matrix, left-aligned and zero-padded."""
    out = np.zeros((len(starts), int(lengths.max())), dtype=np.uint8)
    for j in range(out.shape[1]):
        out[:, j] = np.where(lengths > j, buf.take(starts + j, mode="clip"), 0)
    return out


def _int64_tokens(
    digits: np.ndarray, starts: np.ndarray, stops: np.ndarray, neg: np.ndarray, out: np.ndarray
) -> bool:
    """Write to ``out`` the values of the tokens ``[starts, stops)``: a minus
    sign where ``neg``, then digits, which the caller has checked, with byte
    digit values ``digits`` (0 at a byte that is no digit).  False if a
    token has no digit or more than 19, or leaves int64."""
    count = stops - starts - neg
    if count.min() < 1 or count.max() > 19:
        return False
    wide = int(count.max())
    dtype = np.uint64 if wide > 9 else np.uint32
    mag = np.zeros(starts.shape, dtype=dtype)
    # Horner's rule over the last ``wide`` bytes of each token; a shorter
    # token reads its sign or the separator before it, each a 0, in place of
    # the bytes before that (the first token's is the chunk's last byte).
    floor = starts - 1
    pos = stops - wide
    at = np.empty_like(pos)
    for _ in range(wide):
        mag *= 10
        np.maximum(pos, floor, out=at)
        mag += digits.take(at, mode="wrap")
        pos += 1
    if wide == 19 and np.any(mag > np.uint64(2**63 - 1) + neg):
        return False
    out[...] = mag.view(np.int64) if wide > 9 else mag
    np.negative(out, out=out, where=neg)
    return True


def _walk_lines(text: str, kind: _Kind) -> tuple:
    """What ``_parse_bulk`` returns, one ``str.split`` and ``int`` per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim, shapes, window, seed, idx = _read_header(lines, kind.magic)
    tiles, rows = [], []
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) != len(kind.fields) * dim + 1:
            raise ParseError(f"bad {kind.key[:-1]} line {ln!r}")
        tiles.append(_parse_tile(parts.pop(kind.label_at * dim)))
        rows.append([int(x) for x in parts])
    fields = [[row[k * dim : (k + 1) * dim] for row in rows] for k in range(len(kind.fields))]
    return (dim, shapes, window, seed), (*_distinct(tiles), fields)


def _read_text(text: str, kind: _Kind) -> tuple:
    """(object, seed) of a text file, read in bulk where it can be."""
    with _fields_of(kind.name):
        (dim, shapes, window, seed), records = _parse_bulk(text, kind) or _walk_lines(text, kind)
        return kind.build(shapes, dim, window, *records), seed


def _json_records(records, kind: _Kind, dim: int) -> tuple:
    """(tiles, inverse, fields) of JSON records: one ``np.array`` a field if each
    record is an object with an int or string ``tile`` and each field makes an
    int64 array of ``dim`` coordinates a row, with no bool (numpy reads a bool
    beside ints as an int); else every tile, then each field, by ``_json_int``."""
    try:
        raw = [rec["tile"] for rec in records]
        rows = [[rec[field] for rec in records] for field in kind.fields]
        fields = [np.array(r) for r in rows]
    except (IndexError, KeyError, TypeError, ValueError):
        fields = None
    if (
        fields is None
        or any(f.dtype != np.int64 or f.shape != (len(raw), dim) for f in fields)
        or not set(map(type, raw)) <= {int, str}
        or bool in set(map(type, chain.from_iterable(chain.from_iterable(rows))))
    ):
        raw = [str(rec["tile"]) for rec in records]
        fields = [[list(map(_json_int, rec[field])) for rec in records] for field in kind.fields]
    distinct, inverse = _distinct(raw)
    return [_parse_tile(str(t)) for t in distinct], inverse, fields


def _coords(rows, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate rows as an (n, dim) array, int64 or, if a value leaves
    int64, Python ints; and the mask of rows not of ``dim`` coordinates,
    which read as zeros."""
    if isinstance(rows, np.ndarray):
        return rows, np.zeros(len(rows), dtype=bool)
    misfit = np.array([len(row) != dim for row in rows], dtype=bool)
    rows = [[0] * dim if bad else row for row, bad in zip(rows, misfit)]
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), max(dim, 0)), misfit
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), max(dim, 0)), misfit


def _build_tiling(shapes: dict, dim: int, window, tiles: list, inverse, fields) -> Tiling:
    """Placement k is tile ``tiles[inverse[k]]`` at anchor k; canonical order.
    Refuses a bad tile shape, an unknown tile (the first in placement order)
    or an anchor not of ``dim`` int64 coordinates, checked in that order."""
    if any(len(s) != dim or min(s) < 1 for s in shapes.values()):
        raise ParseError(f"every tile shape needs {dim} positive extents")
    unknown = np.array([t not in shapes for t in tiles], dtype=bool)
    if np.any(unknown):
        first = np.flatnonzero(unknown[inverse])[0]
        raise ParseError(f"unknown tile {tiles[inverse[first]]!r}")
    rows, misfit = _coords(fields[0], dim)
    if dim < 0 or misfit.any() or rows.dtype != np.int64:
        raise ParseError(f"every anchor needs {dim} int64 coordinates")
    code_of = {t: i for i, t in enumerate(sorted(shapes, key=tile_sort_key))}
    codes = np.array([code_of[t] for t in tiles], dtype=np.int32)[inverse]
    return Tiling(shapes, codes, rows, window).sorted_canonical()


def _build_word(shapes: dict, dim: int, window, tiles: list, inverse, fields) -> SymbolicWord:
    """The word of (cell, tile, offset) records, built in array passes.

    Refuses a missing window or one of more than ``MAX_PAINT_CELLS`` cells,
    the verifier's bound, else names the first offending record in file
    order and its first defect of: an unknown tile, a cell outside the window
    (or not of ``dim`` coordinates), a cell listed twice, an offset its tile
    lacks (or not of ``dim`` coordinates).  A symbol's index is its tile's
    first symbol plus the offset's C-order index in the tile."""
    if window is None:
        raise ParseError("word files need an explicit window")
    if window.volume > MAX_PAINT_CELLS:
        raise ParseError(f"word window of {window.volume} cells is too large to paint")
    word = SymbolicWord(Alphabet(dim, shapes), window)
    alphabet = word.alphabet
    codes = [alphabet.tiles.index(t) if t in shapes else -1 for t in tiles]
    codes = np.array(codes, dtype=np.intp)[inverse]
    (cells, bad_cell), (offsets, bad_offset) = (_coords(field, dim) for field in fields)
    lo, hi = _coords([window.anchor, window.end], dim)[0]
    inside = ~bad_cell & np.all((cells >= lo) & (cells < hi), axis=1)
    # An unknown tile (code -1) gets the last row, a zero shape that no offset fits.
    sizes = np.array([*map(alphabet.shape, alphabet.tiles), (0,) * dim], dtype=np.int64)[codes]
    fits = ~bad_offset & np.all((offsets >= 0) & (offsets < sizes), axis=1)
    held = np.flatnonzero(inside)
    flat = _c_index((cells[held] - lo).astype(np.int64), np.array(window.shape))
    twice = inside.copy()
    twice[held[np.unique(flat, return_index=True)[1]]] = False
    bad = (codes < 0) | ~inside | twice | ~fits
    if bad.any():
        k = int(bad.argmax())
        tile, cell, offset = tiles[inverse[k]], *(tuple(map(int, f[k])) for f in fields)
        defects = [
            (codes[k] < 0, f"unknown tile {tile!r} at cell {cell}"),
            (bad_cell[k], f"every cell needs {dim} int64 coordinates"),
            (not inside[k], f"cell {cell} outside window"),
            (twice[k], f"cell {cell} listed twice"),
            (bad_offset[k], f"every offset needs {dim} int64 coordinates"),
            (True, f"offset {offset} invalid for tile {tile!r}"),
        ]
        raise ParseError(next(message for failed, message in defects if failed))
    np.put(word.grid, flat, alphabet.tile_codes.searchsorted(codes) + _c_index(offsets, sizes))
    return word


def _c_index(index: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each row's C-order index in a box of ``sizes``, one box or one a row."""
    flat = np.zeros(len(index), dtype=np.int64)
    for a in range(index.shape[1]):
        flat = flat * sizes[..., a] + index[:, a]
    return flat


TILING = _Kind("tiling", "dominofill tiling v1", ("anchor",), 0, "placements", _build_tiling)
WORD = _Kind("word", "dominofill word v1", ("cell", "offset"), 1, "cells", _build_word)


def parse_tiling(text: str) -> tuple[Tiling, int]:
    return _read_text(text, TILING)


def parse_word(text: str) -> tuple[SymbolicWord, int]:
    return _read_text(text, WORD)


@dataclass(frozen=True)
class LoadedFile:
    """Either a tiling or a word, as found on disk."""

    kind: str
    tiling: Tiling | None = None
    word: SymbolicWord | None = None
    seed: int = 0


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
    for kind, parse in ((TILING, parse_tiling), (WORD, parse_word)):
        if first == kind.magic:
            built, seed = parse(text)
            return LoadedFile(kind.name, seed=seed, **{kind.name: built})
    if first.startswith("dominofill "):
        raise VersionMismatch(f"unsupported format marker {first!r}")
    raise ParseError(f"unrecognized file {path!r}")


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
    shapes = _shape_map((t, map(_json_int, s)) for t, s in doc["shapes"].items())
    win = doc.get("window")
    box = None if win is None else [tuple(map(_json_int, win[k])) for k in ("anchor", "shape")]
    if box is not None and list(map(len, box)) != [dim, dim]:
        raise ParseError(f"window anchor and shape need {dim} coordinates each")
    window = None if box is None else Box(*box)
    seed = _json_int(doc.get("seed", 0))
    for kind in (TILING, WORD):
        if fmt == kind.magic[: -len(" v1")]:
            built = kind.build(shapes, dim, window, *_json_records(doc[kind.key], kind, dim))
            return LoadedFile(kind.name, seed=seed, **{kind.name: built})
    raise ParseError(f"unknown JSON format {fmt!r}")


def write_atomic(path: str, content: str) -> None:
    """Write ``content`` to ``path`` through a renamed temp file, with the
    mode a plain ``open(path, "w")`` gives (``mkstemp`` makes it 0600)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
