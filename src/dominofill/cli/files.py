"""The on-disk format of tilings and words.

Files are UTF-8 text and line-oriented: a version marker, then ``dim``,
``shapes``, ``window`` and ``seed`` header lines, then one sorted record per
placement (``tile x_1 .. x_d``) or per assigned cell (``x_1 .. x_d tile
o_1 .. o_d``); one record layout (``TILING``, ``WORD``) serves both kinds.
Writes are atomic (temp file + rename) and byte-deterministic for a given
object, which is what makes seeded runs diffable.
"""

from __future__ import annotations

import os
import string
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

import numpy as np

from ..geometry import Box
from ..sft import Alphabet, SymbolicWord, Tiling, tile_sort_key
from .verify import MAX_PAINT_CELLS


class ParseError(ValueError):
    pass


@contextmanager
def _fields_of(what: str) -> Iterator[None]:
    """Report a malformed field (a bad int, a bad box) as a ParseError."""
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


def _fmt_shapes(shapes: Mapping) -> str:
    items = sorted(shapes.items(), key=lambda kv: tile_sort_key(kv[0]))
    return " ".join(f"{t}:{'x'.join(str(e) for e in s)}" for t, s in items)


def _parse_shapes(text: str) -> dict:
    """Tile shapes from ``tile:e_1x..xe_d`` tokens; a tile is listed once."""
    pairs = []
    for token in text.split():
        tile, _, dims = token.partition(":")
        if not dims:
            raise ParseError(f"bad shapes token {token!r}")
        pairs.append((_parse_tile(tile), tuple(int(x) for x in dims.split("x"))))
    out = {}
    for tile, extents in pairs:
        if tile in out:
            raise ParseError(f"tile {tile!r} listed twice in shapes")
        out[tile] = extents
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
    for idx, key in enumerate(("dim", "shapes", "window", "seed"), 1):
        if idx >= len(lines):
            raise ParseError(f"missing header line {key!r}")
        name, _, rest = lines[idx].partition(" ")
        if name != key:
            raise ParseError(f"expected header {key!r}, found {name!r}")
        header[key] = rest
    dim = int(header["dim"])
    if dim < 1:
        raise ParseError(f"dim: must be >= 1, got {dim}")
    shapes = _parse_shapes(header["shapes"])
    window = _parse_window(header["window"].split(), dim)
    seed = int(header["seed"])
    return dim, shapes, window, seed, len(header) + 1


class _Kind(NamedTuple):
    """A file kind's record layout: ``fields`` of ``dim`` coordinates each, the
    tile label after ``label_at`` of them; ``build(shapes, dim, window,
    *records)`` makes the object."""

    name: str
    magic: str
    fields: tuple[str, ...]
    label_at: int
    build: Callable


_CHUNK_ROWS = 1 << 16


def _label_table(tiles) -> np.ndarray:
    """One row of zero-padded UTF-8 label bytes per tile, in the given order."""
    names = [str(t).encode("utf-8") for t in tiles]
    width = max((len(b) for b in names), default=1)
    return np.array(names, dtype=f"S{width}").view(np.uint8).reshape(len(names), width)


def _text_blocks(fields: list[np.ndarray]) -> Iterator[bytes]:
    """Lines of space-separated fields, as byte blocks of ``_CHUNK_ROWS``
    lines each, so the scratch matrix stays small.

    A field is an integer column, written in decimal, or a uint8 matrix of
    label bytes padded with zero bytes.  Each field fills its own byte
    columns of one matrix (a decimal right-aligned behind its sign column),
    laid out one matrix row per byte column so that every store is
    contiguous; the matrix is transposed once into the pass that deletes its
    zero bytes.
    """
    for lo in range(0, len(fields[0]), _CHUNK_ROWS):
        yield _text_block([field[lo : lo + _CHUNK_ROWS] for field in fields])


def _text_block(fields: list[np.ndarray]) -> bytes:
    # A decimal field's width: a sign column and the digits of its greatest magnitude.
    widths = [
        field.shape[1]
        if field.dtype == np.uint8
        else 1 + len(str(max(int(field.max()), -int(field.min()))))
        for field in fields
    ]
    mat = np.empty((sum(widths) + len(widths), len(fields[0])), dtype=np.uint8)
    at = 0
    for field, width in zip(fields, widths):
        if field.dtype == np.uint8:
            mat[at : at + width] = field.T
        else:
            _decimal_rows(field, mat[at : at + width])
        at += width
        mat[at] = ord(" ")
        at += 1
    mat[-1] = ord("\n")
    rows = mat.T.tobytes()
    del mat  # freed before the pass that deletes the zero bytes
    return rows.translate(None, b"\0")


def _decimal_rows(field: np.ndarray, out: np.ndarray) -> None:
    """Write ``field`` in decimal down the byte rows ``out``: a ``-`` or a zero
    byte, then the digits right-aligned, each leading zero a zero byte."""
    neg = field < 0
    data = field.astype(np.uint64)
    np.negative(data, out=data, where=neg)
    if len(out) <= 10:  # nine digits or fewer fit in uint32
        data = data.astype(np.uint32)
    out[0] = neg * np.uint8(ord("-"))
    # ``//`` by the dtype's own 10 and a product back: cheaper than np.divmod,
    # and one dtype under numpy 1.x's value-based casting too.
    ten = data.dtype.type(10)
    for j in range(len(out) - 1, 0, -1):
        rest, row = data // ten, out[j]
        np.subtract(data, rest * ten, out=row, casting="unsafe")
        row += ord("0")
        if j < len(out) - 1:
            row *= data > 0  # a leading zero is blanked
        data = rest


def _text_file(kind: _Kind, seed: int, dim, shapes, window, tiles, codes, fields) -> Iterator[bytes]:
    """The text file of records, in blocks: tile ``tiles[codes[k]]`` and ``fields`` row k."""
    header = [kind.magic, f"dim {dim}", f"shapes {_fmt_shapes(shapes)}", _window_line(window)]
    yield ("\n".join(header + [f"seed {seed}"]) + "\n").encode("utf-8")
    columns = [field[:, a] for field in fields for a in range(dim)]
    columns.insert(kind.label_at * dim, _label_table(tiles).take(codes, axis=0))
    yield from _text_blocks(columns)


def _tiling_records(tiling: Tiling) -> tuple:
    t = tiling.sorted_canonical()
    return t.dim, t.tile_shapes, t.window, t.tile_order, t.codes, [t.anchors]


def _word_records(word: SymbolicWord) -> tuple:
    alphabet, assigned = word.alphabet, word.grid >= 0
    syms = word.grid[assigned]
    cells = np.argwhere(assigned) + np.array(word.box.anchor, dtype=np.int64)
    codes, fields = alphabet.tile_codes[syms], [cells, alphabet.offsets[syms]]
    return alphabet.dim, alphabet.tile_shapes, word.box, alphabet.tiles, codes, fields


def file_blocks(tiling_or_word: Tiling | SymbolicWord, seed: int) -> Iterator[bytes]:
    """The file of a tiling or a word, as the byte blocks that
    ``write_atomic`` writes one after another."""
    if isinstance(tiling_or_word, Tiling):
        kind, records = TILING, _tiling_records(tiling_or_word)
    else:
        kind, records = WORD, _word_records(tiling_or_word)
    return _text_file(kind, seed, *records)


def serialize_tiling(tiling: Tiling, seed: int = 0) -> str:
    """The tiling's file as one string.  The CLI writes ``file_blocks``; this
    stays because the benchmark's tracer hooks it on ``cli.main``."""
    return b"".join(file_blocks(tiling, seed)).decode("utf-8")


_LABEL_BYTES = (string.ascii_letters + string.digits + "-").encode()
_MAX_TOKEN = 20  # a sign and 19 digits hold every int64; longer tokens go to the line walk
_CHUNK_BYTES = 1 << 17


def _distinct(values: list) -> tuple[list, np.ndarray]:
    """The distinct values in order of first appearance, and each one's index among them."""
    index = {v: i for i, v in enumerate(dict.fromkeys(values))}
    return list(index), np.fromiter(map(index.get, values), dtype=np.intp, count=len(values))


def _parse_bulk(data: bytes, kind: _Kind) -> tuple | None:
    """``((dim, shapes, window, seed), (tiles, inverse, fields))`` of a text
    file's bytes, in numpy passes over its body.

    Returns None, leaving the file to the line walk, unless the bytes are
    ASCII, each header line ends in a bare ``\\n``, every body line is a
    label and one token per coordinate, each of at most ``_MAX_TOKEN`` bytes,
    joined by single spaces and ended by ``\\n``, every label is letters,
    digits and ``-``, and every coordinate is an optional ``-`` and digits
    that fit in int64; the line walk reads such files the same.  The body
    goes in chunks of whole lines, so the scratch arrays stay small; each
    chunk writes its lines into columns sized by the body's line count.
    """
    if not data.isascii():
        return None
    lines: list[str] = []
    pos = 0
    while len(lines) < 5:
        end = data.find(b"\n", pos)
        if end < 0:
            return None
        line = data[pos:end].decode("ascii")
        pos = end + 1
        if line.strip():
            if line.splitlines() != [line]:
                return None
            lines.append(line)
    dim, shapes, window, seed, _ = _read_header(lines, kind.magic)
    if dim >= 2**62:  # (2 * dim, n) arrays need 2 * dim to fit in intp
        return None
    width = len(kind.fields) * dim + 1
    buf = np.frombuffer(data, dtype=np.uint8)
    # The body's chunks and their line counts, so that the columns are sized first.
    cuts = [pos]
    while cuts[-1] < len(data):
        cut = data.find(b"\n", cuts[-1] + _CHUNK_BYTES)
        cuts.append(len(data) if cut < 0 else cut + 1)
    counts = [np.count_nonzero(buf[a:b] == ord("\n")) for a, b in zip(cuts, cuts[1:])]
    if 2 * width * sum(counts) > len(data) - pos:  # a line holds a byte and a separator a token
        return None
    # The header's labels of 1 to 8 label bytes, packed as the body's are and
    # sorted: label k of the table has id k, and a label it lacks the next free id.
    named = [s for s in map(str, shapes) if s and not s.encode().translate(None, _LABEL_BYTES)]
    table = np.unique(_packed_keys(_label_table([s for s in named if len(s) <= 8])))
    tokens = {bytes(tok): k for k, tok in enumerate(table.view("S8"))}
    inverse = np.empty(sum(counts), dtype=np.intp)
    values = np.empty((width - 1, len(inverse)), dtype=np.int64)
    row = 0
    for start, end, count in zip(cuts, cuts[1:], counts):
        rows = slice(row, row + count)
        keys = _parse_lines(buf[start:end], width, kind.label_at * dim, values[:, rows])
        if keys is None:
            return None
        inverse[rows] = _label_ids(keys, table, tokens)
        row = rows.stop
    if any(tok.translate(None, _LABEL_BYTES) for tok in tokens):
        return None
    tiles = [_parse_tile(tok.decode("ascii")) for tok in tokens]
    fields = [values[k * dim : (k + 1) * dim].T for k in range(len(kind.fields))]
    return (dim, shapes, window, seed), (tiles, inverse, fields)


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


def _parse_lines(chunk: np.ndarray, width: int, at: int, values: np.ndarray) -> np.ndarray | None:
    """The label keys of whole body lines of ``width`` tokens, the label at
    token ``at``, one line per column of ``values``, which takes the other
    tokens' values; or None where the line walk decides.  A key is the label
    packed into a uint64 when every label has at most 8 bytes, else its bytes."""
    # Token k ends at the k-th separator and starts after the one before.
    stops = np.flatnonzero((chunk == ord("\n")) | (chunk == ord(" ")))
    n = values.shape[1]  # the chunk's line ends
    if len(stops) != n * width or chunk[-1] != ord("\n"):
        return None
    starts = np.empty_like(stops)
    starts[0] = 0
    starts[1:] = stops[:-1] + 1
    stops = stops.reshape(n, width)
    starts = starts.reshape(n, width)
    # Each line's last separator is one of the chunk's n line ends.
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
    for row, token in enumerate(t for t in range(width) if t != at):
        neg = chunk[starts[:, token]] == ord("-")
        if not _int64_tokens(digits, starts[:, token], stops[:, token], neg, values[row]):
            return None
        allowed += np.count_nonzero(neg)
    if len(chunk) - np.count_nonzero(is_digit) != allowed:
        return None
    if labels.shape[1] <= 8:
        return _packed_keys(labels)
    return labels.view(f"S{labels.shape[1]}").ravel()


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
            raise ParseError(f"bad {'placement' if kind is TILING else 'cell'} line {ln!r}")
        tiles.append(_parse_tile(parts.pop(kind.label_at * dim)))
        rows.append([int(x) for x in parts])
    fields = [[row[k * dim : (k + 1) * dim] for row in rows] for k in range(len(kind.fields))]
    return (dim, shapes, window, seed), (*_distinct(tiles), fields)


def _read_text(text: str | bytes, kind: _Kind) -> tuple:
    """(object, seed) of a text file, given as text or as ASCII bytes with
    ``\\n`` line ends; read from its bytes in bulk where it can be, else by
    the line walk over its text."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    with _fields_of(kind.name):
        (dim, shapes, window, seed), records = _parse_bulk(data, kind) or _walk_lines(
            text if isinstance(text, str) else text.decode("ascii"), kind
        )
        return kind.build(shapes, dim, window, *records), seed


def _coords(rows, dim: int) -> np.ndarray:
    """Rows of ``dim`` coordinates as an (n, dim) array, int64 or, if a value
    leaves int64, Python ints."""
    if isinstance(rows, np.ndarray):
        return rows
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), dim)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), dim)


def _build_tiling(shapes: dict, dim: int, window, tiles: list, inverse, fields) -> Tiling:
    """Placement k is tile ``tiles[inverse[k]]`` at anchor k; canonical order.
    Refuses a bad tile shape, an unknown tile (the first in placement order)
    or an anchor that leaves int64, checked in that order."""
    if any(len(s) != dim or min(s) < 1 for s in shapes.values()):
        raise ParseError(f"every tile shape needs {dim} positive extents")
    unknown = np.array([t not in shapes for t in tiles], dtype=bool)
    if np.any(unknown):
        first = np.flatnonzero(unknown[inverse])[0]
        raise ParseError(f"unknown tile {tiles[inverse[first]]!r}")
    rows = _coords(fields[0], dim)
    if rows.dtype != np.int64:
        raise ParseError(f"every anchor needs {dim} int64 coordinates")
    code_of = {t: i for i, t in enumerate(sorted(shapes, key=tile_sort_key))}
    codes = np.array([code_of[t] for t in tiles], dtype=np.int32)[inverse]
    return Tiling(shapes, codes, rows, window).sorted_canonical()


def _build_word(shapes: dict, dim: int, window, tiles: list, inverse, fields) -> SymbolicWord:
    """The word of (cell, tile, offset) records, built in array passes.

    Refuses a missing window or one of more than ``MAX_PAINT_CELLS`` cells,
    the verifier's bound, else names the first offending record in file
    order and its first defect of: an unknown tile, a cell outside the
    window, a cell listed twice, an offset its tile lacks.  A symbol's index
    is its tile's first symbol plus the offset's C-order index in the tile."""
    if window is None:
        raise ParseError("word files need an explicit window")
    if window.volume > MAX_PAINT_CELLS:
        raise ParseError(f"word window of {window.volume} cells is too large to paint")
    word = SymbolicWord(Alphabet(dim, shapes), window)
    alphabet = word.alphabet
    codes = [alphabet.tiles.index(t) if t in shapes else -1 for t in tiles]
    codes = np.array(codes, dtype=np.intp)[inverse]
    cells, offsets = (_coords(field, dim) for field in fields)
    lo, hi = _coords([window.anchor, window.end], dim)
    inside = np.all((cells >= lo) & (cells < hi), axis=1)
    # An unknown tile (code -1) gets the last row, a zero shape that no offset fits.
    sizes = np.array([*map(alphabet.shape, alphabet.tiles), (0,) * dim], dtype=np.int64)[codes]
    fits = np.all((offsets >= 0) & (offsets < sizes), axis=1)
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
            (not inside[k], f"cell {cell} outside window"),
            (twice[k], f"cell {cell} listed twice"),
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


TILING = _Kind("tiling", "dominofill tiling v1", ("anchor",), 0, _build_tiling)
WORD = _Kind("word", "dominofill word v1", ("cell", "offset"), 1, _build_word)


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


# The ASCII bytes ``str.isspace`` accepts, as ``str.lstrip`` strips them.
_SPACE = bytes(c for c in range(128) if chr(c).isspace())


def load_any(path: str) -> LoadedFile:
    """The tiling or word in a file, read as text mode reads it.

    The file is read once, as bytes.  ASCII bytes with no ``\\r`` are what
    text mode reads, so only their head (the first non-blank line and the
    blank lines before it) is decoded to tell the kind, and the file goes to
    the bulk parser as bytes.  Any other file is decoded as UTF-8 with
    universal newlines.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data.isascii() and b"\r" not in data:
        text, start = None, len(data) - len(data.lstrip(_SPACE))
        end = data.find(b"\n", start)
        head = data[: len(data) if end < 0 else end].decode("ascii")
    else:
        try:
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path!r} is not UTF-8: {exc}") from exc
        start = len(text) - len(text.lstrip())
        end = text.find("\n", start)
        head = text if end < 0 else text[:end]
    # The first non-blank line, unstripped, as parse_tiling and parse_word read it.
    first = next((ln for ln in head.splitlines() if ln.strip()), "")
    for kind in (TILING, WORD):
        if first == kind.magic:
            built, seed = _read_text(data if text is None else text, kind)
            return LoadedFile(kind.name, seed=seed, **{kind.name: built})
    if first.startswith("dominofill "):
        raise VersionMismatch(f"unsupported format marker {first!r}")
    raise ParseError(f"unrecognized file {path!r}")


def write_atomic(path: str, content: str | Iterable[bytes]) -> None:
    """Write ``content``, a str or byte blocks (``file_blocks``), to ``path``
    one block at a time through a renamed temp file, with the mode a plain
    ``open(path, "w")`` gives (``mkstemp`` makes it 0600).  A block that
    raises leaves no temp file and ``path`` as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines([content.encode("utf-8")] if isinstance(content, str) else content)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
