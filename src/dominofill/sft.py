"""Symbolic coding of rectangle tilings as a nearest-neighbour shift.

Every cell of a tiling is labelled by the tile covering it together with the
cell's offset inside that tile.  The resulting word obeys a one-step rule per
axis: inside a tile the offset must increment, and at a tile's far face the
next symbol may be any tile's near face.  Words over box domains are stored
as integer grids (symbol indices, -1 for unassigned), so that validation and
decoding are array passes.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .geometry import Box
from .numerics import RectFamily

TileId = int | str


class InvalidWord(ValueError):
    pass


class Symbol(NamedTuple):
    tile: int | str
    offset: tuple[int, ...]


class Violation(NamedTuple):
    cell: tuple[int, ...]
    axis: int
    symbol: Symbol
    neighbor: Symbol


def tile_table(tiles: Iterable[TileId]) -> dict[TileId, int]:
    """Each tile's code, its index in the one tile order every layer uses:
    small tiles by index, then large tiles by the stage number their
    ASCII-digit suffix names (0 without one), ties by label.  The dict lists
    the tiles in that order."""

    def key(tile: TileId) -> tuple[int, int, str]:
        if isinstance(tile, int):
            return (0, tile, "")
        suffix = tile[1:]
        return (1, int(suffix) if suffix.isascii() and suffix.isdigit() else 0, tile)

    return {tile: code for code, tile in enumerate(sorted(tiles, key=key))}


class Alphabet:
    """Symbol table for a tile-shape map, with its numpy lookup tables."""

    def __init__(self, dim: int, tile_shapes: Mapping[TileId, Sequence[int]]) -> None:
        self.dim = dim
        self.tile_shapes: dict[int | str, tuple[int, ...]] = {}
        for tile, shape in tile_shapes.items():
            vec = tuple(int(x) for x in shape)
            if len(vec) != dim or any(x < 1 for x in vec):
                raise ValueError(f"bad shape {vec} for tile {tile!r}")
            self.tile_shapes[tile] = vec
        self.code_of = tile_table(self.tile_shapes)
        self.tiles = list(self.code_of)
        self.symbols: list[Symbol] = []
        for tile in self.tiles:
            for offset in Box((0,) * dim, self.tile_shapes[tile]).cells():
                self.symbols.append(Symbol(tile, offset))
        n = len(self.symbols)
        self.tile_codes = np.array([self.code_of[s.tile] for s in self.symbols], dtype=np.int32)
        self.offsets = np.array([s.offset for s in self.symbols], dtype=np.int32)
        # Each tile's shape and its cell offsets, int64 rows, indexed by tile code.
        self.shape_table = np.array([self.tile_shapes[t] for t in self.tiles], dtype=np.int64)
        self.tile_cells = [
            self.offsets[self.tile_codes == c].astype(np.int64) for c in range(len(self.tiles))
        ]
        self.size = n

    def shape(self, tile: TileId) -> tuple[int, ...]:
        return self.tile_shapes[tile]

    def paint(self, codes, anchors, origin, shape) -> Iterator[tuple[int, np.ndarray]]:
        """(symbol index, flat cells) per tile code present and per cell offset, in C order.

        The cells are that offset's cell of every tile of that code at
        ``anchors`` (rows), as flat C-order indices in a grid of ``shape``
        whose first cell is ``origin``; the caller keeps the tiles inside it.
        A tile's symbols are numbered consecutively in C order of their
        offsets.  The anchors are flattened one anchor column a pass.
        """
        strides = [math.prod(shape[a + 1 :]) for a in range(len(shape))]
        flat = np.zeros(len(codes), dtype=np.int64)
        for a, (low, stride) in enumerate(zip(origin, strides)):
            flat += (anchors[:, a] - low) * stride
        first = 0
        for code, cells in enumerate(self.tile_cells):
            at = flat[codes == code]
            if len(at):
                for symbol, step in enumerate((cells @ strides).tolist(), first):
                    yield symbol, at + step
            first += len(cells)

    def transition(self, axis: int) -> np.ndarray:
        """Boolean table T[a, b]: symbol b may sit one step up ``axis`` from a."""
        same_tile = self.tile_codes[:, None] == self.tile_codes[None, :]
        at_face = self.offsets[:, axis] == self.shape_table[self.tile_codes, axis] - 1
        unit = np.zeros(self.dim, dtype=np.int32)
        unit[axis] = 1
        step = self.offsets[None, :, :] - self.offsets[:, None, :]
        interior_ok = same_tile & np.all(step == unit, axis=2)
        face_ok = self.offsets[None, :, axis] == 0
        return np.where(at_face[:, None], face_ok, interior_ok)


def build_alphabet(
    f: RectFamily, large: Mapping[TileId, Sequence[int]] | None = None
) -> Alphabet:
    """Alphabet of the family's tiles plus large brick tiles.

    By default a single large tile ``"P"`` with the family's product shape is
    included; pass an explicit mapping (possibly empty) to override.
    """
    shapes: dict[int | str, Sequence[int]] = {
        j + 1: s for j, s in enumerate(f.shapes)
    }
    if large is None:
        large = {"P": f.large_shape}
    for tile, shape in large.items():
        shapes[tile] = shape
    return Alphabet(f.dim, shapes)


class SymbolicWord:
    """Partial word over a box: an int grid of symbol indices, -1 unassigned."""

    def __init__(self, alphabet: Alphabet, box: Box, grid: np.ndarray | None = None) -> None:
        self.alphabet = alphabet
        self.box = box
        if grid is None:
            grid = np.full(box.shape, -1, dtype=np.int32)
        if tuple(grid.shape) != box.shape:
            raise ValueError("grid does not match box shape")
        self.grid = grid

    def cell(self, v: tuple[int, ...]) -> Symbol | None:
        if not self.box.contains_cell(v):
            return None
        idx = int(self.grid[tuple(x - a for x, a in zip(v, self.box.anchor))])
        return None if idx < 0 else self.alphabet.symbols[idx]

    def slices_for(self, sub: Box) -> tuple[slice, ...]:
        if not self.box.contains_box(sub):
            raise ValueError("sub-box leaves the word's box")
        return tuple(
            slice(a - b, a - b + e)
            for a, b, e in zip(sub.anchor, self.box.anchor, sub.shape)
        )

    def paste(self, sub: Box, values: np.ndarray) -> None:
        self.grid[self.slices_for(sub)] = values

    def subgrid(self, sub: Box) -> np.ndarray:
        return self.grid[self.slices_for(sub)]

    def restrict(self, sub: Box) -> "SymbolicWord":
        return SymbolicWord(self.alphabet, sub, self.subgrid(sub).copy())


def validate_word(word: SymbolicWord) -> list[Violation]:
    """All one-step adjacency violations between assigned cell pairs.

    Per axis the assigned pairs are compressed once and looked up in the
    flattened transition table as ``a * size + b``; the per-cell report is
    built only when that lookup finds a failure.
    """
    out: list[Violation] = []
    grid = word.grid
    alphabet = word.alphabet
    size = alphabet.size
    pair_dtype = np.int32 if size * size <= np.iinfo(np.int32).max else np.int64
    for axis in range(alphabet.dim):
        lo = [slice(None)] * alphabet.dim
        hi = [slice(None)] * alphabet.dim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        a = grid[tuple(lo)]
        b = grid[tuple(hi)]
        both = a >= 0
        both &= b >= 0
        pairs = a[both].astype(pair_dtype, copy=False)
        pairs *= size
        pairs += b[both]
        ok = alphabet.transition(axis).ravel()[pairs]
        if ok.all():
            continue
        bad = np.zeros(a.shape, dtype=bool)
        bad[both] = ~ok
        for rel in np.argwhere(bad):
            cell = tuple(int(x + y) for x, y in zip(word.box.anchor, rel))
            sym = alphabet.symbols[int(a[tuple(rel)])]
            nb = alphabet.symbols[int(b[tuple(rel)])]
            out.append(Violation(cell, axis, sym, nb))
    return out


class Tiling:
    """Whole-tile placements, stored columnar for bulk work: placement k is
    tile ``tile_order[codes[k]]`` at anchor row ``anchors[k]``, and of shape
    ``shape_table[codes[k]]``.  An empty tiling takes ``(0, dim)`` anchors,
    which give its dimension."""

    def __init__(
        self,
        tile_shapes: Mapping[TileId, tuple[int, ...]],
        codes: np.ndarray,
        anchors: np.ndarray,
        window: Box | None = None,
    ) -> None:
        self.tile_shapes = dict(tile_shapes)
        self.tile_order = list(tile_table(self.tile_shapes))
        self.codes = np.asarray(codes, dtype=np.int32)
        self.anchors = np.asarray(anchors, dtype=np.int64)
        if self.anchors.ndim != 2 or len(self.anchors) != len(self.codes):
            raise ValueError(f"anchors of shape {self.anchors.shape} for {len(self.codes)} codes")
        self.shape_table = np.array(
            [self.tile_shapes[t] for t in self.tile_order], dtype=np.int64
        ).reshape(len(self.tile_order), self.dim)
        self.window = window
        self._canonical = False  # set on the tilings sorted_canonical returns

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    def tile_cell_counts(self) -> dict[TileId, int]:
        """Cells covered per tile, counted from the codes on each call."""
        placed = np.bincount(self.codes, minlength=len(self.tile_order)).tolist()
        volumes = [math.prod(self.tile_shapes[t]) for t in self.tile_order]
        return {t: n * v for t, n, v in zip(self.tile_order, placed, volumes)}

    def sorted_canonical(self) -> "Tiling":
        """Placements ordered by anchor lexicographically, then tile (see
        ``canonical_tiling``).  A tiling already in that order is marked and
        returned as is, and a marked tiling is returned at once."""
        if self._canonical:
            return self
        return canonical_tiling(
            self.tile_shapes, self.anchors, [(slice(None), None, self.codes)], self.window, self
        )

    def concat(self, other: "Tiling") -> "Tiling":
        if self.tile_order != other.tile_order:
            raise ValueError("tilings use different tile tables")
        return Tiling(
            self.tile_shapes,
            np.concatenate([self.codes, other.codes]),
            np.concatenate([self.anchors, other.anchors]),
            self.window or other.window,
        )


# (rows, offsets, code): the placements anchors[rows] + each offset row (all
# >= 0; None is the one zero offset), with one tile code or one per row.
# Rows are an index array, or a slice in a group that is the only one and
# has no offsets.
PlacementGroup = tuple[np.ndarray | slice, np.ndarray | None, np.ndarray | int]


def canonical_tiling(
    tile_shapes: Mapping[TileId, tuple[int, ...]],
    anchors: np.ndarray,
    groups: Sequence[PlacementGroup],
    window: Box | None = None,
    source: Tiling | None = None,
) -> Tiling:
    """The placements of ``groups``, ordered by anchor lexicographically,
    then tile; codes index the ``tile_order`` of ``tile_shapes``.

    Each placement is one packed int64 key: each anchor column less its
    minimum, then the code.  An offset only adds a fixed delta to its row's
    key, so no anchor row is formed: each group writes its keys into one
    array, one in-place sort orders them, and division by each radix unpacks
    the codes and one contiguous column per axis into the arrays returned.
    Equal keys only come from equal placements.  Keys that would need more
    than 62 bits fall back to ``np.lexsort`` over the formed rows.  When the
    groups already list their placements in that order, ``source`` (if
    given) is returned in place of a copy.  The tiling returned is marked
    canonical, and its arrays are made read-only, so an edit in place that
    could break the order raises.
    """
    n_codes = len(tile_shapes)
    dim = anchors.shape[1]
    tops = [offsets.max(axis=0) for _, offsets, _ in groups if offsets is not None]
    reach = np.max(tops + [np.zeros(dim, dtype=np.int64)], axis=0)
    lows, extents = [0] * dim, [1] * dim
    if len(anchors):  # column by column: an axis-0 reduction over rows is slow
        lows = [int(anchors[:, a].min()) for a in range(dim)]
        highs = [int(anchors[:, a].max()) + int(r) for a, r in enumerate(reach)]
        extents = [hi - lo + 1 for lo, hi in zip(lows, highs)]
    if math.prod(extents) * n_codes >= 1 << 62:
        return _lexsorted(tile_shapes, anchors, groups, window, source)
    base = np.zeros(len(anchors), dtype=np.int64)
    for a, (lo, extent) in enumerate(zip(lows, extents)):
        base *= extent
        base += anchors[:, a]
        base -= lo
    base *= n_codes
    strides = np.array([n_codes * math.prod(extents[a + 1 :]) for a in range(dim)], dtype=np.int64)
    if len(groups) == 1 and groups[0][1] is None:  # add the codes in place: no copy
        rows, _, code = groups[0]
        keys = base[rows]
        keys += code
    else:  # each group's keys go straight to their place in one array
        sizes = [len(rows) * (1 if offsets is None else len(offsets)) for rows, offsets, _ in groups]
        keys = np.empty(sum(sizes), dtype=np.int64)
        at = 0
        for (rows, offsets, code), size in zip(groups, sizes):
            part = keys[at : at + size]
            if offsets is None:
                np.add(base[rows], code, out=part)
            else:
                part = part.reshape(len(rows), len(offsets))
                np.add(base[rows][:, None], offsets @ strides, out=part)
                part += np.reshape(code, (-1, 1))
            at += size
    if source is not None and np.all(keys[1:] >= keys[:-1]):
        return _mark_canonical(source)
    keys.sort()
    # ``//`` by a constant and a product back cost less than np.divmod.  The
    # keys and column 0 take turns holding the dividend and the quotient, and
    # each product goes to the column that then takes the remainder; the
    # codes' product borrows the last column before it is filled (a 1-D
    # tiling has none to borrow).
    codes = np.empty(len(keys), dtype=np.int32)
    columns = np.empty((dim, len(keys)), dtype=np.int64).T  # contiguous columns
    rest, spare = keys, columns[:, 0]
    product = columns[:, -1] if dim > 1 else np.empty_like(keys)
    np.floor_divide(rest, n_codes, out=spare)
    np.multiply(spare, n_codes, out=product)
    np.subtract(rest, product, out=codes, casting="unsafe")
    rest, spare = spare, rest
    for a in range(dim - 1, 0, -1):
        column = columns[:, a]
        np.floor_divide(rest, extents[a], out=spare)
        np.multiply(spare, extents[a], out=column)
        np.subtract(rest, column, out=column)
        column += lows[a]
        rest, spare = spare, rest
    np.add(rest, lows[0], out=columns[:, 0])
    return _mark_canonical(Tiling(tile_shapes, codes, columns, window))


def _lexsorted(tile_shapes, anchors, groups, window, source) -> Tiling:
    """``canonical_tiling`` for keys too wide to pack: form the rows, then ``np.lexsort``."""
    dim = anchors.shape[1]
    code_parts, row_parts = [np.zeros(0, dtype=np.int64)], [anchors[:0]]
    for rows, offsets, code in groups:
        block = anchors[rows]
        codes = np.broadcast_to(code, len(block))
        if offsets is not None:
            block = (block[:, None, :] + offsets[None, :, :]).reshape(-1, dim)
            codes = np.repeat(codes, len(offsets))
        code_parts.append(codes)
        row_parts.append(block)
    codes, rows = np.concatenate(code_parts), np.concatenate(row_parts)
    order = np.lexsort([codes] + [rows[:, a] for a in range(dim)][::-1])
    if source is not None and np.array_equal(order, np.arange(len(order))):
        return _mark_canonical(source)
    rows = np.asfortranarray(rows[order])
    return _mark_canonical(Tiling(tile_shapes, codes[order], rows, window))


def _mark_canonical(tiling: Tiling) -> Tiling:
    tiling._canonical = True
    tiling.codes.setflags(write=False)
    tiling.anchors.setflags(write=False)
    return tiling


class DecodeResult(NamedTuple):
    tiling: Tiling
    partials: Tiling
    partial_cells: int


def decode(word: SymbolicWord) -> DecodeResult:
    """Group assigned cells by placement into whole tiles and cut partials.

    Each cell names its placement (tile, cell - offset); a placement is whole
    iff all of its tile's cells are present.  Tiles cut by the box's faces
    or by unassigned cells are reported as partials (a tiling without a
    window), in (tile order, anchor) order, not as errors.  The word must be
    valid (see ``validate_word``); decode does not check it.
    """
    alphabet, shape = word.alphabet, word.box.shape
    # Pad the box on its low faces so that every anchor, even one below the
    # box, packs with its tile code into one int64 key: code * size + flat.
    pad = max(max(s) for s in alphabet.tile_shapes.values())
    padded = tuple(e + pad for e in shape)
    grid = np.full(padded, -1, dtype=np.int32)
    grid[(slice(pad, None),) * alphabet.dim] = word.grid
    size = np.int64(math.prod(padded))  # keys are int64 whatever the codes' dtype
    strides = np.cumprod((padded[1:] + (1,))[::-1])[::-1]
    volumes = np.array([math.prod(alphabet.shape(t)) for t in alphabet.tiles])
    cells = grid.ravel()
    flat = np.flatnonzero(cells >= 0)
    syms = cells[flat]
    flat -= (alphabet.offsets @ strides)[syms]  # each cell's anchor
    keys, counts = np.unique(alphabet.tile_codes[syms] * size + flat, return_counts=True)
    codes, flat = np.divmod(keys, size)
    whole = counts == volumes[codes]
    coords = np.stack(np.unravel_index(flat, padded), axis=1)
    coords += np.array(word.box.anchor, dtype=np.int64) - pad
    tiling = Tiling(alphabet.tile_shapes, codes[whole], coords[whole], word.box)
    partials = Tiling(alphabet.tile_shapes, codes[~whole], coords[~whole])
    return DecodeResult(tiling, partials, int(counts[~whole].sum()))
