"""Symbolic coding of rectangle tilings as a nearest-neighbour shift.

Every cell of a tiling is labelled by the tile covering it together with the
cell's offset inside that tile.  The resulting word obeys a one-step rule per
axis: inside a tile the offset must increment, and at a tile's far face the
next symbol may be any tile's near face.  Words over box domains are stored
as integer grids (symbol indices, -1 for unassigned) so that validation and
decoding stay vectorised on multi-million-cell windows.
"""

from __future__ import annotations

import math
from typing import Iterator, Mapping, NamedTuple, Sequence

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


class Placement(NamedTuple):
    tile: TileId
    anchor: tuple[int, ...]


def tile_sort_key(tile: TileId) -> tuple[int, int]:
    """Small tiles by index, then large tiles by their stage number."""
    if isinstance(tile, int):
        return (0, tile)
    suffix = tile[1:]
    return (1, int(suffix) if suffix else 0)


class Alphabet:
    """Symbol table for a tile-shape map, with cached numpy lookup tables."""

    def __init__(self, dim: int, tile_shapes: Mapping[TileId, Sequence[int]]) -> None:
        self.dim = dim
        self.tile_shapes: dict[int | str, tuple[int, ...]] = {}
        for tile, shape in tile_shapes.items():
            vec = tuple(int(x) for x in shape)
            if len(vec) != dim or any(x < 1 for x in vec):
                raise ValueError(f"bad shape {vec} for tile {tile!r}")
            self.tile_shapes[tile] = vec
        self.tiles = sorted(self.tile_shapes, key=tile_sort_key)
        self.symbols: list[Symbol] = []
        for tile in self.tiles:
            for offset in Box((0,) * dim, self.tile_shapes[tile]).cells():
                self.symbols.append(Symbol(tile, offset))
        self._index = {s: i for i, s in enumerate(self.symbols)}
        n = len(self.symbols)
        self.tile_codes = np.array(
            [self.tiles.index(s.tile) for s in self.symbols], dtype=np.int32
        )
        self.offsets = np.array([s.offset for s in self.symbols], dtype=np.int32)
        self.sym_shapes = np.array(
            [self.tile_shapes[s.tile] for s in self.symbols], dtype=np.int32
        )
        self.is_anchor = np.all(self.offsets == 0, axis=1)
        self._transitions: dict[int, np.ndarray] = {}
        self._blocks: dict[int | str, np.ndarray] = {}
        self.size = n

    def index(self, symbol: Symbol) -> int:
        return self._index[symbol]

    def symbol(self, idx: int) -> Symbol:
        return self.symbols[idx]

    def shape(self, tile: TileId) -> tuple[int, ...]:
        return self.tile_shapes[tile]

    def block(self, tile: TileId) -> np.ndarray:
        """Symbol-index grid of one whole tile (offset -> index)."""
        if tile not in self._blocks:
            shape = self.tile_shapes[tile]
            arr = np.empty(shape, dtype=np.int32)
            for off in Box((0,) * self.dim, shape).cells():
                arr[off] = self._index[Symbol(tile, off)]
            self._blocks[tile] = arr
        return self._blocks[tile]

    def transition(self, axis: int) -> np.ndarray:
        """Boolean table T[a, b]: symbol b may sit one step up ``axis`` from a."""
        if axis not in self._transitions:
            off_a = self.offsets[:, None, :]
            off_b = self.offsets[None, :, :]
            same_tile = self.tile_codes[:, None] == self.tile_codes[None, :]
            at_face = self.offsets[:, axis] == self.sym_shapes[:, axis] - 1
            step = off_b - off_a
            unit = np.zeros(self.dim, dtype=np.int32)
            unit[axis] = 1
            increments = np.all(step == unit, axis=2)
            interior_ok = same_tile & increments
            face_ok = self.offsets[None, :, axis] == 0
            table = np.where(at_face[:, None], face_ok, interior_ok)
            self._transitions[axis] = table
        return self._transitions[axis]


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


def allowed_neighbor(alphabet: Alphabet, s: Symbol, axis: int, t: Symbol) -> bool:
    """One-step rule: does symbol ``t`` legally follow ``s`` along ``axis``?"""
    shape = alphabet.shape(s.tile)
    if s.offset[axis] < shape[axis] - 1:
        expected = s.offset[:axis] + (s.offset[axis] + 1,) + s.offset[axis + 1 :]
        return t.tile == s.tile and t.offset == expected
    return t.offset[axis] == 0


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

    def _rel(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(x - a for x, a in zip(v, self.box.anchor))

    def set_cell(self, v: tuple[int, ...], symbol: Symbol) -> None:
        self.grid[self._rel(v)] = self.alphabet.index(symbol)

    def cell(self, v: tuple[int, ...]) -> Symbol | None:
        if not self.box.contains_cell(v):
            return None
        idx = int(self.grid[self._rel(v)])
        return None if idx < 0 else self.alphabet.symbol(idx)

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

    def iter_cells(self) -> Iterator[tuple[tuple[int, ...], Symbol]]:
        """Assigned cells in lexicographic order."""
        for rel in np.argwhere(self.grid >= 0):
            cell = tuple(int(a + r) for a, r in zip(self.box.anchor, rel))
            yield cell, self.alphabet.symbol(int(self.grid[tuple(rel)]))

    def equals_on(self, other: "SymbolicWord", sub: Box) -> bool:
        return bool(np.array_equal(self.subgrid(sub), other.subgrid(sub)))


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
            sym = alphabet.symbol(int(a[tuple(rel)]))
            nb = alphabet.symbol(int(b[tuple(rel)]))
            out.append(Violation(cell, axis, sym, nb))
    return out


class Tiling:
    """Whole-tile placements, stored columnar for bulk work."""

    def __init__(
        self,
        tile_shapes: Mapping[TileId, tuple[int, ...]],
        codes: np.ndarray,
        anchors: np.ndarray,
        window: Box | None = None,
    ) -> None:
        self.tile_shapes = dict(tile_shapes)
        self.tile_order = sorted(self.tile_shapes, key=tile_sort_key)
        self.codes = np.asarray(codes, dtype=np.int32)
        self.anchors = np.asarray(anchors, dtype=np.int64)
        if self.anchors.ndim != 2 or len(self.anchors) != len(self.codes):
            raise ValueError(f"anchors of shape {self.anchors.shape} for {len(self.codes)} codes")
        self.window = window
        self._canonical = False  # set on the tilings sorted_canonical returns

    @classmethod
    def from_parts(
        cls,
        tile_shapes: Mapping[TileId, tuple[int, ...]],
        parts: Sequence[tuple[TileId, np.ndarray]],
        window: Box | None = None,
    ) -> "Tiling":
        """Placements from ``(tile, anchor rows)`` parts, kept in part order.

        Codes index ``tile_order``.  With no parts the tiling is empty; its
        dimension comes from the tile shapes, else the window, else 1.
        """
        code_of = {t: i for i, t in enumerate(sorted(tile_shapes, key=tile_sort_key))}
        if tile_shapes:
            dim = len(next(iter(tile_shapes.values())))
        else:
            dim = window.dim if window is not None else 1
        codes = np.repeat(
            np.array([code_of[t] for t, _ in parts], dtype=np.int32),
            [len(a) for _, a in parts],
        )
        blocks = [np.asarray(a, dtype=np.int64).reshape(-1, dim) for _, a in parts]
        anchors = np.concatenate(blocks) if blocks else np.zeros((0, dim), dtype=np.int64)
        return cls(tile_shapes, codes, anchors, window)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    def placements(self) -> Iterator[Placement]:
        for code, anchor in zip(self.codes, self.anchors):
            yield Placement(self.tile_order[int(code)], tuple(int(x) for x in anchor))

    def shape_table(self) -> np.ndarray:
        """Tile shapes in ``tile_order``, one int64 row per tile (indexed by code)."""
        table = np.array([self.tile_shapes[t] for t in self.tile_order], dtype=np.int64)
        return table.reshape(len(self.tile_order), self.dim)

    def placement_shapes(self) -> np.ndarray:
        """Tile shape of each placement, one int64 row per placement."""
        return self.shape_table()[self.codes]

    def covered_cells(self) -> int:
        return sum(self.tile_cell_counts().values())

    def tile_cell_counts(self) -> dict[TileId, int]:
        out = {}
        for code, tile in enumerate(self.tile_order):
            n = int(np.count_nonzero(self.codes == code))
            out[tile] = n * math.prod(self.tile_shapes[tile])
        return out

    def sorted_canonical(self) -> "Tiling":
        """Placements ordered by anchor lexicographically, then tile.

        The order is that of one packed int64 key per row (each anchor column
        less its minimum, then the code); equal keys only come from equal
        rows, so one ``argsort`` gives the lexicographic order.  Spans too
        wide to pack in 62 bits fall back to ``np.lexsort``.  A tiling
        already in that order is returned as is.  The tiling returned is
        marked, and a marked tiling is returned at once; its arrays are made
        read-only, so an edit in place that could break the order raises.
        """
        if self._canonical:
            return self
        order = self._canonical_order()
        canon = self if order is None else Tiling(
            self.tile_shapes, self.codes[order], self.anchors[order], self.window
        )
        canon._canonical = True
        canon.codes.setflags(write=False)
        canon.anchors.setflags(write=False)
        return canon

    def _canonical_order(self) -> np.ndarray | None:
        """The permutation ``sorted_canonical`` applies, or None if the
        placements are already in canonical order."""
        n = len(self.codes)
        if n < 2:
            return None
        columns = [self.anchors[:, a] for a in range(self.dim)]
        spans = [(int(c.min()), int(c.max()) + 1) for c in columns]
        n_codes = len(self.tile_order)
        if math.prod(hi - lo for lo, hi in spans) * n_codes < 1 << 62:
            key = np.zeros(n, dtype=np.int64)
            for column, (lo, hi) in zip(columns, spans):
                key *= hi - lo
                key += column
                key -= lo
            key *= n_codes
            key += self.codes
            return None if np.all(key[1:] >= key[:-1]) else np.argsort(key)
        order = np.lexsort([self.codes] + columns[::-1])
        return None if np.array_equal(order, np.arange(n)) else order

    def concat(self, other: "Tiling") -> "Tiling":
        if self.tile_order != other.tile_order:
            raise ValueError("tilings use different tile tables")
        return Tiling(
            self.tile_shapes,
            np.concatenate([self.codes, other.codes]),
            np.concatenate([self.anchors, other.anchors]),
            self.window or other.window,
        )

    def same_placements(self, other: "Tiling") -> bool:
        a = self.sorted_canonical()
        b = other.sorted_canonical()
        return bool(
            a.tile_order == b.tile_order
            and np.array_equal(a.codes, b.codes)
            and np.array_equal(a.anchors, b.anchors)
        )


class DecodeResult(NamedTuple):
    tiling: Tiling
    partials: Tiling
    partial_cells: int


def decode(
    word: SymbolicWord,
    corners: np.ndarray | None = None,
    shape: Sequence[int] | None = None,
) -> DecodeResult:
    """Group assigned cells by placement into whole tiles and cut partials.

    Each cell names its placement (tile, cell - offset); a placement is whole
    iff all of its tile's cells are present.  Tiles cut by the domain boundary
    or by unassigned cells are reported as partials (a tiling without a
    window), in (tile order, anchor) order, not as errors.  The word must be
    valid (see ``validate_word``); decode does not check it.

    Given ``corners``, an ``(n, dim)`` array of low corners of ``shape``-
    sized domains inside the word's box, each domain decodes as if the word
    were restricted to it, all in one grouping: placements and partials come
    domain after domain, and the tiling's window is the word's box.  Without
    ``corners`` the whole word is decoded.  When every cell of the domains
    is assigned, a placement is whole iff its anchor cell's tile fits in its
    domain, and only the cells within a tile side of a face are grouped.
    """
    alphabet = word.alphabet
    dim = alphabet.dim
    if corners is None:
        corners, shape = np.array([word.box.anchor]), word.box.shape
    corners = np.asarray(corners, dtype=np.int64).reshape(-1, dim)
    rel = corners - np.array(word.box.anchor, dtype=np.int64)
    if np.any(rel < 0) or np.any(rel + shape > word.box.shape):
        raise ValueError(f"a {shape} domain leaves the word's box {word.box}")
    # Stack the domains along a leading axis, each padded on its low side so
    # every anchor gets a flat index inside its own domain's slab.
    pad = max(max(s) for s in alphabet.tile_shapes.values())
    slab_shape = tuple(e + pad for e in shape)
    stacked = np.full((len(rel),) + slab_shape, -1, dtype=np.int32)
    windows = np.lib.stride_tricks.sliding_window_view(word.grid, shape)
    stacked[(slice(None),) + (slice(pad, None),) * dim] = windows[tuple(rel.T)]
    slab_size = math.prod(slab_shape)
    strides = np.cumprod((slab_shape[1:] + (1,))[::-1])[::-1]
    n_tiles = len(alphabet.tiles)
    volumes = np.array([math.prod(alphabet.shape(t)) for t in alphabet.tiles])

    def packed(anchors, syms):
        # Key (domain, tile code, anchor in the slab), domain-major:
        # anchor + (code + domain * (n_tiles - 1)) * slab_size.
        major = anchors // slab_size
        major *= n_tiles - 1
        major += alphabet.tile_codes[syms]
        major *= slab_size
        major += anchors
        return major

    cells = stacked.ravel()
    grouped = stacked >= 0
    fitted = None
    if np.count_nonzero(grouped) == len(rel) * math.prod(shape):
        # Every cell is assigned, so in a valid word a placement is whole iff
        # its anchor cell's tile fits in the domain.  The other placements
        # lie within a tile side of a face: only those cells are grouped.
        starts = np.flatnonzero(np.append(alphabet.is_anchor, False)[cells])
        corner = np.stack(np.unravel_index(starts % slab_size, slab_shape), axis=1)
        fitted = starts[np.all(corner + alphabet.sym_shapes[cells[starts]] <= slab_shape, axis=1)]
        grouped[(slice(None),) + tuple(slice(2 * pad - 1, e + 1) for e in shape)] = False
    keys = np.flatnonzero(grouped)
    syms = cells[keys]
    keys -= (alphabet.offsets @ strides)[syms]  # each cell's anchor, in its own slab
    if fitted is not None:
        cut = np.ones(len(cells), dtype=bool)
        cut[fitted] = False
        cut = cut[keys]
        keys, syms = keys[cut], syms[cut]
    keys, counts = np.unique(packed(keys, syms), return_counts=True)
    if fitted is not None:
        keys = np.concatenate([keys, packed(fitted, cells[fitted])])
        counts = np.concatenate([counts, volumes[alphabet.tile_codes[cells[fitted]]]])
        order = np.argsort(keys)
        keys, counts = keys[order], counts[order]
    major, flat = np.divmod(keys, slab_size)
    slab_of, codes = np.divmod(major, n_tiles)
    whole = counts == volumes[codes]
    coords = np.stack(np.unravel_index(flat, slab_shape), axis=1)
    coords += corners[slab_of] - pad
    tiling = Tiling(alphabet.tile_shapes, codes[whole], coords[whole], word.box)
    partials = Tiling(alphabet.tile_shapes, codes[~whole], coords[~whole])
    return DecodeResult(tiling, partials, int(counts[~whole].sum()))


def encode(tiling: Tiling, alphabet: Alphabet, window: Box | None = None) -> SymbolicWord:
    """Write each placement's symbols; placements must tile disjointly."""
    if window is None:
        window = tiling.window
    if window is None:
        if len(tiling) == 0:
            raise ValueError("cannot infer a window from an empty tiling")
        lo = tuple(int(x) for x in tiling.anchors.min(axis=0))
        hi = tuple(int(x) for x in (tiling.anchors + tiling.placement_shapes()).max(axis=0))
        window = Box(lo, tuple(h - l for l, h in zip(lo, hi)))
    word = SymbolicWord(alphabet, window)
    for tile, anchor in tiling.placements():
        block = alphabet.block(tile)
        target = Box(anchor, alphabet.shape(tile))
        clip = window.intersect(target)
        if clip is None:
            continue
        rel = tuple(
            slice(c - t, c - t + e)
            for c, t, e in zip(clip.anchor, target.anchor, clip.shape)
        )
        word.paste(clip, block[rel])
    return word
