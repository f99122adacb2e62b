"""Periodic brick walls and uniform filling between misaligned walls.

A brick wall is the doubly periodic word whose tiles are translates of one
large brick on a full sublattice.  The filler interpolates between an inner
wall written on a box and an outer wall far away: the inner core grows to
whole inner bricks (``BrickWall.outward``), the outer core shrinks to whole
outer bricks (``BrickWall.inward``), ``collar_slabs`` splits the collar
between them into axis slabs, and ``strip_runs`` tiles each slab by strips
of single family tiles.  The collar width needed for this is
``RectFamily.collar`` of the two walls' periods; for two walls of the
family brick that is ``fill_length``, ``collar(large_shape, large_shape)``.
A wall or a fill is described once, by its tiles, lattice rows of plain
integers: its word over a box is painted (``Alphabet.paint``) from the tiles
that meet the box, and ``placements_of`` checks and keeps many fills' tiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, expand, grid_rows, interior, within
from .numerics import RectFamily, represent
from .sft import Alphabet, InvalidWord, Symbol, SymbolicWord


class NonMultipleExtent(ValueError):
    def __init__(self, axis: int, extent: int, side: int) -> None:
        super().__init__(f"extent {extent} along axis {axis} is not a multiple of {side}")
        self.axis = axis


class InwardEmpty(ValueError):
    pass


class GapTooNarrow(ValueError):
    def __init__(self, axis: int, side: int, gap: int, threshold: int) -> None:
        face = "low" if side == 0 else "high"
        super().__init__(
            f"collar gap {gap} at the {face} face of axis {axis} is <= threshold {threshold}"
        )
        self.face = (axis, side)


class NoMatchingTranslate(ValueError):
    pass


class BrickWall:
    """The infinite periodic word of one large tile repeated on its lattice."""

    def __init__(self, alphabet: Alphabet, tile: int | str, translate: Sequence[int]) -> None:
        self.alphabet = alphabet
        self.tile = tile
        self.period = alphabet.shape(tile)
        self.translate = tuple(int(t) % p for t, p in zip(translate, self.period))

    def symbol_at(self, v: Sequence[int]) -> Symbol:
        offset = tuple((x - t) % p for x, t, p in zip(v, self.translate, self.period))
        return Symbol(self.tile, offset)

    def floor_align(self, x: int, axis: int) -> int:
        """Largest lattice line <= x along ``axis``."""
        p = self.period[axis]
        return x - (x - self.translate[axis]) % p

    def ceil_align(self, x: int, axis: int) -> int:
        """Smallest lattice line >= x along ``axis``."""
        p = self.period[axis]
        return x + (self.translate[axis] - x) % p

    def outward(self, box: Box) -> Box:
        """Smallest lattice box holding ``box``: every brick that meets
        ``box`` lies wholly inside it."""
        lo = [self.floor_align(a, axis) for axis, a in enumerate(box.anchor)]
        hi = [self.ceil_align(e, axis) for axis, e in enumerate(box.end)]
        return Box(tuple(lo), tuple(h - l for l, h in zip(lo, hi)))

    def inward(self, box: Box) -> Box:
        """Largest lattice box inside ``box``; raises InwardEmpty when
        ``box`` holds no whole brick."""
        lo = [self.ceil_align(a, axis) for axis, a in enumerate(box.anchor)]
        hi = [self.floor_align(e, axis) for axis, e in enumerate(box.end)]
        if any(h - l < p for l, h, p in zip(lo, hi, self.period)):
            raise InwardEmpty(f"{box} contains no whole tile of period {self.period}")
        return Box(tuple(lo), tuple(h - l for l, h in zip(lo, hi)))

    def bricks(self, box: Box) -> np.ndarray:
        """Anchors of the wall's whole bricks inside ``box``, one row each, in C order."""
        return grid_rows([
            np.arange(self.ceil_align(a, axis), e - p + 1, p, dtype=np.int64)
            for axis, (a, e, p) in enumerate(zip(box.anchor, box.end, self.period))
        ])

    def pattern_over(self, box: Box) -> np.ndarray:
        """Symbol-index array (int32) of the wall restricted to ``box``: the
        word of the wall as a fill, painted from its bricks that meet ``box``."""
        return FilledWord.pure_wall(self).materialize(box).grid


def collar_slabs(inner: Box, outer: Box, threshold: int) -> list[tuple[Box, int]]:
    """Split outer minus inner into axis slabs, each with the axis its
    strips run along.

    Faces go axis 0 low, axis 0 high, axis 1 low, ...  A face's slab spans
    its gap along the face axis, inner's extents along earlier axes and
    outer's along later ones.  A gap of zero is a flush face and gives no
    slab; any other gap up to ``threshold``, a negative one (outer does not
    hold inner) too, cannot be strip tiled and raises GapTooNarrow for the
    first such face.
    """
    slabs = []
    for axis in range(outer.dim):
        for side, lo, hi in (
            (0, outer.anchor[axis], inner.anchor[axis]),
            (1, inner.end[axis], outer.end[axis]),
        ):
            if hi == lo:
                continue
            if hi - lo <= threshold:
                raise GapTooNarrow(axis, side, hi - lo, threshold)
            anchor = (*inner.anchor[:axis], lo, *outer.anchor[axis + 1 :])
            shape = (*inner.shape[:axis], hi - lo, *outer.shape[axis + 1 :])
            slabs.append((Box(anchor, shape), axis))
    return slabs


@dataclass(frozen=True)
class StripRun:
    """A run of identical tiles filling a sub-box of a collar slab."""

    tile: int
    box: Box
    counts: tuple[int, ...]


def strip_runs(b: Box, f: RectFamily, axis: int) -> list[StripRun]:
    """Decompose ``b`` into full-cross-section strips of single tiles.

    The extent along ``axis`` is written as a nonnegative combination of the
    family's sides there (lexicographically greatest coefficients); strip j
    then holds a grid of tile j.  Every other extent must be divisible by the
    corresponding side of each tile that actually appears.
    """
    sides = f.axis_sides(axis)
    coeffs = represent(b.shape[axis], sides)
    runs = []
    pos = b.anchor[axis]
    for j, (a_j, side) in enumerate(zip(coeffs, sides)):
        if a_j == 0:
            continue
        anchor = (*b.anchor[:axis], pos, *b.anchor[axis + 1 :])
        shape = (*b.shape[:axis], a_j * side, *b.shape[axis + 1 :])
        for ax, (e, s) in enumerate(zip(shape, f.shapes[j])):
            if e % s != 0:
                raise NonMultipleExtent(ax, e, s)
        counts = tuple(e // s for e, s in zip(shape, f.shapes[j]))
        runs.append(StripRun(j + 1, Box(anchor, shape), counts))
        pos += a_j * side
    return runs


def collar_width(inner_wall: BrickWall, outer_wall: BrickWall, base: RectFamily) -> int:
    """Collar wide enough to complete both walls and leave representable gaps."""
    return base.collar(inner_wall.period, outer_wall.period)


class FilledWord:
    """Lazy infinite word: inner wall on a core box, outer wall far away,
    strip runs on the collar in between.  Its tiles are a few lattice rows
    (``_rows``); those that meet a box come in closed form, and its word
    over the box is painted from them."""

    def __init__(
        self,
        inner_wall: BrickWall,
        inner_core: Box | None,
        outer_wall: BrickWall,
        outer_core: Box | None,
        runs: list[StripRun],
        footprint: Box | None,
    ) -> None:
        self.inner_wall = inner_wall
        self.inner_core = inner_core
        self.outer_wall = outer_wall
        self.outer_core = outer_core
        self.runs = runs
        self.footprint = footprint
        self.alphabet = outer_wall.alphabet

    @classmethod
    def pure_wall(cls, wall: BrickWall) -> "FilledWord":
        return cls(wall, None, wall, None, [], None)

    def materialize(self, box: Box) -> SymbolicWord:
        """The fill's word over ``box``, painted from its tiles that meet ``box``
        (-1 on cells that none covers)."""
        alphabet = self.alphabet
        codes, anchors, _ = _tiles_meeting([self], box)
        near, cut = _around(alphabet, box)
        grid = np.full(near.volume, -1, dtype=np.int32)
        for symbol, cells in alphabet.paint(codes, anchors, near.anchor, near.shape):
            grid[cells] = symbol
        return SymbolicWord(alphabet, box, grid.reshape(near.shape)[cut].copy())

    def _rows(self, box: Box) -> list[tuple[int, ...]]:
        """Lattice rows (see ``_tiles_meeting``) of the fill's tiles near
        ``box``: the outer wall's bricks that meet it, skipping those that
        meet ``outer_core``, the inner wall's bricks on ``inner_core`` and
        each strip run's tiles."""
        code, none = self.alphabet.code_of, (0,) * (2 * box.dim)
        wall, period = self.outer_wall, self.outer_wall.period
        start = [wall.ceil_align(a - p + 1, x) for x, (a, p) in enumerate(zip(box.anchor, period))]
        count = [(e - 1 - s) // p + 1 for s, e, p in zip(start, box.end, period)]
        skip = none
        if self.outer_core is not None:  # a brick meets the core iff its anchor is in [lo, end)
            core = self.outer_core
            skip = (*(a - p + 1 for a, p in zip(core.anchor, period)), *core.end)
        rows = [(code[wall.tile], *start, *count, *period, *skip)]
        if self.inner_core is not None:
            core, wall = self.inner_core, self.inner_wall
            count = (e // p for e, p in zip(core.shape, wall.period))
            rows.append((code[wall.tile], *core.anchor, *count, *wall.period, *none))
        for run in self.runs:
            shape = self.alphabet.shape(run.tile)
            rows.append((code[run.tile], *run.box.anchor, *run.counts, *shape, *none))
        return rows


class PartitionBroken(InvalidWord):
    """Fill ``fill`` of a ``placements_of`` call covers ``cell`` ``times`` times."""

    def __init__(self, fill: int, cell: tuple[int, ...], times: int) -> None:
        super().__init__(f"the fill covers cell {cell} {times} times")
        self.fill = fill


def placements_of(fills: Sequence[FilledWord], box: Box) -> tuple[np.ndarray, ...]:
    """(codes, anchors, fill index) of each fill's whole tiles inside ``box``,
    fill by fill, from one expansion of all their tiles (``_tiles_meeting``).

    Raises PartitionBroken, naming the first fill and its first cell in C
    order, unless each fill's tiles that meet ``box``, clipped to it, cover
    each of its cells exactly once.  One ``Alphabet.paint`` and one bincount
    count them all, in the fills' copies of ``_around`` the box stacked
    along axis 0 (so fill f's flat cells move by f times its volume).
    """
    alphabet, n = fills[0].alphabet, len(fills)
    codes, anchors, fill = _tiles_meeting(fills, box)
    near, cut = _around(alphabet, box)
    stacked = anchors.copy()
    stacked[:, 0] += fill * near.shape[0]
    grid = (n * near.shape[0], *near.shape[1:])
    cells = [c for _, c in alphabet.paint(codes, stacked, near.anchor, grid)]
    counts = np.bincount(np.concatenate([anchors[:0, 0], *cells]), minlength=n * near.volume)
    counts = counts.reshape(n, *near.shape)[(slice(None), *cut)]
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        f, *rel = np.unravel_index(bad[0], counts.shape)
        cell = tuple(int(a + r) for a, r in zip(box.anchor, rel))
        raise PartitionBroken(int(f), cell, int(counts[(f, *rel)]))
    whole = within(anchors, alphabet.shape_table.T.take(codes, axis=1), box.anchor, box.end)
    return codes[whole], anchors[whole], fill[whole]


def _tiles_meeting(fills: Sequence[FilledWord], box: Box) -> tuple[np.ndarray, ...]:
    """(codes, anchors, fill index) of every tile of ``fills`` that meets ``box``.

    Each fill lists its tiles as lattice rows of plain integers
    (``FilledWord._rows``): a tile code, then per axis the start, count and
    step of the anchors ``start + i * step``, ``0 <= i < count``, then the
    box ``[skip_lo, skip_hi)`` of anchors the row skips (empty: none).  The
    rows of all fills are expanded together: each row's index range is cut,
    per axis, to the tiles that meet ``box``; a repeat numbers each tile in
    its row, and per axis, from the last, a division and a modulus by the
    count give its index.  Tiles come fill by fill, row by row, in C order.
    """
    dim = box.dim
    rows = [(f, *row) for f, fill in enumerate(fills) for row in fill._rows(box)]
    table = np.array(rows, dtype=np.int64).reshape(-1, 2 + 5 * dim)
    start, count, step = (table[:, 2 + k * dim : 2 + (k + 1) * dim] for k in range(3))
    reach = start + fills[0].alphabet.shape_table[table[:, 1]] - 1  # a row's first tile's far cell
    first = np.maximum(-((reach - box.anchor) // step), 0)
    count[:] = np.minimum((np.subtract(box.end, 1) - start) // step + 1, count) - first
    start += first * step
    sizes = np.maximum(count, 0).prod(axis=1)
    per_tile = np.repeat(table.T, sizes, axis=1)  # one row a column
    start, count, step, lo, hi = (per_tile[2 + k * dim : 2 + (k + 1) * dim] for k in range(5))
    local = np.arange(per_tile.shape[1]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    anchors = np.empty((len(local), dim), dtype=np.int64)
    for a in range(dim - 1, -1, -1):
        local, index = np.divmod(local, count[a])
        anchors[:, a] = start[a] + index * step[a]
    keep = ~within(anchors, [1] * dim, lo, hi)
    fill, codes = per_tile[:2].compress(keep, axis=1)
    return codes.astype(np.int32), anchors.compress(keep, axis=0), fill


def _around(alphabet: Alphabet, box: Box) -> tuple[Box, tuple[slice, ...]]:
    """The box holding every tile of the alphabet that meets ``box``, and
    the slices that cut ``box`` out of a grid over it."""
    reach = alphabet.shape_table.max(axis=0).tolist()
    near = Box(
        tuple(a - s + 1 for a, s in zip(box.anchor, reach)),
        tuple(e + 2 * s - 2 for e, s in zip(box.shape, reach)),
    )
    return near, tuple(slice(s - 1, s - 1 + e) for s, e in zip(reach, box.shape))


def fill_between(
    inner_wall: BrickWall,
    inner_box: Box,
    outer_wall: BrickWall,
    base: RectFamily,
    width: int | None = None,
) -> FilledWord:
    """Valid word equal to inner_wall on inner_box and outer_wall outside
    expand(inner_box, width); aligned walls return the wall itself.

    The inner core is ``inner_wall.outward(inner_box)``, the outer core is
    ``outer_wall.inward`` of the footprint ``expand(inner_box, width)``, and
    the collar between them is ``collar_slabs`` cut into ``strip_runs`` of
    base-family tiles only.  So the walls may have different periods (a
    coarser brick subsumes more tiles), each a per-axis multiple of every
    base tile side.  ``width`` defaults to ``collar_width`` (``fill_length``
    for two walls of the family brick); a narrower one may raise
    GapTooNarrow, for a negative gap too, or InwardEmpty.
    """
    walls = (inner_wall, outer_wall)
    if len({(w.tile, w.period, w.translate) for w in walls}) == 1:  # aligned walls
        return FilledWord.pure_wall(outer_wall)
    for wall in walls:
        for axis in range(base.dim):
            for side in base.axis_sides(axis):
                if wall.period[axis] % side != 0:
                    raise NonMultipleExtent(axis, wall.period[axis], side)
    if width is None:
        width = collar_width(inner_wall, outer_wall, base)
    inner_core = inner_wall.outward(inner_box)
    footprint = expand(inner_box, width)
    outer_core = outer_wall.inward(footprint)
    slabs = collar_slabs(inner_core, outer_core, base.threshold)
    runs = [run for slab, axis in slabs for run in strip_runs(slab, base, axis)]
    return FilledWord(inner_wall, inner_core, outer_wall, outer_core, runs, footprint)


class GluedWord:
    """A finite block overlaid on a fill between its boundary wall and an
    ambient wall."""

    def __init__(self, block: SymbolicWord, fill: FilledWord) -> None:
        self.block = block
        self.fill = fill
        self.alphabet = block.alphabet

    def materialize(self, box: Box) -> SymbolicWord:
        word = self.fill.materialize(box)
        clip = box.intersect(self.block.box)
        if clip is not None:
            word.paste(clip, self.block.subgrid(clip))
        return word


def infer_wall_translate(block: SymbolicWord) -> BrickWall:
    """Recover the unique brick wall matching the block's outermost ring.

    Every ring cell must carry the same large tile with offsets consistent
    with a single translate; otherwise NoMatchingTranslate is raised, naming
    the lexicographically first ring cell that breaks the pattern.  The
    candidate wall is read off the block's corner cell.
    """
    box = block.box
    corner = block.cell(box.anchor)
    if corner is None or isinstance(corner.tile, int):
        raise NoMatchingTranslate(f"ring cell {box.anchor} carries no brick: {corner}")
    translate = tuple(c - o for c, o in zip(box.anchor, corner.offset))
    candidate = BrickWall(block.alphabet, corner.tile, translate)
    ring = np.ones(box.shape, dtype=bool)
    core = interior(box, 1)
    if core is not None:
        ring[block.slices_for(core)] = False
    bad = np.argwhere(ring & (block.grid != candidate.pattern_over(box)))
    if len(bad):
        cell = tuple(int(a + r) for a, r in zip(box.anchor, bad[0]))
        raise NoMatchingTranslate(
            f"ring cell {cell} carries {block.cell(cell)}, expected {candidate.symbol_at(cell)}"
        )
    return candidate


def glue(block: SymbolicWord, ambient: BrickWall, base: RectFamily) -> GluedWord:
    """Extend a block whose boundary ring matches some wall into ``ambient``.

    The result keeps the block verbatim, agrees with ``ambient`` outside the
    block expanded by the collar width, and is valid across both seams: the
    fill agrees with the inferred wall on the whole block footprint, so the
    one-step rules across the block boundary only ever see wall symbols that
    are present in the block's own ring.
    """
    inner = infer_wall_translate(block)
    fill = fill_between(inner, block.box, ambient, base)
    return GluedWord(block, fill)
