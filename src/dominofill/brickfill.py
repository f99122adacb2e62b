"""Periodic brick walls and uniform filling between misaligned walls.

A brick wall is the doubly periodic word whose tiles are translates of one
large brick on a full sublattice.  The filler interpolates between an inner
wall written on a box and an outer wall far away: complete the cut bricks on
each side, split the remaining collar into axis slabs, and tile each slab by
strips of small family tiles.  The collar width needed for this is
``RectFamily.collar`` of the two walls' periods; for two walls of the
family brick that is ``fill_length``, ``collar(large_shape, large_shape)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Box, expand, grid_rows, interior, within
from .numerics import RectFamily, represent
from .sft import Alphabet, InvalidWord, Symbol, SymbolicWord, Tiling


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

    def aligned_with(self, other: "BrickWall") -> bool:
        return (
            self.tile == other.tile
            and self.period == other.period
            and self.translate == other.translate
        )

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

    def materialize(self, box: Box) -> SymbolicWord:
        return SymbolicWord(self.alphabet, box, self.pattern_over(box))

    def bricks(self, box: Box) -> np.ndarray:
        """Anchors of the wall's whole bricks inside ``box``, one row each, in C order."""
        return grid_rows([
            np.arange(self.ceil_align(a, axis), e - p + 1, p, dtype=np.int64)
            for axis, (a, e, p) in enumerate(zip(box.anchor, box.end, self.period))
        ])

    def pattern_over(self, box: Box) -> np.ndarray:
        """Symbol-index array of the wall restricted to ``box``."""
        pattern = self.alphabet.block(self.tile)
        phase = tuple(
            (a - t) % p for a, t, p in zip(box.anchor, self.translate, self.period)
        )
        rolled = np.roll(pattern, tuple(-ph for ph in phase), axis=tuple(range(box.dim)))
        reps = tuple(-(-e // p) for e, p in zip(box.shape, self.period))
        tiled = np.tile(rolled, reps)
        return tiled[tuple(slice(0, e) for e in box.shape)].copy()


def complete_partial_tiles(b: Box, wall: BrickWall, direction: str) -> Box:
    """Align ``b`` to the wall lattice.

    ``outward``: smallest aligned box containing b, so every wall tile that
    meets b lies wholly inside the result.  ``inward``: largest aligned box
    inside b; raises InwardEmpty when b contains no whole wall tile.
    """
    if direction not in ("outward", "inward"):
        raise ValueError(f"unknown direction {direction!r}")
    lo = []
    hi = []
    for axis in range(b.dim):
        if direction == "outward":
            lo.append(wall.floor_align(b.anchor[axis], axis))
            hi.append(wall.ceil_align(b.end[axis], axis))
        else:
            lo.append(wall.ceil_align(b.anchor[axis], axis))
            hi.append(wall.floor_align(b.end[axis], axis))
    if direction == "inward" and any(h - l < p for l, h, p in zip(lo, hi, wall.period)):
        raise InwardEmpty(f"{b} contains no whole tile of period {wall.period}")
    return Box(tuple(lo), tuple(h - l for l, h in zip(lo, hi)))


@dataclass(frozen=True)
class CollarPiece:
    """One slab of a collar decomposition and the axis its strips run along."""

    box: Box
    axis: int
    side: int


def decompose_collar(inner: Box, outer: Box, threshold: int) -> list[CollarPiece]:
    """Split outer minus inner into axis slabs with representable gaps.

    Faces are processed axis 0 low, axis 0 high, axis 1 low, ...  Each slab's
    free axis is the face axis; its other extents are inherited from a single
    box (inner for earlier axes, outer for later ones).  A gap of zero is a
    flush face and produces no slab; a gap in 1..threshold cannot be strip
    tiled and raises GapTooNarrow.
    """
    if not outer.contains_box(inner):
        raise ValueError("outer must contain inner")
    for axis in range(outer.dim):
        for side, gap in (
            (0, inner.anchor[axis] - outer.anchor[axis]),
            (1, outer.end[axis] - inner.end[axis]),
        ):
            if 0 < gap <= threshold:
                raise GapTooNarrow(axis, side, gap, threshold)
    pieces = []
    for axis in range(outer.dim):
        for side in (0, 1):
            boxes = _face_slab(inner, outer, axis, side)
            if boxes is not None:
                pieces.append(CollarPiece(boxes, axis, side))
    return pieces


def _face_slab(inner: Box, outer: Box, axis: int, side: int) -> Box | None:
    if side == 0:
        lo, hi = outer.anchor[axis], inner.anchor[axis]
    else:
        lo, hi = inner.end[axis], outer.end[axis]
    if hi <= lo:
        return None
    anchor = []
    shape = []
    for a in range(outer.dim):
        if a == axis:
            anchor.append(lo)
            shape.append(hi - lo)
        elif a < axis:
            anchor.append(inner.anchor[a])
            shape.append(inner.shape[a])
        else:
            anchor.append(outer.anchor[a])
            shape.append(outer.shape[a])
    return Box(tuple(anchor), tuple(shape))


@dataclass(frozen=True)
class StripRun:
    """A run of identical tiles filling a sub-box of a collar slab."""

    tile: int
    box: Box
    counts: tuple[int, ...]

    def anchors(self) -> np.ndarray:
        shape = tuple(e // c for e, c in zip(self.box.shape, self.counts))
        return grid_rows([
            np.arange(a, a + e, s, dtype=np.int64)
            for a, e, s in zip(self.box.anchor, self.box.shape, shape)
        ])


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
        tile_shape = f.shapes[j]
        counts = []
        for ax in range(b.dim):
            if ax == axis:
                counts.append(a_j)
                continue
            if b.shape[ax] % tile_shape[ax] != 0:
                raise NonMultipleExtent(ax, b.shape[ax], tile_shape[ax])
            counts.append(b.shape[ax] // tile_shape[ax])
        anchor = list(b.anchor)
        anchor[axis] = pos
        shape = list(b.shape)
        shape[axis] = a_j * side
        runs.append(StripRun(j + 1, Box(tuple(anchor), tuple(shape)), tuple(counts)))
        pos += a_j * side
    return runs


def collar_width(inner_wall: BrickWall, outer_wall: BrickWall, base: RectFamily) -> int:
    """Collar wide enough to complete both walls and leave representable gaps."""
    return base.collar(inner_wall.period, outer_wall.period)


class FilledWord:
    """Lazy infinite word: inner wall on a core box, outer wall far away,
    explicit strip runs on the collar in between."""

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
        grid = self.outer_wall.pattern_over(box)
        word = SymbolicWord(self.alphabet, box, grid)
        if self.inner_core is not None:
            clip = box.intersect(self.inner_core)
            if clip is not None:
                word.paste(clip, self.inner_wall.pattern_over(clip))
        for run in self.runs:
            clip = box.intersect(run.box)
            if clip is None:
                continue
            phase_wall = BrickWall(self.alphabet, run.tile, run.box.anchor)
            word.paste(clip, phase_wall.pattern_over(clip))
        return word

    def placements(self, box: Box) -> Tiling:
        """The fill's whole tiles inside ``box``, in closed form.

        They are the outer wall's bricks outside ``outer_core``, the inner
        wall's bricks on ``inner_core`` and each strip run's tiles.  Raises
        InvalidWord unless the tiles that meet ``box``, clipped to it, cover
        each of its cells exactly once.
        """
        alphabet = self.alphabet
        outer = self.outer_wall.bricks(_reach(box, self.outer_wall.period))
        if self.outer_core is not None:  # a brick meets the core iff it lies in its reach
            near = _reach(self.outer_core, self.outer_wall.period)
            outer = outer[~within(outer, self.outer_wall.period, near.anchor, near.end)]
        parts = [(self.outer_wall.tile, outer)]
        if self.inner_core is not None:
            near = self.inner_core.intersect(_reach(box, self.inner_wall.period))
            if near is not None:
                parts.append((self.inner_wall.tile, self.inner_wall.bricks(near)))
        for run in self.runs:
            if box.contains_box(run.box):
                parts.append((run.tile, run.anchors()))
            elif run.box.intersect(box) is not None:
                anchors, shape = run.anchors(), alphabet.shape(run.tile)
                near = _reach(box, shape)
                parts.append((run.tile, anchors[within(anchors, shape, near.anchor, near.end)]))
        tiling = Tiling.from_parts(alphabet.tile_shapes, parts, box)
        codes, anchors = tiling.codes, tiling.anchors
        _check_partition(alphabet, codes, anchors, box)
        whole = within(anchors, alphabet.shape_table.T.take(codes, axis=1), box.anchor, box.end)
        return Tiling(alphabet.tile_shapes, codes[whole], anchors[whole], box)


def _reach(box: Box, shape) -> Box:
    """The box holding every tile of ``shape`` that meets ``box``."""
    return Box(
        tuple(a - s + 1 for a, s in zip(box.anchor, shape)),
        tuple(e + 2 * s - 2 for e, s in zip(box.shape, shape)),
    )


def _check_partition(alphabet: Alphabet, codes, anchors, box: Box) -> None:
    """Refuse tiles that, clipped to ``box``, do not cover each of its cells
    exactly once.  Every tile must meet ``box``.  Each tile's cells are
    counted in a grid padded by the largest tile side less 1, one flat
    offset table per tile code, and the box's counts must all be 1."""
    pad = alphabet.shape_table.max(axis=0) - 1
    shape = tuple((box.shape + 2 * pad).tolist())
    strides = np.cumprod((shape[1:] + (1,))[::-1])[::-1]
    flat = (anchors - (box.anchor - pad)) @ strides
    cells = [flat[:0]]  # empty, for a box that no tile meets
    for c in np.unique(codes).tolist():
        cells.append((flat[codes == c][:, None] + alphabet.tile_cells[c] @ strides).ravel())
    counts = np.bincount(np.concatenate(cells), minlength=math.prod(shape)).reshape(shape)
    counts = counts[tuple(slice(p, p + e) for p, e in zip(pad.tolist(), box.shape))]
    bad = np.flatnonzero(counts != 1)
    if len(bad):
        rel = np.unravel_index(bad[0], box.shape)
        cell = tuple(int(a + r) for a, r in zip(box.anchor, rel))
        raise InvalidWord(f"the fill covers cell {cell} {counts[rel]} times")


def fill_between(
    inner_wall: BrickWall,
    inner_box: Box,
    outer_wall: BrickWall,
    base: RectFamily,
    width: int | None = None,
) -> FilledWord:
    """Valid word equal to inner_wall on inner_box and outer_wall outside
    expand(inner_box, width); aligned walls return the wall itself.

    The walls may have different periods (a coarser brick subsumes more
    tiles), but the collar is tiled by base-family tiles only.  Both periods
    must be per-axis multiples of every base tile side so that completed
    cores have strip-tileable cross sections.  ``width`` defaults to
    ``collar_width``, which for two walls of the family's own brick is its
    ``fill_length``, ``collar(large_shape, large_shape)``.
    """
    if inner_wall.aligned_with(outer_wall):
        return FilledWord.pure_wall(outer_wall)
    for wall in (inner_wall, outer_wall):
        for axis in range(base.dim):
            for side in base.axis_sides(axis):
                if wall.period[axis] % side != 0:
                    raise NonMultipleExtent(axis, wall.period[axis], side)
    if width is None:
        width = collar_width(inner_wall, outer_wall, base)
    inner_core = complete_partial_tiles(inner_box, inner_wall, "outward")
    footprint = expand(inner_box, width)
    outer_core = complete_partial_tiles(footprint, outer_wall, "inward")
    pieces = decompose_collar(inner_core, outer_core, base.threshold)
    runs: list[StripRun] = []
    for piece in pieces:
        runs.extend(strip_runs(piece.box, base, piece.axis))
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
