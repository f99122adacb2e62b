"""Independent verification of tilings and words.

This module deliberately re-derives the correctness conditions from the tile
shapes instead of calling the builder's validator or decoder: words are
checked against the one-step rule recomputed here from raw offsets, and
tilings are checked by painting the cells each placement covers.  The
acceptance suite runs these checks as the oracle on everything the builder
emits.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from ..geometry import Box
from ..sft import SymbolicWord, Tiling

MAX_REPORTED = 50
MAX_PAINT_CELLS = 300_000_000


def verify_word(word: SymbolicWord) -> list[str]:
    """All one-step rule breaches between assigned neighbour cells.

    The rule, from first principles: inside a tile the offset must advance by
    one along the axis; on the tile's far face the next symbol must sit on a
    near face (offset 0 along the axis).
    """
    alphabet = word.alphabet
    syms = alphabet.symbols
    tile_of = np.array([alphabet.tiles.index(s.tile) for s in syms], dtype=np.int64)
    offsets = np.array([s.offset for s in syms], dtype=np.int64)
    extents = np.array([alphabet.tile_shapes[s.tile] for s in syms], dtype=np.int64)
    problems: list[str] = []
    grid = word.grid
    dim = alphabet.dim
    for axis in range(dim):
        lo = [slice(None)] * dim
        hi = [slice(None)] * dim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        a = grid[tuple(lo)].ravel()
        b = grid[tuple(hi)].ravel()
        both = (a >= 0) & (b >= 0)
        if not np.any(both):
            continue
        ia = a[both]
        ib = b[both]
        inside = offsets[ia, axis] < extents[ia, axis] - 1
        expected_step = offsets[ib] - offsets[ia]
        unit = np.zeros(dim, dtype=np.int64)
        unit[axis] = 1
        ok_inside = (tile_of[ia] == tile_of[ib]) & np.all(expected_step == unit, axis=1)
        ok_face = offsets[ib, axis] == 0
        ok = np.where(inside, ok_inside, ok_face)
        if np.all(ok):
            continue
        pair_shape = grid[tuple(lo)].shape
        flat_positions = np.flatnonzero(both)[~ok]
        for flat in flat_positions[:MAX_REPORTED]:
            rel = np.unravel_index(int(flat), pair_shape)
            cell = tuple(int(x + y) for x, y in zip(word.box.anchor, rel))
            s = syms[int(grid[rel])]
            rel_next = list(rel)
            rel_next[axis] += 1
            t = syms[int(grid[tuple(rel_next)])]
            problems.append(
                f"cell {cell} axis {axis}: {s.tile}@{s.offset} cannot precede {t.tile}@{t.offset}"
            )
        extra = len(flat_positions) - min(len(flat_positions), MAX_REPORTED)
        if extra > 0:
            problems.append(f"... and {extra} more along axis {axis}")
    return problems


def verify_tiling(tiling: Tiling, window: Box | None = None) -> list[str]:
    """Containment and overlap checks by painting each placement's cells.

    The placements overlap iff fewer distinct cells get painted than their
    volumes add up to; only then are the per-cell multiplicities counted.
    """
    problems: list[str] = []
    if len(tiling) == 0:
        return problems
    window = window if window is not None else tiling.window
    shapes_per = tiling.placement_shapes()
    anchors = tiling.anchors
    ends = anchors + shapes_per
    if window is not None:
        lo = np.array(window.anchor, dtype=np.int64)
        hi = np.array(window.end, dtype=np.int64)
        outside = np.any(anchors < lo, axis=1) | np.any(ends > hi, axis=1)
        for idx in np.flatnonzero(outside)[:MAX_REPORTED]:
            tile = tiling.tile_order[int(tiling.codes[idx])]
            problems.append(
                f"placement {tile} at {tuple(int(x) for x in anchors[idx])} leaves the window"
            )
        if int(outside.sum()) > MAX_REPORTED:
            problems.append(f"... and {int(outside.sum()) - MAX_REPORTED} more outside")
    base = np.min(anchors, axis=0)
    extent = tuple(int(e) for e in np.max(ends, axis=0) - base)
    volume = math.prod(extent)
    if volume > MAX_PAINT_CELLS:
        problems.append(f"bounding box of {volume} cells is too large to paint; not checked")
        return problems
    painted = np.zeros(volume, dtype=bool)
    for cells in _painted_cells(anchors - base, shapes_per, extent):
        painted[cells] = True
    if np.count_nonzero(painted) == int(np.prod(shapes_per, axis=1).sum()):
        return problems
    cells, counts = np.unique(
        np.concatenate(list(_painted_cells(anchors - base, shapes_per, extent))),
        return_counts=True,
    )
    over = counts > 1
    for flat, count in zip(cells[over][:MAX_REPORTED], counts[over]):
        cell = tuple(int(x + y) for x, y in zip(base, np.unravel_index(flat, extent)))
        owners = _owners(tiling, anchors, shapes_per, cell)
        problems.append(f"cell {cell} covered {int(count)} times by {owners}")
    if int(over.sum()) > MAX_REPORTED:
        problems.append(f"... and {int(over.sum()) - MAX_REPORTED} more overlapping cells")
    return problems


def _painted_cells(
    rel: np.ndarray, shapes_per: np.ndarray, extent: tuple[int, ...]
) -> Iterator[np.ndarray]:
    """Flat indices, in a grid of ``extent``, of the cells each group of
    equally shaped placements covers (anchors ``rel`` relative to the grid)."""
    strides = np.cumprod((extent[1:] + (1,))[::-1])[::-1]
    for shape in np.unique(shapes_per, axis=0):
        start = rel[np.all(shapes_per == shape, axis=1)] @ strides
        offs = np.indices(tuple(shape)).reshape(len(shape), -1).T @ strides
        yield (start[:, None] + offs[None, :]).ravel()


def _owners(tiling: Tiling, anchors: np.ndarray, shapes_per: np.ndarray, cell) -> list:
    cell_arr = np.array(cell, dtype=np.int64)
    inside = np.all(anchors <= cell_arr, axis=1) & np.all(anchors + shapes_per > cell_arr, axis=1)
    return [
        (tiling.tile_order[int(tiling.codes[i])], tuple(int(x) for x in anchors[i]))
        for i in np.flatnonzero(inside)[:4]
    ]
