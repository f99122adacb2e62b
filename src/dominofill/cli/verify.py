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

from ..sft import SymbolicWord, Tiling

MAX_REPORTED = 50
MAX_PAINT_CELLS = 300_000_000
PAINT_CHUNK = 1 << 16
_INT64 = np.iinfo(np.int64)


class Problems(list):
    """A check's report lines: at most ``MAX_REPORTED`` violations of a kind
    named, one a line, then ``... and N more`` for the rest of that kind.
    ``total`` counts the violations themselves."""

    total = 0

    def more(self, count: int, kind: str) -> None:
        """Count ``count`` violations of a kind, the first of which were just named."""
        if count > MAX_REPORTED:
            self.append(f"... and {count - MAX_REPORTED} more {kind}")
        self.total += count


def verify_word(word: SymbolicWord) -> Problems:
    """All one-step rule breaches between assigned neighbour cells.

    The rule, from first principles: inside a tile the offset must advance by
    one along the axis; on the tile's far face the next symbol must sit on a
    near face (offset 0 along the axis).
    """
    alphabet = word.alphabet
    syms = alphabet.symbols
    tile_of = np.array([alphabet.code_of[s.tile] for s in syms], dtype=np.int64)
    offsets = np.array([s.offset for s in syms], dtype=np.int64)
    extents = np.array([alphabet.tile_shapes[s.tile] for s in syms], dtype=np.int64)
    problems = Problems()
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
            cell = tuple(int(x) + int(y) for x, y in zip(word.box.anchor, rel))
            s = syms[int(grid[rel])]
            rel_next = list(rel)
            rel_next[axis] += 1
            t = syms[int(grid[tuple(rel_next)])]
            problems.append(
                f"cell {cell} axis {axis}: {s.tile}@{s.offset} cannot precede {t.tile}@{t.offset}"
            )
        problems.more(len(flat_positions), f"along axis {axis}")
    return problems


def verify_tiling(tiling: Tiling) -> Problems:
    """Containment and overlap checks by painting each placement's cells,
    in any placement order: the placements it names come in the input's order.

    Every pass runs over one anchor column at a time, in Python-int bounds,
    so no tile end is formed in int64 and an anchor near the edge of int64
    cannot wrap back into the window.  A placement ``[x, x + s)`` lies in
    ``[lo, hi)`` iff ``lo <= x <= hi - s``.  Per axis, the placements span
    at least the least anchor and at most the greatest anchor plus the
    largest tile extent; where that bound lies in the window, all placements
    do, and it is the box painted.  Otherwise, or where that box is too
    large to paint, each tile code's greatest anchor gives the exact
    bounding box: all placements lie in the window iff each axis's least
    anchor is at least ``lo`` and each code's greatest at most ``hi - s``
    for its size ``s``.  Only when that fails are the placements tested one
    by one, to name those that leave.  The placements overlap iff fewer
    distinct cells get painted than their volumes add up to; only then are
    the per-cell multiplicities counted.
    """
    problems = Problems()
    if len(tiling) == 0:
        return problems
    window, table = tiling.window, tiling.shape_table
    codes = tiling.codes
    columns = [np.ascontiguousarray(tiling.anchors[:, a]) for a in range(tiling.dim)]
    base = [int(column.min()) for column in columns]
    members = [(code, codes == code) for code in range(len(table))]
    members = [(code, mask) for code, mask in members if mask.any()]
    # Per axis, the greatest anchor plus the largest extent placed, in Python ints.
    present = table[[code for code, _ in members]]
    ends = [int(column.max()) + int(s) for column, s in zip(columns, present.max(axis=0))]
    if not _holds(base, ends, window) or math.prod(_extent(base, ends)) > MAX_PAINT_CELLS:
        # Per tile code and axis, its farthest anchor plus its size.
        reach = [
            [int(c.max(where=mask, initial=lo)) + int(s) for c, lo, s in zip(columns, base, shape)]
            for shape, (_, mask) in zip(present, members)
        ]
        ends = [max(axis_ends) for axis_ends in zip(*reach)]
    if not _holds(base, ends, window):
        outside = np.zeros(len(codes), dtype=bool)
        for column, sizes, lo, hi in zip(columns, table.T, window.anchor, window.end):
            outside |= column < _exact([lo])
            outside |= column > _exact([hi - int(s) for s in sizes])[codes]
        for idx in np.flatnonzero(outside)[:MAX_REPORTED]:
            tile = tiling.tile_order[int(codes[idx])]
            anchor = tuple(int(c[idx]) for c in columns)
            problems.append(f"placement {tile} at {anchor} leaves the window")
        problems.more(int(outside.sum()), "outside")
    extent = _extent(base, ends)
    volume = math.prod(extent)
    if volume > MAX_PAINT_CELLS:
        problems.append(f"bounding box of {volume} cells is too large to paint; not checked")
        problems.total += 1
        return problems
    # Each anchor's flat index in the bounding box.  A step may wrap in int64
    # when the anchors lie near its edge, but the sum it ends in lies in [0, volume).
    flat = np.subtract(columns[0], base[0])
    for column, lo, e in zip(columns[1:], base[1:], extent[1:]):
        flat *= e
        flat += column
        flat -= lo
    painted = np.zeros(volume, dtype=bool)
    placed = 0
    for cells in _painted_cells(flat, members, table, extent):
        painted[cells] = True
        placed += len(cells)
    if np.count_nonzero(painted) == placed:
        return problems
    cells, counts = np.unique(
        np.concatenate([c.copy() for c in _painted_cells(flat, members, table, extent)]),
        return_counts=True,
    )
    over = counts > 1
    rel = [column - lo for column, lo in zip(columns, base)]
    for flat_cell, count in zip(cells[over][:MAX_REPORTED], counts[over]):
        cell = np.unravel_index(flat_cell, extent)
        owners = [
            (tiling.tile_order[int(codes[i])], tuple(int(c[i]) for c in columns))
            for i in np.flatnonzero(_covering(rel, table, codes, cell))[:4]
        ]
        at = tuple(int(x) + int(y) for x, y in zip(base, cell))
        problems.append(f"cell {at} covered {int(count)} times by {owners}")
    problems.more(int(over.sum()), "overlapping cells")
    return problems


def _holds(base: list[int], ends: list[int], window) -> bool:
    """Whether the box from ``base`` up to ``ends`` lies in ``window`` (None holds all)."""
    return window is None or all(
        low <= lo and end <= high for lo, end, low, high in zip(base, ends, window.anchor, window.end)
    )


def _extent(base: list[int], ends: list[int]) -> tuple[int, ...]:
    return tuple(end - lo for lo, end in zip(base, ends))


def _exact(values: list[int]) -> np.ndarray:
    """The Python ints as int64, or as Python ints (object) if one leaves int64,
    so that comparing an int64 column against them is exact either way."""
    if all(_INT64.min <= v <= _INT64.max for v in values):
        return np.array(values, dtype=np.int64)
    return np.array(values, dtype=object)


def _painted_cells(
    flat: np.ndarray,
    members: list[tuple[int, np.ndarray]],
    table: np.ndarray,
    extent: tuple[int, ...],
) -> Iterator[np.ndarray]:
    """Flat indices, in a grid of ``extent``, of the cells covered by the
    placements at flat anchor indices ``flat``, tile code by tile code
    (``members`` holds each code and the mask of its placements, ``table``
    its shape).  A tile with no more cells than placements fills one buffer
    per code with each cell offset in turn, so a caller that keeps what it
    is given copies it; a larger tile gives runs of placements, each
    broadcast against every offset, of about ``PAINT_CHUNK`` cells and at
    least one placement."""
    strides = np.cumprod((extent[1:] + (1,))[::-1])[::-1]
    for code, mask in members:
        start = flat[mask]
        offsets = np.indices(tuple(table[code])).reshape(len(extent), -1).T @ strides
        if len(offsets) <= len(start):
            cells = np.empty_like(start)
            for offset in offsets:
                yield np.add(start, offset, out=cells)
        else:
            rows = max(1, PAINT_CHUNK // len(offsets))
            for lo in range(0, len(start), rows):
                yield (start[lo : lo + rows, None] + offsets).ravel()


def _covering(rel: list[np.ndarray], table: np.ndarray, codes: np.ndarray, cell) -> np.ndarray:
    """Which placements, at anchors ``rel`` relative to the grid, cover ``cell``."""
    inside = np.ones(len(codes), dtype=bool)
    for column, sizes, x in zip(rel, table.T, cell):
        offset = int(x) - column
        inside &= (offset >= 0) & (offset < sizes[codes])
    return inside
