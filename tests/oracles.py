"""Brute-force reference implementations the library is checked against.

Everything here trades speed for obviousness and stays independent of the
package internals: representability by bitset closure, tie-breaks by
exhaustive descent, representations by a bytearray a suffix of the heights,
cores aligned by a direction flag, collars cut face by face, tiling counts
by first-free-cell backtracking, word validation by a per-cell mask over
every pair, word decoding by per-cell grouping, word encoding by pasting
each placement's block, wall words by rolling and tiling one brick's block
and fill words by pasting them, a fill's tiles listed part by part and its
partition checked by counting each tile's clip, tiling and word files
written and read line by line and cell by cell, bands filled once per block,
block domains decoded from the stage's whole word, pools shuffled by one
scalar ``below`` draw a swap, redistribution by forming every subdivided
anchor row and lexsorting them, tilings verified by row-wise reductions over
the ``(n, dim)`` anchor array, points located on a tower lattice by a Python
``divmod`` each, files loaded by a text-mode read of the whole file.  The
file oracles share only the header helpers with the package.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from dominofill.cli.files import (
    LoadedFile,
    ParseError,
    VersionMismatch,
    _fields_of,
    _fmt_shapes,
    _parse_tile,
    _read_header,
    _window_line,
    parse_tiling,
    parse_word,
)
from dominofill.brickfill import BrickWall, GapTooNarrow, InwardEmpty, fill_between
from dominofill.geometry import Box, grid_rows, interior, within
from dominofill.numerics import NotRepresentable
from dominofill.rng import SplitMix64
from dominofill.sft import (
    Alphabet,
    InvalidWord,
    Placement,
    Symbol,
    SymbolicWord,
    Tiling,
    Violation,
    decode,
    validate_word,
)
from dominofill.tower import (
    FrequencyReport,
    InvalidTargets,
    TargetsInfeasible,
    TowerBlock,
    _divides,
    _largest_remainder,
    _pool_allocation,
)

TILING_MAGIC = "dominofill tiling v1"
WORD_MAGIC = "dominofill word v1"


def representable_bits(heights, limit):
    """Bitmask over [0, limit]: bit r set iff r is a sum of the heights."""
    mask = (1 << (limit + 1)) - 1
    reach = 1
    for h in heights:
        while True:
            grown = (reach | (reach << h)) & mask
            if grown == reach:
                break
            reach = grown
    return reach


def threshold_by_scan(heights):
    """Least R with everything >= R representable, by direct scan.

    Once min(heights) consecutive values are all representable, adding the
    smallest height reaches every later value, so the earliest such run
    starts exactly at the threshold.
    """
    h_min = min(heights)
    if h_min == 1:
        return 0
    limit = 2 * max(heights) * h_min + h_min
    while True:
        reach = representable_bits(heights, limit)
        run = 0
        for r in range(limit + 1):
            run = run + 1 if (reach >> r) & 1 else 0
            if run == h_min:
                return r - h_min + 1
        limit *= 2


def lex_greatest_by_descent(r, heights):
    """Lexicographically greatest coefficient vector for r, or None.

    Descending coefficient loops visit vectors in decreasing lex order, so
    the first exact match wins.
    """
    k = len(heights)

    def walk(idx, remaining, prefix):
        if idx == k:
            return tuple(prefix) if remaining == 0 else None
        for a in range(remaining // heights[idx], -1, -1):
            hit = walk(idx + 1, remaining - a * heights[idx], prefix + [a])
            if hit is not None:
                return hit
        return None

    return walk(0, r, [])


def represent_by_suffix_tables(r, heights):
    """Lexicographically greatest coefficients with sum(a_j * h_j) == r, or
    NotRepresentable: greedily the largest a_j whose rest the later heights
    represent, read off one bytearray a suffix over [0, r] (1: the suffix
    ``heights[j:]`` represents that value), built cell by cell."""
    hs = tuple(int(h) for h in heights)
    if r < 0 or any(h < 1 for h in hs):
        raise NotRepresentable(f"{r} over {hs}")
    k = len(hs)
    tables = [bytearray(r + 1) for _ in range(k + 1)]
    tables[k][0] = 1
    for j in range(k - 1, -1, -1):
        h = hs[j]
        row = bytearray(tables[j + 1])
        for x in range(h, r + 1):
            if row[x - h]:
                row[x] = 1
        tables[j] = row
    if not tables[0][r]:
        raise NotRepresentable(f"{r} is not representable over {hs}")
    coeffs = []
    rest = r
    for j, h in enumerate(hs):
        a = rest // h
        while not tables[j + 1][rest - a * h]:
            a -= 1
        coeffs.append(a)
        rest -= a * h
    return tuple(coeffs)


def complete_partial_tiles_by_direction(b, wall, direction):
    """``b`` aligned to the wall lattice, one axis at a time, with the
    alignment written out from the wall's translate and period.

    ``outward``: smallest aligned box containing b.  ``inward``: largest
    aligned box inside b; raises InwardEmpty when b contains no whole wall
    tile.
    """
    if direction not in ("outward", "inward"):
        raise ValueError(f"unknown direction {direction!r}")

    def floor_align(x, axis):
        return x - (x - wall.translate[axis]) % wall.period[axis]

    def ceil_align(x, axis):
        return x + (wall.translate[axis] - x) % wall.period[axis]

    lo = []
    hi = []
    for axis in range(b.dim):
        if direction == "outward":
            lo.append(floor_align(b.anchor[axis], axis))
            hi.append(ceil_align(b.end[axis], axis))
        else:
            lo.append(ceil_align(b.anchor[axis], axis))
            hi.append(floor_align(b.end[axis], axis))
    if direction == "inward" and any(h - l < p for l, h, p in zip(lo, hi, wall.period)):
        raise InwardEmpty(f"{b} contains no whole tile of period {wall.period}")
    return Box(tuple(lo), tuple(h - l for l, h in zip(lo, hi)))


def decompose_collar_by_faces(inner, outer, threshold):
    """Outer minus inner as (slab, axis) pairs, face by face: axis 0 low,
    axis 0 high, axis 1 low, ...  A plain ValueError unless outer contains
    inner; then GapTooNarrow for the first face whose gap is in
    1..threshold; else one slab per face with a positive gap, spanning the
    gap along the face axis, inner's extents along earlier axes and outer's
    along later ones."""
    if not outer.contains_box(inner):
        raise ValueError("outer must contain inner")
    for axis in range(outer.dim):
        for side, gap in (
            (0, inner.anchor[axis] - outer.anchor[axis]),
            (1, outer.end[axis] - inner.end[axis]),
        ):
            if 0 < gap <= threshold:
                raise GapTooNarrow(axis, side, gap, threshold)
    slabs = []
    for axis in range(outer.dim):
        for side in (0, 1):
            if side == 0:
                lo, hi = outer.anchor[axis], inner.anchor[axis]
            else:
                lo, hi = inner.end[axis], outer.end[axis]
            if hi <= lo:
                continue
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
            slabs.append((Box(tuple(anchor), tuple(shape)), axis))
    return slabs


def count_exact_tilings(width, height, tiles):
    """Number of exact tilings of a width x height box by the given tiles.

    Backtracking anchored at the first free cell in scan order; the tile
    covering that cell must have its anchor there, so each tiling is counted
    exactly once.
    """
    free = [[True] * height for _ in range(width)]

    def fits(x, y, tw, th):
        if x + tw > width or y + th > height:
            return False
        return all(free[i][j] for i in range(x, x + tw) for j in range(y, y + th))

    def mark(x, y, tw, th, value):
        for i in range(x, x + tw):
            for j in range(y, y + th):
                free[i][j] = value

    def walk():
        spot = next(
            ((x, y) for x in range(width) for y in range(height) if free[x][y]),
            None,
        )
        if spot is None:
            return 1
        x, y = spot
        found = 0
        for tw, th in tiles:
            if fits(x, y, tw, th):
                mark(x, y, tw, th, False)
                found += walk()
                mark(x, y, tw, th, True)
        return found

    return walk()


def allowed_neighbor(alphabet, s: Symbol, axis: int, t: Symbol) -> bool:
    """One-step rule: does symbol ``t`` legally follow ``s`` along ``axis``?"""
    shape = alphabet.shape(s.tile)
    if s.offset[axis] < shape[axis] - 1:
        expected = s.offset[:axis] + (s.offset[axis] + 1,) + s.offset[axis + 1 :]
        return t.tile == s.tile and t.offset == expected
    return t.offset[axis] == 0


def equals_on(a: SymbolicWord, b: SymbolicWord, box: Box) -> bool:
    """Do two words hold the same symbols (or holes) on ``box``?"""
    return bool(np.array_equal(a.subgrid(box), b.subgrid(box)))


def same_placements(a: Tiling, b: Tiling) -> bool:
    """Do two tilings hold the same placements, in whatever order?"""
    a, b = a.sorted_canonical(), b.sorted_canonical()
    return bool(
        a.tile_order == b.tile_order
        and np.array_equal(a.codes, b.codes)
        and np.array_equal(a.anchors, b.anchors)
    )


def enumerate_boundary_complete_words(alphabet, width, height, sample=None):
    """Count full symbol grids obeying the one-step rule with no cut tiles.

    Cells are assigned in scan order; a candidate symbol must continue its
    left and lower neighbors and may not let a tile cross the box boundary
    (offset pinned to 0 at low faces and to the far side at high faces).
    When ``sample`` is given, every sample-th completed grid is appended to
    it as a {cell: symbol} dict for external re-checking.
    """
    symbols = list(alphabet.symbols)
    grid = {}
    counted = 0

    def candidates(x, y):
        for s in symbols:
            sw, sh = alphabet.shape(s.tile)
            if x == 0 and s.offset[0] != 0:
                continue
            if x == width - 1 and s.offset[0] != sw - 1:
                continue
            if y == 0 and s.offset[1] != 0:
                continue
            if y == height - 1 and s.offset[1] != sh - 1:
                continue
            if x > 0 and not allowed_neighbor(alphabet, grid[(x - 1, y)], 0, s):
                continue
            if y > 0 and not allowed_neighbor(alphabet, grid[(x, y - 1)], 1, s):
                continue
            yield s

    def walk(position):
        nonlocal counted
        if position == width * height:
            counted += 1
            if sample is not None and counted % sample.rate == 0:
                sample.words.append(dict(grid))
            return
        x, y = divmod(position, height)
        for s in candidates(x, y):
            grid[(x, y)] = s
            walk(position + 1)
        grid.pop((x, y), None)

    walk(0)
    return counted


class WordSample:
    """Collects every rate-th enumerated word for independent re-validation."""

    def __init__(self, rate):
        self.rate = rate
        self.words = []


def validate_word_by_mask(word):
    """All one-step violations, from a per-cell mask built on every call.

    Per axis, every assigned pair is looked up in the 2-d transition table
    and the failures are listed in ``np.argwhere`` order, axis by axis.
    """
    out = []
    grid = word.grid
    alphabet = word.alphabet
    for axis in range(alphabet.dim):
        lo = [slice(None)] * alphabet.dim
        hi = [slice(None)] * alphabet.dim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        a = grid[tuple(lo)]
        b = grid[tuple(hi)]
        both = (a >= 0) & (b >= 0)
        if not np.any(both):
            continue
        table = alphabet.transition(axis)
        bad = np.zeros(a.shape, dtype=bool)
        bad[both] = ~table[a[both], b[both]]
        for rel in np.argwhere(bad):
            cell = tuple(int(x + y) for x, y in zip(word.box.anchor, rel))
            sym = alphabet.symbol(int(a[tuple(rel)]))
            nb = alphabet.symbol(int(b[tuple(rel)]))
            out.append(Violation(cell, axis, sym, nb))
    return out


def decode_by_cells(word):
    """(whole placements, partials, partial cells) of a word, cell by cell.

    Each assigned cell votes for the placement (tile, cell - offset); a
    placement is whole iff it collected its tile's full volume.  Whole
    placements come back as a set, partials in (tile order, anchor) order.
    """
    alphabet = word.alphabet
    groups = {}
    for cell, sym in iter_cells(word):
        key = Placement(sym.tile, tuple(c - o for c, o in zip(cell, sym.offset)))
        groups[key] = groups.get(key, 0) + 1
    whole = set()
    partials = []
    partial_cells = 0
    for key, count in groups.items():
        if count == math.prod(alphabet.shape(key.tile)):
            whole.add(key)
        else:
            partials.append(key)
            partial_cells += count
    partials.sort(key=lambda p: (alphabet.tiles.index(p.tile), p.anchor))
    return whole, partials, partial_cells


def symbol_block(alphabet, tile):
    """One tile's grid of symbol indices, one ``alphabet.index`` per offset."""
    shape = alphabet.shape(tile)
    block = np.empty(shape, dtype=np.int32)
    for offset in np.ndindex(shape):
        block[offset] = alphabet.index(Symbol(tile, offset))
    return block


def wall_pattern_by_roll(wall, box):
    """A wall's symbol grid over ``box``: one brick's ``symbol_block``, rolled
    to the box's phase, tiled over it and cut."""
    pattern = symbol_block(wall.alphabet, wall.tile)
    phase = tuple((a - t) % p for a, t, p in zip(box.anchor, wall.translate, wall.period))
    rolled = np.roll(pattern, tuple(-ph for ph in phase), axis=tuple(range(box.dim)))
    reps = tuple(-(-e // p) for e, p in zip(box.shape, wall.period))
    return np.tile(rolled, reps)[tuple(slice(0, e) for e in box.shape)].copy()


def fill_word_by_pastes(fill, box):
    """A fill's symbol grid over ``box``: the outer wall, the inner wall
    pasted on the inner core, then each strip run pasted as the wall of its
    tile anchored at the run's corner, all by ``wall_pattern_by_roll``."""
    word = SymbolicWord(fill.alphabet, box, wall_pattern_by_roll(fill.outer_wall, box))
    pastes = [(fill.inner_wall, fill.inner_core)] if fill.inner_core is not None else []
    pastes += [(BrickWall(fill.alphabet, run.tile, run.box.anchor), run.box) for run in fill.runs]
    for wall, core in pastes:
        clip = box.intersect(core)
        if clip is not None:
            word.paste(clip, wall_pattern_by_roll(wall, clip))
    return word.grid


def strip_run_anchors(run):
    """A strip run's tile anchors, one row each, in C order: its box cut
    into ``run.counts`` equal tiles per axis."""
    box, shape = run.box, [e // c for e, c in zip(run.box.shape, run.counts)]
    return grid_rows([
        np.arange(a, a + e, s, dtype=np.int64) for a, e, s in zip(box.anchor, box.shape, shape)
    ])


def tiles_meeting_by_parts(fill, box):
    """A fill's tiles that meet ``box``, part by part: the outer wall's
    bricks that meet ``box`` less those that meet ``outer_core``, the inner
    wall's bricks on ``inner_core`` that meet ``box``, and each strip run's
    tiles that meet ``box``; a tile of shape s meets a box iff it lies in
    the box grown by s - 1 on its low faces and on its high faces."""
    def reach(b, shape):
        return Box(
            tuple(a - s + 1 for a, s in zip(b.anchor, shape)),
            tuple(e + 2 * s - 2 for e, s in zip(b.shape, shape)),
        )

    alphabet = fill.alphabet
    outer = fill.outer_wall.bricks(reach(box, fill.outer_wall.period))
    if fill.outer_core is not None:
        near = reach(fill.outer_core, fill.outer_wall.period)
        outer = outer[~within(outer, fill.outer_wall.period, near.anchor, near.end)]
    parts = [(fill.outer_wall.tile, outer)]
    if fill.inner_core is not None:
        near = fill.inner_core.intersect(reach(box, fill.inner_wall.period))
        if near is not None:
            parts.append((fill.inner_wall.tile, fill.inner_wall.bricks(near)))
    for run in fill.runs:
        if box.contains_box(run.box):
            parts.append((run.tile, strip_run_anchors(run)))
        elif run.box.intersect(box) is not None:
            anchors, shape = strip_run_anchors(run), alphabet.shape(run.tile)
            near = reach(box, shape)
            parts.append((run.tile, anchors[within(anchors, shape, near.anchor, near.end)]))
    return Tiling.from_parts(alphabet.tile_shapes, parts, box)


def check_partition_by_slices(tiles, box):
    """Refuse ``tiles`` unless, clipped to ``box``, they cover each of its
    cells exactly once: each tile adds 1 to the cells of its clip, and the
    first cell in C order whose count is not 1 is named in an InvalidWord."""
    counts = np.zeros(box.shape, dtype=np.int64)
    for tile, anchor in tiles.placements():
        clip = box.intersect(Box(anchor, tiles.tile_shapes[tile]))
        if clip is not None:
            rel = zip(clip.anchor, box.anchor, clip.shape)
            counts[tuple(slice(c - a, c - a + e) for c, a, e in rel)] += 1
    bad = np.argwhere(counts != 1)
    if len(bad):
        rel = tuple(int(r) for r in bad[0])
        cell = tuple(a + r for a, r in zip(box.anchor, rel))
        raise InvalidWord(f"the fill covers cell {cell} {counts[rel]} times")


def placements_by_parts(fill, box):
    """A fill's whole tiles inside ``box``, in ``tiles_meeting_by_parts``
    order, once ``check_partition_by_slices`` accepts its tiles that meet it."""
    tiles = tiles_meeting_by_parts(fill, box)
    check_partition_by_slices(tiles, box)
    inside = [box.contains_box(Box(a, tiles.tile_shapes[t])) for t, a in tiles.placements()]
    return Tiling(tiles.tile_shapes, tiles.codes[inside], tiles.anchors[inside], box)


def encode(tiling, alphabet, window=None):
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
        block = symbol_block(alphabet, tile)
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


def serialize_by_lines(tiling, seed=0):
    """Tiling file text, one f-string per placement line."""
    canon = tiling.sorted_canonical()
    lines = [
        TILING_MAGIC,
        f"dim {canon.dim}",
        f"shapes {_fmt_shapes(canon.tile_shapes)}",
        _window_line(canon.window),
        f"seed {seed}",
    ]
    order = canon.tile_order
    for code, anchor in zip(canon.codes, canon.anchors):
        coords = " ".join(str(int(x)) for x in anchor)
        lines.append(f"{order[int(code)]} {coords}")
    return "\n".join(lines) + "\n"


@_fields_of("tiling")
def parse_by_lines(text):
    """(tiling, seed) of a tiling file, one ``str.split`` and ``int`` per line.

    Non-blank lines come from ``str.splitlines``; placements are grouped by
    tile and sorted into canonical order at the end.
    """
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
    return tiling_from_records(shapes, dim, window, tiles, anchors), seed


def tiling_from_records(shapes, dim, window, tiles, anchors):
    """Tiling of parallel tile and anchor lists, grouped by tile and sorted
    into canonical order; refuses a bad shape, an unknown tile (the first in
    placement order) or an anchor that is not ``dim`` int64 coordinates."""
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


def set_cell(word, cell, symbol):
    """Write one symbol at an absolute cell of the word's box."""
    word.grid[tuple(x - a for x, a in zip(cell, word.box.anchor))] = word.alphabet.index(symbol)


def iter_cells(word):
    """The word's assigned cells and their symbols, in lexicographic order."""
    for rel in np.argwhere(word.grid >= 0):
        cell = tuple(int(a + r) for a, r in zip(word.box.anchor, rel))
        yield cell, word.alphabet.symbol(int(word.grid[tuple(rel)]))


def word_from_records(shapes, dim, window, records):
    """Word of ``(cell, tile, offset)`` records, one ``set_cell`` each.

    Raises ParseError on a missing window, an unknown tile, a cell outside
    the window or listed twice, or an offset the tile does not have, at the
    first record that has one, in that order.
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
            set_cell(word, cell, Symbol(tile, offset))
        except KeyError as exc:
            raise ParseError(f"offset {offset} invalid for tile {tile!r}") from exc
    return word


def serialize_word_by_lines(word, seed=0):
    """Word file text, one f-string per assigned cell."""
    alphabet = word.alphabet
    lines = [
        WORD_MAGIC,
        f"dim {alphabet.dim}",
        f"shapes {_fmt_shapes(alphabet.tile_shapes)}",
        _window_line(word.box),
        f"seed {seed}",
    ]
    for cell, sym in iter_cells(word):
        lines.append(f"{' '.join(map(str, cell))} {sym.tile} {' '.join(map(str, sym.offset))}")
    return "\n".join(lines) + "\n"


@_fields_of("word")
def parse_word_by_lines(text):
    """(word, seed) of a word file, one ``str.split`` and ``int`` per line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    dim, shapes, window, seed, idx = _read_header(lines, WORD_MAGIC)
    records = []
    for ln in lines[idx:]:
        parts = ln.split()
        if len(parts) != 2 * dim + 1:
            raise ParseError(f"bad cell line {ln!r}")
        cell = tuple(int(x) for x in parts[:dim])
        records.append((cell, _parse_tile(parts[dim]), tuple(int(x) for x in parts[dim + 1 :])))
    return word_from_records(shapes, dim, window, records), seed


def load_by_text_mode(path):
    """``load_any`` as one text-mode read of the file: UTF-8 decoded whole,
    universal newlines, the kind told from the first non-blank line, then
    the package's reader of that kind."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8: {exc}") from exc
    end = text.find("\n", len(text) - len(text.lstrip()))
    head = text if end < 0 else text[:end]
    first = next((ln for ln in head.splitlines() if ln.strip()), "")
    for kind, parse in (("tiling", parse_tiling), ("word", parse_word)):
        if first == f"dominofill {kind} v1":
            built, seed = parse(text)
            return LoadedFile(kind, seed=seed, **{kind: built})
    if first.startswith("dominofill "):
        raise VersionMismatch(f"unsupported format marker {first!r}")
    raise ParseError(f"unrecognized file {path!r}")


def locate_by_points(towers, points, lo, hi):
    """``StageTowers.locate`` one point at a time: per axis a Python ``divmod``
    of the point less the lattice start by ``step`` (floored, so a point just
    below the start is in lattice index -1), the C-order index of the
    indices, and whether every index is in range and every offset in
    ``[lo[a], hi[a])`` (numbers, or one value per point)."""
    start = [w + o for w, o in zip(towers.window.anchor, towers.offset)]
    cells, inside = [], []
    for k, point in enumerate(points.tolist()):
        cell, ok = 0, True
        for a, (x, count) in enumerate(zip(point, towers.counts)):
            index, rel = divmod(x - start[a], towers.step)
            low, high = (int(np.broadcast_to(b[a], len(points))[k]) for b in (lo, hi))
            ok = ok and 0 <= index < count and low <= rel < high
            cell = cell * count + index
        cells.append(cell)
        inside.append(ok)
    return np.array(cells, dtype=np.int64), np.array(inside, dtype=bool)


class StageWord(NamedTuple):
    """A stage as a word over the whole window and a list of ``TowerBlock``s."""

    word: SymbolicWord
    blocks: list


def build_stage_per_block(state, towers, wall, plan, tails=None):
    """One construction stage with a wall drawn per tower and a band filled per block.

    ``state`` is the previous stage: its ``blocks`` are read as ``TowerBlock``s
    and its ``word`` on their domains.

    Tower k is a pure wall tower at stage 1 or where the boolean ``tails``
    mask is set.  A tower keeps each previous block whose anchor lies in the
    tower shrunk by the block's collar plus the previous tower side plus 2
    on every face.
    """
    spec, base = plan.stages[towers.stage - 1], plan.base
    word = SymbolicWord(wall.alphabet, towers.window)
    blocks = []
    if state is not None and state.blocks:
        prev_anchors = np.array([blk.box.anchor for blk in state.blocks])
        prev_depth = np.array([blk.collar + 2 + blk.box.shape[0] for blk in state.blocks])[:, None]
    for k, row in enumerate(towers.anchors):
        anchor = tuple(int(x) for x in row)
        tower_box = Box(anchor, (spec.side,) * towers.window.dim)
        pure = towers.stage == 1 or (tails is not None and bool(tails[k]))
        tile = plan.brick_id(towers.stage) if pure else wall.tile
        collar = spec.collar if pure else base.fill_length
        translate = [t + a for t, a in zip(wall.translate, anchor)]
        tower_wall = BrickWall(wall.alphabet, tile, translate)
        domain = interior(tower_box, collar + 1)
        word.paste(domain, tower_wall.pattern_over(domain))
        if not pure and state is not None and state.blocks:
            lo = np.array(anchor) + prev_depth
            hi = np.array(anchor) + spec.side - prev_depth
            inside = np.all((lo <= prev_anchors) & (prev_anchors < hi), axis=1)
            for i in np.flatnonzero(inside):
                blk = state.blocks[i]
                fill = fill_between(blk.wall, blk.domain, tower_wall, base, blk.collar)
                band = interior(blk.box, 1)
                word.paste(band, fill.materialize(band).grid)
                word.paste(blk.domain, state.word.subgrid(blk.domain))
        blocks.append(TowerBlock(tower_box, collar, tower_wall, domain))
    return StageWord(word, blocks)


def finalize_by_decode(state, plan):
    """(tiling, report) of a stage, read back from its whole word.

    The word over the window is validated once, then each block domain is
    decoded from the word restricted to it, and the whole placements of all
    blocks merged and sorted.
    """
    blocks = state.blocks
    word = state.word
    violations = validate_word(word)
    if violations:
        raise InvalidWord(f"stage {blocks.towers.stage} word is invalid: {violations[0]}")
    results = []
    for k in np.unique(blocks.kind).tolist():
        domain = blocks.domain(k)
        for anchor in blocks.towers.anchors[blocks.kind == k].tolist():
            results.append(decode(word.restrict(domain.translate(tuple(anchor)))))
    partial_cells = sum(r.partial_cells for r in results)
    tiling = Tiling(
        word.alphabet.tile_shapes,
        np.concatenate([r.tiling.codes for r in results]),
        np.concatenate([r.tiling.anchors for r in results]),
        blocks.towers.window,
    ).sorted_canonical()
    report = FrequencyReport.of_tiling(tiling, plan.targets, partial_cells)
    collar_bound = plan.collar_mass_bound()
    report.notes["small_fraction_below_min_target"] = bool(
        report.small_tile_fraction() < plan.min_small_target()
    )
    report.notes["large_fraction_above_collar_bound"] = bool(
        report.large_fraction() > 1 - collar_bound
    )
    report.notes["collar_mass_bound"] = collar_bound
    report.notes["predicted_error_budget"] = plan.predicted_error_budget()
    return tiling, report


def shuffle_by_below(rng, items):
    """Fisher-Yates with one scalar ``below`` draw per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def redistribute_by_rows(tiling, targets, report, seed, tile_shapes=None):
    """``tower.redistribute`` with every output anchor row formed.

    The same pools, counts and seeded shuffles, each pool's done by
    ``shuffle_by_below``; each chosen brick's tile grid is formed as rows,
    the parts are concatenated in order and the result is lexsorted by
    anchor, then code.
    """
    shapes = dict(tile_shapes) if tile_shapes is not None else dict(tiling.tile_shapes)
    small_tiles = sorted(t for t in shapes if isinstance(t, int))
    large_tiles = sorted(
        (t for t in shapes if not isinstance(t, int)),
        key=lambda t: math.prod(shapes[t]),
        reverse=True,
    )
    if len(small_tiles) != len(targets.probs):
        raise InvalidTargets(f"{len(small_tiles)} small tiles, {len(targets.probs)} targets")
    covered = report.covered_cells
    if covered == 0:
        return tiling
    deficits = {}
    for j in small_tiles:
        measured = Fraction(report.tile_cells.get(j, 0), covered)
        p = targets.probs[j - 1]
        if measured > p:
            raise TargetsInfeasible(f"tile {j} already carries {measured}, above target {p}")
        deficits[j] = (p - measured) * covered
    rng = SplitMix64(seed)
    code_of = {t: i for i, t in enumerate(tiling.tile_order)}
    parts = []
    for j in small_tiles:
        if j in code_of:
            sel = tiling.codes == code_of[j]
            if np.any(sel):
                parts.append((j, tiling.anchors[sel]))
    for rank, pool_tile in enumerate(large_tiles):
        if pool_tile not in code_of:
            continue
        pool_anchors = tiling.anchors[tiling.codes == code_of[pool_tile]]
        n_pool = len(pool_anchors)
        if n_pool == 0:
            continue
        period = shapes[pool_tile]
        area = math.prod(period)
        eligible = [j for j in small_tiles if _divides(shapes[j], period)]
        finer = set()
        for other in large_tiles[rank + 1 :]:
            finer.update(j for j in small_tiles if _divides(shapes[j], shapes[other]))
        exclusive = [j for j in eligible if j not in finer]
        keep = targets.tail_mass * covered if rank == 0 else Fraction(0)
        alloc = _pool_allocation(deficits, eligible, exclusive, Fraction(n_pool * area) - keep)
        shared = [j for j in eligible if j not in exclusive]
        quotas_ex = [alloc.get(j, Fraction(0)) / area for j in exclusive]
        n_ex = min(n_pool, math.ceil(sum(quotas_ex, start=Fraction(0))))
        counts_ex = _largest_remainder(quotas_ex, n_ex, rng.fork(10 + rank))
        quotas_sh = [alloc.get(j, Fraction(0)) / area for j in shared]
        quotas_sh.append(n_pool - n_ex - sum(quotas_sh, start=Fraction(0)))
        counts_sh = _largest_remainder(quotas_sh, n_pool - n_ex, rng.fork(30 + rank))
        counts = counts_ex + counts_sh
        shuffled = list(range(n_pool))
        shuffle_by_below(rng.fork(20 + rank), shuffled)
        perm = np.array(shuffled, dtype=np.int64)
        pos = 0
        for label, cnt in zip(exclusive + shared + [None], counts):
            chosen = pool_anchors[perm[pos : pos + cnt]]
            pos += cnt
            if cnt == 0:
                continue
            if label is None:
                parts.append((pool_tile, chosen))
            else:
                parts.append((label, _subdivide(chosen, period, shapes[label])))
                deficits[label] = max(deficits[label] - Fraction(cnt * area), Fraction(0))
    merged = Tiling.from_parts(shapes, parts, tiling.window)
    order = np.lexsort([merged.codes] + [merged.anchors[:, a] for a in range(merged.dim)][::-1])
    return Tiling(shapes, merged.codes[order], merged.anchors[order], tiling.window)


def _subdivide(anchors, period, tile_shape):
    """Anchors of the tile grid refining each brick placement."""
    offsets = grid_rows([np.arange(0, p, s, dtype=np.int64) for p, s in zip(period, tile_shape)])
    return (anchors[:, None, :] + offsets[None, :, :]).reshape(-1, anchors.shape[1])


MAX_PAINT_CELLS_BY_ROWS = 300_000_000
PAINT_CHUNK = 1 << 16


def verify_tiling_by_rows(tiling, window=None, max_reported=50):
    """Containment and overlap problems of a tiling, from reductions along
    the rows of the ``(n, dim)`` anchor and end arrays.

    Anchors and tile ends are Python ints (object arrays), so a tile end
    past int64 is compared exactly.
    """
    problems = []
    if len(tiling) == 0:
        return problems
    window = window if window is not None else tiling.window
    table = tiling.shape_table()
    anchors = tiling.anchors.astype(object)
    ends = anchors + table[tiling.codes]
    if window is not None:
        lo = np.array(window.anchor, dtype=object)
        hi = np.array(window.end, dtype=object)
        outside = np.any(anchors < lo, axis=1) | np.any(ends > hi, axis=1)
        for idx in np.flatnonzero(outside)[:max_reported]:
            tile = tiling.tile_order[int(tiling.codes[idx])]
            problems.append(
                f"placement {tile} at {tuple(int(x) for x in anchors[idx])} leaves the window"
            )
        if int(outside.sum()) > max_reported:
            problems.append(f"... and {int(outside.sum()) - max_reported} more outside")
    base = np.min(anchors, axis=0)
    extent = tuple(int(e) for e in np.max(ends, axis=0) - base)
    volume = math.prod(extent)
    if volume > MAX_PAINT_CELLS_BY_ROWS:
        problems.append(f"bounding box of {volume} cells is too large to paint; not checked")
        return problems
    rel = (anchors - base).astype(np.int64)
    painted = np.zeros(volume, dtype=bool)
    for cells in _painted_cells_by_rows(rel, tiling.codes, table, extent):
        painted[cells] = True
    if np.count_nonzero(painted) == int(np.prod(table, axis=1)[tiling.codes].sum()):
        return problems
    cells, counts = np.unique(
        np.concatenate(list(_painted_cells_by_rows(rel, tiling.codes, table, extent))),
        return_counts=True,
    )
    over = counts > 1
    for flat, count in zip(cells[over][:max_reported], counts[over]):
        cell = tuple(int(x) + int(y) for x, y in zip(base, np.unravel_index(flat, extent)))
        cell_arr = np.array(cell, dtype=object)
        inside = np.all(anchors <= cell_arr, axis=1) & np.all(ends > cell_arr, axis=1)
        owners = [
            (tiling.tile_order[int(tiling.codes[i])], tuple(int(x) for x in anchors[i]))
            for i in np.flatnonzero(inside)[:4]
        ]
        problems.append(f"cell {cell} covered {int(count)} times by {owners}")
    if int(over.sum()) > max_reported:
        problems.append(f"... and {int(over.sum()) - max_reported} more overlapping cells")
    return problems


def _painted_cells_by_rows(rel, codes, table, extent):
    """Flat indices of the cells each tile's placements cover, ``PAINT_CHUNK``
    placements at a time, one broadcast of anchors against tile offsets."""
    strides = np.cumprod((extent[1:] + (1,))[::-1])[::-1]
    for code, shape in enumerate(table):
        start = rel[codes == code] @ strides
        offs = np.indices(tuple(shape)).reshape(len(shape), -1).T @ strides
        for lo in range(0, len(start), PAINT_CHUNK):
            yield (start[lo : lo + PAINT_CHUNK, None] + offs[None, :]).ravel()
